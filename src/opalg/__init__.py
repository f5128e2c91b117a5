"""Rewriting in free operated algebras: bracketed words, monomial orders,
identity catalogs, composition records, and boundedly verified quotients.

The layers, bottom up:

``terms``
    bracketed words over an alphabet, contexts with one hole, occurrence
    and schema matching, exhaustive enumeration.
``poly``
    linear combinations with exact rational coefficients.
``orders``
    the shipped monomial orders.
``opi``
    identities with multilinear placeholder variables, the built-in
    catalog, instance expansion, leading-monomial checks.
``rewrite``
    ordered and raw rule sets, traced normal forms, structural audits of
    the two catalog templates.
``gsbasis``
    compositions between generators, bounded completeness checks, and
    quotient arithmetic behind a passing check.
``cli``
    the ``opalg`` command.
"""

from .gsbasis import (
    BoundsExceeded,
    CompositionRecord,
    GSReport,
    GeneratorSet,
    QuotientAlgebra,
    TrivialityResult,
    check_gs,
    enumerate_irr,
    evaluate_morphism,
    is_trivial,
)
from .opi import (
    OPI,
    CatalogEntry,
    Generator,
    catalog_help,
    check_lm_no_subword,
    check_lm_stability,
    expand_instances,
    instantiate,
    parse_catalog,
)
from .orders import OrderSpec
from .poly import OPoly, parse_opoly, render_opoly
from .rewrite import (
    ConcreteRule,
    ReductionResult,
    RuleSet,
    SchemaRule,
    check_diff_type,
    check_rb_type,
    normal_form,
)
from .terms import (
    UNIT,
    Alphabet,
    Bracket,
    Context,
    ParseError,
    Word,
    all_words,
    bracket,
    parse_context,
    parse_word,
    render,
    schema_occurrences,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundsExceeded",
    "Bracket",
    "CatalogEntry",
    "CompositionRecord",
    "ConcreteRule",
    "Context",
    "GSReport",
    "Generator",
    "GeneratorSet",
    "OPI",
    "OPoly",
    "OrderSpec",
    "ParseError",
    "QuotientAlgebra",
    "ReductionResult",
    "RuleSet",
    "SchemaRule",
    "TrivialityResult",
    "UNIT",
    "Word",
    "all_words",
    "bracket",
    "catalog_help",
    "check_diff_type",
    "check_gs",
    "check_lm_no_subword",
    "check_lm_stability",
    "check_rb_type",
    "enumerate_irr",
    "evaluate_morphism",
    "expand_instances",
    "instantiate",
    "is_trivial",
    "normal_form",
    "parse_catalog",
    "parse_context",
    "parse_opoly",
    "parse_word",
    "render",
    "render_opoly",
    "schema_occurrences",
    "substitute",
    "__version__",
]
