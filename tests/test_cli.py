"""End-to-end command coverage, driven in-process through main()."""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opalg import cli
from opalg.cli import main
from opalg.opi import MAX_EXPANSION_WORDS
from opalg.terms import COUNT_CEILING, MAX_INPUT_CHARS

COMMUTATOR = "z2*z1 - z1*z2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


# -- nf / compare / instantiate ----------------------------------------------


def test_nf_insertion_catalog(capsys):
    code, out = run(capsys, "nf", "--catalog", "nijenhuis", "[z1]*[z2]")
    assert code == 0
    assert "normal form: [[z1]*z2] + [z1*[z2]] - [[z1*z2]]" in out


def test_nf_trace_lists_steps(capsys):
    code, out = run(capsys, "nf", "--catalog", "rb:1", "--trace", "[z1]*[z2]")
    assert code == 0
    assert "step 0: rule rb:1" in out


def test_nf_fuel_exhaustion_exits_nonzero(capsys):
    code, out = run(capsys, "nf", "--catalog", "nijenhuis", "--fuel", "0", "[z1]*[z2]")
    assert code == 1
    assert "fuel 0 exhausted" in out


def test_nf_with_concrete_generator(capsys):
    code, out = run(capsys, "nf", "--gens", "z2*z1 - z1*z2", "--order", "db", "z2*z1")
    assert code == 0
    assert "normal form: z1*z2" in out


def _nf_lines(out):
    return [line for line in out.splitlines() if not line.startswith("step ")]


@pytest.mark.parametrize(
    "flags, expr",
    [
        (["--catalog", "rb:6?lambda=1", "--bounds", "2,2"], "[z1]*[z2]*[z1]"),
        (["--catalog", "rb:6?lambda=1", "--gens", COMMUTATOR], "z2*[z2*z1]*z1 + 2*[z1]*[z2]"),
        (["--catalog", "diff:1", "--gens", "z1*z2 - 1"], "[z1*z2*z1] - z1*z2"),
        (["--catalog", "nijenhuis"], "[z1]*[z2]*[z1]"),
    ],
    ids=["rb6", "rb6-commutator", "diff1-unit", "nijenhuis"],
)
def test_nf_prints_the_same_result_with_and_without_trace_at_every_fuel(capsys, flags, expr):
    # nf answers from the memoized word normal forms, nf --trace steps
    code, out = run(capsys, "nf", "--trace", *flags, expr)
    assert code == 0
    steps = sum(line.startswith("step ") for line in out.splitlines())
    assert steps > 1
    for fuel in range(steps + 2):
        stepwise = run(capsys, "nf", "--trace", "--fuel", str(fuel), *flags, expr)
        memo = run(capsys, "nf", "--fuel", str(fuel), *flags, expr)
        assert (memo[0], _nf_lines(memo[1])) == (stepwise[0], _nf_lines(stepwise[1])), fuel
        assert memo[0] == (0 if fuel >= steps else 1)


def test_nf_at_fuel_one_prints_the_first_step_partial_result(capsys):
    # the memo knows the full normal form, but one step of fuel cannot reach it
    code, out = run(capsys, "nf", "--catalog", "rb:6?lambda=1", "--bounds", "2,2", "--fuel", "1", "[z1]*[z2]*[z1]")
    assert (code, out.splitlines()) == (1, [
        "normal form: [[z1]*z2]*[z1] + [z1*[z2]]*[z1] + [z1*z2]*[z1]",
        "fuel 1 exhausted; the result above is not fully reduced",
    ])


def test_nf_sorts_a_long_commutator_chain(capsys):
    # 33*33 steps, one word each: the memo fills them without recursion
    code, out = run(capsys, "nf", "--gens", COMMUTATOR, "--bounds", "66,0", "*".join(["z2"] * 33 + ["z1"] * 33))
    assert (code, out) == (0, "normal form: " + "*".join(["z1"] * 33 + ["z2"] * 33) + "\n")


def test_compare_breadth_direction(capsys):
    code, out = run(capsys, "compare", "[z1*z2]", "z1*[z2]")
    assert code == 0
    assert "[z1*z2] < z1*[z2]" in out
    code, out = run(capsys, "compare", "--order", "dt", "[z1*z2]", "z1*[z2]")
    assert "[z1*z2] > z1*[z2]" in out


def test_instantiate_weighted_insertion(capsys):
    code, out = run(
        capsys, "instantiate", "--catalog", "rb:6?lambda=1", "x1=z1", "x2=1"
    )
    assert code == 0
    assert "instance: [z1]*[1] - [z1*[1]] - [[z1]] - [z1]" in out
    assert "leading monomial: [z1]*[1]" in out


def test_instantiate_requires_catalog(capsys):
    code, out = run(capsys, "instantiate", "x1=z1", "x2=z2")
    assert code == 2
    assert "error:" in out


def test_instantiate_bundle_needs_name(capsys):
    code, out = run(capsys, "instantiate", "--catalog", "averaging", "x1=z1", "x2=z2")
    assert code == 2
    assert "--name" in out
    code, out = run(
        capsys,
        "instantiate",
        "--catalog",
        "averaging",
        "--name",
        "averaging:A",
        "x1=z1",
        "x2=z2",
    )
    assert code == 0
    assert "instance: [[z1]*z2] - [z1]*[z2]" in out


def test_instantiate_rejects_malformed_assignment(capsys):
    code, out = run(capsys, "instantiate", "--catalog", "rb:1", "x1")
    assert code == 2
    assert "error:" in out


def test_instantiate_refuses_a_variable_assigned_twice(capsys):
    code, out = run(capsys, "instantiate", "--catalog", "rb:6", "x1=z1", "x2=z2", "x1=[z2]")
    assert (code, out) == (2, "error: variable x1 is assigned twice\n")
    code, out = run(capsys, "instantiate", "--catalog", "rb:6", "x1=z1", " x1 =z1", "x2=z2")
    assert (code, out) == (2, "error: variable x1 is assigned twice\n")


# -- compositions / check-gs --------------------------------------------------


def test_compositions_splitting_config(capsys):
    code, out = run(
        capsys,
        "compositions",
        "--catalog",
        "diff:1",
        "--gens",
        "z1*z2 - 1",
        "--bounds",
        "2,1",
    )
    assert code == 1
    assert "5 record(s)" in out
    assert "NOT trivial" in out


def test_compositions_single_source_self_pairs(capsys):
    code, out = run(
        capsys, "compositions", "--gens", "z1*z1 - 1", "--bounds", "3,0", "--order", "db"
    )
    assert code == 0
    assert "1 record(s)" in out
    assert "overlap k=1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("compositions", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"),
        ("demo", "splitting-unit"),
    ],
)
def test_compositions_expand_each_catalog_entry_once(capsys, monkeypatch, argv):
    # the records and the rule set that reduces them share one expansion
    from opalg import gsbasis

    calls = []
    real = gsbasis.expand_instances

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gsbasis, "expand_instances", counted)
    code, out = run(capsys, *argv)
    assert code == 1 and ("5 record(s)" if argv[0] == "compositions" else "result: FAIL") in out
    assert len(calls) == 1


def test_check_gs_passing_config(capsys):
    code, out = run(
        capsys,
        "check-gs",
        "--catalog",
        "rb:6?lambda=1",
        "--gens",
        "z2*z1 - z1*z2",
        "--bounds",
        "3,2",
    )
    assert code == 0
    assert "result: PASS" in out
    assert "route: hypothesis" in out


def test_check_gs_failing_config(capsys):
    code, out = run(
        capsys,
        "check-gs",
        "--catalog",
        "diff:1",
        "--gens",
        "z1*z2 - 1",
        "--bounds",
        "2,1",
    )
    assert code == 1
    assert "result: FAIL" in out


def test_check_gs_raw_route_on_averaging(capsys):
    code, out = run(capsys, "check-gs", "--catalog", "averaging", "--route", "raw")
    assert code == 1
    assert "route: raw" in out
    code, out = run(capsys, "check-gs", "--catalog", "averaging")
    assert code == 0
    assert "skipped" in out


def test_check_gs_report_bytes_stable(tmp_path, capsys):
    args = [
        "check-gs",
        "--catalog",
        "diff:1",
        "--gens",
        "z1*z2 - 1",
        "--bounds",
        "2,1",
    ]
    paths = [tmp_path / n for n in ("a.json", "b.json")]
    run(capsys, *args, "--report", str(paths[0]))
    run(capsys, *args, "--report", str(paths[1]))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0].endswith(b"\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-gs", "--catalog", "rb:6?lambda=1", "--gens", COMMUTATOR, "--bounds", "3,2"],
        ["check-type", "--catalog", "rb:1", "--bounds", "2,1"],
    ],
    ids=["check-gs", "check-type"],
)
def test_report_in_a_missing_directory_exits_two_before_the_check(tmp_path, capsys, argv):
    path = tmp_path / "absent" / "x.json"
    code = main([*argv, "--report", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(path) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-gs", "--catalog", "rb:6?lambda=1", "--gens", COMMUTATOR, "--bounds", "3,2"],
        ["check-type", "--catalog", "rb:1", "--bounds", "2,1"],
    ],
    ids=["check-gs", "check-type"],
)
@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_report_path_naming_no_file_exits_two_before_the_check(tmp_path, capsys, argv, kind):
    path = "" if kind == "empty" else str(tmp_path)
    code = main([*argv, "--report", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot write the report to {path!r}" in captured.err


def test_refused_check_leaves_an_existing_report_untouched(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("kept\n", encoding="utf-8")
    code = main(["check-gs", "--catalog", "rb:1", "--bounds", "2,x", "--report", str(path)])
    capsys.readouterr()
    assert code == 2
    assert path.read_text(encoding="utf-8") == "kept\n"


# each command takes only the flags it reads; argparse refuses the others
@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in ("compare", "instantiate")
        for flag in (["--gens", "z1"], ["--gens-file", "g.txt"], ["--bounds", "2,2"], ["--fuel", "5"])
    ]
    + [("check-type", flag) for flag in (["--order", "db"], ["--gens", "z1"], ["--gens-file", "g.txt"])]
    + [("basis", ["--fuel", "5"])],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_command_refuses_a_flag_it_does_not_read(capsys, command, flag):
    operands = {"compare": ["z1", "z2"], "instantiate": ["x1=z1", "x2=z2"]}.get(command, [])
    code = main([command, "--catalog", "rb:1", *flag, *operands])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err


# -- check-type / basis / quotient-eval ---------------------------------------


def test_check_type_insertion_family(capsys, tmp_path):
    report = tmp_path / "rb1.json"
    code, out = run(
        capsys,
        "check-type",
        "--catalog",
        "rb:1",
        "--bounds",
        "2,1",
        "--report",
        str(report),
    )
    assert code == 0
    assert "PASSED" in out
    assert b'"passed": true' in report.read_bytes()


def test_check_type_has_no_template_for_averaging(capsys):
    code = main(["check-type", "--catalog", "averaging"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no structural template for family 'averaging'")


def test_check_type_wide_scope_exits_two_naming_the_limit(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "check-type", "--catalog", "rb:1", "--bounds", "2,7")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert f"over the limit of {MAX_EXPANSION_WORDS}" in out
    assert "check for" not in out


def test_check_type_wide_closure_probe_exits_two_naming_the_limit(capsys):
    # 15,655 words pass the pool limit, but 148,916 jointly bounded triples do not
    start = time.perf_counter()
    code, out = run(capsys, "check-type", "--catalog", "rb:1", "--bounds", "2,5")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert f"148916 jointly bounded triples, over the limit of {MAX_EXPANSION_WORDS}" in out
    assert "check for" not in out


def test_basis_for_erasure_family(capsys):
    code, out = run(
        capsys, "basis", "--catalog", "diffprime?c=1", "--alphabet", "z", "--bounds", "2,1"
    )
    assert code == 0
    assert "3 irreducible word(s)" in out
    assert out.index("  1\n") < out.index("  z\n") < out.index("  z*z\n")


def test_quotient_eval_refuses_unverified_set(capsys):
    code, out = run(
        capsys,
        "quotient-eval",
        "--catalog",
        "diff:1",
        "--gens",
        "z1*z2 - 1",
        "--bounds",
        "2,1",
        "1 + z1",
    )
    assert code == 1
    assert out.startswith("refused:")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--catalog", "rb:6?lambda=1", "--bounds", "2,9"], "over the limit of 50000"),
        (["--gens", "1"], "presents the unit ideal"),
    ],
)
def test_quotient_eval_usage_errors_exit_two_as_check_gs_does(capsys, flags, message):
    # only a set whose check runs and fails is refused with 1; a set the
    # check cannot take exits 2, as check-gs does on the same flags
    for argv in (["quotient-eval", *flags, "z1"], ["check-gs", *flags]):
        code, out = run(capsys, *argv)
        assert code == 2
        assert out.startswith("error: ") and message in out


def test_quotient_eval_parses_its_expression_before_the_check(capsys):
    code, out = run(capsys, "quotient-eval", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1", "[z1")
    assert code == 2
    assert out == "error: expected ']', found None (at position 3)\n"


def test_quotient_eval_bracket_pair(capsys):
    code, out = run(
        capsys,
        "quotient-eval",
        "--catalog",
        "rb:6?lambda=0",
        "--alphabet",
        "z",
        "[z]*[z]",
    )
    assert code == 0
    assert "normal form: [[z]*z] + [z*[z]]" in out


def test_quotient_eval_out_of_bounds_is_refused(capsys):
    code, out = run(
        capsys,
        "quotient-eval",
        "--catalog",
        "rb:6?lambda=0",
        "--alphabet",
        "z",
        "z*z*z",
    )
    assert code == 1
    assert out.startswith("refused:")


# -- demo / catalog / plumbing ------------------------------------------------


def test_demo_splitting_unit(capsys):
    code, out = run(capsys, "demo", "splitting-unit")
    assert code == 1
    assert "records: not_trivial=1, skipped=0, total=29, trivial=28, unresolved=0" in out
    assert "inclusion (diff:1[x1=z1, x2=z2], g0) at w = [z1*z2] [context [@]]" in out
    assert "NOT trivial: irreducible residue -z1*[z2] - [z1]*z2" in out
    assert out.endswith("result: FAIL\n")


@pytest.mark.parametrize("name", sorted(cli._DEMOS))
def test_demo_prints_the_check_gs_run_of_its_row(capsys, name):
    assert run(capsys, "demo", name) == run(capsys, "check-gs", *cli._DEMOS[name][1])


def test_demo_list(capsys):
    code, out = run(capsys, "demo", "--list")
    assert code == 0
    for name in ("splitting-unit", "rb-commutator", "averaging", "reynolds"):
        assert name in out


def test_demo_averaging_passes(capsys):
    code, out = run(capsys, "demo", "averaging")
    assert code == 0
    assert "result: PASS" in out


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "rb" in out and "averaging" in out and "reynolds" in out


@pytest.mark.parametrize("flag, value", [("--fuel", "-5")])
def test_check_gs_rejects_out_of_range_flags(capsys, flag, value):
    code, out = run(
        capsys, "check-gs", "--catalog", "rb:6?lambda=1", "--bounds", "3,2", flag, value
    )
    assert code == 2
    assert f"error: {flag} must be at least" in out
    assert "result:" not in out


def test_help_lists_no_seed_or_base_order(capsys):
    code, out = run(capsys, "check-gs", "--help")
    assert code == 0
    assert "--seed" not in out and "--base-order" not in out
    for flag, value in (("--seed", "7"), ("--base-order", "z2,z1")):
        code, out = run(capsys, "check-gs", "--catalog", "rb:1", flag, value)
        assert code == 2
        assert f"unrecognized arguments: {flag} {value}" in out


def test_demo_rejects_negative_fuel(capsys):
    code, out = run(capsys, "demo", "rb-commutator", "--fuel", "-1")
    assert code == 2
    assert "error: --fuel must be at least 0" in out


def test_help_prints_each_default(capsys):
    code, out = run(capsys, "check-gs", "--help")
    assert code == 0
    for default in ("(default z1,z2)", "(default 2,2)", "(default 2000)"):
        assert default in " ".join(out.split())
    assert "--config" not in out


def test_gens_file_skips_comments_and_blank_lines_and_reads_crlf(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_bytes(b"# idempotent z1\r\n\r\n   \r\nz1*z1 - z1\r\n")
    # --gens texts come first: the commutator is g0, the file's line g1
    from_file = run(capsys, "nf", "--trace", "--gens", COMMUTATOR, "--gens-file", str(path), "z2*z1*z2*z1")
    from_flags = run(capsys, "nf", "--trace", "--gens", COMMUTATOR, "--gens", "z1*z1 - z1", "z2*z1*z2*z1")
    assert from_file == from_flags
    assert "step 3: rule g1, context @*z2*z2" in from_file[1]


def test_gens_file_that_is_missing_exits_two(tmp_path, capsys):
    path = tmp_path / "absent.txt"
    code, out = run(capsys, "basis", "--gens-file", str(path))
    assert code == 2
    assert out.startswith("error: ") and str(path) in out


def test_gens_file_names_the_path_and_line_of_a_bad_polynomial(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text(f"{COMMUTATOR}\n\nz1*\n")
    assert run(capsys, "basis", "--gens-file", str(path)) == (2, f"error: {path}:3: expected a factor (at position 3)\n")


def test_gens_file_that_is_not_utf8_names_the_path_and_line(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_bytes(COMMUTATOR.encode() + b"\r\rz1\xff\n")
    assert run(capsys, "basis", "--gens-file", str(path)) == (
        2,
        f"error: {path}:3: not UTF-8 text: byte 0xff (invalid start byte)\n",
    )


def test_parse_error_exits_two(capsys):
    code, out = run(capsys, "nf", "--catalog", "rb:1", "[z1")
    assert code == 2
    assert "error:" in out


def test_deep_input_exits_two_naming_the_limit(capsys):
    deep = "[" * 1200 + "z1" + "]" * 1200
    code, out = run(capsys, "nf", "--catalog", "rb:6?lambda=1", deep)
    assert code == 2
    assert "error: brackets nested deeper than the limit of 100" in out
    assert "recursion" not in out
    code, out = run(capsys, "nf", "--catalog", "rb:6?lambda=1", "z1 + 2*" + deep)
    assert code == 2
    assert "limit of 100" in out


def test_long_input_exits_two_naming_the_limit_at_once(capsys):
    long = "z1" + "*z1" * 33333
    assert len(long) == MAX_INPUT_CHARS + 1
    t0 = time.perf_counter()
    code, out = run(capsys, "check-gs", "--gens", long, "--bounds", "2,1")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert f"error: input of 100001 characters is over the limit of {MAX_INPUT_CHARS}" in out


def test_wide_expansion_scope_exits_two_naming_the_limit(capsys):
    # nf widens the rule scope to the input's operator degree; 12 brackets
    # would range each variable of rb:6 over about 89 million words
    deep = "[" * 12 + "z1" + "]" * 12
    start = time.perf_counter()
    code, out = run(capsys, "nf", "--catalog", "rb:6?lambda=1", deep)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert f"over the limit of {MAX_EXPANSION_WORDS}" in out
    assert "normal form" not in out


@pytest.mark.parametrize(
    "argv, subject",
    [
        (["check-gs", "--catalog", "rb:1"], "expanding rb:1"),
        (["check-type", "--catalog", "rb:1"], "auditing rb:1"),
        (["nf", "--catalog", "rb:1", "z1"], "expanding rb:1"),
        (["basis", "--catalog", "rb:1"], "expanding rb:1"),
        (["basis", "--gens", "z1"], "enumerating irreducible words"),
    ],
    ids=["check-gs", "check-type", "nf", "basis", "basis-gens"],
)
def test_huge_bounds_exit_two_at_once_naming_the_limit(capsys, argv, subject):
    # the word count stops as soon as it is far over the limit
    start = time.perf_counter()
    code, out = run(capsys, *argv, "--bounds", "400,400")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"error: {subject} at bounds (400, 400) would" in out
    assert f"more than {COUNT_CEILING} words, over the limit of {MAX_EXPANSION_WORDS}" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check-gs", "--alphabet", "z1", "--catalog", "diffprime", "--bounds", "999998,0"],
            "expanding diffprime at bounds (999998, 0) would range each variable over 999999 words",
        ),
        (
            ["check-type", "--alphabet", "z1", "--catalog", "rb:1", "--bounds", "999999,0"],
            "auditing rb:1 at bounds (999999, 0) would probe 1000000 words",
        ),
        (
            ["basis", "--gens", "z1", "--bounds", "16,0"],
            "enumerating irreducible words at bounds (16, 0) would build 131071 words",
        ),
    ],
    ids=["check-gs", "check-type", "basis"],
)
def test_word_counts_under_the_ceiling_exit_two_at_once_with_the_exact_count(capsys, argv, message):
    # one letter without brackets is counted in closed form, not cell by cell
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"error: {message}, over the limit of {MAX_EXPANSION_WORDS}" in out


def test_basis_on_one_letter_far_past_the_recursion_limit(capsys):
    code, out = run(capsys, "basis", "--alphabet", "z1", "--gens", "z1", "--bounds", "2000,0")
    assert code == 0
    assert "1 irreducible word(s) at bounds (2000, 0)" in out


def test_removed_jobs_flag_and_config_key_exit_two(tmp_path, capsys):
    code, out = run(capsys, "check-gs", "--catalog", "rb:1", "--jobs", "2")
    assert code == 2
    # settings come from flags alone: the config file itself is refused
    cfg = tmp_path / "old.cfg"
    cfg.write_text("jobs = 2\n")
    code, out = run(capsys, "check-gs", "--config", str(cfg), "--catalog", "rb:1")
    assert code == 2
    assert f"unrecognized arguments: --config {cfg}" in out


def test_unknown_catalog_selector_exits_two(capsys):
    code, out = run(capsys, "nf", "--catalog", "rb:99", "z1")
    assert code == 2
    assert "error:" in out


@pytest.mark.parametrize("selector, key", [("rb:6?lambda=1,lambda=2", "lambda"), ("reynolds?n=4,n=5", "n")])
def test_repeated_selector_parameter_exits_two_naming_it(capsys, selector, key):
    code, out = run(capsys, "check-gs", "--catalog", selector)
    assert code == 2
    assert f"error: selector {selector!r}: parameter {key} is given twice" in out


def test_order_preset_conflict_with_catalog(capsys):
    # rb declares db; forcing dt on its entry must be refused
    code, out = run(capsys, "check-gs", "--catalog", "rb:1", "--order", "dt")
    assert code == 2
    assert "error:" in out


def test_catalog_entries_of_two_presets_cannot_share_a_generator_set(capsys):
    mixed = ("check-gs", "--catalog", "rb:6", "--catalog", "diff:1")
    message = "error: catalog entries of different presets (db, dt) cannot share one generator set\n"
    for order in ((), ("--order", "db"), ("--order", "dt")):
        assert run(capsys, *mixed, *order) == (2, message)


def test_compare_with_catalog_entries_of_two_presets_uses_db(capsys):
    # compare builds no generator set; a mixed catalog leaves the order at db
    mixed = ("compare", "--catalog", "rb:6", "--catalog", "diff:1", "[z1*z2]", "z1*[z2]")
    expected = "[z1*z2] < z1*[z2]   under db(base z1<z2)\n"
    assert run(capsys, *mixed) == (0, expected)
    assert run(capsys, *mixed, "--order", "db") == (0, expected)


def test_removed_deglex_order_exits_two_naming_the_presets(capsys):
    gens = ("--gens", "z2*z1 - z1*z2")
    for preset in ("deglex", ""):
        for command in (("check-gs", *gens), ("nf", *gens, "z2*z1")):
            code, out = run(capsys, *command, "--order", preset)
            assert code == 2
            assert f"error: unknown order preset {preset!r}; choose from db, dt" in out


def test_unknown_flag_exits_two(capsys):
    code = main(["compare", "--sideways", "z1", "z2"])
    capsys.readouterr()
    assert code == 2


def test_missing_command_exits_two(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_parser_is_built_once_and_reused_without_leaks(capsys, monkeypatch):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    fresh = cli._build_parser.__wrapped__()
    seen = []
    real = parser.parse_args

    def recording(argv=None):
        ns = real(argv)
        seen.append((argv, ns))
        return ns

    monkeypatch.setattr(parser, "parse_args", recording)
    twice = ["nf", "--catalog", "rb:1", "--catalog", "rb:2", "[z1]*[z2]"]
    once = ["nf", "--catalog", "rb:1", "[z1]*[z2]"]
    raw = ["check-gs", "--catalog", "averaging", "--route", "raw", "--bounds", "1,1"]
    plain = ["check-gs", "--gens", "z1*z2 - z2*z1", "--bounds", "1,1"]
    assert run(capsys, *twice) == (0, "normal form: [z1*[z2]]\n")
    assert run(capsys, *once) == (0, "normal form: [z1*[z2]]\n")
    code, out = run(capsys, "check-gs", "--help")  # SystemExit inside parse_args
    assert code == 0 and out.startswith("usage: opalg check-gs")
    assert run(capsys, *raw)[0] == 0
    assert run(capsys, *plain)[0] == 0
    assert [argv for argv, _ in seen] == [twice, once, raw, plain]
    assert seen[0][1].catalog == ["rb:1", "rb:2"]
    assert seen[1][1].catalog == ["rb:1"]
    assert seen[2][1].route == "raw"
    assert seen[3][1].catalog is None and seen[3][1].route == "auto"
    for argv, ns in seen:
        assert vars(ns) == vars(fresh.parse_args(argv))


def test_installed_script_runs():
    exe = shutil.which("opalg")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "compare", "z1", "z2"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "z1 < z2" in proc.stdout


def test_module_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "opalg", "compare", "z1", "z2"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "z1 < z2" in proc.stdout


def test_closed_stdout_exits_one_with_nothing_on_stderr():
    # more output than a pipe buffers, so the run is still writing when the
    # reader goes away after the first line
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "opalg", "basis", "--catalog", "rb:6?lambda=1", "--bounds", "4,3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"12016 irreducible word(s)")
    assert err == b"", err.decode()
