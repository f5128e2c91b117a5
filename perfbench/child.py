"""One workload in one fresh process: set up, run timed passes, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Writes one JSON document to ``--result``:

``setup_done``
    ``time.monotonic()`` when set-up ended (the parent subtracts its own
    reading taken just before it started this process);
``pass_s``
    wall time of each timed pass;
``op_p50_ms``, ``op_p99_ms``, ``op_samples``
    latency of the timed ops over all untraced passes;
``attempted``, ``failures``
    known-answer accounting (``failures`` names each mismatch);
``digests``
    one output digest per pass, for the determinism self-check;
``per_layer``, ``traced_pass_s``
    only with ``--trace 1``: the first pass (and set-up) runs under the
    tracer; later passes run untraced.

With ``--setup-only`` the process exits right after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

MAX_LISTED_FAILURES = 50


def percentile_ms(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of ``samples``, inclusive method."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import opalg

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(opalg.__file__).startswith(src + os.sep):
        print(f"perfbench: opalg imported from {opalg.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    setup_done = time.monotonic()
    result: dict = {"setup_done": setup_done}
    if args.setup_only:
        return _write(args.result, result)

    clock = time.perf_counter
    pass_s: list[float] = []
    latencies: list[float] = []
    digests: list[str] = []
    attempted = 0
    failures: list[str] = []
    traced_pass_s = None
    while True:
        seconds, lat, outputs = wl.run_pass(clock)
        if tracer is not None and traced_pass_s is None:
            tracer.uninstall()
            traced_pass_s = seconds
        else:
            pass_s.append(seconds)
            latencies += lat
        n, bad = wl.check(outputs)
        attempted += n
        failures += bad
        digests.append(wl.digest(outputs))
        if pass_s and sum(pass_s) + (traced_pass_s or 0.0) >= args.seconds:
            break
    n, bad = wl.check_run()
    attempted += n
    failures += bad

    result.update(
        pass_s=pass_s,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_LISTED_FAILURES],
        digests=digests,
    )
    result.update(
        op_p50_ms=percentile_ms(latencies, 50),
        op_p99_ms=percentile_ms(latencies, 99),
        op_samples=len(latencies),
    )
    if tracer is not None:
        result["traced_pass_s"] = traced_pass_s
        result["per_layer"] = tracer.metrics()
        spans_path = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}-trace.json")
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path)
    return _write(args.result, result)


def _write(path: str, doc: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
