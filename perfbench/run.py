"""opalg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/opalg``).
Each run starts the workload in fresh child processes, one after another,
with ``PYTHONPATH=src``; nothing is installed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it is a ``meta`` object with
the interpreter, CPU count, seed and the host-speed probe.  Exit code 0
means every known answer matched; 1 means a mismatch (the result is still
printed); 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# Set-up is timed in this many fresh processes per run (the full run is
# one of them) and reported as the median.  The set-up-only processes run
# half before and half after the full run, so that the samples span the
# run instead of one moment of host speed.  quotient_table's set-up runs a
# completeness check and a basis enumeration, so it gets fewer.
SETUP_RUNS = {"gs_scaled": 7, "family_audit": 7, "quotient_table": 3}

CHILD_TIMEOUT_S = 170.0
PROBE_ITERATIONS = 2_000_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host-speed metadata only,
    never used to rescale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - t0


def run_child(args, out_dir: str, *, setup_only: bool, deadline: float) -> tuple[dict, float, float]:
    """Start one child, wait for it, return (result, setup_s, peak_rss_mb)."""
    result_path = os.path.join(out_dir, f"child-{os.getpid()}.json")
    argv = [
        sys.executable, CHILD,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", out_dir, "--result", result_path,
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"{args.workload} child exceeded its time limit")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result, result["setup_done"] - t_spawn, usage.ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_RUNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "opalg", "__init__.py")):
        print("perfbench: run from the repository root (src/opalg not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_iterations": PROBE_ITERATIONS,
        "probe_s": host_probe(),
    }

    extra = 0 if args.trace else SETUP_RUNS[args.workload] - 1
    setups: list[float] = []
    try:
        for i in range(extra + 1):
            if i == extra // 2:
                res, setup_s, rss_mb = run_child(args, out_dir, setup_only=False, deadline=deadline)
            else:
                _, setup_s, _ = run_child(args, out_dir, setup_only=True, deadline=deadline)
            setups.append(setup_s)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta["probe_after_s"] = host_probe()
    meta["passes"] = len(res["pass_s"])
    meta["pass_s"] = res["pass_s"]
    meta["digests"] = sorted(set(res["digests"]))

    metrics: dict[str, dict] = {}
    if args.trace:
        untraced = statistics.median(res["pass_s"])
        meta["traced_run_s"] = res["traced_pass_s"]
        meta["untraced_run_s"] = untraced
        meta["spans_file"] = res["spans_file"]
        for name, (value, unit) in sorted(res["per_layer"].items()):
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": res["traced_pass_s"] - untraced, "unit": "s"}
    else:
        meta["setup_samples_s"] = setups
        meta["op_samples"] = res["op_samples"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_p99_ms": {"value": res["op_p99_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    meta["error_rate"] = failed / attempted
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
