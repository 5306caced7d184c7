"""LINVIEW end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload chain-uniform --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the same workload untraced in a child process
for half the seconds, then runs it traced for the other half and
prints the per-layer metrics, with the tracing overhead (traced against
untraced ``updates_per_s``) beside them.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> ``{"value", "unit"}``).  Any failed output check
makes ``correct`` false and the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: the box has two cores, and
# serve-ckpt already runs a generator and a writer thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Plan from the shipped cost constants, never from a per-user
# calibration cache outside the checkout.
os.environ["REPRO_CALIBRATION"] = "off"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Where run-time files go, inside the checkout (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Bound on the untraced child of a traced run (the whole run has 180 s).
CHILD_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "read_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(result) -> dict:
    """The user-visible metrics of one untraced run."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(result.setup),
        "updates_per_s": result.updates / result.busy,
        "update_p50_ms": 1e3 * percentile(result.update, 50),
        "update_p90_ms": 1e3 * percentile(result.update, 90),
        "read_p50_ms": 1e3 * percentile(result.read, 50),
        "fresh_p50_ms": 1e3 * percentile(result.fresh, 50),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def run_untraced_child(args, seconds: float) -> dict:
    """The same workload untraced, in a fresh process (the baseline)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            seconds = args.seconds / 2.0
            baseline = run_untraced_child(args, seconds)
            import layers

            tracer, workspaces = layers.start()
            began = time.perf_counter()
            try:
                result = run(args.seed, seconds, workdir, tracer)
            finally:
                wall = time.perf_counter() - began
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            metrics, failures = layers.metrics(
                tracer, workspaces, result, wall,
                baseline["metrics"]["updates_per_s"]["value"])
            result.failures.extend(failures)
            correct = baseline["correct"] and not result.failures
            attempted = result.attempted + baseline["attempted"]
            failed = result.failed + baseline["failed"]
        else:
            result = run(args.seed, args.seconds, workdir)
            metrics = end_to_end(result)
            correct = not result.failures
            attempted, failed = result.attempted, result.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in result.failures:
        print(f"CHECK FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
