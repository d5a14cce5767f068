"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload loop_paper --seed 1 --seconds 30 --trace 0

Run from the repository root; ``bitmotor`` is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that records spans around the calls into each module and
prints the per-layer metrics. The second-to-last line of standard output is
a JSON object with the environment and run details; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("loop_paper", "loop_desk", "train_desk")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def cap_blas_threads():
    """Let BLAS use at most one thread per CPU this process may run on."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= ncpu:
            os.environ[var] = str(ncpu)


def git_commit():
    """HEAD commit read from ``.git`` at the root, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed):
    import numpy as np

    from bitmotor import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        # kernels without a numba path have no default_backend(); they run numpy
        "kernel_backend": getattr(kernels, "default_backend", lambda: "numpy")(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cap_blas_threads()  # before numpy loads OpenBLAS
    sys.path.insert(0, str(ROOT / "src"))
    from measure import END_TO_END, PER_LAYER

    if args.workload == "train_desk":
        import train_desk

        res = train_desk.run(args.seed, args.seconds, args.trace)
    else:
        import loops

        res = loops.run(args.workload, args.seed, args.seconds, args.trace)

    units = PER_LAYER if args.trace else END_TO_END
    unknown = res["metrics"].keys() - units.keys()
    if unknown:
        raise RuntimeError(f"metrics missing from the metric table: {sorted(unknown)}")
    if not args.trace and res["metrics"].keys() != units.keys():
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(units.keys() - res['metrics'].keys())}")
    metrics = {name: {"value": res["metrics"].get(name, 0), "unit": unit} for name, unit in units.items()}
    detail = dict(res["detail"], ops_failed_frac=res["failed"] / res["attempted"])
    print(json.dumps({"env": environment(args.workload, args.seed), "detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0 and res["checked"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
