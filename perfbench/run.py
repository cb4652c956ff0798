"""Benchmark entry point.

    python3 perfbench/run.py --workload train|pretrain|eval --seed N \
        --seconds S --trace 0|1

Run from the repository root. It prints an environment record, a summary
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--write-reference`` rewrites the
golden references instead. See perfbench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the workloads are single-caller
# closed loops and a threaded pool would add its own scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402


def _git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(ROOT),
        "src_lines": _src_lines(SRC),
    }


def _import_program():
    """The program under test must come from this checkout's src/."""
    try:
        import mocadet
    except ImportError as e:
        sys.exit(f"perfbench: cannot import mocadet from {SRC}: {e}")
    if not os.path.abspath(mocadet.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: mocadet was imported from {mocadet.__file__}, not {SRC}")


def main(argv=None) -> int:
    from perfbench import golden, workloads

    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite perfbench/reference.json from the golden runs")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    _import_program()
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.write_reference:
            golden.write_reference(workdir, workloads.WORKLOADS)
            print(f"wrote {golden.REFERENCE_PATH}")
            return 0
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(result.notes, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
