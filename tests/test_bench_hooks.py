"""Every callable the benchmark hooks still exists.

The benchmark times layers through ``(module, qualname)`` pairs named in
``perfbench/layers.py`` and ``perfbench/workloads.py``. A renamed target
shows only as a ``missing`` hook in a traced benchmark run, and a lost
``AdamW.step`` makes every training run of the benchmark raise. The two
files are read as data, so this test needs only ``src`` on the path.
"""

import ast
import functools
import importlib
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _hook_pairs() -> set:
    """Adjacent string constants (module, qualname) in a tuple or a call's
    arguments whose module starts with ``mocadet.``."""
    pairs = set()
    for name in ("layers.py", "workloads.py"):
        with open(os.path.join(BENCH_DIR, name), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            items = node.elts if isinstance(node, ast.Tuple) else (
                node.args if isinstance(node, ast.Call) else [])
            strings = [i.value if isinstance(i, ast.Constant) and isinstance(i.value, str)
                       else None for i in items]
            pairs.update((a, b) for a, b in zip(strings, strings[1:])
                         if a and b and a.startswith("mocadet."))
    return pairs


def test_every_benchmark_hook_resolves():
    pairs = _hook_pairs()
    # the parse finds the hooks of both files
    assert {("mocadet.optim", "AdamW.step"), ("mocadet.train", "build_run"),
            ("mocadet.detector", "Detector.decode"),
            ("mocadet.detector", "MultiHeadAttention.attend")} <= pairs
    missing = []
    for module, qualname in sorted(pairs):
        try:
            functools.reduce(getattr, qualname.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}:{qualname}")
    assert not missing, missing
