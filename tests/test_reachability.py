"""Every function in ``src/mocadet`` is started by some CLI subcommand.

The rule: each ``def`` that ``ast`` finds in ``src/mocadet/*.py``, nested
defs included, must be entered at least once while every subcommand runs
once on tiny inputs under ``sys.setprofile``, unless ``ALLOWED`` names it
together with a caller outside both ``src/`` and ``tests/``. A function that
only tests call belongs in ``tests/``; one that nothing calls is deleted.
A def is matched to the profiled code objects by its file and first line,
``co_firstlineno``, which for a decorated def is the line of its first
decorator.

The chain runs in a fresh interpreter. Run in this process, it would see
the caches that earlier tests warmed: the ``functools.cache`` of
``data._fixed_mask`` would then hide ``_fixed_mask``, ``_grid`` and
``_tight_crop``, and the result would depend on which tests ran first.
"""

import ast
import glob
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# dotted name -> the file outside src/ and tests/ that calls it
ALLOWED = {
    # the benchmark's MoCA decode probe (perfbench/workloads.py, moca_probe)
    # builds one modality's inference token with it; it is also a hook target
    "data.modality_mean_token": "perfbench/workloads.py",
}

# runs each argument list of argv[1] (a JSON file) through cli.main under a
# profiler, then writes the exit codes and the (file, first line) of every
# code object entered to argv[2]
_CHAIN = """
import json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
from mocadet.cli import main
with open(sys.argv[1], encoding="utf-8") as fh:
    commands = json.load(fh)
exits = [main(argv) for argv in commands]
sys.setprofile(None)
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"exit": exits,
               "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})}, fh)
"""

_SPEC = {
    "image_size": 16, "seed": 1, "counts": {"train": 8, "val": 4},
    "size_range": [5, 9], "objects_range": [1, 2],
    "modalities": [
        {"name": "ma", "classes": ["ma_c0"], "curve": 0, "noise_sigma": 0.02},
        {"name": "mb", "classes": ["mb_c0"], "curve": 3, "noise_sigma": 0.02},
    ],
}


def _config(**sections):
    # one encoder layer, so that EncoderLayer runs
    return dict({
        "dataset": _SPEC,
        "model": {"d_model": 16, "n_queries": 6, "n_decoder_layers": 2, "n_heads": 2,
                  "patch_size": 8, "n_encoder_layers": 1, "ffn_width": 16},
        "optim": {"lr": 1e-3, "epochs": 1},
        "tokens": {"source": "synthetic", "d_text": 8},
        "qra": {"layer": 2, "steps": 2, "lr": 1e-3},
        "batch_size": 4, "eval_every": 1,
    }, **sections)


def _defs(node, prefix):
    """(first line, dotted name) of every def under ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
        yield from _defs(child, name)


def _source_defs() -> dict:
    """{(real path, first line): dotted name} over src/mocadet/*.py."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "mocadet", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]
        for line, name in _defs(tree, module):
            out[os.path.realpath(path), line] = name
    return out


def _run_chain(tmp) -> dict:
    def write(name, doc):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def at(name):
        return os.path.join(tmp, name)

    spec, reg = write("spec.json", _SPEC), at("reg.json")
    cfg = write("cfg.json", _config())
    cfg_file = write("cfg_file.json", _config(tokens={"source": "file", "path": reg}))
    # no dataset section: the run takes make_default_spec
    cfg_default = write("cfg_default.json", {"qra": {"steps": 0}})
    commands = [
        ["gen-data", "--spec", spec, "--out", at("data"), "--coco"],
        ["tokens", "synth", "--spec", spec, "--d-text", "8", "--seed", "1", "--out", reg],
        ["tokens", "inspect", reg],
        ["tokens", "silhouette", reg, "--json", at("sil.json")],
        ["pretrain", "--config", cfg, "--out", at("pre")],
        ["train", "--config", cfg, "--out", at("run"),
         "--from-pretrain", os.path.join(at("pre"), "pretrain.ckpt")],
        ["train", "--config", cfg_file, "--out", at("run_off"), "--moca", "off"],
        ["eval", "--ckpt", os.path.join(at("run"), "final.ckpt"), "--data", at("data"),
         "--out", at("eval.json"), "--csv", at("eval.csv")],
        ["mi-lab", "--n-joints", "4", "--K", "1,3", "--samples", "1000",
         "--report", at("mi.json")],
        ["pretrain", "--config", cfg_default, "--out", at("pre_default")],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run(
        [sys.executable, "-c", _CHAIN, write("commands.json", commands), at("result.json")],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    with open(at("result.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    failed = [(argv[0], code) for argv, code in zip(commands, doc["exit"]) if code]
    assert not failed, (failed, result.stderr)
    return doc


def test_every_src_function_is_reached_by_an_entry_point(tmp_path):
    defs = _source_defs()
    for name, caller in ALLOWED.items():
        assert name in defs.values(), f"ALLOWED names {name}, which is not defined"
        with open(os.path.join(REPO, caller), encoding="utf-8") as fh:
            assert name.rsplit(".", 1)[1] in fh.read(), f"{caller} does not call {name}"
    entered = {(os.path.realpath(f), line) for f, line in _run_chain(str(tmp_path))["entered"]}
    reached = {name for key, name in defs.items() if key in entered}
    unreached = sorted(set(defs.values()) - reached - set(ALLOWED))
    assert not unreached, f"no entry point starts {unreached}: delete them or move them to tests/"
    now_reached = sorted(reached & set(ALLOWED))
    assert not now_reached, f"an entry point now starts {now_reached}: drop them from ALLOWED"
