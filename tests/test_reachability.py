"""Every function and every option in ``src/mocadet`` is used by some CLI
subcommand.

Both rules read one run of a chain that runs every subcommand once on tiny
inputs under ``sys.setprofile``.

The function rule: each ``def`` that ``ast`` finds in ``src/mocadet/*.py``,
nested defs included, must be entered at least once, unless ``ALLOWED``
names it together with a caller outside both ``src/`` and ``tests/``. A
function that only tests call belongs in ``tests/``; one that nothing calls
is deleted. A def is matched to the profiled code objects by its file and
first line, ``co_firstlineno``, which for a decorated def is the line of its
first decorator.

The parameter rule: each parameter whose default ``ast.literal_eval`` can
read must, in at least one call, hold a value that does not compare equal to
that default when the function is entered, unless ``ALLOWED_DEFAULTS`` names
it together with a caller outside ``src/`` and ``tests/`` or with the
ROADMAP rule that keeps it. An option that only tests set is a second code
path that no run takes: it goes, and the tests use the form that stays.

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

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# dotted name -> the file outside src/ and tests/ that calls it
ALLOWED = {
    # the benchmark's MoCA decode probe (perfbench/workloads.py, moca_probe)
    # builds one modality's inference token with it; it is also a hook target
    "data.modality_mean_token": "perfbench/workloads.py",
}

# dotted parameter -> (file, text): the file outside src/ and tests/ that
# sets it, with the call that does, or the ROADMAP rule that keeps it
ALLOWED_DEFAULTS = {
    # the benchmark builds every workload's dataset from the default spec
    "data.make_default_spec.seed": ("perfbench/inputs.py",
                                    "make_default_spec(seed=seed, counts=counts)"),
    "data.make_default_spec.counts": ("perfbench/inputs.py",
                                      "make_default_spec(seed=seed, counts=counts)"),
    # the seam of the reduction-property test (tests/test_detector.py)
    "detector.Detector.decode.mask_token_column": (
        "ROADMAP.md", "The reduction property stays a test: masking the token column gives "
                      "a forward bitwise equal to the token-free one."),
}

# runs each argument list of argv[1] (a JSON file) through cli.main under a
# profiler, then writes to argv[3] the exit codes, the (file, first line) of
# every code object entered and the parameters that were entered holding a
# value other than their default; argv[2] lists the watched parameters as
# [file, first line, name, default source]
_CHAIN = """
import ast, json, os, sys
with open(sys.argv[2], encoding="utf-8") as fh:
    watched = {}
    for path, line, name, default in json.load(fh):
        watched.setdefault((path, line), []).append((name, ast.literal_eval(default)))
entered, params_of, changed = set(), {}, set()

def differs(value, default):
    try:
        return not bool(value == default)
    except ValueError:  # an array of several entries: never a literal default
        return True

def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    entered.add(code)
    params = params_of.get(code)
    if params is None:
        key = (os.path.realpath(code.co_filename), code.co_firstlineno)
        params = params_of[code] = watched.get(key, [])
    if params:
        values = frame.f_locals
        for item in list(params):
            if differs(values[item[0]], item[1]):
                changed.add((code.co_filename, code.co_firstlineno, item[0]))
                params.remove(item)

sys.setprofile(profile)
from mocadet.cli import main
with open(sys.argv[1], encoding="utf-8") as fh:
    commands = json.load(fh)
exits = [main(argv) for argv in commands]
sys.setprofile(None)
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"exit": exits,
               "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered}),
               "changed": sorted(changed)}, fh)
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
    """(first line, dotted name, node) of every def under ``node``, nested
    ones too."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name, child
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
        yield from _defs(child, name)


def _source_defs() -> dict:
    """{(real path, first line): (dotted name, def node)} over src/mocadet/*.py."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "mocadet", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]
        for line, name, node in _defs(tree, module):
            out[os.path.realpath(path), line] = name, node
    return out


def _literal_defaults(node) -> list:
    """(parameter, default source) of each parameter of a def whose default
    ``ast.literal_eval`` reads."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    out = []
    for arg, default in pairs:
        try:
            ast.literal_eval(default)
        except ValueError:
            continue
        out.append((arg.arg, ast.unparse(default)))
    return out


def _run_chain(tmp, defs) -> dict:
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
    # tokens synth and mi-lab take seeds other than their defaults (1 and 0),
    # so that the seed parameters they pass on count as set
    commands = [
        ["gen-data", "--spec", spec, "--out", at("data")],
        ["tokens", "synth", "--spec", spec, "--d-text", "8", "--seed", "2", "--out", reg],
        ["tokens", "inspect", reg],
        ["tokens", "silhouette", reg, "--json", at("sil.json")],
        ["pretrain", "--config", cfg, "--out", at("pre")],
        ["train", "--config", cfg, "--out", at("run"),
         "--from-pretrain", os.path.join(at("pre"), "pretrain.ckpt")],
        ["train", "--config", cfg_file, "--out", at("run_off"), "--moca", "off"],
        ["eval", "--ckpt", os.path.join(at("run"), "final.ckpt"), "--data", at("data"),
         "--out", at("eval.json"), "--csv", at("eval.csv")],
        ["mi-lab", "--n-joints", "4", "--K", "1,3", "--samples", "1000", "--seed", "1",
         "--report", at("mi.json")],
        ["pretrain", "--config", cfg_default, "--out", at("pre_default")],
    ]
    watched = [[path, line, param, default] for (path, line), (_, node) in defs.items()
               for param, default in _literal_defaults(node)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run(
        [sys.executable, "-c", _CHAIN, write("commands.json", commands),
         write("watched.json", watched), at("result.json")],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    with open(at("result.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    failed = [(argv[0], code) for argv, code in zip(commands, doc["exit"]) if code]
    assert not failed, (failed, result.stderr)
    return doc


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The source defs and one run of the chain over them."""
    defs = _source_defs()
    return defs, _run_chain(str(tmp_path_factory.mktemp("chain")), defs)


def _assert_allowed_callers(allowed: dict, names: set) -> None:
    """Every entry names something defined, and its file holds its text."""
    for name, (path, text) in allowed.items():
        assert name in names, f"{name} is allowed but not defined"
        with open(os.path.join(REPO, path), encoding="utf-8") as fh:
            assert " ".join(text.split()) in " ".join(fh.read().split()), \
                f"{path} does not hold {text!r}, which keeps {name}"


def test_every_src_function_is_reached_by_an_entry_point(chain):
    defs, doc = chain
    names = {name for name, _ in defs.values()}
    _assert_allowed_callers({name: (path, name.rsplit(".", 1)[1])
                             for name, path in ALLOWED.items()}, names)
    entered = {(os.path.realpath(f), line) for f, line in doc["entered"]}
    reached = {name for key, (name, _) in defs.items() if key in entered}
    unreached = sorted(names - reached - set(ALLOWED))
    assert not unreached, f"no entry point starts {unreached}: delete them or move them to tests/"
    now_reached = sorted(reached & set(ALLOWED))
    assert not now_reached, f"an entry point now starts {now_reached}: drop them from ALLOWED"


def test_every_src_option_is_set_by_an_entry_point(chain):
    defs, doc = chain
    options = {f"{name}.{param}" for name, node in defs.values()
               for param, _ in _literal_defaults(node)}
    _assert_allowed_callers(ALLOWED_DEFAULTS, options)
    set_ = {f"{defs[os.path.realpath(f), line][0]}.{param}" for f, line, param in doc["changed"]}
    unset = sorted(options - set_ - set(ALLOWED_DEFAULTS))
    assert not unset, (f"no entry point sets {unset}: make each a constant, or delete the "
                       f"form that only tests use")
    now_set = sorted(set_ & set(ALLOWED_DEFAULTS))
    assert not now_set, f"an entry point now sets {now_set}: drop them from ALLOWED_DEFAULTS"
