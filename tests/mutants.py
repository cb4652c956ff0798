"""A fixed sweep of one-line mutants of ``src/``, each run against tier 1.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones
    python3 tests/mutants.py --full     # each against all of tier 1
    python3 tests/mutants.py --list

Each mutant replaces one exact snippet of one source file. The script
copies ``src/``, ``tests/``, ``perfbench/``, ``pyproject.toml`` and
``ROADMAP.md`` (which the reachability test reads) into a temporary
directory. The unmutated copy runs tier 1 first; if it fails, the sweep
stops with exit code 2. Then ``tests/linecover.py --map`` records there
which ``src/`` lines each test runs. Each mutant is applied in a copy of
its own, which runs with ``pytest -x`` only the tests that run a line of
the statements the snippet touches, plus every test that starts a
subprocess: no other test can see the change. A statement first run at
import (a module constant, a class body, a field declaration) selects every
test. ``--full`` skips the map and runs all of tier 1 for every mutant.
``TABLE_TESTS``, which check the text of the snippet tables, never run on a
mutated copy. A failing run kills the mutant, a passing run lets it
survive. The exit code is 1 when a mutant survives or no longer applies,
else 0. The checkout itself is only read.
The name keeps pytest from collecting this file; it uses the standard
library only. A sweep takes a few minutes.

Technique: DeMillo, Lipton & Sayward 1978, "Hints on test data selection"
(IEEE Computer); Jia & Harman 2011, "An analysis and survey of the
development of mutation testing" (IEEE TSE).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "ROADMAP.md")
TIMEOUT_S = 900
# tests of the text of the sweep's and linecover's own tables: a mutant
# changes a snippet by design, so these fail on every mutant while testing
# no behaviour, and a mutated copy runs without them
TABLE_TESTS = ("tests/test_mutants.py", "tests/test_linecover.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str   # must occur exactly once in the file
    new: str


MUTANTS = (
    Mutant("max_dets_99", "src/mocadet/evaluation.py",
           "MAX_DETS_PER_IMAGE = 100", "MAX_DETS_PER_IMAGE = 99"),
    Mutant("rank_cap_inclusive", "src/mocadet/evaluation.py",
           "keep = rank < MAX_DETS_PER_IMAGE", "keep = rank <= MAX_DETS_PER_IMAGE"),
    Mutant("small_cutoff_33px", "src/mocadet/evaluation.py",
           "SMALL_FRAC = (32.0 / 640.0) ** 2", "SMALL_FRAC = (33.0 / 640.0) ** 2"),
    # the fourth survivor of the first sweep, deleting
    # ``precision[cols == -1] = 0.0`` in ``average_precision``, was
    # equivalent: on 100,000 random flag matrices every AP stayed bit-identical
    # without it. The line is deleted; this mutant puts the nearest
    # non-equivalent form back, an ignored row at full precision, here by
    # letting the ignored rows into the TP rows the envelope is built from.
    Mutant("ignored_row_full_precision", "src/mocadet/evaluation.py",
           "    rows = is_tp & (counts[col] > 0)\n"
           "    col, tp, fp = col[rows], tp[rows], fp[rows]\n"
           "    precision = tp / (tp + fp)\n",
           "    rows = counts[col] > 0\n"
           "    col, tp, fp = col[rows], tp[rows], fp[rows]\n"
           "    precision = np.where(is_tp[rows], tp / np.maximum(tp + fp, 1), 1.0)\n"),
    # the envelope without its suffix maximum: each recall point takes the
    # precision of the TP rows that reach it and no later point, not the
    # best precision of every row that reaches it
    Mutant("ap_envelope_no_suffix_max", "src/mocadet/evaluation.py",
           "envelope = np.maximum.accumulate(best[:0:-1], axis=0)[::-1]",
           "envelope = best[1:]"),
    Mutant("sampler_reversed_subset", "src/mocadet/data.py",
           "[:self.batch_size].tolist())\n",
           "[:self.batch_size].tolist())[::-1]\n"),
    Mutant("se_slack_50", "src/mocadet/milab.py",
           "_SE_SLACK = 5.0", "_SE_SLACK = 50.0"),
    # the declared lower bound of QraConfig.layer, the one guard left
    Mutant("alignment_layer_guard_1", "src/mocadet/config.py",
           "layer: int = Range(2, 32)", "layer: int = Range(1, 32)"),
    Mutant("focal_alpha_up_to_2", "src/mocadet/losses.py",
           "alpha: float = Range(0, 1)", "alpha: float = Range(0, 2)"),
    Mutant("decoder_depth_unbounded", "src/mocadet/detector.py",
           "n_decoder_layers: int = Range(2, 32)", "n_decoder_layers: int = Range(2, 2**64)"),
    Mutant("split_count_unbounded", "src/mocadet/data.py",
           "Range(0, 100_000).field(", "Range(0, 2**64).field("),
    Mutant("eval_batch_from_config", "src/mocadet/train.py",
           "        for start in range(0, len(samples), INFERENCE_BATCH):\n"
           "            batch = samples[start:start + INFERENCE_BATCH]\n",
           "        for start in range(0, len(samples), bundle.config.batch_size):\n"
           "            batch = samples[start:start + bundle.config.batch_size]\n"),
    # eval back on a drawn model that the stored values are copied into
    Mutant("eval_weights_drawn", "src/mocadet/train.py",
           '    return build_run(*_read_checkpoint(ckpt_path, "detection"))\n',
           '    config, stored = _read_checkpoint(ckpt_path, "detection")\n'
           "    bundle = build_run(config)\n"
           "    for name, p in bundle.detection_parameters():\n"
           "        p.data[...] = stored[name]\n"
           "    return bundle\n"),
    # a model built from a checkpoint whose names are never compared with
    # the model's
    Mutant("stored_names_unchecked", "src/mocadet/checkpoint.py",
           "        if built != taken:\n", "        if False:\n"),
    # the one InfoNCE, of QueryREPA and the lab, without its max shift added back
    Mutant("infonce_lse_unshifted", "src/mocadet/queryrepa.py",
           "return (top + np.log(s))[:, 0], e, s", "return np.log(s)[:, 0], e, s"),
    # the fused InfoNCE pullback without its positives' term
    Mutant("qra_pullback_no_diagonal", "src/mocadet/queryrepa.py",
           "        dz[np.arange(r), np.arange(r)] -= gr\n", ""),
    # the same-shape add and the affine layer norm: one gradient each wrong
    Mutant("add_second_grad_negated", "src/mocadet/autodiff.py",
           "        _accum(nb, g)\n", "        _accum(nb, -g)\n"),
    Mutant("layernorm_gamma_grad_unweighted", "src/mocadet/autodiff.py",
           "_accum(ngamma, (g * y).sum(axis=0))", "_accum(ngamma, g.sum(axis=0))"),
    Mutant("layernorm_beta_grad_weighted", "src/mocadet/autodiff.py",
           "_accum(nbeta, g.sum(axis=0))", "_accum(nbeta, (g * y).sum(axis=0))"),
    # the row stack of MoCA's key/value input hands each block's gradient
    # one row off
    Mutant("concat_rows_segment_block_shifted", "src/mocadet/autodiff.py",
           "_accum(n, g[:, i0:i1].reshape(-1, cols))",
           "_accum(n, g[:, i0 + 1:i1 + 1].reshape(-1, cols))"),
    # AdamW's folded step size without the bias corrections
    Mutant("adamw_step_size_uncorrected", "src/mocadet/optim.py",
           "step = self.lr * root_bc2 / (1.0 - BETA1 ** self.t)", "step = self.lr"),
    # masking the token column no longer drops the token rows
    Mutant("decode_mask_ignored", "src/mocadet/detector.py",
           "token_rows = None if mask_token_column else self.token_proj(tokens)",
           "token_rows = self.token_proj(tokens)"),
    # the one length check of each reader, in place of per-record offsets
    Mutant("split_blob_checked_downward_only", "src/mocadet/data.py",
           "if blob.size != len(records) * size * size:",
           "if blob.size < len(records) * size * size:"),
    Mutant("checkpoint_blob_checked_downward_only", "src/mocadet/checkpoint.py",
           "if sum(sizes) != blob.size:", "if sum(sizes) > blob.size:"),
    # the one finiteness check of matching, which hungarian relies on
    Mutant("cost_matrix_nan_passes", "src/mocadet/losses.py",
           "if not np.all(np.isfinite(cost)):", "if np.isinf(cost).any():"),
    # the matcher: ties broken to the last minimum, and each augmenting
    # path stopped before the column next to the virtual start
    Mutant("lap_tie_takes_last_minimum", "src/mocadet/losses.py",
           "if minv[j] < delta:", "if minv[j] <= delta:"),
    Mutant("lap_augmentation_one_column_short", "src/mocadet/losses.py",
           "        while j0 != m:\n", "        while j0 != m and way[j0] != m:\n"),
    # the boundary checks of load_dataset: a box of positive size, a repeated
    # sample id, a non-finite pixel
    Mutant("loaded_boxes_unchecked", "src/mocadet/data.py",
           "Annotation(box=b, class_id=c).validate()", "Annotation(box=b, class_id=c)"),
    Mutant("repeated_id_accepted", "src/mocadet/data.py",
           "ids.add(rec.id)", "ids.add(i)"),
    Mutant("one_non_finite_pixel_accepted", "src/mocadet/data.py",
           "if not np.isfinite(img).all():", "if not np.isfinite(img).any():"),
    # pretrained_weights without the model compare: a checkpoint of other
    # sizes whose arrays have the run's shapes (another n_heads) passes
    Mutant("pretrained_model_section_unchecked", "src/mocadet/train.py",
           'for section in ("model", "dataset", "tokens"):',
           'for section in ("dataset", "tokens"):'),
    # mocadet eval back on the class list alone, blind to the modality split
    Mutant("eval_dataset_classes_only", "src/mocadet/cli.py",
           "if spec.token_pairs() != bundle.config.dataset.token_pairs():",
           "if spec.global_classes != bundle.config.dataset.global_classes:"),
    # the two failure branches of verify_bound
    Mutant("exact_cell_not_violated", "src/mocadet/milab.py",
           '"stderr": 0.0, "violated": True})', '"stderr": 0.0, "violated": False})'),
    Mutant("monotonicity_failure_dropped", "src/mocadet/milab.py",
           "                        mono_failures.append((ji, a.K, b.K, a.bound, b.bound))\n",
           "                        pass\n"),
    # the container reader without its digest compare, and without the part
    # of its length check that leaves whole float32 values
    Mutant("container_digest_skipped", "src/mocadet/fileio.py",
           "if hashlib.sha256(memoryview(data)[40:]).digest() != data[8:40]:", "if False:"),
    Mutant("container_partial_float_accepted", "src/mocadet/fileio.py",
           "if start > len(data) or (len(data) - start) % 4:", "if start > len(data):"),
    # the one JSON parse: a repeated key kept as its last value, nesting too
    # deep left a RecursionError, bad UTF-8 left a UnicodeDecodeError
    Mutant("json_repeated_key_accepted", "src/mocadet/fileio.py",
           "if len(doc) < len(pairs):", "if False:"),
    Mutant("json_recursion_uncaught", "src/mocadet/fileio.py",
           "except (ValueError, RecursionError) as e:", "except ValueError as e:"),
    Mutant("json_error_narrowed_to_decode_errors", "src/mocadet/fileio.py",
           "except (ValueError, RecursionError) as e:",
           "except (json.JSONDecodeError, RecursionError) as e:"),
    # run_train's evaluation epochs: every eval_every-th, and the last
    Mutant("final_epoch_eval_dropped", "src/mocadet/train.py",
           " == 0\n                                       or epoch == config.optim.epochs - 1):",
           " == 0):"),
    Mutant("eval_cadence_off_by_one", "src/mocadet/train.py",
           "(epoch + 1) % config.eval_every", "epoch % config.eval_every"),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")


def _tier1(tree: str, args=()) -> tuple:
    """(passed, seconds) of tier 1 with ``-x`` and ``args`` in ``tree``."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", "--continue-on-collection-errors", *args],
                              cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False  # a hang is a failing run
    return passed, time.perf_counter() - t0


def _line_map(tree: str, path: str) -> dict:
    """``tests/linecover.py``'s map of ``tree``, written to ``path``."""
    subprocess.run([sys.executable, os.path.join("tests", "linecover.py"), "--map", path],
                   cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _touched_lines(tree: str, mutant: Mutant) -> set:
    """The lines of the statements that ``mutant``'s snippet touches in the
    unmutated ``tree``: all of a simple statement, the header of a compound
    one, and a touched line that no statement holds."""
    with open(os.path.join(tree, mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    first = text[:text.index(mutant.old)].count("\n") + 1
    snippet = set(range(first, first + mutant.old.rstrip("\n").count("\n") + 1))
    lines = set(snippet)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            own = set(range(node.lineno, last + 1))
            if own & snippet:
                lines |= own
    return lines


def _selected(line_map: dict, mutant: Mutant, lines: set):
    """The node ids that can see a change to ``lines`` of ``mutant.path``, in
    run order, or None when every test can (a line first run at import)."""
    if lines & set(line_map["import"].get(mutant.path, ())):
        return None
    return [t for t, by_file in line_map["tests"].items()
            if t in line_map["spawned"] or lines & set(by_file.get(mutant.path, ()))]


def _apply(tree: str, mutant: Mutant) -> bool:
    """Applies ``mutant`` in ``tree``; False if its snippet is not there once."""
    path = os.path.join(tree, mutant.path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run; default: all")
    parser.add_argument("--full", action="store_true",
                        help="run all of tier 1 for each mutant, with no line map")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}")
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mocadet-mutants-") as tmp:
        base = os.path.join(tmp, "base")
        _copy_tree(base)
        passed, seconds = _tier1(base)
        print(f"unmutated: {'passed' if passed else 'FAILED'} ({seconds:.0f} s)", flush=True)
        if not passed:
            return 2
        line_map = None
        if not args.full:
            started = time.perf_counter()
            line_map = _line_map(base, os.path.join(tmp, "lines.json"))
            print(f"line map: {len(line_map['tests'])} tests "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
        bad = 0
        for m in chosen:
            tree = os.path.join(tmp, m.name)
            shutil.copytree(base, tree)
            if not _apply(tree, m):
                print(f"{m.name}: stale (snippet not found once in {m.path})", flush=True)
                bad += 1
                continue
            tests = None if args.full else _selected(line_map, m, _touched_lines(base, m))
            ran = "all tests" if tests is None else f"{len(tests)} tests"
            passed, seconds = (True, 0.0) if tests == [] else _tier1(
                tree, [f"--ignore={t}" for t in TABLE_TESTS] + (tests or []))
            print(f"{m.name}: {'survived' if passed else 'killed'} ({seconds:.0f} s, {ran})",
                  flush=True)
            bad += passed
            shutil.rmtree(tree)
    print(f"sweep: {time.perf_counter() - t0:.0f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
