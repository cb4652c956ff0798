"""Command-line entry points.

Subcommands: gen-data (a dataset dir of one file per split), tokens
(synth/inspect/silhouette), pretrain, train, eval, mi-lab. Exit codes: 0
success, 1 validation (bad config, arguments, or files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import milab as ml
from .config import RunConfig
from .data import DatasetSpec, export_dataset, generate_synthetic, load_dataset, split_file
from .errors import MocadetError, ValidationError
from .evaluation import report_csv, save_report
from .fileio import D_TEXT, SEED, Range, atomic_write, check_output_path, read_dataclass, read_json
from .tokens import (MEDICAL_PROMPT_CATALOG, build_registry, load_registry,
                     save_registry, silhouette_score)
from .train import evaluate, load_detector_for_eval, run_pretrain, run_train

# the files that a run of each command writes into its --out directory
RUN_FILES = {"pretrain": ("config.json", "pretrain_steps.csv", "pretrain.ckpt"),
             "train": ("config.json", "metrics_steps.csv", "metrics_epochs.csv", "best.ckpt",
                       "final.ckpt", "report.json")}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mocadet",
                                description="modality-token detection experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--spec", required=True, help="dataset spec JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--splits", default=None, help="comma list; default: all declared")

    t = sub.add_parser("tokens", help="token registry utilities")
    tsub = t.add_subparsers(dest="tokens_command", required=True)
    ts = tsub.add_parser("synth", help="synthesize a registry")
    src = ts.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="dataset spec JSON (uses its modality/class grid)")
    src.add_argument("--catalog", action="store_true",
                     help="use the built-in 27-pair medical catalog")
    ts.add_argument("--d-text", type=_within(D_TEXT, "--d-text"), default=64)
    ts.add_argument("--seed", type=_within(SEED, "--seed"), default=1)
    ts.add_argument("--out", required=True)
    ti = tsub.add_parser("inspect", help="summarize a registry file")
    ti.add_argument("registry")
    tc = tsub.add_parser("silhouette", help="modality-separation score of a registry")
    tc.add_argument("registry")
    tc.add_argument("--json", dest="json_out", default=None)

    pre = sub.add_parser("pretrain", help="contrastive alignment pretraining")
    pre.add_argument("--config", required=True)
    pre.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="detection training")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--moca", choices=["on", "off"], default=None)
    tr.add_argument("--from-pretrain", default=None)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on an exported dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True, help="directory from gen-data")
    ev.add_argument("--split", default="val")
    ev.add_argument("--out", default=None, help="report JSON path")
    ev.add_argument("--csv", default=None, help="optional table CSV path")

    mi = sub.add_parser("mi-lab", help="verify the contrastive MI lower bound")
    mi.add_argument("--joints", default=None, help="JSON file {'joints': [tables]}")
    # a joint is at most 8 x 8, and the report holds 2 cells per joint and K
    mi.add_argument("--n-joints", type=_within(Range(1, 10_000), "--n-joints"), default=20)
    # one estimate holds a few (samples, K + 1) arrays of 8-byte values: at
    # the largest values, 200,000 x 64 x 8 B = 102 MB each
    mi.add_argument("--K", type=_within(Range(1, 63), "--K", many=True), default="1,3,7,15")
    mi.add_argument("--samples", type=_within(Range(1_000, 200_000), "--samples"),
                    default=20000)
    mi.add_argument("--seed", type=_within(SEED, "--seed"), default=0)
    mi.add_argument("--report", default=None)

    return p


def _within(interval: Range, flag: str, many: bool = False):
    """The argparse type of an integer ``flag`` in ``interval``, or with
    ``many`` of a tuple of comma-separated ones; argparse reports a bad value
    as a usage error, so the command exits 1."""
    def integer(text: str):  # argparse reports "invalid integer value" when int() fails
        try:
            values = tuple(interval.check(int(v), flag)
                           for v in (text.split(",") if many else [text]))
        except ValidationError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return values if many else values[0]
    return integer


def _check_files(inputs, outputs) -> None:
    """Refuse, before a command reads anything, an output that
    ``check_output_path`` rejects or whose real path is an input's or an
    earlier output's; a None path is a file the command was not given."""
    taken = {os.path.realpath(p) for p in inputs if p}
    for path in filter(None, outputs):
        check_output_path(path)
        if os.path.realpath(path) in taken:
            raise ValidationError(f"cannot write {path}: it is an input or the other output")
        taken.add(os.path.realpath(path))


def _run_config(args) -> RunConfig:
    """The config of a pretrain or train run, refusing, before anything else
    is read, an input that the run would write over: the config itself,
    ``--from-pretrain`` or the config's token file."""
    config = RunConfig.from_json(read_json(args.config, ValidationError))
    written = {os.path.realpath(os.path.join(args.out, f)) for f in RUN_FILES[args.command]}
    for path in (args.config, getattr(args, "from_pretrain", None),
                 config.tokens.source == "file" and config.tokens.path):
        if path and os.path.realpath(path) in written:
            raise ValidationError(f"cannot run with {path}: the run writes over it")
    return config


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec.from_json(read_json(args.spec, ValidationError))
    splits = args.splits.split(",") if args.splits else list(spec.counts)
    for split in splits:  # all of them before the first is rendered
        if split not in spec.counts:
            raise ValidationError(f"split {split!r} not declared in counts")
    for split in splits:
        samples = generate_synthetic(spec, split)
        path = export_dataset(samples, spec, args.out, split)
        print(f"{split}: {len(samples)} samples -> {path}")
    return 0


def _cmd_tokens(args) -> int:
    if args.tokens_command == "synth":
        _check_files((args.spec,), (args.out,))
        if args.catalog:
            pairs = MEDICAL_PROMPT_CATALOG
        else:
            pairs = DatasetSpec.from_json(read_json(args.spec, ValidationError)).token_pairs()
        reg = build_registry(pairs, d_text=args.d_text, seed64=args.seed)
        save_registry(reg, args.out)
        print(f"registry: {len(reg.entries)} tokens, d_text={reg.d_text} -> {args.out}")
        return 0
    if args.tokens_command == "silhouette":
        _check_files((args.registry,), (args.json_out,))
    reg = load_registry(args.registry)
    if args.tokens_command == "inspect":
        print(f"d_text={reg.d_text} entries={len(reg.entries)} "
              f"modalities={len(reg.modality_list)}")
        for m in reg.modality_list:
            print(f"  {m}: {len(reg.classes_of(m))} classes")
        return 0
    # silhouette over raw embeddings grouped by modality
    vectors = list(reg.entries.values())
    labels = [d for (d, _c) in reg.entries]
    score = silhouette_score(vectors, labels)
    print(f"modality silhouette: {score:.6f} over {len(vectors)} tokens")
    if args.json_out:
        with atomic_write(args.json_out) as fh:
            json.dump({"silhouette": score, "n_tokens": len(vectors),
                       "modalities": reg.modality_list}, fh, sort_keys=True)
    return 0


def _cmd_pretrain(args) -> int:
    config = _run_config(args)
    result = run_pretrain(config, args.out)
    losses = result["losses"]
    trend = f", loss {losses[0]:.4f} -> {np.mean(losses[-20:]):.4f}" if losses else ""
    print(f"pretrain: {len(losses)} steps{trend}; checkpoint {result['checkpoint']}")
    return 0


def _cmd_train(args) -> int:
    config = _run_config(args)
    if args.moca is not None:  # the echo and checkpoints carry the flag that took effect
        config = dataclasses.replace(config, moca=args.moca == "on")
    summary = run_train(config, args.out, from_pretrain=args.from_pretrain)
    print(f"train: {summary['steps']} steps, moca={summary['moca']}, "
          f"best AP {summary['best']['ap']:.4f} (AP50 {summary['best']['ap50']:.4f}) "
          f"at epoch {summary['best']['epoch']}")
    return 0


def _cmd_eval(args) -> int:
    _check_files((args.ckpt, split_file(args.data, args.split)), (args.out, args.csv))
    bundle = load_detector_for_eval(args.ckpt)
    samples, spec = load_dataset(args.data, args.split)
    if spec.token_pairs() != bundle.config.dataset.token_pairs():  # modality and class ids
        raise ValidationError("dataset modalities and classes do not match the checkpoint")
    report = evaluate(bundle, samples)
    ap = ["n/a" if v is None else f"{v:.4f}"  # None: a split without ground truth
          for v in (report.ap, report.ap50, report.ap75)]
    print(f"eval[{args.split}]: AP={ap[0]} AP50={ap[1]} AP75={ap[2]}")
    if args.out:
        save_report(report, args.out)
    if args.csv:
        with atomic_write(args.csv) as fh:
            fh.write(report_csv(report, bundle.config.dataset.modality_names))
    return 0


@dataclasses.dataclass(frozen=True)
class _JointsFile:  # what mi-lab --joints reads
    joints: list[list[list[float]]]


def _cmd_mi_lab(args) -> int:
    _check_files((args.joints,), (args.report,))
    if args.joints:
        doc = read_json(args.joints, ValidationError)
        tables = read_dataclass(_JointsFile, doc, args.joints).joints
        if not tables or any(len({len(row) for row in t}) != 1 for t in tables):
            raise ValidationError(f"{args.joints}: expected {{\"joints\": [tables]}}, at "
                                  f"least one table, each a matrix")
        joints = [ml.DiscreteJoint(t) for t in tables]
    else:
        joints = ml.seeded_joint_suite(args.n_joints, seed=args.seed)
    report = ml.verify_bound(joints, Ks=args.K, n_samples=args.samples, seed=args.seed)
    if args.report:
        with atomic_write(args.report) as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"mi-lab {status}: {report['n_cells']} cells "
          f"({report['n_exact_cells']} exact), "
          f"{report['n_violations']} bound violations, "
          f"posterior gap {report['posterior_gap_max']:.2e}")
    if not report["passed"]:
        for c in report["cells"]:
            if c["violated"]:
                print(f"  VIOLATION joint={c['joint']} critic={c['critic']} "
                      f"K={c['K']} bound={c['bound']:.6f} > mi={c['mi']:.6f} "
                      f"(se={c['stderr']:.2e})")
        for row in report["monotonicity_failures"]:
            print(f"  NON-MONOTONE joint={row[0]} K {row[1]}->{row[2]}: "
                  f"{row[3]:.6f} -> {row[4]:.6f}")
        return 2
    return 0


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "tokens": _cmd_tokens,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "mi-lab": _cmd_mi_lab,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; those are validation failures here
        return 0 if not e.code else 1
    try:
        return _DISPATCH[args.command](args)
    except MocadetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # unexpected runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
