"""Command-line entry points.

Subcommands: gen-data, tokens (synth/inspect/silhouette), pretrain, train,
eval, mi-lab. Exit codes: 0 success, 1 validation (bad config,
arguments, or files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import milab as ml
from .config import RunConfig
from .data import DatasetSpec, export_coco, export_dataset, generate_synthetic, load_dataset
from .errors import MocadetError, ValidationError
from .evaluation import report_csv, save_report
from .fileio import atomic_write
from .tokens import (MEDICAL_PROMPT_CATALOG, build_registry, load_registry,
                     save_registry, silhouette_score)
from .train import evaluate, load_detector_for_eval, run_pretrain, run_train


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mocadet",
                                description="modality-token detection experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--spec", required=True, help="dataset spec JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--splits", default=None, help="comma list; default: all declared")
    g.add_argument("--coco", action="store_true", help="also export COCO-style JSON")

    t = sub.add_parser("tokens", help="token registry utilities")
    tsub = t.add_subparsers(dest="tokens_command", required=True)
    ts = tsub.add_parser("synth", help="synthesize a registry")
    src = ts.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="dataset spec JSON (uses its modality/class grid)")
    src.add_argument("--catalog", action="store_true",
                     help="use the built-in 27-pair medical catalog")
    ts.add_argument("--d-text", type=int, default=64)
    ts.add_argument("--seed", type=int, default=1)
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
    mi.add_argument("--n-joints", type=int, default=20)
    mi.add_argument("--K", default="1,3,7,15")
    mi.add_argument("--samples", type=int, default=20000)
    mi.add_argument("--seed", type=int, default=0)
    mi.add_argument("--report", default=None)

    return p


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec.from_json(_load_json(args.spec))
    splits = args.splits.split(",") if args.splits else list(spec.counts)
    for split in splits:
        samples = generate_synthetic(spec, split)
        manifest = export_dataset(samples, spec, args.out, split)
        line = f"{split}: {len(samples)} samples -> {manifest}"
        if args.coco:
            coco = export_coco(samples, spec, args.out, split)
            line += f" (+ {coco})"
        print(line)
    return 0


def _cmd_tokens(args) -> int:
    if args.tokens_command == "synth":
        if args.catalog:
            pairs = MEDICAL_PROMPT_CATALOG
        else:
            pairs = DatasetSpec.from_json(_load_json(args.spec)).token_pairs()
        reg = build_registry(pairs, d_text=args.d_text, seed64=args.seed)
        save_registry(reg, args.out)
        print(f"registry: {len(reg.entries)} tokens, d_text={reg.d_text} -> {args.out}")
        return 0
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
    config = RunConfig.load(args.config)
    result = run_pretrain(config, args.out)
    losses = result["losses"]
    tail = float(np.mean(losses[-20:])) if losses else float("nan")
    print(f"pretrain: {len(losses)} steps, loss {losses[0]:.4f} -> {tail:.4f}; "
          f"checkpoint {result['checkpoint']}")
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    moca = None if args.moca is None else (args.moca == "on")
    summary = run_train(config, args.out, moca=moca, from_pretrain=args.from_pretrain)
    print(f"train: {summary['steps']} steps, moca={summary['moca']}, "
          f"best AP {summary['best']['ap']:.4f} (AP50 {summary['best']['ap50']:.4f}) "
          f"at epoch {summary['best']['epoch']}")
    return 0


def _cmd_eval(args) -> int:
    bundle = load_detector_for_eval(args.ckpt)
    samples, spec = load_dataset(args.data, args.split)
    if spec.global_classes != bundle.spec.global_classes:
        raise ValidationError("dataset class list does not match the checkpoint")
    report = evaluate(bundle, samples)
    print(f"eval[{args.split}]: AP={report.ap:.4f} AP50={report.ap50:.4f} "
          f"AP75={report.ap75:.4f}")
    if args.out:
        save_report(report, args.out)
    if args.csv:
        with atomic_write(args.csv) as fh:
            fh.write(report_csv(report, bundle.spec.modality_names))
    return 0


def _cmd_mi_lab(args) -> int:
    if args.joints:
        doc = _load_json(args.joints)
        tables = doc.get("joints") if isinstance(doc, dict) else None
        if not isinstance(tables, list) or not tables:
            raise ValidationError(f"{args.joints}: expected {{\"joints\": [tables]}} with "
                                  f"at least one table")
        try:
            tables = [np.asarray(t, dtype=np.float64) for t in tables]
        except (TypeError, ValueError) as e:
            raise ValidationError(f"{args.joints}: a joint table is not a numeric matrix") from e
        joints = [ml.DiscreteJoint(t) for t in tables]
    else:
        joints = ml.seeded_joint_suite(args.n_joints, seed=args.seed)
    Ks = tuple(int(k) for k in args.K.split(","))
    report = ml.verify_bound(joints, Ks=Ks, n_samples=args.samples, seed=args.seed)
    if args.report:
        with atomic_write(args.report) as fh:
            json.dump(ml.report_to_json(report), fh, sort_keys=True, indent=1)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"mi-lab {status}: {len(report['cells'])} cells "
          f"({report['n_exact_cells']} exact), "
          f"{len(report['violations'])} bound violations, "
          f"posterior gap {report['posterior_gap_max']:.2e}")
    if not report["passed"]:
        for c in report["violations"]:
            print(f"  VIOLATION joint={c.joint_index} critic={c.critic_kind} "
                  f"K={c.K} bound={c.estimate.bound:.6f} > mi={c.mi:.6f} "
                  f"(se={c.estimate.stderr:.2e})")
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
