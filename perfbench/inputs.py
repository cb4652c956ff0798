"""Inputs of the workloads, generated from the workload seed.

The one exception is the eval checkpoint's weights; see ``eval_config``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

EVAL_MODEL_SEED = 0  # weights of the eval checkpoint, the same for every seed
EVAL_OBJECTS = (2, 3)  # objects per eval image

SIZES = {
    "full": {"model": {}, "image_size": 64, "train": 200, "eval_train": 5,
             "eval_val": 10, "eval_shards": 4, "probe_pairs": 150},
    # for the benchmark's self-tests only
    "tiny": {"model": {"d_model": 16, "n_queries": 5, "n_heads": 2, "ffn_width": 16},
             "image_size": 32, "train": 20, "eval_train": 5, "eval_val": 5,
             "eval_shards": 2, "probe_pairs": 10},
}


def _spec(seed: int, counts: dict, size: dict):
    from mocadet.data import make_default_spec
    return dataclasses.replace(make_default_spec(seed=seed, counts=counts),
                               image_size=size["image_size"])


def train_config(seed: int, size: dict, n_train: int | None = None, epochs: int = 1000):
    """B=4 detection training with MoCA on; no val split, so no eval inside."""
    from mocadet.config import OptimConfig, RunConfig
    n = size["train"] if n_train is None else n_train
    return RunConfig(dataset=_spec(seed, {"train": n}, size), model=dict(size["model"]),
                     optim=OptimConfig(epochs=epochs), batch_size=4, seed=seed,
                     moca=True).validate()


def pretrain_config(seed: int, size: dict, n_train: int | None = None,
                    steps: int = 1_000_000):
    """QueryREPA at layer 5; the batch is one sample of each of 5 modalities."""
    from mocadet.config import QraConfig, RunConfig
    n = size["train"] if n_train is None else n_train
    return RunConfig(dataset=_spec(seed, {"train": n}, size), model=dict(size["model"]),
                     qra=QraConfig(layer=5, steps=steps), seed=seed).validate()


def eval_config(seed: int, size: dict):
    """Config of the eval checkpoint.

    ``load_detector_for_eval`` runs ``build_run`` on it, which regenerates
    every split the config declares, so it declares one train image per
    modality and no val split; the val images come from the exported shards.
    The data follow ``seed`` but the weights do not: AP's cost depends on
    how the model's class scores fall on the classes present in an image,
    and it varied by 8% from one model seed to the next. AP's cost also
    grows with the number of ground-truth boxes, which over 40 images of
    1-4 objects varied by ±15% between seeds; 2-3 objects per image keeps
    the default mean of 2.5 and the count within a few percent.
    """
    from mocadet.config import RunConfig
    spec = dataclasses.replace(_spec(seed, {"train": size["eval_train"]}, size),
                               objects_range=EVAL_OBJECTS)
    return RunConfig(dataset=spec, model=dict(size["model"]),
                     seed=EVAL_MODEL_SEED).validate()


def make_fixture(seed: int, size: dict, fixture_dir: str) -> tuple:
    """Checkpoint of a seeded model plus its val split, exported in shards.

    Returns (checkpoint path, [shard dirs]). The val split has
    ``eval_val * eval_shards`` images and shard i holds every
    ``eval_shards``-th one, so each shard spans all modalities. Rotating
    through the shards averages the cost of AP over more images while each
    invocation stays short.

    The seeded box head predicts boxes of about half the image, which never
    reach IoU 0.5 with the data's objects, so AP would be exactly 0 and the
    matching and ranking paths would go unchecked. The fixture therefore
    spreads the predicted centres (centre weights x3) and sets the extent
    bias to the mean extent of the val boxes; the model stays untrained.
    """
    from mocadet import checkpoint, data, train
    cfg = eval_config(seed, size)
    bundle = train.build_run(cfg)
    n_shards = size["eval_shards"]
    val_spec = dataclasses.replace(cfg.dataset, counts={"val": size["eval_val"] * n_shards})
    val = data.generate_synthetic(val_spec, "val")
    named = bundle.model.parameters() + bundle.projection.parameters()
    params = dict(named)
    if "box_out.W" in params and "box_out.b" in params:
        extent = np.mean([a.box[2:] for s in val for a in s.annotations], axis=0)
        params["box_out.W"].data[:, :2] *= 3.0
        params["box_out.b"].data[:2] = 0.0
        params["box_out.b"].data[2:] = np.log(extent / (1.0 - extent))
    ckpt = os.path.join(fixture_dir, "model.ckpt")
    checkpoint.save_checkpoint(ckpt, named, cfg.to_json(), phase="detection", step=0,
                               seeds={"seed": seed})
    shards = []
    for i in range(n_shards):
        shards.append(os.path.join(fixture_dir, f"val{i}"))
        data.export_dataset(val[i::n_shards], val_spec, shards[-1], "val")
    return ckpt, shards
