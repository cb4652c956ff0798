"""Run configuration: one JSON document fully determines a run.

``RunConfig.from_json`` reads it by the one rule of ``fileio.read_dataclass``
on the field annotations, so an unknown key (top-level ones included) or a
value of the wrong JSON type is a ``ValidationError`` naming the field. Every
config class is frozen, and a run config is checked when made, before any
data or model exists: every numeric field declares its range once, in its
field's metadata (``fileio.Range``), and ``fileio.check_ranges`` checks them
all, the dataset's and the model's included; ``validate`` adds only the rules
that tie fields together. A config that exists is therefore valid and cannot
change, and nothing downstream checks it again. An upper bound keeps a valid
document within bounded memory, or bounds time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .data import DatasetSpec, make_default_spec
from .detector import ModelConfig
from .errors import ValidationError
from .fileio import D_TEXT, SEED, Range, check_ranges, json_form, read_dataclass
from .losses import LossWeights


CLASSES = Range(1, 1024)  # a dataset's class count, as ModelConfig's bounds assume


@dataclass(frozen=True)
class OptimConfig:
    lr: float = Range(0, 1, lo_open=True).field(default=2e-4)  # AdamW moves a weight ~lr a step
    weight_decay: float = Range(0, 1).field(default=1e-4)  # so 1 - lr * weight_decay is in [0, 1]
    decay_epoch: int = Range(0, 100_000).field(default=40)  # in epochs, as epochs is
    decay_factor: float = Range(0, 1, lo_open=True).field(default=0.1)
    epochs: int = Range(1, 100_000).field(default=48)  # bounds time, not memory

    def lr_at(self, epoch: int) -> float:
        """The step-decay schedule: ``lr``, times ``decay_factor`` from
        ``decay_epoch`` on."""
        return self.lr * (self.decay_factor if epoch >= self.decay_epoch else 1.0)


@dataclass(frozen=True)
class TokenConfig:
    source: str = "synthetic"  # synthetic | file
    d_text: int = D_TEXT.field(default=64)
    seed: int = SEED.field(default=1)
    path: str | None = None


@dataclass(frozen=True)
class QraConfig:
    # the logits are cosines times 1 / tau, which is inf below about 5.6e-309;
    # at 1e-3 each logit is in ±1000, and at 10 in ±0.1
    tau: float = Range(1e-3, 10).field(default=0.07)
    layer: int = Range(2, 32).field(default=5)  # queries see the image from layer 2 on
    steps: int = Range(0, 10_000_000).field(default=300)  # 10^7 kept losses hold 0.3 GB
    # None -> number of modalities; a batch is one forward, as in RunConfig
    batch_size: int | None = Range(1, 256).field(default=None)
    lr: float = Range(0, 1, lo_open=True).field(default=1e-4)  # as optim.lr


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec = field(default_factory=make_default_spec)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    optim: OptimConfig = field(default_factory=OptimConfig)
    tokens: TokenConfig = field(default_factory=TokenConfig)
    qra: QraConfig = field(default_factory=QraConfig)
    batch_size: int = Range(1, 256).field(default=4)  # one forward, its tape grows with B
    seed: int = SEED.field(default=0)
    moca: bool = True
    eval_every: int = Range(1, 100_000).field(default=4)  # in epochs, as epochs is

    def __post_init__(self):
        # the one conversion: perfbench/inputs.py, the benchmark's fixed
        # input, passes the model section as a dict of sizes
        if isinstance(self.model, Mapping):
            object.__setattr__(self, "model", read_dataclass(ModelConfig, dict(self.model),
                                                             "config.model"))
        self.validate()

    def validate(self) -> "RunConfig":
        """The run, once every declared range and each rule across fields
        hold; ``__post_init__`` runs it, so a RunConfig that exists passed it."""
        check_ranges(self, "config")
        if self.tokens.source not in ("synthetic", "file"):
            raise ValidationError("tokens.source must be 'synthetic' or 'file'")
        if self.tokens.source == "file" and not self.tokens.path:
            raise ValidationError("tokens.path required when tokens.source='file'")
        if self.dataset.counts.get("train", 0) < 1:
            raise ValidationError("dataset.counts.train must be >= 1: a run trains on it")
        m = self.dataset.n_modalities
        if self.qra_batch_size > m:
            raise ValidationError(
                f"qra.batch_size {self.qra_batch_size} exceeds modality count {m}; "
                "pretraining batches must cover distinct modalities")
        model = self.model
        if model.d_model % model.n_heads:
            raise ValidationError("model.d_model must be divisible by model.n_heads")
        if model.d_model % 4:
            raise ValidationError("model.d_model must be divisible by 4 (2-d positions)")
        if self.dataset.image_size % model.patch_size:
            raise ValidationError(
                f"dataset.image_size {self.dataset.image_size} is not a multiple of "
                f"model.patch_size {model.patch_size}")
        if self.qra.layer > model.n_decoder_layers:
            raise ValidationError(f"qra.layer {self.qra.layer} exceeds model.n_decoder_layers "
                                  f"{model.n_decoder_layers}")
        CLASSES.check(len(self.dataset.global_classes), "config.dataset's class count")
        return self

    @property
    def qra_batch_size(self) -> int:
        return self.dataset.n_modalities if self.qra.batch_size is None else self.qra.batch_size

    def to_json(self) -> dict:
        return json_form(self)

    @staticmethod
    def from_json(doc) -> "RunConfig":
        return read_dataclass(RunConfig, doc, "config")
