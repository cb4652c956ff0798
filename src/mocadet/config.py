"""Run configuration: one JSON document fully determines a run.

``RunConfig.from_json`` reads it by the one rule of ``fileio.read_dataclass``
on the field annotations, so an unknown key (top-level ones included) or a
value of the wrong JSON type is a ``ValidationError`` naming the field. Then
``validate`` checks every section's ranges before any data or model exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import DatasetSpec, make_default_spec
from .detector import DetectorConfig
from .errors import ValidationError
from .fileio import check_seed, json_form, read_dataclass
from .losses import LossWeights


@dataclass
class OptimConfig:
    lr: float = 2e-4
    weight_decay: float = 1e-4
    decay_epoch: int = 40
    decay_factor: float = 0.1
    epochs: int = 48

    def validate(self):
        if self.lr <= 0:
            raise ValidationError("optim.lr must be positive")
        if self.weight_decay < 0:
            raise ValidationError("optim.weight_decay must be non-negative")
        if not 0 < self.decay_factor <= 1:
            raise ValidationError("optim.decay_factor must be in (0, 1]")
        if self.epochs < 1 or self.decay_epoch < 0:
            raise ValidationError("optim.epochs/decay_epoch out of range")
        return self

    def lr_at(self, epoch: int) -> float:
        """The step-decay schedule: ``lr``, times ``decay_factor`` from
        ``decay_epoch`` on."""
        return self.lr * (self.decay_factor if epoch >= self.decay_epoch else 1.0)


@dataclass
class TokenConfig:
    source: str = "synthetic"  # synthetic | file
    d_text: int = 64
    seed: int = 1
    path: str | None = None

    def validate(self):
        if self.source not in ("synthetic", "file"):
            raise ValidationError("tokens.source must be 'synthetic' or 'file'")
        if self.source == "file" and not self.path:
            raise ValidationError("tokens.path required when tokens.source='file'")
        if self.source == "synthetic" and self.d_text < 2:
            raise ValidationError("tokens.d_text must be >= 2")
        check_seed(self.seed, "tokens.seed")
        return self


@dataclass
class QraConfig:
    tau: float = 0.07
    layer: int = 5
    steps: int = 300
    batch_size: int | None = None  # None -> number of modalities
    lr: float = 1e-4

    def validate(self):
        if self.tau <= 0:
            raise ValidationError("qra.tau must be positive")
        if self.steps < 0 or self.lr <= 0:
            raise ValidationError("qra.steps/lr out of range")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"qra.batch_size must be >= 1, got {self.batch_size}")
        return self


@dataclass
class RunConfig:
    dataset: DatasetSpec = field(default_factory=make_default_spec)
    model: dict[str, int] = field(default_factory=dict)  # DetectorConfig overrides
    loss: LossWeights = field(default_factory=LossWeights)
    optim: OptimConfig = field(default_factory=OptimConfig)
    tokens: TokenConfig = field(default_factory=TokenConfig)
    qra: QraConfig = field(default_factory=QraConfig)
    batch_size: int = 4
    seed: int = 0
    moca: bool = True
    eval_every: int = 4

    def validate(self) -> "RunConfig":
        check_seed(self.seed, "seed")
        self.optim.validate()
        self.tokens.validate()
        self.qra.validate()
        self.loss.validate()
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.dataset.counts.get("train", 0) < 1:
            raise ValidationError("dataset.counts.train must be >= 1: a run trains on it")
        m = self.dataset.n_modalities
        if self.qra_batch_size > m:
            raise ValidationError(
                f"qra.batch_size {self.qra_batch_size} exceeds modality count {m}; "
                "pretraining batches must cover distinct modalities")
        det_cfg = self.detector_config()
        if self.dataset.image_size % det_cfg.patch_size:
            raise ValidationError(
                f"dataset.image_size {self.dataset.image_size} is not a multiple of "
                f"model.patch_size {det_cfg.patch_size}")
        n_dec = det_cfg.n_decoder_layers
        if not 2 <= self.qra.layer <= n_dec:
            raise ValidationError(
                f"qra.layer must be in [2, {n_dec}] for this decoder depth")
        if self.eval_every < 1:
            raise ValidationError("eval_every must be >= 1")
        return self

    def detector_config(self) -> DetectorConfig:
        """The run's model: the ``model`` section over the defaults, with
        ``n_classes`` from the dataset, checked."""
        if "n_classes" in self.model:
            raise ValidationError("model.n_classes is derived from the dataset; do not set it")
        model = dict(self.model, n_classes=len(self.dataset.global_classes))
        return read_dataclass(DetectorConfig, model, "config.model").validate()

    @property
    def qra_batch_size(self) -> int:
        return self.dataset.n_modalities if self.qra.batch_size is None else self.qra.batch_size

    def to_json(self) -> dict:
        return json_form(self)

    @staticmethod
    def from_json(doc) -> "RunConfig":
        return read_dataclass(RunConfig, doc, "config").validate()
