"""AdamW with decoupled weight decay and a MultiStep learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError


class AdamW:
    """Standard AdamW; betas (0.9, 0.999), eps 1e-8, bias-corrected."""

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValidationError("learning rate must be positive")
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.named_params]
        self._v = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self) -> None:
        """One update of every parameter, or none: all gradients are checked
        before anything changes."""
        grads = []
        for name, p in self.named_params:
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient in {name!r}; aborting step {self.t + 1}")
            grads.append(g.reshape(p.data.shape))
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for (_, p), g, m, v in zip(self.named_params, grads, self._m, self._v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update


class MultiStepSchedule:
    """Base lr multiplied by ``factor`` from ``decay_epoch`` onward."""

    def __init__(self, base_lr: float, decay_epoch: int, factor: float = 0.1):
        self.base_lr = base_lr
        self.decay_epoch = decay_epoch
        self.factor = factor

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * (self.factor if epoch >= self.decay_epoch else 1.0)
