"""AdamW with decoupled weight decay over one flat parameter store.

The optimizer owns flat float64 storage for the parameters it is given:
one ``data``, one ``grad`` and one vector for each moment, ``m`` and
``v``, over all of them in the given order. It adopts each parameter by
copying it in and rebinding ``p.data`` to a reshaped view of ``data``;
``zero_grad`` points each ``p.grad`` at its view of ``grad``, so backward
accumulates leaf gradients straight into the flat vector, the one gradient
``step`` reads. A tensor can be adopted by one optimizer only: a second one
would leave the first updating storage the tensor no longer reads.

``step`` then checks the whole gradient at once and updates the flat
vectors in chunks of ``CHUNK`` elements, writing every intermediate into
two chunk-long scratch buffers. The arithmetic and its order are those of
the per-tensor update, elementwise, so the parameters come out bit for bit
the same.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

# elements per update slice: scratch buffers this long stay in cache, and
# the slices are long enough that numpy's per-call cost is small
CHUNK = 32_768
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Standard AdamW; betas (0.9, 0.999), eps 1e-8, bias-corrected. ``lr``
    and ``weight_decay`` are a checked config's, in the ranges it declares."""

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        if len({id(p) for _, p in self.named_params}) != len(self.named_params):
            raise ContractError("a parameter is listed twice")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._bounds = np.cumsum([0] + [p.data.size for _, p in self.named_params])
        size = int(self._bounds[-1])
        self.data = np.empty(size)
        self.grad = np.zeros(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad_views = []
        for (_, p), lo, hi in zip(self.named_params, self._bounds[:-1], self._bounds[1:]):
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(p.data.shape)
            self._grad_views.append(self.grad[lo:hi].reshape(p.data.shape))
        self._scratch = (np.empty(min(size, CHUNK)), np.empty(min(size, CHUNK)))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for (_, p), view in zip(self.named_params, self._grad_views):
            p.grad = view

    def step(self) -> None:
        """One update of every parameter, or none: all gradients are checked
        before anything changes."""
        if not np.isfinite(self.grad).all():
            name = next(name for (name, _), lo, hi in
                        zip(self.named_params, self._bounds[:-1], self._bounds[1:])
                        if not np.isfinite(self.grad[lo:hi]).all())
            raise ContractError(f"non-finite gradient in {name!r}; aborting step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        decay = self.lr * self.weight_decay
        for lo in range(0, self.data.size, CHUNK):
            g, m, v, x = (a[lo:lo + CHUNK] for a in (self.grad, self.m, self.v, self.data))
            s, u = (a[:g.size] for a in self._scratch)
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=s)
            v *= BETA2
            v += np.multiply(np.multiply(1.0 - BETA2, g, out=s), g, out=s)
            # u = (m / bc1) / (sqrt(v / bc2) + EPS)
            np.sqrt(np.divide(v, bc2, out=s), out=s)
            s += EPS
            np.divide(np.divide(m, bc1, out=u), s, out=u)
            if self.weight_decay:
                x -= np.multiply(decay, x, out=s)
            x -= np.multiply(self.lr, u, out=u)
