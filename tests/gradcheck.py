"""Central-difference gradient checking for the autodiff tests."""

from dataclasses import dataclass, field

import numpy as np

from mocadet import autodiff as ad
from mocadet.errors import ContractError, ValidationError


def weighted_sum(out, w):
    """sum(out * w) as one tape node, for a constant ``w`` of ``out``'s shape
    or one that broadcasts to it: a scalar loss that hands ``out`` the
    gradient ``w`` (times the loss's own gradient)."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), out.shape)
    return ad.node((out.data * w).sum(), (out,), lambda g: (g * w,))


def clear_grads(params) -> None:
    for p in params:
        p.grad = None


@dataclass
class GradCheckReport:
    h: float
    tol: float
    per_param: list = field(default_factory=list)  # (name, rel_error)
    max_rel_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` is a nullary callable returning a scalar Tensor built from
    ``params`` (a list of leaf tensors, or (name, tensor) pairs). ``f`` is
    evaluated twice up front; any mismatch means a non-deterministic
    objective and raises ContractError. Relative error per parameter is
    ``|ga - gn|_inf / max(|ga|_inf, |gn|_inf, 1)``: the unit floor means
    parameters whose true gradient is (near) zero are judged on absolute
    error, which keeps central-difference cancellation noise from being
    amplified.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValidationError(f"h={h} outside [1e-7, 1e-3]")
    named = [(p if isinstance(p, tuple) else (f"param{i}", p))
             for i, p in enumerate(params)]

    def eval_value() -> float:
        with ad.no_grad():
            out = f()
        if not isinstance(out, ad.Tensor) or out.ndim != 0:
            raise ContractError("grad_check objective must return a scalar Tensor")
        return float(out.data)

    v1, v2 = eval_value(), eval_value()
    if v1 != v2:
        raise ContractError("objective is non-deterministic: repeated evaluation mismatch")

    clear_grads([p for _, p in named])
    with ad.Tape():
        loss = f()
        ad.backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in named}

    report = GradCheckReport(h=h, tol=tol)
    for name, p in named:
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = eval_value()
            flat[i] = orig - h
            fm = eval_value()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
        ga = analytic[name].reshape(-1)
        denom = max(np.abs(ga).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1.0)
        rel = float(np.abs(ga - numeric).max(initial=0.0) / denom)
        report.per_param.append((name, rel))
        report.max_rel_error = max(report.max_rel_error, rel)
    return report
