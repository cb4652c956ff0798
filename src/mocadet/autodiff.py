"""Dense float64 tensors with reverse-mode automatic differentiation.

Only what the detector and its objectives need: 0-d/1-d/2-d arrays, a small
set of primitive ops with hand-written pullbacks, and an explicit Tape that
records one forward build and supports exactly one backward pass.

Ops, one tape node each: the fused ``linear``, ``attention`` (multi-head,
optional extra key/value rows) and ``layernorm`` (optionally affine);
elementwise ``add sub mul relu sigmoid``; ``concat_rows``;
reductions ``mean_rows sum_all logsumexp_rows cosine_matrix``. ``node``
builds one node from a value computed elsewhere and a hand-written
pullback; the set loss builds its two fused nodes with it, and the token
projection its one. ``expit`` is the numpy sigmoid that ``sigmoid``, the
set loss and the detection scores share.

Every model part is a ``Module``, and one rule names its parameters: the
order in which its ``__init__`` assigns them. That order is the
checkpoint's parameter table and the optimizer's flat layout, so
reordering assignments changes both.

Conventions:
  * all data is float64, row-major;
  * leaf tensors are validated finite at construction;
  * differentiable ops must run inside a ``with Tape():`` block (or under
    ``no_grad()`` when only values are needed);
  * broadcasting is limited to scalars and row vectors -- anything else is a
    loud ShapeError.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError, ValidationError

_state = threading.local()


def _tape_stack() -> list:
    if not hasattr(_state, "tapes"):
        _state.tapes = []
    return _state.tapes


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables recording (forward values only)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tape:
    """Ordered record of one differentiable forward build.

    Nodes are appended in creation order, so every node's parents precede it
    (a topological order by construction). A tape supports a single backward
    pass; rebuilding the forward pass means opening a fresh tape. Tensors
    created on one tape must not be used as op inputs on another tape
    (leaves excepted).
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if _tape_stack():
            raise ContractError("tapes do not nest; close the active Tape first")
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_pullback", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("leaf tensor contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._pullback = None
        self._tape: Tape | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def param(data) -> Tensor:
    """Leaf tensor that will receive gradients."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Module:
    """A model part whose parameters are the ``param`` tensors it holds.

    ``parameters(prefix)`` walks ``vars(self)`` in assignment order: a
    tensor with ``requires_grad`` is listed as ``(path, tensor)``, and a
    ``Module``, or each item of a list (its index in the path), is walked in
    turn, so a decoder weight is ``decoder.0.self_attn.wq.W``. Called with no
    prefix, the paths start from the class's ``prefix``.
    """

    prefix = ""

    def parameters(self, prefix: str | None = None) -> list:
        return list(_named_params(self.prefix if prefix is None else prefix, self))


def _named_params(path: str, value):
    # a generator, not a closure that calls itself: that would be a reference
    # cycle holding the listed tensors until the cyclic collector runs
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield path, value
    elif isinstance(value, Module):
        for name, item in vars(value).items():
            yield from _named_params(f"{path}.{name}" if path else name, item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named_params(f"{path}.{i}", item)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make_node(data: np.ndarray, parents: tuple, pullback) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    needs = grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        tape = active_tape()
        if tape is None:
            raise ContractError(
                "differentiable op outside a Tape; wrap the forward pass in "
                "`with Tape():` or use no_grad()"
            )
        if tape.consumed:
            raise ContractError("tape already consumed by backward; open a new Tape")
        out._parents = parents
        out._pullback = pullback
        out._tape = tape
        tape.nodes.append(out)
    else:
        out._parents = ()
        out._pullback = None
        out._tape = None
    return out


def _accum(parent: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``parent.grad`` in place, so a leaf whose gradient is a
    view of an optimizer's flat gradient fills that vector; the first write
    to an empty gradient copies."""
    if parent.requires_grad:
        if parent.grad is None:
            parent.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            parent.grad += g


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


def node(data, parents, pullback) -> Tensor:
    """One tape node whose value was computed outside this module: ``data``
    is its value, ``parents`` the tensors it depends on, and ``pullback(g)``
    maps the gradient ``g`` of the value to a sequence of one gradient per
    parent, each of that parent's shape."""
    parents = tuple(parents)
    if not all(isinstance(p, Tensor) for p in parents):
        raise ContractError("node parents must be Tensors")

    def run(g):
        grads = tuple(pullback(g))
        if len(grads) != len(parents) or any(np.shape(d) != p.shape
                                             for p, d in zip(parents, grads)):
            raise ContractError("node pullback must return one gradient per parent, "
                                "each of that parent's shape")
        for p, d in zip(parents, grads):
            _accum(p, d)

    return _make_node(data, parents, run)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` as one node; ``b`` is a row vector."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[0] or b.shape != W.shape[1:]:
        raise ShapeError(f"linear needs (n, k) x (k, m) + (m,) operands, "
                         f"got {x.shape}, {W.shape} and {b.shape}")

    def pullback(g):
        _accum(b, g.sum(axis=0))
        if x.requires_grad:
            _accum(x, g @ W.data.T)
        if W.requires_grad:
            _accum(W, x.data.T @ g)

    return _make_node(x.data @ W.data + b.data, (x, W, b), pullback)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float,
              extra_k: Tensor | None = None, extra_v: Tensor | None = None,
              segments: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q``, ``k`` and ``v`` hold ``segments`` equal row blocks, and query
    block s attends only to key/value block s (block-diagonal attention
    over a batch of stacked images). Head h is column block h (width
    d / n_heads); it outputs softmax(scale * q_h k_h^T) v_h, and the head
    outputs are concatenated in order. ``extra_k``/``extra_v`` are
    (segments, d): row s is appended after the key/value rows of block s
    (the MoCA token row of image s). Heads are (segments, h, rows, d_h)
    views inside numpy. The softmax pullback is dS = P * (dP - rowsum(dP *
    P)), as in the FlashAttention backward pass (Dao et al. 2022,
    arXiv:2205.14135).
    """
    q, k, v, *extras = [_as_tensor(t) for t in (q, k, v, extra_k, extra_v) if t is not None]
    d = q.shape[-1] if q.ndim == 2 else -1
    s = int(segments)
    if (d < 0 or s < 1 or q.shape[0] % s or k.shape != v.shape or k.shape[1:] != (d,)
            or k.shape[0] == 0 or k.shape[0] % s
            or len(extras) == 1 or any(e.shape != (s, d) for e in extras)):
        raise ShapeError(f"attention needs (S*n, d) queries, equal non-empty (S*m, d) keys "
                         f"and values, and (S, d) extra rows in pairs for S={segments} "
                         f"segments; got {q.shape}, {k.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"width {d} does not split into {n_heads} heads")
    if not scale > 0.0:
        raise ValidationError("attention scale must be positive")
    m, d_head = k.shape[0] // s, d // n_heads

    def split(x):  # (S*rows, d) -> (S, h, rows, d_h)
        return x.reshape(s, -1, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x):  # (S, h, rows, d_h) -> (S*rows, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def with_extra(x, extra):  # (S*m, d) -> (S, m [+ 1], d): row s of extra ends block s
        x = x.reshape(s, m, d)
        return x if extra is None else np.concatenate([x, extra.data[:, None, :]], axis=1)

    extra_k, extra_v = extras or (None, None)
    qh = split(q.data)
    kh = split(with_extra(k.data, extra_k))
    vh = split(with_extra(v.data, extra_v))
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=3, keepdims=True)

    def pullback(g):
        go = split(g)
        dp = go @ vh.transpose(0, 1, 3, 2)
        ds = scale * p * (dp - (dp * p).sum(axis=3, keepdims=True))
        _accum(q, merge(ds @ kh))
        dk = merge(ds.transpose(0, 1, 3, 2) @ qh).reshape(s, -1, d)
        dv = merge(p.transpose(0, 1, 3, 2) @ go).reshape(s, -1, d)
        for t, grad in zip([k, v] + extras, (dk[:, :m], dv[:, :m], dk[:, m:], dv[:, m:])):
            _accum(t, grad.reshape(t.shape))

    return _make_node(merge(p @ vh), (q, k, v, *extras), pullback)


def _broadcast_kind(a: Tensor, b: Tensor) -> str:
    """same | scalar_b | row_b  (b is broadcast against a)."""
    if a.shape == b.shape:
        return "same"
    if b.ndim == 0:
        return "scalar_b"
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return "row_b"
    raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, kind: str) -> np.ndarray:
    if kind == "same":
        return g
    if kind == "scalar_b":
        return np.asarray(g.sum())
    return g.sum(axis=0)  # row_b


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    kind = _broadcast_kind(a, b)

    def pullback(g):
        _accum(a, g)
        _accum(b, _reduce_to(g, kind))

    return _make_node(a.data + b.data, (a, b), pullback)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    kind = _broadcast_kind(a, b)

    def pullback(g):
        _accum(a, g)
        _accum(b, -_reduce_to(g, kind))

    return _make_node(a.data - b.data, (a, b), pullback)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    kind = _broadcast_kind(a, b)

    def pullback(g):
        _accum(a, g * b.data)
        _accum(b, _reduce_to(g * a.data, kind))

    return _make_node(a.data * b.data, (a, b), pullback)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0

    def pullback(g):
        _accum(a, g * mask)

    return _make_node(a.data * mask, (a,), pullback)


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of an array, entry by entry.
    It takes one exp, of -|x|, so no entry overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = expit(a.data)

    def pullback(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make_node(out_data, (a,), pullback)


def logsumexp_rows(a: Tensor) -> Tensor:
    """log(sum(exp(row))) of each row of a matrix, stabilized -> vector."""
    a = _as_tensor(a)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ShapeError(f"logsumexp_rows needs a matrix with >= 1 column, got {a.shape}")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    out_data = (m + np.log(s))[:, 0]
    soft = e / s

    def pullback(g):
        _accum(a, g[:, None] * soft)

    return _make_node(out_data, (a,), pullback)


def layernorm(a: Tensor, eps: float = 1e-5, gamma: Tensor | None = None,
              beta: Tensor | None = None) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then ``* gamma +
    beta`` when those vectors over the normalized axis are given."""
    a = _as_tensor(a)
    if a.ndim not in (1, 2):
        raise ShapeError(f"layernorm needs a vector or matrix, got {a.shape}")
    axis, affine = a.ndim - 1, gamma is not None
    if affine != (beta is not None) or affine and not gamma.shape == beta.shape == a.shape[-1:]:
        raise ShapeError(f"layernorm needs gamma and beta of shape {a.shape[-1:]} or neither")
    mu = a.data.mean(axis=axis, keepdims=True)
    var = ((a.data - mu) ** 2).mean(axis=axis, keepdims=True)
    s = np.sqrt(var + eps)
    y = (a.data - mu) / s

    def pullback(g):
        if affine:
            kind = _broadcast_kind(a, gamma)
            _accum(beta, _reduce_to(g, kind))
            _accum(gamma, _reduce_to(g * y, kind))
            g = g * gamma.data
        gm = g.mean(axis=axis, keepdims=True)
        gy = (g * y).mean(axis=axis, keepdims=True)
        _accum(a, (g - gm - y * gy) / s)

    out_data = y * gamma.data + beta.data if affine else y
    return _make_node(out_data, (a, gamma, beta) if affine else (a,), pullback)


def concat_rows(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat_rows of empty list")
    for t in tensors:
        if t.ndim != 2 or t.shape[1] != tensors[0].shape[1]:
            raise ShapeError("concat_rows needs matrices with equal column counts")
    sizes = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def pullback(g):
        for t, i0, i1 in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, g[i0:i1])

    return _make_node(np.concatenate([t.data for t in tensors], axis=0),
                      tuple(tensors), pullback)


def mean_rows(a: Tensor, segments: int) -> Tensor:
    """Block means of a matrix: its rows are ``segments`` S equal blocks (as
    in ``attention``) and the result is the (S, n_cols) matrix of the
    arithmetic means of the blocks."""
    a = _as_tensor(a)
    s = int(segments)
    if a.ndim != 2 or a.shape[0] == 0 or s < 1 or a.shape[0] % s:
        raise ContractError(f"mean_rows needs a matrix of {s} equal non-empty row "
                            f"blocks, got {a.shape}")
    m = a.shape[0] // s
    blocks = a.data.reshape(s, m, a.shape[1])

    def pullback(g):
        g = g.reshape(s, 1, a.shape[1])
        _accum(a, np.broadcast_to(g / m, blocks.shape).reshape(a.shape))

    return _make_node(blocks.mean(axis=1), (a,), pullback)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def pullback(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make_node(np.asarray(a.data.sum()), (a,), pullback)


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of every row of ``a`` (R, d) with every row of
    ``b`` (K, d) -> (R, K)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_matrix needs (R, d) and (K, d) rows, got {a.shape}, {b.shape}")
    na = np.sqrt((a.data ** 2).sum(axis=1))
    nb = np.sqrt((b.data ** 2).sum(axis=1))
    if not (na.all() and nb.all()):
        raise ValidationError("cosine similarity of a zero vector is undefined")
    norms = na[:, None] * nb[None, :]
    c = (a.data @ b.data.T) / norms

    def pullback(g):
        gn = g / norms
        gc = g * c
        _accum(a, gn @ b.data - (gc.sum(axis=1) / (na * na))[:, None] * a.data)
        _accum(b, gn.T @ a.data - (gc.sum(axis=0) / (nb * nb))[:, None] * b.data)

    return _make_node(c, (a, b), pullback)


# ---------------------------------------------------------------------------
# backward and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Run reverse mode from a scalar loss in one pass over its tape.

    Gradients accumulate into ``.grad`` (call ``zero_grad`` between steps).
    Newest node first, a node's pullback runs when the node holds a gradient,
    which only a node whose pullback ran can give it. The loss's tape is
    consumed and emptied, and its nodes drop their parents and pullbacks, so
    the graph is freed even while its outputs are still held: a second
    backward without rebuilding the forward pass raises ContractError.
    """
    if not isinstance(loss, Tensor) or loss.ndim != 0:
        raise ContractError("backward needs a scalar Tensor loss")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any requires_grad leaf")
    tape = loss._tape
    if tape is None:  # loss is itself a leaf parameter
        loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
        return
    if tape.consumed:
        raise ContractError("tape already consumed; rebuild the forward pass")
    tape.consumed = True

    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(tape.nodes):
            if node.grad is not None:
                node._pullback(node.grad)
    finally:
        # nodes point back at the tape, and each keeps its parents alive: cutting
        # both lets refcounting free the graph even while the caller still holds
        # the loss or other outputs of the forward pass
        for node in tape.nodes:
            node._parents = ()
            node._pullback = None
        tape.nodes.clear()


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
        with no_grad():
            out = f()
        if not isinstance(out, Tensor) or out.ndim != 0:
            raise ContractError("grad_check objective must return a scalar Tensor")
        return float(out.data)

    v1, v2 = eval_value(), eval_value()
    if v1 != v2:
        raise ContractError("objective is non-deterministic: repeated evaluation mismatch")

    zero_grad([p for _, p in named])
    with Tape():
        loss = f()
        backward(loss)
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
