"""Dense float64 tensors with reverse-mode automatic differentiation.

Only what the detector and its objectives need: 0-d/1-d/2-d arrays, a small
set of primitive ops with hand-written pullbacks, and an explicit Tape that
records one forward build and supports exactly one backward pass. One tape
is open at a time, in one slot per thread.

Ops, one tape node each: the fused ``linear``, ``attention`` (multi-head,
optional extra key/value rows) and the affine ``layernorm`` of a matrix;
elementwise ``add`` of two same-shape operands, ``relu`` and ``sigmoid``;
``concat_rows``; the block means ``mean_rows``. ``node`` builds one node
from a value computed elsewhere and a hand-written pullback; the set loss
builds its two fused nodes with it, the token projection its one and
QueryREPA's InfoNCE loss its one.
``expit`` is the numpy sigmoid that ``sigmoid``, the set loss and the
detection scores share.

Every model part is a ``Module``, and one rule names its parameters: the
order in which its ``__init__`` assigns them. That order is the
checkpoint's parameter table and the optimizer's flat layout, so
reordering assignments changes both.

Conventions:
  * all data is float64, row-major, of at most 2 dims;
  * leaf tensors are validated finite at construction;
  * ops take Tensors: a constant operand is wrapped by ``constant`` first;
  * differentiable ops must run inside a ``with Tape():`` block (or under
    ``no_grad()`` when only values are needed);
  * the only broadcast is a row vector against a matrix, inside ``linear``
    (its bias) and ``layernorm`` (its gamma and beta). ``attention``,
    ``add``, ``layernorm`` and ``mean_rows`` raise on a shape mismatch;
    ``linear`` and ``concat_rows`` take only what the modules and the set
    loss hand them (a layer's own weights, blocks of one width) and check
    nothing.

Graph and values: a ``Tensor`` is its value ``data`` plus a link to its
``Node``, which holds what reverse mode needs: ``grad``, ``requires_grad``,
the parent nodes and the pullback. The tape lists nodes, and no node points
at a tensor or a value.

Capture: a pullback closes over the parent nodes it accumulates into and
over only the arrays and shapes its formula reads, all taken at forward
time. ``linear`` keeps ``x`` and ``W``; ``attention`` its q/k/v head views
(the concatenated copies when extra rows are appended) and the softmax
``p``; ``layernorm`` its normalized ``y``, the row scales and ``gamma``;
``sigmoid`` its own output; ``relu`` its mask. ``add``, ``concat_rows``
and ``mean_rows`` keep no value. So a value that no pullback reads -- a
residual sum that only a layer norm takes, an FFN pre-activation -- is
freed as soon as the forward code drops its tensor.

Gradient ownership: a pullback gives each parent its gradient through
``_accum``, which adds into a gradient the parent already holds and
otherwise stores a copy. A pullback hands over, uncopied, only an array it
has just allocated and gives to no other parent (``owned=True``); disjoint
row blocks of one such array may go to different parents. An array that is,
or is a view of, the node's own gradient, or one array given to two
parents, is copied. So no two nodes' gradients share memory, and a
pullback may not write into the gradient it receives.

Release: backward takes nodes off the tape newest first and cuts each
node's parents and pullback as soon as it has been visited. Only newer
nodes point at a node, so once they are cut its gradient and the arrays
its pullback saved are freed, unless the caller holds its tensor: that
keeps its ``.data`` and ``.grad``. Backward's memory therefore never rises
above what the forward pass left.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, ShapeError, ValidationError

_state = threading.local()

_LAYERNORM_EPS = 1e-5


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
    pass (``backward`` rejects a consumed one); rebuilding the forward pass
    means opening a fresh tape. Tensors created on one tape must not be used
    as op inputs on another tape (leaves excepted).
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise ContractError("tapes do not nest; close the active Tape first")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False


def active_tape() -> Tape | None:
    return getattr(_state, "tape", None)


class Node:
    """The reverse-mode half of a tensor: its gradient and, once recorded on
    a tape, its parent nodes and pullback. It holds no value."""

    __slots__ = ("requires_grad", "grad", "_parents", "_pullback", "_tape")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._pullback = None
        self._tape: Tape | None = None


class Tensor:
    """A float64 array and the graph node reverse mode tracks it by."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("leaf tensor contains NaN or Inf")
        self.data = arr
        self.node = Node(bool(requires_grad))

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, value) -> None:
        self.node.grad = value

    def item(self) -> float:
        return float(self.data)


def param(data) -> Tensor:
    """Leaf tensor that will receive gradients."""
    return Tensor(data, requires_grad=True)


def stored_param(data: np.ndarray) -> Tensor:
    """``param`` of ``data`` itself, a float64 array of at most 2 dims that
    its reader has already checked to be finite: no copy, no second check."""
    out = Tensor.__new__(Tensor)
    out.data, out.node = data, Node(True)
    return out


class Drawn:
    """The parameter source of a model drawn from ``rng``.

    Every module takes its parameters from a source as it is built, in
    ``parameters()`` order: ``uniform(bound, shape)`` in [-bound, bound),
    ``normal(scale, shape)`` around 0 and ``constant(value, shape)``. This
    one draws them from ``rng`` in that order; ``checkpoint.StoredArrays``
    hands out a checkpoint's arrays instead.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def uniform(self, bound: float, shape: tuple) -> Tensor:
        return param(self.rng.uniform(-bound, bound, size=shape))

    def normal(self, scale: float, shape: tuple) -> Tensor:
        return param(self.rng.normal(0.0, scale, size=shape))

    def constant(self, value: float, shape: tuple) -> Tensor:
        return param(np.full(shape, value))


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


def _make_node(data: np.ndarray, parents: tuple, pullback) -> Tensor:
    """The tensor of ``data`` whose node has the nodes ``parents``; it is
    recorded with ``pullback`` when a parent requires a gradient."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.node = n = Node(grad_enabled() and any(p.requires_grad for p in parents))
    if n.requires_grad:
        tape = active_tape()
        if tape is None:
            raise ContractError(
                "differentiable op outside a Tape; wrap the forward pass in "
                "`with Tape():` or use no_grad()"
            )
        n._parents = parents
        n._pullback = pullback
        n._tape = tape
        tape.nodes.append(n)
    return out


def _accum(parent: Node, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to ``parent.grad`` in place, so a leaf whose gradient is a
    view of an optimizer's flat gradient fills that vector. The first write
    to an empty gradient copies ``g``, unless ``owned`` says that the
    pullback has just allocated ``g`` and nothing else holds it: then
    ``g`` becomes the gradient."""
    if parent.requires_grad:
        if parent.grad is None:
            if owned:
                parent.grad = g
            else:
                parent.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            parent.grad += g


def node(data, parents, pullback) -> Tensor:
    """One tape node whose value was computed outside this module: ``data``
    is its value, ``parents`` the tensors it depends on, and ``pullback(g)``
    maps the gradient ``g`` of the value to a sequence of one gradient per
    parent, each of that parent's shape."""
    parents = tuple(parents)
    nodes, shapes = tuple(p.node for p in parents), [p.shape for p in parents]

    def run(g):
        grads = tuple(pullback(g))
        if len(grads) != len(nodes) or any(np.shape(d) != shape
                                           for shape, d in zip(shapes, grads)):
            raise ContractError("node pullback must return one gradient per parent, "
                                "each of that parent's shape")
        for n, d in zip(nodes, grads):
            _accum(n, d)

    return _make_node(data, nodes, run)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` as one node; ``b`` is a row vector."""
    nx, nW, nb, x, W = x.node, W.node, b.node, x.data, W.data

    def pullback(g):
        _accum(nb, g.sum(axis=0))
        if nx.requires_grad:
            _accum(nx, g @ W.T, owned=True)
        if nW.requires_grad:
            _accum(nW, x.T @ g, owned=True)

    out = x @ W
    out += b.data
    return _make_node(out, (nx, nW, nb), pullback)


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
    extras = [t for t in (extra_k, extra_v) if t is not None]
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
    m, d_head, kv_shape = k.shape[0] // s, d // n_heads, k.shape

    def split(x):  # (S*rows, d) -> (S, h, rows, d_h)
        return x.reshape(s, -1, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x):  # (S, h, rows, d_h) -> (S*rows, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def with_extra(x, extra):  # (S*m, d) -> (S, m [+ 1], d): row s of extra ends block s
        x = x.reshape(s, m, d)
        return x if extra is None else np.concatenate([x, extra.data[:, None, :]], axis=1)

    extra_k, extra_v = extras or (None, None)
    nodes = tuple(t.node for t in (q, k, v, *extras))
    extra_shape = extra_k.shape if extras else None
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
        # scale * p * (dp - rowsum(dp * p)), in that order, in place
        dp -= (dp * p).sum(axis=3, keepdims=True)
        ds = scale * p
        ds *= dp
        _accum(nodes[0], merge(ds @ kh), owned=True)
        dk = merge(ds.transpose(0, 1, 3, 2) @ qh).reshape(s, -1, d)
        dv = merge(p.transpose(0, 1, 3, 2) @ go).reshape(s, -1, d)
        # disjoint row blocks of two fresh arrays: each parent owns its block
        for n, grad, shape in zip(nodes[1:], (dk[:, :m], dv[:, :m], dk[:, m:], dv[:, m:]),
                                  (kv_shape, kv_shape, extra_shape, extra_shape)):
            _accum(n, grad.reshape(shape), owned=True)

    return _make_node(merge(p @ vh), nodes, pullback)


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` of two operands of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs operands of one shape, got {a.shape} and {b.shape}")
    na, nb = a.node, b.node

    def pullback(g):
        _accum(na, g)
        _accum(nb, g)

    return _make_node(a.data + b.data, (na, nb), pullback)


def relu(a: Tensor) -> Tensor:
    na, mask = a.node, a.data > 0.0

    def pullback(g):
        _accum(na, g * mask, owned=True)

    return _make_node(a.data * mask, (na,), pullback)


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of an array, entry by entry.
    It takes one exp, of -|x|, so no entry overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    na, out_data = a.node, expit(a.data)

    def pullback(g):
        _accum(na, g * out_data * (1.0 - out_data), owned=True)

    return _make_node(out_data, (na,), pullback)


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization of a matrix to zero mean / unit variance (with
    1e-5 added to the variance), then ``* gamma + beta``, both row vectors."""
    if a.ndim != 2 or not gamma.shape == beta.shape == a.shape[1:]:
        raise ShapeError(f"layernorm needs an (n, d) matrix with gamma and beta of shape "
                         f"(d,), got {a.shape}, {gamma.shape} and {beta.shape}")
    # numpy's mean is this sum divided by the count, so the bits are the same
    n = a.shape[1]
    y = a.data - a.data.sum(axis=1, keepdims=True) / n
    s = (y ** 2).sum(axis=1, keepdims=True) / n
    s += _LAYERNORM_EPS
    np.sqrt(s, out=s)
    y /= s
    na, ngamma, nbeta, gamma = a.node, gamma.node, beta.node, gamma.data

    def pullback(g):
        _accum(nbeta, g.sum(axis=0))
        _accum(ngamma, (g * y).sum(axis=0))
        g = g * gamma
        gm = g.sum(axis=1, keepdims=True) / n
        gy = (g * y).sum(axis=1, keepdims=True) / n
        # (g - gm - y * gy) / s
        dx = g - gm
        dx -= y * gy
        dx /= s
        _accum(na, dx, owned=True)

    out_data = y * gamma
    out_data += beta.data
    return _make_node(out_data, (na, ngamma, nbeta), pullback)


def concat_rows(tensors) -> Tensor:
    sizes = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = tuple(t.node for t in tensors)

    def pullback(g):
        for n, i0, i1 in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(n, g[i0:i1])

    return _make_node(np.concatenate([t.data for t in tensors], axis=0), nodes, pullback)


def mean_rows(a: Tensor, segments: int) -> Tensor:
    """Block means of a matrix: its rows are ``segments`` S equal blocks (as
    in ``attention``) and the result is the (S, n_cols) matrix of the
    arithmetic means of the blocks."""
    s = int(segments)
    if a.ndim != 2 or a.shape[0] == 0 or s < 1 or a.shape[0] % s:
        raise ContractError(f"mean_rows needs a matrix of {s} equal non-empty row "
                            f"blocks, got {a.shape}")
    na, shape = a.node, a.shape
    m, cols = shape[0] // s, shape[1]

    def pullback(g):
        ga = np.empty((s, m, cols))
        ga[...] = g.reshape(s, 1, cols) / m
        _accum(na, ga.reshape(shape), owned=True)

    return _make_node(a.data.reshape(s, m, cols).mean(axis=1), (na,), pullback)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Run reverse mode from a scalar loss in one pass over its tape.

    Gradients accumulate into ``.grad``; the caller clears them between steps.
    Nodes leave the tape newest first, and a node's pullback runs when the
    node holds a gradient, which only a node whose pullback ran can give it.
    Each node drops its parents and pullback as soon as it has been visited,
    and backward keeps no reference to it, so its gradient and the arrays its
    pullback saved are freed at once unless the caller still holds its
    tensor, which keeps its ``.data`` and ``.grad``. Backward's memory
    thus never rises above what the forward pass left. The tape ends consumed
    and empty, also when a pullback raises: a second backward without
    rebuilding the forward pass raises ContractError.
    """
    if not isinstance(loss, Tensor) or loss.ndim != 0:
        raise ContractError("backward needs a scalar Tensor loss")
    tape = loss.node._tape
    if tape is None:
        raise ContractError("backward needs a loss that an op recorded on a Tape; this one "
                            "is a leaf, was built under no_grad or depends on no "
                            "requires_grad leaf")
    if tape.consumed:
        raise ContractError("tape already consumed; rebuild the forward pass")
    tape.consumed = True

    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    try:
        while nodes:
            node = nodes[-1]  # it leaves the tape only once it has been cut
            if node.grad is not None:
                node._pullback(node.grad)
            node._parents = ()
            node._pullback = None
            nodes.pop()
            node = None  # the last reference this loop holds
    finally:
        # a pullback raised: the nodes left, the raising one included, point
        # back at the tape and keep their parents alive, so cutting both lets
        # refcounting free the graph even while the caller holds its outputs
        for node in nodes:
            node._parents = ()
            node._pullback = None
        nodes.clear()
