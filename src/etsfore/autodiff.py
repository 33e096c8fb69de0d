"""Minimal dense-array engine with reverse-mode differentiation.

All data is float64. A Tensor holds its value, `data`; a Tensor that
takes part in differentiation also holds a small graph record (`_Node`):
its shape, its adjoint and, when a primitive application produced it, the
parents' records and the vector-Jacobian closure. A record never holds a
value, and each VJP closes over only the arrays and shapes it reads, so a
value that no VJP reads is freed as soon as the caller drops its Tensor,
before backward. backward() runs the graph once in reverse topological
order and consumes it: each record drops its closure and parents as its
VJP runs, so a graph's activations are freed during backward, and a
second backward through it raises EvaluationError. A Tensor computed
outside any graph (under `no_grad`, or from constants only) carries no
record at all. Code calls the primitives by name (`add`, `mul`,
`linear`, ...); the one operator a Tensor defines is indexing, `t[...]`,
which records a `getitem` node. Only the primitives the forecasting
model needs are provided, plus `grad_check` and `tsum`, the unscaled sum
that gradient checks reduce an output with. `tsum` and `tmean` reduce
over every entry. `dropout` is the one random primitive: it runs exactly
when it is handed an rng, so training passes its generator and inference
passes none.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, ConfigError, EvaluationError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """Graph record of one Tensor that requires grad; holds no value.

    `parents` holds one entry per operand of the primitive, the operand's
    record or None for an operand outside the graph; a leaf has none and
    no `vjp`.
    """

    __slots__ = ("shape", "parents", "vjp", "grad", "__weakref__")

    def __init__(self, shape: tuple[int, ...], parents: tuple = (), vjp=None):
        self.shape = shape
        self.parents = parents
        self.vjp = vjp
        self.grad: np.ndarray | None = None


class Tensor:
    """n-dimensional float64 array participating in reverse-mode differentiation.

    `requires_grad`, `grad` and `_vjp` read the graph record, which only a
    Tensor that requires grad has.
    """

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node: _Node | None = _Node(self.data.shape) if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is None:
            raise EvaluationError("grad set on a Tensor that does not require grad")
        self._node.grad = g

    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._node.vjp = vjp

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate adjoints into .grad of every reachable requires_grad leaf.

        Each node is visited exactly once, in reverse topological order.
        Backward consumes the graph: as each node's VJP runs, the node lets
        go of its closure and its parents, so the activations and adjoints
        they hold are freed once nothing downstream needs them. A second
        backward that reaches a consumed node raises EvaluationError before
        any VJP runs. On a Tensor outside any graph it does nothing.
        """
        if seed is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() without seed needs a scalar output, got shape {self.data.shape}"
                )
            seed = np.ones_like(self.data)
        root = self._node
        if root is None:
            return
        order: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node.vjp is _consumed_vjp:
                raise EvaluationError("graph already consumed by backward")
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
        root.grad = np.asarray(seed, dtype=np.float64).reshape(root.shape)
        while order:
            node = order.pop()
            vjp, parents = node.vjp, node.parents
            if vjp is None:
                continue
            node.vjp, node.parents = _consumed_vjp, ()
            if node.grad is None:
                continue
            for parent, g in zip(parents, vjp(node.grad)):
                if g is None or parent is None:
                    continue
                if parent.grad is None:
                    # An owned array, since a VJP may hand one array to
                    # several parents. 0.0 + g, not a copy: a sum stores
                    # -0.0 as +0.0, so an adjoint's bits do not depend on
                    # whether a contribution arrived first.
                    parent.grad = np.add(0.0, g, out=np.empty(parent.shape))
                else:
                    parent.grad += g

    def __getitem__(self, idx):
        return getitem(self, idx)


def _consumed_vjp(g):
    """Marks a node whose graph a backward has released."""
    raise EvaluationError("graph already consumed by backward")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap a primitive's output; records it only when grad is on and needed.

    vjp maps the output's adjoint to one adjoint (or None) per parent. It
    must close over the arrays and shapes it reads, never over a Tensor,
    so that the graph keeps no value alive that backward does not need.
    """
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(n is not None for n in nodes):
            out._node = _Node(out.data.shape, nodes, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _add_node(a.data + b.data, a, b)


def _add_node(out: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Record out = a + b; the VJP reads only the operands' shapes."""
    sa, sb = a.shape, b.shape
    return make_node(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return make_node(
        a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.data, b.data
    return make_node(
        av * bv,
        (a, b),
        lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    av, bv = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
        gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
        return ga, gb

    return make_node(av @ bv, (a, b), vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    return make_node(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def tmean(a) -> Tensor:
    a = as_tensor(a)
    shape, n = a.shape, a.data.size
    return make_node(a.data.mean(), (a,), lambda g: (np.broadcast_to(g / n, shape).copy(),))


def sigmoid(a) -> Tensor:
    """Elementwise 1/(1+exp(-x)), evaluated in the overflow-free branch."""
    a = as_tensor(a)
    x = a.data
    # one exp and one division: where(x >= 0, 1, z) / (1 + z), z = exp(-|x|)
    z = np.abs(x, out=np.empty_like(x))  # out= keeps 0-d input an array
    np.negative(z, out=z)
    np.exp(z, out=z)
    den = 1.0 + z
    # z lies in [0, 1] (or is NaN, which maximum keeps), so max(z, x >= 0)
    # is 1 where x >= 0 (-0.0 included) and z elsewhere
    np.maximum(z, x >= 0, out=z)
    out = np.divide(z, den, out=z)

    def vjp(g):
        gx = g * out
        gx *= 1.0 - out  # the order of g * out * (1 - out), so the bits match
        return (gx,)

    return make_node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops


def _is_basic_index(idx) -> bool:
    """True for slices, ints, Ellipsis and None, which never repeat an entry."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is Ellipsis or p is None or isinstance(p, slice)
        or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
        for p in parts
    )


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    out = a.data[idx]
    shape, basic = a.shape, _is_basic_index(idx)

    def vjp(g):
        ga = np.zeros(shape)
        if basic:
            ga[idx] = g
        else:  # advanced indices may repeat an entry: accumulate
            np.add.at(ga, idx, g)
        return (ga,)

    return make_node(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    return make_node(a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    out = np.broadcast_to(a.data, shape).copy()
    return make_node(out, (a,), lambda g: (_unbroadcast(g, in_shape),))


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_node(out, ts, vjp)


def cumsum(a, axis: int) -> Tensor:
    a = as_tensor(a)
    out = np.cumsum(a.data, axis=axis)

    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),)

    return make_node(out, (a,), vjp)


def repeat_channels(a, reps: int) -> Tensor:
    """Repeat each entry of the last axis `reps` times (head -> channel fan-out)."""
    a = as_tensor(a)
    out = np.repeat(a.data, reps, axis=-1)
    shape = a.shape

    def vjp(g):
        return (g.reshape(*shape, reps).sum(axis=-1),)

    return make_node(out, (a,), vjp)


def pow_outer(base, exponents) -> Tensor:
    """out[t, ...] = base[...] ** exponents[t] for a constant integer vector.

    base must be elementwise positive; exponents are nonnegative integers.
    """
    base = as_tensor(base)
    exps = np.asarray(exponents, dtype=np.float64)
    if exps.ndim != 1:
        raise DimensionError(f"exponents must be a vector, got shape {exps.shape}")
    e = exps.reshape((-1,) + (1,) * base.ndim)
    bd = base.data
    out = bd ** e

    def vjp(g):
        # d(base**e)/dbase = e * base**(e-1); e=0 rows contribute zero.
        d = np.where(e > 0, e * bd ** np.maximum(e - 1.0, 0.0), 0.0)
        return ((g * d).sum(axis=0),)

    return make_node(out, (base,), vjp)


# ---------------------------------------------------------------------------
# neural-network primitives


def linear(x, W, b=None) -> Tensor:
    """y = x @ W (+ b) along the trailing axis."""
    x, W = as_tensor(x), as_tensor(W)
    if x.ndim < 2 or W.ndim != 2 or x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: input {x.shape} does not match weight {W.shape}")
    y = matmul(x, W)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (W.shape[-1],):
            raise DimensionError(f"linear: bias shape {b.shape} does not match weight {W.shape}")
        # matmul's output is a fresh array that no VJP reads: add in place
        y = _add_node(np.add(y.data, b.data, out=y.data), y, b)
    return y


def conv1d_temporal(x, kernel) -> Tensor:
    """Cross-correlation along the time axis with length-preserving zero padding.

    x: (..., L, m), kernel: (k, m, d) with k odd -> (..., L, d).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    k, m, d = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d_temporal needs an odd kernel size, got {k}")
    if x.shape[-1] != m:
        raise DimensionError(f"conv1d_temporal: input {x.shape} vs kernel {kernel.shape}")
    L = x.shape[-2]
    half = (k - 1) // 2
    pad = [(0, 0)] * (x.ndim - 2) + [(half, half), (0, 0)]
    xp = np.pad(x.data, pad)
    kd = kernel.data
    out = np.zeros(x.shape[:-1] + (d,))
    for dt in range(k):
        out += xp[..., dt : dt + L, :] @ kd[dt]

    def vjp(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kd)
        for dt in range(k):
            seg = xp[..., dt : dt + L, :]
            gxp[..., dt : dt + L, :] += g @ kd[dt].T
            gk[dt] = np.tensordot(seg, g, axes=(tuple(range(seg.ndim - 1)),) * 2)
        gx = gxp[..., half : half + L, :] if half else gxp
        return gx, gk

    return make_node(out, (x, kernel), vjp)


_LAYER_NORM_EPS = 1e-5


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if d == 0:
        raise DimensionError("layer_norm over an empty trailing axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must both be ({d},)"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    xm = x.data - mean
    sq = xm * xm
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    # (x - mean) * inv * gamma + beta, reusing the two full-size buffers
    xhat = np.multiply(xm, inv, out=xm)
    gd = gamma.data
    out = np.multiply(xhat, gd, out=sq)
    out += beta.data

    def vjp(g):
        dxhat = g * gd
        # standard layer-norm backward; the mean(xm)=0 identity keeps it short
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return make_node(out, (x, gamma, beta), vjp)


def dropout(x, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Zero entries with probability p and rescale survivors; without an rng, x itself."""
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    # The graph keeps the one-byte mask r >= p; the float scale
    # (r >= p) / (1 - p) and then the output reuse the buffer of the draws r.
    shape = x.shape
    r = rng.random(shape)
    mask = r >= p
    out = np.divide(mask, 1.0 - p, out=r)
    np.multiply(x.data, out, out=out)

    def vjp(g):
        gx = np.divide(mask, 1.0 - p, out=np.empty(shape))
        return (np.multiply(g, gx, out=gx),)

    return make_node(out, (x,), vjp)


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode adjoints and central differences.

    f must map x to a scalar Tensor. Error per coordinate is
    |adjoint - fd| / max(1, |fd|).
    """
    x = as_tensor(x)
    if x._node is None:
        x._node = _Node(x.shape)
    x.zero_grad()
    out = f(x)
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check: function value is not finite")
    out.backward()
    adj = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    worst = 0.0
    for i in range(x.data.size):
        orig = x.data.flat[i]
        x.data.flat[i] = orig + eps
        with no_grad():
            fp = float(f(x).data)
        x.data.flat[i] = orig - eps
        with no_grad():
            fm = float(f(x).data)
        x.data.flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError("grad_check: perturbed function value is not finite")
        fd = (fp - fm) / (2.0 * eps)
        err = abs(adj.flat[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst
