"""Minimal dense-array engine with reverse-mode differentiation.

All data is float64. A Tensor records the primitive application that
produced it (parents + vector-Jacobian closure); backward() replays the
graph once in reverse topological order. Code calls the primitives by
name (`add`, `mul`, `linear`, ...); the one operator a Tensor defines is
indexing, `t[...]`, which records a `getitem` node. Only the primitives
the forecasting model needs are provided, plus `grad_check` and `tsum`,
the unscaled sum that gradient checks reduce an output with. `tsum` and
`tmean` reduce over every entry. `dropout` is the one random primitive:
it runs exactly when it is handed an rng, so training passes its
generator and inference passes none.
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


class Tensor:
    """n-dimensional float64 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate adjoints into .grad of every reachable requires_grad leaf.

        Each node is visited exactly once, in reverse topological order.
        """
        if seed is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() without seed needs a scalar output, got shape {self.data.shape}"
                )
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=np.float64).reshape(self.data.shape)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # An owned array, since a VJP may hand one array to
                    # several parents. 0.0 + g, not a copy: a sum stores
                    # -0.0 as +0.0, so an adjoint's bits do not depend on
                    # whether a contribution arrived first.
                    parent.grad = np.add(0.0, g, out=np.empty_like(parent.data))
                else:
                    parent.grad += g

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Build a graph node; prunes recording when grad is off or unneeded."""
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._vjp = vjp
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
    return make_node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return make_node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return make_node(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return make_node(out, (a, b), vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    return make_node(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return make_node(a.data.mean(), (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


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
    basic = _is_basic_index(idx)

    def vjp(g):
        ga = np.zeros_like(a.data)
        if basic:
            ga[idx] = g
        else:  # advanced indices may repeat an entry: accumulate
            np.add.at(ga, idx, g)
        return (ga,)

    return make_node(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return make_node(out, (a,), lambda g: (g.reshape(a.shape),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape).copy()
    return make_node(out, (a,), lambda g: (_unbroadcast(g, a.shape),))


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

    def vjp(g):
        return (g.reshape(*a.shape[:-1], a.shape[-1], reps).sum(axis=-1),)

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
    out = base.data ** e

    def vjp(g):
        # d(base**e)/dbase = e * base**(e-1); e=0 rows contribute zero.
        d = np.where(e > 0, e * base.data ** np.maximum(e - 1.0, 0.0), 0.0)
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
    out = np.zeros(x.shape[:-1] + (d,))
    for dt in range(k):
        out += xp[..., dt : dt + L, :] @ kernel.data[dt]

    def vjp(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernel.data)
        for dt in range(k):
            seg = xp[..., dt : dt + L, :]
            gxp[..., dt : dt + L, :] += g @ kernel.data[dt].T
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
    out = np.multiply(xhat, gamma.data, out=sq)
    out += beta.data

    def vjp(g):
        dxhat = g * gamma.data
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
    # (r >= p) / (1 - p), built in the buffer of the uniform draws r
    keep = rng.random(x.shape)
    np.greater_equal(keep, p, out=keep)
    np.divide(keep, 1.0 - p, out=keep)
    return make_node(x.data * keep, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode adjoints and central differences.

    f must map x to a scalar Tensor. Error per coordinate is
    |adjoint - fd| / max(1, |fd|).
    """
    x = as_tensor(x)
    x.requires_grad = True
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
