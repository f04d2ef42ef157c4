"""Minimal dense-tensor kernel with reverse-mode gradients.

Every value is a float64 numpy array wrapped in a `Tensor`. Each
operation computes its forward value eagerly and records an analytic
backward closure; `Tensor.backward()` replays the closures in reverse
topological order. The op set is small and fixed -- exactly what the
correlation model needs -- and the tests check every differentiable op
against central finite differences (`tests/gradient_oracles.py`).

The graph lives only as long as a gradient needs it. Inside `no_grad()`
no op records its parents or its closure, so a forward-only pass (as in
`model.evaluate`) builds no graph and each intermediate is freed as soon
as nothing refers to it. `backward()` frees the graph as it goes: once a
node's closure has run, the node drops the closure, its parents and its
gradient. Leaves keep `.grad` for the optimizer. A second `backward()`
through a freed graph raises ValueError. Neither change alters a value.

Non-differentiable arguments (masks, index arrays, group lists) are
plain numpy arrays, never Tensors.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np


_LN_EPS = 1e-12
_COS_EPS = 1e-8
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
# OpenBLAS's small-matrix dgemm path takes a product only when M*K*N <= 1e6;
# a larger forward product runs as a stack of row blocks that each fit it.
_SMALL_GEMM_MAX = 10**6
_BLOCK_ROWS = 256


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within the block, new tensors record no parents and no closure.

    They are leaves: values are computed as usual, but no gradient flows
    back through them. The previous setting returns on exit, also when
    the block raises, so blocks nest.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A float64 array plus the backward closure that produced it.

    A leaf has no closure and `_parents == ()`. A node whose graph
    `backward()` has freed has no closure and `_parents is None`.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _grad_enabled:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def backward(self, grad=None):
        """Accumulate gradients of this tensor into every reachable leaf.

        Frees the graph on the way: each node that is not a leaf drops its
        closure, parents and gradient once its closure has run. Raises
        ValueError, touching no gradient, if the graph was freed before.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit grad needs a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise ValueError("backward() through a graph that an earlier backward() freed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = grad if self.grad is None else self.grad + grad
        while topo:  # reverse topological order; popping drops the list's reference
            node = topo.pop()
            closure, g = node._backward, node.grad
            if closure is None:
                continue  # a leaf keeps its gradient
            parents = node._parents
            node._backward = node._parents = node.grad = None
            if g is None:
                continue
            for parent, pg in zip(parents, closure(g)):
                if pg is None:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg


class Parameter(Tensor):
    """A named leaf tensor whose gradient an optimizer consumes."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


class ParameterGroup:
    """Base of the parameter dataclasses.

    `parameters()` walks the fields in declaration order: a Parameter is
    taken as is, a group or a list of groups contributes its own
    parameters, and any other field (a size, a head count) is skipped.
    """

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Parameter):
                    out.append(item)
                elif isinstance(item, ParameterGroup):
                    out += item.parameters()
        return out


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` back down to `shape` (the inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or of two stacks of matrices with
    identical leading axes."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return Tensor(
        _forward_product(a.data, b.data),
        (a, b),
        lambda g: (np.matmul(g, b.data.swapaxes(-1, -2)), np.matmul(a.data.swapaxes(-1, -2), g)),
    )


def _forward_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.matmul(a, b)`, byte for byte, for operands with identical leading axes.

    A product too big for BLAS's small-matrix path runs as one stacked
    call over whole blocks of `_BLOCK_ROWS` rows plus one call for the
    rest: at (6144, 32) @ (32, 32) that is 1.7x faster. It does so only
    where each output element is then summed in the same order as
    before: more than one block of rows, a C-contiguous right operand, a
    column count that is a multiple of 8 (the small kernel's column tails
    sum in another order), and never a single leftover row (BLAS hands a
    one-row product to gemv). `tests/test_bit_identity.py` pins the bytes.
    """
    m, k = a.shape[-2:]
    n = b.shape[-1]
    whole = m - m % _BLOCK_ROWS
    if m - whole == 1:
        whole -= _BLOCK_ROWS
    if m * k * n <= _SMALL_GEMM_MAX or whole == 0 or n % 8 or not b.flags.c_contiguous:
        return np.matmul(a, b)
    lead = a.shape[:-2]
    blocks = whole // _BLOCK_ROWS
    out = np.empty(lead + (m, n))
    np.matmul(
        a[..., :whole, :].reshape(lead + (blocks, _BLOCK_ROWS, k)),
        b[..., None, :, :],
        out=out[..., :whole, :].reshape(lead + (blocks, _BLOCK_ROWS, n)),
    )
    if whole < m:
        np.matmul(a[..., whole:, :], b, out=out[..., whole:, :])
    return out


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Binary einsum with gradients obtained by swapping subscripts.

    Valid for plain contractions and reductions (no repeated labels
    inside one operand), which covers every use in this package.
    """
    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    data = np.einsum(subscripts, a.data, b.data)

    def backward(g):
        ga = np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b.data)
        gb = np.einsum(f"{a_sub},{out_sub}->{b_sub}", a.data, g)
        return ga, gb

    return Tensor(data, (a, b), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis`; the backward splits the gradient back up."""
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def swap_axes(t: Tensor, a: int, b: int) -> Tensor:
    return Tensor(t.data.swapaxes(a, b), (t,), lambda g: (g.swapaxes(a, b),))


def sum_axis(t: Tensor, axis: int) -> Tensor:
    """Sum along `axis`, which stays as an axis of length 1."""
    return Tensor(t.data.sum(axis=axis, keepdims=True), (t,), lambda g: (np.broadcast_to(g, t.data.shape).copy(),))


def reshape(t: Tensor, shape) -> Tensor:
    old = t.data.shape
    return Tensor(t.data.reshape(shape), (t,), lambda g: (g.reshape(old),))


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries starting at `start` along `axis`."""
    idx = [slice(None)] * t.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        z = np.zeros_like(t.data)
        z[idx] = g
        return (z,)

    return Tensor(t.data[idx], (t,), backward)


def take_rows(t: Tensor, indices) -> Tensor:
    """Gather rows (duplicates allowed); the backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        z = np.zeros_like(t.data)
        np.add.at(z, idx, g)
        return (z,)

    return Tensor(t.data[idx], (t,), backward)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def elu(t: Tensor) -> Tensor:
    # Branch-free: expm1 sees min(x, 0), so it cannot overflow, and at most
    # one of the two terms is nonzero. Their sum can lose the sign of a zero
    # (-0.0 + 0.0 is +0.0); elu keeps the sign of x, so copysign restores it.
    data = np.minimum(t.data, 0.0)
    np.expm1(data, out=data)
    data += np.maximum(t.data, 0.0)
    np.copysign(data, t.data, out=data)

    def backward(g):
        # exp(x) = elu(x) + 1 on the negative branch, and 1 elsewhere.
        d = np.minimum(data, 0.0)
        d += 1.0
        return (g * d,)

    return Tensor(data, (t,), backward)


def elu_plus_one(t: Tensor) -> Tensor:
    """phi(x) = elu(x) + 1: strictly positive, equals exp(x) for x <= 0."""
    # Branch-free: exp(min(x, 0)) + max(x, 0) is exp(x) for x <= 0 and 1 + x above.
    data = np.minimum(t.data, 0.0)
    np.exp(data, out=data)
    data += np.maximum(t.data, 0.0)

    def backward(g):
        # exp(x) <= 1 on the negative branch, x + 1 >= 1 elsewhere.
        return (g * np.minimum(data, 1.0),)

    return Tensor(data, (t,), backward)


def clamp_min(t: Tensor, floor: float) -> Tensor:
    keep = t.data >= floor
    return Tensor(np.maximum(t.data, floor), (t,), lambda g: (g * keep,))


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = t.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"gain/bias must have shape ({d},)")
    # Row means are np.add.reduce(...) / d, exactly what `.mean` computes.
    mu = np.add.reduce(t.data, axis=-1, keepdims=True)
    mu /= d
    y = t.data - mu
    var = np.add.reduce(y * y, axis=-1, keepdims=True)
    var /= d
    var += _LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    y *= inv
    out = y * gain.data
    out += bias.data
    lead = tuple(range(t.ndim - 1))

    def backward(g):
        h = g * gain.data
        hy = h * y
        h_mean = np.add.reduce(h, axis=-1, keepdims=True)
        h_mean /= d
        hy_mean = np.add.reduce(hy, axis=-1, keepdims=True)
        hy_mean /= d
        h -= h_mean
        h -= np.multiply(y, hy_mean, out=hy)
        h *= inv
        return h, (g * y).sum(axis=lead), g.sum(axis=lead)

    return Tensor(out, (t, gain, bias), backward)


# ---------------------------------------------------------------------------
# affine layers
# ---------------------------------------------------------------------------

def affine(t: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b applied to the last axis, any number of leading axes.

    One op: the leading axes are flattened, the product takes the row
    blocks of `matmul`, and the bias is added in place.
    """
    k, n = w.shape
    if t.shape[-1] != k or b.shape != (n,):
        raise ValueError(f"affine shape mismatch: {t.shape} @ {w.shape} + {b.shape}")
    shape = t.shape
    x = t.data.reshape(-1, k)
    out = _forward_product(x, w.data)
    out += b.data

    def backward(g):
        g = g.reshape(-1, n)
        return np.matmul(g, w.data.T).reshape(shape), np.matmul(x.T, g), g.sum(axis=0)

    return Tensor(out.reshape(shape[:-1] + (n,)), (t, w, b), backward)


def mlp_forward(t: Tensor, params) -> Tensor:
    """Two affine layers with an ELU in between, applied to the last axis.

    `params` is anything with w1, b1, w2, b2 attributes.
    """
    return affine(elu(affine(t, params.w1, params.b1)), params.w2, params.b2)


# ---------------------------------------------------------------------------
# similarity, pooling, loss
# ---------------------------------------------------------------------------

def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of a (N x D) and b (M x D).

    Row norms are floored at 1e-8, so an all-zero row compares as 0 to
    everything instead of producing NaNs.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_rows needs (N,D) and (M,D), got {a.shape} and {b.shape}")
    # What np.linalg.norm(x, axis=1) computes, without its dispatch.
    na = np.sqrt(np.add.reduce(a.data * a.data, axis=1))
    nb = np.sqrt(np.add.reduce(b.data * b.data, axis=1))
    ca = np.maximum(na, _COS_EPS)
    cb = np.maximum(nb, _COS_EPS)
    out = (a.data @ b.data.T) / ca[:, None] / cb[None, :]

    def backward(g):
        gs = g / ca[:, None] / cb[None, :]
        # The norm term is active only above the floor, where ca == ||a_i||.
        wa = np.where(na > _COS_EPS, (g * out).sum(axis=1) / (ca * ca), 0.0)
        wb = np.where(nb > _COS_EPS, (g * out).sum(axis=0) / (cb * cb), 0.0)
        ga = gs @ b.data - wa[:, None] * a.data
        gb = gs.T @ a.data - wb[:, None] * b.data
        return ga, gb

    return Tensor(out, (a, b), backward)


def max_pool_rows(t: Tensor) -> Tensor:
    """Row-wise max of an N x M matrix, returned as a length-N vector."""
    if t.ndim != 2:
        raise ValueError(f"max_pool_rows needs a 2-D tensor, got shape {t.shape}")
    arg = t.data.argmax(axis=1)
    rows = np.arange(t.shape[0])

    def backward(g):
        z = np.zeros_like(t.data)
        z[rows, arg] = g
        return (z,)

    return Tensor(t.data[rows, arg], (t,), backward)


def group_mean_rows(t: Tensor, groups) -> Tensor:
    """Mean feature of each row group: (len(groups)) x D."""
    if t.ndim != 2:
        raise ValueError(f"group_mean_rows needs a 2-D tensor, got shape {t.shape}")
    groups = [np.asarray(g, dtype=np.int64) for g in groups]
    if any(g.size == 0 for g in groups):
        raise ValueError("groups must be nonempty")
    data = np.stack([t.data[g].mean(axis=0) for g in groups])

    def backward(g):
        z = np.zeros_like(t.data)
        for i, members in enumerate(groups):
            z[members] += g[i] / members.size
        return (z,)

    return Tensor(data, (t,), backward)


def softmax_rows(t: Tensor) -> Tensor:
    """Softmax over the last axis (max-shifted for stability)."""
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return Tensor(y, (t,), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of N x C logits against N integer labels."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError(f"cross_entropy needs (N,C) logits and (N,) targets, got {logits.shape} and {targets.shape}")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("targets out of range for the logit columns")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), targets]

    def backward(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        return (g * p / n,)

    return Tensor(np.float64(nll.mean()), (logits,), backward)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class NonFiniteGradientError(ArithmeticError):
    """A gradient handed to the optimizer holds a NaN or an infinity."""


class AdamW:
    """AdamW with decoupled weight decay (decay applies even at zero gradient),
    betas (0.9, 0.999) and eps 1e-8.

    Parameters and both moments live in flat buffers, one slice per
    parameter, so a step is a few whole-buffer numpy calls. Each
    parameter's `data` becomes a view into the parameter buffer: rebind
    `p.data` after construction and the optimizer no longer sees it.
    """

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("AdamW needs distinct parameters")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._flat = np.concatenate([p.data.reshape(-1) for p in self.params] or [np.empty(0)])
        self._slices = []
        start = 0
        for p in self.params:
            stop = start + p.data.size
            self._slices.append(slice(start, stop))
            p.data = self._flat[start:stop].reshape(p.data.shape)
            start = stop
        self._grad = np.empty_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update; raises NonFiniteGradientError, touching nothing, on a
        NaN or infinite gradient."""
        g = self._grad
        for p, sl in zip(self.params, self._slices):
            g[sl] = 0.0 if p.grad is None else p.grad.reshape(-1)
        if not np.isfinite(g).all():
            bad = next(p for p, sl in zip(self.params, self._slices) if not np.isfinite(g[sl]).all())
            raise NonFiniteGradientError(f"gradient of {bad.name} is not finite")
        self.step_count += 1
        b1, b2 = _ADAM_BETAS
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        g2 = (1 - b2) * g
        g2 *= g
        v += g2
        mhat = m / (1 - b1 ** self.step_count)
        vhat = np.divide(v, 1 - b2 ** self.step_count, out=g2)
        np.sqrt(vhat, out=vhat)
        vhat += _ADAM_EPS
        mhat *= self.lr
        mhat /= vhat
        self._flat *= 1.0 - self.lr * self.weight_decay
        self._flat -= mhat
