"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D array: scalars are (1, 1), row vectors are (1, n).
Broadcasting is restricted to scalar-with-anything and row-vector-with-matrix;
all other shape mixes raise. The tape is dynamic: each op records a backward
closure, and ``backward`` walks the graph in reverse topological order.
"""
from __future__ import annotations

import contextlib

import numpy as np
import scipy.special


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ParameterError(ValueError):
    """A numeric hyperparameter is out of its valid range."""


class DomainError(ValueError):
    """An input value is outside the op's mathematical domain."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"only 2-D tensors supported, got ndim={arr.ndim}")
        self.data = arr
        self.grad = None
        self._parents = ()
        self._backward = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar shape {self.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise DimensionError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data if data.ndim == 2 else np.reshape(data, (1, -1))
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad or p._parents:
                out._parents = tuple(parents)
                out._backward = backward_fn
                break
    return out


def _accum(t, g):
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = g.astype(np.float64, copy=True)
    else:
        t.grad += g


def _reduce_to(g, shape):
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if shape == (1, 1):
        return g.sum().reshape(1, 1)
    if shape[0] == 1 and shape[1] == g.shape[1]:
        return g.sum(axis=0, keepdims=True)
    raise DimensionError(f"cannot reduce gradient {g.shape} to {shape}")


def _check_broadcast(sa, sb, opname):
    if sa == sb or sa == (1, 1) or sb == (1, 1):
        return
    if sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1):
        return
    raise DimensionError(f"{opname}: incompatible shapes {sa} and {sb}")


def add(a, b):
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "add")
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _reduce_to(g, sa))
        _accum(b, _reduce_to(g, sb))

    return _node(out_data, (a, b), backward)


def sub(a, b):
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "sub")
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _reduce_to(g, sa))
        _accum(b, -_reduce_to(g, sb))

    return _node(out_data, (a, b), backward)


def scale(a, c):
    c = float(c)
    out_data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _node(out_data, (a,), backward)


def hadamard(a, b):
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "hadamard")
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _reduce_to(g * b.data, sa))
        _accum(b, _reduce_to(g * a.data, sb))

    return _node(out_data, (a, b), backward)


def matmul(a, b):
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def transpose(a):
    out_data = a.data.T.copy()

    def backward(g):
        _accum(a, g.T)

    return _node(out_data, (a,), backward)


def relu(a):
    out_data = np.maximum(a.data, 0.0)
    mask = (a.data > 0.0).astype(np.float64)

    def backward(g):
        _accum(a, g * mask)

    return _node(out_data, (a,), backward)


def sigmoid(a):
    out_data = scipy.special.expit(a.data)

    def backward(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def row_softmax(x, temperature=1.0):
    """Softmax over each row of x at the given temperature.

    Rows are shifted by their max before exponentiation, so adding a
    per-row constant leaves the output unchanged.
    """
    temperature = float(temperature)
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    scaled = x.data / temperature
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        _accum(x, out_data * (g - dot) / temperature)

    return _node(out_data, (x,), backward)


def kl_div(p, q):
    """Sum over rows of KL(p_row || q_row), as a (1, 1) tensor.

    Both arguments must be strictly positive with unit row sums.
    """
    if p.shape != q.shape:
        raise DimensionError(f"kl_div: shapes differ, {p.shape} vs {q.shape}")
    if np.any(p.data <= 0.0) or np.any(q.data <= 0.0):
        raise DomainError("kl_div: non-positive entry")
    if (np.abs(p.data.sum(axis=1) - 1.0).max() > 1e-9
            or np.abs(q.data.sum(axis=1) - 1.0).max() > 1e-9):
        raise DomainError("kl_div: rows must sum to 1")
    log_ratio = np.log(p.data) - np.log(q.data)
    out_data = np.array([[float((p.data * log_ratio).sum())]])

    def backward(g):
        go = float(g[0, 0])
        _accum(p, go * (log_ratio + 1.0))
        _accum(q, go * (-p.data / q.data))

    return _node(out_data, (p, q), backward)


def mean_rows(a):
    """Column-wise mean: (m, n) -> (1, n)."""
    m = a.shape[0]
    out_data = a.data.mean(axis=0, keepdims=True)

    def backward(g):
        _accum(a, np.broadcast_to(g / m, a.shape).copy())

    return _node(out_data, (a,), backward)


def sum_all(a):
    out_data = np.array([[float(a.data.sum())]])

    def backward(g):
        _accum(a, np.full(a.shape, float(g[0, 0])))

    return _node(out_data, (a,), backward)


def concat_cols(parts):
    parts = list(parts)
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise DimensionError("concat_cols: row counts differ")
    out_data = np.concatenate([p.data for p in parts], axis=1)
    widths = [p.shape[1] for p in parts]

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[:, off:off + w])
            off += w

    return _node(out_data, tuple(parts), backward)


def slice_cols(a, start, stop):
    if not (0 <= start < stop <= a.shape[1]):
        raise DimensionError(f"slice_cols: [{start}:{stop}] out of range for {a.shape}")
    out_data = a.data[:, start:stop].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        _accum(a, full)

    return _node(out_data, (a,), backward)


def sym0(a):
    """(M + M^T)/2 with the diagonal zeroed; requires a square input."""
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"sym0: square matrix required, got {a.shape}")
    out_data = 0.5 * (a.data + a.data.T)
    np.fill_diagonal(out_data, 0.0)

    def backward(g):
        gg = 0.5 * (g + g.T)
        gg = gg.copy()
        np.fill_diagonal(gg, 0.0)
        _accum(a, gg)

    return _node(out_data, (a,), backward)


def bce_with_logits(logit, y):
    """Binary cross-entropy of sigmoid(logit) against label y, numerically stable."""
    if logit.data.size != 1:
        raise DimensionError(f"bce_with_logits: scalar logit required, got {logit.shape}")
    y = float(y)
    if y not in (0.0, 1.0):
        raise DomainError(f"label must be 0 or 1, got {y}")
    l = float(logit.data[0, 0])
    out_data = np.array([[max(l, 0.0) - y * l + np.log1p(np.exp(-abs(l)))]])

    def backward(g):
        s = 1.0 / (1.0 + np.exp(-l))
        _accum(logit, g * (s - y))

    return _node(out_data, (logit,), backward)
