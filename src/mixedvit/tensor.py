"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` records every differentiable operation performed while it is
active (define-by-run); ``backward`` replays it in reverse and returns the
gradient of every leaf that was reached. The ops are exactly those the
two-branch model and its loss use; ``add`` broadcasts as numpy does, and
``nll`` is the training loss.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "add",
    "matmul",
    "attention",
    "softmax",
    "layer_norm",
    "gelu",
    "dropout",
    "concat",
    "reshape",
    "narrow",
    "nll",
    "backward",
    "grad_check",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A float64 n-d array, optionally tracked for gradients.

    ``grad`` is populated on leaves (requires_grad=True) by ``backward``.
    ``node_id``/``tape`` are set on op outputs recorded on an active tape.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None
        self.tape: Optional["Tape"] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "parents", "backward_fn")

    def __init__(self, op: str, parents: tuple, backward_fn: Callable):
        self.op = op
        self.parents = parents  # node ids (None for non-grad inputs)
        self.backward_fn = backward_fn  # upstream grad -> per-parent grads


_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class Tape:
    """Ordered op record for one forward pass. Parents precede children.

    An op's backward closure captures arrays and shapes only, never a
    ``Tensor``: an op output points to its tape through ``.tape``, so a
    captured output would make the tape a reference cycle that only the
    cyclic garbage collector frees. Kept acyclic, a tape and every
    activation it saved are freed as soon as the last output referring to
    it is dropped.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaf_ids: dict[int, int] = {}  # id(tensor) -> node id
        self._leaves: dict[int, Tensor] = {}  # node id -> leaf tensor

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()

    def _leaf_node(self, t: Tensor) -> int:
        nid = self._leaf_ids.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(_Node("leaf", (), lambda g: ()))
            self._leaf_ids[id(t)] = nid
            self._leaves[nid] = t
        return nid


def _active_tape() -> Optional[Tape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn: Callable) -> Tensor:
    """Wrap an op result, registering it on the active tape when needed."""
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is None or not out.requires_grad:
        return out
    parents = []
    for t in inputs:
        if not t.requires_grad:
            parents.append(None)
        elif t.tape is tape and t.node_id is not None:
            parents.append(t.node_id)
        else:
            parents.append(tape._leaf_node(t))
    nid = len(tape.nodes)
    tape.nodes.append(_Node(op, tuple(parents), backward_fn))
    out.node_id = nid
    out.tape = tape
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(
            f"cannot broadcast shapes {a.shape} and {b.shape}") from exc
    a_shape, b_shape = a.shape, b.shape

    def back(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record("add", (a, b), out, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m,k)@(k,n) or batched (B,m,k)@(k,n).

    The backward skips the gradient of an operand without requires_grad,
    and folds the batch axis into one GEMM for the weight gradient.
    """
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects rank-2..3 @ rank-2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def back(g):
        ga = g @ bd.T if a_grad else None
        gb = (ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
              if b_grad else None)
        return ga, gb

    return _record("matmul", (a, b), out, back)


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", (x,), out, back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Last-axis normalization (population variance) followed by affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match last axis of {x.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    gd = gamma.data
    out = gd * xhat + beta.data

    def back(g):
        gg = g * gd
        dx = inv_std * (gg - gg.mean(axis=-1, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return dx, dgamma, dbeta

    return _record("layer_norm", (x, gamma, beta), out, back)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact standard-normal CDF."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = xd * cdf

    def back(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return _record("gelu", (x,), out, back)


def _dropout_keep(shape: tuple, rate: float, training: bool,
                  rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """Inverted-dropout multiplier (0 or 1/(1-rate)), or None when off."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    draw = rng.random(shape)
    return np.multiply(draw >= rate, 1.0 / (1.0 - rate), out=draw)


def dropout(x: Tensor, rate: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); inference is identity."""
    keep = _dropout_keep(x.shape, rate, training, rng)
    if keep is None:
        return x
    out = x.data * keep

    def back(g):
        return (g * keep,)

    return _record("dropout", (x,), out, back)


def attention(qkv: Tensor, heads: int, rate: float, training: bool,
              rng: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head self-attention: packed q|k|v (B,M,3d) -> context (B,M,d).

    Per head, softmax(q k^T / sqrt(d/heads)) weights, inverted dropout on
    the weights (one ``rng.random((B*heads, M, M))`` draw), times v; the
    heads are merged back along the last axis.
    """
    if qkv.data.ndim != 3 or heads < 1 or qkv.shape[2] % (3 * heads):
        raise ShapeError(
            f"attention expects (B, M, 3*d) with d divisible by {heads} "
            f"heads, got {qkv.shape}")
    B, M, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # Each of q, k, v is a (B, heads, M, dh) view into qkv.
    q, k, v = qkv.data.reshape(B, M, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    probs = q @ k.transpose(0, 1, 3, 2)
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _dropout_keep((B * heads, M, M), rate, training, rng)
    if keep is not None:
        keep = keep.reshape(B, heads, M, M)
        weights = probs * keep
    else:
        weights = probs
    out = (weights @ v).transpose(0, 2, 1, 3).reshape(B, M, d)

    def back(g):
        g = g.reshape(B, M, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((B, M, 3, heads, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        gv[...] = weights.transpose(0, 1, 3, 2) @ g
        gs = g @ v.transpose(0, 1, 3, 2)
        if keep is not None:
            gs *= keep
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        gq[...] = gs @ k
        gk[...] = gs.transpose(0, 1, 3, 2) @ q
        return (gqkv.reshape(B, M, d3),)

    return _record("attention", (qkv,), out, back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    first = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(first) or any(
                t.shape[i] != first[i] for i in range(len(first)) if i != axis % len(first)):
            raise ShapeError(
                f"concat shapes incompatible on axis {axis}: "
                f"{[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record("concat", tuple(tensors), out, back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    old = x.shape
    out = x.data.reshape(tuple(shape))

    def back(g):
        return (g.reshape(old),)

    return _record("reshape", (x,), out, back)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ShapeError(
            f"narrow [{start}, {start + length}) outside axis {axis} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = x.data[index]
    full_shape = x.shape

    def back(g):
        buf = np.zeros(full_shape)
        buf[index] = g
        return (buf,)

    return _record("narrow", (x,), out, back)


def nll(probs: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under the rows of
    a (B, C) probability tensor: -(1/B) * sum_i log p[i, y_i], as a
    one-element tensor. There is no floor: a label of probability 0 gives
    +inf."""
    labels = np.asarray(labels)
    if probs.data.ndim != 2 or labels.shape != probs.shape[:1] or not labels.size:
        raise ShapeError(
            f"nll expects (B, C) probabilities and B >= 1 labels, got "
            f"{probs.shape} and {labels.shape}")
    if labels.dtype.kind not in "iu" or not (
            0 <= labels.min() and labels.max() < probs.shape[1]):
        raise ValueError(
            f"nll labels must be integers in [0, {probs.shape[1]}), got {labels}")
    rows = np.arange(len(labels))
    p_y = probs.data[rows, labels]
    scale = -1.0 / len(labels)
    # Summed over the whole (B, C) array, zeros included, so the sum adds
    # in the order that a one-hot mask times log p would.
    picked = np.zeros(probs.shape)
    picked[rows, labels] = np.log(p_y)
    out = picked.sum() * scale
    shape = probs.shape

    def back(g):
        grad = np.zeros(shape)
        grad[rows, labels] = (g * scale) / p_y
        return (grad,)

    return _record("nll", (probs,), out, back)


def backward(root: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root. Returns leaf node_id -> gradient.

    Leaf tensors with requires_grad also receive the gradient in ``.grad``.
    Each intermediate gradient is dropped as soon as its node has passed
    it on to its parents, so at most one frontier of them is alive.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    tape = root.tape
    if tape is None or root.node_id is None:
        raise ValueError("backward root is not attached to a tape")
    grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
    for nid in range(root.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.op == "leaf" or nid not in grads:
            continue
        g = grads.pop(nid)
        for pid, pg in zip(node.parents, node.backward_fn(g)):
            if pid is None or pg is None:
                continue
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    for nid, leaf in tape._leaves.items():
        if nid in grads:
            leaf.grad = grads[nid]
    return grads


def grad_check(f: Callable[[Tensor], Tensor], theta: np.ndarray,
               eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` maps a parameter tensor to a scalar Tensor and must be
    deterministic (dropout off or seed-fixed per call).
    """
    theta = np.asarray(theta, dtype=np.float64)
    with Tape():
        x = Tensor(theta, requires_grad=True)
        y = f(x)
    backward(y)
    analytic = np.zeros_like(theta) if x.grad is None else x.grad

    numeric = np.zeros_like(theta)
    flat = theta.reshape(-1)
    for i in range(flat.size):
        tp = flat.copy()
        tp[i] += eps
        tm = flat.copy()
        tm[i] -= eps
        fp = f(Tensor(tp.reshape(theta.shape))).item()
        fm = f(Tensor(tm.reshape(theta.shape))).item()
        numeric.reshape(-1)[i] = (fp - fm) / (2.0 * eps)

    err = np.abs(analytic - numeric)
    scale = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((err / scale).max()) if flat.size else 0.0
