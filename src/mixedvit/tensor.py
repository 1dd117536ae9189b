"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` records every differentiable operation performed while it is
active (define-by-run); ``backward`` replays it in reverse and leaves the
gradient of every leaf that was reached in the leaf's ``.grad``, the one
place a gradient goes. The ops are exactly those the two-branch model
and its loss use: ``add`` (broadcasting as numpy does), ``linear`` (a
dense layer, ``x @ w`` plus an optional bias, as one node),
``channel_sum`` (the tubelet weight summed over its channel rows),
``attention``, ``softmax``, ``layer_norm``, ``gelu``, ``dropout``,
``concat``, ``first_token`` (the class-token readout) and ``nll`` (the
training loss).

``linear`` folds the batch axis of an input that takes no gradient, the
tubelet patch matrix, into one 2-D GEMM: numpy's stacked matmul calls dgemm
once per batch element and packs the whole weight each time. Activation
products stay batched; folded, they measured slower.

``attention`` computes R query rows against all M keys: R = M, or R = 1,
the class row alone, which is all the last encoder block needs. It works
through the batch in blocks of as many elements as fit
``ATTENTION_BLOCK_BYTES`` of (heads, R, M) float64 scores, so that the
passes over a block stay in a core's L2 cache. In FlashAttention's algebra
(Dao et al., arXiv:2205.14135), without the tiling, the score scale, the
softmax normalisation and 1/(1 - rate) act on (R, dh) operands, and the
backward pass takes its row term from the output, D = rowsum(dO * O). A
row's shift cancels in its normalisation, so the scores are shifted by
each head's largest, or by each row's should a row sum fall below 1e-250,
and the row sums are products with ones. Its dropout mask is the R
computed rows of one ``rng.random((B*heads, M, M))`` draw: with R = 1, as
for ``dropout``'s class rows, the mask is row 0 of the full draw. Dropout
is on exactly when an op is given an rng, any numpy ``Generator``.
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
    "linear",
    "channel_sum",
    "attention",
    "softmax",
    "layer_norm",
    "gelu",
    "dropout",
    "concat",
    "first_token",
    "nll",
    "backward",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Bytes of (heads, R, M) float64 scores, or of the (heads, M, M) dropout
# uniforms drawn, in one attention block. It fits a 2 MB per-core L2 with
# the block's other buffers; at the paper shape (8 heads, 81 tokens) a block
# of all rows is one batch element of 420 KB, and one block of class rows
# (R = 1) without dropout holds up to 101 elements.
ATTENTION_BLOCK_BYTES = 512 * 1024

# A row sum of exp(scores - head max) below this sends ``attention`` back
# to shifting each row by its own maximum, before exp nears subnormals.
_MIN_ROW_SUM = 1e-250


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
        # Per input: None (no gradient), an op node id, or the leaf Tensor.
        self.parents = parents
        self.backward_fn = backward_fn  # upstream grad -> per-parent grads


_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class Tape:
    """Ordered record of the ops of one forward pass, parents before
    children. Only ops are nodes: a parameter, or any other gradient-taking
    input that no op on this tape produced, is a parent, held as the leaf
    ``Tensor`` itself by each node that reads it.

    An op's backward closure captures arrays and shapes only, never a
    ``Tensor``: an op output points to its tape through ``.tape``, so a
    captured output would make the tape a reference cycle that only the
    cyclic garbage collector frees. A leaf parent makes no cycle, since a
    leaf has no ``.tape`` on this tape. Kept acyclic, a tape and every
    activation it saved are freed as soon as the last output referring to
    it is dropped.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()


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
    parents = tuple(None if not t.requires_grad
                    else t.node_id if t.tape is tape else t for t in inputs)
    nid = len(tape.nodes)
    tape.nodes.append(_Node(op, parents, backward_fn))
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


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Dense layer ``x @ w + b`` as one node: (m,k) or (B,m,k) ``x``, (k,n)
    ``w`` and an optional (n,) ``b``. An ``x`` that takes no gradient, the
    tubelet patch matrix, has its batch axis folded into one GEMM: numpy's
    stacked matmul calls dgemm per batch element and packs all of ``w`` each
    time, which at 16 rows per element costs about as much as the product.
    Activation products stay batched: folded, the q, k, v projection at
    K = 64 measured 19-33% slower per call. The weight gradient folds the
    batch axis too; the bias gradient sums the upstream gradient over every
    leading axis, in the order ``add`` would."""
    if x.data.ndim not in (2, 3) or w.data.ndim != 2:
        raise ShapeError(
            f"linear expects rank-2..3 @ rank-2, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"linear inner dimensions disagree: {x.shape} @ {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear bias {b.shape} does not match weight {w.shape}")
    xd, wd = x.data, w.data
    # Folded or not, each value is the same dot product. OpenBLAS rounds it
    # alike when both forms take the same kernel, as the model's tubelet
    # products do; one row per element (gemv) or a product on either side
    # of its small-matrix limit can differ in the last bit.
    out = xd @ wd if x.requires_grad else (
        xd.reshape(-1, xd.shape[-1]) @ wd).reshape(*xd.shape[:-1], -1)
    inputs = (x, w)
    if b is not None:
        out += b.data
        inputs += (b,)
    x_grad, w_grad = x.requires_grad, w.requires_grad
    b_grad = b is not None and b.requires_grad
    n_inputs = len(inputs)

    def back(g):
        gx = g @ wd.T if x_grad else None
        gw = (xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
              if w_grad else None)
        gb = _unbroadcast(g, wd.shape[1:]) if b_grad else None
        return (gx, gw, gb)[:n_inputs]

    return _record("linear", inputs, out, back)


def channel_sum(w: Tensor, channels: int) -> Tensor:
    """The (K, d) sum over channels of a (K*channels, d) weight whose rows
    are indexed ``k*channels + c``, as a tubelet patch flattens its channel
    last: what a patch whose channels are all equal sees of the weight.
    The backward repeats the gradient along the channel rows."""
    if w.data.ndim != 2 or channels < 1 or w.shape[0] % channels:
        raise ShapeError(
            f"channel_sum expects (K*{channels}, d) rows, got {w.shape}")
    out = w.data.reshape(-1, channels, w.shape[1]).sum(axis=1)

    def back(g):
        return (np.repeat(g, channels, axis=0),)

    return _record("channel_sum", (w,), out, back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", (x,), out, back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Last-axis normalization (population variance) followed by affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match last axis of {x.shape}")
    # Row means as products with a column of ones, and the variance as an
    # einsum: BLAS and einsum loops, not numpy's short-row reductions. The
    # results differ from np.mean and np.var in their last bits.
    ones = np.ones((d, 1))
    centred = x.data - x.data @ ones / d
    var = np.einsum("...i,...i->...", centred, centred)[..., None] / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv_std
    gd = gamma.data
    out = gd * xhat + beta.data

    def back(g):
        gg = g * gd
        dx = inv_std * (gg - gg @ ones / d - xhat * ((gg * xhat) @ ones / d))
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return dx, dgamma, dbeta

    return _record("layer_norm", (x, gamma, beta), out, back)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact standard-normal CDF."""
    xd = x.data
    cdf = erf(xd * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = xd * cdf

    def back(g):
        grad = xd * xd
        grad *= -0.5
        np.exp(grad, out=grad)
        grad *= _INV_SQRT2PI
        grad *= xd
        grad += cdf
        grad *= g
        return (grad,)

    return _record("gelu", (x,), out, back)


def _keep_scale(rate: float,
                rng: Optional[np.random.Generator]) -> Optional[float]:
    """Survivor scale 1/(1-rate), or None when dropout is off (no rng, or
    rate 0); checks the rate."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return 1.0 / (1.0 - rate)


def dropout(x: Tensor, rate: float,
            rng: Optional[np.random.Generator] = None,
            rows: int = 1) -> Tensor:
    """Inverted dropout, survivors scaled by 1/(1-rate); no rng: identity.

    ``x`` is (B, ...), with ``rows > 1`` the class rows of a (B, rows, ...)
    tensor: the mask is row 0 of the full draw ``rng.random((B, rows,
    ...))``, and the generator ends where that draw leaves it. With ``rows
    == 1``, the default, that is ``rng.random(x.shape)``."""
    scale = _keep_scale(rate, rng)
    if scale is None:
        return x
    draw = rng.random(x.shape[:1] + (rows,) + x.shape[1:])[:, 0]
    keep = np.multiply(draw >= rate, scale)
    out = x.data * keep

    def back(g):
        return (g * keep,)

    return _record("dropout", (x,), out, back)


def attention(qkv: Tensor, heads: int, rate: float,
              rng: Optional[np.random.Generator] = None,
              class_row: bool = False) -> Tensor:
    """Multi-head self-attention: packed q|k|v (B,M,3d) -> context (B,M,d),
    or, with ``class_row``, the (B,d) context of query row 0 alone.

    Per head, softmax(q k^T / sqrt(d/heads)) weights, dropped out given an
    rng, times v; the heads are merged back along the last axis.
    The op computes R query rows, R = M or R = 1 with ``class_row``, against
    all M keys and values: (heads, R, M) scores per batch element.

    The batch is processed in blocks of as many elements as fit
    ``ATTENTION_BLOCK_BYTES`` of (heads, R, M) scores, or under dropout of
    (heads, M, M) uniforms (at least one). A block's scores are the scaled
    queries times the keys; in place they become ``e = exp(s - headmax)``,
    shifted by the largest score of each head's (R, M) block, and are never
    normalised. Their row sums are ``e @ ones``. Should a row sum fall below
    ``_MIN_ROW_SUM`` (1e-250), that row's largest score lies about 575 below
    its head's, and the block's scores are computed again and shifted by
    each row's own maximum. ``e`` times the bool keep-mask, times v, is the
    (R, dh) context up to the row factor ``c = 1/((1 - rate) * rowsum(e))``,
    which absorbs either shift; it is applied as the context is written into
    the output. The keep-mask compares the R computed rows of one
    ``rng.random((B*heads, M, M))`` draw, each block drawing its (n, heads,
    M, M) uniforms whole: with R = 1 the mask is row 0 of the full draw. A
    taped op keeps ``e`` for the whole batch, the keep-mask (one byte per
    score) and ``c``; an untaped one reuses one block of each, with the same
    output bits.

    The backward pass takes the softmax's row term, rowsum(dP * P), as
    FlashAttention's D = rowsum(dO * O) over the output, which its closure
    keeps. With ``c`` folded into dO and D, the score gradient is
    e * (mask * (dO v^T) - D): four passes over each (R, M) block, none to
    normalise it. 1/sqrt(d/heads) scales the query and key gradients.
    """
    if qkv.data.ndim != 3 or heads < 1 or qkv.shape[2] % (3 * heads):
        raise ShapeError(
            f"attention expects (B, M, 3*d) with d divisible by {heads} "
            f"heads, got {qkv.shape}")
    keep_scale = _keep_scale(rate, rng)
    B, M, d3 = qkv.shape
    R = 1 if class_row else M
    d = d3 // 3
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # Each of q, k, v is a (B, heads, M, dh) view into qkv; q keeps R rows.
    q, k, v = qkv.data.reshape(B, M, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    q = q[:, :, :R]
    kt = k.transpose(0, 1, 3, 2)
    drawn = R if keep_scale is None else M
    step = max(1, ATTENTION_BLOCK_BYTES // (heads * drawn * M * 8))
    blocks = [slice(b, min(b + step, B)) for b in range(0, B, step)]
    block_shape = (min(step, B), heads, R, M)
    taped = qkv.requires_grad and _active_tape() is not None
    exps = np.empty((B,) + block_shape[1:] if taped else block_shape)
    mask = None if keep_scale is None else np.empty(exps.shape, dtype=bool)
    draws = None if mask is None else np.empty(block_shape[:2] + (M, M))
    row_scale = np.empty((B, heads, R, 1))
    ones = np.ones((M, 1))
    out = np.empty((B, R, heads, dh))
    ctx = out.transpose(0, 2, 1, 3)
    for blk in blocks:
        n = blk.stop - blk.start
        kept = blk if taped else slice(n)
        e = exps[kept]
        # Shift by each head's largest score, or, should a row underflow,
        # by each row's.
        for shift_axes in ((-2, -1), -1):
            np.matmul(q[blk] * scale, kt[blk], out=e)
            e -= e.max(axis=shift_axes, keepdims=True)
            np.exp(e, out=e)
            sums = e @ ones
            if sums.min() >= _MIN_ROW_SUM:
                break
        c = np.divide(keep_scale or 1.0, sums, out=row_scale[blk])
        w = e
        if mask is not None:
            u = rng.random(out=draws[:n])[:, :, :R]
            np.greater_equal(u, rate, out=mask[kept])
            w = np.multiply(e, mask[kept], out=u)
        np.multiply(w @ v[blk], c, out=ctx[blk])

    def back(g):
        g = g.reshape(B, R, heads, dh)
        # P = e * c / keep_scale by rows: c goes into dO, c / keep_scale
        # into D.
        D = np.einsum("brhd,brhd->bhr", g, out)[..., None] * (
            row_scale / (keep_scale or 1.0))
        g = g.transpose(0, 2, 1, 3)
        gqkv = np.empty((B, M, 3, heads, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        gq[:, :, R:] = 0.0
        gs_buf = np.empty(block_shape)
        for blk in blocks:
            e, gb = exps[blk], g[blk] * row_scale[blk]
            gs = gs_buf[:len(e)]
            w = e if mask is None else np.multiply(e, mask[blk], out=gs)
            gv[blk] = w.transpose(0, 1, 3, 2) @ gb
            np.matmul(gb, v[blk].transpose(0, 1, 3, 2), out=gs)
            if mask is not None:
                gs *= mask[blk]
            gs -= D[blk]
            gs *= e
            np.multiply(gs @ k[blk], scale, out=gq[blk, :, :R])
            gk[blk] = gs.transpose(0, 1, 3, 2) @ (q[blk] * scale)
        return (gqkv.reshape(B, M, d3),)

    shape = (B, d) if class_row else (B, M, d)
    return _record("attention", (qkv,), out.reshape(shape), back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            f"concat shapes incompatible on axis {axis}: "
            f"{[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record("concat", tuple(tensors), out, back)


def first_token(x: Tensor) -> Tensor:
    """Row 0 of axis 1, (B, M, d) -> (B, d): the class token's embedding."""
    if x.data.ndim != 3:
        raise ShapeError(f"first_token expects (B, M, d), got {x.shape}")
    shape = x.shape

    def back(g):
        grad = np.zeros(shape)
        grad[:, 0] = g
        return (grad,)

    return _record("first_token", (x,), x.data[:, 0], back)


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


def backward(root: Tensor) -> None:
    """Reverse sweep from a scalar root: each leaf tensor with requires_grad
    that the root depends on receives its gradient in ``.grad``.

    Each intermediate gradient is dropped as soon as its node has passed
    it on to its parents, so at most one frontier of them is alive.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    tape = root.tape
    if tape is None or root.node_id is None:
        raise ValueError("backward root is not attached to a tape")
    # Keyed by op node id or by leaf Tensor; every node id is popped by the
    # sweep, so the leaves' gradients are what is left.
    grads: dict = {root.node_id: np.ones_like(root.data)}
    for nid in range(root.node_id, -1, -1):
        if nid not in grads:
            continue
        node = tape.nodes[nid]
        for parent, pg in zip(node.parents, node.backward_fn(grads.pop(nid))):
            if parent is None or pg is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
    for leaf, g in grads.items():
        leaf.grad = g
