"""Helpers that only tests use: a finite-difference gradient check, a
scalar root for gradient tests, a single-sample forward pass, parameter
flattening, a rank-statistic AUC oracle for the trapezoid AUC, loop forms
of the ROC sweep and the confusion counts that the vectorised metrics must
equal bit for bit, a search space and analytic objective for Hyperband, a
Hyperband run whose successive halving works out its own keep counts and
stop, whose log the planned schedule must reproduce, and straightforward
reference versions of the synthetic generator, the modal centroid and the
ROI images that the vectorised data path must equal bit for bit, and of
the truncated normal draw and the tubelet patches that the model must
equal bit for bit, of the image branch that runs its last block on every
row, of the attention backward in its score form, and of layer
normalisation by ``np.mean`` and ``np.var``."""

from __future__ import annotations

import math
from collections import Counter
from math import exp, log
from typing import Callable, Optional, Sequence

import numpy as np

from mixedvit import data
from mixedvit.data import AD, CN
from mixedvit.metrics import ConfusionMatrix, RocPoint
from mixedvit.model import (
    ModelConfig,
    add_cls_and_pos,
    attention_block,
    forward_batch,
    tubelet_embed,
)
from mixedvit.tensor import (
    Tape,
    Tensor,
    _record,
    backward,
    first_token,
    layer_norm,
)
from mixedvit.tuning import Choice, LogUniform, TrialResult, sample_config


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


def weighted_sum(x: Tensor, w=1.0) -> Tensor:
    """sum(x * w) as a one-element tensor, recorded as one tape node whose
    backward is g * w. ``w`` broadcasts to the shape of ``x``; the default
    sums ``x``."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)

    def back(g):
        return (g * w,)

    return _record("weighted_sum", (x,), (x.data * w).sum(), back)


def forward(config: ModelConfig, params: dict[str, Tensor],
            tabular: Optional[np.ndarray], volumes: list[np.ndarray],
            training: bool = False,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """One sample's class probabilities, shape (2,), via a batch of one."""
    tab = None if tabular is None else np.asarray(tabular)[None]
    vols = [np.asarray(v)[None] for v in volumes]
    probs = forward_batch(config, params, tab, vols, training, rng)
    return probs.data[0]


def flatten_params(params: dict[str, Tensor]) -> np.ndarray:
    return np.concatenate([p.data.reshape(-1) for p in params.values()]) \
        if params else np.zeros(0)


def auc_mannwhitney(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-statistic AUC: (#{pos>neg} + 0.5 #{ties}) / (n_pos n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == AD]
    neg = scores[labels == CN]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes present")
    wins = ties = 0
    for p in pos:
        wins += int((p > neg).sum())
        ties += int((p == neg).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def reference_roc_points(scores: Sequence[float],
                         labels: Sequence[int]) -> list:
    """``metrics.roc_points`` as a loop over the ranked scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == AD).sum())
    n_neg = int((labels == CN).sum())
    order = np.argsort(-scores, kind="stable")
    points = [RocPoint(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < len(order):
        thr = scores[order[i]]
        while i < len(order) and scores[order[i]] == thr:
            if labels[order[i]] == AD:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append(RocPoint(fp / n_neg, tp / n_pos, float(thr)))
    return points


def reference_confusion(predictions) -> ConfusionMatrix:
    """``metrics.confusion`` as a loop over the predictions."""
    tp = fp = tn = fn = 0
    for p in predictions:
        if p.predicted == AD and p.label == AD:
            tp += 1
        elif p.predicted == AD and p.label == CN:
            fp += 1
        elif p.predicted == CN and p.label == CN:
            tn += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def default_search_space() -> dict:
    return {
        "initial_lr": LogUniform(1e-5, 1e-3),
        "dropout_rate": Choice((0.1, 0.2, 0.3)),
        "batch_size": Choice((4, 6, 8)),
        "tubelet": Choice(([5, 8, 8], [25, 8, 8])),
    }


TOY_TARGET_LR = 3e-4


def toy_objective(config: dict, resource: int) -> float:
    """Deterministic, resource-free objective peaked at TOY_TARGET_LR."""
    del resource
    return exp(-abs(log(config["initial_lr"] / TOY_TARGET_LR)))


def reference_hyperband_run(space: dict,
                            objective: Callable[[dict, int], float],
                            R: float, eta: float, seed: int):
    """``tuning.hyperband_run`` with each bracket's counts and epochs worked
    out as it runs: keep the top ``max(1, floor(n / eta))`` by (-score,
    trial id), multiply the resource by eta, and stop once one config is
    left or the next resource would pass R."""
    rng = np.random.default_rng([int(seed), 0x4B])
    log = []
    s_max = 0
    while eta ** (s_max + 1) <= R * (1 + 1e-12):
        s_max += 1
    next_id = 0
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta ** s)
        current = [(next_id + i, sample_config(space, rng)) for i in range(n)]
        next_id += n
        resource = float(R * eta ** (-s))
        round_index = 0
        while True:
            epochs = max(1, int(round(resource)))
            results = [TrialResult(tid, s, round_index, epochs,
                                   float(objective(cfg, epochs)), cfg)
                       for tid, cfg in current]
            log.extend(results)
            if len(results) == 1 or resource * eta > R * (1 + 1e-9):
                break
            keep = max(1, math.floor(len(results) / eta))
            survivors = sorted(results,
                               key=lambda t: (-t.score, t.trial_id))[:keep]
            survivors.sort(key=lambda t: t.trial_id)
            current = [(t.trial_id, t.config) for t in survivors]
            resource *= eta
            round_index += 1
    best = min(log, key=lambda t: (-t.score, t.trial_id))
    return best, log


def reference_generate_subject(cfg: data.SynthConfig, seed: int, index: int):
    """``data.generate_subject`` on dense coordinate grids: every ellipsoid
    is evaluated voxel by voxel over three full-size float64 grids."""
    rng = np.random.default_rng([int(seed), 0x5EED, int(index)])
    label = CN if index % 2 == 0 else AD
    dims = cfg.dims

    volume = rng.normal(0.3, data.SYNTH_NOISE, size=dims)
    masks = {}
    grids = np.meshgrid(*[np.arange(d, dtype=np.float64) for d in dims],
                        indexing="ij")
    radius_gain = 1.0 + 0.25 * cfg.separability * (label == AD)
    intensity = 0.5 + 0.2 * cfg.separability * (label == AD)
    for k, roi in enumerate(cfg.rois):
        frac = data._ROI_CENTRES[k % len(data._ROI_CENTRES)]
        centre = [f * d + rng.integers(-2, 3) for f, d in zip(frac, dims)]
        radii = [r * radius_gain for r in data._BASE_RADII]
        dist = sum(((g - c) / r) ** 2
                   for g, c, r in zip(grids, centre, radii))
        mask = dist <= 1.0
        volume[mask] = rng.normal(intensity, data.SYNTH_NOISE,
                                  size=int(mask.sum()))
        masks[roi] = mask.astype(np.uint8)
    volume = np.clip(volume, 0.0, 1.0).astype(np.float32)

    age_mean = 74.36 if label == CN else 76.62
    age = float(rng.normal(age_mean, 8.0))
    while not 55.0 <= age <= 95.0:
        age = float(rng.normal(age_mean, 8.0))
    if label == CN:
        mmse = int(np.clip(round(rng.normal(29.0, 1.0)), 24, 30))
        cdr = 0.0
    else:
        mmse = int(np.clip(round(rng.normal(20.0, 4.0)), 0, 26))
        cdr = float(rng.choice([1.0, 2.0, 3.0]))
    gender = "F" if rng.random() < 0.5 else "M"
    meta = {
        "subject_id": f"S{index:04d}",
        "visit_date": f"2023-{1 + index % 12:02d}-{1 + index % 28:02d}",
        "age": round(age, 1),
        "mmse": mmse,
        "gender": gender,
        "cdr": cdr,
    }
    return volume, masks, meta


def reference_modal_centroid(mask: np.ndarray, slice_start: int,
                             slice_count: int) -> tuple:
    """``data.modal_centroid`` as a loop over slices: the rounded-half-up
    mean of each slice's nonzero indices, then the smallest per-axis mode."""
    def mode_smallest(values):
        counts = Counter(values)
        best = max(counts.values())
        return min(v for v, c in counts.items() if c == best)

    xs, ys = [], []
    for s in range(slice_start, slice_start + slice_count):
        rows, cols = np.nonzero(mask[s])
        if rows.size == 0:
            continue
        xs.append(math.floor(float(rows.mean()) + 0.5))
        ys.append(math.floor(float(cols.mean()) + 0.5))
    if not xs:
        raise data.EmptyMaskError("no slice in the window has mask pixels")
    return mode_smallest(xs), mode_smallest(ys)


def reference_images(raw: np.ndarray, instances, size=(32, 32),
                     channels: int = 3) -> list:
    """The ``build_samples`` images of one subject, scaling first: the whole
    volume is min-max scaled to float64, then each instance is cropped and
    its plane repeated ``channels`` times."""
    raw = np.asarray(raw, dtype=np.float64)
    lo, hi = float(raw.min()), float(raw.max())
    volume = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    hp, wp = size
    images = []
    for inst in instances:
        top = min(max(inst.cx - hp // 2, 0), volume.shape[1] - hp)
        left = min(max(inst.cy - wp // 2, 0), volume.shape[2] - wp)
        stack = volume[inst.slice_start:inst.slice_start + inst.slice_count,
                       top:top + hp, left:left + wp]
        images.append(np.repeat(stack[..., None], channels, axis=-1))
    return images


def reference_trunc_normal(rng: np.random.Generator, shape,
                           std: float) -> np.ndarray:
    """``model._trunc_normal`` as a whole-array loop: redraw every entry
    beyond 2 std, in C order, then re-check the whole array."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def reference_tubelet_patches(images, tubelet) -> np.ndarray:
    """``model.extract_tubelet_patches`` by a reshape and transpose of
    ``np.stack`` of a full copy of each (T, H, W, C) image."""
    volume = np.stack([np.array(image, dtype=np.float64) for image in images])
    t, h, w = tubelet
    B, T, H, W, C = volume.shape
    blocks = volume.reshape(B, T // t, t, H // h, h, W // w, w, C)
    blocks = blocks.transpose(0, 1, 3, 5, 2, 4, 6, 7)
    return blocks.reshape(B, (T // t) * (H // h) * (W // w), t * h * w * C)


def reference_encode_image_branch(volumes, params: dict[str, Tensor],
                                  branch: int, config: ModelConfig,
                                  training: bool = False,
                                  rng: Optional[np.random.Generator] = None
                                  ) -> Tensor:
    """``model.encode_image_branch`` with every block on every row: the
    last block's (B, M, d) output is cut to its class row by
    ``first_token`` before the final layer norm."""
    p = f"branch{branch}"
    tokens = tubelet_embed(volumes, params[f"{p}.tubelet.weight"],
                           params[f"{p}.tubelet.bias"], config.tubelet)
    x = add_cls_and_pos(tokens, params[f"{p}.cls"], params[f"{p}.pos"])
    for l in range(config.depth):
        x = attention_block(x, params, f"{p}.block{l}", config.heads,
                            config.dropout_rate, training, rng)
    return layer_norm(first_token(x), params[f"{p}.norm.gamma"],
                      params[f"{p}.norm.beta"])


def reference_attention_grad(qkv: np.ndarray, heads: int, rate: float,
                             training: bool, rng: Optional[np.random.Generator],
                             class_row: bool, g: np.ndarray) -> np.ndarray:
    """The gradient of sum(attention(qkv) * g) over the packed (B, M, 3d)
    ``qkv``, in the score form: probabilities P = softmax(q k^T * scale),
    dropout weights W = P * keep from one (B*heads, M, M) draw,
    dP = (g v^T) * keep and dS = P * (dP - rowsum(dP * P)) * scale, from
    which q and k get dS k and dS^T q; v gets W^T g. ``class_row`` keeps
    query row 0 alone, with ``g`` of shape (B, d)."""
    B, M, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    R = 1 if class_row else M
    scale = 1.0 / math.sqrt(dh)
    q, k, v = (qkv[..., i * d:(i + 1) * d].reshape(B, M, heads, dh)
               .transpose(0, 2, 1, 3) for i in range(3))
    q = q[:, :, :R]
    s = (q @ k.transpose(0, 1, 3, 2)) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    keep = np.ones_like(p)
    if training and rate:
        draw = rng.random((B * heads, M, M)).reshape(B, heads, M, M)
        keep = (draw[:, :, :R] >= rate) / (1.0 - rate)
    g = g.reshape(B, R, heads, dh).transpose(0, 2, 1, 3)
    gv = (p * keep).transpose(0, 1, 3, 2) @ g
    dp = (g @ v.transpose(0, 1, 3, 2)) * keep
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    gq = np.zeros((B, heads, M, dh))
    gq[:, :, :R] = ds @ k
    gk = ds.transpose(0, 1, 3, 2) @ q
    return np.concatenate([t.transpose(0, 2, 1, 3).reshape(B, M, d)
                           for t in (gq, gk, gv)], axis=-1)


def reference_layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         g: np.ndarray, eps: float = 1e-5) -> tuple:
    """``layer_norm``'s output and its x, gamma and beta gradients under the
    upstream gradient ``g``, by ``np.mean`` and the population ``np.var``
    over the last axis."""
    inv_std = 1.0 / np.sqrt(np.var(x, axis=-1, keepdims=True) + eps)
    xhat = (x - np.mean(x, axis=-1, keepdims=True)) * inv_std
    gg = g * gamma
    dx = inv_std * (gg - np.mean(gg, axis=-1, keepdims=True)
                    - xhat * np.mean(gg * xhat, axis=-1, keepdims=True))
    axes = tuple(range(x.ndim - 1))
    return gamma * xhat + beta, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)
