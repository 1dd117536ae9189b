"""Two-branch classifier: tabular MLP plus tubelet-transformer image branches.

Volumes are cut into non-overlapping t*h*w tubes, linearly projected to
tokens, and run through a pre-norm transformer encoder with joint attention
over all tokens; a class token is read out. Branch embeddings (one per ROI,
plus the tabular embedding in mixed mode) are concatenated and classified.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .tensor import (
    Tensor,
    add,
    attention,
    concat,
    dropout,
    gelu,
    layer_norm,
    matmul,
    narrow,
    reshape,
    softmax,
)

MODE_MIXED = "mixed"
MODE_IMAGE_ONLY = "image-only"

CHECKPOINT_MAGIC = b"MWT1"


class ConfigError(ValueError):
    """Invalid model configuration."""


class CheckpointError(ValueError):
    """Malformed parameter checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    image_dims: tuple = (25, 32, 32, 3)  # (T slices, H, W, C)
    tubelet: tuple = (5, 8, 8)
    embed_dim: int = 64
    depth: int = 4
    heads: int = 8
    mlp_ratio: float = 2.0
    dropout_rate: float = 0.2
    tabular_dim: int = 4
    tabular_hidden: tuple = (16, 8)
    num_branches: int = 1
    mode: str = MODE_MIXED

    def __post_init__(self):
        t, h, w = self.tubelet
        T, H, W, C = self.image_dims
        if T % t or H % h or W % w:
            raise ConfigError(
                f"tubelet {self.tubelet} does not divide image dims "
                f"{self.image_dims[:3]}")
        if min(t, h, w, C) < 1:
            raise ConfigError("tubelet and channel sizes must be positive")
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate {self.dropout_rate} out of range")
        if self.depth < 1 or self.num_branches < 1:
            raise ConfigError("depth and num_branches must be >= 1")
        if self.mode not in (MODE_MIXED, MODE_IMAGE_ONLY):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_MIXED and len(self.tabular_hidden) < 1:
            raise ConfigError("mixed mode needs at least one tabular layer")

    @property
    def patch_dim(self) -> int:
        t, h, w = self.tubelet
        return t * h * w * self.image_dims[3]

    @property
    def mlp_hidden(self) -> int:
        return max(1, int(self.embed_dim * self.mlp_ratio))

    @property
    def fused_width(self) -> int:
        width = self.num_branches * self.embed_dim
        if self.mode == MODE_MIXED:
            width += self.tabular_hidden[-1]
        return width


def count_tokens(image_dims, tubelet) -> int:
    """Tokens per volume: one per non-overlapping tubelet."""
    T, H, W = image_dims[:3]
    t, h, w = tubelet
    if T % t or H % h or W % w:
        raise ConfigError(f"tubelet {tubelet} does not divide {image_dims[:3]}")
    return (T // t) * (H // h) * (W // w)


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every learnable tensor's shape, as a pure function of the config."""
    d = config.embed_dim
    n_tokens = count_tokens(config.image_dims, config.tubelet)
    hidden = config.mlp_hidden
    shapes: dict[str, tuple] = {}
    for i in range(config.num_branches):
        p = f"branch{i}"
        shapes[f"{p}.tubelet.weight"] = (config.patch_dim, d)
        shapes[f"{p}.tubelet.bias"] = (d,)
        shapes[f"{p}.cls"] = (1, d)
        shapes[f"{p}.pos"] = (n_tokens + 1, d)
        for l in range(config.depth):
            b = f"{p}.block{l}"
            shapes[f"{b}.ln1.gamma"] = (d,)
            shapes[f"{b}.ln1.beta"] = (d,)
            for proj in ("q", "k", "v", "o"):
                shapes[f"{b}.attn.w{proj}"] = (d, d)
            shapes[f"{b}.ln2.gamma"] = (d,)
            shapes[f"{b}.ln2.beta"] = (d,)
            shapes[f"{b}.mlp.w1"] = (d, hidden)
            shapes[f"{b}.mlp.b1"] = (hidden,)
            shapes[f"{b}.mlp.w2"] = (hidden, d)
            shapes[f"{b}.mlp.b2"] = (d,)
        shapes[f"{p}.norm.gamma"] = (d,)
        shapes[f"{p}.norm.beta"] = (d,)
    if config.mode == MODE_MIXED:
        prev = config.tabular_dim
        for j, width in enumerate(config.tabular_hidden):
            shapes[f"tabular.layer{j}.weight"] = (prev, width)
            shapes[f"tabular.layer{j}.bias"] = (width,)
            prev = width
    shapes["head.weight"] = (config.fused_width, 2)  # CN and AD logits
    shapes["head.bias"] = (2,)
    return shapes


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Weights ~ truncated normal(0.02), pos ~ normal(0.02), rest zeros/ones."""
    rng = np.random.default_rng([int(seed), 0x1A17])
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "pos":
            data = rng.normal(0.0, 0.02, size=shape)
        elif leaf == "gamma":
            data = np.ones(shape)
        elif leaf.startswith("w"):  # weight, wq/wk/wv/wo, w1/w2
            data = _trunc_normal(rng, shape, 0.02)
        else:  # biases, beta offsets, class token
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def extract_tubelet_patches(volume: np.ndarray, tubelet) -> np.ndarray:
    """Cut a (B,T,H,W,C) batch of volumes into (B,N,t*h*w*C) tubelets.

    Token order is row-major over (temporal, height, width) block indices;
    each block flattens slice-major, then row, column, channel.
    """
    t, h, w = tubelet
    B, T, H, W, C = volume.shape
    if T % t or H % h or W % w:
        raise ConfigError(
            f"tubelet {tubelet} does not divide volume {volume.shape[1:4]}")
    blocks = volume.reshape(B, T // t, t, H // h, h, W // w, w, C)
    blocks = blocks.transpose(0, 1, 3, 5, 2, 4, 6, 7)
    return blocks.reshape(B, (T // t) * (H // h) * (W // w), t * h * w * C)


def tubelet_embed(volume: np.ndarray, weight: Tensor, bias: Tensor,
                  tubelet) -> Tensor:
    """Project the tubelets of a (B,T,H,W,C) batch to (B,N,d) tokens."""
    patches = extract_tubelet_patches(np.asarray(volume, dtype=np.float64), tubelet)
    return add(matmul(Tensor(patches), weight), bias)


def add_cls_and_pos(tokens: Tensor, cls: Tensor, pos: Tensor) -> Tensor:
    """Prepend the class token at index 0 and add positional embeddings."""
    B = tokens.shape[0]
    cls_rows = add(Tensor(np.zeros((B, 1, cls.shape[-1]))), cls)
    return add(concat([cls_rows, tokens], axis=1), pos)


def attention_block(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int,
                    dropout_rate: float, training: bool,
                    rng: Optional[np.random.Generator]) -> Tensor:
    """Pre-norm residual block: x + MHSA(LN(x)), then x + MLP(LN(x))."""
    h = layer_norm(x, p[f"{prefix}.ln1.gamma"], p[f"{prefix}.ln1.beta"])
    wqkv = concat([p[f"{prefix}.attn.w{proj}"] for proj in "qkv"], axis=1)
    ctx = attention(matmul(h, wqkv), heads, dropout_rate, training, rng)
    x = add(x, matmul(ctx, p[f"{prefix}.attn.wo"]))

    h = layer_norm(x, p[f"{prefix}.ln2.gamma"], p[f"{prefix}.ln2.beta"])
    h = gelu(add(matmul(h, p[f"{prefix}.mlp.w1"]), p[f"{prefix}.mlp.b1"]))
    h = add(matmul(h, p[f"{prefix}.mlp.w2"]), p[f"{prefix}.mlp.b2"])
    h = dropout(h, dropout_rate, training, rng)
    return add(x, h)


def encode_image_branch(volumes: np.ndarray, params: dict[str, Tensor],
                        branch: int, config: ModelConfig, training: bool = False,
                        rng: Optional[np.random.Generator] = None) -> Tensor:
    """Full image branch: (B,T,H,W,C) volumes -> (B,d) class-token embedding."""
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.shape[1:] != tuple(config.image_dims):
        raise ConfigError(
            f"volume dims {volumes.shape[1:]} do not match config "
            f"{tuple(config.image_dims)}")
    p = f"branch{branch}"
    tokens = tubelet_embed(volumes, params[f"{p}.tubelet.weight"],
                           params[f"{p}.tubelet.bias"], config.tubelet)
    x = add_cls_and_pos(tokens, params[f"{p}.cls"], params[f"{p}.pos"])
    for l in range(config.depth):
        x = attention_block(x, params, f"{p}.block{l}", config.heads,
                            config.dropout_rate, training, rng)
    x = layer_norm(x, params[f"{p}.norm.gamma"], params[f"{p}.norm.beta"])
    cls_row = narrow(x, 1, 0, 1)
    return reshape(cls_row, (x.shape[0], config.embed_dim))


def mlp_branch_forward(features: np.ndarray, params: dict[str, Tensor],
                       config: ModelConfig) -> Tensor:
    """(B,F) features through dense layers with GELU between them; the last
    hidden layer is the embedding. The branch has no dropout."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.tabular_dim:
        raise ConfigError(
            f"tabular features {features.shape} are not (B, {config.tabular_dim})")
    x = Tensor(features)
    last = len(config.tabular_hidden) - 1
    for j in range(len(config.tabular_hidden)):
        x = add(matmul(x, params[f"tabular.layer{j}.weight"]),
                params[f"tabular.layer{j}.bias"])
        if j != last:
            x = gelu(x)
    return x


def fuse_classify(embeddings: list[Tensor], params: dict[str, Tensor],
                  config: ModelConfig, training: bool = False,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Concatenate branch embeddings, dropout, dense to 2 logits, softmax."""
    if not embeddings:
        raise ValueError("fuse_classify needs at least one branch embedding")
    fused = embeddings[0] if len(embeddings) == 1 else concat(embeddings, axis=1)
    fused = dropout(fused, config.dropout_rate, training, rng)
    logits = add(matmul(fused, params["head.weight"]), params["head.bias"])
    return softmax(logits, axis=1)


def forward_batch(config: ModelConfig, params: dict[str, Tensor],
                  tabular: Optional[np.ndarray], volumes: list[np.ndarray],
                  training: bool = False,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Class probabilities (B,2) for a batch of mixed samples."""
    if len(volumes) != config.num_branches:
        raise ValueError(
            f"expected {config.num_branches} image branches, got {len(volumes)}")
    embeddings: list[Tensor] = []
    if config.mode == MODE_MIXED:
        if tabular is None:
            raise ValueError("mixed mode requires tabular features")
        embeddings.append(mlp_branch_forward(tabular, params, config))
    for i, vol in enumerate(volumes):
        embeddings.append(encode_image_branch(vol, params, i, config,
                                              training, rng))
    return fuse_classify(embeddings, params, config, training, rng)


def save_checkpoint(path, params: dict[str, Tensor]) -> None:
    """Write params: magic, manifest (name/shape/offset), raw LE float64."""
    entries = []
    chunks = []
    offset = 0
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].data, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    manifest = json.dumps({"entries": entries}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for chunk in chunks:
            fh.write(chunk)


def load_checkpoint(path) -> dict[str, Tensor]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError(
            f"checkpoint of {len(blob)} bytes is shorter than its 8-byte header")
    (mlen,) = struct.unpack("<I", blob[4:8])
    try:
        manifest = json.loads(blob[8:8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint manifest has no 'entries' list")
    payload = blob[8 + mlen:]
    params: dict[str, Tensor] = {}
    spans = []
    for entry in entries:
        name, shape, start = _checkpoint_entry(entry)
        if name in params:
            raise CheckpointError(f"checkpoint holds {name!r} twice")
        end = start + 8 * prod(shape)
        if end > len(payload):
            raise CheckpointError(
                f"checkpoint payload truncated for {name!r}")
        arr = np.frombuffer(payload[start:end], dtype="<f8").reshape(shape)
        params[name] = Tensor(arr.copy(), requires_grad=True)
        spans.append((start, end, name))
    spans.sort()
    for (_, prev_end, prev), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise CheckpointError(
                f"checkpoint entries {prev!r} and {name!r} overlap")
    return params


def _checkpoint_entry(entry) -> tuple:
    """(name, shape, offset) of one checkpoint manifest entry, checked."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"checkpoint entry {entry!r} is not an object")
    name, shape, offset = (entry.get(k) for k in ("name", "shape", "offset"))

    def is_count(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    if not isinstance(name, str):
        raise CheckpointError(f"checkpoint entry {entry!r} has no name")
    if not isinstance(shape, list) or not all(is_count(d) for d in shape):
        raise CheckpointError(f"bad shape {shape!r} for {name!r}")
    if not is_count(offset):
        raise CheckpointError(f"bad payload offset {offset!r} for {name!r}")
    return name, tuple(shape), offset
