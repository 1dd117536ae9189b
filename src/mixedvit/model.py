"""Two-branch classifier: tabular MLP plus tubelet-transformer image branches.

Volumes are cut into non-overlapping t*h*w tubes, linearly projected to
tokens, and run through a pre-norm transformer encoder with joint attention
over all tokens; a class token is read out. Only that token reaches the
classifier, so the last encoder block computes its row alone: every row
still supplies keys and values, but only the class row queries them and
goes through the block's projection and MLP. Branch embeddings (one per ROI,
plus the tabular embedding in mixed mode) are concatenated and classified.
A checkpoint is an ``.npz`` of float64 arrays keyed by parameter name.

Two widths are fixed, not config keys: each block's MLP is ``2 * embed_dim``
wide, the one ratio any run used, and the tabular branch takes
``ModelConfig.tabular_dim`` = 4 features, the width of
``data.tabular_features`` (age, MMSE, gender one-hot). A config with
more than ``MAX_PARAMS`` parameters, or whose attention scores take more
than ``MAX_ATTENTION_BYTES`` per batch element, is refused before any
parameter is allocated.
"""

from __future__ import annotations

import math
import tokenize
import zipfile
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from numpy.lib.npyio import NpzFile

from .tensor import (
    Tensor,
    add,
    attention,
    concat,
    dropout,
    first_token,
    gelu,
    layer_norm,
    linear,
    softmax,
)

MODE_MIXED = "mixed"
MODE_IMAGE_ONLY = "image-only"

# The most learnable scalars a config may have: 160 MB per float64 copy,
# of which training holds several (parameters, gradients, Adam's m and v,
# the best checkpoint). The paper config has 200,106; two ROI branches
# with a whole-volume tubelet have about 10.1 million.
MAX_PARAMS = 20_000_000

# The most bytes of (heads, M, M) float64 attention scores one batch element
# may take, M being the tokens plus the class token: a taped block keeps
# (B, heads, M, M) unnormalised exponentials, and a one-byte keep-mask per
# score under dropout, for the backward pass. The paper config
# takes 419,904; a 1x1x1 tubelet over a 25x32x32 crop would take 42 GB.
MAX_ATTENTION_BYTES = 128 * 2**20


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
    dropout_rate: float = 0.2
    tabular_hidden: tuple = (16, 8)
    num_branches: int = 1
    mode: str = MODE_MIXED
    tabular_dim: ClassVar[int] = 4

    def __post_init__(self):
        if len(self.tubelet) != 3 or len(self.image_dims) != 4:
            raise ConfigError(f"tubelet {self.tubelet} must be (t, h, w) and "
                              f"image_dims {self.image_dims} (T, H, W, C)")
        for name in ("image_dims", "tubelet", "tabular_hidden"):
            sizes = getattr(self, name)
            if min(sizes, default=1) < 1:
                raise ConfigError(f"every {name} entry must be >= 1, got "
                                  f"{sizes}")
        for name in ("embed_dim", "heads", "depth", "num_branches"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        t, h, w = self.tubelet
        T, H, W = self.image_dims[:3]
        if T % t or H % h or W % w:
            raise ConfigError(
                f"tubelet {self.tubelet} does not divide image dims "
                f"{self.image_dims[:3]}")
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate {self.dropout_rate} out of range")
        if self.mode not in (MODE_MIXED, MODE_IMAGE_ONLY):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_MIXED and len(self.tabular_hidden) < 1:
            raise ConfigError("mixed mode needs at least one tabular layer")
        if self.n_params > MAX_PARAMS:
            raise ConfigError(f"{self.n_params:,} parameters exceed the "
                              f"budget of {MAX_PARAMS:,}")
        M = self.n_tokens + 1
        scores = self.heads * M * M * 8
        if scores > MAX_ATTENTION_BYTES:
            raise ConfigError(
                f"{self.heads} heads over {M:,} tokens take {scores:,} bytes "
                f"of attention scores per element, over the budget of "
                f"{MAX_ATTENTION_BYTES:,}")

    @property
    def n_tokens(self) -> int:
        """Tokens per volume: one per non-overlapping tubelet, which
        ``__post_init__`` has checked divide the image dims."""
        return math.prod(n // k for n, k in zip(self.image_dims[:3],
                                                 self.tubelet))

    @property
    def patch_dim(self) -> int:
        t, h, w = self.tubelet
        return t * h * w * self.image_dims[3]

    @property
    def mlp_hidden(self) -> int:
        return 2 * self.embed_dim

    @property
    def n_params(self) -> int:
        """Learnable scalars in ``param_shapes``, counted from the shapes
        outside the encoder blocks and ``depth`` times one block's, without
        building each block's entries."""
        def count(shapes: dict) -> int:
            return sum(math.prod(shape) for shape in shapes.values())
        return count(param_shapes(self, depth=0)) + \
            self.num_branches * self.depth * count(block_shapes(self))

    @property
    def fused_width(self) -> int:
        width = self.num_branches * self.embed_dim
        if self.mode == MODE_MIXED:
            width += self.tabular_hidden[-1]
        return width


def block_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every learnable tensor of one encoder block, by its name within the
    block: the per-block table that ``param_shapes`` repeats ``depth``
    times and ``ModelConfig.n_params`` multiplies by ``depth``."""
    d = config.embed_dim
    hidden = config.mlp_hidden
    return {"ln1.gamma": (d,), "ln1.beta": (d,),
            **{f"attn.w{proj}": (d, d) for proj in ("q", "k", "v", "o")},
            "ln2.gamma": (d,), "ln2.beta": (d,),
            "mlp.w1": (d, hidden), "mlp.b1": (hidden,),
            "mlp.w2": (hidden, d), "mlp.b2": (d,)}


def param_shapes(config: ModelConfig, *,
                 depth: Optional[int] = None) -> dict[str, tuple]:
    """Every learnable tensor's shape, as a pure function of the config,
    with ``depth`` encoder blocks per branch (the config's by default)."""
    d = config.embed_dim
    block = block_shapes(config)
    shapes: dict[str, tuple] = {}
    for i in range(config.num_branches):
        p = f"branch{i}"
        shapes[f"{p}.tubelet.weight"] = (config.patch_dim, d)
        shapes[f"{p}.tubelet.bias"] = (d,)
        shapes[f"{p}.cls"] = (1, d)
        shapes[f"{p}.pos"] = (config.n_tokens + 1, d)
        for l in range(config.depth if depth is None else depth):
            shapes.update((f"{p}.block{l}.{name}", shape)
                          for name, shape in block.items())
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
    """Normal(0, std); each round redraws only the entries beyond 2 std."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * std]
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


def extract_tubelet_patches(volumes, tubelet) -> np.ndarray:
    """Cut B volumes of one (T,H,W,C) shape, a (B,T,H,W,C) array or a list,
    into a (B,N,t*h*w*C) float64 patch matrix, copying each volume once, a
    channel at a time: a whole copy of a broadcast image runs numpy's inner
    loop over the stride-0 channel axis and takes about twice as long. The
    shapes are the caller's to check: ``ModelConfig`` that the tubelet
    divides image_dims, ``encode_image_branch`` that each volume has them.

    Token order is row-major over (temporal, height, width) block indices;
    each block flattens slice-major, then row, column, channel.
    """
    t, h, w = tubelet
    T, H, W, C = volumes[0].shape
    grid = (T // t, H // h, W // w)
    out = np.empty((len(volumes), *grid, t, h, w, C))
    for i, volume in enumerate(volumes):
        blocks = volume.reshape(grid[0], t, grid[1], h, grid[2], w, C)
        blocks = blocks.transpose(0, 2, 4, 1, 3, 5, 6)
        for c in range(C):
            out[i, ..., c] = blocks[..., c]
    return out.reshape(len(volumes), math.prod(grid), t * h * w * C)


def tubelet_embed(volumes, weight: Tensor, bias: Tensor, tubelet) -> Tensor:
    """Project the tubelets of B (T,H,W,C) volumes, an array or a list, to
    (B,N,d) tokens; the tape keeps the patch matrix for the weight gradient."""
    return linear(Tensor(extract_tubelet_patches(volumes, tubelet)), weight,
                  bias)


def add_cls_and_pos(tokens: Tensor, cls: Tensor, pos: Tensor) -> Tensor:
    """Prepend the class token at index 0 and add positional embeddings."""
    B = tokens.shape[0]
    cls_rows = add(Tensor(np.zeros((B, 1, cls.shape[-1]))), cls)
    return add(concat([cls_rows, tokens], axis=1), pos)


def attention_block(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int,
                    dropout_rate: float, training: bool,
                    rng: Optional[np.random.Generator],
                    class_row: bool = False) -> Tensor:
    """Pre-norm residual block: x + MHSA(LN(x)), then x + MLP(LN(x)).

    With ``class_row`` the block computes the (B,d) class-token row of its
    output only: every row still gives keys and values, but only row 0
    queries them, and the residual, ``wo``, the MLP and its dropout run on
    that row. Both dropout draws take what the full block's would, so row 0
    and every later draw see the same uniforms."""
    tokens = x.shape[1]
    h = layer_norm(x, p[f"{prefix}.ln1.gamma"], p[f"{prefix}.ln1.beta"])
    wqkv = concat([p[f"{prefix}.attn.w{proj}"] for proj in "qkv"], axis=1)
    ctx = attention(linear(h, wqkv), heads, dropout_rate, training, rng,
                    class_row)
    if class_row:
        x = first_token(x)
    x = add(x, linear(ctx, p[f"{prefix}.attn.wo"]))

    h = layer_norm(x, p[f"{prefix}.ln2.gamma"], p[f"{prefix}.ln2.beta"])
    h = gelu(linear(h, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"]))
    h = linear(h, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    h = dropout(h, dropout_rate, training, rng, tokens if class_row else 1)
    return add(x, h)


def encode_image_branch(volumes, params: dict[str, Tensor],
                        branch: int, config: ModelConfig, training: bool = False,
                        rng: Optional[np.random.Generator] = None) -> Tensor:
    """Full image branch: B (T,H,W,C) volumes, an array or a list -> (B,d)
    class-token embedding. Only the class token reaches the classifier, and
    no row of the last block's output feeds another row, so the last block
    computes the class row alone (``attention_block``'s ``class_row``): at
    depth 4 that skips about a fifth of the branch's work. The final layer
    norm runs on that row."""
    for volume in volumes:
        if np.shape(volume) != tuple(config.image_dims):
            raise ConfigError(
                f"volume dims {np.shape(volume)} do not match image_dims "
                f"{tuple(config.image_dims)}")
    p = f"branch{branch}"
    tokens = tubelet_embed(volumes, params[f"{p}.tubelet.weight"],
                           params[f"{p}.tubelet.bias"], config.tubelet)
    x = add_cls_and_pos(tokens, params[f"{p}.cls"], params[f"{p}.pos"])
    for l in range(config.depth):
        x = attention_block(x, params, f"{p}.block{l}", config.heads,
                            config.dropout_rate, training, rng,
                            class_row=l == config.depth - 1)
    return layer_norm(x, params[f"{p}.norm.gamma"], params[f"{p}.norm.beta"])


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
        x = linear(x, params[f"tabular.layer{j}.weight"],
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
    logits = linear(fused, params["head.weight"], params["head.bias"])
    return softmax(logits)


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
    """Write params as an uncompressed ``.npz`` of float64 arrays keyed by
    name, in sorted order, so that save, load and save give the same bytes."""
    with open(path, "wb") as fh:  # a handle: numpy appends no suffix
        np.savez(fh, **{name: params[name].data for name in sorted(params)})


# What numpy and zipfile raise on a damaged .npz (tests/test_fuzz.py).
_UNREADABLE = (zipfile.BadZipFile, ValueError, tokenize.TokenError, OSError,
               EOFError, RuntimeError)


def load_checkpoint(path) -> dict[str, Tensor]:
    """Params of a checkpoint written by ``save_checkpoint``, read by the
    ``NpzFile`` that np.load returns for an ``.npz``. ``CheckpointError`` for
    a file that is not an ``.npz``, lists fewer or more members than its
    end-of-central-directory record counts, fails a CRC-32 check, repeats a
    name or holds a member that is not a float64 array."""
    with open(path, "rb") as fh:  # closed even when numpy fails to parse
        try:
            with NpzFile(fh, allow_pickle=False) as archive:
                # zipfile reads central-directory entries until the
                # directory's byte size runs out, so a damaged length field
                # can fold one entry into another; only the count shows it.
                listed = len(archive.zip.infolist())
                counted = zipfile._EndRecData(fh)[zipfile._ECD_ENTRIES_TOTAL]
                if listed != counted:
                    raise zipfile.BadZipFile(
                        f"central directory lists {listed} entries, its end "
                        f"record counts {counted}")
                # numpy checks a CRC-32 only on reading a member to its end,
                # which a damaged .npy header can stop short of.
                damaged = archive.zip.testzip()
                if damaged is not None:
                    raise zipfile.BadZipFile(f"{damaged!r} is damaged")
                members = [(name, archive[name]) for name in archive.files]
        except _UNREADABLE as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    params: dict[str, Tensor] = {}
    for name, arr in members:
        if name in params:
            raise CheckpointError(f"checkpoint holds {name!r} twice")
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise CheckpointError(f"checkpoint member {name!r} is not float64")
        params[name] = Tensor(arr, requires_grad=True)
    return params
