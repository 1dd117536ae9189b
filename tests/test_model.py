import json
import struct

import numpy as np
import pytest

from mixedvit import model as M
from mixedvit.tensor import Tensor
from mixedvit.model import (
    ConfigError,
    ModelConfig,
    add_cls_and_pos,
    attention_block,
    count_tokens,
    encode_image_branch,
    extract_tubelet_patches,
    forward_batch,
    fuse_classify,
    init_params,
    load_checkpoint,
    mlp_branch_forward,
    param_shapes,
    save_checkpoint,
    tubelet_embed,
)

from helpers import flatten_params, forward, params_from_vector, weighted_sum

TINY = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                   depth=1, heads=2, mlp_ratio=2.0, dropout_rate=0.0,
                   tabular_dim=4, tabular_hidden=(4,), num_branches=1)


def conv3d_oracle(volume: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  tubelet) -> np.ndarray:
    """Stride-equals-kernel 3D convolution, written as explicit loops."""
    t, h, w = tubelet
    T, H, W, C = volume.shape
    d = weight.shape[1]
    kernel = weight.reshape(t, h, w, C, d)
    out = np.zeros(((T // t) * (H // h) * (W // w), d))
    n = 0
    for bt in range(T // t):
        for bh in range(H // h):
            for bw in range(W // w):
                block = volume[bt * t:(bt + 1) * t, bh * h:(bh + 1) * h,
                               bw * w:(bw + 1) * w, :]
                for j in range(d):
                    out[n, j] = (block * kernel[..., j]).sum() + bias[j]
                n += 1
    return out


def test_count_tokens_table_config():
    assert count_tokens((25, 32, 32), (5, 8, 8)) == 80


def test_count_tokens_whole_volume():
    assert count_tokens((25, 32, 32), (25, 32, 32)) == 1


def test_count_tokens_non_divisible():
    with pytest.raises(ConfigError):
        count_tokens((25, 32, 32), (4, 8, 8))


def test_tubelet_embed_zero_volume_gives_bias():
    cfg = TINY
    rng = np.random.default_rng(0)
    weight = Tensor(rng.normal(size=(cfg.patch_dim, cfg.embed_dim)))
    bias = Tensor(rng.normal(size=cfg.embed_dim))
    tokens = tubelet_embed(np.zeros((2, *cfg.image_dims)), weight, bias,
                           cfg.tubelet)
    np.testing.assert_allclose(
        tokens.data, np.tile(bias.data, (2, tokens.shape[1], 1)))


def test_tubelet_embed_identity_projection():
    cfg = TINY  # patch_dim == embed_dim == 8
    vol = np.random.default_rng(1).normal(size=(2, *cfg.image_dims))
    tokens = tubelet_embed(vol, Tensor(np.eye(8)), Tensor(np.zeros(8)),
                           cfg.tubelet)
    np.testing.assert_allclose(tokens.data,
                               extract_tubelet_patches(vol, cfg.tubelet))


@pytest.mark.parametrize("seed", range(6))
def test_tubelet_embed_matches_conv3d_oracle(seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(image_dims=(4, 6, 6, 2), tubelet=(2, 3, 2), embed_dim=6,
                      depth=1, heads=2, dropout_rate=0.0)
    vol = rng.normal(size=cfg.image_dims)
    weight = rng.normal(size=(cfg.patch_dim, cfg.embed_dim))
    bias = rng.normal(size=cfg.embed_dim)
    tokens = tubelet_embed(vol[None], Tensor(weight), Tensor(bias),
                           cfg.tubelet).data[0]
    np.testing.assert_allclose(tokens, conv3d_oracle(vol, weight, bias,
                                                     cfg.tubelet), atol=1e-10)


def test_add_cls_and_pos_zero_tokens():
    rng = np.random.default_rng(2)
    cls = Tensor(rng.normal(size=(1, 8)))
    pos = Tensor(np.zeros((5, 8)))
    out = add_cls_and_pos(Tensor(np.zeros((3, 4, 8))), cls, pos)
    assert out.shape == (3, 5, 8)
    for b in range(3):
        np.testing.assert_allclose(out.data[b, 0], cls.data[0])


def test_add_cls_and_pos_positional_table():
    pos = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
    out = add_cls_and_pos(Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((1, 8))),
                          pos)
    for b in range(2):
        np.testing.assert_allclose(out.data[b], pos.data)


def test_attention_block_zero_weights_is_identity():
    cfg = TINY
    params = init_params(cfg, 0)
    for name in params:
        if ".block0." in name and (".attn.w" in name or ".mlp.w" in name):
            params[name] = Tensor(np.zeros(params[name].shape),
                                  requires_grad=True)
    x = np.random.default_rng(4).normal(size=(2, 5, 8))
    out = attention_block(Tensor(x), params, "branch0.block0", cfg.heads,
                          0.0, False, None)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_attention_single_token_is_softmax_of_singleton():
    cfg = ModelConfig(image_dims=(2, 2, 2, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, dropout_rate=0.0)
    params = init_params(cfg, 1)
    x = np.random.default_rng(5).normal(size=(1, 1, 8))
    out = attention_block(Tensor(x), params, "branch0.block0", cfg.heads,
                          0.0, False, None)
    assert out.shape == (1, 1, 8)  # softmax over a singleton is [[1]]


def test_encode_image_branch_shape_and_determinism():
    cfg = TINY
    params = init_params(cfg, 7)
    vol = np.random.default_rng(6).normal(size=(3,) + tuple(cfg.image_dims))
    a = encode_image_branch(vol, params, 0, cfg).data
    b = encode_image_branch(vol, params, 0, cfg).data
    assert a.shape == (3, cfg.embed_dim)
    np.testing.assert_array_equal(a, b)


def test_mlp_branch_zero_weights():
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, tabular_hidden=(16, 8),
                      dropout_rate=0.0)
    params = {f"tabular.layer{j}.weight": Tensor(np.zeros(s))
              for j, s in enumerate([(4, 16), (16, 8)])}
    params |= {f"tabular.layer{j}.bias": Tensor(np.zeros(s))
               for j, s in enumerate([(16,), (8,)])}
    out = mlp_branch_forward(np.ones((1, 4)), params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros((1, 8)))
    assert out.shape == (1, 8)


def test_fuse_classify_zero_head_is_uniform():
    cfg = TINY
    params = init_params(cfg, 0)
    params["head.weight"] = Tensor(np.zeros(params["head.weight"].shape))
    emb = Tensor(np.random.default_rng(8).normal(size=(3, cfg.fused_width)))
    probs = fuse_classify([emb], params, cfg)
    np.testing.assert_allclose(probs.data, np.full((3, 2), 0.5))


def test_fuse_classify_concat_width():
    shapes = param_shapes(ModelConfig(image_dims=(2, 4, 4, 1),
                                      tubelet=(2, 2, 2), embed_dim=64,
                                      depth=1, heads=2, tabular_hidden=(16, 8)))
    assert shapes["head.weight"] == (8 + 64, 2)


def test_fuse_classify_empty_errors():
    with pytest.raises(ValueError):
        fuse_classify([], init_params(TINY, 0), TINY)


def test_forward_all_zero_params_uniform():
    cfg = TINY
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in param_shapes(cfg).items()}
    rng = np.random.default_rng(9)
    probs = forward(cfg, params, rng.random(4), [rng.random(cfg.image_dims)])
    np.testing.assert_allclose(probs.data, [0.5, 0.5])


def test_forward_probabilities_sum_to_one():
    cfg = TINY
    params = init_params(cfg, 3)
    rng = np.random.default_rng(10)
    probs = forward_batch(cfg, params, rng.random((4, 4)),
                          [rng.random((4,) + tuple(cfg.image_dims))])
    np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(4), atol=1e-9)


def test_forward_missing_branch_errors():
    cfg = TINY
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        forward_batch(cfg, params, np.zeros((1, 4)), [])
    with pytest.raises(ValueError):
        forward_batch(cfg, params, None,
                      [np.zeros((1,) + tuple(cfg.image_dims))])


def test_multi_branch_config_shapes():
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, tabular_hidden=(4,), num_branches=6)
    shapes = param_shapes(cfg)
    assert shapes["head.weight"] == (6 * 8 + 4, 2)
    assert "branch5.tubelet.weight" in shapes


def test_init_params_deterministic_and_seed_sensitive():
    a = init_params(TINY, 42)
    b = init_params(TINY, 42)
    c = init_params(TINY, 43)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any((a[n].data != c[n].data).any() for n in a)


def test_shape_audit_table_config():
    cfg = ModelConfig()  # (25,32,32,3), tubelet (5,8,8)
    shapes = param_shapes(cfg)
    params = init_params(cfg, 0)
    assert set(shapes) == set(params)
    for name, shape in shapes.items():
        assert params[name].shape == shape
    assert shapes["branch0.pos"] == (81, 64)
    assert shapes["branch0.tubelet.weight"] == (5 * 8 * 8 * 3, 64)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ModelConfig(image_dims=(25, 32, 32, 3), tubelet=(4, 8, 8))
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(mode="banana")


def test_permutation_invariance_with_zero_pos():
    """With pos zeroed, permuting tubelet order cannot change the readout."""
    cfg = TINY
    params = init_params(cfg, 11)
    params["branch0.pos"] = Tensor(np.zeros(params["branch0.pos"].shape),
                                   requires_grad=True)
    rng = np.random.default_rng(12)
    vol = rng.normal(size=cfg.image_dims)
    patches = extract_tubelet_patches(vol[None], cfg.tubelet)[0]
    perm = rng.permutation(patches.shape[0])
    permuted = _volume_from_patches(patches[perm], cfg.image_dims, cfg.tubelet)
    a = encode_image_branch(vol[None], params, 0, cfg).data
    b = encode_image_branch(permuted[None], params, 0, cfg).data
    np.testing.assert_allclose(a, b, atol=1e-9)


def _volume_from_patches(patches, image_dims, tubelet):
    """Inverse of extract_tubelet_patches (test-side reassembly)."""
    T, H, W, C = image_dims
    t, h, w = tubelet
    blocks = patches.reshape(T // t, H // h, W // w, t, h, w, C)
    blocks = blocks.transpose(0, 3, 1, 4, 2, 5, 6)
    return blocks.reshape(T, H, W, C)


def test_volume_patch_round_trip():
    rng = np.random.default_rng(13)
    vol = rng.normal(size=(4, 6, 6, 2))
    patches = extract_tubelet_patches(vol[None], (2, 3, 2))[0]
    np.testing.assert_array_equal(
        _volume_from_patches(patches, (4, 6, 6, 2), (2, 3, 2)), vol)


def test_image_only_equals_mixed_with_zero_width_tabular():
    image_only = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2),
                             embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                             mode="image-only")
    mixed = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2),
                        embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                        tabular_dim=4, tabular_hidden=(0,), mode="mixed")
    p_img = init_params(image_only, 5)
    p_mix = init_params(mixed, 5)
    for name, tensor in p_img.items():
        p_mix[name] = tensor  # share image + head weights
    rng = np.random.default_rng(14)
    vols = [rng.random((3, 2, 4, 4, 1))]
    a = forward_batch(image_only, p_img, None, vols).data
    b = forward_batch(mixed, p_mix, rng.random((3, 4)), vols).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_grad_check_attention_block():
    from mixedvit.tensor import grad_check
    cfg = TINY
    shapes = {k: v for k, v in param_shapes(cfg).items() if ".block0." in k}
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1, 3, 8))
    theta = rng.normal(scale=0.5, size=sum(np.prod(s) for s in shapes.values()))
    weights = rng.normal(size=(1, 3, 8))

    def f(vec):
        p = params_from_vector(vec, shapes)
        out = attention_block(Tensor(x), p, "branch0.block0", cfg.heads,
                              0.0, False, None)
        return weighted_sum(out, weights)

    assert grad_check(f, theta) < 1e-5


def test_grad_check_mlp_branch():
    from mixedvit.tensor import grad_check
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, tabular_dim=3, tabular_hidden=(5, 4),
                      dropout_rate=0.0)
    shapes = {k: v for k, v in param_shapes(cfg).items()
              if k.startswith("tabular.")}
    rng = np.random.default_rng(16)
    feats = rng.random((2, 3))
    weights = rng.normal(size=(2, 4))
    theta = rng.normal(scale=0.5, size=sum(np.prod(s) for s in shapes.values()))

    def f(vec):
        p = params_from_vector(vec, shapes)
        return weighted_sum(mlp_branch_forward(feats, p, cfg), weights)

    assert grad_check(f, theta) < 1e-5


def test_grad_check_image_branch_tiny():
    from mixedvit.tensor import grad_check
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, dropout_rate=0.0, mode="image-only")
    shapes = {k: v for k, v in param_shapes(cfg).items()
              if k.startswith("branch0.")}
    rng = np.random.default_rng(17)
    vol = rng.random((1, 2, 4, 4, 1))
    weights = rng.normal(size=(1, 8))
    theta = rng.normal(scale=0.3, size=sum(np.prod(s) for s in shapes.values()))

    def f(vec):
        p = params_from_vector(vec, shapes)
        return weighted_sum(encode_image_branch(vol, p, 0, cfg), weights)

    assert grad_check(f, theta) < 1e-5


def test_checkpoint_round_trip_byte_exact(tmp_path):
    params = init_params(TINY, 21)
    path1 = tmp_path / "a.mwt"
    path2 = tmp_path / "b.mwt"
    save_checkpoint(path1, params)
    loaded = load_checkpoint(path1)
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    save_checkpoint(path2, loaded)
    assert path1.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.mwt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(M.CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(TINY, 2)
    path = tmp_path / "trunc.mwt"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 16])
    with pytest.raises(M.CheckpointError):
        load_checkpoint(path)


def _checkpoint_blob(manifest: dict, payload: bytes = b"") -> bytes:
    text = json.dumps(manifest).encode("utf-8")
    return M.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + payload


@pytest.mark.parametrize("blob", [
    b"MWT1x",  # shorter than the 8-byte header
    _checkpoint_blob({"params": []}),  # no entries list
    _checkpoint_blob({"entries": {"name": "w"}}),
    _checkpoint_blob({"entries": [{"name": "w", "shape": [1],
                                   "offset": -8}]}, b"\0" * 16),
    _checkpoint_blob({"entries": [{"name": "w", "shape": [1]}]}, b"\0" * 8),
    _checkpoint_blob({"entries": [{"name": "w", "shape": [-1],
                                   "offset": 0}]}, b"\0" * 8),
    _checkpoint_blob({"entries": [{"name": "w", "shape": [1], "offset": 0},
                                  {"name": "w", "shape": [1], "offset": 8}]},
                     b"\0" * 16),
    _checkpoint_blob({"entries": ["w"]}, b"\0" * 8),
    _checkpoint_blob({"entries": [{"name": "a", "shape": [2], "offset": 0},
                                  {"name": "b", "shape": [2], "offset": 8}]},
                     b"\0" * 24),
], ids=["short_header", "no_entries", "entries_not_list", "negative_offset",
        "no_offset", "negative_dim", "repeated_name", "entry_not_object",
        "overlapping_entries"])
def test_checkpoint_malformed(tmp_path, blob):
    path = tmp_path / "bad.mwt"
    path.write_bytes(blob)
    with pytest.raises(M.CheckpointError):
        load_checkpoint(path)


def test_flatten_and_unflatten_agree():
    params = init_params(TINY, 31)
    shapes = param_shapes(TINY)
    vec = flatten_params(params)
    rebuilt = params_from_vector(Tensor(vec), shapes)
    for name in params:
        np.testing.assert_array_equal(rebuilt[name].data, params[name].data)
