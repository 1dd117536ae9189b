import dataclasses
import io
import math
import warnings
import zipfile
from collections import Counter

import numpy as np
import pytest

from mixedvit import model as M
from mixedvit import tensor as T
from mixedvit.train import batch_loss
from mixedvit.tensor import Tape, Tensor, backward
from mixedvit.model import (
    ConfigError,
    ModelConfig,
    add_cls_and_pos,
    attention_block,
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

from helpers import (
    forward,
    grad_check,
    reference_encode_image_branch,
    reference_trunc_normal,
    reference_tubelet_patches,
    weighted_sum,
)

TINY = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                   depth=1, heads=2, dropout_rate=0.0, tabular_hidden=(4,),
                   num_branches=1)


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


def test_n_tokens_table_config():
    assert ModelConfig(image_dims=(25, 32, 32, 3),
                       tubelet=(5, 8, 8)).n_tokens == 80


def test_n_tokens_whole_volume():
    assert ModelConfig(image_dims=(25, 32, 32, 3),
                       tubelet=(25, 32, 32)).n_tokens == 1


def test_n_tokens_non_divisible_config_raises():
    with pytest.raises(ConfigError, match="does not divide"):
        ModelConfig(image_dims=(25, 32, 32, 3), tubelet=(4, 8, 8))


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
                          0.0, None)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_attention_single_token_is_softmax_of_singleton():
    cfg = ModelConfig(image_dims=(2, 2, 2, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, dropout_rate=0.0)
    params = init_params(cfg, 1)
    x = np.random.default_rng(5).normal(size=(1, 1, 8))
    out = attention_block(Tensor(x), params, "branch0.block0", cfg.heads,
                          0.0, None)
    assert out.shape == (1, 1, 8)  # softmax over a singleton is [[1]]


def test_encode_image_branch_shape_and_determinism():
    cfg = TINY
    params = init_params(cfg, 7)
    vol = np.random.default_rng(6).normal(size=(3,) + tuple(cfg.image_dims))
    a = encode_image_branch(vol, params, 0, cfg).data
    b = encode_image_branch(vol, params, 0, cfg).data
    assert a.shape == (3, cfg.embed_dim)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("with_rng", [False, True])
@pytest.mark.parametrize("blocks", ["one", "per_element"])
def test_encode_image_branch_matches_all_rows_reference(depth, with_rng,
                                                        blocks, monkeypatch):
    """The last block computes the class row only: the embedding, every
    gradient and the generator's end state are those of the branch that
    runs it on all rows and then takes row 0."""
    cfg = ModelConfig(image_dims=(4, 8, 8, 2), tubelet=(2, 4, 4),
                      embed_dim=8, depth=depth, heads=2, dropout_rate=0.3,
                      mode="image-only")
    if blocks == "per_element":
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 1)
    params = init_params(cfg, 8)
    rng = np.random.default_rng(9)
    vol = rng.random((3,) + cfg.image_dims)
    weights = rng.normal(size=(3, cfg.embed_dim))
    results = []
    for encode in (encode_image_branch, reference_encode_image_branch):
        drop_rng = np.random.default_rng(10)
        with Tape():
            out = encode(vol, params, 0, cfg, drop_rng if with_rng else None)
            root = weighted_sum(out, weights)
        backward(root)
        results.append((out.data, {k: p.grad for k, p in params.items()
                                   if p.grad is not None},
                        drop_rng.bit_generator.state))
        for p in params.values():
            p.grad = None
    (out, grads, state), (ref, ref_grads, ref_state) = results
    assert out.shape == ref.shape == (3, cfg.embed_dim)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12,
                                   err_msg=name)
    assert state == ref_state


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
    np.testing.assert_allclose(probs, [0.5, 0.5])


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


def test_forward_batch_is_the_one_reader_of_training():
    """Training mode at a rate above 0 needs an rng, and draws from it;
    eval mode ignores a given rng, draws nothing from it, and gives the
    probabilities of a call without one, as does rate 0 in training mode."""
    cfg = dataclasses.replace(TINY, dropout_rate=0.3)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(9)
    batch = (rng.random((3, 4)), [rng.random((3,) + cfg.image_dims)])
    with pytest.raises(ValueError,
                       match="dropout in training mode requires an rng"):
        forward_batch(cfg, params, *batch, training=True)
    bare = forward_batch(cfg, params, *batch).data
    given = np.random.default_rng(1)
    evaluated = forward_batch(cfg, params, *batch, False, given).data
    assert evaluated.tobytes() == bare.tobytes()
    assert given.random() == np.random.default_rng(1).random()
    trained = forward_batch(cfg, params, *batch, True,
                            np.random.default_rng(1)).data
    assert trained.tobytes() != bare.tobytes()
    no_rate = dataclasses.replace(cfg, dropout_rate=0.0)
    assert forward_batch(no_rate, params, *batch, True).data.tobytes() == \
        bare.tobytes()


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


def test_paper_training_forward_records_its_ops_only():
    """A paper-config training forward and its loss record one node per op:
    62 on volumes of independent channels, and 63 on crops, whose one
    stored plane adds the ``channel_sum`` of the folded tubelet weight. The
    60 parameters are the nodes' leaf parents, not nodes."""
    cfg = ModelConfig()
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    crops = [np.broadcast_to(rng.random((25, 32, 32, 1)), (25, 32, 32, 3))
             for _ in range(2)]  # as data.scale_volume makes them
    ops = {"linear": 20, "add": 10, "layer_norm": 9, "concat": 6, "gelu": 5,
           "dropout": 5, "attention": 4, "first_token": 1, "softmax": 1,
           "nll": 1}
    for volumes, folded in ((rng.random((2, 25, 32, 32, 3)), 0), (crops, 1)):
        with Tape() as tape:
            probs = forward_batch(cfg, params, rng.random((2, 4)), [volumes],
                                  True, np.random.default_rng(1))
            T.nll(probs, [0, 1])
        # Counters compare a missing op as a count of 0.
        assert Counter(node.op for node in tape.nodes) == Counter(
            ops, channel_sum=folded)
        assert len(tape.nodes) == 62 + folded
        leaves = {id(p) for node in tape.nodes for p in node.parents
                  if isinstance(p, Tensor)}
        assert leaves == {id(p) for p in params.values()}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ModelConfig(image_dims=(25, 32, 32, 3), tubelet=(4, 8, 8))
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(mode="banana")


CI_CONFIG = {"image_dims": (8, 16, 16, 1), "tubelet": (4, 8, 8),
             "embed_dim": 8, "depth": 1, "heads": 2, "tabular_hidden": (8, 4)}


@pytest.mark.parametrize("cfg,expected", [
    (ModelConfig(), 200_106),
    (ModelConfig(tubelet=(25, 8, 8), mode=M.MODE_IMAGE_ONLY,
                 num_branches=2), 883_074),
    (ModelConfig(**CI_CONFIG), None),
    (ModelConfig(**{**CI_CONFIG, "image_dims": (8, 16, 16, 3)}), None),
    (ModelConfig(**{**CI_CONFIG, "depth": 2}, num_branches=2), None),
    (TINY, None),
], ids=["paper", "cv_coarse", "ci", "ci_3_channels", "ci_depth2_two_rois",
        "tiny"])
def test_n_params_counts_param_shapes(cfg, expected):
    assert cfg.n_params == sum(math.prod(shape)
                               for shape in param_shapes(cfg).values())
    if expected is not None:
        assert cfg.n_params == expected


def test_parameter_budget_admits_its_bound(monkeypatch):
    monkeypatch.setattr(M, "MAX_PARAMS", 200_106)
    ModelConfig()
    monkeypatch.setattr(M, "MAX_PARAMS", 200_105)
    with pytest.raises(ConfigError, match="200,106 parameters"):
        ModelConfig()


def test_attention_budget_admits_its_bound(monkeypatch):
    monkeypatch.setattr(M, "MAX_ATTENTION_BYTES", 419_904)
    ModelConfig()
    monkeypatch.setattr(M, "MAX_ATTENTION_BYTES", 419_903)
    with pytest.raises(ConfigError, match="8 heads over 81 tokens take "
                                          "419,904 bytes"):
        ModelConfig()


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


def _broadcast_views(rng, n, dims):
    """``n`` read-only (T, H, W, 1) planes, each broadcast to (T, H, W, C)."""
    views = []
    for _ in range(n):
        plane = rng.random((*dims[:3], 1))
        plane.flags.writeable = False
        views.append(np.broadcast_to(plane, dims))
    return views


@pytest.mark.parametrize("dims, tubelet", [
    ((4, 8, 8, 1), (2, 4, 4)),
    ((4, 8, 8, 3), (2, 4, 4)),
    ((6, 8, 12, 3), (3, 2, 4)),  # a non-cubic tubelet
])
def test_patches_of_broadcast_views_equal_stacked_full_copies(dims, tubelet):
    views = _broadcast_views(np.random.default_rng(14), 3, dims)
    patches = extract_tubelet_patches(views, tubelet)
    expected = reference_tubelet_patches(views, tubelet)
    assert patches.dtype == expected.dtype == np.float64
    assert patches.shape == expected.shape
    assert patches.tobytes() == expected.tobytes()


def test_patches_of_an_array_equal_patches_of_its_rows():
    vol = np.random.default_rng(15).normal(size=(3, 6, 8, 12, 2))
    patches = extract_tubelet_patches(vol, (3, 2, 4))
    assert patches.tobytes() == extract_tubelet_patches(
        list(vol), (3, 2, 4)).tobytes()
    assert patches.tobytes() == reference_tubelet_patches(
        list(vol), (3, 2, 4)).tobytes()


# The paper config at its batch, and cv_coarse's: two image-only ROI
# branches, a whole-depth 25x8x8 tubelet, B=8.
_FOLD_CONFIGS = {
    "paper": (ModelConfig(), 6),
    "cv_coarse": (ModelConfig(tubelet=(25, 8, 8), mode="image-only",
                              num_branches=2), 8),
}


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("shape", sorted(_FOLD_CONFIGS))
def test_folded_tubelet_embed_matches_contiguous_channels(shape, training):
    """Volumes whose channels are one broadcast plane, as crops are, take
    the folded tubelet product; contiguous copies of them take the full
    one. Probabilities agree within 1e-14, every gradient within 1e-12 of
    its norm."""
    cfg, batch = _FOLD_CONFIGS[shape]
    rng = np.random.default_rng(17)
    tabular = rng.random((batch, cfg.tabular_dim))
    views = [_broadcast_views(rng, batch, cfg.image_dims)
             for _ in range(cfg.num_branches)]
    copies = [[np.array(v) for v in branch] for branch in views]
    runs = []
    for volumes in (views, copies):
        params = init_params(cfg, 18)
        with Tape() as tape:
            probs = forward_batch(cfg, params, tabular, volumes, training,
                                  np.random.default_rng(19))
            loss = T.nll(probs, np.arange(batch) % 2)
        backward(loss)
        runs.append((probs.data, {n: p.grad for n, p in params.items()},
                     Counter(node.op for node in tape.nodes)))
    (probs, grads, ops), (ref, ref_grads, ref_ops) = runs
    assert ops["channel_sum"] == cfg.num_branches
    assert ref_ops["channel_sum"] == 0
    assert np.abs(probs - ref).max() <= 1e-14
    assert grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        assert np.abs(grads[name] - grad).max() <= \
            1e-12 * np.linalg.norm(grad), name


@pytest.mark.parametrize("batch, image_dims, tubelet", [
    (8, (25, 32, 32, 3), (25, 8, 8)),  # cv_coarse
    (6, (25, 32, 32, 3), (5, 8, 8)),  # the paper config
    (4, (8, 16, 16, 3), (4, 8, 8)),  # the CLI tests' tubelet, three channels
])
def test_folded_tubelet_weight_gradient_is_the_full_patch_product(
        batch, image_dims, tubelet):
    """For one upstream gradient g, the folded weight gradient (the
    one-channel product, repeated along the channel rows) equals P.T @ g of
    the full C-channel patch matrix P bit for bit."""
    rng = np.random.default_rng(20)
    views = _broadcast_views(rng, batch, image_dims)
    K, d = math.prod(tubelet) * image_dims[3], 64
    weight = Tensor(rng.normal(0.0, 0.02, size=(K, d)), requires_grad=True)
    bias = Tensor(np.zeros(d), requires_grad=True)
    P = extract_tubelet_patches(views, tubelet)
    g = rng.normal(size=(*P.shape[:2], d))
    with Tape() as tape:
        root = weighted_sum(tubelet_embed(views, weight, bias, tubelet), g)
    backward(root)
    assert [node.op for node in tape.nodes] == ["channel_sum", "linear",
                                                "weighted_sum"]
    want = P.reshape(-1, K).T @ g.reshape(-1, d)
    assert weight.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, folds", [
    ("broadcast_list", True),
    ("broadcast_array", True),
    ("independent_list", False),
    ("independent_array", False),
    ("one_broadcast_one_copy", False),
    ("one_channel", False),
])
def test_only_volumes_with_stride_0_channels_fold(kind, folds):
    """The fold applies when C > 1 and every volume's channel axis has
    stride 0; any other input is projected as it is, by today's product of
    the full patch matrix, bit for bit."""
    rng = np.random.default_rng(21)
    dims = (4, 8, 8, 1 if kind == "one_channel" else 3)
    views = _broadcast_views(rng, 2, dims)
    volumes = {
        "broadcast_list": views,
        "broadcast_array": np.broadcast_to(views[0], (2, *dims)),
        "independent_list": list(rng.random((2, *dims))),
        "independent_array": rng.random((2, *dims)),
        "one_broadcast_one_copy": [views[0], np.array(views[1])],
        "one_channel": views,
    }[kind]
    K = 2 * 4 * 4 * dims[3]
    weight = Tensor(rng.normal(size=(K, 5)), requires_grad=True)
    bias = Tensor(rng.normal(size=5), requires_grad=True)
    with Tape() as tape:
        tokens = tubelet_embed(volumes, weight, bias, (2, 4, 4))
    assert [node.op for node in tape.nodes] == (
        ["channel_sum", "linear"] if folds else ["linear"])
    P = extract_tubelet_patches(volumes, (2, 4, 4))
    want = (P.reshape(-1, K) @ weight.data).reshape(2, -1, 5) + bias.data
    if folds:
        np.testing.assert_allclose(tokens.data, want, rtol=0, atol=1e-14)
    else:
        assert tokens.data.tobytes() == want.tobytes()


def test_encode_image_branch_list_with_one_misshapen_image_raises():
    cfg = TINY
    params = init_params(cfg, 7)
    images = list(np.random.default_rng(16).normal(size=(3, *cfg.image_dims)))
    images[1] = images[1][:, :2]
    with pytest.raises(ConfigError, match="image_dims"):
        encode_image_branch(images, params, 0, cfg)


@pytest.mark.parametrize("shape", [(4800, 64), (960, 64), (64, 64), (3, 5)])
@pytest.mark.parametrize("seed", range(5))
def test_trunc_normal_equals_whole_array_redraw(shape, seed):
    """Redrawing only the rejected entries takes the same draws, in the same
    order, as redrawing and re-checking the whole array each round."""
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = M._trunc_normal(got_rng, shape, 0.02)
    want = reference_trunc_normal(want_rng, shape, 0.02)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.abs(got).max() <= 0.04


# Two ROI branches and the tabular branch, at a width where each reaches the
# logits through initial weights.
WIRED = dataclasses.replace(TINY, num_branches=2)
BRANCHES = ["tabular", "branch0", "branch1"]


def _wired_batch(batch: int = 4):
    rng = np.random.default_rng(22)
    return rng.random((batch, 4)), [rng.random((batch,) + WIRED.image_dims)
                                    for _ in range(WIRED.num_branches)]


@pytest.mark.parametrize("branch", BRANCHES)
def test_permuting_one_branch_across_the_batch_changes_the_probabilities(
        branch):
    """Each branch is wired in: rolling one branch's inputs by one sample,
    the others kept, changes every sample's eval-mode probabilities."""
    params = init_params(WIRED, 6)
    tabular, volumes = _wired_batch()
    before = forward_batch(WIRED, params, tabular, volumes).data
    if branch == "tabular":
        tabular = np.roll(tabular, 1, axis=0)
    else:
        i = BRANCHES.index(branch) - 1
        volumes[i] = np.roll(volumes[i], 1, axis=0)
    after = forward_batch(WIRED, params, tabular, volumes).data
    assert np.all(np.abs(after - before).max(axis=1) > 1e-9)


def test_each_branch_input_weight_gets_a_gradient():
    """A training step's loss reaches each ROI branch's tubelet weight and
    the tabular branch's first layer."""
    params = init_params(WIRED, 6)
    with Tape():
        probs = forward_batch(WIRED, params, *_wired_batch(), True,
                              np.random.default_rng(3))
        backward(batch_loss(probs, np.array([0, 1, 0, 1])))
    for name in ("tabular.layer0.weight", "branch0.tubelet.weight",
                 "branch1.tubelet.weight"):
        grad = params[name].grad
        assert grad is not None and np.any(grad != 0), name


def test_image_only_equals_mixed_with_zeroed_tabular_head_rows():
    image_only = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2),
                             embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                             mode="image-only")
    mixed = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2),
                        embed_dim=8, depth=1, heads=2, dropout_rate=0.0,
                        tabular_hidden=(3,), mode="mixed")
    p_img = init_params(image_only, 5)
    p_mix = init_params(mixed, 5)
    for name, tensor in p_img.items():
        p_mix[name] = tensor  # share image + head weights
    # The tabular embedding comes first in the fused row; its head rows are
    # zero, so only the image embedding reaches the logits.
    p_mix["head.weight"] = Tensor(np.vstack([np.zeros((3, 2)),
                                             p_img["head.weight"].data]))
    rng = np.random.default_rng(14)
    vols = [rng.random((3, 2, 4, 4, 1))]
    a = forward_batch(image_only, p_img, None, vols).data
    b = forward_batch(mixed, p_mix, rng.random((3, 4)), vols).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def grad_check_params(f, shapes: dict, rng: np.random.Generator,
                      scale: float) -> dict:
    """grad_check of ``f`` (params dict -> scalar) against each parameter
    tensor in turn, substituted into a dict of normal(0, ``scale``) draws
    held as constants: name -> max relative error."""
    values = {name: rng.normal(scale=scale, size=shape)
              for name, shape in shapes.items()}
    errors = {}
    for name in values:
        def with_param(t, name=name):
            return f({k: Tensor(v) for k, v in values.items()} | {name: t})
        errors[name] = grad_check(with_param, values[name])
    return errors


def test_grad_check_attention_block():
    cfg = TINY
    shapes = {k: v for k, v in param_shapes(cfg).items() if ".block0." in k}
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1, 3, 8))
    weights = rng.normal(size=(1, 3, 8))

    def f(p):
        out = attention_block(Tensor(x), p, "branch0.block0", cfg.heads,
                              0.0, None)
        return weighted_sum(out, weights)

    errors = grad_check_params(f, shapes, rng, 0.5)
    assert max(errors.values()) < 1e-5, errors


def test_grad_check_mlp_branch():
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, tabular_hidden=(5, 4),
                      dropout_rate=0.0)
    shapes = {k: v for k, v in param_shapes(cfg).items()
              if k.startswith("tabular.")}
    rng = np.random.default_rng(16)
    feats = rng.random((2, 4))
    weights = rng.normal(size=(2, 4))

    def f(p):
        return weighted_sum(mlp_branch_forward(feats, p, cfg), weights)

    errors = grad_check_params(f, shapes, rng, 0.5)
    assert max(errors.values()) < 1e-5, errors


def test_grad_check_image_branch_tiny():
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=1, heads=2, dropout_rate=0.0, mode="image-only")
    shapes = {k: v for k, v in param_shapes(cfg).items()
              if k.startswith("branch0.")}
    rng = np.random.default_rng(17)
    vol = rng.random((1, 2, 4, 4, 1))
    weights = rng.normal(size=(1, 8))

    def f(p):
        return weighted_sum(encode_image_branch(vol, p, 0, cfg), weights)

    errors = grad_check_params(f, shapes, rng, 0.3)
    assert max(errors.values()) < 1e-5, errors


def test_grad_check_image_branch_depth_two():
    """Block 0 runs on every row and block 1 on the class row alone, both
    with dropout drawn from a fixed seed."""
    cfg = ModelConfig(image_dims=(2, 4, 4, 1), tubelet=(2, 2, 2), embed_dim=8,
                      depth=2, heads=2, dropout_rate=0.3, mode="image-only")
    shapes = {k: v for k, v in param_shapes(cfg).items()
              if k.startswith("branch0.")}
    rng = np.random.default_rng(18)
    vol = rng.random((2, 2, 4, 4, 1))
    weights = rng.normal(size=(2, 8))

    def f(p):
        out = encode_image_branch(vol, p, 0, cfg, np.random.default_rng(19))
        return weighted_sum(out, weights)

    errors = grad_check_params(f, shapes, rng, 0.3)
    assert max(errors.values()) < 1e-5, errors


def test_checkpoint_round_trip_byte_exact(tmp_path):
    params = init_params(TINY, 21)
    path1 = tmp_path / "a.npz"
    path2 = tmp_path / "b.npz"
    save_checkpoint(path1, params)
    loaded = load_checkpoint(path1)
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    save_checkpoint(path2, loaded)
    assert path1.read_bytes() == path2.read_bytes()


def test_checkpoint_is_an_npz_of_float64_arrays_in_name_order(tmp_path):
    params = init_params(TINY, 4)
    path = tmp_path / "ckpt"  # no suffix is appended to the path given
    save_checkpoint(path, params)
    assert not (tmp_path / "ckpt.npz").exists()
    with zipfile.ZipFile(path) as archive:
        assert archive.namelist() == [f"{n}.npy" for n in sorted(params)]
    with np.load(path, allow_pickle=False) as archive:
        for name, param in params.items():
            assert archive[name].dtype == np.float64
            np.testing.assert_array_equal(archive[name], param.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.npz"  # not a zip archive
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(M.CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(TINY, 2)
    path = tmp_path / "trunc.npz"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 16])
    with pytest.raises(M.CheckpointError):
        load_checkpoint(path)


def _npz(members) -> bytes:
    """A zip archive holding ``members``, (name, bytes) pairs, stored
    uncompressed as np.savez writes them."""
    buf = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a repeated name
        with zipfile.ZipFile(buf, "w") as archive:
            for name, blob in members:
                archive.writestr(name, blob)
    return buf.getvalue()


def _npy(arr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=True)
    return buf.getvalue()


def _npy_header(text: str) -> bytes:
    """A version 1.0 .npy member with header ``text`` and 8 payload bytes."""
    line = text.encode("latin1") + b"\n"
    return (np.lib.format.MAGIC_PREFIX + b"\x01\x00"
            + len(line).to_bytes(2, "little") + line + bytes(8))


def _flipped_payload_byte() -> bytes:
    blob = bytearray(_npz([("w.npy", _npy(np.arange(4.0)))]))
    blob[blob.index(np.float64(1.0).tobytes())] ^= 0x01
    return bytes(blob)


def _overlapping_entries() -> bytes:
    """Two central-directory entries, a.npy and b.npy, both pointing at the
    local header of a.npy."""
    blob = bytearray(_npz([("a.npy", _npy(np.ones(2))),
                           ("b.npy", _npy(np.ones(2)))]))
    second = blob.index(b"PK\x01\x02", blob.index(b"PK\x01\x02") + 1)
    blob[second + 42:second + 46] = bytes(4)  # its local header offset
    return bytes(blob)


def _swallowed_entry() -> bytes:
    """A 4-member checkpoint whose third central-directory entry has bit 6
    of its comment length flipped, so it reads the fourth as its comment."""
    buf = io.BytesIO()
    np.savez(buf, a=np.ones((2, 3)), b=np.ones(4), c=np.ones(1),
             d=np.ones((3, 2)))
    blob = bytearray(buf.getvalue())
    third = -1
    for _ in range(3):
        third = blob.index(b"PK\x01\x02", third + 1)
    blob[third + 32] ^= 0x40  # low byte of the comment length
    return bytes(blob)


_F8 = "{'descr': '<f8', 'fortran_order': False, 'shape': "


@pytest.mark.parametrize("blob,cause", [
    (b"PK\x03\x04x", "not a zip file"),
    (_flipped_payload_byte(), "'w.npy' is damaged"),
    (_npz([("w.npy", _npy(np.ones(2))), ("notes.txt", b"not an array")]),
     "'notes.txt' is not float64"),
    (_npz([("w.npy", _npy(np.array([1.0, "x"], dtype=object)))]),
     "Object arrays cannot be loaded"),
    (_npz([("w.npy", _npy(np.arange(3)))]), "'w' is not float64"),
    (_npz([("w.npy", _npy_header(_F8 + "(-1,), }"))]), "negative dimensions"),
    (_npz([("w.npy", _npy(np.ones(1))), ("w.npy", _npy(np.ones(1)))]),
     "holds 'w' twice"),
    (_overlapping_entries(), "'b.npy' is damaged"),
    (_npz([("w.npy", _npy_header(_F8 + "(1,"))]), "EOF in multi-line"),
    (_swallowed_entry(), "lists 3 entries, its end record counts 4"),
    (_npz([("w.npy", _npy(np.array([1.0, np.nan])))]), "'w' is not finite"),
    (_npz([("w.npy", _npy(np.array([-np.inf])))]), "'w' is not finite"),
], ids=["short_header", "flipped_payload_byte", "not_npy_member",
        "object_array", "int64_member", "negative_dim", "repeated_name",
        "overlapping_entries", "unterminated_header", "swallowed_entry",
        "nan_member", "inf_member"])
def test_checkpoint_malformed(tmp_path, blob, cause):
    path = tmp_path / "bad.npz"
    path.write_bytes(blob)
    with pytest.raises(M.CheckpointError, match=cause):
        load_checkpoint(path)


def test_checkpoint_short_read_still_checks_crc(tmp_path):
    """A damaged .npy header length makes numpy read a large member short of
    its end, where zipfile checks the CRC-32; the load must still fail."""
    params = {"w": Tensor(np.arange(1024.0))}  # 8 KiB, past one zip read
    path = tmp_path / "w.npz"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    npy = blob.index(np.lib.format.MAGIC_PREFIX)
    header_len = npy + len(np.lib.format.MAGIC_PREFIX) + 2
    blob[header_len] -= 8  # the header still parses from its padding
    path.write_bytes(bytes(blob))
    with pytest.raises(M.CheckpointError, match="'w.npy' is damaged"):
        load_checkpoint(path)
