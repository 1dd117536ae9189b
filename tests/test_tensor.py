import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvit import tensor as T
from mixedvit.tensor import (
    Tape,
    Tensor,
    ShapeError,
    add,
    attention,
    backward,
    concat,
    dropout,
    first_token,
    gelu,
    layer_norm,
    linear,
    nll,
    softmax,
)

from helpers import (
    grad_check,
    reference_attention_grad,
    reference_layer_norm,
    weighted_sum,
)


def test_add_identity():
    out = add(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.data, [1.0, 2.0])


def test_add_incompatible_broadcast_names_shapes():
    with pytest.raises(ShapeError) as exc:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_bias_broadcast_add():
    out = add(Tensor(np.ones((3, 4))), Tensor(np.arange(4.0)))
    np.testing.assert_array_equal(out.data, np.ones((3, 4)) + np.arange(4.0))


# linear without a bias is the matrix product x @ w.
def test_linear_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = linear(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_linear_dot_product():
    out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_linear_mismatch():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_linear_batched_shape():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 2, 3))
    b = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 2, 4))
    with Tape():
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        out = linear(ta, tb)
        y = weighted_sum(out, w)
    backward(y)
    assert out.shape == (5, 2, 4)
    np.testing.assert_allclose(ta.grad, np.einsum("bmn,kn->bmk", w, b),
                               rtol=1e-12)
    np.testing.assert_allclose(tb.grad, np.einsum("bmk,bmn->kn", a, w),
                               rtol=1e-12)


def test_linear_is_matmul_plus_bias():
    rng = np.random.default_rng(6)
    for x_shape in ((4, 3), (2, 4, 3)):
        x, w, b = (rng.normal(size=s) for s in (x_shape, (3, 5), (5,)))
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x @ w + b)
        np.testing.assert_array_equal(linear(Tensor(x), Tensor(w)).data, x @ w)


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((4, 3), (3, 5), (4,)),
    ((4, 3), (3, 5), (1, 5)),
    ((4, 3), (2, 5), (5,)),
    ((2, 4, 3), (4, 5), (5,)),
    ((3,), (3, 5), (5,)),
], ids=["bias_length", "bias_rank", "inner", "inner_3d", "rank_1_input"])
def test_linear_rejects_mismatched_shapes(x_shape, w_shape, b_shape):
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
               Tensor(np.zeros(b_shape)))


def test_linear_constant_input_gets_no_gradient():
    rng = np.random.default_rng(7)
    with Tape() as tape:
        x = Tensor(rng.normal(size=(2, 4, 3)))
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        out = linear(x, w, b)
        y = weighted_sum(out)
    backward(y)
    assert x.grad is None
    assert not any(p is x for node in tape.nodes for p in node.parents)
    np.testing.assert_array_equal(w.grad, x.data.reshape(-1, 3).T @ np.ones((8, 5)))
    np.testing.assert_array_equal(b.grad, np.full(5, 8.0))
    node_grads = tape.nodes[out.node_id].backward_fn(np.ones((2, 4, 5)))
    assert node_grads[0] is None


def test_first_token_takes_row_zero_of_axis_one():
    x = np.arange(24.0).reshape(2, 3, 4)
    np.testing.assert_array_equal(first_token(Tensor(x)).data, x[:, 0])


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4, 5)],
                         ids=["rank_2", "rank_4"])
def test_first_token_rejects_non_3d_input(shape):
    with pytest.raises(ShapeError):
        first_token(Tensor(np.zeros(shape)))


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_closed_form():
    out = softmax(Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance_and_normalization(xs, c):
    x = np.array(xs)
    s1 = softmax(Tensor(x)).data
    s2 = softmax(Tensor(x + c)).data
    assert abs(s1.sum() - 1.0) < 1e-9
    assert (s1 >= 0).all()
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_layer_norm_derived():
    out = layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]),
                     Tensor([0.0, 0.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-12)


def test_layer_norm_constant_row():
    out = layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor(np.ones(3)),
                     Tensor(np.full(3, 5.0)), eps=1e-5)
    np.testing.assert_allclose(out.data, np.full((1, 3), 5.0), atol=1e-6)


def test_layer_norm_gamma_zero():
    out = layer_norm(Tensor([[1.0, 4.0]]), Tensor(np.zeros(2)),
                     Tensor([7.0, 8.0]))
    np.testing.assert_allclose(out.data, [[7.0, 8.0]])


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("width", [1, 3, 48, 64, 128])
def test_layer_norm_matches_mean_and_var_reference(width, offset):
    """Forward and backward agree with np.mean / np.var to 1e-12 of each
    result's scale. The inputs lie on a 2**-10 grid, so every row sum is
    exact in float64 whatever the summation order, and rows offset by 1e6
    test that the variance keeps full precision where E[x^2] - E[x]^2
    would lose about twelve digits. A constant row maps to beta."""
    rng = np.random.default_rng(width)
    x = np.round(rng.normal(size=(2, 7, width)) * 1024) / 1024 + offset
    x[0, 0] = offset - 7.25
    gamma, beta = rng.normal(size=width), rng.normal(size=width)
    g = rng.normal(size=x.shape)
    with Tape():
        inputs = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = layer_norm(*inputs)
        loss = weighted_sum(out, g)
    backward(loss)
    got = (out.data,) + tuple(t.grad for t in inputs)
    ref = reference_layer_norm(x, gamma, beta, g)
    for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, ref):
        np.testing.assert_allclose(a, b, rtol=1e-12,
                                   atol=1e-12 * np.abs(b).max(), err_msg=name)
    np.testing.assert_array_equal(got[0][0, 0], beta)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=10))
def test_layer_norm_standardizes(xs):
    x = np.array(xs)
    if x.std() < 1e-3:
        return
    out = layer_norm(Tensor(x), Tensor(np.ones(len(xs))),
                     Tensor(np.zeros(len(xs))), eps=0.0).data
    assert abs(out.mean()) < 1e-10
    assert abs(out.var() - 1.0) < 1e-8


def test_gelu_values():
    assert gelu(Tensor([0.0])).data[0] == 0.0
    # Phi(1) frozen from a high-precision normal-CDF oracle
    np.testing.assert_allclose(gelu(Tensor([1.0])).data[0],
                               0.8413447460685429, atol=1e-12)
    assert abs(gelu(Tensor([-10.0])).data[0]) < 1e-9


def test_dropout_rate_zero_identity():
    x = Tensor([1.0, 2.0])
    assert dropout(x, 0.0, training=True) is x


def test_dropout_inference_identity():
    x = Tensor([1.0, 2.0])
    assert dropout(x, 0.2, training=False) is x


def test_dropout_seeded_mask_repeats():
    x = Tensor(np.ones(100))
    a = dropout(x, 0.5, training=True, rng=np.random.default_rng(7)).data
    b = dropout(x, 0.5, training=True, rng=np.random.default_rng(7)).data
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 2.0}


def test_dropout_rate_out_of_range():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


_DROPOUT_OPS = {
    "dropout": lambda rate, rng: dropout(Tensor(np.ones((2, 6))), rate, True,
                                         rng),
    "attention": lambda rate, rng: attention(Tensor(np.ones((1, 2, 6))), 1,
                                             rate, True, rng),
}


@pytest.mark.parametrize("op", sorted(_DROPOUT_OPS))
@pytest.mark.parametrize("rate,rng,message", [
    (1.0, np.random.default_rng(0), r"dropout rate must be in \[0, 1\), got 1.0"),
    (-0.1, np.random.default_rng(0), r"dropout rate must be in \[0, 1\), got -0.1"),
    (0.2, None, "dropout in training mode requires an rng"),
    (0.2, np.random.Generator(np.random.MT19937(0)),
     "requires a PCG64 or PCG64DXSM generator, whose advance skips single "
     "draws; got MT19937"),
], ids=["rate_one", "rate_negative", "no_rng", "mt19937"])
def test_dropout_checks_are_shared_by_attention(op, rate, rng, message):
    with pytest.raises(ValueError, match=message):
        _DROPOUT_OPS[op](rate, rng)


def test_concat_vectors():
    out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_concat_shape_arithmetic():
    out = concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5)))], axis=1)
    assert out.shape == (2, 8)


def test_concat_incompatible():
    with pytest.raises(ShapeError):
        concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_nll_hand_arithmetic():
    with Tape():
        p = Tensor([[0.25, 0.75], [0.5, 0.5]], requires_grad=True)
        loss = nll(p, [1, 0])
    backward(loss)
    assert loss.shape == (1,)
    assert loss.item() == -(math.log(0.75) + math.log(0.5)) / 2
    # -1/(B p) at each label, 0 elsewhere.
    np.testing.assert_array_equal(p.grad, [[0.0, -0.5 / 0.75], [-1.0, 0.0]])


def test_nll_has_no_floor():
    with Tape():
        p = Tensor([[1.0 - 1e-20, 1e-20]], requires_grad=True)
        loss = nll(p, [1])
    backward(loss)
    assert loss.item() == -math.log(1e-20)
    np.testing.assert_array_equal(p.grad, [[0.0, -1e20]])


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_nll_of_zero_probability_is_inf():
    assert nll(Tensor([[1.0, 0.0]]), [1]).item() == math.inf


@pytest.mark.parametrize("probs,labels,error", [
    (np.full((2, 2), 0.5), [0], ShapeError),
    (np.full((2, 2), 0.5), [[0], [1]], ShapeError),
    (np.full(2, 0.5), [0, 1], ShapeError),
    (np.full((0, 2), 0.5), [], ShapeError),
    (np.full((2, 2), 0.5), [0, 2], ValueError),
    (np.full((2, 2), 0.5), [-1, 0], ValueError),
    (np.full((2, 2), 0.5), [0.0, 1.0], ValueError),
], ids=["short", "column", "one_dim", "empty", "too_large", "negative",
        "float"])
def test_nll_rejects_mismatched_labels(probs, labels, error):
    with pytest.raises(error):
        nll(Tensor(probs), labels)


def test_backward_square():
    with Tape():
        x = Tensor([[3.0]], requires_grad=True)
        y = linear(x, x)
    backward(y)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_backward_linear_identity_path():
    with Tape():
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        y = weighted_sum(linear(a, Tensor(np.eye(2))))
    backward(y)
    np.testing.assert_array_equal(a.grad, np.ones((2, 2)))


def test_backward_fanout_exact():
    with Tape():
        x = Tensor([5.0], requires_grad=True)
        y = weighted_sum(add(x, x))
    backward(y)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_skips_non_grad_leaves():
    for const_first in (False, True):
        with Tape() as tape:
            x = Tensor([[2.0]], requires_grad=True)
            c = Tensor([[3.0]])
            node = linear(c, x) if const_first else linear(x, c)
            y = weighted_sum(node)
        backward(y)
        np.testing.assert_array_equal(x.grad, [[3.0]])
        assert c.grad is None
        assert not any(p is c for n in tape.nodes for p in n.parents)
        # Only leaves receive a gradient; the node in between does not.
        assert node.grad is None
        # The op's backward computes no gradient for the constant.
        node_grads = tape.nodes[node.node_id].backward_fn(np.ones((1, 1)))
        assert node_grads[0 if const_first else 1] is None


def test_backward_rejects_non_scalar():
    with Tape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = add(x, x)
    with pytest.raises(ValueError):
        backward(y)


def test_grad_check_quadratic():
    err = grad_check(lambda x: weighted_sum(linear(x, x)),
                     np.array([[1.0, -2.0], [3.0, 0.5]]))
    assert err < 1e-8


def test_grad_check_constant():
    err = grad_check(lambda x: weighted_sum(x, np.zeros(3)), np.ones(3))
    assert err == 0.0


def _rng_shapes(rng, max_params=64):
    # m >= 3: normalizing a length-2 axis is piecewise constant (output
    # always +-1), which makes finite differences meaningless there.
    n = int(rng.integers(2, 9))
    m = int(rng.integers(3, min(8, max_params // n) + 1))
    return n, m


@pytest.mark.parametrize("seed", range(4))
def test_grad_check_every_op_random_shapes(seed):
    rng = np.random.default_rng(seed)
    n, m = _rng_shapes(rng)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(n, m))
    k = rng.normal(size=(m, n))
    w_qkv = rng.normal(size=(m, 6))
    labels = rng.integers(0, m, size=n)
    bias_n = rng.normal(size=n)
    b3 = rng.normal(size=(2, n, m))

    # name -> (f, theta): f is checked at theta, a in the shape f takes
    # (with b as a second batch element for first_token).
    checks = {
        "add": (lambda x: weighted_sum(add(x, Tensor(b)), a), a),
        "add_broadcast": (lambda x: weighted_sum(add(Tensor(b), x), a), a[0]),
        "linear_input_no_bias": (
            lambda x: weighted_sum(linear(x, Tensor(k))), a),
        "linear_weight_no_bias": (
            lambda x: weighted_sum(linear(Tensor(b), x)), a.reshape(m, n)),
        "linear_input": (lambda x: weighted_sum(
            linear(x, Tensor(k), Tensor(bias_n)), b @ k), a),
        "linear_input_3d": (lambda x: weighted_sum(
            linear(x, Tensor(k), Tensor(bias_n)), (b @ k)[:, None, :]),
            a.reshape(n, 1, m)),
        "linear_weight": (lambda x: weighted_sum(
            linear(Tensor(b), x, Tensor(bias_n)), b @ k), a.reshape(m, n)),
        "linear_weight_3d": (lambda x: weighted_sum(
            linear(Tensor(b3), x, Tensor(bias_n)), b3 @ k), a.reshape(m, n)),
        "linear_bias": (lambda x: weighted_sum(
            linear(Tensor(b), Tensor(k), x), b @ k), a[:, 0]),
        "linear_bias_3d": (lambda x: weighted_sum(
            linear(Tensor(b3), Tensor(k), x), b3 @ k), a[:, 0]),
        "softmax": (lambda x: weighted_sum(softmax(x), b), a),
        "layer_norm": (lambda x: weighted_sum(
            layer_norm(x, Tensor(np.linspace(0.5, 1.5, m)),
                       Tensor(np.linspace(-1, 1, m))), b), a),
        "gelu": (lambda x: weighted_sum(gelu(x), b), a),
        "concat": (lambda x: weighted_sum(concat([x, Tensor(b)], axis=0),
                                          np.vstack([b, a])), a),
        "attention": (lambda x: weighted_sum(attention(
            linear(x, Tensor(w_qkv)), 1, 0.0, False), b[:, :2]),
            a.reshape(1, n, m)),
        "first_token": (lambda x: weighted_sum(first_token(x), b[:2]),
                        np.stack([a, b])),
        "nll": (lambda x: nll(softmax(x), labels), a),
        "dropout": (lambda x: weighted_sum(
            dropout(x, 0.4, training=True, rng=np.random.default_rng(99)), b),
            a),
        "dropout_rows": (lambda x: weighted_sum(
            dropout(x, 0.4, training=True, rng=np.random.default_rng(99),
                    rows=3), b), a),
    }
    for name, (f, theta) in checks.items():
        err = grad_check(f, theta)
        assert err < 1e-5, f"{name} grad check failed: {err}"


def _attention_reference(qkv, heads, rate, rng):
    """The unfused op sequence: head split, scaled q k^T, softmax, dropout
    from one (B*heads, M, M) draw, times v, head merge."""
    B, M, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads

    def split(t):
        return t.reshape(B, M, heads, dh).transpose(0, 2, 1, 3).reshape(
            B * heads, M, dh)

    q, k, v = (split(qkv[..., i * d:(i + 1) * d]) for i in range(3))
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(dh))
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)
    if rate:
        attn = attn * ((rng.random(attn.shape) >= rate) / (1.0 - rate))
    ctx = (attn @ v).reshape(B, heads, M, dh).transpose(0, 2, 1, 3)
    return ctx.reshape(B, M, d)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_matches_unfused_reference(rate):
    qkv = np.random.default_rng(8).normal(size=(3, 5, 24))
    out = attention(Tensor(qkv), 4, rate, True, np.random.default_rng(1))
    ref = _attention_reference(qkv, 4, rate, np.random.default_rng(1))
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


def _blocks_of_two(monkeypatch, heads, R, M):
    """Budget attention blocks of R query rows at two batch elements
    each."""
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 2 * heads * R * M * 8)


@pytest.mark.parametrize("rate,training", [(0.0, True), (0.3, True),
                                           (0.3, False)])
def test_attention_matches_unfused_reference_across_blocks(rate, training,
                                                           monkeypatch):
    # B=5 in blocks of 2: two full blocks and a ragged last one.
    _blocks_of_two(monkeypatch, 4, 5, 5)
    qkv = np.random.default_rng(8).normal(size=(5, 5, 24))
    out = attention(Tensor(qkv), 4, rate, training, np.random.default_rng(1))
    ref = _attention_reference(qkv, 4, rate if training else 0.0,
                               np.random.default_rng(1))
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("blocks", ["one", "ragged"])
def test_attention_leaves_rng_where_one_draw_would(blocks, monkeypatch):
    B, M, heads = 5, 6, 2
    for class_row in (False, True):
        if blocks == "ragged":
            _blocks_of_two(monkeypatch, heads, 1 if class_row else M, M)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        attention(Tensor(np.ones((B, M, 6 * heads))), heads, 0.3, True, rng,
                  class_row)
        ref.random((B * heads, M, M))
        np.testing.assert_array_equal(rng.random(3), ref.random(3))


@pytest.mark.parametrize("blocks", ["one", "ragged"])
@pytest.mark.parametrize("rate,training", [(0.0, True), (0.3, True),
                                           (0.3, False)])
def test_attention_class_row_is_row_zero_of_unfused_reference(
        blocks, rate, training, monkeypatch):
    if blocks == "ragged":
        _blocks_of_two(monkeypatch, 4, 1, 5)
    qkv = np.random.default_rng(8).normal(size=(5, 5, 24))
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    out = attention(Tensor(qkv), 4, rate, training, rng, class_row=True)
    ref = _attention_reference(qkv, 4, rate if training else 0.0, ref_rng)
    assert out.shape == (5, 8)
    np.testing.assert_allclose(out.data, ref[:, 0], rtol=0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("class_row", [False, True])
@pytest.mark.parametrize("blocks", ["one", "ragged"])
def test_attention_output_does_not_depend_on_the_tape(blocks, class_row,
                                                      monkeypatch):
    # Untaped, the op keeps one block of scores and mask; taped, all of them.
    if blocks == "ragged":
        _blocks_of_two(monkeypatch, 4, 1 if class_row else 5, 5)
    qkv = np.random.default_rng(8).normal(size=(5, 5, 24))
    for rate, training in ((0.0, False), (0.3, True)):
        bare = attention(Tensor(qkv), 4, rate, training,
                         np.random.default_rng(1), class_row)
        with Tape():
            taped = attention(Tensor(qkv, requires_grad=True), 4, rate,
                              training, np.random.default_rng(1), class_row)
        assert taped.tape is not None and bare.tape is None
        assert taped.data.tobytes() == bare.data.tobytes()


def test_dropout_rows_is_row_zero_of_the_full_draw():
    x = np.random.default_rng(6).normal(size=(3, 7, 4))
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    out = dropout(Tensor(x[:, 0]), 0.4, True, rng, rows=7)
    ref = dropout(Tensor(x), 0.4, True, ref_rng)
    assert out.data.tobytes() == np.ascontiguousarray(ref.data[:, 0]).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("class_row", [False, True])
@pytest.mark.parametrize("blocks", ["one", "ragged"])
@pytest.mark.parametrize("rate,training", [(0.0, True), (0.3, True),
                                           (0.3, False)])
def test_attention_backward_matches_the_score_form(blocks, class_row, rate,
                                                   training, monkeypatch):
    """The backward with its row terms on the (R, dh) side gives the
    gradient that the score form dS = P * (dP - rowsum(dP * P)) gives."""
    if blocks == "ragged":
        _blocks_of_two(monkeypatch, 4, 1 if class_row else 5, 5)
    rng = np.random.default_rng(8)
    qkv = rng.normal(size=(5, 5, 24))
    g = rng.normal(size=(5, 8) if class_row else (5, 5, 8))
    with Tape():
        x = Tensor(qkv, requires_grad=True)
        out = attention(x, 4, rate, training, np.random.default_rng(1),
                        class_row)
        loss = weighted_sum(out, g)
    backward(loss)
    ref = reference_attention_grad(qkv, 4, rate, training,
                                   np.random.default_rng(1), class_row, g)
    np.testing.assert_allclose(x.grad, ref, rtol=0, atol=1e-12)


def _far_row_qkv():
    """(5, 5, 24) qkv for 4 heads of width 2. In elements 1 and 4, head 0's
    query row 0 scores 850 against key 0 and at least 85 less against the
    others, so its weights are one-hot to rounding and the gradient stays
    of unit scale; head 0's other rows score within a few units of 0."""
    qkv = np.random.default_rng(8).normal(size=(5, 5, 24))
    for b in (1, 4):
        qkv[b, 0, 0:2] = (1202.0, 0.0)  # head 0's query row 0
        qkv[b, :, 8] = np.linspace(1.0, 0.6, 5)  # head 0's keys, first axis
    return qkv


@pytest.mark.parametrize("class_row", [False, True])
@pytest.mark.parametrize("blocks", ["one", "ragged"])
@pytest.mark.parametrize("rate,training", [(0.0, False), (0.3, True)])
def test_attention_rows_far_below_their_head_max(blocks, class_row, rate,
                                                 training, monkeypatch):
    """Rows whose scores all lie over 700 below their head's largest would
    underflow under a shift by the head's maximum; the op must shift them
    by their own, and give the reference output and gradient, all finite
    and without a warning."""
    if blocks == "ragged":
        _blocks_of_two(monkeypatch, 4, 1 if class_row else 5, 5)
    qkv = _far_row_qkv()
    q, k = qkv[:, :, 0:2], qkv[:, :, 8:10]
    s = q @ k.transpose(0, 2, 1) / math.sqrt(2.0)
    assert (s[[1, 4], 1:].max(axis=(1, 2)) < s[[1, 4]].max(axis=(1, 2))
            - 700).all()
    g = np.random.default_rng(9).normal(size=(5, 8) if class_row
                                        else (5, 5, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape():
            x = Tensor(qkv, requires_grad=True)
            out = attention(x, 4, rate, training, np.random.default_rng(1),
                            class_row)
            loss = weighted_sum(out, g)
        backward(loss)
        ref = _attention_reference(qkv, 4, rate if training else 0.0,
                                   np.random.default_rng(1))
        ref_grad = reference_attention_grad(
            qkv, 4, rate, training, np.random.default_rng(1), class_row, g)
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    np.testing.assert_allclose(out.data, ref[:, 0] if class_row else ref,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(x.grad, ref_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4)],
                         ids=["1d", "2d", "3d"])
def test_dropout_one_row_is_one_draw_of_the_input_shape(shape):
    x = np.random.default_rng(6).normal(size=shape)
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    out = dropout(Tensor(x), 0.4, True, rng, rows=1)
    keep = ref_rng.random(shape) >= 0.4
    assert out.data.tobytes() == (x * (keep * (1.0 / (1.0 - 0.4)))).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_skipped_draws_keep_a_buffered_half_word():
    """A 32-bit draw leaves half a 64-bit output buffered, which a full
    draw of doubles keeps; skipping rows must keep it too."""
    x = np.random.default_rng(6).normal(size=(3, 4))
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    for r in (rng, ref_rng):
        r.integers(2**31, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    dropout(Tensor(x), 0.4, True, rng, rows=7)
    ref_rng.random((3, 7, 4))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_attention_rejects_unpackable_width():
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((2, 3, 16))), 2, 0.0, False)


def test_grad_check_attention():
    rng = np.random.default_rng(3)
    qkv = rng.normal(size=(2, 4, 12))
    w = rng.normal(size=(2, 4, 4))
    for rate, training in ((0.0, False), (0.3, True)):
        def f(x):
            out = attention(x, 2, rate, training, np.random.default_rng(99))
            return weighted_sum(out, w)

        assert grad_check(f, qkv) < 1e-5, (rate, training)


def test_grad_check_attention_class_row(monkeypatch):
    rng = np.random.default_rng(3)
    qkv = rng.normal(size=(5, 4, 12))
    w = rng.normal(size=(5, 4))
    for blocks in ("one", "ragged"):
        if blocks == "ragged":
            _blocks_of_two(monkeypatch, 2, 1, 4)
        for rate, training in ((0.0, False), (0.3, True)):
            def f(x):
                out = attention(x, 2, rate, training,
                                np.random.default_rng(99), class_row=True)
                return weighted_sum(out, w)

            assert grad_check(f, qkv) < 1e-5, (blocks, rate, training)


def test_grad_check_attention_across_blocks(monkeypatch):
    _blocks_of_two(monkeypatch, 2, 4, 4)
    rng = np.random.default_rng(3)
    qkv = rng.normal(size=(5, 4, 12))
    w = rng.normal(size=(5, 4, 4))
    for rate, training in ((0.0, False), (0.3, True), (0.3, False)):
        def f(x):
            out = attention(x, 2, rate, training, np.random.default_rng(99))
            return weighted_sum(out, w)

        assert grad_check(f, qkv) < 1e-5, (rate, training)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 5))

    def run():
        with Tape():
            t = Tensor(x, requires_grad=True)
            h = gelu(linear(t, Tensor(x.T)))
            h = dropout(h, 0.3, training=True, rng=np.random.default_rng(5))
            y = weighted_sum(softmax(h))
        backward(y)
        return y.item(), t.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert y1 == y2
    np.testing.assert_array_equal(g1, g2)


def test_tape_topological_order():
    with Tape() as tape:
        x = Tensor([1.0], requires_grad=True)
        y = add(x, x)
        z = weighted_sum(add(y, x))
    del z
    for nid, node in enumerate(tape.nodes):
        for parent in node.parents:
            if isinstance(parent, int):
                assert parent < nid
            else:
                assert isinstance(parent, Tensor) and parent.tape is not tape


# Each case applies one op to operands made by h(*shape): op outputs that
# are themselves on the tape, so a backward closure that captured a Tensor
# would tie the tape into a reference cycle. Keys are
# "<name in tensor.__all__>[:variant]".
_TAPE_CASES = {
    "add": lambda h: add(h(4, 6), h(4, 6)),
    "linear": lambda h: linear(h(4, 6), h(6, 4), h(4)),
    "linear:no_bias": lambda h: linear(h(4, 6), h(6, 4)),
    "attention": lambda h: attention(h(1, 4, 6), 1, 0.3, True,
                                     np.random.default_rng(2)),
    "attention:class_row": lambda h: attention(h(2, 4, 6), 1, 0.3, True,
                                               np.random.default_rng(2),
                                               class_row=True),
    "softmax": lambda h: softmax(h(4, 6)),
    "layer_norm": lambda h: layer_norm(h(4, 6), h(6), h(6)),
    "gelu": lambda h: gelu(h(4, 6)),
    "dropout": lambda h: dropout(h(4, 6), 0.5, True, np.random.default_rng(2)),
    "dropout:rows": lambda h: dropout(h(4, 6), 0.5, True,
                                      np.random.default_rng(2), rows=3),
    "concat": lambda h: concat([h(4, 6), h(4, 6)], axis=0),
    "first_token": lambda h: first_token(h(2, 4, 6)),
    "nll": lambda h: nll(softmax(h(4, 6)), [0, 1, 2, 3]),
}


def test_tape_cases_cover_every_op():
    not_ops = {"Tensor", "Tape", "ShapeError", "backward"}
    assert {key.split(":")[0] for key in _TAPE_CASES} == set(T.__all__) - not_ops


@pytest.mark.parametrize("case", sorted(_TAPE_CASES))
def test_tape_freed_by_reference_counting(case):
    rng = np.random.default_rng(0)
    leaves = []

    def h(*shape):
        x = Tensor(rng.random(shape) + 0.5, requires_grad=True)
        leaves.append(x)
        return add(x, x)

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            out = _TAPE_CASES[case](h)
            root = weighted_sum(out)
        backward(root)
        assert all(x.grad.shape == x.shape for x in leaves)
        alive = weakref.ref(tape)
        del tape, out, root
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
