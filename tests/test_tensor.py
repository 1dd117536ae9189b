import gc
import math
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
    gelu,
    grad_check,
    layer_norm,
    matmul,
    narrow,
    nll,
    reshape,
    softmax,
)

from helpers import weighted_sum


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


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_dot_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_batched_shape():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 2, 3))
    b = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 2, 4))
    with Tape():
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        out = matmul(ta, tb)
        y = weighted_sum(out, w)
    backward(y)
    assert out.shape == (5, 2, 4)
    np.testing.assert_allclose(ta.grad, np.einsum("bmn,kn->bmk", w, b),
                               rtol=1e-12)
    np.testing.assert_allclose(tb.grad, np.einsum("bmk,bmn->kn", a, w),
                               rtol=1e-12)


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0]), 0).data, [0.5, 0.5])


def test_softmax_closed_form():
    out = softmax(Tensor([0.0, math.log(3.0)]), 0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]), 0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_invalid_axis():
    with pytest.raises(ShapeError):
        softmax(Tensor([1.0, 2.0]), 3)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance_and_normalization(xs, c):
    x = np.array(xs)
    s1 = softmax(Tensor(x), 0).data
    s2 = softmax(Tensor(x + c), 0).data
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
        x = Tensor([3.0], requires_grad=True)
        y = matmul(reshape(x, (1, 1)), reshape(x, (1, 1)))
    backward(y)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_linear_identity_path():
    with Tape():
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        y = weighted_sum(matmul(a, Tensor(np.eye(2))))
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
            node = matmul(c, x) if const_first else matmul(x, c)
            y = weighted_sum(node)
        grads = backward(y)
        np.testing.assert_array_equal(x.grad, [[3.0]])
        assert c.grad is None
        assert id(c) not in tape._leaf_ids
        # Only leaf gradients are returned; intermediates are freed.
        assert list(grads) == [tape._leaf_ids[id(x)]]
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
    err = grad_check(lambda x: matmul(reshape(x, (1, 3)), reshape(x, (3, 1))),
                     np.array([1.0, -2.0, 3.0]))
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

    checks = {
        "add": lambda x: weighted_sum(add(x, Tensor(b)), a),
        "add_broadcast": lambda x: weighted_sum(
            add(Tensor(b), reshape(narrow(x, 0, 0, 1), (m,))), a),
        "matmul_lhs": lambda x: weighted_sum(matmul(x, Tensor(k))),
        "matmul_rhs": lambda x: weighted_sum(
            matmul(Tensor(b), reshape(x, (m, n)))),
        "softmax": lambda x: weighted_sum(softmax(x, 1), b),
        "layer_norm": lambda x: weighted_sum(
            layer_norm(x, Tensor(np.linspace(0.5, 1.5, m)),
                       Tensor(np.linspace(-1, 1, m))), b),
        "gelu": lambda x: weighted_sum(gelu(x), b),
        "concat": lambda x: weighted_sum(concat([x, Tensor(b)], axis=0),
                                         np.vstack([b, a])),
        "reshape": lambda x: weighted_sum(reshape(x, (m, n)), k),
        "attention": lambda x: weighted_sum(attention(
            reshape(matmul(x, Tensor(w_qkv)), (1, n, 6)), 1, 0.0, False),
            b[:, :2]),
        "narrow": lambda x: weighted_sum(narrow(x, 0, 1, n - 1), b[1:]),
        "nll": lambda x: nll(softmax(x, 1), labels),
        "dropout": lambda x: weighted_sum(
            dropout(x, 0.4, training=True, rng=np.random.default_rng(99)), b),
    }
    for name, f in checks.items():
        err = grad_check(f, a)
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


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 5))

    def run():
        with Tape():
            t = Tensor(x, requires_grad=True)
            h = gelu(matmul(t, Tensor(x.T)))
            h = dropout(h, 0.3, training=True, rng=np.random.default_rng(5))
            y = weighted_sum(softmax(h, 1))
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
        for pid in node.parents:
            assert pid is None or pid < nid


# Each case applies one op to h, a (4, 6) op output that is itself on the
# tape, so a backward closure that captured a Tensor would tie the tape into
# a reference cycle. Keys are "<name in tensor.__all__>[:variant]".
_TAPE_CASES = {
    "add": lambda h: add(h, h),
    "matmul": lambda h: matmul(h, reshape(h, (6, 4))),
    "attention": lambda h: attention(reshape(h, (1, 4, 6)), 1, 0.3, True,
                                     np.random.default_rng(2)),
    "softmax": lambda h: softmax(h, 1),
    "layer_norm": lambda h: layer_norm(h, reshape(narrow(h, 0, 0, 1), (6,)),
                                       reshape(narrow(h, 0, 1, 1), (6,))),
    "gelu": gelu,
    "dropout": lambda h: dropout(h, 0.5, True, np.random.default_rng(2)),
    "concat": lambda h: concat([h, h], axis=0),
    "reshape": lambda h: reshape(h, (6, 4)),
    "narrow": lambda h: narrow(h, 1, 2, 3),
    "nll": lambda h: nll(softmax(h, 1), [0, 1, 2, 3]),
}


def test_tape_cases_cover_every_op():
    not_ops = {"Tensor", "Tape", "ShapeError", "backward", "grad_check"}
    assert {key.split(":")[0] for key in _TAPE_CASES} == set(T.__all__) - not_ops


@pytest.mark.parametrize("case", sorted(_TAPE_CASES))
def test_tape_freed_by_reference_counting(case):
    x_data = np.random.default_rng(0).random((4, 6)) + 0.5
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            x = Tensor(x_data, requires_grad=True)
            out = _TAPE_CASES[case](add(x, x))
            root = weighted_sum(out)
        backward(root)
        assert x.grad.shape == x.shape
        alive = weakref.ref(tape)
        del tape, out, root
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
