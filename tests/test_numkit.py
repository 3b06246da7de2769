import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr import numkit
from postasr.numkit import Tape

from conftest import finite_difference_check


def scalar_loss(t):
    return t if t.value.shape == () else numkit.tensor_sum(t)


def softmax64(x):
    return numkit.softmax(Tape(np.float64).constant(x)).value


def layer_norm64(x, gain, bias):
    tape = Tape(np.float64)
    return numkit.layer_norm(tape.constant(x), tape.constant(gain), tape.constant(bias)).value


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax64(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_hand_value(self):
        out = softmax64(np.array([np.log(2.0), 0.0]))
        assert np.allclose(out, [2 / 3, 1 / 3])

    def test_large_logits_stable(self):
        out = softmax64(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-30)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax64(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_normalized(self, scores):
        out = softmax64(np.array(scores))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-6


class TestLayerNorm:
    def test_constant_input_collapses_to_bias(self):
        v = np.ones(3)
        out = layer_norm64(v, np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_hand_value(self):
        out = layer_norm64(np.array([0.0, 2.0]), np.ones(2), np.zeros(2))
        assert np.allclose(out, [-1.0, 1.0], atol=1e-5)

    def test_affine(self):
        out = layer_norm64(np.array([0.0, 2.0]), np.array([3.0, 3.0]), np.array([5.0, 5.0]))
        assert np.allclose(out, [2.0, 8.0], atol=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layer_norm64(np.zeros(3), np.ones(2), np.zeros(2))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
    def test_standardizes(self, vals):
        v = np.array(vals)
        # eps = 1e-5 under the square root scales the variance by
        # var / (var + eps), which stays within 1e-2 of 1 only from std 0.032.
        if v.std() < 0.05:
            return
        out = layer_norm64(v, np.ones(len(vals)), np.zeros(len(vals)))
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-2


class TestBackwardExamples:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        v = tape.leaf([1.0, -2.0, 3.5])
        tape.backward(numkit.tensor_sum(v))
        assert np.array_equal(v.grad, np.ones(3, dtype=np.float32))

    def test_dot_gradient(self):
        tape = Tape()
        v = tape.leaf([1.0, 2.0])
        loss = numkit.tensor_sum(numkit.mul(v, v))
        tape.backward(loss)
        assert np.allclose(v.grad, [2.0, 4.0])

    def test_softmax_cross_entropy_gradient(self):
        tape = Tape()
        logits = tape.leaf([0.0, 0.0])
        logp = numkit.log_softmax(logits)
        loss = numkit.mul_scalar(numkit.tensor_sum(numkit.mul(logp, tape.constant([1.0, 0.0]))), -1.0)
        tape.backward(loss)
        assert np.allclose(logits.grad, [-0.5, 0.5])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        v = tape.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            tape.backward(v)

    def test_grad_accumulates_over_fanout(self):
        tape = Tape()
        v = tape.leaf([1.0, 2.0])
        loss = numkit.tensor_sum(numkit.add(v, v))
        tape.backward(loss)
        assert np.allclose(v.grad, [2.0, 2.0])


class TestShapeDiscipline:
    def test_add_requires_equal_shapes(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            numkit.add(a, b)

    def test_mul_requires_equal_shapes(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros(3))
        with pytest.raises(ValueError):
            numkit.mul(a, b)

    def test_matmul_inner_dim_checked(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            numkit.matmul(a, b)

    def test_matmul_batch_dims_must_agree(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3, 4)))
        b = tape.leaf(np.zeros((5, 4, 3)))
        with pytest.raises(ValueError):
            numkit.matmul(a, b)

    def test_matmul_2d_lhs_against_batched_rhs_rejected(self):
        tape = Tape()
        a = tape.leaf(np.zeros((3, 4)))
        b = tape.leaf(np.zeros((2, 4, 5)))
        with pytest.raises(ValueError, match="batch"):
            numkit.matmul(a, b)

    def test_explicit_broadcast(self):
        tape = Tape()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        out = numkit.broadcast_to(a, (3, 2))
        assert out.value.shape == (3, 2)
        tape.backward(numkit.tensor_sum(out))
        assert np.allclose(a.grad, [[3.0, 3.0]])


class TestDeterminism:
    def test_dropout_same_seed_same_mask(self):
        tape = Tape()
        x = tape.leaf(np.ones((4, 4)))
        a = numkit.dropout(x, 0.5, seed=7, train=True)
        b = numkit.dropout(x, 0.5, seed=7, train=True)
        assert np.array_equal(a.value, b.value)

    def test_dropout_eval_is_identity(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        out = numkit.dropout(x, 0.9, seed=0, train=False)
        assert out is x

    def test_dropout_inverted_scaling(self):
        tape = Tape()
        x = tape.leaf(np.ones(10000))
        out = numkit.dropout(x, 0.25, seed=3, train=True)
        kept = out.value[out.value > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.value.mean() - 1.0) < 0.05


FD_CASES = {
    "matmul_chain": (
        lambda t, ls: scalar_loss(numkit.matmul(ls[0], ls[1])),
        [np.random.default_rng(0).normal(size=(3, 4)), np.random.default_rng(1).normal(size=(4, 2))],
    ),
    "batched_matmul": (
        lambda t, ls: scalar_loss(numkit.matmul(ls[0], ls[1])),
        [np.random.default_rng(2).normal(size=(2, 3, 4)), np.random.default_rng(3).normal(size=(2, 4, 3))],
    ),
    "matmul_2d_rhs": (
        lambda t, ls: scalar_loss(numkit.matmul(ls[0], ls[1])),
        [np.random.default_rng(4).normal(size=(2, 3, 4)), np.random.default_rng(5).normal(size=(4, 5))],
    ),
    "matmul_4d_lhs_2d_rhs": (
        lambda t, ls: scalar_loss(numkit.mul(numkit.matmul(ls[0], ls[1]), ls[2])),
        [
            np.random.default_rng(23).normal(size=(2, 3, 2, 4)),
            np.random.default_rng(24).normal(size=(4, 3)),
            np.random.default_rng(25).normal(size=(2, 3, 2, 3)),
        ],
    ),
    "softmax": (
        lambda t, ls: scalar_loss(numkit.mul(numkit.softmax(ls[0]), ls[1])),
        [np.random.default_rng(6).normal(size=(3, 5)), np.random.default_rng(7).normal(size=(3, 5))],
    ),
    "log_softmax": (
        lambda t, ls: scalar_loss(numkit.mul(numkit.log_softmax(ls[0]), ls[1])),
        [np.random.default_rng(8).normal(size=(2, 6)), np.random.default_rng(9).normal(size=(2, 6))],
    ),
    "layer_norm": (
        lambda t, ls: scalar_loss(numkit.layer_norm(ls[0], ls[1], ls[2])),
        [
            np.random.default_rng(10).normal(size=(3, 8)),
            1.0 + 0.1 * np.random.default_rng(11).normal(size=8),
            0.1 * np.random.default_rng(12).normal(size=8),
        ],
    ),
    "gelu": (
        lambda t, ls: scalar_loss(numkit.gelu(ls[0])),
        [np.random.default_rng(13).normal(size=(4, 3))],
    ),
    "exp_log_mean": (
        lambda t, ls: numkit.tensor_sum(numkit.log(numkit.tensor_mean(numkit.exp(ls[0])))),
        [np.random.default_rng(14).normal(size=(5,))],
    ),
    "broadcast_bias": (
        lambda t, ls: scalar_loss(
            numkit.add(numkit.matmul(ls[0], ls[1]), numkit.broadcast_to(numkit.reshape(ls[2], (1, 2)), (3, 2)))
        ),
        [
            np.random.default_rng(15).normal(size=(3, 4)),
            np.random.default_rng(16).normal(size=(4, 2)),
            np.random.default_rng(17).normal(size=(2,)),
        ],
    ),
    "linear": (
        lambda t, ls: scalar_loss(numkit.mul(numkit.linear(ls[0], ls[1], ls[2]), ls[3])),
        [
            np.random.default_rng(26).normal(size=(2, 3, 4)),
            np.random.default_rng(27).normal(size=(4, 5)),
            np.random.default_rng(28).normal(size=(5,)),
            np.random.default_rng(29).normal(size=(2, 3, 5)),
        ],
    ),
    "transpose_mix": (
        lambda t, ls: scalar_loss(numkit.matmul(numkit.transpose(ls[0], (1, 0)), ls[1])),
        [np.random.default_rng(18).normal(size=(4, 3)), np.random.default_rng(19).normal(size=(4, 2))],
    ),
    "embedding": (
        lambda t, ls: scalar_loss(numkit.embedding(ls[0], np.array([[0, 2], [2, 1]]))),
        [np.random.default_rng(20).normal(size=(4, 3))],
    ),
    "mean_axis": (
        lambda t, ls: scalar_loss(numkit.mul(numkit.tensor_mean(ls[0], axis=1), ls[1])),
        [np.random.default_rng(21).normal(size=(3, 5)), np.random.default_rng(22).normal(size=(3,))],
    ),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_gradients_match_finite_differences(name):
    build, params = FD_CASES[name]
    finite_difference_check(build, params)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_composite_graph_gradients(seed):
    """Chains of primitives on random small shapes stay within fd tolerance."""
    rng = np.random.default_rng(seed)
    rows, mid, cols = rng.integers(2, 5, size=3)
    params = [
        rng.normal(size=(rows, mid)),
        rng.normal(size=(mid, cols)),
        1.0 + 0.1 * rng.normal(size=cols),
        0.1 * rng.normal(size=cols),
    ]

    def build(tape, ls):
        h = numkit.matmul(ls[0], ls[1])
        h = numkit.gelu(h)
        h = numkit.layer_norm(h, ls[2], ls[3], eps=1e-2)
        return numkit.tensor_mean(numkit.log_softmax(h))

    # Small step plus a tame eps: gelu can flatten a random tiny row to
    # near-zero variance, and next to layer_norm's cusp the fd truncation
    # error swamps any step size. Exact-eps behavior is covered by the
    # fixed well-conditioned cases above.
    finite_difference_check(build, params, h=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ids", [
    np.array([[3, 1, 3], [0, 3, 1]]),               # repeated ids, row 2 unused
    np.random.default_rng(30).integers(0, 9, size=(40, 22)),
    np.zeros((0, 4), dtype=np.int64),                # empty: the zero table
], ids=["repeats", "batch", "empty"])
def test_embedding_gradient_matches_add_at_bit_for_bit(dtype, ids):
    rng = np.random.default_rng(31)
    tape = Tape(dtype)
    table = tape.leaf(rng.normal(size=(9, 5)))
    out = numkit.embedding(table, ids)
    weight = rng.normal(size=out.shape).astype(dtype)
    tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(weight))))
    want = np.zeros((9, 5), dtype=np.float64)
    np.add.at(want, ids.reshape(-1), weight.reshape(-1, 5))
    assert table.grad.dtype == dtype
    assert table.grad.tobytes() == want.astype(dtype).tobytes()


def test_gelu_float32_matches_float64_reference():
    x = np.linspace(-8.0, 8.0, 100_001).astype(np.float32)

    def run(dtype):
        tape = Tape(dtype)
        leaf = tape.leaf(x)
        y = numkit.gelu(leaf)
        tape.backward(numkit.tensor_sum(y))
        assert y.value.dtype == dtype and leaf.grad.dtype == dtype
        return y.value, leaf.grad

    y32, g32 = run(np.float32)
    y64, g64 = run(np.float64)
    assert np.abs(y32 - y64).max() < 1e-6
    assert np.abs(g32 - g64).max() < 1e-6


@pytest.mark.parametrize("lead", [(4, 6), (2, 3, 5)], ids=["3d", "4d"])
def test_matmul_2d_rhs_matches_batched_numpy(lead):
    """The folded product against np.matmul and the batched gradient summed
    over the batch axes in float64, on a float32 tape."""
    rng = np.random.default_rng(32)
    a = rng.normal(size=lead + (7,)).astype(np.float32)
    b = rng.normal(size=(7, 3)).astype(np.float32)
    w = rng.normal(size=lead + (3,)).astype(np.float32)
    tape = Tape()
    la, lb = tape.leaf(a), tape.leaf(b)
    out = numkit.matmul(la, lb)
    tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(w))))
    want_ga = np.matmul(w, b.T)
    want_gb = np.matmul(a.swapaxes(-1, -2), w).reshape(-1, 7, 3).sum(axis=0, dtype=np.float64)
    for got, want in [(out.value, np.matmul(a, b)), (la.grad, want_ga), (lb.grad, want_gb)]:
        assert got.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def matmul_broadcast_add(x, w, b):
    """The product plus a bias as separate primitives, as models wrote it
    before ``linear``."""
    y = numkit.matmul(x, w)
    return numkit.add(y, numkit.broadcast_to(numkit.reshape(b, (1,) * (len(y.shape) - 1) + b.shape), y.shape))


@pytest.mark.parametrize("lead", [(5,), (4, 6), (2, 3, 5)], ids=["2d", "3d", "4d"])
def test_linear_matches_matmul_broadcast_add_bit_for_bit(lead):
    rng = np.random.default_rng(33)
    x, w, b = rng.normal(size=lead + (7,)), rng.normal(size=(7, 3)), rng.normal(size=3)
    weight = rng.normal(size=lead + (3,)).astype(np.float32)
    runs = []
    for fn in (numkit.linear, matmul_broadcast_add):
        tape = Tape()
        leaves = [tape.leaf(v) for v in (x, w, b)]
        out = fn(*leaves)
        tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(weight))))
        runs.append([out.value] + [leaf.grad for leaf in leaves])
    for got, want in zip(*runs):
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_linear_shapes_checked():
    tape = Tape()
    x, w = tape.leaf(np.zeros((2, 4))), tape.leaf(np.zeros((4, 3)))
    for bad_x, bad_w, bad_b in [(x, w, tape.leaf(np.zeros(4))), (x, tape.leaf(np.zeros((3, 3))), tape.leaf(np.zeros(3))),
                                (tape.leaf(np.zeros(4)), w, tape.leaf(np.zeros(3)))]:
        with pytest.raises(ValueError, match="linear"):
            numkit.linear(bad_x, bad_w, bad_b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_matches_mean_var_form_bit_for_bit(dtype):
    """Forward and gradients against the same arithmetic written with
    np.mean and np.var."""
    rng = np.random.default_rng(34)
    x = (3.0 * rng.normal(size=(3, 5, 16)) + 1.0).astype(dtype)
    gain, bias = (1.0 + 0.1 * rng.normal(size=16)).astype(dtype), (0.1 * rng.normal(size=16)).astype(dtype)
    weight = rng.normal(size=x.shape).astype(dtype)
    tape = Tape(dtype)
    leaves = [tape.leaf(v) for v in (x, gain, bias)]
    out = numkit.layer_norm(*leaves)
    tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(weight))))

    x64, gv, gg = x.astype(np.float64), gain.astype(np.float64), weight.astype(np.float64)
    inv = 1.0 / np.sqrt(x64.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x64 - x64.mean(axis=-1, keepdims=True)) * inv
    d_xhat = gg * gv
    want = [
        xhat * gv + bias,
        inv * (d_xhat - d_xhat.mean(axis=-1, keepdims=True) - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)),
        (gg * xhat).sum(axis=(0, 1)),
        gg.sum(axis=(0, 1)),
    ]
    for got, ref in zip([out.value] + [leaf.grad for leaf in leaves], want):
        assert got.dtype == dtype
        assert got.tobytes() == ref.astype(dtype).tobytes()


def test_dropout_gradient_uses_same_mask():
    tape = Tape()
    x = tape.leaf(np.ones((8, 8)))
    out = numkit.dropout(x, 0.5, seed=11, train=True)
    tape.backward(numkit.tensor_sum(out))
    assert np.array_equal((x.grad > 0), (out.value > 0))


def test_reduction_accumulates_in_float64():
    # 2^24 float32 ones: naive float32 accumulation saturates at 2^24.
    n = 1 << 24
    tape = Tape()
    x = tape.leaf(np.ones(n + 8, dtype=np.float32))
    assert float(numkit.tensor_sum(x).value) == n + 8


def test_cross_tape_operands_rejected():
    a = Tape().leaf([1.0])
    b = Tape().leaf([1.0])
    with pytest.raises(ValueError):
        numkit.add(a, b)


class TestTracking:
    def test_constant_graph_records_nothing(self):
        tape = Tape()
        a, b = tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 2)))
        out = numkit.softmax(numkit.gelu(numkit.matmul(a, b)))
        assert not out.tracked and tape._records == []

    def test_constant_gets_no_grad(self):
        tape = Tape()
        x, c = tape.leaf([1.0, 2.0]), tape.constant([3.0, 4.0])
        tape.backward(numkit.tensor_sum(numkit.mul(x, c)))
        assert c.grad is None
        assert np.allclose(x.grad, [3.0, 4.0])

    def test_tape_is_single_use(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = numkit.tensor_sum(numkit.mul_scalar(x, 3.0))
        tape.backward(y)
        assert float(y.value) == 9.0 and np.array_equal(x.grad, [3.0, 3.0])
        for after in (lambda: tape.backward(y), lambda: numkit.add(x, x),
                      lambda: tape.leaf([1.0]), lambda: tape.constant([1.0])):
            with pytest.raises(ValueError, match="single-use"):
                after()
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_backward_frees_the_graph(self):
        tape = Tape()
        x = tape.leaf(np.ones(4))
        mid = numkit.mul_scalar(x, 2.0)
        mid_value = weakref.ref(mid.value)
        loss = numkit.tensor_sum(mid)
        del mid
        assert mid_value() is not None
        tape.backward(loss)
        assert mid_value() is None

    def test_scalar_leaf_as_loss_gets_gradient_one(self):
        tape = Tape()
        x = tape.leaf(2.5)
        tape.backward(x)
        assert x.grad.dtype == np.float32 and float(x.grad) == 1.0

    def test_untracked_loss_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="no leaf"):
            tape.backward(numkit.tensor_sum(tape.constant([1.0, 2.0])))
