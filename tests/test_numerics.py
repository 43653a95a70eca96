import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enzydesign.numerics as nm
from enzydesign.numerics import (DimensionError, NumericsError, Tensor,
                                 finite_difference_gradient)

from helpers import check_gradient, composite_attention, interior_nodes


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2)) @ m
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_computed(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
        expect = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expect[i, j] += a[i, k] * b[k, j]
        out = Tensor(a) @ Tensor(b)
        assert np.abs(out.data - expect).max() < 1e-12

    def test_shape_mismatch_message(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(5, 3))
        check_gradient(lambda t: t @ Tensor(b), rng.normal(size=(2, 4, 5)))
        a = rng.normal(size=(2, 4, 5))
        check_gradient(lambda t: Tensor(a) @ t, rng.normal(size=(5, 3)))


class TestLinear:
    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(10)
        x, w, b = (rng.normal(size=s) for s in ((6, 5, 4), (4, 3), (3,)))
        out = nm.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.shape == (6, 5, 3)
        np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-14)

    @pytest.mark.parametrize("x_shape", [(5, 4), (6, 3, 4)],
                             ids=["rows", "edges"])
    def test_finite_difference_agreement(self, x_shape):
        rng = np.random.default_rng(11)
        x, w, b = (rng.normal(size=s) for s in (x_shape, (4, 3), (3,)))
        check_gradient(lambda t: nm.linear(t, Tensor(w), Tensor(b)), x)
        check_gradient(lambda t: nm.linear(Tensor(x), t, Tensor(b)), w)
        check_gradient(lambda t: nm.linear(Tensor(x), Tensor(w), t), b)

    def test_builds_one_tensor(self, monkeypatch):
        rng = np.random.default_rng(12)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((6, 5, 4), (4, 3), (3,)))
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        out = nm.linear(x, w, b)
        assert built == [out]
        assert out._parents == (x, w, b)

    @pytest.mark.parametrize("shapes", [((5, 4), (3, 3), (3,)),
                                        ((5, 4), (4, 3), (4,)),
                                        ((5, 4), (4,), (4,))])
    def test_shape_mismatch_rejected(self, shapes):
        x, w, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(DimensionError, match="linear shapes disagree"):
            nm.linear(x, w, b)


class TestTakeScatter:
    """take's backward equals the np.add.at scatter bit for bit."""

    @pytest.mark.parametrize("x_shape,indices", [
        ((6, 4), [5, 0, 5, 5, 2]),
        ((6,), [1, 1, 4, 0, 1]),
        ((7, 3), [[0, 6, 0], [6, 6, 2]]),
        ((512, 64), np.random.default_rng(13).integers(0, 400, (512, 30))),
    ], ids=["rows", "vector", "2d-indices", "edges"])
    def test_equals_add_at(self, x_shape, indices):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        out = nm.take(x, indices)
        g = rng.normal(size=out.shape)
        nm.tensor_sum(out * Tensor(g)).backward()
        expect = np.zeros(x_shape)
        np.add.at(expect, np.asarray(indices), g)
        assert np.array_equal(x.grad, expect)
        absent = np.setdiff1d(np.arange(x_shape[0]), indices)
        assert absent.size and not x.grad[absent].any()


class TestLogistic:
    def test_within_two_ulp_of_longdouble(self):
        if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
            pytest.skip("longdouble is no wider than float64 here")
        x = np.concatenate([np.linspace(-699.9, 699.9, 20001),
                            np.random.default_rng(15).normal(0, 10, 20000)])
        xl = x.astype(np.longdouble)
        ref = 1 / (1 + np.exp(-xl))
        s = nm.sigmoid(Tensor(x)).data
        ulp = np.abs(s - ref) / np.spacing(ref.astype(np.float64))
        assert ulp.max() <= 2.0

    def test_equals_expit_at_edges(self):
        special = pytest.importorskip("scipy.special")
        x = np.array([0.0, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308])
        assert np.array_equal(nm.sigmoid(Tensor(x)).data, special.expit(x))

    def test_exact_at_extremes_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = nm.sigmoid(Tensor([-1e308, 0.0, 1e308])).data
            silu = nm.silu(Tensor([-1e308, -800.0, 0.0])).data
        assert s.tolist() == [0.0, 0.5, 1.0]
        assert silu.tolist() == [0.0, 0.0, 0.0]


class TestSoftmax:
    def test_uniform_logits(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=1e-15)

    def test_overflow_stability(self):
        out = nm.softmax(Tensor([1000.0, 0.0]))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_exp_sum_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=7)
        expect = np.exp(x) / np.exp(x).sum()
        out = nm.softmax(Tensor(x))
        assert np.abs(out.data - expect).max() < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            nm.softmax(Tensor(np.zeros((3, 0))))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, values):
        out = nm.softmax(Tensor(values))
        assert abs(out.data.sum() - 1.0) < 1e-12


class TestBackward:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_softmax_sum_is_constant(self):
        x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        nm.tensor_sum(nm.softmax(x)).backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_fanout_accumulates_double(self):
        def grad_of(n_copies):
            x = Tensor([0.5, -0.3], requires_grad=True)
            y = nm.silu(x)
            total = y
            for _ in range(n_copies - 1):
                total = total + y
            nm.tensor_sum(total).backward()
            return x.grad.copy()

        np.testing.assert_allclose(grad_of(2), 2.0 * grad_of(1), rtol=0)

    def test_three_layer_mlp_finite_differences(self):
        rng = np.random.default_rng(3)
        sizes = [(4, 8), (8, 8), (8, 1)]
        weights = [rng.normal(size=s) for s in sizes]
        x0 = rng.normal(size=(1, 4))

        def forward(ws):
            h = Tensor(x0)
            for i, w in enumerate(ws):
                h = h @ w
                if i < 2:
                    h = nm.silu(h)
            return nm.tensor_sum(h)

        ts = [Tensor(w, requires_grad=True) for w in weights]
        forward(ts).backward()
        for i in range(3):
            def f(arr, i=i):
                ws = [Tensor(w) for w in weights]
                ws[i] = Tensor(arr)
                return forward(ws).item()

            fd = finite_difference_gradient(f, weights[i].copy())
            rel = np.abs(ts[i].grad - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-6


class TestFiniteDifference:
    def test_sampled_indices_only(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        before = x.copy()
        g = finite_difference_gradient(lambda a: float((a ** 2).sum()), x,
                                       indices=[1, 4])
        np.testing.assert_allclose(g.reshape(-1), [0, 4, 0, 0, 10, 0],
                                   atol=1e-8)
        np.testing.assert_array_equal(x, before)


# a small scale keeps every_primitive's softmax unsaturated, so none of
# its gradient entries is small enough for FD roundoff to dominate
_GAMMA = np.array([0.5, 0.25, -0.2])
_BETA = np.array([0.2, 0.0, -0.1])


class TestLayerNorm:
    @pytest.mark.parametrize("x_shape", [(5, 4), (6, 3, 4)],
                             ids=["rows", "edges"])
    def test_finite_difference_agreement(self, x_shape):
        rng = np.random.default_rng(18)
        x, g, b = (rng.normal(size=s) for s in (x_shape, (4,), (4,)))
        check_gradient(lambda t: nm.layer_norm(t, Tensor(g), Tensor(b)), x)
        check_gradient(lambda t: nm.layer_norm(Tensor(x), t, Tensor(b)), g)
        check_gradient(lambda t: nm.layer_norm(Tensor(x), Tensor(g), t), b)

    def test_equals_normalize_then_scale_and_shift(self):
        rng = np.random.default_rng(19)
        x, g, b = (rng.normal(size=s) for s in ((5, 4), (4,), (4,)))
        mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        expect = (x - mu) / np.sqrt(var + nm.LAYER_NORM_EPS) * g + b
        out = nm.layer_norm(Tensor(x), Tensor(g), Tensor(b))
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-14)


class TestAttention:
    @pytest.mark.parametrize("n,d,heads", [(1, 4, 1), (6, 8, 2), (12, 8, 8),
                                           (40, 12, 3), (128, 16, 4)])
    def test_equals_composite_bit_for_bit(self, n, d, heads):
        rng = np.random.default_rng(20 + n)
        q, k, v = (rng.normal(0.0, 2.0, (n, d)) for _ in range(3))
        out = nm.attention(Tensor(q), Tensor(k), Tensor(v), heads)
        assert np.array_equal(out.data, composite_attention(q, k, v, heads))

    @pytest.mark.parametrize("n,d,heads", [(5, 4, 1), (5, 6, 2), (3, 6, 3)])
    def test_finite_difference_agreement(self, n, d, heads):
        rng = np.random.default_rng(21)
        qkv = [rng.normal(size=(n, d)) for _ in range(3)]
        for i in range(3):
            def op(t, i=i):
                args = [Tensor(a) for a in qkv]
                args[i] = t
                return nm.attention(*args, heads)

            check_gradient(op, qkv[i])

    def test_self_attention_accumulates_all_three_inputs(self):
        """One tensor as q, k and v gets the sum of the three gradients."""
        x = np.random.default_rng(22).normal(size=(4, 6))
        check_gradient(lambda t: nm.attention(t, t, t, 2), x)


class TestBlockDiagonalAttention:
    """With ``lengths``, packed records attend only to their own rows."""

    def test_equals_each_record_alone(self):
        rng = np.random.default_rng(25)
        lengths = [3, 1, 6]
        q, k, v = (rng.normal(size=(10, 8)) for _ in range(3))
        out = nm.attention(Tensor(q), Tensor(k), Tensor(v), 2, lengths)
        for r in nm.segments(lengths):
            alone = nm.attention(Tensor(q[r]), Tensor(k[r]), Tensor(v[r]), 2)
            np.testing.assert_allclose(out.data[r], alone.data, rtol=0,
                                       atol=1e-15)

    def test_finite_difference_agreement_with_small_tiles(self, monkeypatch):
        """Tiles of two rows inside records of 3, 1 and 5 rows."""
        monkeypatch.setattr(nm, "ROW_TILE", 2)
        rng = np.random.default_rng(26)
        qkv = [rng.normal(size=(9, 6)) for _ in range(3)]
        for i in range(3):
            def op(t, i=i):
                args = [Tensor(a) for a in qkv]
                args[i] = t
                return nm.attention(*args, 2, [3, 1, 5])

            check_gradient(op, qkv[i])


class TestConcat:
    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_finite_difference_agreement(self, part):
        rng = np.random.default_rng(23)
        parts = [rng.normal(size=(r, 3)) for r in (2, 4, 1)]

        def op(t):
            return nm.concat([t if i == part else Tensor(p)
                              for i, p in enumerate(parts)])

        check_gradient(op, parts[part], h=1e-5)

    def test_values_and_single_part(self):
        rng = np.random.default_rng(24)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        out = nm.concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b]))
        t = Tensor(a, requires_grad=True)
        assert nm.concat([t]) is t


class TestAttentionRowTiles:
    def test_full_tiles_bit_identical_to_one_tile(self, monkeypatch):
        rng = np.random.default_rng(25)
        q, k, v = (Tensor(rng.normal(0.0, 2.0, (512, 64))) for _ in range(3))
        tiled = nm.attention(q, k, v, 4).data
        monkeypatch.setattr(nm, "ROW_TILE", 512)
        assert np.array_equal(tiled, nm.attention(q, k, v, 4).data)

    def test_small_tiles_values_and_gradients(self, monkeypatch):
        rng = np.random.default_rng(26)
        qkv = [rng.normal(size=(40, 6)) for _ in range(3)]

        def run(tile):
            monkeypatch.setattr(nm, "ROW_TILE", tile)
            ts = [Tensor(a, requires_grad=True) for a in qkv]
            out = nm.attention(*ts, 2)
            nm.tensor_sum(out * Tensor(np.cos(out.data))).backward()
            return [out.data] + [t.grad for t in ts]

        for a, b in zip(run(7), run(40)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


class TestElementwiseSuite:
    def test_silu_at_zero(self):
        assert nm.silu(Tensor(0.0)).item() == 0.0

    def test_layer_norm_constant_vector(self):
        """A constant row normalizes to zeros, leaving only the shift b."""
        b = [0.1, 0.2, -0.3, 0.4]
        out = nm.layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]),
                            Tensor([0.5, -2.0, 1.5, 3.0]), Tensor(b))
        np.testing.assert_allclose(out.data, b, atol=1e-12)

    @pytest.mark.parametrize("op,shapes", [
        (nm.layer_norm, [(4, 5), (5,), (5,)]),
        (nm.log_softmax, [(4, 5)]),
        (lambda q, k, v: nm.attention(q, k, v, 2), [(4, 6)] * 3),
    ], ids=["layer_norm", "log_softmax", "attention"])
    def test_fused_op_builds_one_tensor(self, op, shapes, monkeypatch):
        rng = np.random.default_rng(8)
        inputs = tuple(Tensor(rng.normal(size=s), requires_grad=True)
                       for s in shapes)
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        out = op(*inputs)
        assert built == [out]
        assert out._parents == inputs

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.nan])

    def test_op_results_are_not_scanned(self):
        """Only tensors built from data are checked; a non-finite op result
        is left for the caller's boundary check."""
        with np.errstate(over="ignore"):
            out = nm.add(Tensor([1e308]), Tensor([1e308]))
        assert np.isinf(out.data).all()

    @pytest.mark.parametrize("op", [
        nm.silu, nm.relu, nm.sigmoid,
        lambda t: nm.layer_norm(t, Tensor(_GAMMA), Tensor(_BETA)),
        lambda t: nm.softmax(t, axis=-1),
        lambda t: nm.log_softmax(t, axis=-1),
        lambda t: nm.l2_norm(t, axis=-1),
        lambda t: nm.tensor_sum(t, axis=0),
        lambda t: nm.reshape(t, (3, 10)),
        lambda t: nm.transpose(nm.reshape(t, (10, 3))),
        lambda t: nm.take(t, np.array([[0, 2], [4, 0]])),
    ], ids=["silu", "relu", "sigmoid", "layer_norm", "softmax", "log_softmax",
            "l2_norm", "sum_axis", "reshape", "transpose", "take"])
    def test_finite_difference_agreement(self, op):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2, 3))
        # relu's kink makes FD unreliable near zero; keep inputs away
        x = np.where(np.abs(x) < 0.05, 0.2, x)
        check_gradient(op, x)

    @pytest.mark.parametrize("op_pair", [
        (nm.relu, lambda x: np.maximum(x, 0.0)),
        (nm.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
        (nm.silu, lambda x: x / (1.0 + np.exp(-x))),
        (nm.log_softmax, lambda x: x - np.log(np.exp(x).sum())),
    ], ids=["relu", "sigmoid", "silu", "log_softmax"])
    def test_values_match_definition(self, op_pair):
        op, ref = op_pair
        x = np.linspace(-5, 5, 31)
        np.testing.assert_allclose(op(Tensor(x)).data, ref(x), atol=1e-14)

    def test_binary_op_broadcast_gradients(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))
        for shape in ((3,), (4, 1), (1, 3), ()):
            b = rng.normal(size=shape)
            for op in (nm.add, nm.sub, nm.mul):
                check_gradient(lambda t, op=op: op(t, Tensor(b)), a)
                check_gradient(lambda t, op=op: op(Tensor(a), t), b.copy())

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_nonfinite_outputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-50, 50, size=6))
        for op in (nm.silu, nm.relu, nm.sigmoid, lambda t: nm.softmax(t),
                   lambda t: nm.log_softmax(t),
                   lambda t: nm.layer_norm(t, Tensor(np.linspace(-2, 2, 6)),
                                           Tensor(np.arange(6.0)))):
            out = op(x)
            assert np.all(np.isfinite(out.data))


def every_primitive(x):
    """A scalar loss of a positive (4, 3) tensor through every primitive."""
    a = nm.sub(nm.add(nm.relu(x), nm.silu(x)), nm.sigmoid(x))
    b = nm.mul(nm.relu(a), nm.add(nm.sigmoid(a), Tensor(1.0)))
    ln = nm.layer_norm(nm.attention(b, a, x, 3), Tensor(_GAMMA),
                       Tensor(_BETA))
    c = nm.linear(nm.matmul(nm.transpose(b), ln),
                  Tensor(np.eye(3)[::-1] + 0.5), Tensor([0.1, -0.2, 0.3]))
    d = nm.mul(nm.softmax(c), nm.log_softmax(c))
    e = nm.take(nm.reshape(nm.concat([d, ln]), (21, 1)),
                np.array([0, 2, 5, 2, 16]))
    # (1,) times (4, 3): the gradient is summed back over the broadcast
    f = nm.mul(nm.tensor_sum(e, axis=0), nm.silu(b))
    return nm.tensor_sum(nm.l2_norm(f))


X_POSITIVE = np.linspace(0.5, 2.0, 12).reshape(4, 3)

# Smooth ops on a (3, 4) node: shape-keeping ones, and ones whose (3, 1),
# (1, 4) or (4,) result broadcasts against a (3, 4) operand later.
_W = np.random.default_rng(16).normal(0.0, 0.5, (4, 4))
_GAMMA_4 = np.array([0.5, -1.5, 2.0, 1.0])
_BETA_4 = np.array([0.3, 0.0, -0.4, 0.7])
_KEEP = (nm.sigmoid, nm.silu, nm.softmax, nm.log_softmax,
         lambda t: nm.layer_norm(t, Tensor(_GAMMA_4), Tensor(_BETA_4)),
         lambda t: nm.attention(t, t @ Tensor(_W), t, 2),
         lambda t: t @ Tensor(_W),
         lambda t: nm.linear(t, Tensor(_W), Tensor([0.1, 0.0, -0.2, 0.3])),
         lambda t: nm.transpose(nm.transpose(t)),
         lambda t: nm.reshape(nm.reshape(t, (12,)), (3, 4)),
         lambda t: nm.take(t, np.array([2, 0, 0])))
_REDUCE = (lambda t: nm.tensor_sum(t, axis=1, keepdims=True),
           lambda t: nm.tensor_sum(t, axis=0, keepdims=True),
           lambda t: nm.tensor_sum(t, axis=0),
           lambda t: nm.l2_norm(t))
_CONSTANT_SHAPES = ((3, 4), (4,), (3, 1), ())
_ANCHOR = np.random.default_rng(17).uniform(1.0, 2.0, (3, 4))


def random_dag(seed):
    """A scalar loss of a (3, 4) tensor through a random DAG of smooth
    primitives, fixed by ``seed``: every node is consumed one to three
    times and constants and broadcasting operands are mixed in. The loss
    sums the nodes nothing else consumed plus an anchor term ``x * A``,
    which keeps every gradient entry away from the exact zeros that a
    path like ``(c - x) + x`` leaves and central differences cannot
    resolve."""
    rng = np.random.default_rng(seed)
    steps = []
    uses = [1]  # the anchor term consumes x once
    full = [0]  # indices of (3, 4) nodes
    for i in range(1, int(rng.integers(4, 12))):
        free = [j for j in full if uses[j] < 3]
        if not free:
            break
        a = int(rng.choice(free))
        kind = int(rng.integers(3))
        if kind == 0:
            steps.append(("keep", a, int(rng.integers(len(_KEEP)))))
            full.append(i)
        elif kind == 1:
            steps.append(("reduce", a, int(rng.integers(len(_REDUCE)))))
        else:
            op = (nm.add, nm.sub, nm.mul)[int(rng.integers(3))]
            others = [j for j in range(i) if uses[j] < 3 - (j == a)]
            if others and rng.random() < 0.7:
                b = int(rng.choice(others))
                uses[b] += 1
            else:
                shape = _CONSTANT_SHAPES[int(rng.integers(4))]
                b = Tensor(rng.uniform(0.5, 1.5, shape))
            steps.append(("binary", a, (op, b, bool(rng.integers(2)))))
            full.append(i)
        uses[a] += 1
        uses.append(0)

    def forward(x):
        nodes = [x]
        for kind, a, how in steps:
            if kind == "keep":
                nodes.append(_KEEP[how](nodes[a]))
            elif kind == "reduce":
                nodes.append(_REDUCE[how](nodes[a]))
            else:
                op, b, swap = how
                b = nodes[b] if isinstance(b, int) else b
                pair = (b, nodes[a]) if swap else (nodes[a], b)
                nodes.append(op(*pair))
        total = x * Tensor(_ANCHOR)
        for t, n in zip(nodes, uses):
            if n == 0:
                total = total + t
        return nm.tensor_sum(total)

    return forward


class TestGraphLifetime:
    def test_dropped_graphs_leave_no_cycles(self):
        gc.collect()
        gc.disable()
        try:
            x = Tensor(X_POSITIVE.copy(), requires_grad=True)
            every_primitive(x)
            every_primitive(x).backward()
            del x
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_backward_consumes_interior_nodes(self):
        x = Tensor(X_POSITIVE.copy(), requires_grad=True)
        loss = every_primitive(x)
        interior = interior_nodes(loss)
        assert len(interior) > 20
        loss.backward()
        for t in interior:
            assert t.grad is None and t._backward_fn is None
            assert t._parents == ()
        fd = finite_difference_gradient(
            lambda arr: every_primitive(Tensor(arr)).item(), X_POSITIVE.copy())
        rel = np.abs(x.grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-6

    # fixed examples: central differences at h = 1e-5 miss the 1e-6 bound
    # on about one random DAG in 3000, where an entry nearly cancels
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_fan_out_graphs(self, seed):
        """Backward through a random DAG under check_gradient's scalar sum
        gives the central-difference gradient and consumes every interior
        node."""
        forward = random_dag(seed)
        built = []

        def recorded(t):
            out = forward(t)
            if t.requires_grad:
                built.extend(interior_nodes(out))
            return out

        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 4))
        check_gradient(recorded, x)
        assert built and all(t.grad is None and t._backward_fn is None
                             and t._parents == () for t in built)

    def test_constant_inputs_record_nothing(self):
        taped = every_primitive(Tensor(X_POSITIVE.copy(), requires_grad=True))
        out = every_primitive(Tensor(X_POSITIVE.copy()))
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        assert out.item() == taped.item()
