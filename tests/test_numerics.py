import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enzydesign.numerics as nm
from enzydesign.numerics import (DimensionError, DomainError, NumericsError,
                                 Tensor, finite_difference_gradient)

from helpers import check_gradient


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


class TestElementwiseSuite:
    def test_silu_at_zero(self):
        assert nm.silu(Tensor(0.0)).item() == 0.0

    def test_layer_norm_constant_vector(self):
        out = nm.layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_ln_domain_error(self):
        with pytest.raises(DomainError):
            nm.ln(Tensor([1.0, -1.0]))

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.nan])

    @pytest.mark.parametrize("op", [
        nm.exp, nm.silu, nm.relu, nm.sigmoid,
        lambda t: nm.ln(nm.exp(t)),
        lambda t: nm.layer_norm(t),
        lambda t: nm.softmax(t, axis=-1),
        lambda t: nm.l2_norm(t, axis=-1),
        lambda t: nm.tensor_sum(t, axis=0),
        lambda t: nm.concat([t, t * 2.0], axis=-1),
        lambda t: nm.reshape(t, (3, 10)),
        lambda t: nm.transpose(t, (1, 0, 2)),
        lambda t: nm.broadcast_to(nm.reshape(t, (5, 1, 2, 3)), (5, 4, 2, 3)),
        lambda t: nm.take(t, np.array([[0, 2], [4, 0]])),
    ], ids=["exp", "silu", "relu", "sigmoid", "ln", "layer_norm", "softmax",
            "l2_norm", "sum_axis", "concat", "reshape",
            "transpose", "broadcast", "take"])
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
    ], ids=["relu", "sigmoid", "silu"])
    def test_values_match_definition(self, op_pair):
        op, ref = op_pair
        x = np.linspace(-5, 5, 31)
        np.testing.assert_allclose(op(Tensor(x)).data, ref(x), atol=1e-14)

    def test_binary_op_broadcast_gradients(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=3) + 3.0  # keep away from 0 for division
        for op in (nm.add, nm.sub, nm.mul, nm.div):
            check_gradient(lambda t, op=op: op(t, Tensor(b)), a)
            check_gradient(lambda t, op=op: op(Tensor(a), t), b.copy())

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_nonfinite_outputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-50, 50, size=6))
        for op in (nm.exp, nm.silu, nm.relu, nm.sigmoid,
                   lambda t: nm.softmax(t), lambda t: nm.layer_norm(t)):
            out = op(x)
            assert np.all(np.isfinite(out.data))


def every_primitive(x):
    """A scalar loss of a positive (4, 3) tensor through every primitive."""
    a = nm.sub(nm.add(nm.exp(x), nm.ln(x)), nm.sqrt(x))
    b = nm.div(nm.mul(nm.relu(a), nm.silu(x)),
               nm.add(nm.sigmoid(a), Tensor(1.0)))
    c = nm.matmul(nm.transpose(b), nm.layer_norm(b))
    d = nm.concat([nm.softmax(c), nm.log_softmax(c)], axis=-1)
    e = nm.take(nm.reshape(d, (6, 3)), np.array([0, 2, 5, 2]))
    f = nm.broadcast_to(nm.reshape(nm.tensor_sum(e, axis=0), (1, 3)), (2, 3))
    return nm.tensor_sum(nm.l2_norm(f))


X_POSITIVE = np.linspace(0.5, 2.0, 12).reshape(4, 3)


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
        interior = [t for t in nm._linearize(loss) if t._parents]
        assert len(interior) > 20
        loss.backward()
        for t in interior:
            assert t.grad is None and t._backward_fn is None
            assert t._parents == ()
        fd = finite_difference_gradient(
            lambda arr: every_primitive(Tensor(arr)).item(), X_POSITIVE.copy())
        rel = np.abs(x.grad - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-6

    def test_constant_inputs_record_nothing(self):
        taped = every_primitive(Tensor(X_POSITIVE.copy(), requires_grad=True))
        out = every_primitive(Tensor(X_POSITIVE.copy()))
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        assert out.item() == taped.item()
