import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enzydesign.numerics as nm
from enzydesign.numerics import (DimensionError, Tensor,
                                 finite_difference_gradient)

from helpers import (analytic_and_fd, check_gradient, composite_attention,
                     concat, edge_chain, interior_nodes, kept_arrays, l2_norm,
                     reshape, rule_closure, silu, softmax, tile_rules)


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
            y = silu(Tensor([-1e308, -800.0, 0.0])).data
        assert s.tolist() == [0.0, 0.5, 1.0]
        assert y.tolist() == [0.0, 0.0, 0.0]


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=1e-15)

    def test_overflow_stability(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_exp_sum_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=7)
        expect = np.exp(x) / np.exp(x).sum()
        out = softmax(Tensor(x))
        assert np.abs(out.data - expect).max() < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((3, 0))))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, values):
        out = softmax(Tensor(values))
        assert abs(out.data.sum() - 1.0) < 1e-12


class TestBackward:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_softmax_sum_is_constant(self):
        x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        nm.tensor_sum(softmax(x)).backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_fanout_accumulates_double(self):
        def grad_of(n_copies):
            x = Tensor([0.5, -0.3], requires_grad=True)
            y = silu(x)
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
                    h = silu(h)
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
        """96 bytes inside records of 3, 1 and 5 rows (heads·n·8 = 48, 16
        and 80 bytes a row): the 3-row record in tiles of two rows, the
        5-row one in one-row tiles."""
        monkeypatch.setattr(nm, "TILE_BYTES", 96)
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
            return concat([t if i == part else Tensor(p)
                              for i, p in enumerate(parts)])

        check_gradient(op, parts[part], h=1e-5)

    def test_values_and_single_part(self):
        rng = np.random.default_rng(24)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        out = concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b]))
        t = Tensor(a, requires_grad=True)
        assert concat([t]) is t


class TestAttentionRowTiles:
    def test_full_tiles_bit_identical_to_one_tile(self, monkeypatch):
        rng = np.random.default_rng(25)
        q, k, v = (Tensor(rng.normal(0.0, 2.0, (512, 64))) for _ in range(3))
        monkeypatch.setattr(nm, "TILE_BYTES", 128 * 4 * 512 * 8)
        tiled = nm.attention(q, k, v, 4).data  # four 128-row tiles
        monkeypatch.setattr(nm, "TILE_BYTES", 1 << 40)
        assert np.array_equal(tiled, nm.attention(q, k, v, 4).data)

    def test_small_tiles_values_and_gradients(self, monkeypatch):
        rng = np.random.default_rng(26)
        qkv = [rng.normal(size=(40, 6)) for _ in range(3)]

        def run(tile):  # heads·n·8 = 640 bytes a row
            monkeypatch.setattr(nm, "TILE_BYTES", tile * 640)
            ts = [Tensor(a, requires_grad=True) for a in qkv]
            out = nm.attention(*ts, 2)
            nm.tensor_sum(out * Tensor(np.cos(out.data))).backward()
            return [out.data] + [t.grad for t in ts]

        for a, b in zip(run(7), run(40)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def edge_inputs(rng, n, d):
    """(hw_i, hw_k, coordinates), the six message weights of an (N, d)
    edge block: msg1/wd (d,), msg1/b, msg2/w, msg2/b, attn/w (d, 1) and
    attn/b, and the coordinate head's four: coord1/w (d, d), coord1/b,
    coord2/w (d, 1) and coord2/b. ``wd`` is the last row of a (2d + 1, d)
    draw, the whole first message layer, so every input is what it was
    when the layer was stored as one weight; the head is drawn last."""
    arrays = [rng.normal(size=(n, d)), rng.normal(size=(n, d)),
              rng.normal(size=(n, 3))]
    weights = [rng.normal(0.0, 0.5, s) for s in
               ((2 * d + 1, d), (d,), (d, d), (d,), (d, 1), (1,))]
    head = [rng.normal(0.0, 0.5, s) for s in ((d, d), (d,), (d, 1), (1,))]
    return arrays + [weights[0][2 * d]] + weights[1:] + head


def sublayer_chain(hw_i, hw_k, x, wd, b1, w2, b2, wa, ba, neighbors,
                   head=()):
    """A sub-layer's edges as the model built them before
    ``edge_messages`` took in all of its tiles: one ``edge_chain`` per
    tile (zero constants for a K = 0 tile), the tiles' message sums and
    coordinate updates each joined by ``concat``, and with the ``head``
    the updates added to ``x``. Returns [message sums] or [message sums,
    moved coordinates]."""
    sums, deltas = [], []
    for lo, lists in nm._edge_tiles(neighbors, hw_k.shape[1]):
        if lists.shape[1]:
            parts = edge_chain(hw_i, hw_k, x, wd, b1, w2, b2, wa, ba, lo,
                               lists, head)
        else:
            parts = [Tensor(np.zeros((len(lists), hw_k.shape[1]))),
                     Tensor(np.zeros((len(lists), 3)))]
        sums.append(parts[0])
        deltas.append(parts[-1])
    return [concat(sums), x + concat(deltas)] if head else [concat(sums)]


def edge_pack(rng, d, lengths, ks):
    """``edge_inputs`` for records of ``lengths`` rows packed end to end,
    and their neighbor blocks: each row of record r has ``ks[r]`` distinct
    neighbors drawn from the rest of its record. Point 1 is a copy of
    point 0, and when both are in one record center 0 meets its twin."""
    arrays = edge_inputs(rng, sum(lengths), d)
    arrays[2][1] = arrays[2][0]
    blocks = []
    for rows, k in zip(nm.segments(lengths), ks):
        others = [np.delete(np.arange(rows.start, rows.stop), i)
                  for i in range(rows.stop - rows.start)]
        blocks.append(np.array([rng.choice(o, k, replace=False)
                                for o in others]).reshape(len(others), k))
    if ks[0] and lengths[0] > 1 and 1 not in blocks[0][0]:
        blocks[0][0, 0] = 1
    return arrays, blocks


def fd_case(case, rng):
    """``edge_inputs``, neighbor blocks and a budget of two centers for a
    small edge block: two coincident points (a zero-distance edge), K = 1,
    or five centers that make three tiles."""
    if case == "coincident":
        arrays = edge_inputs(rng, 4, 3)
        arrays[2][1] = arrays[2][0]
        lists = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    elif case == "k1":
        arrays, lists = edge_inputs(rng, 3, 3), np.array([[1], [0], [1]])
    else:
        arrays = edge_inputs(rng, 5, 3)
        lists = np.array([[1, 4], [3, 2], [0, 4], [2, 1], [3, 0]])
    return arrays, [lists], 2 * lists.shape[1] * 3 * 8


def check_edge_gradient(arrays, which, blocks, head=True, h=1e-5):
    """FD at step ``h`` against the analytic gradient of input ``which``.
    ``attn/b`` (input 8) shifts every edge's score alike, and the softmax
    over K ignores that shift: its exact gradient is 0, so both gradients
    are checked against 0 there, not against each other."""
    def op(t):
        ts = [Tensor(a) for a in arrays]
        ts[which] = t
        return nm.edge_messages(*ts[:9], blocks, ts[9:] if head else ())

    if which == 8:
        analytic, fd = analytic_and_fd(op, arrays[which])
        assert np.abs(analytic).max() <= 1e-14
        assert np.abs(fd).max() <= 1e-9
    else:
        check_gradient(op, arrays[which], h=h)


class TestEdgeTiles:
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)),
                    min_size=1, max_size=8),
           st.sampled_from([1, 4, 16]), st.integers(1, 1024))
    @settings(max_examples=200, deadline=None)
    def test_tiles_cut_runs_of_one_k_within_the_budget(self, shapes, d,
                                                       budget):
        """The tiles cover rows 0..N-1 once each, in order, and a tile's
        rows are its records' neighbor lists, so it holds one K. Two
        neighboring tiles of one K mean the first is full, so same-K
        records share a run, and a tile of R > 1 rows keeps R·K·d·8 within
        ``TILE_BYTES``."""
        blocks = [np.arange(n * k).reshape(n, k) + 100 * r
                  for r, (n, k) in enumerate(shapes)]
        rows = [row for block in blocks for row in block]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nm, "TILE_BYTES", budget)
            tiles = list(nm._edge_tiles(blocks, d))
            full = [nm.tile_rows(lists.shape[1] * d * 8) for _, lists in tiles]
        assert [lo for lo, _ in tiles] == list(np.cumsum(
            [0] + [len(lists) for _, lists in tiles[:-1]]))
        assert sum(len(lists) for _, lists in tiles) == len(rows)
        for lo, lists in tiles:
            for i, row in enumerate(lists):
                assert np.array_equal(row, rows[lo + i])
            r, k = lists.shape
            assert r * k * d * 8 <= budget or r == 1
        for (_, a), (_, b), most in zip(tiles, tiles[1:], full):
            if a.shape[1] == b.shape[1]:
                assert len(a) == most


class TestEdgeMessages:
    @pytest.mark.parametrize("d,lengths,ks,centers", [
        (4, (5, 4, 1, 3), (3, 3, 0, 2), 2),
        (8, (2, 2, 1, 6), (1, 1, 0, 3), 3),
        (16, (30, 1, 12, 9), (8, 0, 8, 5), 7),
        (64, (150, 1, 149), (30, 0, 30), 34),
    ], ids=["d4", "d8-k1", "d16", "d64"])
    def test_equals_composite_bit_for_bit(self, monkeypatch, d, lengths,
                                           ks, centers):
        """Values and every input's gradient equal those of the tiles'
        chains of nodes joined as the model joined them, with the
        coordinate head and without, on a pack with a one-residue record
        and two coincident points. The budget holds ``centers`` centers of
        the first record's K, so its run (with the next record's, where K
        agrees) makes several tiles."""
        monkeypatch.setattr(nm, "TILE_BYTES", centers * ks[0] * d * 8)
        arrays, blocks = edge_pack(np.random.default_rng(27 + d), d,
                                   lengths, ks)

        def run(op, head):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*ts[:9], blocks, ts[9:] if head else ())
            outs = out if isinstance(out, list) else [out]
            sum((nm.tensor_sum(o * Tensor(np.cos(o.data))) for o in outs),
                start=Tensor(0.0)).backward()
            return ([np.concatenate([o.data for o in outs], axis=1)]
                    + [t.grad for t in ts[:9 + 4 * head]])

        for head in (True, False):
            for a, b in zip(run(nm.edge_messages, head),
                            run(sublayer_chain, head), strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["coincident", "k1", "tiles"])
    @pytest.mark.parametrize("which", range(13))
    def test_finite_difference_agreement(self, monkeypatch, case, which):
        """Every input at h = 1e-5, with the coordinate head, in tiles of
        two centers. A zero-distance edge's coordinate term rel·φ(m(|rel|))
        has a kink in its second factor, so central differences of ``x``
        (input 2) are only first-order there, off by about 5e-6 at h =
        1e-5: the coincident points' ``x`` is differenced at h = 1e-7."""
        arrays, blocks, budget = fd_case(case, np.random.default_rng(28))
        monkeypatch.setattr(nm, "TILE_BYTES", budget)
        check_edge_gradient(arrays, which, blocks,
                            h=1e-7 if (case, which) == ("coincident", 2)
                            else 1e-5)

    @pytest.mark.parametrize("case", ["coincident", "k1", "tiles"])
    @pytest.mark.parametrize("which", range(9))
    def test_finite_difference_without_head(self, monkeypatch, case, which):
        """Every input of the substrate stack's form, which has no
        coordinate head and returns the message sums alone."""
        arrays, blocks, budget = fd_case(case, np.random.default_rng(28))
        monkeypatch.setattr(nm, "TILE_BYTES", budget)
        check_edge_gradient(arrays[:9], which, blocks, head=False)

    @pytest.mark.parametrize("head", [True, False])
    def test_k0_tile_is_constant_zeros(self, head):
        """A one-residue record's row in a pack (a K = 0 tile) has zero
        message sums and, with the head, its own coordinates, and the
        gradient of its ``x`` row is exactly the node's gradient of its
        last three columns there (zero without the head). A node whose
        rows all have K = 0 gives every input a gradient of its shape,
        zero but for ``x``'s pass-through, as central differences do."""
        rng = np.random.default_rng(31)
        arrays = edge_inputs(rng, 6, 4)[:13 if head else 9]
        blocks = [np.array([[1, 2], [0, 2], [1, 0]]),
                  np.zeros((1, 0), dtype=np.intp), np.array([[5], [4]])]
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = nm.edge_messages(*ts[:9], blocks, ts[9:])
        probe = rng.normal(size=out.shape)
        nm.tensor_sum(out * Tensor(probe)).backward()
        assert not out.data[3, :4].any()
        assert np.array_equal(out.data[3, 4:], arrays[2][3] if head else [])
        assert np.array_equal(ts[2].grad[3], probe[3, 4:] if head
                              else np.zeros(3))
        assert not ts[0].grad[3].any() and not ts[1].grad[3].any()

        lone = edge_inputs(rng, 2, 4)[:13 if head else 9]
        alone = [np.zeros((1, 0), dtype=np.intp)] * 2
        for which, a in enumerate(lone):
            def op(t, which=which):
                args = [Tensor(b) for b in lone]
                args[which] = t
                return nm.edge_messages(*args[:9], alone, args[9:])

            analytic, fd = analytic_and_fd(op, a)
            assert analytic.shape == a.shape
            if which == 2 and head:
                np.testing.assert_allclose(analytic, fd, rtol=0, atol=1e-9)
                assert analytic.any()
            else:
                assert not analytic.any() and not fd.any()

    @pytest.mark.parametrize("head,wide", [(True, 6), (False, 4)])
    def test_backward_keeps_six_edge_arrays(self, monkeypatch, head, wide):
        """Each tile's rule, in tiles of two, two and one centers, keeps
        six (R, K, d) arrays: silu(z), m and the head's silu output, each
        with its logistic (four without the head). The rest of what it
        keeps is (R, K, 3) or narrower, beside the run's neighbor lists,
        and no intermediate node; the node's own rule keeps no array."""
        monkeypatch.setattr(nm, "TILE_BYTES", 2 * 3 * 8 * 8)
        arrays = edge_inputs(np.random.default_rng(32), 5, 8)
        lists = np.array([[1, 2, 3], [0, 4, 3], [4, 1, 0], [2, 1, 0],
                          [3, 2, 1]])
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = nm.edge_messages(*ts[:9], [lists], ts[9:] if head else ())
        assert kept_arrays(out._backward_fn) == []
        rules = tile_rules(out)
        for rows, rule in zip((2, 2, 1), rules, strict=True):
            kept = kept_arrays(rule)
            sizes = sorted(a.size for a in kept if a.dtype == np.float64)
            assert sizes[-wide:] == [rows * 3 * 8] * wide
            assert max(sizes[:-wide]) <= rows * 3 * 3
            # the run's neighbor lists, which its tiles share
            assert [a.shape for a in kept if a.dtype != np.float64] == [
                (5, 3)]
        kept = [t for rule in [out._backward_fn, *rules]
                for t in rule_closure(rule) if isinstance(t, Tensor)]
        assert {id(t) for t in kept} <= set(map(id, ts))

    def test_constant_inputs_record_nothing(self):
        rng = np.random.default_rng(29)
        arrays = edge_inputs(rng, 6, 4)
        blocks = [np.array([[1, 2], [0, 2], [1, 0]]),
                  np.array([[4, 5], [3, 5], [4, 3]])]
        args = [Tensor(a) for a in arrays]
        out = nm.edge_messages(*args[:9], blocks, args[9:])
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        taped = nm.edge_messages(*args[:3], *(
            Tensor(w, requires_grad=True) for w in arrays[3:9]), blocks,
            [Tensor(w, requires_grad=True) for w in arrays[9:]])
        assert np.array_equal(out.data, taped.data)


class TestColumns:
    def test_values_and_zero_gradient_outside(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = nm.columns(x, 1, 3)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, x.data[:, 1:3])
        nm.tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 1, 0]] * 3)


class TestElementwiseSuite:
    def test_silu_at_zero(self):
        assert silu(Tensor(0.0)).item() == 0.0

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
        (lambda *t: nm.edge_messages(*t[:9], [np.array([[1], [0]]),
                                              np.array([[3], [2]])], t[9:]),
         [(4, 3), (4, 3), (4, 3), (3,), (3,), (3, 3), (3,), (3, 1), (1,),
          (3, 3), (3,), (3, 1), (1,)]),
    ], ids=["layer_norm", "log_softmax", "attention", "edge_messages"])
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
        assert tuple(dict.fromkeys(out._parents)) == inputs

    def test_op_results_are_not_scanned(self):
        """No tensor is scanned when it is made: a constant, a leaf and an
        op result all keep their non-finite values, which are left to the
        boundary checks where data enters and results leave."""
        assert np.isnan(Tensor([1.0, np.nan]).data[1])
        leaf = Tensor([np.inf, 1.0], requires_grad=True)
        assert np.isinf(leaf.data[0]) and leaf.requires_grad
        with np.errstate(over="ignore", invalid="ignore"):
            out = nm.add(Tensor([1e308]), Tensor([1e308]))
            assert np.isnan(nm.mul(leaf, Tensor([0.0, 1.0])).data[0])
        assert np.isinf(out.data).all()

    @pytest.mark.parametrize("op", [
        silu, nm.relu, nm.sigmoid,
        lambda t: nm.layer_norm(t, Tensor(_GAMMA), Tensor(_BETA)),
        lambda t: softmax(t, axis=-1),
        lambda t: nm.log_softmax(t, axis=-1),
        lambda t: l2_norm(t, axis=-1),
        lambda t: nm.tensor_sum(t, axis=0),
        lambda t: reshape(t, (3, 10)),
        lambda t: nm.transpose(reshape(t, (10, 3))),
        lambda t: nm.take(t, np.array([[0, 2], [4, 0]])),
        lambda t: nm.columns(reshape(t, (5, 6)), 1, 4),
    ], ids=["silu", "relu", "sigmoid", "layer_norm", "softmax", "log_softmax",
            "l2_norm", "sum_axis", "reshape", "transpose", "take", "columns"])
    def test_finite_difference_agreement(self, op):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2, 3))
        # relu's kink makes FD unreliable near zero; keep inputs away
        x = np.where(np.abs(x) < 0.05, 0.2, x)
        check_gradient(op, x)

    @pytest.mark.parametrize("op_pair", [
        (nm.relu, lambda x: np.maximum(x, 0.0)),
        (nm.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
        (silu, lambda x: x / (1.0 + np.exp(-x))),
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
        for op in (silu, nm.relu, nm.sigmoid, lambda t: softmax(t),
                   lambda t: nm.log_softmax(t),
                   lambda t: nm.layer_norm(t, Tensor(np.linspace(-2, 2, 6)),
                                           Tensor(np.arange(6.0)))):
            out = op(x)
            assert np.all(np.isfinite(out.data))


def every_primitive(x):
    """A scalar loss of a positive (4, 3) tensor through every primitive."""
    a = nm.sub(nm.add(nm.relu(x), silu(x)), nm.sigmoid(x))
    b = nm.mul(nm.relu(a), nm.add(nm.sigmoid(a), Tensor(1.0)))
    ln = nm.layer_norm(nm.attention(b, a, x, 3), Tensor(_GAMMA),
                       Tensor(_BETA))
    c = nm.linear(nm.matmul(nm.transpose(b), ln),
                  Tensor(np.eye(3)[::-1] + 0.5), Tensor([0.1, -0.2, 0.3]))
    d = nm.mul(softmax(c), nm.log_softmax(c))
    e = nm.take(reshape(concat([d, ln]), (21, 1)),
                np.array([0, 2, 5, 2, 16]))
    # (1,) times (4, 3): the gradient is summed back over the broadcast
    f = nm.mul(nm.tensor_sum(e, axis=0), silu(b))
    return nm.tensor_sum(l2_norm(nm.columns(f, 1, 3)))


X_POSITIVE = np.linspace(0.5, 2.0, 12).reshape(4, 3)

# Smooth ops on a (3, 4) node: shape-keeping ones, and ones whose (3, 1),
# (1, 4) or (4,) result broadcasts against a (3, 4) operand later.
_W = np.random.default_rng(16).normal(0.0, 0.5, (4, 4))
_GAMMA_4 = np.array([0.5, -1.5, 2.0, 1.0])
_BETA_4 = np.array([0.3, 0.0, -0.4, 0.7])
_KEEP = (nm.sigmoid, silu, softmax, nm.log_softmax,
         lambda t: nm.layer_norm(t, Tensor(_GAMMA_4), Tensor(_BETA_4)),
         lambda t: nm.attention(t, t @ Tensor(_W), t, 2),
         lambda t: t @ Tensor(_W),
         lambda t: nm.linear(t, Tensor(_W), Tensor([0.1, 0.0, -0.2, 0.3])),
         lambda t: nm.transpose(nm.transpose(t)),
         lambda t: reshape(reshape(t, (12,)), (3, 4)),
         lambda t: nm.take(t, np.array([2, 0, 0])))
_REDUCE = (lambda t: reshape(nm.tensor_sum(t, axis=1), (3, 1)),
           lambda t: reshape(nm.tensor_sum(t, axis=0), (1, 4)),
           lambda t: nm.tensor_sum(t, axis=0),
           lambda t: l2_norm(t))
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
