import numpy as np
import pytest

import enzydesign.numerics as nm
from enzydesign import geometry
from enzydesign.config import ConfigError, ModelConfig
from enzydesign.enzyme_model import (embed_inputs, encode, forward_stack,
                                     gated_node_update,
                                     global_attention_sublayer, greedy_decode,
                                     neighborhood_messages,
                                     neighborhood_sublayer)
from enzydesign.numerics import Tensor
from enzydesign.parameters import (TagVocabulary, constant_views,
                                   init_parameters)

from helpers import (check_input_gradient, init_generic_parameters,
                     interior_nodes, kept_arrays, softmax)


def small_setup(d=8, heads=2, sublayers=2, period=1, seed=0,
                generic=False, **kw):
    """A small model; ``generic`` draws the coordinate scale like the
    other weights instead of starting it at zero."""
    config = ModelConfig(d=d, num_heads=heads, attention_sublayers=sublayers,
                         interleave_period=period, k_neighbors=3, **kw)
    vocab = TagVocabulary.from_tags(["1.1.1.1", "1.2.3.4", "2.1.1.1"])
    params = (init_generic_parameters if generic else init_parameters)(
        config, vocab, np.random.default_rng(seed))
    return config, vocab, params


def random_instance(n, config, vocab, rng):
    seq = rng.integers(0, 20, size=n)
    known = rng.random(n) < 0.5
    tag_idx = vocab.encode("1.2.3.4")
    coords = rng.normal(size=(n, 3)) * 4.0
    return seq, known, tag_idx, coords


class TestEmbeddings:
    def test_known_position_decomposition(self):
        config, vocab, params = small_setup()
        seq = np.array([3, 7])
        tag_idx = vocab.encode("1.2.3.4")
        h = embed_inputs(seq, np.array([True, False]), tag_idx, params, config)
        tags = sum(params[f"emb/tag_l{k+1}"].data[tag_idx[k]] for k in range(4))
        expected0 = params["emb/amino"].data[3] + tags + params["emb/pos"].data[0]
        expected1 = params["emb/mask"].data + tags + params["emb/pos"].data[1]
        np.testing.assert_allclose(h.data[0], expected0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(h.data[1], expected1, rtol=0, atol=1e-15)

    def test_masked_position_ignores_sequence_identity(self):
        config, vocab, params = small_setup()
        tag_idx = vocab.encode("1.1.1.1")
        known = np.array([False, True])
        a = embed_inputs(np.array([0, 5]), known, tag_idx, params, config)
        b = embed_inputs(np.array([19, 5]), known, tag_idx, params, config)
        np.testing.assert_array_equal(a.data, b.data)

    def test_tag_difference_is_tag_row_difference(self):
        config, vocab, params = small_setup()
        seq = np.array([1, 2, 3])
        known = np.ones(3, dtype=bool)
        ta = vocab.encode("1.1.1.1")
        tb = vocab.encode("1.2.3.4")
        ha = embed_inputs(seq, known, ta, params, config)
        hb = embed_inputs(seq, known, tb, params, config)
        delta = sum(params[f"emb/tag_l{k+1}"].data[ta[k]]
                    - params[f"emb/tag_l{k+1}"].data[tb[k]] for k in range(4))
        np.testing.assert_allclose(ha.data - hb.data,
                                   np.broadcast_to(delta, (3, config.d)),
                                   atol=1e-14)

    def test_length_limits(self):
        config, vocab, params = small_setup(max_len=4)
        tag_idx = vocab.encode("1.1.1.1")
        with pytest.raises(ConfigError):
            embed_inputs(np.zeros(5, dtype=int), np.ones(5, bool), tag_idx,
                         params, config)
        with pytest.raises(ConfigError):
            embed_inputs(np.zeros(0, dtype=int), np.ones(0, bool), tag_idx,
                         params, config)


class TestGlobalAttention:
    def test_single_head_manual_oracle(self):
        """Recompute one sub-layer with plain numpy at N=3, one head."""
        config, vocab, params = small_setup(d=4, heads=1, sublayers=1)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 4))
        out = global_attention_sublayer(Tensor(h), params, "attn0", config)

        def lin(x, name):
            return x @ params[name + "/w"].data + params[name + "/b"].data

        q, k, v = lin(h, "attn0/q"), lin(h, "attn0/k"), lin(h, "attn0/v")
        s = q @ k.T / np.sqrt(4)
        a = np.exp(s - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        ctx = lin(a @ v, "attn0/o")

        def ln(x, name):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            z = (x - mu) / np.sqrt(var + 1e-5)
            return z * params[name + "/g"].data + params[name + "/b"].data

        ht = ln(ctx + h, "attn0/ln1")
        ffn = lin(np.maximum(lin(ht, "attn0/ffn1"), 0.0), "attn0/ffn2")
        np.testing.assert_allclose(out.data, ln(ffn + ht, "attn0/ln2"),
                                   rtol=1e-12, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        config, vocab, params = small_setup(d=8, heads=2, sublayers=1)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 8))
        q = h @ params["attn0/q/w"].data + params["attn0/q/b"].data
        k = h @ params["attn0/k/w"].data + params["attn0/k/b"].data
        q = q.reshape(6, 2, 4).transpose(1, 0, 2)
        k = k.reshape(6, 2, 4).transpose(1, 0, 2)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(4)
        a = softmax(Tensor(s), axis=-1).data
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_residue_attends_to_itself(self):
        """With N=1 the softmax weight is exactly 1 regardless of scores."""
        config, vocab, params = small_setup(d=4, heads=1, sublayers=1)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(1, 4))

        def lin(x, name):
            return x @ params[name + "/w"].data + params[name + "/b"].data

        out = global_attention_sublayer(Tensor(h), params, "attn0", config)
        ctx = lin(lin(h, "attn0/v"), "attn0/o")  # weight 1.0 on self

        def ln(x, name):
            mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
            z = (x - mu) / np.sqrt(var + 1e-5)
            return z * params[name + "/g"].data + params[name + "/b"].data

        ht = ln(ctx + h, "attn0/ln1")
        ffn = lin(np.maximum(lin(ht, "attn0/ffn1"), 0.0), "attn0/ffn2")
        np.testing.assert_allclose(out.data, ln(ffn + ht, "attn0/ln2"),
                                   rtol=1e-12, atol=1e-12)

    def test_builds_twelve_tensors(self, monkeypatch):
        """q, k, v, attention, o, residual, layer norm, ffn1, relu, ffn2,
        residual, layer norm: one node each, and no head-split glue."""
        config, vocab, params = small_setup(d=8, heads=2, sublayers=1)
        h = Tensor(np.random.default_rng(6).normal(size=(5, 8)))
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        global_attention_sublayer(h, params, "attn0", config)
        assert len(built) == 12


def concat_form_messages(h, x, nbrs, params, prefix="neigh0"):
    """Plain-numpy oracle of one record's edge block: the messages
    silu(silu([h_i; h_k; d_ik]·W1 + b1)·W2 + b2), their softmax weights
    over K and the radial vectors. W1 is the stored row blocks stacked
    back into one (2d + 1, d) matrix."""
    def p(name):
        return params[f"{prefix}/{name}"].data

    (n, d), k = h.shape, nbrs.shape[1]
    rel = x[:, None, :] - x[nbrs]
    z = np.concatenate([np.broadcast_to(h[:, None, :], (n, k, d)), h[nbrs],
                        np.linalg.norm(rel, axis=-1, keepdims=True)], axis=-1)
    w1 = np.concatenate([p("msg1/wi"), p("msg1/wk"), p("msg1/wd")[None]])
    msg = _silu(_silu(z @ w1 + p("msg1/b")) @ p("msg2/w") + p("msg2/b"))
    score = msg @ p("attn/w") + p("attn/b")
    e = np.exp(score - score.max(axis=1, keepdims=True))
    return msg, e / e.sum(axis=1, keepdims=True), rel


def _silu(v):
    return v / (1.0 + np.exp(-v))


def one_block(h, x, nbrs, params, prefix="neigh0"):
    """(message sums, coordinate updates) of one record's edge block,
    read from the coordinate head's form of ``neighborhood_messages``."""
    head = [params[f"{prefix}/{name}"] for name in (
        "coord1/w", "coord1/b", "coord2/w", "coord2/b")]
    out = neighborhood_messages(Tensor(h), Tensor(x), [nbrs], params,
                                prefix, head).data
    return out[:, :h.shape[1]], out[:, h.shape[1]:]


class TestNeighborhood:
    def test_weights_sum_to_one_per_node(self):
        config, vocab, params = small_setup()
        rng = np.random.default_rng(2)
        h, x = rng.normal(size=(5, 8)), rng.normal(size=(5, 3))
        nbrs = geometry.knn(x, 3)
        msg, w, _ = concat_form_messages(h, x, nbrs, params)
        m, _ = one_block(h, x, nbrs, params)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(m, (w * msg).sum(axis=1), rtol=0,
                                   atol=1e-12)

    def test_single_neighbor_weight_is_one(self):
        config, vocab, params = small_setup()
        rng = np.random.default_rng(2)
        h, x = rng.normal(size=(2, 8)), rng.normal(size=(2, 3))
        nbrs = np.array([[1], [0]])
        msg, w, _ = concat_form_messages(h, x, nbrs, params)
        m, _ = one_block(h, x, nbrs, params)
        np.testing.assert_allclose(w, 1.0, atol=1e-15)
        np.testing.assert_allclose(m, msg[:, 0], rtol=0, atol=1e-12)

    def test_split_weight_matches_concat_form(self):
        """Message sums equal those of silu(silu([h_i; h_k; d_ik]·W1 + b1)
        ·W2 + b2), and coordinate updates Σ_k rel·(silu(m·C1 + c1)·C2 +
        c2) on generic weights."""
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 8))
        x = rng.normal(size=(6, 3)) * 3.0
        nbrs = geometry.knn(x, 3)
        m, delta = one_block(h, x, nbrs, params)
        msg, w_ref, rel_ref = concat_form_messages(h, x, nbrs, params)
        weighted = w_ref * msg
        np.testing.assert_allclose(m, weighted.sum(axis=1), rtol=0,
                                   atol=1e-12)

        def p(name):
            return params[f"neigh0/{name}"].data

        scale = (_silu(weighted @ p("coord1/w") + p("coord1/b"))
                 @ p("coord2/w") + p("coord2/b"))
        np.testing.assert_allclose(delta, (rel_ref * scale).sum(axis=1),
                                   rtol=0, atol=1e-12)

    def test_zero_coord_scale_leaves_coordinates_unchanged(self):
        config, vocab, params = small_setup()
        rng = np.random.default_rng(4)
        h = Tensor(rng.normal(size=(5, 8)))
        x = Tensor(rng.normal(size=(5, 3)))
        nbrs = geometry.knn(x.data, 2)
        _, x_new = neighborhood_sublayer(h, x, [nbrs], params, "neigh0", config)
        np.testing.assert_array_equal(x_new.data, x.data)

    def test_neighbor_order_permutation_invariance(self):
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(6)
        h = Tensor(rng.normal(size=(6, 8)))
        x = Tensor(rng.normal(size=(6, 3)))
        nbrs = geometry.knn(x.data, 3)
        shuffled = nbrs.copy()
        for row in shuffled:
            rng.shuffle(row)
        h1, x1 = neighborhood_sublayer(h, x, [nbrs], params, "neigh0", config)
        h2, x2 = neighborhood_sublayer(h, x, [shuffled], params, "neigh0",
                                       config)
        np.testing.assert_allclose(h1.data, h2.data, atol=1e-12)
        np.testing.assert_allclose(x1.data, x2.data, atol=1e-12)

    def test_sublayer_se3_equivariance(self):
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(7)
        h = Tensor(rng.normal(size=(7, 8)))
        x = rng.normal(size=(7, 3)) * 3.0
        rot, t = geometry.random_rigid(rng)
        nbrs = geometry.knn(x, 3)
        h1, x1 = neighborhood_sublayer(h, Tensor(x), [nbrs], params, "neigh0",
                                       config)
        h2, x2 = neighborhood_sublayer(h, Tensor(geometry.apply_rigid(rot, t, x)),
                                       [nbrs], params, "neigh0", config)
        np.testing.assert_allclose(h2.data, h1.data, atol=1e-9)
        np.testing.assert_allclose(x2.data, geometry.apply_rigid(rot, t, x1.data),
                                   atol=1e-9)

    def test_gated_update_with_zero_messages_is_identity(self):
        config, vocab, params = small_setup()
        h = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        zero = Tensor(np.zeros((4, 8)))
        out = gated_node_update(h, zero, params, "neigh0")
        np.testing.assert_array_equal(out.data, h.data)

    def test_freeze_motif_coords(self):
        config, vocab, params = small_setup(generic=True,
                                            freeze_motif_coords=True)
        rng = np.random.default_rng(8)
        h = Tensor(rng.normal(size=(5, 8)))
        x = Tensor(rng.normal(size=(5, 3)))
        nbrs = geometry.knn(x.data, 2)
        motif = np.array([True, False, True, False, False])
        _, x_new = neighborhood_sublayer(h, x, [nbrs], params, "neigh0", config,
                                         motif_mask=motif)
        np.testing.assert_array_equal(x_new.data[motif], x.data[motif])
        assert not np.allclose(x_new.data[~motif], x.data[~motif])

    @pytest.mark.parametrize("name", ["h", "x"] + [
        f"neigh0/{w}" for w in ("msg1/wi", "msg1/wk", "msg1/wd", "msg1/b",
                                "msg2/w", "msg2/b", "attn/w", "attn/b",
                                "coord1/w", "coord1/b", "coord2/w",
                                "coord2/b", "gate1/w", "gate1/b", "gate2/w",
                                "gate2/b")])
    def test_frozen_sublayer_finite_differences(self, monkeypatch, name):
        """Every input of a sub-layer with frozen motif rows at h = 1e-5,
        under a budget of two centers (K·d·8 = 192 bytes each): seven rows
        make three tiles with lo > 0, the last of one center. ``attn/b``
        shifts every score of a softmax alike, so its gradient is 0."""
        monkeypatch.setattr(nm, "TILE_BYTES", 2 * 192)
        config, vocab, params = small_setup(generic=True,
                                            freeze_motif_coords=True)
        rng = np.random.default_rng(9)
        arrays = {k: t.data for k, t in params.items()}
        arrays["h"], arrays["x"] = (rng.normal(size=(7, 8)),
                                    rng.normal(size=(7, 3)) * 2.0)
        nbrs = geometry.knn(arrays["x"], 3)
        motif = np.array([True, False, True, False, False, True, False])
        probe_h, probe_x = rng.normal(size=(7, 8)), rng.normal(size=(7, 3))

        def op(t):
            ts = {k: Tensor(a) for k, a in arrays.items()}
            ts[name] = t
            h_new, x_new = neighborhood_sublayer(ts["h"], ts["x"], [nbrs], ts,
                                                 "neigh0", config,
                                                 motif_mask=motif)
            return (nm.tensor_sum(h_new * Tensor(probe_h))
                    + nm.tensor_sum(x_new * Tensor(probe_x)))

        check_input_gradient(op, arrays[name].copy(),
                             zero=name.endswith("attn/b"))


class TestForwardStack:
    def test_se3_equivariance_full_stack(self):
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(9)
        seq, known, tag_idx, coords = random_instance(9, config, vocab, rng)
        rot, t = geometry.random_rigid(rng)
        lo1, xo1, fo1 = forward_stack(seq, known, tag_idx, coords, params, config)
        lo2, xo2, fo2 = forward_stack(seq, known, tag_idx,
                                      geometry.apply_rigid(rot, t, coords),
                                      params, config)
        np.testing.assert_allclose(lo2.data, lo1.data, atol=1e-9)
        np.testing.assert_allclose(fo2.data, fo1.data, atol=1e-9)
        np.testing.assert_allclose(xo2.data,
                                   geometry.apply_rigid(rot, t, xo1.data),
                                   atol=1e-9)

    def test_logits_share_amino_embedding(self):
        config, vocab, params = small_setup()
        rng = np.random.default_rng(10)
        seq, known, tag_idx, coords = random_instance(5, config, vocab, rng)
        logits, _, feats = forward_stack(seq, known, tag_idx, coords, params,
                                         config)
        np.testing.assert_allclose(logits.data,
                                   feats.data @ params["emb/amino"].data.T,
                                   atol=1e-12)
        assert logits.shape == (5, 20)

    def test_constant_params_build_no_graph(self):
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(12)
        seq, known, tag_idx, coords = random_instance(9, config, vocab, rng)
        taped = forward_stack(seq, known, tag_idx, coords, params, config)
        assert all(t._parents for t in taped)
        constants = {k: Tensor(t.data) for k, t in params.items()}
        untaped = forward_stack(seq, known, tag_idx, coords, constants, config)
        for a, b in zip(taped, untaped):
            assert b._parents == () and b._backward_fn is None
            assert not b.requires_grad
            np.testing.assert_array_equal(b.data, a.data)

    def test_coords_shape_mismatch(self):
        config, vocab, params = small_setup()
        with pytest.raises(ConfigError):
            forward_stack(np.zeros(3, dtype=int), np.ones(3, bool),
                          vocab.encode("1.1.1.1"), np.zeros((4, 3)), params,
                          config)

    def test_interleave_count(self):
        """6 attention sub-layers at period 2 use exactly 3 neighborhood blocks."""
        config = ModelConfig(d=8, num_heads=2)
        assert config.attention_sublayers == 6
        assert config.interleave_period == 2
        assert config.neighborhood_sublayers == 3


class TestGreedyDecode:
    def test_argmax_and_motif_copy(self):
        logits = np.array([[0.0, 2.0, 1.0], [5.0, 0.0, 0.0]])
        logits = np.pad(logits, ((0, 0), (0, 17)), constant_values=-10.0)
        seq = np.array([7, 9])
        known = np.array([True, False])
        out = greedy_decode(Tensor(logits), seq, known)
        assert out[0] == 7        # motif copied, argmax ignored
        assert out[1] == 0

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((1, 20))
        out = greedy_decode(Tensor(logits), np.array([0]), np.array([False]))
        assert out[0] == 0


def _with_budget(monkeypatch, budget, fn):
    monkeypatch.setattr(nm, "TILE_BYTES", budget)
    return fn()


# a budget far above any test's block: every block is one tile
WHOLE = 1 << 40


def _loss_grads(params, config, seq, known, tag_idx, coords):
    """Every parameter's gradient of a fixed projection of logits and
    coordinates."""
    for t in params.values():
        t.grad = None
    logits, x, _ = forward_stack(seq, known, tag_idx, coords, params, config)
    r = np.random.default_rng(0)
    loss = (nm.tensor_sum(logits * Tensor(r.normal(size=logits.shape)))
            + nm.tensor_sum(x * Tensor(r.normal(size=x.shape))))
    loss.backward()
    return {k: t.grad for k, t in params.items() if t.grad is not None}


class TestRowTiles:
    """The blocks that grow with N run ``numerics.TILE_BYTES`` bytes at a
    time; each is checked against one tile (a budget above the block)."""

    def test_neighborhood_sublayer_bit_identical_at_300(self, monkeypatch):
        config, vocab, params = small_setup(d=64, heads=4, generic=True)
        rng = np.random.default_rng(30)
        h = Tensor(rng.normal(size=(300, 64)))
        x = Tensor(np.cumsum(rng.normal(size=(300, 3)) * 2.0, axis=0))
        nbrs = geometry.knn(x.data, 30)

        def run():
            return neighborhood_sublayer(h, x, [nbrs], params, "neigh0", config)

        tiled = _with_budget(monkeypatch, 1 << 19, run)  # 34-center tiles
        whole = _with_budget(monkeypatch, WHOLE, run)
        for a, b in zip(tiled, whole):
            np.testing.assert_array_equal(a.data, b.data)

    def test_forward_stack_against_one_tile(self, monkeypatch):
        """Bit-identical at N = 512 under 2^21 bytes, where attention runs
        four full tiles of 128 rows (heads·N·8 = 16384 bytes a row) and
        the edges 136-center tiles. Smaller attention tiles, as under the
        default budget and 2^17 bytes, and N = 300's partial tile may take
        another OpenBLAS kernel than one whole tile, which moves the last
        bit."""
        config = ModelConfig()
        vocab = TagVocabulary.from_tags(["1.2.3.4"])
        params = constant_views(init_generic_parameters(
            config, vocab, np.random.default_rng(31)))
        budgets = (1 << 21, nm.TILE_BYTES, 1 << 17)
        for n in (512, 300):
            inputs = random_instance(n, config, vocab,
                                     np.random.default_rng(n))

            def run():
                return forward_stack(*inputs, params, config)

            whole = _with_budget(monkeypatch, WHOLE, run)
            for budget in budgets:
                tiled = _with_budget(monkeypatch, budget, run)
                for a, b in zip(tiled, whole):
                    if n == 512 and budget == 1 << 21:
                        np.testing.assert_array_equal(a.data, b.data)
                    np.testing.assert_allclose(
                        a.data, b.data, rtol=0,
                        atol=1e-14 * np.abs(b.data).max())

    def test_multi_tile_gradients_match_one_tile(self, monkeypatch):
        """7 attention rows (heads·N·8 = 2400 bytes) and 43 edge centers
        (K·d·8 = 384 bytes) a tile."""
        config, vocab, params = small_setup(d=16, heads=2, generic=True)
        inputs = random_instance(150, config, vocab,
                                 np.random.default_rng(32))
        tiled = _with_budget(monkeypatch, 7 * 2400,
                             lambda: _loss_grads(params, config, *inputs))
        whole = _with_budget(monkeypatch, WHOLE,
                             lambda: _loss_grads(params, config, *inputs))
        assert tiled.keys() == whole.keys()
        scale = max(np.abs(g).max() for g in whole.values())
        for name, g in whole.items():
            np.testing.assert_allclose(tiled[name], g, rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    def test_graph_edge_tiles_follow_the_budget(self, monkeypatch):
        """A graph forward cuts its edges by the budget too, so no buffer
        an edge tile's backward rule keeps, and none of the temporaries
        the rule sizes alike, outgrows the budget: 10 centers of K·d·8 =
        384 bytes a tile."""
        config, vocab, params = small_setup(d=16, heads=2, generic=True)
        inputs = random_instance(60, config, vocab, np.random.default_rng(34))

        def largest_edge_block():
            logits, x, _ = forward_stack(*inputs, params, config)
            root = nm.tensor_sum(logits) + nm.tensor_sum(x)
            return max(a.nbytes for t in interior_nodes(root)
                       if t._backward_fn.__qualname__.startswith(
                           "edge_messages.")
                       for a in kept_arrays(t))

        assert _with_budget(monkeypatch, WHOLE, largest_edge_block) == 60 * 384
        assert _with_budget(monkeypatch, 3840, largest_edge_block) == 3840

    def test_multi_tile_se3_equivariance(self, monkeypatch):
        """7 edge centers (K·d·8 = 192 bytes), 2 attention rows and 4 kNN
        rows a tile."""
        monkeypatch.setattr(nm, "TILE_BYTES", 7 * 192)
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(33)
        seq, known, tag_idx, coords = random_instance(40, config, vocab, rng)
        rot, t = geometry.random_rigid(rng)
        lo1, xo1, fo1 = forward_stack(seq, known, tag_idx, coords, params,
                                      config)
        lo2, xo2, fo2 = forward_stack(seq, known, tag_idx,
                                      geometry.apply_rigid(rot, t, coords),
                                      params, config)
        np.testing.assert_allclose(lo2.data, lo1.data, atol=1e-9)
        np.testing.assert_allclose(fo2.data, fo1.data, atol=1e-9)
        np.testing.assert_allclose(xo2.data,
                                   geometry.apply_rigid(rot, t, xo1.data),
                                   atol=1e-9)


def _pack(instances):
    """forward_stack's packed inputs and lengths from one-record inputs."""
    seq, known, tags, coords = zip(*instances)
    return ((np.concatenate(seq), np.concatenate(known), np.stack(tags),
             np.concatenate(coords)), [len(s) for s in seq])


class TestPacking:
    """Records packed end to end share one forward but never interact."""

    # k = 3: K is 3 except for the two-residue record (K = 1), so the edge
    # tiles both merge records and split them
    LENGTHS = (12, 2, 20, 12, 5)

    def instances(self, config, vocab, rng):
        """One random instance per length, the tags taking turns."""
        tags = ("1.1.1.1", "1.2.3.4", "2.1.1.1")
        out = []
        for i, n in enumerate(self.LENGTHS):
            seq, known, _, coords = random_instance(n, config, vocab, rng)
            out.append((seq, known, vocab.encode(tags[i % 3]), coords))
        return out

    @pytest.mark.parametrize("tile", [128, 4])
    def test_each_record_equals_its_own_forward(self, monkeypatch, tile):
        """A budget of ``tile`` three-neighbor centers (K·d·8 = 192 bytes
        each)."""
        monkeypatch.setattr(nm, "TILE_BYTES", tile * 192)
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(40)
        instances = self.instances(config, vocab, rng)
        packed, lengths = _pack(instances)
        outs = forward_stack(*packed, params, config, lengths)
        for r, inst in zip(nm.segments(lengths), instances):
            for a, b in zip(outs, forward_stack(*inst, params, config)):
                np.testing.assert_allclose(a.data[r], b.data, rtol=0,
                                           atol=1e-12 * np.abs(b.data).max())

    def test_se3_equivariance_per_record(self, monkeypatch):
        """A different rigid motion on each record moves only its rows;
        a budget of four centers."""
        monkeypatch.setattr(nm, "TILE_BYTES", 4 * 192)
        config, vocab, params = small_setup(generic=True)
        rng = np.random.default_rng(41)
        instances = self.instances(config, vocab, rng)
        packed, lengths = _pack(instances)
        motions = [geometry.random_rigid(rng) for _ in lengths]
        moved = [(s, k, t, geometry.apply_rigid(rot, tr, c))
                 for (s, k, t, c), (rot, tr) in zip(instances, motions)]
        lo1, xo1, fo1 = forward_stack(*packed, params, config, lengths)
        lo2, xo2, fo2 = forward_stack(*_pack(moved)[0], params, config,
                                      lengths)
        np.testing.assert_allclose(lo2.data, lo1.data, atol=1e-9)
        np.testing.assert_allclose(fo2.data, fo1.data, atol=1e-9)
        for r, (rot, tr) in zip(nm.segments(lengths), motions):
            np.testing.assert_allclose(
                xo2.data[r], geometry.apply_rigid(rot, tr, xo1.data[r]),
                atol=1e-9)

    def test_lengths_must_cover_the_rows(self):
        config, vocab, params = small_setup()
        inst = random_instance(6, config, vocab, np.random.default_rng(42))
        with pytest.raises(ConfigError):
            forward_stack(*inst, params, config, [2, 3])

    def test_non_finite_output_raises(self, monkeypatch):
        """A NaN planted mid-graph surfaces at forward_stack's outputs."""
        config, vocab, params = small_setup()
        inst = random_instance(6, config, vocab, np.random.default_rng(43))
        relu = nm.relu

        def planted(x):
            out = relu(x)
            out.data[0, 0] = np.nan
            return out

        monkeypatch.setattr(nm, "relu", planted)
        with pytest.raises(nm.NumericsError, match="non-finite"):
            forward_stack(*inst, params, config)


class TestEncode:
    """``forward_stack(..., encoded=encode(...))`` is the one-call forward:
    the coordinate-free prefix runs once and the rest reads its result."""

    def inputs(self, config, vocab, packed):
        rng = np.random.default_rng(50)
        if not packed:
            return random_instance(11, config, vocab, rng), None
        instances = [random_instance(n, config, vocab, rng)
                     for n in TestPacking.LENGTHS]
        return _pack(instances)

    @staticmethod
    def run(inst, params, config, lengths, shared):
        encoded = encode(*inst[:3], params, config, lengths) if shared else None
        outs = forward_stack(*inst, params, config, lengths, encoded=encoded)
        if not params["emb/amino"].requires_grad:
            return outs, {}
        r = np.random.default_rng(0)
        logits, x, _ = outs
        loss = (nm.tensor_sum(logits * Tensor(r.normal(size=logits.shape)))
                + nm.tensor_sum(x * Tensor(r.normal(size=x.shape))))
        loss.backward()
        grads = {k: t.grad for k, t in params.items() if t.grad is not None}
        for t in params.values():
            t.grad = None
        return outs, grads

    # (attention sub-layers, interleave period): the last leaves one
    # attention sub-layer after the last neighborhood sub-layer
    @pytest.mark.parametrize("sublayers,period", [(2, 1), (6, 2), (5, 2)])
    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("packed", [False, True])
    def test_equals_one_call_forward(self, sublayers, period, graph, packed):
        config, vocab, params = small_setup(sublayers=sublayers, period=period,
                                            generic=True)
        if not graph:
            params = constant_views(params)
        inst, lengths = self.inputs(config, vocab, packed)
        one, one_grads = self.run(inst, params, config, lengths, False)
        two, two_grads = self.run(inst, params, config, lengths, True)
        for a, b in zip(one, two):
            assert a.data.tobytes() == b.data.tobytes()
        assert bool(one_grads) == graph
        assert one_grads.keys() == two_grads.keys()
        for k in one_grads:
            assert one_grads[k].tobytes() == two_grads[k].tobytes(), k

    def test_candidates_share_one_encoding(self):
        """Forwards from one ``encoded`` leave it as it was."""
        config, vocab, params = small_setup(sublayers=6, period=2,
                                            generic=True)
        params = constant_views(params)
        seq, known, tag_idx, coords = random_instance(
            9, config, vocab, np.random.default_rng(51))
        encoded = encode(seq, known, tag_idx, params, config)
        before = encoded.data.copy()
        for shift in (0.0, 1.5):
            outs = forward_stack(seq, known, tag_idx, coords + shift, params,
                                 config, encoded=encoded)
            alone = forward_stack(seq, known, tag_idx, coords + shift, params,
                                  config)
            for a, b in zip(outs, alone):
                assert a.data.tobytes() == b.data.tobytes()
        assert encoded.data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(8, 8), (9, 4), (9,)])
    def test_shape_mismatch_raises(self, shape):
        config, vocab, params = small_setup()
        inst = random_instance(9, config, vocab, np.random.default_rng(52))
        with pytest.raises(nm.DimensionError, match="encoded shape"):
            forward_stack(*inst, params, config,
                          encoded=Tensor(np.zeros(shape)))
