from dataclasses import replace

import numpy as np
import pytest

import enzydesign.numerics as nm
from enzydesign import geometry
from enzydesign.config import ModelConfig
from enzydesign.numerics import Tensor
from enzydesign.parameters import TagVocabulary, init_parameters
from enzydesign.substrate_model import binding_scores, substrate_forward

from helpers import check_input_gradient, softmax


def setup(d=8, seed=0):
    config = ModelConfig(d=d, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    params = init_parameters(config, vocab, np.random.default_rng(seed))
    return config, params


class TestNeighbors:
    def test_single_atom_has_no_edges(self):
        """No edge messages: only the input projection gets a gradient."""
        config, params = setup()
        feats = np.random.default_rng(1).normal(size=(1, 5))
        nm.tensor_sum(substrate_forward(feats, np.zeros((1, 3)), params,
                                        config)).backward()
        assert params["sub/input/w"].grad is not None
        assert all(params[k].grad is None for k in params
                   if k.startswith("sub") and k != "sub/input/w")

    def test_small_molecule_fully_connected(self):
        """At most k + 1 atoms: the knn graph holds every other atom."""
        nbrs = geometry.knn(np.random.default_rng(0).normal(size=(4, 3)), 30)
        assert nbrs.shape == (4, 3)
        for i in range(4):
            assert set(nbrs[i]) == set(range(4)) - {i}


class TestSubstrateForward:
    def test_single_atom_is_input_projection(self):
        config, params = setup()
        feats = np.random.default_rng(2).normal(size=(1, 5))
        out = substrate_forward(feats, np.zeros((1, 3)), params, config)
        np.testing.assert_allclose(out.data, feats @ params["sub/input/w"].data,
                                   atol=1e-14)

    def test_rigid_motion_invariance(self):
        config, params = setup()
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(5, 5))
        coords = rng.normal(size=(5, 3)) * 2.0
        rot, t = geometry.random_rigid(rng)
        a = substrate_forward(feats, coords, params, config)
        b = substrate_forward(feats, geometry.apply_rigid(rot, t, coords),
                              params, config)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_three_atom_edge_enumeration_oracle(self):
        """m=3 full graph: recompute one layer's messages with plain numpy."""
        config, params = setup()
        config = replace(config, substrate_layers=1)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(3, 5))
        coords = rng.normal(size=(3, 3))
        out = substrate_forward(feats, coords, params, config)

        def silu(v):
            return v / (1.0 + np.exp(-v))

        h = feats @ params["sub/input/w"].data
        w1 = np.concatenate([params["sub0/msg1/wi"].data,  # one (2d + 1, d) W1
                             params["sub0/msg1/wk"].data,
                             params["sub0/msg1/wd"].data[None]])
        messages = np.zeros((3, 2, config.d))
        logits = np.zeros((3, 2, 1))
        for i in range(3):
            for slot, k in enumerate(j for j in range(3) if j != i):
                dist = np.linalg.norm(coords[i] - coords[k])
                z = np.concatenate([h[i], h[k], [dist]])
                m1 = silu(z @ w1 + params["sub0/msg1/b"].data)
                m2 = silu(m1 @ params["sub0/msg2/w"].data + params["sub0/msg2/b"].data)
                messages[i, slot] = m2
                logits[i, slot] = m2 @ params["sub0/attn/w"].data + params["sub0/attn/b"].data
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        g = (w * messages).sum(axis=1)
        gate = 1.0 / (1.0 + np.exp(-(np.maximum(g @ params["sub0/gate1/w"].data
                                                + params["sub0/gate1/b"].data, 0.0)
                                     @ params["sub0/gate2/w"].data
                                     + params["sub0/gate2/b"].data)))
        np.testing.assert_allclose(out.data, h + gate * g, rtol=1e-10, atol=1e-10)

    def test_atom_permutation_equivariance(self):
        config, params = setup()
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 5))
        coords = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        a = substrate_forward(feats, coords, params, config)
        b = substrate_forward(feats[perm], coords[perm], params, config)
        np.testing.assert_allclose(b.data, a.data[perm], atol=1e-10)

    @pytest.mark.parametrize("tile", [128, 2])
    def test_packed_matches_each_substrate_alone(self, monkeypatch, tile):
        """Five substrates packed end to end, one-atom ones among them:
        each one's rows equal its own forward's. The packed forward has a
        budget of ``tile`` three-neighbor atoms (K·d·8 = 192 bytes each)."""
        config, params = setup()
        rng = np.random.default_rng(11)
        lengths = [1, 4, 1, 6, 2]
        feats = rng.normal(size=(sum(lengths), 5))
        coords = rng.normal(size=(sum(lengths), 3)) * 2.0
        alone = [substrate_forward(feats[r], coords[r], params, config).data
                 for r in nm.segments(lengths)]
        monkeypatch.setattr(nm, "TILE_BYTES", tile * 192)
        packed = substrate_forward(feats, coords, params, config, lengths)
        np.testing.assert_allclose(packed.data, np.concatenate(alone),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", [
        "sub/input/w", *(f"sub{i}/{w}" for i in range(3) for w in (
            "msg1/wi", "msg1/wk", "msg1/wd", "msg1/b", "msg2/w", "msg2/b",
            "attn/w", "attn/b", "gate1/w", "gate1/b", "gate2/w",
            "gate2/b"))])
    def test_packed_finite_differences(self, monkeypatch, name):
        """Every parameter of a packed stack, whose edge tiles have no
        coordinate head, at h = 1e-5: substrates of 4, 1 and 5 atoms under
        a budget of two three-neighbor atoms (K·d·8 = 192 bytes each).
        ``attn/b`` shifts every score of a softmax alike, so its gradient
        is 0."""
        monkeypatch.setattr(nm, "TILE_BYTES", 2 * 192)
        config, params = setup()
        rng = np.random.default_rng(12)
        feats, coords = rng.normal(size=(10, 5)), rng.normal(size=(10, 3))

        def op(t):
            ts = {k: Tensor(p.data) for k, p in params.items()}
            ts[name] = t
            return substrate_forward(feats, coords, ts, config, [4, 1, 5])

        check_input_gradient(op, params[name].data.copy(),
                             zero=name.endswith("attn/b"))

    def test_bad_feature_width_rejected(self):
        config, params = setup()
        with pytest.raises(ValueError):
            substrate_forward(np.zeros((2, 4)), np.zeros((2, 3)), params, config)
        with pytest.raises(ValueError):
            substrate_forward(np.zeros((2, 5)), np.zeros((3, 3)), params, config)


class TestBindingHead:
    def test_zero_weights_give_uniform_probabilities(self):
        config, params = setup()
        for pool in ("enzyme", "substrate"):
            params[f"binding/{pool}/w"].data[:] = 0.0
        rng = np.random.default_rng(6)
        probs = softmax(binding_scores(Tensor(rng.normal(size=(4, 8))),
                                       Tensor(rng.normal(size=(3, 8))),
                                       params))
        np.testing.assert_allclose(probs.data, [[0.5, 0.5]], atol=1e-15)

    def test_probabilities_sum_to_one(self):
        config, params = setup()
        rng = np.random.default_rng(7)
        probs = softmax(binding_scores(Tensor(rng.normal(size=(5, 8))),
                                       Tensor(rng.normal(size=(2, 8))),
                                       params))
        assert probs.shape == (1, 2)
        assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_sum_pool_oracle(self):
        config, params = setup()
        rng = np.random.default_rng(8)
        ef = rng.normal(size=(4, 8))
        sf = rng.normal(size=(3, 8))
        scores = binding_scores(Tensor(ef), Tensor(sf), params)
        pooled = np.concatenate([ef.sum(axis=0), sf.sum(axis=0)])
        w = np.concatenate([params["binding/enzyme/w"].data,
                            params["binding/substrate/w"].data])
        np.testing.assert_allclose(scores.data, [pooled @ w], atol=1e-12)

    def test_residue_permutation_invariance(self):
        config, params = setup()
        rng = np.random.default_rng(9)
        ef = rng.normal(size=(6, 8))
        sf = rng.normal(size=(4, 8))
        a = binding_scores(Tensor(ef), Tensor(sf), params)
        b = binding_scores(Tensor(ef[rng.permutation(6)]),
                           Tensor(sf[rng.permutation(4)]), params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_packed_rows_match_one_record_at_a_time(self):
        """One (B, 2) block for records paired with slices of a packed
        substrate stack, equal to one call per record; a slice count that
        differs from the record count is an error."""
        config, params = setup()
        rng = np.random.default_rng(12)
        ef, sf = rng.normal(size=(9, 8)), rng.normal(size=(5, 8))
        lengths, rows = [2, 4, 3], [slice(0, 3), slice(3, 5), slice(0, 3)]
        packed = binding_scores(Tensor(ef), Tensor(sf), params, lengths, rows)
        each = [binding_scores(Tensor(ef[r]), Tensor(sf[s]), params).data
                for r, s in zip(nm.segments(lengths), rows)]
        np.testing.assert_allclose(packed.data, np.concatenate(each),
                                   rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            binding_scores(Tensor(ef), Tensor(sf), params, lengths, rows[:2])

    def test_row_duplication_changes_pool(self):
        """Sum pooling is sensitive to multiplicity, unlike max pooling."""
        config, params = setup()
        rng = np.random.default_rng(10)
        ef = rng.normal(size=(2, 8))
        sf = rng.normal(size=(2, 8))
        a = binding_scores(Tensor(ef), Tensor(sf), params)
        b = binding_scores(Tensor(np.vstack([ef, ef[:1]])), Tensor(sf), params)
        assert not np.allclose(a.data, b.data)
