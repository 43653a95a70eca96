import json
import os
import struct

import numpy as np
import pytest

from enzydesign.config import ModelConfig
from enzydesign.numerics import Tensor
from enzydesign.parameters import (TagVocabulary, VocabularyError,
                                   init_parameters, load_checkpoint,
                                   parameter_layout, save_checkpoint,
                                   zero_grads)
from helpers import with_crc


def small_config():
    return ModelConfig(d=8, num_heads=2, attention_sublayers=2,
                       interleave_period=1, k_neighbors=3)


class TestVocabulary:
    def test_encode_prefix_levels(self):
        vocab = TagVocabulary.from_tags(["1.1.1.1", "1.2.3.4", "2.1.1.1"])
        idx = vocab.encode("1.2.3.4")
        assert vocab.levels[0][idx[0]] == "1"
        assert vocab.levels[1][idx[1]] == "1.2"
        assert vocab.levels[2][idx[2]] == "1.2.3"
        assert vocab.levels[3][idx[3]] == "1.2.3.4"

    def test_unknown_tag_rejected(self):
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        with pytest.raises(VocabularyError):
            vocab.encode("9.9.9.9")

    def test_malformed_tag_rejected(self):
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        with pytest.raises(VocabularyError):
            vocab.encode("1.1.1")

    def test_error_is_a_value_error_that_prints_its_message(self):
        """``cli.main`` maps it to exit 1 and prints ``str`` of it as is."""
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        with pytest.raises(ValueError) as info:
            vocab.encode("9.9.9.9")
        assert isinstance(info.value, VocabularyError)
        assert str(info.value) == "unknown EC tag component '9'"

    def test_shared_prefixes_share_rows(self):
        vocab = TagVocabulary.from_tags(["1.1.1.1", "1.1.1.2"])
        a = vocab.encode("1.1.1.1")
        b = vocab.encode("1.1.1.2")
        assert list(a[:3]) == list(b[:3])
        assert a[3] != b[3]


class TestInit:
    def test_expected_tensor_names_present(self):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(0))
        for name in ("emb/amino", "emb/mask", "emb/pos", "emb/tag_l1",
                     "emb/tag_l4", "attn0/q/w", "attn1/ffn2/b", "attn0/ln1/g",
                     "neigh0/msg1/wi", "neigh0/coord2/w", "neigh0/gate2/b",
                     "sub/input/w", "sub0/msg1/wk", "binding/enzyme/w"):
            assert name in params, name
        assert params["emb/amino"].shape == (20, 8)
        assert params["neigh0/msg1/wd"].shape == (8,)
        assert params["binding/substrate/w"].shape == (8, 2)

    def test_substrate_blocks_have_no_coordinate_head(self):
        """Substrate atoms keep their positions, so only the enzyme's
        neighborhood blocks carry ``coord1``/``coord2``."""
        config = ModelConfig()
        layout = parameter_layout(config, TagVocabulary.from_tags(["1.1.1.1"]))
        assert not [name for name in layout if name.startswith("sub")
                    and "/coord" in name]
        assert sum(name.startswith("neigh") and "/coord" in name
                   for name in layout) == 4 * config.neighborhood_sublayers
        assert len(layout) == 190
        assert sum(int(np.prod(shape)) for shape, _ in layout.values()) \
            == 472_713

    @pytest.mark.parametrize("d", [8, 64])
    def test_row_blocks_are_one_draw_of_the_whole_weight(self, d):
        """The row blocks of each message weight (``msg1/wi``, ``wk``,
        ``wd``) and of the binding weight (``binding/enzyme/w``,
        ``binding/substrate/w``) sit side by side in the layout, and
        flattened in that payload order they equal one draw of the whole
        weight, (2d + 1, d) at 1/sqrt(2d + 1) or (2d, 2) at 1/sqrt(2d),
        from the same generator state. So init values and checkpoint
        bytes are those of a layout that stores each weight whole."""
        config = ModelConfig(d=d, num_heads=2, attention_sublayers=2,
                             interleave_period=1, k_neighbors=3)
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        layout = parameter_layout(config, vocab)
        params = init_parameters(config, vocab, np.random.default_rng(5))
        wholes = {name: ([name[:-1] + b for b in "ikd"], (2 * d + 1, d))
                  for name in layout if name.endswith("/msg1/wi")}
        wholes["binding/enzyme/w"] = (
            ["binding/enzyme/w", "binding/substrate/w"], (2 * d, 2))
        assert len(wholes) == 6
        rng, names, i = np.random.default_rng(5), list(layout), 0
        while i < len(names):
            shape, (kind, std) = layout[names[i]]
            blocks, whole = wholes.get(names[i], ([names[i]], None))
            if whole is not None:
                assert names[i:i + len(blocks)] == blocks
                draw = rng.normal(0.0, 1.0 / np.sqrt(whole[0]), whole)
                stored = np.concatenate([params[b].data.reshape(-1)
                                         for b in blocks])
                assert np.array_equal(stored, draw.reshape(-1))
            elif kind == "normal":
                rng.normal(0.0, std, shape)
            i += len(blocks)

    def test_coord_scale_zero_by_default(self):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(0))
        for j in range(config.neighborhood_sublayers):
            assert np.all(params[f"neigh{j}/coord2/w"].data == 0.0)

    def test_seeded_init_reproducible(self):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        a = init_parameters(config, vocab, np.random.default_rng(4))
        b = init_parameters(config, vocab, np.random.default_rng(4))
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_zero_grads(self):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(0))
        params["emb/amino"].grad = np.ones((20, 8))
        zero_grads(params)
        assert params["emb/amino"].grad is None


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1", "2.3.4.5"])
        params = init_parameters(config, vocab, np.random.default_rng(1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab, step=17)
        back, cfg2, vocab2, step = load_checkpoint(path)
        assert step == 17
        assert cfg2.to_dict() == config.to_dict()
        assert vocab2.levels == vocab.levels
        assert sorted(back) == sorted(params)
        for k in params:
            np.testing.assert_array_equal(back[k].data, params[k].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_save_is_deterministic(self, tmp_path):
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config, vocab)
        save_checkpoint(p2, params, config, vocab)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_header_then_layout_payload_then_crc(self, tmp_path):
        """Format tag, header length, JSON header, every parameter's float64
        bytes in ``parameter_layout`` order, and the CRC-32 of all of it."""
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab, step=5)
        header = json.dumps({"config": config.to_dict(),
                             "vocab_levels": vocab.levels, "step": 5},
                            sort_keys=True).encode("utf-8")
        payload = b"".join(params[name].data.astype("<f8").tobytes()
                           for name in parameter_layout(config, vocab))
        assert path.read_bytes() == with_crc(
            b"ENZD0002" + struct.pack("<I", len(header)) + header + payload)

    @pytest.mark.parametrize("extra", ["extra/w", "sub3/coord1/w"])
    def test_unknown_parameter_rejected(self, tmp_path, extra):
        """Any name outside the model's layout, a coordinate head on a
        substrate block among them, fails the save before a byte is
        written: the old checkpoint stays and no temp file is left."""
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab)
        old = path.read_bytes()
        with pytest.raises(ValueError, match=f"m.ckpt: parameter {extra} "
                           "is not in the model's layout$"):
            save_checkpoint(path, {**params, extra: Tensor(np.zeros((8, 8)))},
                            config, vocab)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_payload_one_tensor_too_long_rejected(self, tmp_path):
        """A payload that stores one tensor more than the header's model
        has, a substrate block's old coordinate head among them, fails
        naming both sizes."""
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab)
        raw = path.read_bytes()
        path.write_bytes(with_crc(raw[:-4] + np.zeros((8, 8)).tobytes()))
        need = 8 * sum(t.data.size for t in params.values())
        with pytest.raises(ValueError, match=f"m.ckpt: payload has {need + 512} "
                           f"bytes, header's model needs {need}$"):
            load_checkpoint(path)

    def test_first_non_finite_tensor_named(self, tmp_path):
        """With a NaN in two tensors, the error names the one that comes
        first in layout order, whichever was planted first."""
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(7))
        names = list(parameter_layout(config, vocab))
        earlier, later = names[5], names[-3]
        params[later].data[0] = np.nan
        params[earlier].data.flat[-1] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab)
        with pytest.raises(ValueError, match=f"m.ckpt: parameter {earlier} "
                           "is not finite$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["mid-write", "rename"])
    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch,
                                               where):
        """A write that fails inside the temp file or at the rename leaves
        the old checkpoint's bytes and no temp file; the temp name does
        not end in ``.ckpt``."""
        config = small_config()
        vocab = TagVocabulary.from_tags(["1.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(6))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, vocab, step=1)
        old = path.read_bytes()
        renamed = []
        if where == "mid-write":  # the header and some tensors are written
            del params["sub/input/w"]
            error = KeyError
        else:
            def replace(src, dst):
                renamed.append(str(src))
                raise OSError("disk full")
            monkeypatch.setattr(os, "replace", replace)
            error = OSError
        with pytest.raises(error):
            save_checkpoint(path, params, config, vocab, step=2)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        if where == "rename":  # perfbench sizes checkpoints by ``*.ckpt``
            assert not renamed[0].endswith(".ckpt")
