"""Named parameter store, initialization, and binary checkpoints.

Every learnable weight lives in a flat dict keyed by a stable name, so
gradient audits can enumerate tensors and checkpoints round-trip
byte-identically. ``parameter_layout`` of a model config and tag
vocabulary is the one schema: it fixes each parameter's name, shape and
place. A checkpoint file is the format tag ``ENZD0002``, the header
length (little-endian u32), a JSON header of model config, tag
vocabularies and step counter, then every parameter's little-endian
float64 data concatenated in layout order, and last a little-endian u32
``zlib.crc32`` of all the bytes before it. ``save_checkpoint`` writes a
temp file beside the target and renames it over the target, so a failed
write leaves the old file as it was. Stored values enter the program
through ``load_checkpoint``, the one place that checks them for
finiteness; a file of another format tag fails naming that tag.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib

import numpy as np

from .config import SUBSTRATE_FEATURES, ConfigError, ModelConfig, check_section
from .numerics import Tensor
from .residues import NUM_AMINO_ACIDS

_MAGIC = b"ENZD0002"
_HEADER_SPEC = {"config": dict, "vocab_levels": list, "step": int}


class VocabularyError(ValueError):
    pass


def _prefixes(tag: str) -> list[str]:
    """The four level prefixes of an EC tag: '1.2.3.4' -> '1', '1.2', ..."""
    parts = tag.split(".")
    if len(parts) != 4:
        raise VocabularyError(f"EC tag {tag!r} does not have four levels")
    return [".".join(parts[: k + 1]) for k in range(4)]


class TagVocabulary:
    """Four-level EC tag vocabulary: one string table per level."""

    def __init__(self, levels: list[list[str]]):
        if not (isinstance(levels, list) and len(levels) == 4 and all(
                isinstance(lv, list) and all(isinstance(t, str) for t in lv)
                for lv in levels)):
            raise VocabularyError("tag vocabulary needs 4 lists of strings")
        self.levels = [list(lv) for lv in levels]
        self._index = [{t: i for i, t in enumerate(lv)} for lv in self.levels]

    @classmethod
    def from_tags(cls, tags) -> "TagVocabulary":
        """Build from full four-level tag strings like '1.1.1.1'."""
        levels = [{} for _ in range(4)]  # insertion-ordered sets
        for tag in tags:
            for level, prefix in zip(levels, _prefixes(tag)):
                level[prefix] = None
        return cls([list(level) for level in levels])

    def encode(self, tag: str) -> np.ndarray:
        idx = []
        for index, prefix in zip(self._index, _prefixes(tag)):
            if prefix not in index:
                raise VocabularyError(f"unknown EC tag component {prefix!r}")
            idx.append(index[prefix])
        return np.array(idx, dtype=np.intp)

    def sizes(self) -> list[int]:
        return [len(lv) for lv in self.levels]


_EMBEDDING = ("normal", 0.02)
_ZERO = ("constant", 0.0)


def parameter_layout(config: ModelConfig, vocab: TagVocabulary) -> dict:
    """``{name: (shape, init)}`` of the full model (enzyme + substrate) in
    draw order. ``init`` is ``("normal", std)``, drawn from the shared
    generator, or ``("constant", value)``, which draws nothing."""
    d = config.d
    layout = {"emb/amino": ((NUM_AMINO_ACIDS, d), _EMBEDDING),
              "emb/mask": ((d,), _EMBEDDING),
              "emb/pos": ((config.max_len, d), _EMBEDDING)}
    for k, size in enumerate(vocab.sizes(), start=1):
        layout[f"emb/tag_l{k}"] = ((size, d), _EMBEDDING)

    def linear(name, fan_in, fan_out, bias=True, zero=False):
        layout[name + "/w"] = ((fan_in, fan_out), _ZERO if zero
                               else ("normal", 1.0 / np.sqrt(fan_in)))
        if bias:
            layout[name + "/b"] = ((fan_out,), _ZERO)

    def neighborhood_block(prefix, coord_head):
        # message FFN; wi, wk, wd: the rows of W·[h_i; h_k; dist], at W's std
        std = ("normal", 1.0 / np.sqrt(2 * d + 1))
        for name, shape in (("wi", (d, d)), ("wk", (d, d)), ("wd", (d,))):
            layout[f"{prefix}/msg1/{name}"] = (shape, std)
        layout[f"{prefix}/msg1/b"] = ((d,), _ZERO)
        linear(f"{prefix}/msg2", d, d)
        # scalar attention row over messages
        linear(f"{prefix}/attn", d, 1)
        if coord_head:
            # per-edge coordinate scale; last layer zero-initialized so
            # coordinate updates start at rest and grow during training
            linear(f"{prefix}/coord1", d, d)
            linear(f"{prefix}/coord2", d, 1, zero=True)
        # gated node update
        linear(f"{prefix}/gate1", d, d)
        linear(f"{prefix}/gate2", d, d)

    for i in range(config.attention_sublayers):
        p = f"attn{i}"
        for proj in ("q", "k", "v", "o"):
            linear(f"{p}/{proj}", d, d)
        linear(f"{p}/ffn1", d, 4 * d)
        linear(f"{p}/ffn2", 4 * d, d)
        for ln in ("ln1", "ln2"):
            layout[f"{p}/{ln}/g"] = ((d,), ("constant", 1.0))
            layout[f"{p}/{ln}/b"] = ((d,), _ZERO)
    for j in range(config.neighborhood_sublayers):
        neighborhood_block(f"neigh{j}", True)
    linear("sub/input", SUBSTRATE_FEATURES, d, bias=False)
    for j in range(config.substrate_layers):  # substrate atoms never move
        neighborhood_block(f"sub{j}", False)
    std = ("normal", 1.0 / np.sqrt(2 * d))  # the rows of W·[pool_e; pool_s]
    for pool in ("enzyme", "substrate"):
        layout[f"binding/{pool}/w"] = ((d, 2), std)
    return layout


def init_parameters(config: ModelConfig, vocab: TagVocabulary, rng) -> dict:
    """Fresh parameter store drawn in ``parameter_layout`` order."""
    rng = np.random.default_rng(rng)
    params: dict[str, Tensor] = {}
    for name, (shape, (kind, value)) in parameter_layout(config,
                                                         vocab).items():
        data = (rng.normal(0.0, value, shape) if kind == "normal"
                else np.full(shape, value))
        params[name] = Tensor(data, requires_grad=True)
    return params


def constant_views(params: dict) -> dict:
    """The same arrays as tensors without gradients: a forward builds no graph."""
    return {name: Tensor(t.data) for name, t in params.items()}


def zero_grads(params: dict) -> None:
    for t in params.values():
        t.grad = None


def save_checkpoint(path, params: dict, config: ModelConfig,
                    vocab: TagVocabulary, step: int = 0) -> None:
    """Write ``<path>.tmp`` beside ``path``, then rename it over ``path``;
    on any failure the temp file goes and ``path`` keeps its old bytes.
    A parameter name outside ``parameter_layout`` raises ValueError before
    anything is written, since the payload would silently drop it."""
    layout = parameter_layout(config, vocab)
    for name in params:
        if name not in layout:
            raise ValueError(f"{path}: parameter {name} is not in the "
                             "model's layout")
    header = json.dumps({"config": config.to_dict(),
                         "vocab_levels": vocab.levels, "step": step},
                        sort_keys=True).encode("utf-8")
    head = _MAGIC + struct.pack("<I", len(header)) + header
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            crc = zlib.crc32(head)
            for name in layout:
                data = np.ascontiguousarray(params[name].data, dtype="<f8")
                f.write(data)
                crc = zlib.crc32(data, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (params, config, vocab, step). Another format tag, a CRC-32
    that does not match the bytes before it (a cut or a flipped bit), a
    bad header, a payload whose size is not that of ``parameter_layout``
    of the header's model and vocabulary, or a non-finite value raises
    ValueError naming the file, checked in that order."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != _MAGIC:
        raise ValueError(f"{path}: format tag {raw[:8]!r} is not "
                         f"{_MAGIC.decode()}")
    if len(raw) < 16 or zlib.crc32(memoryview(raw)[:-4]) != int.from_bytes(
            raw[-4:], "little"):
        raise ValueError(f"{path} is truncated or corrupt")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: header is not JSON: {exc}") from None
    try:  # a corrupt file, not a usage error: ValueError, exit 1
        check_section("header", header, _HEADER_SPEC, _HEADER_SPEC)
        if header["step"] < 0:  # --resume would run extra steps
            raise ConfigError("header.step must be >= 0")
        config = ModelConfig.from_dict(header["config"])
        vocab = TagVocabulary(header["vocab_levels"])
    except (ConfigError, VocabularyError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None
    layout = parameter_layout(config, vocab)
    count = sum(math.prod(shape) for shape, _ in layout.values())
    have = len(raw) - 16 - hlen
    if have != 8 * count:
        raise ValueError(f"{path}: payload has {have} bytes, header's model "
                         f"needs {8 * count}")
    # one scan of the whole payload; the per-tensor scans that name the
    # first non-finite tensor run only when it fails
    payload = np.frombuffer(raw, "<f8", count, 12 + hlen)
    finite = np.isfinite(payload).all()
    params, pos = {}, 0
    for name, (shape, _) in layout.items():
        data = payload[pos:pos + math.prod(shape)].reshape(shape)
        if not (finite or np.isfinite(data).all()):
            raise ValueError(f"{path}: parameter {name} is not finite")
        params[name] = Tensor(data.copy(), requires_grad=True)
        pos += data.size
    return params, config, vocab, header["step"]
