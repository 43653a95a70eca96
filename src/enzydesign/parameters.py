"""Named parameter store, initialization, and binary checkpoints.

Every learnable weight lives in a flat dict keyed by a stable name, so
gradient audits can enumerate tensors and checkpoints round-trip
byte-identically. Checkpoint layout: magic, JSON header (model config,
tag vocabularies, step counter, parameter count), then per-parameter
records sorted by name with little-endian float64 payloads.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .config import SUBSTRATE_FEATURES, ConfigError, ModelConfig, check_section
from .numerics import LAYER_NORM_EPS, Tensor
from .residues import NUM_AMINO_ACIDS

_MAGIC = b"ENZD0001"
_HEADER_SPEC = {"config": dict, "vocab_levels": list, "step": int,
                "param_count": int}
# Retired model keys that older headers carry, with the value each must hold
_RETIRED_KEYS = {"knn_mode": "dynamic", "layer_norm_eps": LAYER_NORM_EPS,
                 "ffn_multiplier": 4, "substrate_feature_dim": 5}


class VocabularyError(KeyError):
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


def parameter_layout(config: ModelConfig, vocab: TagVocabulary,
                     zero_coord_scale: bool = True) -> dict:
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

    def neighborhood_block(prefix, zero_coord):
        # message FFN: [h_i; h_k; dist] -> d, SiLU between the two layers.
        # edge_projections and neighborhood_messages split msg1/w by this
        # row layout (rows [0, d) for h_i, [d, 2d) for h_k, row 2d for
        # dist), so it must not change.
        linear(f"{prefix}/msg1", 2 * d + 1, d)
        linear(f"{prefix}/msg2", d, d)
        # scalar attention row over messages
        linear(f"{prefix}/attn", d, 1)
        # per-edge coordinate scale; last layer zero-initialized so
        # coordinate updates start at rest and grow during training
        linear(f"{prefix}/coord1", d, d)
        linear(f"{prefix}/coord2", d, 1, zero=zero_coord)
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
        neighborhood_block(f"neigh{j}", zero_coord_scale)
    linear("sub/input", SUBSTRATE_FEATURES, d, bias=False)
    # substrate coordinates stay fixed, so substrate_forward never reads
    # sub{j}/coord1 and coord2; they stay here to keep the draw order
    for j in range(config.substrate_layers):
        neighborhood_block(f"sub{j}", True)
    linear("binding/out", 2 * d, 2, bias=False)
    return layout


def init_parameters(config: ModelConfig, vocab: TagVocabulary, rng,
                    zero_coord_scale: bool = True) -> dict:
    """Fresh parameter store drawn in ``parameter_layout`` order.

    ``zero_coord_scale=False`` randomizes the per-edge coordinate scale
    instead of starting it at rest; property suites use this so the
    coordinate path is exercised with generic weights.
    """
    rng = np.random.default_rng(rng)
    params: dict[str, Tensor] = {}
    for name, (shape, (kind, value)) in parameter_layout(
            config, vocab, zero_coord_scale).items():
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
    header = {
        "config": config.to_dict(),
        "vocab_levels": vocab.levels,
        "step": step,
        "param_count": len(params),
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for name in sorted(params):
            t = params[name]
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                f.write(struct.pack("<I", dim))
            f.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (params, config, vocab, step). A truncated file, a bad
    header, a non-finite payload value, or a payload whose parameter
    names or shapes differ from ``parameter_layout`` of the header's
    model and vocabulary raises ValueError naming the file.

    A cut inside a record is caught by the short read; a cut at a record
    boundary by the parameter count in the header, when it has one.
    """
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            raw = f.read(n)
            if len(raw) != n:
                raise ValueError(f"{path} is truncated")
            return raw

        if f.read(8) != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        (hlen,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: header is not JSON: {exc}") from None
        params: dict[str, Tensor] = {}
        while f.peek(1):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(8 * count), dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: parameter {name} is not finite")
            params[name] = Tensor(data.copy(), requires_grad=True)
    try:  # a corrupt file, not a usage error: ValueError, exit 1
        check_section("header", header, _HEADER_SPEC,
                      ("config", "vocab_levels", "step"))
        fields = dict(header["config"])
        for key, value in _RETIRED_KEYS.items():
            if fields.pop(key, value) != value:
                raise ConfigError(f"model key {key} is no longer settable "
                                  f"and must be {value!r}")
        config = ModelConfig.from_dict(fields)
        vocab = TagVocabulary(header["vocab_levels"])
    except (ConfigError, VocabularyError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None
    if len(params) < header.get("param_count", 0):
        raise ValueError(f"{path} is truncated")
    layout = parameter_layout(config, vocab)
    for name in sorted(layout.keys() | params.keys()):
        have = str(params[name].shape) if name in params else "no entry"
        need = str(layout[name][0]) if name in layout else "no entry"
        if have != need:
            raise ValueError(f"{path}: parameter {name}: payload has {have}, "
                             f"header's model needs {need}")
    return params, config, vocab, header["step"]
