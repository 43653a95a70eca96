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


def _init_linear(params, name, fan_in, fan_out, rng, bias=True, zero=False):
    std = 1.0 / np.sqrt(fan_in)
    w = np.zeros((fan_in, fan_out)) if zero else rng.normal(0.0, std, (fan_in, fan_out))
    params[name + "/w"] = Tensor(w, requires_grad=True)
    if bias:
        params[name + "/b"] = Tensor(np.zeros(fan_out), requires_grad=True)


def _init_neighborhood_block(params, prefix, d, rng, zero_coord_scale=True):
    # message FFN: [h_i; h_k; dist] -> d, SiLU between the two layers.
    # neighborhood_messages splits msg1/w by this row layout (rows [0, d)
    # for h_i, [d, 2d) for h_k, row 2d for dist), so it must not change.
    _init_linear(params, f"{prefix}/msg1", 2 * d + 1, d, rng)
    _init_linear(params, f"{prefix}/msg2", d, d, rng)
    # scalar attention row over messages
    _init_linear(params, f"{prefix}/attn", d, 1, rng)
    # per-edge coordinate scale; last layer zero-initialized so coordinate
    # updates start at rest and grow during training
    _init_linear(params, f"{prefix}/coord1", d, d, rng)
    _init_linear(params, f"{prefix}/coord2", d, 1, rng, zero=zero_coord_scale)
    # gated node update
    _init_linear(params, f"{prefix}/gate1", d, d, rng)
    _init_linear(params, f"{prefix}/gate2", d, d, rng)


def init_parameters(config: ModelConfig, vocab: TagVocabulary, rng,
                    zero_coord_scale: bool = True) -> dict:
    """Fresh parameter store for the full model (enzyme + substrate).

    ``zero_coord_scale=False`` randomizes the per-edge coordinate scale
    instead of starting it at rest; property suites use this so the
    coordinate path is exercised with generic weights.
    """
    rng = np.random.default_rng(rng)
    d = config.d
    params: dict[str, Tensor] = {}

    params["emb/amino"] = Tensor(rng.normal(0.0, 0.02, (NUM_AMINO_ACIDS, d)),
                                 requires_grad=True)
    params["emb/mask"] = Tensor(rng.normal(0.0, 0.02, d), requires_grad=True)
    params["emb/pos"] = Tensor(rng.normal(0.0, 0.02, (config.max_len, d)),
                               requires_grad=True)
    for k, size in enumerate(vocab.sizes(), start=1):
        params[f"emb/tag_l{k}"] = Tensor(rng.normal(0.0, 0.02, (size, d)),
                                         requires_grad=True)

    for i in range(config.attention_sublayers):
        p = f"attn{i}"
        for proj in ("q", "k", "v", "o"):
            _init_linear(params, f"{p}/{proj}", d, d, rng)
        _init_linear(params, f"{p}/ffn1", d, 4 * d, rng)
        _init_linear(params, f"{p}/ffn2", 4 * d, d, rng)
        for ln in ("ln1", "ln2"):
            params[f"{p}/{ln}/g"] = Tensor(np.ones(d), requires_grad=True)
            params[f"{p}/{ln}/b"] = Tensor(np.zeros(d), requires_grad=True)

    for j in range(config.neighborhood_sublayers):
        _init_neighborhood_block(params, f"neigh{j}", d, rng,
                                 zero_coord_scale=zero_coord_scale)

    _init_linear(params, "sub/input", SUBSTRATE_FEATURES, d, rng, bias=False)
    for j in range(config.substrate_layers):
        _init_neighborhood_block(params, f"sub{j}", d, rng)
    _init_linear(params, "binding/out", 2 * d, 2, rng, bias=False)
    return params


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
    """Returns (params, config, vocab, step). A truncated file or a bad
    header raises ValueError naming the file.

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
    return params, config, vocab, header["step"]
