import json
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from enzydesign.cli import UsageError, load_run_config
from enzydesign.config import (DATA_SPEC, OUTPUT_SPEC, SECTIONS, ConfigError,
                               ModelConfig, TrainSchedule, read_run_config)
from helpers import RUN_CONFIG_SPEC, read_text_as

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import seeded_inputs  # noqa: E402


def test_defaults_are_valid():
    cfg = ModelConfig()
    assert cfg.d == 64
    assert cfg.neighborhood_sublayers == 3


def test_head_divisibility():
    with pytest.raises(ConfigError, match="d=10 not divisible by num_heads=4"):
        ModelConfig(d=10, num_heads=4)


def test_interleave_bounds():
    with pytest.raises(ConfigError):
        ModelConfig(interleave_period=0)
    with pytest.raises(ConfigError):
        ModelConfig(attention_sublayers=2, interleave_period=3)


def test_negative_coord_weight():
    with pytest.raises(ConfigError):
        ModelConfig(coord_loss_weight=-1.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls,key,value,message", [
    *((ModelConfig, key, 0, f"model.{key} must be >= 1") for key in (
        "d", "num_heads", "interleave_period", "k_neighbors", "max_len")),
    (ModelConfig, "num_heads", 3, "d=64 not divisible by num_heads=3"),
    (ModelConfig, "interleave_period", 7,
     "interleave_period=7 exceeds attention_sublayers=6"),
    (ModelConfig, "substrate_layers", -1, "model.substrate_layers must be >= 0"),
    *((ModelConfig, "bond_length", v, "model.bond_length must be finite and > 0")
      for v in (0.0, -1.0, _NAN, _INF)),
    *((ModelConfig, "coord_loss_weight", v,
       "model.coord_loss_weight must be finite and >= 0")
      for v in (-1e-9, _NAN, _INF)),
    *((TrainSchedule, key, -1, f"schedule.{key} must be >= 0") for key in (
        "phase1_steps", "phase2_steps", "seed", "mlm_pretrain_steps")),
    (TrainSchedule, "batch_residues", 0, "schedule.batch_residues must be >= 1"),
    *((TrainSchedule, "learning_rate", v,
       "schedule.learning_rate must be finite and > 0")
      for v in (0.0, -0.1, _NAN, _INF)),
])
def test_invalid_value_raises_at_construction(cls, key, value, message):
    """Each out-of-range value raises ConfigError with its one message when
    the config is made, directly or from a run-config section."""
    for make in (lambda: cls(**{key: value}),
                 lambda: cls.from_dict({key: value})):
        with pytest.raises(ConfigError) as caught:
            make()
        assert str(caught.value) == message


@pytest.mark.parametrize("obj,key", [(ModelConfig(), "d"),
                                     (TrainSchedule(), "learning_rate")])
def test_fields_cannot_be_assigned(obj, key):
    """A config is checked once, when made, so its fields stay put."""
    with pytest.raises(FrozenInstanceError):
        setattr(obj, key, getattr(obj, key))
    assert replace(obj, **{key: 2 * getattr(obj, key)}) != obj


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"d": 8, "width": 9})


def test_round_trip():
    cfg = ModelConfig(d=8, num_heads=2, freeze_motif_coords=True)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_ints_stand_for_floats_and_bools_for_nothing_else():
    assert ModelConfig.from_dict({"bond_length": 4}).bond_length == 4
    for bad in ({"d": True}, {"coord_loss_weight": False},
                {"freeze_motif_coords": 1}, {"d": 64.0}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ModelConfig.from_dict(bad)


def test_negative_split_seed_is_rejected_by_the_reader():
    """The reader checks the range without looking at the file system."""
    raw = {"data": {"records_dir": "absent", "tags": "absent",
                    "substrates_dir": "absent", "split_seed": -1}}
    with pytest.raises(ConfigError, match=r"^data\.split_seed must be >= 0$"):
        read_run_config(raw)
    raw["data"]["split_seed"] = 0
    assert read_run_config(raw)[2]["split_seed"] == 0


def test_shipped_and_benchmark_configs_load(tmp_path, monkeypatch):
    """configs/toy.json and every run config the benchmark writes load,
    so retiring a key they set fails here first."""
    monkeypatch.chdir(ROOT)
    load_run_config(ROOT / "configs" / "toy.json")
    for workload in sorted(seeded_inputs.GENERATORS):
        root = tmp_path / workload
        seeded_inputs.write_inputs(workload, root, 7)
        monkeypatch.chdir(root)
        configs = sorted(root.glob("*.json"))
        assert configs
        for path in configs:
            load_run_config(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def _run_config(draw):
    """A run config naming the toy records, tags and substrates, with one
    section replaced by any JSON value or by an object whose keys are
    mostly the section's own; sometimes that value alone is the whole
    config."""
    raw = {"data": {"records_dir": str(ROOT / "data" / "toy" / "records"),
                    "tags": str(ROOT / "data" / "toy" / "tags.tsv"),
                    "substrates_dir": str(ROOT / "data" / "toy"
                                          / "substrates")}}
    section = draw(st.sampled_from(SECTIONS + ("extras",)))
    keys = st.sampled_from([*RUN_CONFIG_SPEC.get(section, ()), "bogus"])
    raw[section] = draw(_JSON | st.dictionaries(keys, _JSON, max_size=4))
    return draw(st.sampled_from([raw, raw[section]]))


def _typed(value, want) -> bool:
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def _load(path):
    try:
        return load_run_config(path), None
    except (UsageError, ConfigError) as exc:  # both exit 2
        return None, str(exc)


@given(_run_config())
@example({"data": {"records_dir": "a\nb", "tags": "t",
                   "substrates_dir": "s"}})
@settings(max_examples=300, deadline=None)
def test_any_json_loads_or_raises_usage_error(raw):
    """A run config loads with values of the declared types, or raises a
    one-line UsageError or ConfigError."""
    loaded, error = read_text_as(_load, json.dumps(raw))
    if loaded is None:
        assert error and "\n" not in error
        return
    model, schedule, data, output = loaded
    for obj in (model, schedule):
        assert all(_typed(getattr(obj, f.name), f.type) for f in fields(obj))
    for section, spec in ((data, DATA_SPEC), (output, OUTPUT_SPEC)):
        assert all(_typed(v, spec[k]) for k, v in section.items())
    assert data.get("split_seed", 0) >= 0
