"""Run configuration: the model and schedule dataclasses, and the one
reader that checks every key, value type and value range of a run
config (a JSON object of four JSON-object sections, ``model``,
``schedule``, ``data`` and ``output``). Values the model never varies
are constants here.
``ModelConfig`` and ``TrainSchedule`` are frozen and range-check their
values when made, so every instance is valid. Field annotations are the
types the reader checks: their evaluation must not be postponed."""
import math
from dataclasses import dataclass, asdict, fields

SUBSTRATE_FEATURES = 5  # chemical features per substrate atom
SECTIONS = ("model", "schedule", "data", "output")
DATA_SPEC = {"records_dir": str, "tags": str, "sites_manifest": str,
             "substrates_dir": str, "pairings": str, "split_seed": int}
OUTPUT_SPEC = {"checkpoint": str, "loss_log": str, "split_manifest": str}


class ConfigError(ValueError):
    pass


def check_section(name: str, raw, spec: dict, required=()) -> dict:
    """``raw`` as run-config section ``name``: a JSON object holding every
    ``required`` key, each key in ``spec`` with a value of its type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} config must be a JSON object, "
                          f"got {type(raw).__name__}")
    for key, value in raw.items():
        if key not in spec:
            raise ConfigError(f"unknown {name} config key {key!r}")
        want = spec[key]
        # JSON typing: an int stands for a float, a bool never for a number
        if (isinstance(value, bool) != (want is bool) or not isinstance(
                value, (int, float) if want is float else want)):
            raise ConfigError(f"{name}.{key} must be {want.__name__}, "
                              f"got {type(value).__name__}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{name} config needs {key}")
    return raw


class _Section:
    """A run-config section whose spec is the dataclass's own fields."""

    @classmethod
    def from_dict(cls, raw):
        spec = {f.name: f.type for f in fields(cls)}
        return cls(**check_section(cls.SECTION, raw, spec))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ModelConfig(_Section):
    SECTION = "model"
    d: int = 64
    num_heads: int = 4
    attention_sublayers: int = 6
    interleave_period: int = 2          # neighborhood sub-layer after each block
    k_neighbors: int = 30
    substrate_layers: int = 3
    max_len: int = 512
    coord_loss_weight: float = 1.0      # weight on the squared coordinate residual
    bond_length: float = 3.75
    freeze_motif_coords: bool = False

    def __post_init__(self):
        for name in ("d", "num_heads", "interleave_period", "k_neighbors",
                     "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        if self.d % self.num_heads != 0:
            raise ConfigError(
                f"d={self.d} not divisible by num_heads={self.num_heads}")
        if self.interleave_period > self.attention_sublayers:
            raise ConfigError(
                f"interleave_period={self.interleave_period} exceeds "
                f"attention_sublayers={self.attention_sublayers}")
        if self.substrate_layers < 0:
            raise ConfigError("model.substrate_layers must be >= 0")
        if not 0 < self.bond_length < math.inf:  # NaN fails every comparison
            raise ConfigError("model.bond_length must be finite and > 0")
        if not 0 <= self.coord_loss_weight < math.inf:
            raise ConfigError("model.coord_loss_weight must be finite and >= 0")

    @property
    def neighborhood_sublayers(self) -> int:
        return self.attention_sublayers // self.interleave_period

    def check_length(self, n: int) -> None:
        """Raise ConfigError if a record of ``n`` residues exceeds max_len."""
        if n > self.max_len:
            raise ConfigError(f"sequence length {n} exceeds max_len "
                              f"{self.max_len}")


@dataclass(frozen=True)
class TrainSchedule(_Section):
    SECTION = "schedule"
    phase1_steps: int = 100
    phase2_steps: int = 400
    learning_rate: float = 3e-4
    batch_residues: int = 8192
    seed: int = 0
    mlm_pretrain_steps: int = 0

    def __post_init__(self):
        for name in ("phase1_steps", "phase2_steps", "seed",
                     "mlm_pretrain_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"schedule.{name} must be >= 0")
        if self.batch_residues < 1:
            raise ConfigError("schedule.batch_residues must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("schedule.learning_rate must be finite and > 0")


def read_run_config(raw):
    """(ModelConfig, TrainSchedule, data, output) from a parsed run config;
    a missing section reads as an empty one."""
    check_section("run", raw, dict.fromkeys(SECTIONS, dict))
    model, schedule, data, output = (raw.get(name, {}) for name in SECTIONS)
    checked = (ModelConfig.from_dict(model), TrainSchedule.from_dict(schedule),
               check_section("data", data, DATA_SPEC,
                             ("records_dir", "tags", "substrates_dir")),
               check_section("output", output, OUTPUT_SPEC))
    if data.get("split_seed", 0) < 0:
        raise ConfigError("data.split_seed must be >= 0")
    return checked
