"""Run configuration: one JSON file drives every CLI command.

All hyperparameters default to the reference pipeline values (maximum
hand depth 120 mm, layer sizes 1500/700/400, 60 CD-1 epochs, 200
translation-layer epochs, fine-tune at a tenth of the rate).
Component RNG seeds can be pinned individually in the file; when absent
they derive deterministically from the global ``rng_seed``, so ``--seed``
reseeds the whole run.
"""

import json
from dataclasses import asdict, dataclass, field, fields, replace

from fingerspell.dataset import SplitSpec
from fingerspell.dbn import DEFAULT_LAYER_SIZES, SupervisedTrainConfig
from fingerspell.errors import ConfigError, check_fields
from fingerspell.features import FEATURE_KINDS
from fingerspell.imaging import DEFAULT_MAX_HAND_DEPTH_MM, MaskAlignment
from fingerspell.rbm import RbmTrainConfig


@dataclass
class PathsConfig:
    manifest: str = "data/manifest.csv"
    output_dir: str = "out"
    model: str = "out/model.hsdbn"

    def __post_init__(self):
        check_fields(self, "a string without NUL", "manifest", "output_dir", "model")


@dataclass
class PreprocessConfig:
    max_hand_depth_mm: int = DEFAULT_MAX_HAND_DEPTH_MM
    alignment: MaskAlignment = field(default_factory=MaskAlignment)

    def __post_init__(self):
        check_fields(self, "finite and positive", "max_hand_depth_mm")


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    preprocessing: PreprocessConfig = field(default_factory=PreprocessConfig)
    feature_kind: str = "combined"
    layer_sizes: tuple = DEFAULT_LAYER_SIZES
    rbm: list = field(default_factory=list)          # one RbmTrainConfig per layer
    supervised: SupervisedTrainConfig = field(default_factory=SupervisedTrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    workers: int = 1
    rng_seed: int = 1234

    def __post_init__(self):
        if self.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"feature_kind must be one of {FEATURE_KINDS}")
        if not (isinstance(self.layer_sizes, tuple) and self.layer_sizes):
            raise ConfigError("layer_sizes must be a non-empty tuple")
        check_fields(self, "an integer >= 1", "workers", "layer_sizes")
        check_fields(self, "an integer >= 0", "rng_seed")
        if self.rbm and len(self.rbm) != len(self.layer_sizes):
            raise ConfigError("rbm config list must match layer_sizes length")

    def rbm_configs(self) -> list:
        """Per-layer RBM configs; defaults derive their seeds from rng_seed."""
        if self.rbm:
            return list(self.rbm)
        return [RbmTrainConfig(rng_seed=self.rng_seed + RBM_SEED_OFFSET + i) for i in range(len(self.layer_sizes))]


# component seeds derived from the global seed when not pinned in JSON
SPLIT_SEED_OFFSET = 11
RBM_SEED_OFFSET = 21
SUPERVISED_SEED_OFFSET = 31


def _section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"{key} must be a JSON object")
    return section


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON object; absent fields take their defaults.

    A key that names no field, at the top level or in any section, raises :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError("a config must be a JSON object")
    unknown = data.keys() - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(map(repr, unknown)))}")
    try:
        # checks the global seed before the component seeds derive from it
        cfg = RunConfig(rng_seed=data.get("rng_seed", RunConfig.rng_seed))
        seed = cfg.rng_seed

        pre = dict(_section(data, "preprocessing"))
        pre["alignment"] = MaskAlignment(**_section(pre, "alignment"))

        layer_sizes = tuple(data.get("layer_sizes", cfg.layer_sizes))
        rbm = data.get("rbm", [])
        if isinstance(rbm, dict):
            rbm = [{"rng_seed": seed + RBM_SEED_OFFSET + i, **rbm} for i in range(len(layer_sizes))]
        elif not isinstance(rbm, list):
            raise ValueError("rbm must be a JSON object or a list of them")

        supervised = {"rng_seed": seed + SUPERVISED_SEED_OFFSET, **_section(data, "supervised")}
        for stage in ("stage2", "stage3"):
            supervised[stage] = replace(getattr(cfg.supervised, stage), **_section(supervised, stage))

        return replace(
            cfg,
            paths=PathsConfig(**_section(data, "paths")),
            preprocessing=PreprocessConfig(**pre),
            feature_kind=data.get("feature_kind", cfg.feature_kind),
            layer_sizes=layer_sizes,
            rbm=[RbmTrainConfig(**entry) for entry in rbm],
            supervised=SupervisedTrainConfig(**supervised),
            split=SplitSpec(**{"rng_seed": seed + SPLIT_SEED_OFFSET, **_section(data, "split")}),
            workers=data.get("workers", cfg.workers),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict:
    """Full effective configuration (every default resolved)."""
    return {**asdict(cfg), "rbm": [asdict(c) for c in cfg.rbm_configs()]}


def read_config_file(path) -> dict:
    """The JSON object in the UTF-8 file ``path``; any fault of the file raises :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"{path}: unreadable config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: a config file must hold a JSON object")
    return data


def load_config(path=None) -> RunConfig:
    """Load a config JSON; ``None`` gives the configuration of an empty file (``{}``)."""
    return config_from_dict({} if path is None else read_config_file(path))


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
