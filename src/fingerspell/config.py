"""Run configuration: one JSON file drives every CLI command.

All hyperparameters default to the reference pipeline values (maximum
hand depth 120 mm, layer sizes 1500/700/400, 60 CD-1 epochs, 200
translation-layer epochs, fine-tune at a tenth of the rate).
Component RNG seeds can be pinned individually in the file; when absent
they derive deterministically from the global ``rng_seed``, so ``--seed``
reseeds the whole run.  Every RBM layer trains with the one ``rbm``
section; layer ``i`` draws from ``rbm.rng_seed + i``.
"""

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

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
    rbm: RbmTrainConfig = field(default_factory=RbmTrainConfig)  # layer i trains with rng_seed + i
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


# component seeds derived from the global seed when not pinned in JSON
SPLIT_SEED_OFFSET = 11
RBM_SEED_OFFSET = 21
SUPERVISED_SEED_OFFSET = 31


def _merge(base, data, where: str):
    """``base`` (a config dataclass) with the JSON object ``data`` laid over it, section by section.

    A section is merged by the same rule, a tuple field takes ``tuple(value)``
    and any other field takes the value; every level is rebuilt with
    ``dataclasses.replace``, so its ``__post_init__`` checks run.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = data.keys() - {f.name for f in fields(base)}
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {', '.join(sorted(map(repr, unknown)))}")
    changes = {}
    for key, value in data.items():
        default = getattr(base, key)
        if is_dataclass(default):
            value = _merge(default, value, f"{where}.{key}")
        elif isinstance(default, tuple):
            value = tuple(value)
        changes[key] = value
    return replace(base, **changes)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON object; absent fields take their defaults.

    A key that names no field, at the top level or in any section, raises :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError("a config must be a JSON object")
    try:
        # checks the global seed before the component seeds derive from it
        base = RunConfig(rng_seed=data.get("rng_seed", RunConfig.rng_seed))
        seed = base.rng_seed
        derived = {
            "rbm": {"rng_seed": seed + RBM_SEED_OFFSET},
            "supervised": {"rng_seed": seed + SUPERVISED_SEED_OFFSET},
            "split": {"rng_seed": seed + SPLIT_SEED_OFFSET},
        }
        return _merge(_merge(base, derived, "config"), data, "config")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict:
    """Full effective configuration (every default resolved)."""
    return asdict(cfg)


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
