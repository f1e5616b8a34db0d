"""Run configuration: one JSON file drives every CLI command.

All hyperparameters default to the reference pipeline values (maximum
hand depth 120 mm, 6 depth layers, layer sizes 1500/700/400, 60 CD-1
epochs, 200 translation-layer epochs, fine-tune at a tenth of the rate).
Component RNG seeds can be pinned individually in the file; when absent
they derive deterministically from the global ``rng_seed``, so ``--seed``
reseeds the whole run.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral
from pathlib import Path

from fingerspell.dataset import SplitSpec
from fingerspell.dbn import DEFAULT_LAYER_SIZES, StageConfig, SupervisedTrainConfig
from fingerspell.errors import ConfigError
from fingerspell.features import FEATURE_KINDS, FilterBankConfig
from fingerspell.imaging import DEFAULT_MAX_HAND_DEPTH_MM, MaskAlignment
from fingerspell.rbm import RbmTrainConfig


@dataclass
class PathsConfig:
    manifest: str = "data/manifest.csv"
    output_dir: str = "out"
    model: str = "out/model.hsdbn"


@dataclass
class PreprocessConfig:
    max_hand_depth_mm: int = DEFAULT_MAX_HAND_DEPTH_MM
    n_layers: int = 6
    alignment: MaskAlignment = field(default_factory=MaskAlignment)

    def __post_init__(self):
        if not (math.isfinite(self.max_hand_depth_mm) and self.max_hand_depth_mm > 0):
            raise ValueError("max_hand_depth_mm must be finite and positive")
        if not (isinstance(self.n_layers, Integral) and self.n_layers >= 1):
            raise ValueError("n_layers must be an integer >= 1")


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    preprocessing: PreprocessConfig = field(default_factory=PreprocessConfig)
    feature_kind: str = "combined"
    filter_bank: FilterBankConfig = field(default_factory=FilterBankConfig)
    layer_sizes: tuple = DEFAULT_LAYER_SIZES
    rbm: list = field(default_factory=list)          # one RbmTrainConfig per layer
    supervised: SupervisedTrainConfig = field(default_factory=SupervisedTrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    workers: int = 1
    rng_seed: int = 1234

    def __post_init__(self):
        if self.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"feature_kind must be one of {FEATURE_KINDS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if len(self.layer_sizes) < 1 or any(s < 1 for s in self.layer_sizes):
            raise ConfigError("layer_sizes must be a non-empty list of positive sizes")
        if self.rbm and len(self.rbm) != len(self.layer_sizes):
            raise ConfigError("rbm config list must match layer_sizes length")

    def rbm_configs(self) -> list:
        """Per-layer RBM configs; defaults derive their seeds from rng_seed."""
        if self.rbm:
            return list(self.rbm)
        return [RbmTrainConfig(rng_seed=self.rng_seed + 21 + i) for i in range(len(self.layer_sizes))]


# component seeds derived from the global seed when not pinned in JSON
SPLIT_SEED_OFFSET = 11
SUPERVISED_SEED_OFFSET = 31


def _build_stage(d: dict, defaults: StageConfig) -> StageConfig:
    kwargs = asdict(defaults)
    kwargs.update(d)
    return StageConfig(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON dict."""
    try:
        data = dict(data)
        seed = data.get("rng_seed", 1234)
        if not (isinstance(seed, Integral) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError("rng_seed must be an integer >= 0")

        paths = PathsConfig(**data.get("paths", {}))

        pre = dict(data.get("preprocessing", {}))
        alignment = MaskAlignment(**pre.pop("alignment", {}))
        preprocessing = PreprocessConfig(alignment=alignment, **pre)

        filter_bank = FilterBankConfig.from_dict(data.get("filter_bank", {})) if data.get("filter_bank") else FilterBankConfig()

        layer_sizes = tuple(data.get("layer_sizes", DEFAULT_LAYER_SIZES))

        rbm_raw = data.get("rbm", None)
        if rbm_raw is None:
            rbm = []
        elif isinstance(rbm_raw, dict):
            rbm = [
                RbmTrainConfig(**{**rbm_raw, "rng_seed": rbm_raw.get("rng_seed", seed + 21 + i)})
                for i in range(len(layer_sizes))
            ]
        else:
            rbm = [RbmTrainConfig(**entry) for entry in rbm_raw]

        sup_raw = dict(data.get("supervised", {}))
        stage2 = _build_stage(sup_raw.get("stage2", {}), StageConfig(input_noise_sigma=0.1))
        stage3 = _build_stage(sup_raw.get("stage3", {}), StageConfig(learning_rate=0.01, l2_coeff=1e-4))
        supervised = SupervisedTrainConfig(
            stage2=stage2,
            stage3=stage3,
            rng_seed=sup_raw.get("rng_seed", seed + SUPERVISED_SEED_OFFSET),
        )

        split_raw = dict(data.get("split", {}))
        split = SplitSpec(
            mode=split_raw.get("mode", "allseen"),
            test_user=split_raw.get("test_user"),
            rng_seed=split_raw.get("rng_seed", seed + SPLIT_SEED_OFFSET),
        )

        return RunConfig(
            paths=paths,
            preprocessing=preprocessing,
            feature_kind=data.get("feature_kind", "combined"),
            filter_bank=filter_bank,
            layer_sizes=layer_sizes,
            rbm=rbm,
            supervised=supervised,
            split=split,
            workers=int(data.get("workers", 1)),
            rng_seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict:
    """Full effective configuration (every default resolved)."""
    return {
        "paths": asdict(cfg.paths),
        "preprocessing": {
            "max_hand_depth_mm": cfg.preprocessing.max_hand_depth_mm,
            "n_layers": cfg.preprocessing.n_layers,
            "alignment": asdict(cfg.preprocessing.alignment),
        },
        "feature_kind": cfg.feature_kind,
        "filter_bank": cfg.filter_bank.to_dict(),
        "layer_sizes": list(cfg.layer_sizes),
        "rbm": [asdict(c) for c in cfg.rbm_configs()],
        "supervised": {
            "stage2": asdict(cfg.supervised.stage2),
            "stage3": asdict(cfg.supervised.stage3),
            "rng_seed": cfg.supervised.rng_seed,
        },
        "split": {
            "mode": cfg.split.mode,
            "test_user": cfg.split.test_user,
            "rng_seed": cfg.split.rng_seed,
        },
        "workers": cfg.workers,
        "rng_seed": cfg.rng_seed,
    }


def load_config(path=None) -> RunConfig:
    """Load a config JSON; ``None`` gives the all-defaults configuration."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
