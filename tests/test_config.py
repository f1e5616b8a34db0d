import copy
import json
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerspell.dbn as dbn_mod
from fingerspell.config import RunConfig, config_from_dict, config_to_dict, load_config, save_config
from fingerspell.errors import ConfigError
from fingerspell.features import (
    BAR_KERNEL_SIZE,
    BAR_ORIENTATIONS,
    BAR_OUT_SIZE,
    GABOR_KERNEL_SIZE,
    GABOR_ORIENTATIONS,
    GABOR_OUT_SIZE,
    GABOR_SIGMA_RATIO,
    GABOR_WAVELENGTHS,
    N_LAYERS,
)
from fingerspell.rbm import train_rbm


def ref_config_to_dict(cfg):
    """The hand-written ``config_to_dict`` that ``dataclasses.asdict`` replaced, kept as the byte reference."""
    return {
        "paths": asdict(cfg.paths),
        "preprocessing": {
            "max_hand_depth_mm": cfg.preprocessing.max_hand_depth_mm,
            "alignment": asdict(cfg.preprocessing.alignment),
        },
        "feature_kind": cfg.feature_kind,
        "layer_sizes": list(cfg.layer_sizes),
        "rbm": asdict(cfg.rbm),
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


def loads_or_config_error(data):
    try:
        config_from_dict(data)
    except ConfigError:
        pass


class TestRunConfig:
    def test_defaults_carry_reference_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.preprocessing.max_hand_depth_mm == 120
        assert cfg.layer_sizes == (1500, 700, 400)
        assert cfg.rbm.epochs == 60
        assert cfg.supervised.stage2.epochs == 200
        assert cfg.supervised.stage3.learning_rate == pytest.approx(cfg.supervised.stage2.learning_rate * 0.1)

    def test_dict_round_trip(self):
        cfg = config_from_dict({"layer_sizes": [8, 4], "rng_seed": 5, "rbm": {"epochs": 3}})
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_component_seeds_derive_from_global(self):
        a = config_from_dict({"rng_seed": 100})
        b = config_from_dict({"rng_seed": 200})
        assert a.split.rng_seed != b.split.rng_seed
        assert a.supervised.rng_seed != b.supervised.rng_seed

    def test_pinned_seed_survives(self):
        cfg = config_from_dict({"rng_seed": 100, "split": {"rng_seed": 9}})
        assert cfg.split.rng_seed == 9

    def test_invalid_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"feature_kind": "hog"})
        with pytest.raises(ConfigError):
            config_from_dict({"workers": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"layer_sizes": []})
        with pytest.raises(ConfigError):
            config_from_dict({"preprocessing": {"alignment": {"scale_x": -1}}})

    @pytest.mark.parametrize("preprocessing", [
        {"max_hand_depth_mm": 0},
        {"max_hand_depth_mm": -10},
        {"max_hand_depth_mm": float("nan")},
        {"max_hand_depth_mm": float("inf")},
        {"max_hand_depth_mm": "120"},
        {"n_layers": 0},  # the six depth layers are fixed: n_layers is no field of the section
        {"n_layers": 2.5},
        {"n_layers": "6"},
        {"alignment": {"offset_x": float("nan")}},
        {"alignment": {"scale_y": float("inf")}},
        {"max_hand_depth_mm": 10**400},
    ])
    def test_invalid_preprocessing_raises_config_error(self, preprocessing):
        with pytest.raises(ConfigError):
            config_from_dict({"preprocessing": preprocessing})

    def test_invalid_filter_bank_raises_config_error(self):
        # the filter banks are fixed: a config that still sets them is refused
        with pytest.raises(ConfigError):
            config_from_dict({"filter_bank": {"gabor_out_size": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"filter_bank": {"bar_orientations": 3}})

    @pytest.mark.parametrize("raw", [
        {"rbm": {"learning_rate": float("nan")}},
        {"rbm": {"l2_coeff": float("nan")}},
        {"rbm": {"l1_coeff": -1e-5}},
        {"rbm": {"epochs": -1}},
        {"rbm": {"epochs": float("nan")}},
        {"rbm": {"batch_size": 2.5}},
        {"supervised": {"stage2": {"learning_rate": float("nan")}}},
        {"supervised": {"stage3": {"learning_rate": float("nan")}}},
        {"supervised": {"stage2": {"learning_rate": float("inf")}}},
        {"supervised": {"stage2": {"batch_size": 0}}},
        {"supervised": {"stage2": {"batch_size": 36.0}}},
        {"supervised": {"stage2": {"epochs": 0}}},
        {"supervised": {"stage3": {"epochs": 0}}},
        {"supervised": {"stage2": {"early_stopping_patience": 0}}},
        {"supervised": {"stage2": {"input_noise_sigma": float("nan")}}},
        {"supervised": {"stage2": {"input_noise_sigma": -0.1}}},
        {"supervised": {"stage3": {"l2_coeff": float("nan")}}},
        {"supervised": {"stage2": {"momentum": 1.5}}},
        {"supervised": {"stage3": {"momentum": float("nan")}}},
        {"supervised": {"stage2": {"learning_rate": 10**400}}},
        {"rbm": {"convergence_window": 0}},
        {"rbm": {"convergence_window": 2.5}},
        {"rbm": {"convergence_tol": float("nan")}},
        {"rbm": {"convergence_tol": float("inf")}},
        {"rbm": {"convergence_tol": -1e-4}},
        {"rbm": {"momentum_switch_epoch": -3}},
        {"rbm": {"momentum_switch_epoch": float("nan")}},
        {"rbm": {"rng_seed": 1.5}},
        {"rbm": {"rng_seed": True}},
        {"rbm": {"rng_seed": -1}},
        {"layer_sizes": [6, 4], "rbm": {"rng_seed": 2.0}},
        {"supervised": {"rng_seed": 2.5}},
        {"supervised": {"rng_seed": -1}},
        {"split": {"rng_seed": 2.5}},
        {"split": {"rng_seed": False}},
        {"rng_seed": 1.5},
        {"rng_seed": True},
        {"rng_seed": "7"},
        {"rng_seed": -40},
    ])
    def test_invalid_training_field_raises_config_error(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_large_and_numpy_integer_seeds_are_accepted(self):
        cfg = config_from_dict({"rng_seed": 2**40, "rbm": {"rng_seed": np.int64(3)}, "split": {"rng_seed": 0}})
        assert cfg.rng_seed == 2**40 and cfg.rbm.rng_seed == 3 and cfg.split.rng_seed == 0

    def test_pretraining_may_be_skipped(self):
        # zero RBM epochs keep the initial weights: a valid untrained stack
        assert config_from_dict({"rbm": {"epochs": 0}}).rbm.epochs == 0

    def test_float_max_hand_depth_is_accepted(self):
        assert config_from_dict({"preprocessing": {"max_hand_depth_mm": 95.5}}).preprocessing.max_hand_depth_mm == 95.5

    @staticmethod
    def layer_seeds(monkeypatch, raw):
        """The seed that ``pretrain`` hands each RBM layer under the config ``raw``."""
        seeds = []

        def spy(data, cfg, n_hidden, on_epoch=None, rows=None):
            seeds.append(cfg.rng_seed)
            return train_rbm(data, cfg, n_hidden, on_epoch=on_epoch, rows=rows)

        monkeypatch.setattr(dbn_mod, "train_rbm", spy)
        cfg = config_from_dict(raw)
        dbn_mod.pretrain(np.random.default_rng(0).random((6, 5)), cfg.layer_sizes, cfg.rbm)
        return seeds

    def test_global_seed_reaches_every_rbm_layer(self, monkeypatch):
        # an rbm list without seeds used to give every layer seed 0, whatever rng_seed said
        raw = {"layer_sizes": [6, 4], "rbm": {"epochs": 1}}
        a = self.layer_seeds(monkeypatch, {**raw, "rng_seed": 5})
        b = self.layer_seeds(monkeypatch, {**raw, "rng_seed": 99})
        assert (a, b) == ([26, 27], [120, 121])

    def test_pinned_rbm_seed_gives_layer_i_that_seed_plus_i(self, monkeypatch):
        raw = {"layer_sizes": [6, 4, 3], "rbm": {"epochs": 1, "rng_seed": 40}, "rng_seed": 5}
        assert self.layer_seeds(monkeypatch, raw) == [40, 41, 42]

    def test_rbm_list_is_refused(self):
        # one rbm section trains every layer; the per-layer list of earlier effective configs is gone
        with pytest.raises(ConfigError, match="config.rbm must be a JSON object"):
            config_from_dict({"layer_sizes": [6, 4], "rbm": [{"epochs": 1}, {"epochs": 1}]})

    def test_file_round_trip(self, tmp_path):
        cfg = config_from_dict({"rng_seed": 31, "layer_sizes": [10]})
        p = tmp_path / "run.json"
        save_config(cfg, p)
        back = load_config(p)
        assert config_to_dict(back) == config_to_dict(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")


class TestDictConversion:
    @pytest.mark.parametrize("raw", [
        {},
        {"layer_sizes": [6, 4], "rbm": {"epochs": 1, "rng_seed": 1, "learning_rate": 0.05}},
        {"feature_kind": "gabor", "preprocessing": {"max_hand_depth_mm": 95.5, "alignment": {"offset_x": 2.5}}},
        {"rng_seed": 5, "rbm": {"epochs": 3}, "split": {"mode": "unseen", "test_user": "user01"}, "workers": 2,
         "supervised": {"stage2": {"epochs": 7}, "stage3": {"learning_rate": 0.005}, "rng_seed": 9}},
    ])
    def test_json_text_equals_hand_written_reference(self, tmp_path, raw):
        cfg = config_from_dict(raw)
        expected = json.dumps(ref_config_to_dict(cfg), indent=2)
        assert json.dumps(config_to_dict(cfg), indent=2) == expected
        save_config(cfg, tmp_path / "cfg.json")
        assert (tmp_path / "cfg.json").read_text() == expected

    def test_stage_defaults_come_from_supervised_config(self):
        cfg = config_from_dict({"supervised": {"stage2": {"epochs": 7}, "stage3": {}}})
        defaults = RunConfig().supervised
        assert cfg.supervised.stage3 == defaults.stage3
        assert asdict(cfg.supervised.stage2) == {**asdict(defaults.stage2), "epochs": 7}


class TestLoading:
    def test_no_file_equals_empty_object(self):
        assert load_config(None) == config_from_dict({})
        # component seeds derive from the default global seed, as they do for a file holding {}
        assert load_config(None).split.rng_seed == 1245 and load_config(None).supervised.rng_seed == 1265

    def test_empty_object_file_equals_no_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("{}")
        assert load_config(p) == load_config(None)

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                     # not UTF-8
        b'{"feature_kind": "c\xe9"}',      # Latin-1 inside a JSON string
        b"[]",
        b'[["rng_seed", 5]]',              # used to load as {"rng_seed": 5}
        b"null",
        b"7",
        b'"{}"',
        b"{not json",
        b"",
    ])
    def test_file_faults_raise_config_error(self, tmp_path, content):
        p = tmp_path / "run.json"
        p.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(p)

    def test_directory_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    @pytest.mark.parametrize("raw", [
        {"filter_bank": None},
        {"filter_bank": []},
        {"filter_bank": [["gabor_out_size", 20]]},
        {"paths": None},
        {"paths": [["manifest", "m.csv"]]},
        {"preprocessing": None},
        {"preprocessing": {"alignment": None}},
        {"preprocessing": {"alignment": []}},
        {"supervised": None},
        {"supervised": [["rng_seed", 3]]},
        {"supervised": {"stage2": None}},
        {"supervised": {"stage3": []}},
        {"split": None},
        {"split": [["mode", "unseen"]]},
        {"rbm": None},
        {"rbm": 3},
        {"rbm": "epochs"},
        {"layer_sizes": [6, 4], "rbm": [{"epochs": 1}, None]},
        {"paths": {"manifest": 5}},
        {"paths": {"model": "out/a\0b"}},
        {"split": {"mode": "unseen", "test_user": []}},
        {"split": {"mode": "unseen", "test_user": 3}},
        {"preprocessing": [["max_hand_depth_mm", 90]]},
    ])
    def test_section_that_is_not_an_object_raises_config_error(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw", [
        {"supervised": {"stage4": {}}},
        {"split": {"user": "u1"}},
        {"paths": {"models": "m.hsdbn"}},
        {"rbm": {"epoch": 3}},
        {"preprocessing": {"n_layers": 6}},  # the six depth layers are fixed
    ])
    def test_unknown_key_in_a_section_raises_config_error(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, key", [
        ({"comment": "trial 3"}, "'comment'"),
        ({"filter_bank": {}}, "'filter_bank'"),           # the filter banks are fixed
        ({"layer_sizes": [8], "epochs": 3}, "'epochs'"),
    ])
    def test_unknown_top_level_key_raises_config_error(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    @pytest.mark.parametrize("data", [None, [], [["rng_seed", 5]], "{}", 7])
    def test_top_level_must_be_an_object(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("raw", [
        {"layer_sizes": [8.5]},
        {"layer_sizes": [8, 4.0]},
        {"layer_sizes": [True]},
        {"layer_sizes": ["8"]},
        {"layer_sizes": "8"},
        {"layer_sizes": 8},
        {"layer_sizes": [8, 0]},
        {"workers": 2.7},
        {"workers": "2"},
        {"workers": True},
        {"workers": None},
    ])
    def test_run_config_fields_raise_config_error(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("kwargs", [
        {"rng_seed": -1},
        {"rng_seed": 1.5},
        {"rng_seed": True},
        {"workers": "2"},
        {"workers": 0},
        {"layer_sizes": (8.5,)},
        {"layer_sizes": (False, 4)},
    ])
    def test_run_config_checks_its_own_fields(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    """One config file that every fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "run.json"


DEFAULT_DICT = json.loads(json.dumps(config_to_dict(RunConfig())))


def mutate(data, draw):
    """Replace or delete one value anywhere in ``data`` (a JSON object), in place."""
    node = data
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = draw(json_values)
            return


def numeric_fields(section, path=()):
    """``(path, default)`` of every numeric field, or tuple of numbers, in ``section`` and the sections inside it."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from numeric_fields(value, path + (f.name,))
        elif isinstance(value, (int, float)) or (isinstance(value, tuple) and isinstance(value[0], (int, float))):
            yield path + (f.name,), value


NUMERIC_FIELDS = list(numeric_fields(RunConfig()))
# fields that are constants now; a config that still sets one is refused, whatever the value
REMOVED_NUMERIC_FIELDS = [
    (("filter_bank", "bar_kernel_size"), BAR_KERNEL_SIZE),
    (("filter_bank", "bar_orientations"), BAR_ORIENTATIONS),
    (("filter_bank", "bar_out_size"), BAR_OUT_SIZE),
    (("filter_bank", "gabor_kernel_size"), GABOR_KERNEL_SIZE),
    (("filter_bank", "gabor_orientations"), GABOR_ORIENTATIONS),
    (("filter_bank", "gabor_out_size"), GABOR_OUT_SIZE),
    (("filter_bank", "gabor_sigma_ratio"), GABOR_SIGMA_RATIO),
    (("filter_bank", "gabor_wavelengths"), GABOR_WAVELENGTHS),
    (("preprocessing", "n_layers"), N_LAYERS),
]


class TestBoolFields:
    def test_the_walk_reaches_every_section(self):
        sections = {path[:-1] for path, _ in NUMERIC_FIELDS}
        assert sections >= {(), ("preprocessing",), ("preprocessing", "alignment"), ("rbm",),
                            ("supervised",), ("supervised", "stage2"), ("supervised", "stage3"), ("split",)}

    @pytest.mark.parametrize("path, default", NUMERIC_FIELDS + REMOVED_NUMERIC_FIELDS,
                             ids=[".".join(p) for p, _ in NUMERIC_FIELDS + REMOVED_NUMERIC_FIELDS])
    def test_true_is_refused_for_every_numeric_field(self, path, default):
        assert config_to_dict(config_from_dict(DEFAULT_DICT)) == config_to_dict(RunConfig())
        raw = copy.deepcopy(DEFAULT_DICT)
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})  # a removed section comes back empty
        node[path[-1]] = [True, *default[1:]] if isinstance(default, tuple) else True
        with pytest.raises(ConfigError):
            config_from_dict(raw)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_any_json_value(self, data):
        loads_or_config_error(data)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(DEFAULT_DICT)), json_values, max_size=4))
    def test_any_value_under_known_keys(self, data):
        loads_or_config_error(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutations_of_a_valid_config(self, data):
        raw = json.loads(json.dumps(DEFAULT_DICT))
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(raw, data.draw)
        loads_or_config_error(raw)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200) | json_values.map(lambda v: json.dumps(v).encode()))
    def test_any_file_bytes(self, fuzz_path, content):
        fuzz_path.write_bytes(content)
        try:
            load_config(fuzz_path)
        except ConfigError:
            pass
