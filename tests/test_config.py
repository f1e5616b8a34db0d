import pytest

from fingerspell.config import RunConfig, config_from_dict, config_to_dict, load_config, save_config
from fingerspell.errors import ConfigError


class TestRunConfig:
    def test_defaults_carry_reference_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.preprocessing.max_hand_depth_mm == 120
        assert cfg.preprocessing.n_layers == 6
        assert cfg.layer_sizes == (1500, 700, 400)
        rbm_cfgs = cfg.rbm_configs()
        assert len(rbm_cfgs) == 3 and all(c.epochs == 60 for c in rbm_cfgs)
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
        {"n_layers": 0},
        {"n_layers": 2.5},
        {"n_layers": "6"},
        {"alignment": {"offset_x": float("nan")}},
        {"alignment": {"scale_y": float("inf")}},
    ])
    def test_invalid_preprocessing_raises_config_error(self, preprocessing):
        with pytest.raises(ConfigError):
            config_from_dict({"preprocessing": preprocessing})

    def test_invalid_filter_bank_raises_config_error(self):
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
    ])
    def test_invalid_training_field_raises_config_error(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_pretraining_may_be_skipped(self):
        # zero RBM epochs keep the initial weights: a valid untrained stack
        assert all(c.epochs == 0 for c in config_from_dict({"rbm": {"epochs": 0}}).rbm_configs())

    def test_float_max_hand_depth_is_accepted(self):
        assert config_from_dict({"preprocessing": {"max_hand_depth_mm": 95.5}}).preprocessing.max_hand_depth_mm == 95.5

    def test_per_layer_rbm_list(self):
        cfg = config_from_dict(
            {"layer_sizes": [6, 4], "rbm": [{"epochs": 1, "rng_seed": 1}, {"epochs": 2, "rng_seed": 2}]}
        )
        assert [c.epochs for c in cfg.rbm_configs()] == [1, 2]

    def test_file_round_trip(self, tmp_path):
        cfg = config_from_dict({"rng_seed": 31, "layer_sizes": [10]})
        p = tmp_path / "run.json"
        save_config(cfg, p)
        back = load_config(p)
        assert config_to_dict(back) == config_to_dict(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")
