import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fingerspell
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.cli import main
from fingerspell.dbn import load_model, save_model
from fingerspell.dataset import load_dataset
from fingerspell.features import extract_features, read_features, write_features
from fingerspell.pgm import write_pgm


def write_config(tmp_path, **overrides):
    cfg = {
        "paths": {
            "manifest": str(tmp_path / "data" / "manifest.csv"),
            "output_dir": str(tmp_path / "out"),
            "model": str(tmp_path / "out" / "model.hsdbn"),
        },
        "feature_kind": "combined",
        "layer_sizes": [30, 20],
        "rbm": {"epochs": 2, "batch_size": 32},
        "supervised": {
            "stage2": {"epochs": 4, "batch_size": 32},
            "stage3": {"epochs": 2, "batch_size": 32, "learning_rate": 0.01},
        },
        "split": {"mode": "allseen"},
        "rng_seed": 77,
    }
    cfg.update(overrides)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset + extraction + training shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["gen-synthetic", "--config", str(cfg), "--users", "2", "--per-class", "4"]) == 0
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path, cfg


class TestGenSynthetic:
    def test_counts_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "2", "--per-class", "3"]) == 0
        manifest = tmp_path / "data" / "manifest.csv"
        rows = list(csv.DictReader(open(manifest)))
        assert len(rows) == 2 * 24 * 3
        assert len(list((tmp_path / "data" / "images").glob("*.pgm"))) == 2 * len(rows)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        files = sorted((tmp_path / "data" / "images").glob("*.pgm"))
        first = {f.name: f.read_bytes() for f in files}
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        for f in sorted((tmp_path / "data" / "images").glob("*.pgm")):
            assert f.read_bytes() == first[f.name]

    def test_zero_per_class_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "0"]) == 2


class TestExtract:
    def test_combined_dimensions(self, workspace):
        tmp_path, cfg = workspace
        kind, x = read_features(tmp_path / "out" / "features_combined.bin")
        assert kind == "combined" and x.shape == (192, 10240)

    def test_labels_align(self, workspace):
        tmp_path, _ = workspace
        rows = list(csv.DictReader(open(tmp_path / "out" / "labels.csv")))
        assert len(rows) == 192
        assert set(r["user"] for r in rows) == {"u00", "u01"}

    def test_extract_twice_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        main(["extract", "--config", str(cfg)])
        feat = (tmp_path / "out" / "features_combined.bin").read_bytes()
        main(["extract", "--config", str(cfg)])
        assert (tmp_path / "out" / "features_combined.bin").read_bytes() == feat

    def test_raw_kind_dimension(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        assert main(["extract", "--config", str(cfg), "--feature-kind", "raw"]) == 0
        kind, x = read_features(tmp_path / "out" / "features_raw.bin")
        assert kind == "raw" and x.shape == (24, 32768)

    def test_workers_flag_reproduces_single_worker_output(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        main(["extract", "--config", str(cfg)])
        single = (tmp_path / "out" / "features_combined.bin").read_bytes()
        main(["extract", "--config", str(cfg), "--workers", "2"])
        assert (tmp_path / "out" / "features_combined.bin").read_bytes() == single

    def test_file_equals_stacked_float64_vectors(self, tmp_path):
        # rows are written straight into a float32 matrix; the writer used to round a float64 stack
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        main(["extract", "--config", str(cfg)])
        samples = load_dataset(tmp_path / "data" / "manifest.csv")
        stacked = np.vstack([extract_features(s.depth, s.intensity) for s in samples])
        write_features(tmp_path / "stacked.bin", "combined", stacked)
        assert (tmp_path / "out" / "features_combined.bin").read_bytes() == (tmp_path / "stacked.bin").read_bytes()

    def test_short_manifest_row_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        manifest = tmp_path / "data" / "manifest.csv"
        rows = manifest.read_text().splitlines()
        rows[3] = ",".join(rows[3].split(",")[:2])  # only the two paths
        manifest.write_text("\n".join(rows) + "\n")
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "manifest.csv:4" in err and "fewer fields" in err and "Traceback" not in err


class TestTrain:
    def test_model_and_log_written(self, workspace):
        tmp_path, _ = workspace
        assert (tmp_path / "out" / "model.hsdbn").exists()
        log = (tmp_path / "out" / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("# layer_sizes=30/20")
        assert log[1] == "stage,epoch,train_loss,valid_loss,recon_error"

    def test_stage_ordering_in_log(self, workspace):
        tmp_path, _ = workspace
        stages = []
        with open(tmp_path / "out" / "train_log.csv") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("stage,") or not line.strip():
                    continue
                stages.append(line.split(",")[0])
        first_stage2 = stages.index("stage2")
        assert all(s.startswith("rbm") for s in stages[:first_stage2])
        assert "stage3" in stages and stages.index("stage3") > first_stage2

    def test_unseen_logs_held_out_user(self, tmp_path, capsys):
        cfg = write_config(tmp_path, split={"mode": "unseen", "test_user": "u01"})
        main(["gen-synthetic", "--config", str(cfg), "--users", "2", "--per-class", "5"])
        main(["extract", "--config", str(cfg)])
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "held-out user: u01" in out
        log = (tmp_path / "out" / "train_log.csv").read_text()
        assert "# held_out_user=u01" in log

    def test_unseen_all_holdouts_trains_per_user_models(self, tmp_path):
        cfg = write_config(tmp_path, split={"mode": "unseen"})
        main(["gen-synthetic", "--config", str(cfg), "--users", "2", "--per-class", "5"])
        main(["extract", "--config", str(cfg)])
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "model_u00.hsdbn").exists()
        assert (tmp_path / "out" / "model_u01.hsdbn").exists()

    def test_model_bytes_repeat_across_processes(self, workspace, tmp_path):
        # same seed, config and BLAS thread count give the same model file;
        # process "b" trains twice, so state left over from a run would show
        src, _ = workspace
        blas = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        pythonpath = os.pathsep.join([str(Path(fingerspell.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        models = []
        for name, runs in (("a", 1), ("b", 2)):
            (tmp_path / name / "out").mkdir(parents=True)
            for f in ("features_combined.bin", "labels.csv"):
                shutil.copy(src / "out" / f, tmp_path / name / "out" / f)
            cfg = write_config(tmp_path / name)
            code = (f"from fingerspell.cli import main\n"
                    f"for _ in range({runs}):\n    assert main(['train', '--config', {str(cfg)!r}]) == 0")
            subprocess.run([sys.executable, "-c", code], env={**os.environ, **blas, "PYTHONPATH": pythonpath},
                           check=True, capture_output=True, timeout=300)
            models.append((tmp_path / name / "out" / "model.hsdbn").read_bytes())
        assert models[0] == models[1]

    def test_missing_features_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 3


class TestEval:
    def test_reports_written_and_deterministic(self, workspace):
        tmp_path, cfg = workspace
        assert main(["eval", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in (out / "report.json", out / "report.csv", out / "confusion.csv")}
        assert main(["eval", "--config", str(cfg)]) == 0
        for name, data in first.items():
            assert (out / name).read_bytes() == data
        report = json.loads((out / "report.json").read_text())
        assert report["total"] == 48  # one test sample per (user, letter) stratum of 4
        assert 0.0 <= report["macro_recall"] <= 1.0

    def test_unseen_averaged_report(self, tmp_path):
        cfg = write_config(tmp_path, split={"mode": "unseen"})
        main(["gen-synthetic", "--config", str(cfg), "--users", "2", "--per-class", "5"])
        main(["extract", "--config", str(cfg)])
        main(["train", "--config", str(cfg)])
        assert main(["eval", "--config", str(cfg)]) == 0
        avg = json.loads((tmp_path / "out" / "report_unseen_averaged.json").read_text())
        assert set(avg["users"]) == {"u00", "u01"}
        per_user = [avg["users"][u]["macro_recall"] for u in ("u00", "u01")]
        assert avg["macro_recall"] == pytest.approx(np.mean(per_user))
        assert (tmp_path / "out" / "report_u00.json").exists()
        assert (tmp_path / "out" / "confusion_u01.csv").exists()

    def test_missing_model_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        main(["extract", "--config", str(cfg)])
        assert main(["eval", "--config", str(cfg)]) == 3


class TestPredict:
    def test_scores_sum_to_one_and_sorted(self, workspace, capsys):
        tmp_path, cfg = workspace
        depth = next((tmp_path / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        assert main(["predict", "--config", str(cfg), str(depth), str(intensity)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("predicted: ")
        scores = [float(line.split()[1]) for line in out[1:]]
        assert len(scores) == 24
        assert abs(sum(scores) - 1.0) < 1e-9
        assert scores == sorted(scores, reverse=True)
        assert out[0].split()[1] == out[1].split()[0]

    def test_identical_runs(self, workspace, capsys):
        tmp_path, cfg = workspace
        depth = next((tmp_path / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        main(["predict", "--config", str(cfg), str(depth), str(intensity)])
        first = capsys.readouterr().out
        main(["predict", "--config", str(cfg), str(depth), str(intensity)])
        assert capsys.readouterr().out == first

    def test_all_zero_depth_exits_3(self, workspace, tmp_path):
        ws_path, cfg = workspace
        depth = tmp_path / "zero_depth.pgm"
        intensity = tmp_path / "zero_intensity.pgm"
        write_pgm(depth, np.zeros((64, 64), dtype=np.uint16))
        write_pgm(intensity, np.zeros((64, 64), dtype=np.uint8))
        assert main(["predict", "--config", str(cfg), str(depth), str(intensity)]) == 3

    def test_16bit_intensity_exits_3(self, workspace, tmp_path, capsys):
        ws_path, cfg = workspace
        depth = next((ws_path / "data" / "images").glob("*_depth.pgm"))
        intensity = tmp_path / "wide_intensity.pgm"
        write_pgm(intensity, np.full((100, 100), 300, dtype=np.uint16))
        assert main(["predict", "--config", str(cfg), str(depth), str(intensity)]) == 3
        err = capsys.readouterr().err
        assert "8-bit" in err and "Traceback" not in err

    def test_too_small_images_exit_3(self, workspace, tmp_path, capsys):
        ws_path, cfg = workspace
        depth, intensity = tmp_path / "small_depth.pgm", tmp_path / "small_intensity.pgm"
        write_pgm(depth, np.full((8, 8), 700, dtype=np.uint16))
        write_pgm(intensity, np.full((8, 8), 90, dtype=np.uint8))
        assert main(["predict", "--config", str(cfg), str(depth), str(intensity)]) == 3
        captured = capsys.readouterr()
        assert "outside [32,256]" in captured.err and "predicted" not in captured.out

    def test_missing_input_exits_3(self, workspace):
        tmp_path, cfg = workspace
        assert main(["predict", "--config", str(cfg), "nope_d.pgm", "nope_i.pgm"]) == 3

    def test_malformed_model_header_exits_3(self, workspace, tmp_path, capsys):
        ws_path, cfg = workspace
        depth = next((ws_path / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        header = json.dumps({"layers": [[-2, -3]], "class_labels": list(STATIC_LETTERS)}).encode()
        bad = tmp_path / "bad.hsdbn"
        bad.write_bytes(b"HSDBN1" + len(header).to_bytes(4, "little") + header + bytes(48))
        assert main(["predict", "--config", str(cfg), "--model", str(bad), str(depth), str(intensity)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_nan_model_exits_4_without_prediction(self, workspace, tmp_path, capsys):
        ws_path, cfg = workspace
        depth = next((ws_path / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        net = load_model(ws_path / "out" / "model.hsdbn")
        net.rbm_layers[0].weights[:] = np.nan
        poisoned = tmp_path / "nan.hsdbn"
        save_model(net, poisoned)
        assert main(["predict", "--config", str(cfg), "--model", str(poisoned), str(depth), str(intensity)]) == 4
        assert "predicted" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def one_capture_per_letter(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("tiny")
    assert main(["gen-synthetic", "--config", str(write_config(tmp_path)), "--users", "1", "--per-class", "1"]) == 0
    return tmp_path / "data" / "manifest.csv"


# each of these used to extract without complaint (exit 0, NaN or all-zero
# features, or training settings that give a NaN model or a traceback) or to
# end in a traceback (exit 1)
REJECTED_CONFIGS = {
    "alignment_scale_nan": {"preprocessing": {"alignment": {"scale_x": float("nan")}}},
    "alignment_offset_inf": {"preprocessing": {"alignment": {"offset_y": float("inf")}}},
    "max_hand_depth_zero": {"preprocessing": {"max_hand_depth_mm": 0}},
    "max_hand_depth_nan": {"preprocessing": {"max_hand_depth_mm": float("nan")}},
    "n_layers_zero": {"preprocessing": {"n_layers": 0}},
    "gabor_out_size_zero": {"feature_kind": "gabor", "filter_bank": {"gabor_out_size": 0}},
    "gabor_sigma_ratio_zero": {"feature_kind": "gabor", "filter_bank": {"gabor_sigma_ratio": 0}},
    "gabor_wavelength_zero": {"feature_kind": "gabor", "filter_bank": {"gabor_wavelengths": [4, 0, 12, 16]}},
    "gabor_kernel_size_zero": {"feature_kind": "gabor", "filter_bank": {"gabor_kernel_size": 0}},
    "bar_out_size_zero": {"feature_kind": "bar", "filter_bank": {"bar_out_size": 0}},
    "bar_kernel_size_negative": {"feature_kind": "bar", "filter_bank": {"bar_kernel_size": -3}},
    "bar_orientation_nan": {"feature_kind": "bar", "filter_bank": {"bar_orientations": [0, float("nan"), 1]}},
    "rbm_learning_rate_nan": {"rbm": {"epochs": 2, "learning_rate": float("nan")}},
    "rbm_l2_coeff_nan": {"rbm": {"epochs": 2, "l2_coeff": float("nan")}},
    "stage2_learning_rate_nan": {"supervised": {"stage2": {"learning_rate": float("nan")}}},
    "stage3_learning_rate_nan": {"supervised": {"stage3": {"learning_rate": float("nan")}}},
    "stage2_batch_size_zero": {"supervised": {"stage2": {"batch_size": 0}}},
    "stage3_epochs_zero": {"supervised": {"stage3": {"epochs": 0, "learning_rate": 0.01}}},
    "stage2_noise_sigma_nan": {"supervised": {"stage2": {"input_noise_sigma": float("nan")}}},
    "stage2_patience_zero": {"supervised": {"stage2": {"early_stopping_patience": 0}}},
    "stage2_momentum_above_one": {"supervised": {"stage2": {"momentum": 1.5}}},
}


class TestConfigHandling:
    @pytest.mark.parametrize("name", sorted(REJECTED_CONFIGS))
    def test_invalid_field_exits_2_before_extracting(self, one_capture_per_letter, tmp_path, capsys, name):
        cfg = write_config(tmp_path, **REJECTED_CONFIGS[name])
        raw = json.loads(cfg.read_text())
        raw["paths"]["manifest"] = str(one_capture_per_letter)
        cfg.write_text(json.dumps(raw))
        assert main(["extract", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_batch_size_train_exits_2(self, workspace, tmp_path, capsys):
        # this used to end train in a range() traceback (exit 1)
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["supervised"]["stage2"]["batch_size"] = 0
        raw["paths"]["model"] = str(tmp_path / "model.hsdbn")
        p = tmp_path / "run.json"
        p.write_text(json.dumps(raw))
        assert main(["train", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "model.hsdbn").exists()

    def test_cli_import_leaves_out_scipy_signal(self):
        # scipy.signal costs about 50 MB and 0.4 s of every process's start-up
        pythonpath = os.pathsep.join([str(Path(fingerspell.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        code = "import sys, fingerspell.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
                             check=True, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_bad_config_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["extract", "--config", str(p)]) == 2
        p2 = tmp_path / "bad2.json"
        p2.write_text(json.dumps({"feature_kind": "wavelet"}))
        assert main(["extract", "--config", str(p2)]) == 2

    def test_effective_config_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        main(["extract", "--config", str(cfg)])
        feat = (tmp_path / "out" / "features_combined.bin").read_bytes()
        echoed = tmp_path / "out" / "config.effective.json"
        assert echoed.exists()
        # rerunning from the echoed config reproduces the extraction bit-for-bit
        main(["extract", "--config", str(echoed)])
        assert (tmp_path / "out" / "features_combined.bin").read_bytes() == feat

    def test_seed_flag_changes_generation(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        a = next((tmp_path / "data" / "images").glob("*_depth.pgm")).read_bytes()
        main(["gen-synthetic", "--config", str(cfg), "--seed", "31337", "--users", "1", "--per-class", "1"])
        b = next((tmp_path / "data" / "images").glob("*_depth.pgm")).read_bytes()
        assert a != b
