import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerspell
from fingerspell import cli
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.cli import _load_config_with_overrides, build_parser, main
from fingerspell.config import config_to_dict, load_config
from fingerspell.dbn import Dbn, load_model, save_model
from fingerspell.dataset import load_dataset
from fingerspell.errors import ConfigError
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


def copy_workspace(workspace, tmp_path):
    """A config whose output directory holds copies of the workspace's features, labels and model."""
    src, cfg = workspace
    (tmp_path / "out").mkdir()
    for f in ("features_combined.bin", "labels.csv", "model.hsdbn"):
        shutil.copy(src / "out" / f, tmp_path / "out" / f)
    raw = json.loads(cfg.read_text())
    raw["paths"].update(output_dir=str(tmp_path / "out"), model=str(tmp_path / "out" / "model.hsdbn"))
    p = tmp_path / "run.json"
    p.write_text(json.dumps(raw))
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

    def test_output_dir_that_is_a_file_exits_3_before_extracting(self, tmp_path, capsys, monkeypatch):
        # this used to extract every capture, then exit 3 with "File exists"
        cfg = write_config(tmp_path)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"]) == 0
        raw = json.loads(cfg.read_text())
        raw["paths"]["output_dir"] = str(cfg)
        cfg.write_text(json.dumps(raw))
        calls = []
        monkeypatch.setattr(cli, "extract_features", lambda *a, **k: calls.append(a))
        assert main(["extract", "--config", str(cfg)]) == 3
        assert "io error" in capsys.readouterr().err
        assert calls == []

    def test_empty_manifest_exits_3(self, tmp_path, capsys):
        # this used to exit 0 and write nothing, so the next train said "run extract first"
        cfg = write_config(tmp_path)
        manifest = tmp_path / "data" / "manifest.csv"
        manifest.parent.mkdir()
        manifest.write_text("user,letter,depth_path,intensity_path\n")
        assert main(["extract", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err and "no samples" in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("split, directory", [("allseen", "out/"), ("unseen", "out/model_u01.hsdbn")])
    def test_model_path_that_is_a_directory_exits_2_before_training(self, workspace, tmp_path, capsys, split,
                                                                   directory):
        # this used to train the whole network (every earlier hold-out too), then exit 3 with "Is a directory"
        cfg = copy_workspace(workspace, tmp_path)
        (tmp_path / "out" / "model.hsdbn").unlink()
        (tmp_path / directory).mkdir(exist_ok=True)
        raw = json.loads(cfg.read_text())
        out = str(tmp_path / "out")
        raw["paths"]["model"] = out + "/" if split == "allseen" else out + "/model.hsdbn"
        raw["split"] = {"mode": split}
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "is a directory" in err
        assert not list((tmp_path / "out").glob("train_log*.csv"))
        assert not [f for f in (tmp_path / "out").glob("*.hsdbn") if f.is_file()]

    def test_model_parent_that_is_a_file_exits_3_before_training(self, workspace, tmp_path, capsys, monkeypatch):
        # this used to train the whole network, then exit 3 at the model directory's mkdir
        cfg = copy_workspace(workspace, tmp_path)
        raw = json.loads(cfg.read_text())
        raw["paths"]["model"] = str(tmp_path / "out" / "labels.csv" / "model.hsdbn")
        cfg.write_text(json.dumps(raw))
        monkeypatch.setattr(cli.dbn_mod, "pretrain", lambda *a, **k: pytest.fail("pretrained"))
        assert main(["train", "--config", str(cfg)]) == 3
        assert "io error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("train_log*.csv"))

    def test_empty_validation_set_exits_3_before_pretraining(self, tmp_path, capsys, monkeypatch):
        # this used to pretrain the first hold-out's stack, then exit 3 with "labeled feature set is empty"
        cfg = write_config(tmp_path, layer_sizes=[40, 20, 10])
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "3", "--per-class", "3"]) == 0
        assert main(["extract", "--config", str(cfg)]) == 0
        capsys.readouterr()
        pretrained = []
        monkeypatch.setattr(cli.dbn_mod, "pretrain", lambda *a, **k: pretrained.append(a))
        assert main(["train", "--config", str(cfg), "--split", "unseen", "--seed", "9"]) == 3
        captured = capsys.readouterr()
        assert "u00 held out" in captured.err and "validation set empty" in captured.err
        assert "held-out user" not in captured.out
        assert pretrained == []
        assert not list((tmp_path / "out").glob("*.hsdbn")) and not list((tmp_path / "out").glob("train_log*.csv"))


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

    @pytest.mark.parametrize("edit", ["longer", "shorter"])
    def test_label_count_mismatch_exits_2(self, workspace, tmp_path, capsys, edit):
        # a longer labels file used to end eval in an IndexError traceback; a shorter one evaluated a subset
        cfg = copy_workspace(workspace, tmp_path)
        labels = tmp_path / "out" / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines + lines[1:2] if edit == "longer" else lines[:-1]) + "\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "disagree on sample count" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_labels_without_letter_column_exit_3(self, workspace, tmp_path, capsys, command):
        # this used to end train and eval in a KeyError traceback (exit 1)
        cfg = copy_workspace(workspace, tmp_path)
        labels = tmp_path / "out" / "labels.csv"
        labels.write_text(labels.read_text().replace("user,letter", "user,sign", 1))
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "'letter'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", ["not_utf8", "short_row", "unknown_letter"])
    def test_bad_labels_row_exits_3(self, workspace, tmp_path, capsys, command, case):
        # these used to end in a UnicodeDecodeError or TypeError traceback (exit 1), or to be scored silently
        cfg = copy_workspace(workspace, tmp_path)
        labels = tmp_path / "out" / "labels.csv"
        lines = labels.read_bytes().split(b"\n")
        lines[1] = {"not_utf8": b"u00,\xe9", "short_row": b"u00", "unknown_letter": b"u00,ZZ"}[case]
        labels.write_bytes(b"\n".join(lines))
        model = (tmp_path / "out" / "model.hsdbn").read_bytes()
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(labels) in err and "Traceback" not in err
        assert (tmp_path / "out" / "model.hsdbn").read_bytes() == model
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_test_user_without_unseen_split_exits_2(self, workspace, tmp_path, capsys, command):
        # train used to fit the allseen split and eval to label its report "unseen:u01"
        cfg = copy_workspace(workspace, tmp_path)
        model = (tmp_path / "out" / "model.hsdbn").read_bytes()
        assert main([command, "--config", str(cfg), "--test-user", "u01"]) == 2
        assert "config error" in capsys.readouterr().err
        assert (tmp_path / "out" / "model.hsdbn").read_bytes() == model
        assert not (tmp_path / "out" / "report.json").exists()


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

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("class_labels", [(), ("A", "A")])
    def test_empty_or_repeated_class_labels_exit_3(self, workspace, tmp_path, capsys, command, class_labels):
        # an empty list used to end in a ValueError traceback; a repeated one made two classes print alike
        cfg = copy_workspace(workspace, tmp_path)
        net = load_model(tmp_path / "out" / "model.hsdbn")
        k = len(class_labels)
        save_model(Dbn(net.rbm_layers, net.translation_w[:, :k], net.translation_b[:k], class_labels),
                   tmp_path / "out" / "model.hsdbn")
        depth = next((workspace[0] / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        argv = [command, "--config", str(cfg)] + ([str(depth), str(intensity)] if command == "predict" else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "non-empty and distinct" in captured.err and "Traceback" not in captured.err
        assert "predicted" not in captured.out and not (tmp_path / "out" / "report.json").exists()

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

    def test_missing_model_exits_3_before_reading_images(self, workspace, capsys, monkeypatch):
        # this used to decode both captures, then exit 3 with "io error: [Errno 2] No such file or directory"
        tmp_path, cfg = workspace
        depth = next((tmp_path / "data" / "images").glob("*_depth.pgm"))
        intensity = Path(str(depth).replace("_depth", "_intensity"))
        monkeypatch.setattr(cli, "read_pgm", lambda path: pytest.fail(f"read {path}"))
        nope = tmp_path / "out" / "nope.hsdbn"
        assert main(["predict", "--config", str(cfg), "--model", str(nope), str(depth), str(intensity)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: model not found: {nope}\n"
        assert "predicted" not in captured.out


@pytest.fixture(scope="module")
def one_capture_per_letter(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("tiny")
    assert main(["gen-synthetic", "--config", str(write_config(tmp_path)), "--users", "1", "--per-class", "1"]) == 0
    return tmp_path / "data" / "manifest.csv"


class TestParserReuse:
    """``main`` parses every call with one parser, so no call may see another's arguments."""

    @staticmethod
    def capture(workspace):
        depth = next((workspace[0] / "data" / "images").glob("*_depth.pgm"))
        return [str(depth), str(depth).replace("_depth", "_intensity")]

    def test_model_flag_does_not_reach_the_next_call(self, workspace, tmp_path, monkeypatch):
        ws_path, cfg = workspace
        other = tmp_path / "other.hsdbn"
        shutil.copy(ws_path / "out" / "model.hsdbn", other)
        loaded = []
        real_load = cli.dbn_mod.load_model
        monkeypatch.setattr(cli.dbn_mod, "load_model", lambda path: loaded.append(Path(path)) or real_load(path))
        assert main(["predict", "--config", str(cfg), "--model", str(other)] + self.capture(workspace)) == 0
        assert main(["predict", "--config", str(cfg)] + self.capture(workspace)) == 0
        assert loaded == [other, ws_path / "out" / "model.hsdbn"]

    def test_override_flags_do_not_reach_the_next_call(self, tmp_path, monkeypatch):
        p = write_config(tmp_path)
        configs = []
        monkeypatch.setattr(cli, "cmd_train", lambda cfg: configs.append(cfg) or 0)
        flags = ["--seed", "9", "--workers", "2", "--split", "unseen", "--test-user", "u1"]
        assert main(["train", "--config", str(p)] + flags) == 0
        assert main(["train", "--config", str(p)]) == 0
        first, second = [(c.rng_seed, c.workers, c.split.mode, c.split.test_user) for c in configs]
        assert first == (9, 2, "unseen", "u1")
        assert second == (77, 1, "allseen", None)
        assert configs[1] == load_config(p)

    def test_usage_error_leaves_the_next_call_unchanged(self, workspace, capsys):
        _, cfg = workspace
        argv = ["predict", "--config", str(cfg)] + self.capture(workspace)
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "the following arguments are required: depth, intensity" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_second_call_builds_no_parser(self, workspace, monkeypatch):
        _, cfg = workspace
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["predict", "--config", str(cfg)] + self.capture(workspace)
        assert main(argv) == 0
        built.clear()
        assert main(argv) == 0
        assert built == []


# each of these used to extract without complaint (exit 0, NaN or all-zero
# features, or training settings that give a NaN model or a traceback) or to
# end in a traceback (exit 1)
REJECTED_CONFIGS = {
    "alignment_scale_nan": {"preprocessing": {"alignment": {"scale_x": float("nan")}}},
    "alignment_offset_inf": {"preprocessing": {"alignment": {"offset_y": float("inf")}}},
    "max_hand_depth_zero": {"preprocessing": {"max_hand_depth_mm": 0}},
    "max_hand_depth_nan": {"preprocessing": {"max_hand_depth_mm": float("nan")}},
    # the six depth layers and the two filter banks are constants, so a config that still sets them is refused
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
    "rbm_convergence_window_zero": {"rbm": {"epochs": 2, "convergence_window": 0}},
    "rbm_convergence_tol_nan": {"rbm": {"epochs": 2, "convergence_tol": float("nan")}},
    "rbm_momentum_switch_negative": {"rbm": {"epochs": 2, "momentum_switch_epoch": -3}},
    "rbm_seed_fraction": {"rbm": {"epochs": 2, "rng_seed": 1.5}},
    "supervised_seed_fraction": {"supervised": {"rng_seed": 2.5}},
    "split_seed_fraction": {"split": {"mode": "allseen", "rng_seed": 2.5}},
    "seed_fraction": {"rng_seed": 1.5},
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

    def test_fractional_rbm_seed_train_exits_2(self, workspace, tmp_path, capsys):
        # this used to end train in a numpy TypeError traceback (exit 1)
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["rbm"]["rng_seed"] = 1.5
        raw["paths"]["model"] = str(tmp_path / "model.hsdbn")
        p = tmp_path / "run.json"
        p.write_text(json.dumps(raw))
        assert main(["train", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "model.hsdbn").exists()

    @pytest.mark.parametrize("command", ["extract", "train", "predict"])
    @pytest.mark.parametrize("raw", [
        {"preprocessing": {"n_layers": 6}},                  # the six depth layers are fixed
        {"feature_kind": "gabor", "filter_bank": {}},        # so are the filter banks
        {"comment": "trial 3"},
    ], ids=["n_layers", "filter_bank", "comment"])
    def test_unknown_key_exits_2_before_any_file_is_read(self, tmp_path, capsys, command, raw):
        # every path names a missing file, so reading any of them first would exit 3
        p = write_config(tmp_path, **raw)
        images = [str(tmp_path / "d.pgm"), str(tmp_path / "i.pgm")] if command == "predict" else []
        assert main([command, "--config", str(p), *images]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

    @pytest.mark.parametrize("command", ["extract", "train", "predict"])
    def test_rbm_list_exits_2_before_any_file_is_read(self, tmp_path, capsys, command):
        # the per-layer form of older effective configs; its first entry, as an object, reproduces such a run
        p = write_config(tmp_path, rbm=[{"epochs": 2, "batch_size": 32}] * 2)
        images = [str(tmp_path / "d.pgm"), str(tmp_path / "i.pgm")] if command == "predict" else []
        assert main([command, "--config", str(p), *images]) == 2
        assert "config.rbm must be a JSON object" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

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

    def test_effective_config_reads_back_as_itself(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"]) == 0
        echoed = (tmp_path / "out" / "config.effective.json").read_text()
        (tmp_path / "echoed.json").write_text(echoed)
        assert main(["gen-synthetic", "--config", str(tmp_path / "echoed.json"), "--users", "1", "--per-class", "1"]) == 0
        assert (tmp_path / "out" / "config.effective.json").read_text() == echoed
        assert json.loads(echoed)["rbm"]["rng_seed"] == 77 + 21  # derived from rng_seed, then pinned

    def test_seed_flag_changes_generation(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"])
        a = next((tmp_path / "data" / "images").glob("*_depth.pgm")).read_bytes()
        main(["gen-synthetic", "--config", str(cfg), "--seed", "31337", "--users", "1", "--per-class", "1"])
        b = next((tmp_path / "data" / "images").glob("*_depth.pgm")).read_bytes()
        assert a != b


# config-file faults that used to end in a traceback (exit 1), exit 3 or a silent load
FAULTY_CONFIG_FILES = {
    "not_utf8": b'{"feature_kind": "c\xe9"}',
    "list": b"[]",
    "list_of_pairs": b'[["rng_seed", 5]]',
    "filter_bank_null": b'{"filter_bank": null}',
    "filter_bank_list": b'{"filter_bank": []}',
    "preprocessing_null": b'{"preprocessing": null}',
    "supervised_list": b'{"supervised": []}',
    "split_null": b'{"split": null}',
    "layer_sizes_fraction": b'{"layer_sizes": [8.5]}',
    "workers_fraction": b'{"workers": 2.7}',
    "workers_string": b'{"workers": "2"}',
    "test_user_list": b'{"split": {"mode": "unseen", "test_user": []}}',
    "path_nul": b'{"paths": {"manifest": "data/a\\u0000b.csv"}}',
}


class TestConfigFile:
    @pytest.mark.parametrize("name", sorted(FAULTY_CONFIG_FILES))
    def test_faulty_file_exits_2(self, tmp_path, capsys, name):
        p = tmp_path / "run.json"
        p.write_bytes(FAULTY_CONFIG_FILES[name])
        for command in (["extract"], ["train"], ["gen-synthetic", "--users", "1", "--per-class", "1"]):
            assert main(command + ["--config", str(p), "--split", "allseen"]) == 2
            assert "config error" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["extract", "--config", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_no_config_echoes_the_loaded_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-synthetic", "--users", "1", "--per-class", "1"]) == 0
        echoed = (tmp_path / "out" / "config.effective.json").read_text()
        assert echoed == json.dumps(config_to_dict(load_config(None)), indent=2)

    def test_flags_override_the_file(self, tmp_path):
        p = write_config(tmp_path, split={"mode": "allseen", "rng_seed": 4})
        args = build_parser().parse_args(["train", "--config", str(p), "--seed", "9", "--workers", "2",
                                          "--feature-kind", "raw", "--split", "unseen", "--test-user", "u1"])
        cfg = _load_config_with_overrides(args)
        assert (cfg.rng_seed, cfg.workers, cfg.feature_kind) == (9, 2, "raw")
        assert (cfg.split.mode, cfg.split.test_user, cfg.split.rng_seed) == ("unseen", "u1", 4)
        assert cfg.layer_sizes == (30, 20)


config_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
flag_values = {
    "--seed": st.integers(-5, 2**70).map(str),
    "--workers": st.integers(-2, 3).map(str),
    "--feature-kind": st.sampled_from(["combined", "raw", "gabor", "bar"]),
    "--split": st.sampled_from(["allseen", "unseen"]),
    "--test-user": st.text(st.characters(codec="ascii", exclude_characters="-"), min_size=1, max_size=4),
}


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    """One config file that every fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "run.json"


@settings(max_examples=200, deadline=None)
@given(
    config_json | st.dictionaries(st.sampled_from(["split", "rng_seed", "workers", "feature_kind"]), config_json),
    st.data(),
)
def test_fuzz_config_file_with_flag_overrides(fuzz_config, raw, data):
    fuzz_config.write_text(json.dumps(raw))
    argv = ["extract", "--config", str(fuzz_config)]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flag_values)), unique=True)):
        argv += [flag, data.draw(flag_values[flag])]
    try:
        _load_config_with_overrides(build_parser().parse_args(argv))
    except ConfigError:
        pass
