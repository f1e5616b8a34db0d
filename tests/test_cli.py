import argparse
import csv
import json
import operator
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerspell
from fingerspell import cli
from fingerspell import dataset as ds
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.cli import _load_config_with_overrides, build_parser, main
from fingerspell.config import config_to_dict, load_config
from fingerspell.dbn import Dbn, load_model, save_model
from fingerspell.dataset import load_dataset
from fingerspell.errors import ConfigError
from fingerspell.features import FEATURE_MAGIC, extract_features, read_features, write_features
from fingerspell.pgm import read_pgm, write_pgm


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


def spoil_feature_row(cfg, part, value):
    """Write ``value`` into the first row of split part ``part`` (0 train, 1 validation, 2 test); returns its index."""
    run = load_config(cfg)
    _, rows = cli._load_features(run)
    path = Path(run.paths.output_dir) / "features_combined.bin"
    kind, x = read_features(path)
    x = np.array(x)
    row = ds.split_dataset(rows, run.split)[part][0].index
    x[row, 5] = value
    write_features(path, kind, x)
    return row


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

    @pytest.mark.parametrize("blocked", ["output_dir", "manifest"])
    def test_unusable_output_path_exits_3_before_rendering(self, tmp_path, capsys, monkeypatch, blocked):
        # this used to render and write the dataset, then exit 3 with "File exists" or "Is a directory"
        cfg = write_config(tmp_path)
        if blocked == "output_dir":
            path = tmp_path / "out"
            path.write_text("")
        else:
            path = tmp_path / "data" / "manifest.csv"
            path.mkdir(parents=True)

        def render(*args):
            raise AssertionError("rendered a capture")

        monkeypatch.setattr(ds, "_render_sample", render)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and str(path) in err
        assert not list(tmp_path.rglob("*.pgm")) and not (tmp_path / "data" / "images").exists()
        assert not (tmp_path / "data" / "manifest.csv").is_file()


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

    def test_model_and_log_equal_training_on_the_float64_matrix(self, workspace, models_equal):
        # train upcasts only the rows of the float32 matrix that a stage reads; read_features used to upcast it whole
        tmp_path, cfg = workspace
        run = load_config(cfg)
        x, rows = cli._load_features(run)
        train_rows, valid_rows, _ = ds.split_dataset(rows, run.split)
        net, log_rows = cli._train_one_model(run, x.astype(np.float64), train_rows, valid_rows)
        assert x.dtype == np.float32
        assert models_equal(load_model(tmp_path / "out" / "model.hsdbn"), net)
        with open(tmp_path / "out" / "train_log.csv", newline="") as fh:
            logged = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
        assert logged == [[str(v) for v in row] for row in log_rows]

    def test_pretraining_holds_neither_a_float64_matrix_nor_the_validation_rows(self, workspace, tmp_path,
                                                                               monkeypatch):
        cfg = copy_workspace(workspace, tmp_path)
        run = load_config(cfg)
        x, rows = cli._load_features(run)
        train_rows, valid_rows, _ = ds.split_dataset(rows, run.split)
        assert (x.shape, len(train_rows), len(valid_rows)) == ((192, 10240), 96, 48)
        row64 = x.shape[1] * 8
        limit = x.size * 4 + len(valid_rows) * row64 / 2  # about 9.8 MB
        del x, rows
        pretrain, on_entry = cli.dbn_mod.pretrain, []

        def traced_pretrain(*args, **kwargs):
            on_entry.append(tracemalloc.get_traced_memory()[0])
            return pretrain(*args, **kwargs)

        monkeypatch.setattr(cli.dbn_mod, "pretrain", traced_pretrain)
        tracemalloc.start()
        try:
            assert main(["train", "--config", str(cfg)]) == 0
        finally:
            tracemalloc.stop()
        # the float32 matrix alone (7.9 MB); a float32 copy of the training rows or of the validation rows would
        # exceed the limit. With the float64 training rows it was 15.7 MB, with a float64 matrix and the validation
        # rows 27.5 MB
        assert len(on_entry) == 1 and on_entry[0] < limit

    def test_pretraining_peak_per_training_row_is_the_reconstruction_buffers(self, workspace, monkeypatch):
        # the slope of pretraining's traced peak over two training-set sizes: the reconstruction buffers v
        # (a float64 row) and h (a float64 hidden row) per training row, plus 1% of a row for the index
        # arrays; a float64 copy of the training rows adds a whole float64 row
        _, cfg = workspace
        run = load_config(cfg)
        x, rows = cli._load_features(run)
        train_rows, valid_rows, _ = ds.split_dataset(rows, run.split)
        pretrain, peaks = cli.dbn_mod.pretrain, []

        def traced_pretrain(*args, **kwargs):
            rbms = pretrain(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return rbms

        monkeypatch.setattr(cli.dbn_mod, "pretrain", traced_pretrain)
        sizes = (32, 96)  # whole batches of 32 rows, so the batch buffers are the same at both sizes
        for n in sizes:
            tracemalloc.start()
            try:
                cli._train_one_model(run, x, train_rows[:n], valid_rows)
            finally:
                tracemalloc.stop()
        per_row = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
        v_and_h = (x.shape[1] + run.layer_sizes[0]) * 8
        assert per_row <= v_and_h + x.shape[1] * 8 / 100, (per_row, v_and_h)

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

    @pytest.mark.parametrize("part, value", [(1, np.nan), (0, 1e30)])
    def test_bad_feature_value_exits_3_before_pretraining(self, workspace, tmp_path, capsys, monkeypatch, part,
                                                          value):
        # a NaN validation row used to exit 4 in stage 2, after all of pretraining; a 1e30 training row trained
        # and evaluated with exit 0
        cfg = copy_workspace(workspace, tmp_path)
        (tmp_path / "out" / "model.hsdbn").unlink()
        row = spoil_feature_row(cfg, part, value)
        monkeypatch.setattr(cli.dbn_mod, "pretrain", lambda *a, **k: pytest.fail("pretrained"))
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"features_combined.bin: feature row {row} is not" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "model.hsdbn").exists()
        assert not list((tmp_path / "out").glob("train_log*.csv"))

    # sizes whose weight matrix no overcommit setting can allocate: 10**12 units need 80 PB, and
    # 10**19 is past the largest dimension numpy indexes; both used to end in a numpy traceback
    @pytest.mark.parametrize("units", [10**12, 10**19])
    def test_unallocatable_layer_exits_2(self, workspace, tmp_path, capsys, units):
        cfg = copy_workspace(workspace, tmp_path)
        raw = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**raw, "layer_sizes": [units]}))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"x {units} weight matrix" in err and err.count("\n") == 1


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

    def test_reports_equal_scoring_float64_rows(self, workspace, tmp_path, monkeypatch):
        # eval scores float32 test rows, which Dbn.scores upcasts; read_features used to upcast the whole matrix
        cfg = copy_workspace(workspace, tmp_path)
        names = ("report.json", "report.csv", "confusion.csv")
        assert main(["eval", "--config", str(cfg)]) == 0
        first = {name: (tmp_path / "out" / name).read_bytes() for name in names}
        read = cli.read_features

        def read_float64(path):
            kind, x = read(path)
            assert x.dtype == np.float32
            return kind, x.astype(np.float64)

        monkeypatch.setattr(cli, "read_features", read_float64)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert {name: (tmp_path / "out" / name).read_bytes() for name in names} == first

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

    def test_nan_test_row_exits_3_in_eval_only(self, workspace, tmp_path, capsys):
        # eval used to exit 4 on the NaN class scores; train does not read the test rows
        cfg = copy_workspace(workspace, tmp_path)
        row = spoil_feature_row(cfg, 2, np.nan)
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"features_combined.bin: feature row {row} is not" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

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

    def test_tied_scores_print_in_class_order(self, workspace, tmp_path, capsys):
        # printed in np.argsort(scores)[::-1] order, 24 equal scores came out YXWV...A at one SIMD level of numpy's
        # sort and YXBCD...WA at another, each under the label A
        cfg = copy_workspace(workspace, tmp_path)
        model = tmp_path / "out" / "model.hsdbn"
        net = load_model(model)
        save_model(Dbn(net.rbm_layers, np.zeros_like(net.translation_w), np.zeros_like(net.translation_b)), model)
        depth = next((workspace[0] / "data" / "images").glob("*_depth.pgm"))
        assert main(["predict", "--config", str(cfg), str(depth), str(depth).replace("_depth", "_intensity")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "predicted: A"
        assert [line.split() for line in out[1:]] == [[letter, f"{1 / 24:.12f}"] for letter in STATIC_LETTERS]

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

    @staticmethod
    def sequential_stdout(cfg_path, depth, intensity):
        """``predict``'s stdout built one step after another on this thread."""
        cfg = load_config(cfg_path)
        x = extract_features(read_pgm(depth).astype(np.int32), read_pgm(intensity), cfg.feature_kind,
                             t=cfg.preprocessing.max_hand_depth_mm, alignment=cfg.preprocessing.alignment)
        x = x.astype(np.float32)  # the feature file's rounding, which predict shares with train and eval
        net = load_model(cfg.paths.model)
        prediction = net.forward(x)
        lines = [f"predicted: {prediction.label}"]
        lines += [f"  {net.class_labels[i]} {prediction.scores[i]:.12f}"
                  for i in np.argsort(-prediction.scores, kind="stable")]
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("switch_interval", [None, 1e-6], ids=["default_switching", "frequent_switching"])
    def test_stdout_equals_the_sequential_steps(self, workspace, capsys, switch_interval):
        tmp_path, cfg = workspace
        depths = sorted((tmp_path / "data" / "images").glob("*_depth.pgm"))[::37][:5]
        expected = [self.sequential_stdout(cfg, d, Path(str(d).replace("_depth", "_intensity"))) for d in depths]
        assert len(set(expected)) > 1  # the captures are told apart
        old = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            for depth, text in zip(depths, expected):
                intensity = Path(str(depth).replace("_depth", "_intensity"))
                assert main(["predict", "--config", str(cfg), str(depth), str(intensity)]) == 0
                assert capsys.readouterr().out == text
        finally:
            sys.setswitchinterval(old)

    def test_scores_the_stored_row_of_the_capture(self, workspace, monkeypatch):
        # predict used to score the float64 vector, which the feature file rounds to float32 for train and eval
        tmp_path, cfg = workspace
        manifest = tmp_path / "data" / "manifest.csv"
        captures = [(r["depth_path"], r["intensity_path"]) for r in csv.DictReader(open(manifest))]
        _, stored = read_features(tmp_path / "out" / "features_combined.bin")  # one row per manifest row
        scored = []
        forward = Dbn.forward
        monkeypatch.setattr(Dbn, "forward", lambda net, x: scored.append(x) or forward(net, x))
        for i in range(0, len(captures), 37):
            paths = [str(manifest.parent / p) for p in captures[i]]
            assert main(["predict", "--config", str(cfg), *paths]) == 0
            assert scored[-1].tobytes() == stored[i].tobytes()

    @pytest.fixture
    def predict_args(self, workspace, tmp_path):
        """``predict``'s arguments after the config, for a good call and for each kind of fault."""
        ws_path, _ = workspace
        depth = next((ws_path / "data" / "images").glob("*_depth.pgm"))
        good = [str(depth), str(depth).replace("_depth", "_intensity")]
        zero = [str(tmp_path / "zero_depth.pgm"), str(tmp_path / "zero_intensity.pgm")]
        write_pgm(zero[0], np.zeros((64, 64), dtype=np.uint16))
        write_pgm(zero[1], np.zeros((64, 64), dtype=np.uint8))
        header = json.dumps({"layers": [[-2, -3]], "class_labels": list(STATIC_LETTERS)}).encode()
        (tmp_path / "bad.hsdbn").write_bytes(b"HSDBN1" + len(header).to_bytes(4, "little") + header + bytes(48))
        net = load_model(ws_path / "out" / "model.hsdbn")
        net.rbm_layers[0].weights[:] = np.nan
        save_model(net, tmp_path / "nan.hsdbn")
        bad_model = ["--model", str(tmp_path / "bad.hsdbn")]
        return {
            "success": good,
            "missing_image": [str(tmp_path / "nope_depth.pgm"), good[1]],
            "missing_model": ["--model", str(tmp_path / "nope.hsdbn"), *good],
            "zero_depth": zero,
            "bad_model": bad_model + good,
            "bad_model_and_zero_depth": bad_model + zero,
            "nan_model": ["--model", str(tmp_path / "nan.hsdbn"), *good],
        }

    @pytest.mark.parametrize("case, code", [
        ("success", 0), ("missing_image", 3), ("missing_model", 3), ("zero_depth", 3),
        ("bad_model", 3), ("bad_model_and_zero_depth", 3), ("nan_model", 4),
    ])
    def test_no_thread_outlives_the_call(self, workspace, predict_args, case, code):
        _, cfg = workspace
        before = threading.active_count()
        assert main(["predict", "--config", str(cfg), *predict_args[case]]) == code
        assert threading.active_count() == before

    def test_predict_starts_no_thread(self, workspace, monkeypatch, predict_args):
        # predict used to read the capture on a helper thread while it loaded the model; a mapped load needs no overlap
        _, cfg = workspace
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail(f"started {self.name}"))
        assert main(["predict", "--config", str(cfg), *predict_args["success"]]) == 0

    def test_capture_fault_is_reported_before_model_fault(self, workspace, capsys, predict_args):
        _, cfg = workspace
        messages = {}
        for case in ("bad_model", "zero_depth", "bad_model_and_zero_depth"):
            assert main(["predict", "--config", str(cfg), *predict_args[case]]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            messages[case] = captured.err
        assert messages["zero_depth"] == "error: depth image has no nonzero pixel\n"
        assert messages["bad_model"] != messages["zero_depth"]
        assert messages["bad_model_and_zero_depth"] == messages["zero_depth"]


def model_faults(model, tmp_path):
    """A model file with each fault that ``predict`` and ``eval`` must report, as ``{fault: (path, exit code)}``."""
    good = model.read_bytes()
    tmp_path.mkdir()
    faults = {name: tmp_path / f"{name}.hsdbn" for name in ("missing", "directory", "empty", "truncated",
                                                             "wrong_magic", "nan_weights")}
    faults["directory"].mkdir()
    faults["empty"].write_bytes(b"")
    faults["truncated"].write_bytes(good[: len(good) // 2])  # inside rbm1.weights, most of the file
    faults["wrong_magic"].write_bytes(b"HSDBN0" + good[6:])
    net = load_model(model)
    net.rbm_layers[0].weights[:] = np.nan
    save_model(net, faults["nan_weights"])
    return {name: (path, 4 if name == "nan_weights" else 3) for name, path in faults.items()}


def depth_faults(depth, tmp_path):
    """A depth PGM with each fault that ``predict`` must report, and its intensity PGM, as ``{fault: (pair, 3)}``."""
    good, intensity = depth.read_bytes(), str(depth).replace("_depth", "_intensity")
    tmp_path.mkdir()
    faults = {}

    def pair(name, depth_bytes=None, shape=None, value=700):
        path = tmp_path / f"{name}_depth.pgm"
        if shape is None:
            path.write_bytes(depth_bytes)
            faults[name] = ([str(path), intensity], 3)
            return
        write_pgm(path, np.full(shape, value, dtype=np.uint16))
        write_pgm(tmp_path / f"{name}_intensity.pgm", np.full(shape, 90, dtype=np.uint8))
        faults[name] = ([str(path), str(tmp_path / f"{name}_intensity.pgm")], 3)

    pair("truncated_pixels", good[:-10])
    pair("maxval_zero", b"P5\n64 64\n0\n" + bytes(64 * 64))
    pair("all_zero", shape=(64, 64), value=0)
    pair("side_below_32", shape=(16, 64))
    pair("side_above_256", shape=(64, 300))
    return faults


def feature_faults(cfg, tmp_path):
    """A config for each feature-file and ``labels.csv`` fault that ``train`` and ``eval`` must report.

    Returns ``{fault: (config path, exit code)}``.  Each config's output directory holds copies of
    the features, labels and model of ``cfg``'s, with one of them spoiled.  A feature file or a
    labels file that disagrees with the config or with the other file exits 2; every other fault 3.
    """
    raw = json.loads(cfg.read_text())
    src = Path(raw["paths"]["output_dir"])
    kind, x = read_features(src / "features_combined.bin")
    good, lines = (src / "features_combined.bin").read_bytes(), (src / "labels.csv").read_text().splitlines()
    header = b"{not json"
    spoil = {
        "features missing": lambda f, _: f.unlink(),
        "features directory": lambda f, _: (f.unlink(), f.mkdir()),
        "features empty": lambda f, _: f.write_bytes(b""),
        "features truncated": lambda f, _: f.write_bytes(good[: len(good) // 2]),
        "features bad_magic": lambda f, _: f.write_bytes(b"HSFT0" + good[5:]),
        "features malformed_header": lambda f, _: f.write_bytes(
            FEATURE_MAGIC + len(header).to_bytes(4, "little") + header),
        "features wrong_kind": lambda f, _: write_features(f, "raw", x),
        "features wrong_width": lambda f, _: write_features(f, kind, x[:, :-1]),
        "labels missing": lambda _, lab: lab.unlink(),
        "labels empty": lambda _, lab: lab.write_text(""),
        "labels header_only": lambda _, lab: lab.write_text(lines[0] + "\n"),
        "labels one_row_short": lambda _, lab: lab.write_text("\n".join(lines[:-1]) + "\n"),
        "labels unknown_letter": lambda _, lab: lab.write_text("\n".join([lines[0], lines[1][:-1] + "J", *lines[2:]])),
        "labels not_utf8": lambda _, lab: lab.write_bytes(b"\n".join(l.encode() for l in lines) + b"\n\xff,A\n"),
    }
    mismatches = {"features wrong_kind", "features wrong_width", "labels header_only", "labels one_row_short"}
    faults = {}
    for name, fn in spoil.items():
        out = tmp_path / name.replace(" ", "_")
        shutil.copytree(src, out)
        fn(out / "features_combined.bin", out / "labels.csv")
        raw["paths"].update(output_dir=str(out), model=str(out / "model.hsdbn"))
        (out / "run.json").write_text(json.dumps(raw))
        faults[name] = (out / "run.json", 2 if name in mismatches else 3)
    return faults


def test_fault_matrix_exits_with_its_code_and_no_traceback(workspace, tmp_path):
    # each command runs in its own process against each fault of each artifact it reads, two processes at a time
    cfg = str(copy_workspace(workspace, tmp_path))
    depth = next((workspace[0] / "data" / "images").glob("*_depth.pgm"))
    images = [str(depth), str(depth).replace("_depth", "_intensity")]
    runs = {}
    for fault, (path, code) in model_faults(tmp_path / "out" / "model.hsdbn", tmp_path / "models").items():
        runs[f"predict, model {fault}"] = (["predict", "--config", cfg, "--model", str(path), *images], code)
        runs[f"eval, model {fault}"] = (["eval", "--config", cfg, "--model", str(path)], code)
    for fault, (pair, code) in depth_faults(depth, tmp_path / "images").items():
        runs[f"predict, depth {fault}"] = (["predict", "--config", cfg, *pair], code)
    for fault, (config, code) in feature_faults(Path(cfg), tmp_path / "features").items():
        for command in ("train", "eval"):
            runs[f"{command}, {fault}"] = ([command, "--config", str(config)], code)
    pythonpath = os.pathsep.join([str(Path(fingerspell.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])

    def run(argv):
        return subprocess.run([sys.executable, "-m", "fingerspell.cli", *argv],
                              env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120)

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = dict(zip(runs, pool.map(run, [argv for argv, _ in runs.values()])))
    wrong = {case: (out.returncode, out.stderr) for case, out in done.items()
             if out.returncode != runs[case][1] or "Traceback" in out.stderr or not out.stderr}
    assert not wrong
    assert len(done) == 45


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
        monkeypatch.setattr(cli, "cmd_extract", lambda cfg: configs.append(cfg) or 0)
        assert main(["extract", "--config", str(p), "--workers", "2"]) == 0
        assert main(["train", "--config", str(p), "--seed", "9", "--split", "unseen", "--test-user", "u1"]) == 0
        assert main(["extract", "--config", str(p)]) == 0
        assert main(["train", "--config", str(p)]) == 0
        fields = [(c.rng_seed, c.workers, c.split.mode, c.split.test_user) for c in configs]
        assert fields[:2] == [(77, 2, "allseen", None), (9, 1, "unseen", "u1")]
        assert fields[2:] == [(77, 1, "allseen", None)] * 2
        assert configs[2] == configs[3] == load_config(p)

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


# the override flags each command takes, beside --config; every other pair is refused
OVERRIDE_FLAGS = {
    "gen-synthetic": {"--seed"},
    "extract": {"--workers", "--feature-kind"},
    "train": {"--seed", "--feature-kind", "--split", "--test-user"},
    "eval": {"--seed", "--feature-kind", "--split", "--test-user", "--model"},
    "predict": {"--feature-kind", "--model"},
}
# flag -> (its argument, the config field it sets, the field's value); the config below reads otherwise
OVERRIDE_VALUES = {
    "--seed": ("9", "rng_seed", 9),
    "--workers": ("2", "workers", 2),
    "--feature-kind": ("raw", "feature_kind", "raw"),
    "--split": ("allseen", "split.mode", "allseen"),
    "--test-user": ("u1", "split.test_user", "u1"),
    "--model": ("other.hsdbn", "paths.model", "other.hsdbn"),
}
CAPTURE_ARGS = {"predict": ["depth.pgm", "intensity.pgm"]}


class TestOverrideFlags:
    @pytest.mark.parametrize("command, flag", [(c, f) for c in OVERRIDE_FLAGS for f in sorted(OVERRIDE_VALUES)
                                               if f not in OVERRIDE_FLAGS[c]])
    def test_flag_of_a_field_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)
        p = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(p), flag, OVERRIDE_VALUES[flag][0]] + CAPTURE_ARGS.get(command, []))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.json"]

    @pytest.mark.parametrize("command, flag", [(c, f) for c in OVERRIDE_FLAGS for f in sorted(OVERRIDE_FLAGS[c])])
    def test_flag_sets_its_field(self, tmp_path, monkeypatch, command, flag):
        p = write_config(tmp_path, split={"mode": "unseen"})
        configs = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda cfg, *rest: configs.append(cfg) or 0)
        arg, field, value = OVERRIDE_VALUES[flag]
        assert main([command, "--config", str(p)] + CAPTURE_ARGS.get(command, [])) == 0
        assert main([command, "--config", str(p), flag, arg] + CAPTURE_ARGS.get(command, [])) == 0
        default, overridden = (operator.attrgetter(field)(c) for c in configs)
        assert default != value and overridden == value
        assert configs[0] == load_config(p)

    def test_parser_takes_the_config_and_the_override_flags_only(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        total = 0
        for command, parser in subparsers.choices.items():
            flags = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
            own = {"--users", "--per-class"} if command == "gen-synthetic" else set()
            assert flags == {"--config"} | OVERRIDE_FLAGS[command] | own
            total += len(flags)
        assert total == 21

    def test_eval_model_flag_is_echoed_as_paths_model(self, workspace, tmp_path, capsys):
        cfg = copy_workspace(workspace, tmp_path)
        other = tmp_path / "other.hsdbn"
        shutil.copy(tmp_path / "out" / "model.hsdbn", other)
        (tmp_path / "out" / "model.hsdbn").unlink()
        assert main(["eval", "--config", str(cfg), "--model", str(other)]) == 0
        assert "allseen:" in capsys.readouterr().out
        assert json.loads((tmp_path / "out" / "config.effective.json").read_text())["paths"]["model"] == str(other)


@pytest.mark.parametrize("char", ["/", "\\", "\0"], ids=["slash", "backslash", "nul"])
@pytest.mark.parametrize("command", ["extract", "train", "eval"])
def test_user_with_a_path_character_exits_3(workspace, tmp_path, capsys, command, char):
    # a user names the per-user model files, so a path character is a fault of the data, not of the config
    if command == "extract":
        cfg = write_config(tmp_path)
        assert main(["gen-synthetic", "--config", str(cfg), "--users", "1", "--per-class", "1"]) == 0
        table, flags = tmp_path / "data" / "manifest.csv", []
    else:
        cfg = copy_workspace(workspace, tmp_path)
        table, flags = tmp_path / "out" / "labels.csv", ["--split", "unseen"]  # one model per user
    lines = [line.split(",") for line in table.read_text().split("\n")]
    lines[1][lines[0].index("user")] = f"u0{char}0"
    table.write_text("\n".join(",".join(line) for line in lines))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)] + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{table}:2: user" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists() and not list((tmp_path / "out").glob("model_*"))


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

    def test_cli_import_leaves_out_scipy_signal(self, workspace):
        # importing scipy.special for the sigmoid cost every process about 17 MiB and 0.17 s of start-up, and
        # scipy.signal about 50 MB and 0.4 s; scipy.fft, which only the Gabor and bar kinds use, is imported on
        # their first filter response
        ws_path, cfg = workspace
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(fingerspell.__file__).parents[1]),
                                                            os.environ.get("PYTHONPATH", "")])}
        listing = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        code = ("import sys, fingerspell.cli; " + listing + "; "
                "from fingerspell.dataset import gen_synthetic; from fingerspell.features import extract_features; "
                "s = gen_synthetic(1, 1, 0)[0]; [extract_features(s.depth, s.intensity, k) for k in ('gabor', 'bar')]; "
                + listing)
        at_import, after_filters = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                                  capture_output=True, text=True, timeout=60).stdout.splitlines()
        fft_alone = subprocess.run([sys.executable, "-c", "import sys, scipy.fft; " + listing], env=env, check=True,
                                   capture_output=True, text=True, timeout=60).stdout.strip()
        assert at_import == "[]"
        assert after_filters == fft_alone and "scipy.fft" in fft_alone and "scipy.signal" not in fft_alone

        # -X importtime lists every module the process imports, on stderr
        depth = next((ws_path / "data" / "images").glob("*_depth.pgm"))
        intensity = str(depth).replace("_depth", "_intensity")
        predict = subprocess.run([sys.executable, "-X", "importtime", "-m", "fingerspell.cli", "predict", "--config",
                                  str(cfg), str(depth), intensity], env=env, check=True, capture_output=True,
                                 text=True, timeout=60)
        imported = [line.rsplit("|", 1)[1].strip() for line in predict.stderr.splitlines()
                    if line.startswith("import time:") and "|" in line]
        assert predict.stdout.startswith("predicted: ") and "fingerspell.rbm" in imported
        assert [m for m in imported if m.startswith("scipy")] == []

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
        for command in (["extract", "--feature-kind", "combined"], ["train", "--split", "allseen"],
                        ["gen-synthetic", "--seed", "1", "--users", "1", "--per-class", "1"]):
            assert main(command + ["--config", str(p)]) == 2
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
        args = build_parser().parse_args(["train", "--config", str(p), "--seed", "9", "--feature-kind", "raw",
                                          "--split", "unseen", "--test-user", "u1"])
        cfg = _load_config_with_overrides(args)
        workers = _load_config_with_overrides(build_parser().parse_args(["extract", "--config", str(p),
                                                                         "--workers", "2"])).workers
        assert (cfg.rng_seed, workers, cfg.feature_kind) == (9, 2, "raw")
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
    "--model": st.text(st.characters(codec="ascii", exclude_characters="-"), min_size=1, max_size=4),
}


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    """One config file that every fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "run.json"


@settings(max_examples=200, deadline=None)
@given(
    config_json | st.dictionaries(st.sampled_from(["split", "rng_seed", "workers", "feature_kind", "paths"]),
                                  config_json),
    st.sampled_from(sorted(OVERRIDE_FLAGS)),
    st.data(),
)
def test_fuzz_config_file_with_flag_overrides(fuzz_config, raw, command, data):
    fuzz_config.write_text(json.dumps(raw))
    argv = [command, "--config", str(fuzz_config)]
    for flag in data.draw(st.lists(st.sampled_from(sorted(OVERRIDE_FLAGS[command])), unique=True)):
        argv += [flag, data.draw(flag_values[flag])]
    argv += ["depth.pgm", "intensity.pgm"] if command == "predict" else []
    try:
        _load_config_with_overrides(build_parser().parse_args(argv))
    except ConfigError:
        pass
