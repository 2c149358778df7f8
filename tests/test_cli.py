"""Tests for the command-line interface (run in-process through main)."""

import base64
import copy
import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uenl.cli
import uenl.harness
import uenl.tensor
from conftest import V1_CHECKPOINT, WRITE_FAULTS, fail_third_file, tiny_experiment_config
from uenl.cli import main
from uenl.config import (
    MAX_ARRAY_VALUES, CsvOodSpec, GaussianClustersSpec, GaussianNoiseOodSpec, IdxOodSpec, ShiftedGaussianOodSpec,
    UniformOodSpec,
)
from uenl.harness import Checkpoint
from uenl.model import init_params
from uenl.rng import RngStream, derive_seed


@pytest.fixture()
def config_path(tmp_path):
    cfg = tiny_experiment_config(epochs=2)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint trained once for the whole module via the CLI itself."""
    root = tmp_path_factory.mktemp("cli_train")
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(tiny_experiment_config(epochs=2).to_dict()), encoding="utf-8")
    ckpt_path = root / "model.ckpt.json"
    rc = main(["train", "--config", str(cfg_path), "--out", str(ckpt_path), "--quiet"])
    assert rc == 0
    return cfg_path, ckpt_path


class TestTrain:
    def test_set_override_recorded_in_checkpoint(self, config_path, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        rc = main(
            ["train", "--config", str(config_path), "--set", "lambda=0.25", "--out", str(out), "--quiet"]
        )
        assert rc == 0
        assert Checkpoint.load(out).config.kl_weight == 0.25
        assert f"saved checkpoint to {out}" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(config_path), "--seed", "123", "--out", str(out), "--quiet"])
        assert rc == 0
        assert Checkpoint.load(out).config.seed == 123

    def test_progress_lines_unless_quiet(self, config_path, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        noisy = capsys.readouterr().out.splitlines()
        assert sum(1 for line in noisy if line.startswith("epoch")) == 2  # one per epoch
        assert main(["train", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        quiet = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("epoch") for line in quiet)

    def test_missing_config_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["train", "--config", str(missing), "--out", str(tmp_path / "m.ckpt")])
        assert rc != 0
        err = capsys.readouterr().err
        assert str(missing) in err
        assert len(err.strip().splitlines()) == 1  # single-line diagnostic

    def test_schema_violation_single_line_error(self, config_path, tmp_path, capsys):
        rc = main(
            ["train", "--config", str(config_path), "--set", "delta=0", "--out", str(tmp_path / "m")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta" in err
        assert len(err.strip().splitlines()) == 1

    def test_kl_form_std_blow_up_is_one_error_line(self, config_path, tmp_path, capsys):
        # At the tiny config's lr of 0.1 the std-form KL drives u out of range
        # within epoch 0.
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(config_path), "--set", "kl_form=std", "--out", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite value at epoch 0, batch 3: head: dense produced non-finite values\n"
        assert not out.exists()

    def test_non_finite_running_statistic_is_one_error_line(self, config_path, tmp_path, capsys):
        # At lr 1e150 the first step's weights make the next batch's variance
        # overflow: the error names the layer and the statistic.
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(config_path), "--set", "lr=1e150", "--out", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite value at epoch 0, batch 1: backbone.h1.bn: non-finite running var\n"
        assert not out.exists()

    def test_non_finite_gradient_is_one_error_line(self, config_path, tmp_path, capsys, monkeypatch):
        # A non-finite gradient is caught by sgd_step, on the same path and
        # with the same message format as a non-finite loss or backward.
        # Every layer's weight gradient is infinite; the first in layout order is named.
        def inf_weight_gradient(*args):
            grads = list(dense.vjp(*args))
            grads[1] = np.full(grads[1].shape, np.inf)
            return tuple(grads)

        dense = uenl.tensor.PRIMITIVES["dense"]
        monkeypatch.setitem(uenl.tensor.PRIMITIVES, "dense", dense._replace(vjp=inf_weight_gradient))
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite value at epoch 0, batch 0: non-finite gradient for parameter backbone.h0.w\n"
        assert not out.exists()


class TestOutputFiles:
    """``train`` and ``sweep`` check their ``--out`` before any training, and
    an interrupt is one line."""

    DESK = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"

    @pytest.mark.parametrize("out", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unwritable_out_fails_before_training(self, command, out, config_path, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = uenl.harness.train
        # ``uenl train`` calls the cli module's train; ``uenl sweep`` reaches
        # it through harness.sweep.
        monkeypatch.setattr(uenl.cli, "train", counting_train)
        monkeypatch.setattr(uenl.harness, "train", counting_train)
        target = tmp_path / "missing" / "out.json" if out == "missing_dir" else tmp_path
        argv = [command, "--config", str(config_path), "--out", str(target), "--quiet"]
        if command == "sweep":
            argv += ["--grid", "lambda=0.1,0.2"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and calls == []
        assert err.startswith(f"error: cannot write {target}:") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_writable_out_leaves_only_the_checkpoint(self, config_path, tmp_path):
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "m.ckpt"), "--quiet"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "m.ckpt"]

    def test_sigint_is_one_error_line(self, tmp_path):
        out = tmp_path / "m.json"
        src = str(Path(uenl.cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-u", "-m", "uenl", "train", "--config", str(self.DESK), "--set", "epochs=400"]
        proc = subprocess.Popen(
            [*argv, "--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        try:
            first = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert first.startswith("epoch    0"), first
        assert (proc.returncode, err) == (130, "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []


class TestEvalAndHistOutput:
    """``eval`` checks its report directory and ``hist`` its ``--out`` file
    before scoring or reading anything, and creates nothing doing so."""

    @staticmethod
    def counting(monkeypatch, name):
        calls, original = [], getattr(uenl.cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(uenl.cli, name, counted)
        return calls

    @staticmethod
    def unwritable(kind, tmp_path, name):
        """(--out value, the path the error line names) for one kind of bad target."""
        (tmp_path / "afile").write_text("", encoding="utf-8")
        if kind == "file_parent":
            target = tmp_path / "afile" / name
            return target, target
        if kind == "file_grandparent":
            target = tmp_path / "afile" / "sub" / name
            return target, target
        (tmp_path / name).mkdir()
        if kind == "directory":
            return tmp_path / name, tmp_path / name
        (tmp_path / name / "metrics.csv").mkdir()  # "report_file_is_a_directory"
        return tmp_path / name, tmp_path / name / "metrics.csv"

    @pytest.mark.parametrize("kind", ["file_parent", "file_grandparent", "report_file_is_a_directory"])
    def test_unwritable_eval_out_fails_before_scoring(self, trained, tmp_path, capsys, monkeypatch, kind):
        calls = self.counting(monkeypatch, "evaluate")
        loads, load = [], Checkpoint.load.__func__
        monkeypatch.setattr(Checkpoint, "load", classmethod(lambda cls, path: loads.append(path) or load(cls, path)))
        out, named = self.unwritable(kind, tmp_path, "report")
        rc = main(["eval", "--checkpoint", str(trained[1]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and calls == [] and loads == []
        assert err.startswith(f"error: cannot write {named}:") and len(err.splitlines()) == 1
        made = ["afile"] if kind.startswith("file") else ["afile", "report"]
        assert sorted(p.name for p in tmp_path.iterdir()) == made

    @pytest.mark.parametrize("kind", ["file_parent", "file_grandparent", "directory"])
    def test_unwritable_hist_out_fails_before_reading(self, tmp_path, capsys, monkeypatch, kind):
        calls = self.counting(monkeypatch, "scores_csv_to_histograms")
        out, named = self.unwritable(kind, tmp_path, "hist.csv")
        rc = main(["hist", "--scores", str(tmp_path / "scores.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and calls == []
        assert err.startswith(f"error: cannot write {named}:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("blocked", ["accuracy.csv", "scores.csv", "histograms.csv"])
    def test_any_report_file_that_is_a_directory_fails_before_scoring(self, trained, tmp_path, capsys, monkeypatch, blocked):
        # Every report file is probed, not only metrics.csv: an old report
        # whose scores.csv is now a directory keeps its metrics.csv bytes.
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(trained[1]), "--methods", "msp", "--out", str(out)]) == 0
        old_metrics = (out / "metrics.csv").read_bytes()
        (out / blocked).unlink()
        (out / blocked).mkdir()
        capsys.readouterr()
        calls = self.counting(monkeypatch, "evaluate")
        rc = main(["eval", "--checkpoint", str(trained[1]), "--methods", "msp,energy", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and calls == []
        assert err.startswith(f"error: cannot write {out / blocked}:") and len(err.splitlines()) == 1
        assert (out / "metrics.csv").read_bytes() == old_metrics
        assert sorted(p.name for p in out.iterdir()) == ["accuracy.csv", "histograms.csv", "metrics.csv", "scores.csv"]

    def test_eval_check_creates_nothing(self, tmp_path, capsys):
        # A missing checkpoint fails after the --out check, which made no
        # directory and left no probe file.
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.json"), "--out", str(tmp_path / "new" / "report")])
        assert rc == 1 and "none.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_writes_into_a_new_nested_directory(self, trained, tmp_path):
        out = tmp_path / "a" / "b" / "report"
        assert main(["eval", "--checkpoint", str(trained[1]), "--methods", "msp", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["accuracy.csv", "histograms.csv", "metrics.csv", "scores.csv"]


class TestEval:
    def test_three_method_blocks(self, trained, tmp_path, capsys):
        _, ckpt = trained
        out = tmp_path / "report"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--methods",
                "msp,energy,uncertainty",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        metrics = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        methods_in_csv = {line.split(",")[0] for line in metrics[1:]}
        assert methods_in_csv == {"msp", "energy", "uncertainty"}
        stdout = capsys.readouterr().out
        assert "id_test error rate" in stdout

    def test_ood_replacement_csv(self, trained, tmp_path):
        cfg_path, ckpt = trained
        # gen-data gives us a CSV OOD file to feed back through --ood
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
        out = tmp_path / "report"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--ood",
                f"noise={data_dir / 'ood_gaussian_noise.csv'}",
                "--methods",
                "msp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        metrics = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        datasets = {line.split(",")[1] for line in metrics[1:] if not line.startswith("#")}
        assert "noise" in datasets
        assert "uniform" not in datasets

    def test_ood_builds_only_the_csv_sets(self, trained, tmp_path, monkeypatch):
        cfg_path, ckpt = trained
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
        built = []
        for spec_type in (UniformOodSpec, ShiftedGaussianOodSpec, GaussianNoiseOodSpec, CsvOodSpec, IdxOodSpec):

            def counted(spec, dim, id_stats, original=spec_type.build):
                built.append((spec.kind, spec.name))
                return original(spec, dim, id_stats)

            monkeypatch.setattr(spec_type, "build", counted)
        argv = ["eval", "--checkpoint", str(ckpt), "--ood", f"noise={data_dir / 'ood_gaussian_noise.csv'}"]
        assert main([*argv, "--methods", "msp", "--out", str(tmp_path / "report")]) == 0
        assert built == [("csv", "noise")]

    def test_ood_report_matches_config_csv_spec(self, trained, tmp_path):
        """``--ood name=path`` gives the report of a checkpoint whose config
        declares that csv OOD set."""
        cfg_path, ckpt = trained
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
        path = str(data_dir / "ood_uniform.csv")
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        doc["config"]["data"]["ood"] = [{"kind": "csv", "name": "box", "path": path}]
        declared = tmp_path / "declared.ckpt.json"
        declared.write_text(json.dumps(doc), encoding="utf-8")
        runs = {"flag": [str(ckpt), "--ood", f"box={path}"], "config": [str(declared)]}
        reports = {}
        for name, argv in runs.items():
            assert main(["eval", "--checkpoint", *argv, "--out", str(tmp_path / name)]) == 0
            reports[name] = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        assert reports["flag"] == reports["config"]

    def test_ood_width_mismatch_names_the_set(self, trained, tmp_path, capsys, backbone_calls):
        _, ckpt = trained
        two = tmp_path / "two.csv"
        two.write_text("x1,x2\n0.5,0.5\n1.0,-1.0\n", encoding="utf-8")
        rc = main(["eval", "--checkpoint", str(ckpt), "--ood", str(two), "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, "error: OOD set 'two' is 2-dimensional, model expects 6")
        assert backbone_calls == []

    def test_ood_without_data_section(self, trained, tmp_path, capsys):
        _, ckpt = trained
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        doc["config"]["data"] = None
        path = tmp_path / "no_data.ckpt.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["eval", "--checkpoint", str(path), "--ood", str(tmp_path / "x.csv"), "--out", str(tmp_path / "r")])
        assert_one_error_line(rc, capsys, "config has no data section")

    @pytest.mark.parametrize(
        "entries,text",
        [
            (["a/x.csv", "b/x.csv"], "ood set names must be unique, got ['x', 'x']"),
            (["=x.csv"], "ood set name '' must be non-empty"),
            (["a,b=x.csv"], "ood set name 'a,b' must be non-empty"),
            (["mean=x.csv"], "ood set name 'mean' must be non-empty"),
            (["id_test.csv"], "ood set name 'id_test' must be non-empty"),
            # A non-UTF-8 file name decodes to lone surrogates on POSIX.
            (["\udcff.csv"], "ood set name '\\udcff' must be non-empty UTF-8"),
        ],
        ids=["same-stem", "empty", "comma", "mean", "id_test", "surrogate-stem"],
    )
    def test_bad_ood_names_checked_before_loading(self, trained, tmp_path, capsys, backbone_calls, entries, text):
        # None of the CSV paths exists: a check after loading would report
        # the missing file instead.
        _, ckpt = trained
        out = tmp_path / "report"
        ood_args = [arg for entry in entries for arg in ("--ood", entry)]
        rc = main(["eval", "--checkpoint", str(ckpt), *ood_args, "--out", str(out)])
        assert_one_error_line(rc, capsys, text)
        assert backbone_calls == [] and not out.exists()

    def test_v1_checkpoint_evaluates(self, tmp_path):
        """``uenl eval`` gives the same report bytes on the version-1
        fixture as on its own version-2 re-save."""
        resaved = tmp_path / "resaved.ckpt.json"
        Checkpoint.load(V1_CHECKPOINT).save(resaved)
        reports = {}
        for name, path in (("v1", V1_CHECKPOINT), ("v2", resaved)):
            out = tmp_path / name
            assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 0
            reports[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert reports["v1"] == reports["v2"]

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "ghost.ckpt"), "--out", str(tmp_path)])
        assert rc == 1
        assert "ghost.ckpt" in capsys.readouterr().err


class TestGenData:
    def test_writes_all_splits(self, config_path, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["gen-data", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["id_test.csv", "id_train.csv", "ood_gaussian_noise.csv", "ood_uniform.csv"]
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 4
        header = (out / "id_train.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",label")
        ood_header = (out / "ood_uniform.csv").read_text(encoding="utf-8").splitlines()[0]
        assert "label" not in ood_header

    @pytest.mark.parametrize("out", ["file", "under_file"])
    def test_unwritable_out_fails_before_building(self, out, config_path, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = uenl.cli.build_raw_datasets
        monkeypatch.setattr(uenl.cli, "build_raw_datasets", counting_build)
        afile = tmp_path / "afile"
        afile.write_text("keep\n", encoding="utf-8")
        target = afile if out == "file" else afile / "data"
        rc = main(["gen-data", "--config", str(config_path), "--out", str(target)])
        assert_one_error_line(rc, capsys, str(afile))
        assert calls == []
        assert afile.read_text(encoding="utf-8") == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "exp.json"]

    def test_an_ood_file_that_is_a_directory_fails_before_building(self, config_path, tmp_path, capsys, monkeypatch):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config_path), "--out", str(out)]) == 0
        old = (out / "id_train.csv").read_bytes()
        (out / "ood_uniform.csv").unlink()
        (out / "ood_uniform.csv").mkdir()
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(uenl.cli, "build_raw_datasets", lambda *args: calls.append(args))
        rc = main(["gen-data", "--config", str(config_path), "--out", str(out)])
        assert_one_error_line(rc, capsys, f"cannot write {out / 'ood_uniform.csv'}: it is a directory")
        assert calls == [] and (out / "id_train.csv").read_bytes() == old

    def test_failed_build_creates_no_directory(self, config_path, tmp_path, capsys):
        missing = {key: str(tmp_path / "missing" / key) for key in ("train_images", "train_labels")}
        spec = {"kind": "idx", **missing, "test_images": "c", "test_labels": "d"}
        target = tmp_path / "new_dir" / "data"
        args = ["--config", str(config_path), "--set", f"data.id={json.dumps(spec)}", "--out", str(target)]
        rc = main(["gen-data", *args])
        assert_one_error_line(rc, capsys, missing["train_images"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    @pytest.mark.parametrize("fault", WRITE_FAULTS)
    def test_failed_overwrite_keeps_the_old_files(self, fault, config_path, tmp_path, capsys, monkeypatch):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config_path), "--out", str(out)]) == 0
        old = {p.name: p.read_bytes() + b"old\n" for p in out.iterdir()}
        for name, data in old.items():
            (out / name).write_bytes(data)
        capsys.readouterr()
        error = fail_third_file(monkeypatch, fault)
        rc = main(["gen-data", "--config", str(config_path), "--out", str(out)])
        assert rc == (130 if error is KeyboardInterrupt else 1)
        assert capsys.readouterr().out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old


class TestSweep:
    def test_grid_rows_and_seed_derivation(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--grid",
                "delta=4,8",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + 2 cells
        header = lines[0].split(",")
        assert header[0] == "delta"
        seed_col = header.index("seed")
        base_seed = tiny_experiment_config().seed
        assert int(lines[1].split(",")[seed_col]) == derive_seed(base_seed, "cell0")
        assert f"wrote {out} (2 rows)" in capsys.readouterr().out

    def test_progress_lines_unless_quiet(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config_path), "--grid", "delta=4,8", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == ["cell 0: delta=4", "cell 1: delta=8", f"wrote {out} (2 rows)"]

    def test_malformed_grid_entry(self, config_path, tmp_path, capsys):
        rc = main(
            ["sweep", "--config", str(config_path), "--grid", "delta", "--out", str(tmp_path / "s.csv")]
        )
        assert rc == 1
        assert "grid entry" in capsys.readouterr().err


class TestHist:
    def test_rebin_scores_csv(self, trained, tmp_path):
        _, ckpt = trained
        report_dir = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(ckpt), "--methods", "msp", "--out", str(report_dir)]) == 0
        out = tmp_path / "hist.csv"
        rc = main(["hist", "--scores", str(report_dir / "scores.csv"), "--bins", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset,method,bin_left,bin_right,count"
        assert len(lines) == 1 + 3 * 5  # id_test + 2 ood sets, 5 bins each

    def test_missing_scores_file(self, tmp_path, capsys):
        rc = main(["hist", "--scores", str(tmp_path / "none.csv"), "--out", str(tmp_path / "h.csv")])
        assert rc == 1
        assert "none.csv" in capsys.readouterr().err


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        rc = main(["transmogrify"])
        assert rc != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, config_path, capsys):
        rc = main(["train", "--config", str(config_path), "--learning-rate", "0.1"])
        assert rc != 0
        assert "unrecognized" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) != 0

    def test_missing_required_flag(self, capsys):
        rc = main(["train"])
        assert rc != 0
        assert "--config" in capsys.readouterr().err


def _read(entry) -> np.ndarray:
    """A tensor entry's values, from a v1 list or a v2 base64 payload."""
    if isinstance(entry["data"], list):
        return np.array(entry["data"]).reshape(entry["shape"])
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").reshape(entry["shape"])


def _write(entry, values: np.ndarray, v1: bool) -> None:
    entry["shape"] = list(values.shape)
    raw = np.ascontiguousarray(values, dtype="<f8")
    entry["data"] = raw.ravel().tolist() if v1 else base64.b64encode(raw.tobytes()).decode()


def _v1(edit):
    """``edit`` applied to the version-1 form of the document."""

    def v1_edit(doc):
        doc["version"] = 1
        for section in ("weights", "bn_state"):
            for entry in doc[section].values():
                _write(entry, _read(entry), v1=True)
        return edit(doc)

    return v1_edit


def _transpose(doc):
    entry = doc["weights"]["backbone.h0.w"]
    _write(entry, _read(entry).T, v1=doc["version"] == 1)
    return doc


def _edit(section, name, value=None):
    """A checkpoint edit: delete ``doc[section][name]``, or set it to ``value``."""

    def edit(doc):
        if value is None:
            del doc[section][name]
        else:
            doc[section][name] = value
        return doc

    return edit


def _nan_weight(doc):
    entry = doc["weights"]["head.b"]
    values = _read(entry).copy()
    values[0] = float("nan")
    _write(entry, values, v1=doc["version"] == 1)
    return doc


def _negative_variance(doc):
    entry = doc["bn_state"]["backbone.h0.bn.var"]
    values = _read(entry).copy()
    values[0] = -values[0]
    _write(entry, values, v1=doc["version"] == 1)
    return doc


def _fold_overflow(doc):
    # Finite weights whose eval fold overflows: w' = w * gamma / std.
    for name, value in (("head.w", 1e10), ("head.bn.gamma", 1e300)):
        entry = doc["weights"][name]
        _write(entry, np.full_like(_read(entry), value), v1=doc["version"] == 1)
    return doc


def _edit_data(section, name, change):
    """A checkpoint edit: replace a tensor's ``data`` with ``change(data)``."""

    def edit(doc):
        entry = doc[section][name]
        entry["data"] = change(entry["data"])
        return doc

    return edit


def _drop_last_float(data):
    return base64.b64encode(base64.b64decode(data)[:-8]).decode()


def _payload_nan(data):
    # A NaN with a nonzero payload and the sign bit set, not np.nan's bits.
    raw = bytearray(base64.b64decode(data))
    raw[-8:] = (0xFFF8_0000_0000_0001).to_bytes(8, "little")
    return base64.b64encode(bytes(raw)).decode()


def _no_config(doc):
    del doc["config"]
    return doc


# (override, text the error line must contain)
MALFORMED_OVERRIDES = [
    ("lr_drop_epochs=5", "lr_drop_epochs: expected list"),
    ("data.ood=[1]", "data.ood[0]: expected object"),
    ("data.ood[3].n=5", "error: override 'data.ood[3].n': data.ood[3] is out of range"),
    ('data.id.n_train_per_class="5"', "data.id.n_train_per_class: expected integer"),
    ('data.ood=[{"kind": "uniform", "n": 10, "low": 0.0, "high": 1.0}]', "'seed' in data.ood[0]"),
    ('data.ood=[{"kind": "gaussian_noise", "name": "mean", "n": 10, "seed": 1}]', "error: ood set name 'mean'"),
    ('data.ood[0].name="\\ud800"', "error: ood set name '\\ud800' must be non-empty UTF-8"),
    ("scoring.methods=msp", "scoring.methods: expected list"),
    ("data.id.seed=1.5", "data.id.seed: expected integer"),
    ("scoring.histogram_bins=2.7", "scoring.histogram_bins: expected integer"),
    ('backbone.use_batchnorm="no"', "backbone.use_batchnorm: expected boolean"),
    ("seed=true", "seed: expected integer"),
    # The architecture checks, run at load, name the config key.
    ("backbone.hidden_dims=[]", "error: backbone.hidden_dims must name at least one hidden layer"),
    ("backbone.hidden_dims=[0]", "error: backbone.hidden_dims entries must be at least 1"),
    ("backbone.input_dim=0", "error: backbone.input_dim must be at least 1"),
    ("backbone.num_classes=1", "error: backbone.num_classes must be at least 2"),
    ("delta=0", "error: delta must be at least 1"),
    ("dropout=1", "error: dropout must lie in [0, 1)"),
    ("bn_momentum=0", "error: bn_momentum must lie in (0, 1]"),
    ("bn_momentum=2", "error: bn_momentum must lie in (0, 1]"),
    ("bn_epsilon=0", "error: bn_epsilon must be positive"),
    # Data errors that need only the config fail at load and name the key.
    ("data.ood[0].high=-2.0", "error: data.ood[0].high (-2.0) must exceed low (-2.0)"),
    ("data.ood[0].n=0", "error: data.ood[0].n must be positive"),
    ("data.ood[1].n=-1", "error: data.ood[1].n must be positive"),
    (
        'data.ood[1]={"kind": "shifted_gaussian", "n": 5, "offset": 1.0, "sigma": 0, "seed": 1}',
        "error: data.ood[1].sigma must be positive",
    ),
    ("data.id.num_classes=20", "error: data.id.num_classes must lie in [2, dim] = [2, 6], got 20"),
    ("data.id.mean_scale=0", "error: data.id.mean_scale must be non-zero"),
    ("data.id.seed=-1", "error: data.id.seed must be a 64-bit unsigned integer"),
    ("data.ood[0].seed=-1", "error: data.ood[0].seed must be a 64-bit unsigned integer"),
    ('data.id={"kind": "csv", "train": "a.csv", "test": "b.csv", "has_labels": false}', "error: data.id.has_labels"),
    ("data.id.num_classes=3", "error: data.id.num_classes (3) != backbone.num_classes (2)"),
    ("data.id.dim=8", "error: data.id.dim (8) != backbone.input_dim (6)"),
    # ID-train statistics that overflow are named as such, not as a derived set's features.
    ("data.id.mean_scale=1e308", "error: the ID-train statistics (data.id) are unusable: mean and std entries must"),
    # Every count that sizes an array is bounded at load (MAX_ARRAY_VALUES = 2**28).
    (f"data.id.n_train_per_class={10**30}", f"error: data.id.n_train_per_class sizes a {2 * 10**30} x 6 array"),
    ("data.id.n_train_per_class=100000000000", "error: data.id.n_train_per_class sizes a 200000000000 x 6 array"),
    ("data.id.n_test_per_class=22369622", "error: data.id.n_test_per_class sizes a 44739244 x 6 array, over 268435456"),
    ("data.ood[0].n=100000000000", "error: data.ood[0].n sizes a 100000000000 x 6 array, over 268435456"),
    ("data.ood[1].n=44739243", "error: data.ood[1].n sizes a 44739243 x 6 array, over 268435456 values"),
    ("backbone.input_dim=100000000000", "error: backbone.input_dim x backbone.hidden_dims[0] sizes a 100000000000 x"),
    ("backbone.hidden_dims=[16,16777217]", "error: backbone.hidden_dims[0] x backbone.hidden_dims[1] sizes a 16 x"),
    ("backbone.num_classes=33554433", "error: backbone.hidden_dims[1] x backbone.num_classes sizes a 8 x 33554433"),
    ("delta=33554433", "error: backbone.hidden_dims[1] x delta sizes a 8 x 33554433 array"),
    ("scoring.histogram_bins=268435457", "error: scoring.histogram_bins sizes a 268435457 array"),
]

# (checkpoint edit, text the error line must contain)
MALFORMED_CHECKPOINTS = {
    "no_head_w": (_edit("weights", "head.w"), "missing head.w"),
    "no_config": (_no_config, "missing config"),
    "list": (lambda doc: [doc], "JSON object"),
    "no_bn_key": (_edit("bn_state", "head.bn.mean"), "missing head.bn.mean"),
    "extra_weight": (_edit("weights", "extra.w", {"shape": [1], "data": [0.0]}), "unexpected extra.w"),
    "transposed_weight": (_transpose, "backbone.h0.w has shape"),
    "nan_value": (_nan_weight, "head.b has non-finite"),
    "bad_config": (_edit("config", "seed", 1.5), "config: seed: expected integer"),
    # The same edits on a version-1 document.
    "transposed_weight_v1": (_v1(_transpose), "backbone.h0.w has shape"),
    "nan_value_v1": (_v1(_nan_weight), "head.b has non-finite"),
    # Malformed version-2 payloads.
    "data_not_string": (
        _edit_data("weights", "head.w", lambda data: 12),
        "weights.head.w.data must be a base64 string",
    ),
    "data_not_base64": (
        # A lax decoder would skip the "?" and read the original values.
        _edit_data("weights", "head.w", lambda data: data[:8] + "?" + data[8:]),
        "weights.head.w.data is not valid base64",
    ),
    "data_one_float_short": (
        _edit_data("bn_state", "head.bn.var", _drop_last_float),
        "bn_state.head.bn.var.data holds",
    ),
    "data_nan_bytes": (
        _edit_data("bn_state", "head.bn.var", _payload_nan),
        "bn_state.head.bn.var has non-finite",
    ),
    "negative_running_variance": (_negative_variance, "bn_state.backbone.h0.bn.var has negative running variance"),
    "folded_weights_overflow": (_fold_overflow, "error: head: folded weights are non-finite"),
    "data_not_numbers_v1": (
        _v1(_edit_data("weights", "head.b", lambda data: ["x"] * len(data))),
        "weights.head.b.data must be a list of 8 numbers",
    ),
    "data_v1_list": (
        _edit_data("weights", "backbone.out.b", lambda data: [0.0] * (len(base64.b64decode(data)) // 8)),
        "weights.backbone.out.b.data must be a base64 string",
    ),
}


def assert_one_error_line(rc, capsys, text):
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert text in lines[0]


class TestMalformedInput:
    """Every malformed config, override or checkpoint ends in exit status 1
    and a single ``error:`` line on stderr."""

    @pytest.fixture()
    def small_builds(self, monkeypatch):
        """Synthetic builds that fail, before they draw a row, when asked for
        more than 10**6 values: a missing check at load cannot allocate."""
        counts = ("n", "n_train_per_class", "n_test_per_class")
        for cls in (GaussianClustersSpec, UniformOodSpec, ShiftedGaussianOodSpec, GaussianNoiseOodSpec):
            def guarded(self, *args, original=cls.build):
                rows = sum(getattr(self, f, 0) * getattr(self, "num_classes", 1) for f in counts)
                assert rows * (args[0] if args else self.dim) <= 10**6, f"{self} reached build"
                return original(self, *args)

            monkeypatch.setattr(cls, "build", guarded)

    @pytest.mark.parametrize("override,text", MALFORMED_OVERRIDES, ids=[o for o, _ in MALFORMED_OVERRIDES])
    def test_override(self, config_path, tmp_path, capsys, small_builds, override, text):
        rc = main(["gen-data", "--config", str(config_path), "--set", override, "--out", str(tmp_path / "d")])
        assert_one_error_line(rc, capsys, text)

    def test_top_level_list_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        rc = main(["gen-data", "--config", str(path), "--set", "seed=1", "--out", str(tmp_path / "d")])
        assert_one_error_line(rc, capsys, "config: expected object, got list")

    def test_sweep_checks_every_cell_before_training(self, config_path, tmp_path, capsys, monkeypatch):
        calls = []
        original = uenl.harness.train

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(uenl.harness, "train", counted)
        # In each grid the first cell is valid and the second is not.
        for grid, text in [
            ("lambda=0.1,x", 'lambda: expected finite number, got string "x"'),
            ("data.id.dim=6,8", "data.id.dim (8) != backbone.input_dim (6)"),
            ("data.ood[0].high=2.0,-3.0", "data.ood[0].high (-3.0) must exceed low (-2.0)"),
        ]:
            argv = ["sweep", "--config", str(config_path), "--set", "epochs=2", "--grid", grid]
            rc = main([*argv, "--out", str(tmp_path / "sweep.csv")])
            assert_one_error_line(rc, capsys, text)
            assert calls == []

    def test_eval_bins_checked_before_any_pass(self, trained, tmp_path, capsys, backbone_calls):
        _, ckpt = trained
        rc = main(["eval", "--checkpoint", str(ckpt), "--bins", "0", "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, "error: scoring.histogram_bins must be at least 1")
        assert backbone_calls == []

    def test_hist_bins_checked_before_reading(self, tmp_path, capsys):
        # The scores file does not exist: a bin check after reading would
        # report the missing file instead.
        argv = ["hist", "--scores", str(tmp_path / "none.csv"), "--bins", "0"]
        rc = main([*argv, "--out", str(tmp_path / "h.csv")])
        assert_one_error_line(rc, capsys, "error: --bins must be at least 1")

    def test_hist_bins_over_the_limit(self, tmp_path, capsys):
        argv = ["hist", "--scores", str(tmp_path / "none.csv"), "--bins", str(MAX_ARRAY_VALUES + 1)]
        rc = main([*argv, "--out", str(tmp_path / "h.csv")])
        assert_one_error_line(rc, capsys, f"error: --bins must be at least 1 and at most {MAX_ARRAY_VALUES}, got")

    @pytest.mark.parametrize("cell", ["1_0", "\u0663"])
    def test_hist_score_not_ascii_number(self, tmp_path, capsys, cell):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"dataset,sample_index,method,score\nid_test,0,msp,{cell}\n", encoding="utf-8")
        rc = main(["hist", "--scores", str(scores), "--out", str(tmp_path / "h.csv")])
        assert_one_error_line(rc, capsys, f"error: {scores}: line 2: score {cell!r} is not numeric")

    def test_hist_non_finite_score_names_file_and_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        # The blank line counts: N is the line in the file.
        scores.write_text("dataset,sample_index,method,score\nid_test,0,msp,0.5\n\nid_test,1,msp,nan\n")
        rc = main(["hist", "--scores", str(scores), "--out", str(tmp_path / "h.csv")])
        assert_one_error_line(rc, capsys, f"{scores}: line 4: score 'nan' is not finite")

    def test_hist_not_utf8_names_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"datase\xff,sample_index,method,score\n")
        rc = main(["hist", "--scores", str(scores), "--out", str(tmp_path / "h.csv")])
        assert_one_error_line(rc, capsys, f"error: {scores}: not UTF-8 text")

    @pytest.mark.parametrize("cell", ["nan", "1e999"])
    def test_eval_ood_non_finite_feature_names_file_line_and_column(self, trained, tmp_path, capsys, cell):
        _, ckpt = trained
        ood = tmp_path / "nf.csv"
        ood.write_text(f"x1,x2,x3,x4,x5,x6\n{','.join(['0.5'] * 6)}\n0.5,0.5,{cell},0.5,0.5,0.5\n")
        rc = main(["eval", "--checkpoint", str(ckpt), "--ood", str(ood), "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, f"error: {ood}: line 3: column 3: '{cell}' is not finite")

    def test_eval_ood_not_utf8_names_file(self, trained, tmp_path, capsys):
        _, ckpt = trained
        ood = tmp_path / "latin1.csv"
        ood.write_bytes("x1,x2\n0.5,caf\xe9\n".encode("latin-1"))
        rc = main(["eval", "--checkpoint", str(ckpt), "--ood", str(ood), "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, f"error: {ood}: not UTF-8 text")

    def test_hist_header_only(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,sample_index,method,score\n")
        out = tmp_path / "h.csv"
        rc = main(["hist", "--scores", str(scores), "--out", str(out)])
        assert_one_error_line(rc, capsys, f"{scores}: no score rows")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_csv_label_not_finite(self, tmp_path, capsys, cell):
        header = ",".join([*(f"x{i}" for i in range(1, 7)), "label"])
        rows = [",".join(["0.5"] * 6 + [label]) for label in ("1", cell, "2")]
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        train_csv.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        test_csv.write_text("\n".join([header, rows[0], rows[2]]) + "\n", encoding="utf-8")
        cfg = tiny_experiment_config(epochs=2).to_dict()
        cfg["data"]["id"] = {"kind": "csv", "train": str(train_csv), "test": str(test_csv), "has_labels": True}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "m.ckpt"), "--quiet"])
        assert_one_error_line(rc, capsys, f"{train_csv}: line 3: label '{cell}' is not an integer")

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_checkpoint(self, trained, tmp_path, capsys, backbone_calls, case):
        edit, text = MALFORMED_CHECKPOINTS[case]
        _, ckpt = trained
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(edit(json.loads(ckpt.read_text(encoding="utf-8")))), encoding="utf-8")
        rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "report")])
        assert_one_error_line(rc, capsys, text)
        assert backbone_calls == []


# --------------------------------------------------------------------------
# Property: `uenl eval` on a mutated checkpoint or --ood CSV exits 0, or 1
# with one error line. Each edit is a plain tuple, so @example can pin one.
# --------------------------------------------------------------------------


def _tiny_checkpoint_text() -> str:
    """A v2 checkpoint with the tiny config's keys and shapes."""
    config = tiny_experiment_config(epochs=2)
    params = init_params(config, RngStream(0))
    return Checkpoint(config, params.weights, params.bn_state, 1, [0.7, 0.6], [0.2, 0.1]).to_json()


def _paths(node, path=()):
    """The path of every value below ``node`` in a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_TEXT = _tiny_checkpoint_text()
CKPT_PATHS = sorted(_paths(json.loads(_TEXT)), key=repr)
DATA_PATHS = [path for path in CKPT_PATHS if path[0] in ("weights", "bn_state") and path[-1] == "data"]
# Every JSON type, edge numbers, and huge ints, none of which can ask for an
# array large enough to allocate.
SWAPS = (None, True, 0, -1, 7, 10**30, 1.5, 1e308, "x", "é", [], [7, 7], {})
CKPT_EDITS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(CKPT_PATHS)),
    st.tuples(st.just("swap"), st.sampled_from(CKPT_PATHS), st.sampled_from(SWAPS)),
    st.tuples(st.just("cut"), st.sampled_from(DATA_PATHS), st.integers(0, 64)),
    st.tuples(st.just("text"), st.integers(0, len(_TEXT) - 1)),
)

OOD_ROWS = [b"x1,x2,x3,x4,x5,x6", b"0.5,-0.25,1.0,0.0,2.0,-1.5", b"1e-3,0.75,-2.0,0.125,0.0,3.0"]
CELLS = (b"nan", b"inf", b"-inf", b"1e999", b"9" * 400, b"1" + b"0" * 30, "é".encode(), b"\xff", b"caf\xe9", b"")


def csv_edits(rows, cells=CELLS):
    """Edits of the CSV ``rows``: drop or add a cell, replace one, cut the
    file short, or keep only the header."""
    n_rows, n_cols = len(rows), len(rows[0].split(b","))
    return st.one_of(
        st.tuples(st.sampled_from(["drop", "add"]), st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        st.tuples(st.just("cell"), st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), st.sampled_from(cells)),
        st.tuples(st.just("cut"), st.integers(0, sum(len(row) + 1 for row in rows) - 1)),
        st.tuples(st.just("header")),
    )


CSV_EDITS = csv_edits(OOD_ROWS)
# Cells that only a strict number parser rejects, and some it must accept.
NUMBER_CELLS = (*CELLS, b"1_0", "\u0663".encode(), "\uff11".encode(), b"0x10", b" 2.5 ", b"-.5E+1", b"Infinity", b"3")
SCORE_ROWS = [b"dataset,sample_index,method,score", b"id_test,0,msp,0.5", b"id_test,1,msp,-1.25e-3", b"uniform,0,msp,2"]
ID_ROWS = [b"x1,x2,x3,x4,x5,x6,label", b"0.5,-0.25,1.0,0.0,2.0,-1.5,1", b"1e-3,0.75,-2.0,0.125,0.0,3.0,2"]


def _edited_checkpoint(text: str, edit) -> str:
    if edit[0] == "text":
        return text[: edit[1]]
    doc = json.loads(text)
    *parents, key = edit[1]
    node = doc
    for step in parents:
        node = node[step]
    if edit[0] == "drop":
        del node[key]
    elif edit[0] == "swap":
        node[key] = copy.deepcopy(edit[2])
    else:  # "cut": truncate a base64 payload
        node[key] = node[key][: edit[2]]
    return json.dumps(doc)


def _edited_csv(edit, rows=OOD_ROWS) -> bytes:
    rows = [row.split(b",") for row in rows]
    if edit[0] == "drop":
        del rows[edit[1]][edit[2]]
    elif edit[0] == "add":
        rows[edit[1]].insert(edit[2], b"0.5")
    elif edit[0] == "cell":
        rows[edit[1]][edit[2]] = edit[3]
    elif edit[0] == "header":
        del rows[1:]
    text = b"\n".join(b",".join(row) for row in rows) + b"\n"
    return text[: edit[1]] if edit[0] == "cut" else text


def assert_exits_cleanly(argv):
    """``main(argv)`` returns 0 with nothing on stderr, or 1 with one error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert (rc, lines) == (0, []) or (rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (rc, lines)


def assert_eval_exits_cleanly(argv):
    assert_exits_cleanly(["eval", *argv, "--methods", "msp,uncertainty"])


class TestEvalProperty:
    @settings(max_examples=60)
    @given(edit=CKPT_EDITS)
    # Found by this search: an OverflowError traceback, and numpy overflow
    # warnings printed above the error line.
    @example(edit=("swap", ("config", "data", "id", "n_train_per_class"), 10**30))
    @example(edit=("swap", ("config", "data", "id", "sigma"), 1e308))
    @example(edit=("swap", ("config", "data", "id", "mean_scale"), 1e308))
    @example(edit=("swap", ("config", "data", "ood", 0, "high"), 1e308))
    def test_mutated_checkpoint(self, trained, tmp_path_factory, edit):
        _, ckpt = trained
        root = tmp_path_factory.getbasetemp() / "eval_property_ckpt"
        root.mkdir(exist_ok=True)
        path = root / "edited.ckpt.json"
        path.write_text(_edited_checkpoint(ckpt.read_text(encoding="utf-8"), edit), encoding="utf-8")
        assert_eval_exits_cleanly(["--checkpoint", str(path), "--out", str(root / "report")])

    @settings(max_examples=60)
    @given(edit=CSV_EDITS)
    def test_mutated_ood_csv(self, trained, tmp_path_factory, edit):
        _, ckpt = trained
        root = tmp_path_factory.getbasetemp() / "eval_property_csv"
        root.mkdir(exist_ok=True)
        path = root / "ood.csv"
        path.write_bytes(_edited_csv(edit))
        assert_eval_exits_cleanly(["--checkpoint", str(ckpt), "--ood", str(path), "--out", str(root / "report")])


class TestCsvProperty:
    """``uenl hist`` on a mutated scores CSV, and ``uenl gen-data`` on mutated
    data CSVs behind a csv ID spec, exit 0, or 1 with one error line."""

    @settings(max_examples=60)
    @given(edit=csv_edits(SCORE_ROWS, NUMBER_CELLS))
    def test_mutated_scores_csv(self, tmp_path_factory, edit):
        root = tmp_path_factory.getbasetemp() / "hist_property"
        root.mkdir(exist_ok=True)
        path = root / "scores.csv"
        path.write_bytes(_edited_csv(edit, SCORE_ROWS))
        assert_exits_cleanly(["hist", "--scores", str(path), "--bins", "3", "--out", str(root / "h.csv")])

    @settings(max_examples=60)
    @given(split=st.sampled_from(["train", "test"]), edit=csv_edits(ID_ROWS, NUMBER_CELLS))
    # Found by this search: a label of 1e30 ended in "Python int too large to
    # convert to C long", which names no file.
    @example(split="train", edit=("cell", 1, 6, b"1" + b"0" * 30))
    def test_mutated_id_csv(self, tmp_path_factory, split, edit):
        root = tmp_path_factory.getbasetemp() / "id_csv_property"
        root.mkdir(exist_ok=True)
        paths = {name: root / f"{name}.csv" for name in ("train", "test")}
        for name, path in paths.items():
            path.write_bytes(_edited_csv(edit, ID_ROWS) if name == split else b"\n".join(ID_ROWS) + b"\n")
        cfg = tiny_experiment_config(epochs=2).to_dict()
        cfg["data"]["id"] = {"kind": "csv", "train": str(paths["train"]), "test": str(paths["test"])}
        config = root / "exp.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert_exits_cleanly(["gen-data", "--config", str(config), "--out", str(root / "data")])
