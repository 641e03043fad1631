import contextlib
import csv
import dataclasses
import filecmp
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lshan import cli
from lshan import evaluation as eval_mod
from lshan import han as han_mod
from lshan import trainer
from lshan.corpus import load_dataset, read_vocabulary, write_features


def run(*argv):
    return cli.run(list(argv))


def synth_args(out, instances=4, val=2, test=2, seed=0):
    return ["synth", "--out", str(out), "--seed", str(seed),
            "--vocab-size", "6", "--feature-dim", "5",
            "--instances", str(instances), "--val-instances", str(val),
            "--test-instances", str(test), "--sentence-len-min", "2",
            "--sentence-len-max", "3"]


TINY_CONFIG = """\
epochs = 2
learning_rate = 0.05
latent_dim = 4
hidden_size = 6
attention_size = 4
seed = 0
"""


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "tiny.cfg"
    path.write_text(text)
    return path


def no_training(*args, **kwargs):
    pytest.fail("a training ran before the input was refused")


def assert_probe_summary(stdout):
    """``lshan probe``'s summary line names its DTW, and it ranked at least
    one video to a finite mean."""
    match = re.fullmatch(r"mean_spearman (\S+)  videos=(\d+) skipped=\d+ "
                         r"dtw=unwindowed\n", stdout)
    assert match
    assert math.isfinite(float(match[1])) and int(match[2]) >= 1


def dir_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestSynth:
    def test_writes_all_splits_and_vocab(self, tmp_path):
        out = tmp_path / "data"
        assert run(*synth_args(out)) == 0
        for split in ("train", "validation", "test"):
            assert (out / f"manifest_{split}.json").exists()
        assert (out / "vocab.txt").exists()
        assert (out / "run_synth.json").exists()

    def test_same_command_byte_identical(self, tmp_path):
        import shutil
        out = tmp_path / "data"
        assert run(*synth_args(out)) == 0
        first = dir_bytes(out)
        shutil.rmtree(out)
        assert run(*synth_args(out)) == 0
        assert dir_bytes(out) == first

    def test_splits_share_vocabulary(self, tmp_path):
        out = tmp_path / "data"
        run(*synth_args(out))
        vocab = read_vocabulary(out / "vocab.txt")
        train = load_dataset(out / "manifest_train.json", vocab)
        test = load_dataset(out / "manifest_test.json", vocab)
        assert train.vocabulary.words == test.vocabulary.words
        assert len(train) == 4 and len(test) == 2

    def test_zero_count_skips_its_split(self, tmp_path):
        out = tmp_path / "data"
        assert run(*synth_args(out, instances=0, val=2, test=0)) == 0
        assert sorted(p.name for p in out.glob("manifest_*")) == [
            "manifest_validation.json"]

    def test_run_manifest_contents(self, tmp_path):
        out = tmp_path / "data"
        run(*synth_args(out, seed=3))
        manifest = json.loads((out / "run_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["args"]["seed"] == 3

    def test_run_manifest_records_versions(self, tmp_path):
        import platform
        out = tmp_path / "data"
        run(*synth_args(out))
        manifest = json.loads((out / "run_synth.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_run_manifest_omits_handler(self, tmp_path):
        # the handler's repr holds a per-process address
        out = tmp_path / "data"
        run(*synth_args(out))
        manifest = json.loads((out / "run_synth.json").read_text())
        assert "func" not in manifest["args"]


class TestTrainEval:
    @pytest.fixture
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        run(*synth_args(out))
        return out

    @pytest.fixture(scope="class")
    def shared(self, tmp_path_factory):
        """One corpus and one model for the tests that only read them. The
        model trains until the strategies decode differently and the probe
        ranks a video at k = 5."""
        root = tmp_path_factory.mktemp("shared")
        data = root / "data"
        assert run(*synth_args(data)) == 0
        config = write_config(root, "epochs = 60\nlatent_dim = 4\n"
                              "hidden_size = 6\nattention_size = 4\n")
        assert run("train", "--config", str(config), "--data", str(data),
                   "--out", str(root / "model")) == 0
        return data, root / "model" / "final.lshn"

    def test_train_then_eval(self, tmp_path, capsys, data_dir):
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "model"
        assert run("train", "--config", str(cfg), "--data", str(data_dir),
                   "--out", str(model_dir)) == 0
        assert (model_dir / "final.lshn").exists()
        assert (model_dir / "config.cfg").exists()
        assert (model_dir / "training_log.csv").exists()

        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert run("eval", "--model", str(model_dir / "final.lshn"),
                   "--data", str(data_dir), "--split", "test",
                   "--out", str(report)) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0].startswith("instance_id,")
        assert len(lines) == 3
        assert re.fullmatch(r"mean_accuracy -?\d+\.\d{6}  S=\d+ I=\d+ D=\d+ "
                            r"N=\d+  decode_seconds=\d+\.\d{3}\n",
                            capsys.readouterr().out)

    def test_train_determinism(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(m1))
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(m2))
        assert (m1 / "final.lshn").read_bytes() == (m2 / "final.lshn").read_bytes()
        # a vocabulary that ends in blank lines has the same words
        vocab = data_dir / "vocab.txt"
        vocab.write_text(vocab.read_text() + "\n \n\t\r\n")
        assert run("train", "--config", str(cfg), "--data", str(data_dir),
                   "--out", str(tmp_path / "m3")) == 0
        assert (tmp_path / "m3" / "final.lshn").read_bytes() \
            == (m1 / "final.lshn").read_bytes()

    def test_train_independent_of_blas_threads(self, tmp_path):
        """A default-config training run writes the same checkpoint under
        one and two OpenBLAS threads: the whole-buffer reductions of the
        regularizer and of gradient clipping must not be split by thread.
        The default dims matter; a buffer as small as TINY_CONFIG's is never
        split. Where OpenBLAS caps its threads at 1 (a 1-core machine), both
        runs are single-threaded and this test cannot fail."""
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--instances", "6",
                   "--val-instances", "0", "--test-instances", "0") == 0
        cfg = write_config(tmp_path, "epochs = 2\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(
                           None, [src, os.environ.get("PYTHONPATH")])))
            assert subprocess.run(
                [sys.executable, "-m", "lshan.cli", "train", "--config",
                 str(cfg), "--data", str(data), "--out", str(out)],
                env=env, timeout=300).returncode == 0
            models.append((out / "final.lshn").read_bytes())
        assert models[0] == models[1]

    def test_align_csv(self, tmp_path, shared):
        data_dir, model = shared
        out = tmp_path / "align.csv"
        assert run("align", "--model", str(model), "--data", str(data_dir),
                   "--windowed", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "instance_id,clip_index,word_index"
        train = load_dataset(data_dir / "manifest_train.json",
                             read_vocabulary(data_dir / "vocab.txt"))
        total_clips = sum(v.n for v, _ in train.instances)
        assert len(lines) - 1 == total_clips

    def test_probe_csv(self, tmp_path, shared):
        data_dir, model = shared
        out = tmp_path / "probe.csv"
        assert run("probe", "--model", str(model), "--data", str(data_dir),
                   "--k", "5", "--samples", "3", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("video_id,rank,log_prob,dtw_distance")
        assert len(lines) >= 2

    def test_probe_summary_names_its_dtw(self, tmp_path, capsys, shared):
        data_dir, model = shared
        capsys.readouterr()
        assert run("probe", "--model", str(model), "--data", str(data_dir),
                   "--k", "5", "--samples", "3",
                   "--out", str(tmp_path / "probe.csv")) == 0
        assert_probe_summary(capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_strategy_flag(self, tmp_path, capsys, shared, command):
        """``--strategy`` decodes under the strategy it names in place of the
        checkpoint's (even-7), the manifest records it, and a bad one is
        refused."""
        data_dir, model = shared
        ls, han, _ = han_mod.load_checkpoint(model)
        dataset = load_dataset(data_dir / "manifest_train.json",
                               read_vocabulary(data_dir / "vocab.txt"))
        out = tmp_path / "out"
        out.mkdir()

        def run_command(directory, *flags):
            return run(command, "--model", str(model),
                       "--data", str(data_dir), "--split", "train",
                       "--out", str(directory / "got.csv"), *flags,
                       *(["--k", "5", "--samples", "4"]
                         if command == "probe" else []))

        assert run_command(out) == 0
        default = (out / "got.csv").read_bytes()
        for name in ("two-split", "pair-split", "even-3"):
            strategy = han_mod.parse_strategy(name)
            if command == "eval":
                report = eval_mod.evaluate(ls, han, dataset, strategy)
            else:
                report = eval_mod.consistency_probe(
                    ls, han, dataset, k=5, sample_count=4, seed=0,
                    strategy=strategy)
                assert report.videos
            report.write_csv(tmp_path / "expected.csv")
            assert run_command(out, "--strategy", name) == 0
            got = (out / "got.csv").read_bytes()
            assert got == (tmp_path / "expected.csv").read_bytes()
            assert got != default
            manifest = json.loads((out / f"run_{command}.json").read_text())
            assert manifest["args"]["strategy"] == name
        refused = tmp_path / "refused"
        refused.mkdir()
        capsys.readouterr()
        assert run_command(refused, "--strategy", "even-0") == 1
        assert capsys.readouterr().err == (
            "usage error: bad strategy 'even-0'; expected two-split, "
            "pair-split, or even-<k>\n")
        assert not any(refused.iterdir())

    def test_reruns_write_identical_bytes(self, tmp_path, capsys, shared):
        """``eval``, ``align`` and ``probe`` of one model write the same
        bytes when run again: their CSVs, their manifests and their stdout,
        less the decode wall time that ends ``eval``'s summary line."""
        data_dir, model = shared
        out = tmp_path / "out"
        out.mkdir()
        commands = {
            "eval": ["--split", "train"],
            "align": [],
            "align-windowed": ["--windowed"],
            "probe": ["--k", "5", "--samples", "4"],
        }
        runs = []
        for _ in range(2):
            outputs = {}
            for name, extra in commands.items():
                capsys.readouterr()
                assert run(name.split("-")[0], "--model", str(model),
                           "--data", str(data_dir),
                           "--out", str(out / f"{name}.csv"), *extra) == 0
                outputs[name] = re.sub(r"  decode_seconds=[0-9.]+$", "",
                                       capsys.readouterr().out, flags=re.M)
            runs.append((outputs, dir_bytes(out)))
        assert runs[0] == runs[1]
        assert sorted(p.name for p in out.iterdir()) == [
            "align-windowed.csv", "align.csv", "eval.csv", "probe.csv",
            "run_align.json", "run_eval.json", "run_probe.json"]
        assert_probe_summary(runs[0][0]["probe"])
        assert len((out / "probe.csv").read_text().strip().split("\n")) >= 2

    def test_sweep_csv(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(cfg), "--data", str(data_dir),
                   "--lambdas", "0.0,1.0", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,val_accuracy,val_error"
        assert len(lines) == 3


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--bogus") == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_data_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("train", "--config", str(cfg),
                   "--data", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "m")) == 2

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path, "momentum = 0.9\n")
        assert run("train", "--config", str(cfg), "--data", str(tmp_path),
                   "--out", str(tmp_path / "m")) == 2

    def test_bad_checkpoint_is_usage_error(self, tmp_path):
        junk = tmp_path / "junk.lshn"
        junk.write_bytes(b"NOPE" + b"\0" * 64)
        out = tmp_path / "data"
        run(*synth_args(out))
        assert run("eval", "--model", str(junk), "--data", str(out)) == 1

    def checkpoint_bytes(self, tmp_path, d_w=8, d_c=5):
        _, han = han_mod.init_params(np.random.default_rng(0), 4, d_c, d_w, 6, 4)
        path = tmp_path / "model.lshn"
        han_mod.save_checkpoint(path, han, han_mod.DEFAULT_STRATEGY)
        return path.read_bytes()

    # an unknown strategy code, and even-k with k = 0
    @pytest.mark.parametrize("offset,value", [(28, 9), (32, 0)])
    def test_bad_strategy_is_usage_error(self, tmp_path, capsys, offset,
                                         value):
        data = bytearray(self.checkpoint_bytes(tmp_path))
        data[offset:offset + 4] = struct.pack("<I", value)
        bad = tmp_path / "bad_strategy.lshn"
        bad.write_bytes(bytes(data))
        out = tmp_path / "data"
        run(*synth_args(out))
        assert run("eval", "--model", str(bad), "--data", str(out)) == 1
        err = capsys.readouterr().err
        assert "bad_strategy.lshn: bad segmentation strategy" in err

    def test_truncated_checkpoint_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "truncated.lshn"
        bad.write_bytes(self.checkpoint_bytes(tmp_path)[:-8])
        out = tmp_path / "data"
        run(*synth_args(out))
        assert run("eval", "--model", str(bad), "--data", str(out)) == 1
        err = capsys.readouterr().err
        assert "truncated.lshn" in err and "buffer" not in err

    def test_non_finite_checkpoint_is_usage_error(self, tmp_path, capsys):
        data = bytearray(self.checkpoint_bytes(tmp_path))
        data[-8:] = struct.pack("<d", float("nan"))   # the last emit_b entry
        bad = tmp_path / "nan.lshn"
        bad.write_bytes(bytes(data))
        out = tmp_path / "data"
        run(*synth_args(out))
        assert run("eval", "--model", str(bad), "--data", str(out)) == 1
        err = capsys.readouterr().err
        assert "nan.lshn" in err and "emit_b" in err

    def test_missing_vocabulary_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.lshn"
        model.write_bytes(self.checkpoint_bytes(tmp_path))
        out = tmp_path / "data"
        run(*synth_args(out))
        (out / "vocab.txt").unlink()
        assert run("eval", "--model", str(model), "--data", str(out)) == 2
        assert "vocab.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("case,code,message", [
        ("features_not_a_list", 2, "'features' must be a list of paths"),
        ("feature_path_a_number", 2, "'features' must be a list of paths"),
        ("feature_path_a_directory", 2,
         "cannot read feature file {data}/features: Is a directory"),
        ("annotations_a_directory", 2,
         "cannot read annotation file {data}/features: Is a directory"),
        ("vocabulary_not_utf8", 2, "vocabulary file is not UTF-8"),
        ("annotations_not_utf8", 2, "annotation file is not UTF-8"),
        ("config_not_utf8", 2, "config file is not UTF-8"),
        ("config_a_directory", 2,
         "cannot read config file {config}: Is a directory"),
        ("model_a_directory", 1,
         "cannot read model checkpoint {model}: Is a directory"),
        ("model_missing", 1,
         "cannot read model checkpoint {model}: No such file or directory"),
        ("model_more_words", 1, "model.lshn: the checkpoint has 12 words, "
         "but"),
        ("model_fewer_words", 1, "the checkpoint has 6 words, but"),
        ("model_other_feature_dim", 1, "model.lshn: the checkpoint has "
         "16-dim features, but {data} has 5-dim features"),
        ("model_zero_dimension", 1, "model.lshn: a zero dimension in the "
         "header (d_c=5, d_w=8, d_s=4, q=0, q_att=0)"),
        ("data_a_file", 2,
         "cannot read vocabulary file {model}/vocab.txt: Not a directory"),
        ("config_under_a_file", 2,
         "cannot read config file {model}/tiny.cfg: Not a directory"),
        ("train_out_a_file", 1, "cannot write {model}: File exists"),
        ("synth_out_a_file", 1, "cannot write {model}: File exists"),
        ("eval_out_a_directory", 1, "cannot write {data}: Is a directory"),
        ("eval_out_under_a_file", 1,
         "cannot write {model}/x.csv: Not a directory"),
        ("eval_out_under_a_missing_directory", 1,
         "cannot write {tmp}/missing/x.csv: No such file or directory"),
        ("data_name_too_long", 2,
         "cannot read vocabulary file {data}/vocab.txt: File name too long"),
        ("config_name_too_long", 2,
         "cannot read config file {config}: File name too long"),
        ("model_name_too_long", 1,
         "cannot read model checkpoint {model}: File name too long"),
        ("vocabulary_symlink_loop", 2, "cannot read vocabulary file "
         "{data}/vocab.txt: Too many levels of symbolic links"),
        ("feature_symlink_loop", 2, "cannot read feature file "
         "{data}/features/test_0000.lshf: Too many levels of symbolic links"),
        ("model_symlink_loop", 1, "cannot read model checkpoint {model}: "
         "Too many levels of symbolic links"),
        ("annotations_nul_byte", 2,
         "cannot read annotation file {data}/a\0b: embedded null byte"),
        ("annotations_blank_line", 2,
         "{data}/annotations_test.txt: line 2 is blank"),
        ("annotations_form_feed", 2, "{data}/manifest_test.json: 3 feature "
         "files but 2 annotated sentences"),
        ("train_empty_split", 2,
         "{data}/manifest_train.json: the manifest lists no instances"),
        ("train_manifest_deeply_nested", 2, "{data}/manifest_train.json: "
         "cannot parse JSON (maximum recursion depth exceeded"),
        ("train_manifest_5000_digit_integer", 2, "{data}/manifest_train.json: "
         "cannot parse JSON (Exceeds the limit (4300 digits)"),
        ("eval_empty_split", 2,
         "{data}/manifest_test.json: the manifest lists no instances"),
        ("probe_empty_split", 2,
         "{data}/manifest_train.json: the manifest lists no instances"),
        ("align_empty_split", 2,
         "{data}/manifest_train.json: the manifest lists no instances"),
        ("sweep_empty_split", 2,
         "{data}/manifest_train.json: the manifest lists no instances"),
        ("sweep_out_a_directory", 1, "cannot write {data}: Is a directory"),
        ("train_vocabulary_blank_line", 2, "{data}/vocab.txt: line 6 is "
         "blank; only trailing lines may be"),
        ("train_vocabulary_inner_space", 2, "{data}/vocab.txt: line 6 holds "
         "whitespace; a line is one token"),
        ("train_vocabulary_leading_space", 2, "{data}/vocab.txt: line 6 "
         "holds whitespace; a line is one token"),
        ("train_vocabulary_duplicate", 2, "{data}/vocab.txt: vocabulary "
         "contains duplicate tokens"),
        ("train_vocabulary_unreserved", 2, "{data}/vocab.txt: vocabulary "
         "must begin with '#Start', '#End'"),
        ("train_feature_no_clips", 2, "{data}/features/train_0001.lshf: clip "
         "matrix must be 2-D and non-empty, got shape (0, 5)"),
        ("train_feature_one_clip", 2, "{data}/manifest_train.json: instance "
         "1: 1 clips < "),
        ("train_feature_bad_magic", 2, "data error: {data}/features/"
         "train_0001.lshf: not a feature file (bad magic)\n"),
        ("train_feature_version_2", 2, "data error: {data}/features/"
         "train_0001.lshf: unsupported feature file version 2\n"),
        ("train_feature_truncated", 2, "data error: {data}/features/"
         "train_0001.lshf: expected 216 bytes, found 212\n"),
        ("train_feature_nan", 2, "data error: {data}/features/"
         "train_0001.lshf: non-finite feature values\n"),
        ("train_manifest_a_list", 2, "data error: {data}/manifest_train.json: "
         "manifest is not a JSON object\n"),
        ("train_manifest_without_annotations", 2, "data error: "
         "{data}/manifest_train.json: manifest lacks key 'annotations'\n"),
        ("model_version_2", 1, "usage error: {model}: unsupported checkpoint "
         "version 2\n"),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, monkeypatch,
                                       case, code, message):
        data = tmp_path / "data"
        run(*synth_args(data))
        model = tmp_path / "model.lshn"
        model.write_bytes(self.checkpoint_bytes(tmp_path))
        config = write_config(tmp_path)
        manifest_path = data / "manifest_test.json"
        manifest = json.loads(manifest_path.read_text())
        command = case.split("_")[0]
        if command not in ("synth", "train", "probe", "align", "sweep"):
            command = "train" if command == "config" else "eval"
        out = tmp_path / ("m" if command == "train" else "report.csv")
        if case == "features_not_a_list":
            manifest["features"] = 5
        elif case == "feature_path_a_number":
            manifest["features"][0] = 5
        elif case == "feature_path_a_directory":
            manifest["features"][0] = "features"
        elif case == "annotations_a_directory":
            manifest["annotations"] = "features"
        elif case == "vocabulary_not_utf8":
            (data / "vocab.txt").write_bytes(b"#Start\n#End\nw\xff\n")
        elif case == "annotations_not_utf8":
            (data / manifest["annotations"]).write_bytes(b"w\xff w01\n")
        elif case == "config_not_utf8":
            config.write_bytes(b"epochs = 2\xff\n")
        elif case == "config_a_directory":
            config.unlink()
            config.mkdir()
        elif case == "model_missing":
            model.unlink()
        elif case.endswith("_words"):
            d_w = 12 if case == "model_more_words" else 6
            model.write_bytes(self.checkpoint_bytes(tmp_path, d_w))
        elif case == "model_other_feature_dim":
            model.write_bytes(self.checkpoint_bytes(tmp_path, d_c=16))
        elif case == "model_version_2":
            raw = bytearray(model.read_bytes())
            raw[4:8] = struct.pack("<I", 2)
            model.write_bytes(bytes(raw))
        elif case == "model_zero_dimension":
            han_mod.save_checkpoint(model, han_mod.Parameters(
                han_mod.param_layout(4, 5, 8, 0, 0)), han_mod.DEFAULT_STRATEGY)
        elif case == "data_a_file":
            data = model
        elif case == "config_under_a_file":
            config = model / "tiny.cfg"
        elif case.endswith("_out_a_file"):
            out = model
        elif case.endswith("_out_a_directory"):
            out = data
        elif case == "eval_out_under_a_file":
            out = model / "x.csv"
        elif case == "eval_out_under_a_missing_directory":
            out = tmp_path / "missing" / "x.csv"
        elif case == "data_name_too_long":   # a component over 255 bytes
            data = tmp_path / ("x" * 256)
        elif case == "config_name_too_long":
            config = tmp_path / ("x" * 256)
        elif case == "model_name_too_long":
            model = tmp_path / ("x" * 256)
        elif case.endswith("_symlink_loop"):
            looped = {"vocabulary": data / "vocab.txt", "model": model,
                      "feature": data / manifest["features"][0]}[
                case.split("_")[0]]
            looped.unlink()
            looped.symlink_to(looped.name)
        elif case == "annotations_nul_byte":
            manifest["annotations"] = "a\0b"
        elif case == "annotations_blank_line":
            path = data / manifest["annotations"]
            path.write_text(path.read_text().replace("\n", "\n\n", 1))
        elif case == "annotations_form_feed":   # one line, not two
            manifest["features"] = manifest["features"][:1] * 3
            (data / manifest["annotations"]).write_text("a\x0cb\nc\n")
        elif case == "train_vocabulary_unreserved":
            path = data / "vocab.txt"
            path.write_text(path.read_text().replace("#Start", "w99"))
        elif case in ("train_feature_no_clips", "train_feature_one_clip"):
            clips = 1 if case == "train_feature_one_clip" else 0
            write_features(data / "features" / "train_0001.lshf",
                           np.zeros((clips, 5)))
        elif case.startswith("train_feature_"):   # 10 clips of dim 5
            path = data / "features" / "train_0001.lshf"
            raw = bytearray(path.read_bytes())
            if case.endswith("_bad_magic"):
                raw[:4] = b"LSHX"
            elif case.endswith("_version_2"):
                raw[4:8] = struct.pack("<I", 2)
            elif case.endswith("_nan"):
                raw[-4:] = struct.pack("<f", np.nan)
            else:   # the last value cut off
                del raw[-4:]
            path.write_bytes(bytes(raw))
        elif case.startswith("train_vocabulary_"):   # line 6 is "w03"
            line = {"blank_line": "\nw03", "inner_space": "w 03",
                    "leading_space": " w03", "duplicate": "w02"}[
                        case.removeprefix("train_vocabulary_")]
            path = data / "vocab.txt"
            path.write_text(path.read_text().replace("w03", line))
        elif case.startswith("train_manifest_"):
            path = data / "manifest_train.json"
            keys = json.loads(path.read_text())
            del keys["annotations"]
            path.write_text({
                "deeply_nested": "[" * 100_000,   # text json.loads refuses
                "5000_digit_integer": "9" * 5000,
                "a_list": "[]",
                "without_annotations": json.dumps(keys),
            }[case.removeprefix("train_manifest_")])
        elif case.endswith("_empty_split"):   # every split lists no instances
            manifest["features"] = []
            for split in ("train", "validation"):
                (data / f"manifest_{split}.json").write_text(
                    json.dumps(manifest))
        else:
            model.unlink()
            model.mkdir()
        manifest_path.write_text(json.dumps(manifest))
        monkeypatch.setattr(trainer, "train", no_training)
        message = message.format(model=model, data=data, config=config,
                                 tmp=tmp_path)
        capsys.readouterr()
        if command == "synth":
            got = run(*synth_args(out))
        elif command in ("train", "sweep"):
            got = run(command, "--config", str(config), "--data", str(data),
                      "--out", str(out))
        else:
            got = run(command, "--model", str(model), "--data", str(data),
                      "--out", str(out))
        assert got == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        # a message that ends in a line feed is the whole line
        assert not message.endswith("\n") or err == message
        assert err.startswith("data error: " if code == 2 else "usage error: ")
        if command == "train" and code == 2:
            assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "probe", "align"])
    @pytest.mark.parametrize("d_w", [6, 12])
    def test_vocabulary_size_mismatch(self, tmp_path, capsys, command, d_w):
        data = tmp_path / "data"
        run(*synth_args(data))   # 6 words and the two boundary symbols
        model = tmp_path / "model.lshn"
        model.write_bytes(self.checkpoint_bytes(tmp_path, d_w))
        capsys.readouterr()
        assert run(command, "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "out.csv")) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {model}: the checkpoint has {d_w} "
                       f"words, but {data / 'vocab.txt'} has 8\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv,code,message", [
        *[pytest.param(["gradcheck", "--eps", v], 1, "eps must be finite and "
                       "> 0", id=f"eps-{v}") for v in ("0", "nan", "inf")],
        *[pytest.param(["gradcheck", "--tolerance", v], 1, "tolerance must be "
                       "finite and >= 0", id=f"tolerance-{v}")
          for v in ("nan", "-1")],
        *[pytest.param(["train", f"epochs = 2\n{key} = {v}\n"], 2,
                       f"{key} must be finite", id=f"{key}-{v}")
          for key in ("lambda2", "learning_rate", "decay_factor",
                      "max_grad_norm") for v in ("nan", "inf")],
        pytest.param(["train", "epochs = 2\nlambda1 = 2\n"], 2, "data error: "
                     "lambda1 must lie in [0, 1]\n", id="lambda1-2"),
        pytest.param(["train", "epochs = 2\nlambda2 = -1\n"], 2, "data error: "
                     "lambda2 must be >= 0\n", id="lambda2--1"),
        pytest.param(["train", "epochs = 2\nbogus\n"], 2, "data error: line "
                     "2: expected 'key = value', got 'bogus'\n",
                     id="config-no-equals"),
        pytest.param(["train", "epochs = 2\nepochs = 3\n"], 2, "data error: "
                     "line 2: duplicate key 'epochs'\n",
                     id="config-duplicate-key"),
        pytest.param(["train", "decay_factor = 10\ndecay_interval = 1\n"
                      "epochs = 400\n"], 2, "decay_factor 10.0 overflows the "
                     "learning rate within 400 epochs", id="decay-overflow"),
        pytest.param(["gradcheck", "--instances", "0"], 1, "--instances must "
                     "be >= 1, got 0", id="instances-0"),
        # a shift of 1e200 overflows the squared latent distances
        pytest.param(["gradcheck", "--eps", "1e200", "--instances", "2"], 3,
                     "numeric failure: a latent distance is not finite",
                     id="eps-1e200"),
        *[pytest.param(["probe", "--samples", v], 1, "sample_count must be "
                       f">= 1, got {v}", id=f"samples-{v}") for v in ("0", "-1")],
        pytest.param(["probe", "--k", "1"], 1, "probe needs k >= 2",
                     id="probe-k-1"),
        *[pytest.param([command, "--max-len", "30"], 1, "unrecognized "
                       "arguments: --max-len 30", id=f"{command}-max-len-30")
          for command in ("probe", "eval")],
        *[pytest.param(["synth", flag, "0"], 1, "all synthetic counts must "
                       "be positive", id=f"synth{flag}-0")
          for flag in ("--vocab-size", "--feature-dim")],
        pytest.param(["synth", "--clips-per-word-min", "0"], 1, "clips-per-"
                     "word range must satisfy 1 <= lo <= hi",
                     id="synth--clips-per-word-min-0"),
        pytest.param(["synth", "--sentence-len-min", "0"], 1, "sentence-"
                     "length range must satisfy 1 <= lo <= hi",
                     id="synth--sentence-len-min-0"),
        *[pytest.param(["synth", "--noise", v], 1, "noise standard "
                       "deviation must be >= 0", id=f"synth--noise-{v}")
          for v in ("-1", "nan", "inf")],
        pytest.param(["synth", "--val-instances", "-1"], 1, "instance counts "
                     "must be >= 0, got {'train': 4, 'validation': -1, "
                     "'test': 2}", id="synth--val-instances--1"),
        pytest.param(["synth", "--instances", "0", "--val-instances", "0",
                      "--test-instances", "0"], 1, "all synthetic counts "
                     "must be positive", id="synth-all-0"),
        pytest.param(["sweep", "--lambdas", "0.5,2"], 1, "lambda1 value 2.0 "
                     "outside [0, 1]", id="lambdas-0.5,2"),
        pytest.param(["sweep", "--lambdas", "0.5,x"], 1, "--lambdas item 'x' "
                     "is not a number", id="lambdas-0.5,x"),
        pytest.param(["sweep", "--lambdas", ""], 1, "--lambdas item '' is not "
                     "a number", id="lambdas-empty"),
        pytest.param(["sweep", "--lambdas", "0.5,nan"], 1, "lambda1 value nan "
                     "outside [0, 1]", id="lambdas-0.5,nan"),
        *[pytest.param([command, "--seed", "-1"], 1, "argument --seed: must "
                       "be >= 0, got -1", id=f"{command}--seed--1")
          for command in ("synth", "gradcheck", "probe")],
        pytest.param(["train", "epochs = 2\nseed = -1\n"], 2, "seed must be "
                     ">= 0, got -1", id="seed--1"),
        pytest.param(["train", "epochs = 2\nmax_decode_len = 30\n"], 2,
                     "line 2: unknown key 'max_decode_len'",
                     id="max_decode_len"),
        # the checkpoint header stores even-k's k as a u32
        pytest.param(["train", "epochs = 2\nstrategy = even-4294967296\n"],
                     2, "line 2: bad value 'even-4294967296' for 'strategy'",
                     id="strategy-even-4294967296"),
        *[pytest.param([command, "--strategy", "even-4294967296"], 1,
                       "bad strategy 'even-4294967296'",
                       id=f"{command}-strategy-even-4294967296")
          for command in ("eval", "probe")],
        pytest.param(["train", "epochs = 2\n", "--split", "train"], 1,
                     "unrecognized arguments: --split train",
                     id="train-split"),
    ])
    def test_malformed_numeric_input(self, tmp_path, capsys, monkeypatch,
                                     argv, code, message):
        if argv[0] == "synth":
            argv = synth_args(tmp_path / "data") + argv[1:]
        elif argv[0] == "sweep":
            data = tmp_path / "data"
            run(*synth_args(data))
            monkeypatch.setattr(trainer, "train", no_training)
            argv = ["sweep", "--config", str(write_config(tmp_path)),
                    "--data", str(data), "--out", str(tmp_path / "sweep.csv"),
                    *argv[1:]]
        elif argv[0] == "train":
            data = tmp_path / "data"
            run(*synth_args(data))
            config = write_config(tmp_path, argv[1])
            argv = ["train", "--config", str(config), "--data", str(data),
                    "--out", str(tmp_path / "m"), *argv[2:]]
        elif argv[0] in ("probe", "eval"):
            data = tmp_path / "data"
            run(*synth_args(data))
            model = tmp_path / "model.lshn"
            model.write_bytes(self.checkpoint_bytes(tmp_path))
            argv = [argv[0], "--model", str(model), "--data", str(data),
                    "--out", str(tmp_path / f"{argv[0]}.csv"), *argv[1:]]
        # the refused command writes nothing
        output = {"synth": tmp_path / "data", "train": tmp_path / "m",
                  "probe": tmp_path / "probe.csv",
                  "eval": tmp_path / "eval.csv",
                  "sweep": tmp_path / "sweep.csv"}.get(argv[0])
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        # a message that ends in a line feed is the whole line
        assert not message.endswith("\n") or err == message
        assert output is None or not output.exists()

    def test_diverged_train_names_its_last_checkpoint(self, tmp_path, capsys,
                                                      monkeypatch):
        data = tmp_path / "data"
        run(*synth_args(data))
        config = write_config(tmp_path, TINY_CONFIG + "checkpoint_every = 1\n")
        save = trainer.save_checkpoint

        def save_then_poison(path, params, strategy):
            save(path, params, strategy)
            params["emit_b"][0] = np.nan   # the next step diverges

        monkeypatch.setattr(trainer, "save_checkpoint", save_then_poison)
        capsys.readouterr()
        out = tmp_path / "m"
        assert run("train", "--config", str(config), "--data", str(data),
                   "--out", str(out)) == 3
        saved = out / "checkpoint_0001.lshn"
        assert capsys.readouterr().err == (
            "numeric failure: parameter group 't_v' became non-finite; "
            f"last checkpoint {saved}\n")
        han_mod.load_checkpoint(saved)
        # the completed epoch is logged, and no final checkpoint is written
        with open(out / "training_log.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["epoch"] for row in rows] == ["0"]
        assert all(np.isfinite(float(value)) for value in rows[0].values())
        assert not (out / "final.lshn").exists()

    @pytest.mark.parametrize("blocked,epochs", [
        ("checkpoint_0001.lshn", ["0"]), ("final.lshn", ["0", "1"])])
    def test_unwritable_checkpoint_keeps_the_log(self, tmp_path, capsys,
                                                 blocked, epochs):
        """A checkpoint that cannot be written exits 1 naming it, not the
        temporary file it was first written to, and the log keeps every
        completed epoch."""
        data = tmp_path / "data"
        run(*synth_args(data))
        config = write_config(tmp_path, TINY_CONFIG + "checkpoint_every = 1\n")
        out = tmp_path / "m"
        (out / blocked / "x").mkdir(parents=True)   # a non-empty directory
        capsys.readouterr()
        assert run("train", "--config", str(config), "--data", str(data),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"usage error: cannot write {out / blocked}: Is a directory\n")
        with open(out / "training_log.csv", encoding="utf-8") as fh:
            assert [row["epoch"] for row in csv.DictReader(fh)] == epochs

    def test_diverged_sweep_value_is_a_row(self, tmp_path, capsys,
                                           monkeypatch):
        data = tmp_path / "data"
        run(*synth_args(data))
        train = trainer.train

        def diverge_at_half(dataset, cfg, out_dir=None):
            if cfg.lambda1 == 0.5:
                raise trainer.TrainingDiverged("loss became non-finite at "
                                               "epoch 1")
            return train(dataset, cfg, out_dir)

        monkeypatch.setattr(trainer, "train", diverge_at_half)
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(write_config(tmp_path)),
                   "--data", str(data), "--lambdas", "0.0,0.5,1.0",
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == ("lambda=0.50 val_accuracy=nan  "
                              "[loss became non-finite at epoch 1]")
        rows = out.read_text().splitlines()
        assert rows[0] == "lambda,val_accuracy,val_error" and len(rows) == 4
        assert rows[2] == "0.500,nan,nan"
        for row in (rows[1], rows[3]):
            assert all(np.isfinite(float(value)) for value in row.split(","))

    @pytest.fixture(scope="class")
    def default_gradcheck(self):
        """One default ``lshan gradcheck``: its exit code, its stdout, and
        the arrays whose gradient without the ridge term is non-zero on some
        checked instance. The recorder returns ``joint_grad``'s own result,
        so the stdout is a plain run's."""
        exact = trainer.joint_grad
        moved = set()

        def recording(batch, ls, han, cfg):
            grads = exact(batch, ls, han, dataclasses.replace(cfg, lambda2=0.0))
            moved.update(name for name, arr in grads.items() if arr.any())
            return exact(batch, ls, han, cfg)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(out):
            patch.setattr(trainer, "joint_grad", recording)
            code = run("gradcheck")
        return code, out.getvalue(), moved

    def test_gradcheck_passes(self, default_gradcheck):
        code, stdout, _ = default_gradcheck
        assert code == 0
        *rows, last = stdout.splitlines()
        # one line per array, in name order, whatever the dims
        names = sorted(name for name, _ in han_mod.param_layout(1, 1, 1, 1, 1))
        assert [row.split()[0] for row in rows] == names
        assert all(re.fullmatch(r"\S+ +max_rel_err \S+  ok", row)
                   for row in rows), rows
        counts = re.fullmatch(r"checked (\d+) instances, skipped (\d+) "
                              r"degenerate", last)
        assert counts and sum(map(int, counts.groups())) == 5, last

    def test_gradcheck_reaches_every_array(self, default_gradcheck):
        # without the ridge term, each array's gradient must be non-zero on
        # some checked instance, so no array passes as 0 against 0
        code, stdout, moved = default_gradcheck
        assert code == 0
        rows = stdout.splitlines()[:-1]
        assert sorted(moved) == [row.split()[0] for row in rows]

    def test_gradcheck_fails_on_a_nan_gradient(self, capsys, monkeypatch):
        # NaN compares false with the tolerance; it must fail, not pass
        exact = trainer.joint_grad

        def nan_entry(*args):
            grads = exact(*args)
            grads["t_s"][0, 2] = np.nan
            return grads

        monkeypatch.setattr(trainer, "joint_grad", nan_entry)
        assert run("gradcheck", "--instances", "1") == 3
        rows = capsys.readouterr().out.splitlines()[:-1]
        assert [row for row in rows if row.endswith("FAIL")] == \
            ["t_s              max_rel_err nan  FAIL"]

    def test_gradcheck_with_no_checked_instance_fails(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(trainer, "_instance_degenerate",
                            lambda table: True)
        assert run("gradcheck", "--instances", "2") == 3
        assert capsys.readouterr().out == \
            "checked 0 instances, skipped 2 degenerate\n"


PROBE_WITHOUT_SCIPY = """
import sys
import numpy as np
import lshan.cli
from lshan import corpus, evaluation, han
data = corpus.generate_synthetic(
    corpus.SyntheticConfig(vocab_size=6, feature_dim=5, instance_count=3))
ls, model = han.init_params(np.random.default_rng(0), 4, 5, 8, 6, 4)
report = evaluation.consistency_probe(ls, model, data, k=3, sample_count=3,
                                      max_len=2)
sys.exit(3 if not report.videos else "scipy" in sys.modules)
"""


def test_import_leaves_scipy_unloaded():
    # importing the CLI and running a probe, which rank-correlates
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", PROBE_WITHOUT_SCIPY],
                          env=env, timeout=120).returncode == 0


def test_readme_commands_parse():
    # every `lshan …` line of README's code blocks is a command line the
    # parser accepts, so a removed or renamed flag cannot linger there
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.split()[:1] == ["lshan"]]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
