import filecmp
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lshan import cli
from lshan import han as han_mod
from lshan.corpus import load_dataset, read_vocabulary


def run(*argv):
    return cli.run(list(argv))


def synth_args(out, instances=4, val=2, test=2, seed=0):
    return ["synth", "--out", str(out), "--seed", str(seed),
            "--vocab-size", "6", "--feature-dim", "5", "--latent-dim", "4",
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

    def test_run_manifest_contents(self, tmp_path):
        out = tmp_path / "data"
        run(*synth_args(out, seed=3))
        manifest = json.loads((out / "run_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["args"]["seed"] == 3

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

    def test_train_then_eval(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "model"
        assert run("train", "--config", str(cfg), "--data", str(data_dir),
                   "--out", str(model_dir)) == 0
        assert (model_dir / "final.lshn").exists()
        assert (model_dir / "config.cfg").exists()
        assert (model_dir / "training_log.csv").exists()

        report = tmp_path / "report.csv"
        assert run("eval", "--model", str(model_dir / "final.lshn"),
                   "--data", str(data_dir), "--split", "test",
                   "--out", str(report)) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0].startswith("instance_id,")
        assert len(lines) == 3

    def test_train_determinism(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(m1))
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(m2))
        assert (m1 / "final.lshn").read_bytes() == (m2 / "final.lshn").read_bytes()

    def test_align_csv(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "model"
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(model_dir))
        out = tmp_path / "align.csv"
        assert run("align", "--model", str(model_dir / "final.lshn"),
                   "--data", str(data_dir), "--windowed",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "instance_id,clip_index,word_index"
        train = load_dataset(data_dir / "manifest_train.json",
                             read_vocabulary(data_dir / "vocab.txt"))
        total_clips = sum(v.n for v, _ in train.instances)
        assert len(lines) - 1 == total_clips

    def test_probe_csv(self, tmp_path, data_dir):
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "model"
        run("train", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(model_dir))
        out = tmp_path / "probe.csv"
        assert run("probe", "--model", str(model_dir / "final.lshn"),
                   "--data", str(data_dir), "--k", "3", "--samples", "3",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("video_id,rank,log_prob,dtw_distance")

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

    def checkpoint_bytes(self, tmp_path):
        ls, han = han_mod.init_params(np.random.default_rng(0), 4, 5, 8, 6, 4)
        path = tmp_path / "model.lshn"
        han_mod.save_checkpoint(path, ls, han, han_mod.DEFAULT_STRATEGY)
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
        ("feature_path_a_directory", 2, "feature file missing or not a file"),
        ("annotations_a_directory", 2, "annotation file is a directory"),
        ("vocabulary_not_utf8", 2, "vocabulary file is not UTF-8"),
        ("annotations_not_utf8", 2, "annotation file is not UTF-8"),
        ("config_not_utf8", 2, "config file is not UTF-8"),
        ("config_a_directory", 2, "config file is a directory"),
        ("model_a_directory", 1, "a directory, not a model checkpoint"),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, case, code,
                                       message):
        data = tmp_path / "data"
        run(*synth_args(data))
        model = tmp_path / "model.lshn"
        model.write_bytes(self.checkpoint_bytes(tmp_path))
        config = write_config(tmp_path)
        manifest_path = data / "manifest_test.json"
        manifest = json.loads(manifest_path.read_text())
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
        else:
            model.unlink()
            model.mkdir()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        if case.startswith("config"):
            got = run("train", "--config", str(config), "--data", str(data),
                      "--out", str(tmp_path / "m"))
        else:
            got = run("eval", "--model", str(model), "--data", str(data),
                      "--out", str(tmp_path / "report.csv"))
        assert got == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert err.startswith("data error: " if code == 2 else "usage error: ")

    def test_gradcheck_passes(self, capsys):
        assert run("gradcheck", "--instances", "3") == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "FAIL" not in out


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
