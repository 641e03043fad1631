"""Acceptance suite: one test per gate, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The experiment gates share a single trained model (session-scoped fixtures),
so the whole module is a complete scaled-down experimental run.
"""

import csv
import dataclasses
import itertools
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lshan import cli
from lshan import evaluation as eval_mod
from lshan import han as han_mod
from lshan import latent_space as ls_mod
from lshan import trainer
from lshan.corpus import (ClipFeatureSequence, Sentence, load_dataset,
                          read_vocabulary)
from reference import brute_edit_distance, brute_force_dtw


_capture_manager = None


@pytest.fixture(scope="session", autouse=True)
def _gate_reporting(request):
    global _capture_manager
    _capture_manager = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _capture_manager = None


def report(name: str, ok: bool, detail: str) -> None:
    line = f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    if _capture_manager is not None:
        # repeat the line outside capture so every gate is visible in a
        # plain `pytest -v` run, not only the failing ones
        with _capture_manager.global_and_fixture_disabled():
            print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# shared experiment: synthesize the standard corpus, train the default model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def data_dir(workdir):
    out = workdir / "data"
    assert cli.run(["synth", "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="session")
def splits(data_dir):
    vocab = read_vocabulary(data_dir / "vocab.txt")
    return {split: load_dataset(data_dir / f"manifest_{split}.json", vocab)
            for split in ("train", "validation", "test")}


@pytest.fixture(scope="session")
def trained(workdir, data_dir):
    """The overfit-run model, trained once with the default configuration."""
    cfg_path = workdir / "train.cfg"
    cfg_path.write_text("seed = 0\n")
    out = workdir / "model"
    start = time.perf_counter()
    code = cli.run(["train", "--config", str(cfg_path), "--data",
                    str(data_dir), "--out", str(out)])
    wall = time.perf_counter() - start
    assert code == 0
    ls, han, strategy = han_mod.load_checkpoint(out / "final.lshn")
    return {"ls": ls, "han": han, "strategy": strategy, "wall": wall,
            "cfg": trainer.load_config(out / "config.cfg")}


# ---------------------------------------------------------------------------
# gate 1: alignment table vs brute-force path enumeration
# ---------------------------------------------------------------------------

def test_dtw_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        d_s = int(rng.integers(1, 6))
        v = rng.normal(size=(n, d_s))
        s = rng.normal(size=(m, d_s))
        dist = np.linalg.norm(v[:, None, :] - s[None, :, :], axis=2)
        table = ls_mod.dtw(v, s)
        worst = max(worst, abs(table.total - brute_force_dtw(dist)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10
    report("dtw-oracle", ok,
           f"200 instances, max |diff|={worst:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# gate 2: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_gradient_fidelity():
    rng = np.random.default_rng(1)
    instances = []
    while len(instances) < 20:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 3) + 1))
        video = ClipFeatureSequence(rng.normal(size=(n, 5)))
        sentence = Sentence(tuple(int(t) for t in rng.integers(2, 10, size=m)))
        instances.append((video, sentence))
    cfg = trainer.TrainingConfig(latent_dim=6, hidden_size=8,
                                 attention_size=5, lambda1=0.6,
                                 lambda2=0.0002, seed=1)
    start = time.perf_counter()
    configs = {
        "relevance": dataclasses.replace(cfg, lambda1=1.0, lambda2=0.0),
        "coherence": dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0),
        "joint": cfg,
    }
    reports = {loss: trainer.grad_check(instances, loss_cfg, eps=1e-5,
                                        tolerance=1e-4)
               for loss, loss_cfg in configs.items()}
    elapsed = time.perf_counter() - start
    worst = {loss: max(r.max_rel_error.values()) for loss, r in reports.items()}
    checked = min(r.checked_instances for r in reports.values())
    ok = all(r.passed for r in reports.values()) and checked >= 1 \
        and elapsed < 120
    report("gradient-fidelity", ok,
           "max rel err "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f", {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# gate 3: edit-distance metric oracle
# ---------------------------------------------------------------------------

def test_metric_oracle():
    alphabet = (2, 3, 4)
    seqs = [tuple(s) for length in range(5)
            for s in itertools.product(alphabet, repeat=length)]
    mismatches = 0
    for ref in seqs:
        if not ref:
            continue
        for hyp in seqs:
            if (eval_mod.edit_breakdown(hyp, ref).total
                    != brute_edit_distance(ref, hyp)):
                mismatches += 1
    negative = eval_mod.edit_breakdown((4, 5), (2,)).accuracy
    ok = mismatches == 0 and negative == -1.0
    report("metric-oracle", ok,
           f"{mismatches} mismatches on all pairs len<=4, "
           f"single-ref negative case accuracy={negative}")
    assert ok


# ---------------------------------------------------------------------------
# gates 4-5: overfit and generalization runs
# ---------------------------------------------------------------------------

def test_overfit_run(trained, splits):
    r = eval_mod.evaluate(trained["ls"], trained["han"], splits["train"],
                          trained["strategy"])
    ok = r.mean_accuracy >= 0.95 and trained["wall"] < 600
    report("overfit-run", ok,
           f"train accuracy={r.mean_accuracy:.3f} (need >=0.95), "
           f"wall={trained['wall']:.0f}s (need <600)")
    assert ok


def test_generalization_run(trained, splits):
    r = eval_mod.evaluate(trained["ls"], trained["han"], splits["test"],
                          trained["strategy"])
    ok = r.mean_accuracy >= 0.6
    report("generalization-run", ok,
           f"test accuracy={r.mean_accuracy:.3f} (need >=0.6)")
    assert ok


# ---------------------------------------------------------------------------
# gate 6: decoder-rank vs latent-distance consistency probe
# ---------------------------------------------------------------------------

def test_consistency_probe(trained, splits, workdir):
    probe = eval_mod.consistency_probe(trained["ls"], trained["han"],
                                       splits["train"], k=5, sample_count=10,
                                       seed=0, strategy=trained["strategy"])
    csv_path = workdir / "probe.csv"
    probe.write_csv(csv_path)
    csv_ok = csv_path.read_text().startswith(
        "video_id,rank,log_prob,dtw_distance")
    ok = probe.mean_correlation >= 0.5 and csv_ok
    report("consistency-probe", ok,
           f"mean Spearman={probe.mean_correlation:.3f} (need >=0.5), "
           f"videos={len(probe.videos)}, skipped={probe.skipped}, CSV ok")
    assert ok


# ---------------------------------------------------------------------------
# gate 7: trade-off weight sweep
# ---------------------------------------------------------------------------

def test_lambda_sweep(splits, workdir):
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    cfg = dataclasses.replace(trainer.TrainingConfig(seed=0), epochs=150,
                              decay_interval=75)
    # gate 9 checks that a sweep reruns bit for bit
    rows = eval_mod.lambda_sweep(splits["train"], splits["validation"],
                                 cfg, grid)
    csv_path = workdir / "sweep.csv"
    eval_mod.write_sweep_csv(rows, csv_path)
    six_rows = len(csv_path.read_text().strip().split("\n")) == 7
    interior = max(r.val_accuracy for r in rows[1:-1])
    endpoints = (rows[0].val_accuracy, rows[-1].val_accuracy)
    ordered = interior >= endpoints[0] and interior >= endpoints[1]
    ok = six_rows and ordered
    report("lambda-sweep", ok,
           f"6-row CSV={six_rows}, best interior={interior:.3f} vs endpoints "
           f"({endpoints[0]:.3f}, {endpoints[1]:.3f}), "
           "endpoint degradation "
           f"({interior - endpoints[0]:+.3f}, {interior - endpoints[1]:+.3f})")
    assert ok


# ---------------------------------------------------------------------------
# gate 8: segmentation strategy comparison (ordering reported, not asserted)
# ---------------------------------------------------------------------------

def test_strategy_comparison(trained, splits, workdir):
    table = {}
    for name in ("two-split", "pair-split", "even-7"):
        r = eval_mod.evaluate(trained["ls"], trained["han"], splits["test"],
                              han_mod.parse_strategy(name))
        table[name] = r.mean_accuracy
    lines = ["strategy,test_accuracy"]
    lines += [f"{k},{v:.6f}" for k, v in table.items()]
    (workdir / "strategies.csv").write_text("\n".join(lines) + "\n")
    ordering = " >= ".join(sorted(table, key=table.get, reverse=True))
    report("strategy-comparison", True,
           ", ".join(f"{k}={v:.3f}" for k, v in table.items())
           + f"; observed ordering: {ordering}")
    assert len(table) == 3


# ---------------------------------------------------------------------------
# gate 9: bit-identical reruns
# ---------------------------------------------------------------------------

def _tree_bytes(root: Path):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_determinism(workdir):
    """Every output of synth, of two trainings and of a sweep over the
    HAN-only, joint and DTW-only branches repeats bit for bit, the loss logs
    too (all but their wall-clock column). The trainings pass one
    learning-rate decay; one of them is DTW-only (lambda1 = 1), whose HAN
    is never trained, so the sweep's validation accuracy alone would not
    see a change in its latent space."""
    base = workdir / "determinism"
    config = ("seed = 0\nepochs = 3\ndecay_interval = 2\n"
              "hidden_size = 6\nattention_size = 4\nlatent_dim = 4\n")
    models = {"model": config, "model_dtw": config + "lambda1 = 1\n"}
    snapshots = []
    for _ in range(2):
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        assert cli.run(["synth", "--out", str(base / "data"), "--seed", "11",
                        "--instances", "6", "--val-instances", "3",
                        "--test-instances", "3", "--vocab-size", "6",
                        "--feature-dim", "5", "--sentence-len-min", "2",
                        "--sentence-len-max", "3"]) == 0
        for name, text in models.items():
            (base / f"{name}.cfg").write_text(text)
            assert cli.run(["train", "--config", str(base / f"{name}.cfg"),
                            "--data", str(base / "data"),
                            "--out", str(base / name)]) == 0
        assert cli.run(["sweep", "--config", str(base / "model.cfg"),
                        "--data", str(base / "data"),
                        "--lambdas", "0.0,0.6,1.0",
                        "--out", str(base / "sweep.csv")]) == 0
        files = _tree_bytes(base)
        losses = {}
        for name in models:
            log = files.pop(Path(name, "training_log.csv")).decode()
            losses[name] = [{key: value for key, value in row.items()
                             if key != "wall_seconds"}
                            for row in csv.DictReader(log.splitlines())]
        snapshots.append((files, losses))
    identical = snapshots[0] == snapshots[1]
    report("determinism", identical,
           f"synth+train x2+sweep repeated: {len(snapshots[0][0])} files "
           + ("bit-identical" if identical else "DIFFER"))
    assert identical
