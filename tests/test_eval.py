import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import evaluation as ev
from lshan import han as han_mod
from lshan import trainer
from lshan.corpus import (ClipFeatureSequence, Dataset, Sentence,
                          SyntheticConfig, Vocabulary, generate_synthetic)
from lshan.evaluation import (EditBreakdown, accuracy, consistency_probe,
                              edit_breakdown, evaluate, lambda_sweep,
                              write_sweep_csv)

A, B, X, Y = 2, 3, 4, 5


def brute_edit_distance(ref, hyp):
    """Recursive three-way edit distance, the slow-but-obvious oracle."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    sub = brute_edit_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0])
    dele = brute_edit_distance(ref[1:], hyp) + 1
    ins = brute_edit_distance(ref, hyp[1:]) + 1
    return min(sub, dele, ins)


class TestEditBreakdown:
    def test_exact_match(self):
        bd = edit_breakdown((A, B), (A, B))
        assert (bd.substitutions, bd.insertions, bd.deletions) == (0, 0, 0)

    def test_two_extra_hypothesis_tokens(self):
        bd = edit_breakdown((A, X, B, Y), (A, B))
        assert bd.deletions == 2
        assert bd.substitutions == 0 and bd.insertions == 0
        assert accuracy((A, X, B, Y), (A, B)) == pytest.approx(0.0)

    def test_negative_accuracy_exact(self):
        bd = edit_breakdown((X, Y), (A,))
        assert bd.total == 2
        assert accuracy((X, Y), (A,)) == -1.0

    def test_empty_hypothesis(self):
        bd = edit_breakdown((), (A, B, X))
        assert bd.insertions == 3 and bd.total == 3
        assert accuracy((), (A, B, X)) == pytest.approx(0.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            edit_breakdown((A,), ())

    def test_matches_brute_force_exhaustively(self):
        alphabet = (A, B, X)
        seqs = [tuple(s) for length in range(5)
                for s in itertools.product(alphabet, repeat=length)]
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                bd = edit_breakdown(hyp, ref)
                assert bd.total == brute_edit_distance(ref, hyp), (ref, hyp)

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=6),
           st.lists(st.integers(2, 5), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_counts_are_consistent(self, ref, hyp):
        bd = edit_breakdown(tuple(hyp), tuple(ref))
        assert bd.total == bd.substitutions + bd.insertions + bd.deletions
        # length bookkeeping: ref length = hyp - deletions + insertions
        assert len(ref) == len(hyp) - bd.deletions + bd.insertions

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=8))
    def test_self_accuracy_is_one(self, ref):
        assert accuracy(tuple(ref), tuple(ref)) == 1.0

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=5),
           st.lists(st.integers(2, 5), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_upper_bound(self, ref, hyp):
        assert accuracy(tuple(hyp), tuple(ref)) <= 1.0


def tiny_dataset(n_instances=4, seed=0):
    return generate_synthetic(
        SyntheticConfig(vocab_size=6, feature_dim=5, latent_dim=4,
                        sentence_length=(2, 3), instance_count=n_instances,
                        seed=seed), "test")


def tiny_model(ds, seed=0, q=6):
    return han_mod.init_params(np.random.default_rng(seed), 4,
                               ds.instances[0][0].dim,
                               len(ds.vocabulary.words), q, 4)


class TestEvaluate:
    def test_mean_is_arithmetic_mean(self):
        ds = tiny_dataset()
        ls, han = tiny_model(ds)
        report = evaluate(ls, han, ds, han_mod.DEFAULT_STRATEGY, 10)
        per_instance = [r.accuracy for r in report.results]
        assert report.mean_accuracy == pytest.approx(
            float(np.mean(per_instance)), abs=1e-12)
        assert len(report.results) == 4

    def test_always_end_model_scores_zero(self):
        ds = tiny_dataset()
        ls, han = tiny_model(ds)
        han["emit_w"] = 0.0
        han["emit_b"] = 0.0
        han["emit_b"][1] = 50.0
        report = evaluate(ls, han, ds, han_mod.DEFAULT_STRATEGY, 10)
        # every reference word is missing from the empty hypotheses
        assert report.mean_accuracy == pytest.approx(0.0)
        assert report.aggregate.deletions == 0
        assert report.aggregate.substitutions == 0

    def test_csv_columns(self, tmp_path):
        ds = tiny_dataset()
        ls, han = tiny_model(ds)
        report = evaluate(ls, han, ds, han_mod.DEFAULT_STRATEGY, 10)
        path = tmp_path / "eval.csv"
        report.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "instance_id,n,m,hyp_len,S,I,D,accuracy"
        assert len(lines) == 5


class TestConsistencyProbe:
    def test_requires_k_at_least_two(self):
        ds = tiny_dataset()
        ls, han = tiny_model(ds)
        with pytest.raises(ValueError):
            consistency_probe(ls, han, ds, k=1)

    def test_correlations_in_range(self):
        ds = tiny_dataset(6, seed=3)
        ls, han = tiny_model(ds, seed=3)
        report = consistency_probe(ls, han, ds, k=3, sample_count=6, seed=0)
        for video in report.videos:
            assert -1.0 <= video.correlation <= 1.0
        assert len(report.videos) + report.skipped <= 6

    def test_sample_accounting(self):
        ds = tiny_dataset(8, seed=4)
        ls, han = tiny_model(ds, seed=4)
        report = consistency_probe(ls, han, ds, k=3, sample_count=5, seed=1)
        assert len(report.videos) + report.skipped == 5

    def test_csv_columns(self, tmp_path):
        ds = tiny_dataset(5, seed=5)
        ls, han = tiny_model(ds, seed=5)
        report = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=2)
        path = tmp_path / "probe.csv"
        report.write_csv(path)
        header = path.read_text().split("\n")[0]
        assert header == "video_id,rank,log_prob,dtw_distance"

    def test_deterministic(self):
        ds = tiny_dataset(6, seed=6)
        ls, han = tiny_model(ds, seed=6)
        r1 = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=9)
        r2 = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=9)
        assert [v.video_id for v in r1.videos] == [v.video_id for v in r2.videos]
        assert r1.mean_correlation == r2.mean_correlation

    def probe_with_distances(self, monkeypatch, distances):
        """Probe one video whose four one-word hypotheses lie at
        ``distances``."""
        hyps = [((w,), -float(w)) for w in range(2, 6)]
        lookup = dict(zip((t for t, _ in hyps), distances))
        monkeypatch.setattr(han_mod, "kbest_decode", lambda *args: hyps)
        monkeypatch.setattr(ev.ls_mod, "relevance_loss",
                            lambda ls, video, s: lookup[s.tokens])
        ds = tiny_dataset(1)
        ls, han = tiny_model(ds)
        return consistency_probe(ls, han, ds, k=4, sample_count=1)

    def test_tied_distances_share_average_rank(self, monkeypatch):
        report = self.probe_with_distances(monkeypatch, [1.0, 3.0, 1.0, 2.0])
        # distance ranks (1.5, 4, 1.5, 3) against decoder ranks (1, 2, 3, 4):
        # covariance sum 1, squared deviations 5 and 4.5
        assert report.skipped == 0
        assert report.videos[0].correlation == pytest.approx(
            1.0 / np.sqrt(22.5), abs=1e-15)

    def test_all_distances_tied_is_skipped(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = self.probe_with_distances(monkeypatch, [2.0] * 4)
        assert report.videos == [] and report.skipped == 1


class TestLambdaSweep:
    def sweep_config(self):
        return trainer.TrainingConfig(epochs=2, learning_rate=0.05,
                                      hidden_size=6, attention_size=4,
                                      latent_dim=4, seed=0)

    def test_single_value_matches_standalone_run(self):
        train = tiny_dataset(4, seed=10)
        val = tiny_dataset(3, seed=11)
        cfg = self.sweep_config()
        rows = lambda_sweep(train, val, cfg, [0.4])
        assert len(rows) == 1 and rows[0].lambda1 == 0.4

        import dataclasses
        state = trainer.train(train, dataclasses.replace(cfg, lambda1=0.4))
        report = evaluate(state.ls, state.han, val, cfg.strategy,
                          cfg.max_decode_len)
        assert rows[0].val_accuracy == pytest.approx(report.mean_accuracy,
                                                     abs=1e-12)

    def test_row_order_follows_grid(self):
        train = tiny_dataset(3, seed=12)
        val = tiny_dataset(2, seed=13)
        rows = lambda_sweep(train, val, self.sweep_config(), [0.0, 0.5, 1.0])
        assert [r.lambda1 for r in rows] == [0.0, 0.5, 1.0]

    def test_csv_format(self, tmp_path):
        train = tiny_dataset(3, seed=14)
        val = tiny_dataset(2, seed=15)
        rows = lambda_sweep(train, val, self.sweep_config(), [0.0, 1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,val_accuracy,val_error"
        assert len(lines) == 3
