import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import evaluation as ev
from lshan import han as han_mod
from lshan import trainer
from lshan.corpus import ClipFeatureSequence, Dataset, Sentence, Vocabulary
from lshan.evaluation import (EditBreakdown, consistency_probe,
                              edit_breakdown, evaluate, lambda_sweep,
                              write_sweep_csv)
from reference import tiny_dataset

A, B, X, Y = 2, 3, 4, 5


class TestEditBreakdown:
    def test_exact_match(self):
        bd = edit_breakdown((A, B), (A, B))
        assert (bd.substitutions, bd.insertions, bd.deletions) == (0, 0, 0)

    def test_two_extra_hypothesis_tokens(self):
        bd = edit_breakdown((A, X, B, Y), (A, B))
        assert bd.deletions == 2
        assert bd.substitutions == 0 and bd.insertions == 0
        assert edit_breakdown((A, X, B, Y), (A, B)).accuracy \
            == pytest.approx(0.0)

    def test_negative_accuracy_exact(self):
        bd = edit_breakdown((X, Y), (A,))
        assert bd.total == 2
        assert edit_breakdown((X, Y), (A,)).accuracy == -1.0

    def test_empty_hypothesis(self):
        bd = edit_breakdown((), (A, B, X))
        assert bd.insertions == 3 and bd.total == 3
        assert edit_breakdown((), (A, B, X)).accuracy == pytest.approx(0.0)

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
        assert edit_breakdown(tuple(ref), tuple(ref)).accuracy == 1.0

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=5),
           st.lists(st.integers(2, 5), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_upper_bound(self, ref, hyp):
        assert edit_breakdown(tuple(hyp), tuple(ref)).accuracy <= 1.0


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
        # the aggregate sums every instance's S, I, D and reference length
        columns = zip(*[(r.breakdown.substitutions, r.breakdown.insertions,
                         r.breakdown.deletions, sentence.length)
                        for r, (_, sentence) in zip(report.results,
                                                    ds.instances)])
        assert report.aggregate == EditBreakdown(*map(sum, columns))

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
        for line, r, (video, sentence) in zip(lines[1:], report.results,
                                              ds.instances):
            b = r.breakdown
            assert line == (f"{r.instance_id},{video.n},{sentence.length},"
                            f"{r.hyp_length},{b.substitutions},"
                            f"{b.insertions},{b.deletions},{r.accuracy:.6f}")


def corrcoef_spearman(distances):
    """The probe's Spearman as numpy computes it: ``np.unique`` average
    ranks, then ``np.corrcoef`` against the decoder ranks 1..L."""
    _, inverse, counts = np.unique(distances, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float(np.corrcoef(np.arange(1, len(distances) + 1), ranks)[0, 1])


class TestConsistencyProbe:
    def test_requires_k_at_least_two(self):
        ds = tiny_dataset()
        ls, han = tiny_model(ds)
        with pytest.raises(ValueError):
            consistency_probe(ls, han, ds, k=1)

    def test_correlations_in_range(self):
        ds = tiny_dataset(seed=3, count=6)
        ls, han = tiny_model(ds, seed=3)
        report = consistency_probe(ls, han, ds, k=3, sample_count=6, seed=0)
        for video in report.videos:
            assert -1.0 <= video.correlation <= 1.0
        assert len(report.videos) + report.skipped <= 6

    def test_sample_accounting(self):
        ds = tiny_dataset(seed=4, count=8)
        ls, han = tiny_model(ds, seed=4)
        report = consistency_probe(ls, han, ds, k=3, sample_count=5, seed=1)
        assert len(report.videos) + report.skipped == 5

    def test_csv_columns(self, tmp_path):
        ds = tiny_dataset(seed=5, count=5)
        ls, han = tiny_model(ds, seed=5)
        report = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=2)
        path = tmp_path / "probe.csv"
        report.write_csv(path)
        header = path.read_text().split("\n")[0]
        assert header == "video_id,rank,log_prob,dtw_distance"

    def test_deterministic(self):
        ds = tiny_dataset(seed=6, count=6)
        ls, han = tiny_model(ds, seed=6)
        r1 = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=9)
        r2 = consistency_probe(ls, han, ds, k=3, sample_count=4, seed=9)
        assert [v.video_id for v in r1.videos] == [v.video_id for v in r2.videos]
        assert r1.mean_correlation == r2.mean_correlation

    def test_distances_match_relevance_loss(self):
        ds = tiny_dataset(seed=7, count=8)
        ls, han = tiny_model(ds, seed=7)
        report = consistency_probe(ls, han, ds, k=4, sample_count=8, seed=3)
        assert report.videos
        for probed in report.videos:
            video, _ = ds.instances[probed.video_id]
            for tokens, _, d in probed.hypotheses:
                want = ev.ls_mod.relevance_loss(ls, video, Sentence(tokens))
                assert np.float64(d).tobytes() == np.float64(want).tobytes()

    def probe_with_distances(self, monkeypatch, distances):
        """Probe one video whose four one-word hypotheses lie at
        ``distances``."""
        hyps = [((w,), -float(w)) for w in range(2, 6)]
        monkeypatch.setattr(han_mod, "kbest_decode", lambda *args: hyps)
        # the probe aligns the hypotheses in one batch, in decoder order
        monkeypatch.setattr(ev.ls_mod, "dtw_batch", lambda pairs: [
            ev.ls_mod.DtwTable(np.array([[d]]), np.array([[d]]))
            for d, _ in zip(distances, pairs, strict=True)])
        ds = tiny_dataset(count=1)
        ls, han = tiny_model(ds)
        return consistency_probe(ls, han, ds, k=4, sample_count=1)

    def test_tied_distances_share_average_rank(self, monkeypatch):
        report = self.probe_with_distances(monkeypatch, [1.0, 3.0, 1.0, 2.0])
        # distance ranks (1.5, 4, 1.5, 3) against decoder ranks (1, 2, 3, 4):
        # covariance sum 1, squared deviations 5 and 4.5
        assert report.skipped == 0
        assert report.videos[0].correlation == pytest.approx(
            1.0 / np.sqrt(22.5), abs=1e-15)

    def test_spearman_matches_corrcoef_bitwise(self):
        def same(distances):
            got, want = ev._spearman(distances), corrcoef_spearman(distances)
            return np.float64(got).tobytes() == np.float64(want).tobytes()

        # every tie pattern of 2-6 distances (each weak ordering once: the
        # levels used are 0..k-1) but the one where all tie
        checked = 0
        for count in range(2, 7):
            for levels in itertools.product(range(count), repeat=count):
                if 1 < len(set(levels)) == max(levels) + 1:
                    distances = [0.37 * level + 1.1 for level in levels]
                    assert same(distances), distances
                    checked += 1
        # the ordered Bell numbers of 2..6, less the all-tied pattern
        assert checked == (3 - 1) + (13 - 1) + (75 - 1) + (541 - 1) + (4683 - 1)
        rng = np.random.default_rng(25)
        for _ in range(3000):
            count = int(rng.integers(2, 13))
            values = rng.exponential(size=int(rng.integers(2, count + 1)))
            distances = rng.choice(values, size=count).tolist()
            if len(set(distances)) > 1:
                assert same(distances), distances

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
        train = tiny_dataset(seed=10, count=4)
        val = tiny_dataset(seed=11, count=3)
        cfg = self.sweep_config()
        rows = lambda_sweep(train, val, cfg, [0.4])
        assert len(rows) == 1 and rows[0].lambda1 == 0.4

        import dataclasses
        state = trainer.train(train, dataclasses.replace(cfg, lambda1=0.4))
        report = evaluate(state.ls, state.han, val, cfg.strategy)
        assert rows[0].val_accuracy == pytest.approx(report.mean_accuracy,
                                                     abs=1e-12)

    def test_row_order_follows_grid(self):
        train = tiny_dataset(seed=12, count=3)
        val = tiny_dataset(seed=13, count=2)
        rows = lambda_sweep(train, val, self.sweep_config(), [0.0, 0.5, 1.0])
        assert [r.lambda1 for r in rows] == [0.0, 0.5, 1.0]

    def test_csv_format(self, tmp_path):
        train = tiny_dataset(seed=14, count=3)
        val = tiny_dataset(seed=15, count=2)
        rows = lambda_sweep(train, val, self.sweep_config(), [0.0, 1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,val_accuracy,val_error"
        assert len(lines) == 3
