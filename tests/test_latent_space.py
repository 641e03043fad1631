import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan.corpus import ClipFeatureSequence, Sentence
from lshan.latent_space import (
    AlignmentError, LatentSpaceParams, backtrack, dtw,
    path_margin, project_sentence, project_video, relevance_grad,
    relevance_loss, window_policy,
)


def brute_force_dtw(dist: np.ndarray, feasible=None) -> float:
    """Enumerate every monotone one-clip-per-step path and take the minimum."""
    n, m = dist.shape
    best = np.inf
    for increments in itertools.combinations(range(1, n), m - 1):
        js = np.zeros(n, dtype=int)
        for inc in increments:
            js[inc:] += 1
        if feasible is not None and not all(feasible[i, js[i]] for i in range(n)):
            continue
        best = min(best, sum(dist[i, js[i]] for i in range(n)))
    return best


def random_latents(rng, n, m, d):
    return rng.normal(size=(n, d)), rng.normal(size=(m, d))


class TestProjections:
    def test_identity_video_projection(self):
        clips = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(project_video(np.eye(3), clips), clips)

    def test_zero_projection(self):
        clips = np.ones((4, 3))
        assert not project_video(np.zeros((2, 3)), clips).any()

    def test_video_rows_match_matvec(self):
        rng = np.random.default_rng(1)
        t_v = rng.normal(size=(3, 2))
        clips = rng.normal(size=(4, 2))
        out = project_video(t_v, clips)
        for i in range(4):
            np.testing.assert_allclose(out[i], t_v @ clips[i], atol=1e-12)

    def test_sentence_selects_columns(self):
        rng = np.random.default_rng(2)
        t_s = rng.normal(size=(3, 6))
        out = project_sentence(t_s, Sentence((4, 2, 4)))
        np.testing.assert_array_equal(out[0], t_s[:, 4])
        np.testing.assert_array_equal(out[1], t_s[:, 2])

    def test_sentence_matches_one_hot_product(self):
        rng = np.random.default_rng(3)
        t_s = rng.normal(size=(5, 7))
        sentence = Sentence((3, 6, 2))
        one_hots = np.zeros((3, 7))
        for row, token in enumerate(sentence.tokens):
            one_hots[row, token] = 1.0
        np.testing.assert_allclose(project_sentence(t_s, sentence),
                                   one_hots @ t_s.T, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_video(np.zeros((2, 3)), np.zeros((4, 5)))


class TestPairDistance:
    """The clip-to-word distance, as a one-clip, one-word DTW table holds it."""

    def test_zero_at_equality(self):
        x = np.array([[1.0, -2.0]])
        assert dtw(x, x).total == 0.0

    def test_three_four_five(self):
        assert dtw(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])).total == 5.0

    def test_matches_componentwise(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        assert dtw(a, b).total == pytest.approx(
            np.sqrt(((a - b) ** 2).sum()), abs=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=4),
           st.floats(-3, 3))
    def test_translation_invariance(self, values, shift):
        a = np.array([values])
        b = a[:, ::-1].copy()
        c = np.full_like(a, shift)
        assert dtw(a + c, b + c).total == pytest.approx(dtw(a, b).total,
                                                        abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((1, 2)), np.zeros((1, 3)))


class TestDtw:
    def test_base_case(self):
        table = dtw(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert table.total == pytest.approx(1.0)

    def test_forced_diagonal(self):
        # n = m = 2 with unit distances everywhere: only path is the diagonal
        v = np.array([[0.0], [2.0]])
        s = np.array([[1.0], [1.0]])
        assert dtw(v, s).total == pytest.approx(2.0)

    def test_first_row_infeasible_beyond_first_word(self):
        rng = np.random.default_rng(5)
        v, s = random_latents(rng, 4, 3, 2)
        table = dtw(v, s)
        assert np.isinf(table.costs[0, 1:]).all()
        assert np.isinf(table.costs[1, 2])  # j > i is unreachable

    def test_rejects_more_words_than_clips(self):
        rng = np.random.default_rng(6)
        v, s = random_latents(rng, 2, 3, 2)
        with pytest.raises(AlignmentError):
            dtw(v, s)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(n, 4) + 1))
            v, s = random_latents(rng, n, m, 3)
            table = dtw(v, s)
            assert table.total == pytest.approx(
                brute_force_dtw(table.dist), abs=1e-9)

    def test_windowed_matches_restricted_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(n, 4) + 1))
            v, s = random_latents(rng, n, m, 3)
            policy = window_policy(n, m)
            table = dtw(v, s, policy)
            assert table.total == pytest.approx(
                brute_force_dtw(table.dist, policy.feasible_mask(n)), abs=1e-9)

    def test_windowed_at_least_unwindowed(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, n + 1))
            v, s = random_latents(rng, n, m, 2)
            assert dtw(v, s, window_policy(n, m)).total >= dtw(v, s).total - 1e-12


class TestBacktrack:
    def assert_valid_path(self, path, n, m):
        assert path.pairs[0] == (0, 0)
        assert path.pairs[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(path.pairs, path.pairs[1:]):
            assert i1 == i0 + 1
            assert j1 - j0 in (0, 1)

    def test_square_is_diagonal(self):
        rng = np.random.default_rng(10)
        v, s = random_latents(rng, 4, 4, 2)
        path = backtrack(dtw(v, s))
        assert path.pairs == tuple((i, i) for i in range(4))

    def test_single_word_takes_all_clips(self):
        rng = np.random.default_rng(11)
        v, s = random_latents(rng, 5, 1, 2)
        path = backtrack(dtw(v, s))
        assert path.pairs == tuple((i, 0) for i in range(5))

    def test_path_cost_reproduces_total(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            v, s = random_latents(rng, n, m, 3)
            table = dtw(v, s)
            path = backtrack(table)
            self.assert_valid_path(path, n, m)
            cost = sum(table.dist[i, j] for i, j in path.pairs)
            assert cost == pytest.approx(table.total, abs=1e-9)


class TestWindowPolicy:
    def test_spec_example_n8_m2(self):
        # windows of 4 clips overlapping by 2 start at clips 0, 2 and 4
        policy = window_policy(8, 2)
        assert policy.lo == (0, 4) and policy.hi == (3, 7)

    def test_single_word_full_band(self):
        policy = window_policy(9, 1)
        assert policy.lo == (0,) and policy.hi == (8,)

    def test_square_keeps_diagonal_feasible(self):
        for n in range(1, 10):
            policy = window_policy(n, n)
            for j in range(n):
                assert policy.lo[j] <= j <= policy.hi[j]

    def test_always_admits_a_path(self):
        rng = np.random.default_rng(13)
        for n in range(1, 25):
            for m in range(1, n + 1):
                v, s = random_latents(rng, n, m, 2)
                dtw(v, s, window_policy(n, m))  # raises if infeasible


class TestRelevance:
    def test_zero_loss_at_matched_latents(self):
        # choose projections so every clip latent equals its aligned word latent
        t_s = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        params = LatentSpaceParams(np.eye(2), t_s)
        video = ClipFeatureSequence(np.array([[1.0, -1.0]] * 3))
        assert relevance_loss(params, video, Sentence((2,))) == pytest.approx(0.0)

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            params = LatentSpaceParams(rng.normal(size=(3, 4)),
                                       rng.normal(size=(3, 6)))
            video = ClipFeatureSequence(rng.normal(size=(n, 4)))
            sentence = Sentence(tuple(int(t) for t in rng.integers(2, 6, size=m)))
            expected = brute_force_dtw(dtw(
                project_video(params.t_v, video),
                project_sentence(params.t_s, sentence)).dist)
            assert relevance_loss(params, video, sentence) == pytest.approx(
                expected, abs=1e-9)

    def test_zero_gradient_at_zero_loss(self):
        t_s = np.array([[1.0, 1.0, 1.0]])
        params = LatentSpaceParams(np.array([[1.0]]), t_s)
        video = ClipFeatureSequence(np.array([[1.0], [1.0]]))
        loss, g_tv, g_ts = relevance_grad(params, video, Sentence((2,)))
        assert loss == 0.0
        assert not g_tv.any() and not g_ts.any()

    def test_single_cell_closed_form(self):
        rng = np.random.default_rng(15)
        params = LatentSpaceParams(rng.normal(size=(3, 2)),
                                   rng.normal(size=(3, 4)))
        clip = rng.normal(size=2)
        video = ClipFeatureSequence(clip[None, :])
        sentence = Sentence((3,))
        diff = params.t_v @ clip - params.t_s[:, 3]
        unit = diff / np.linalg.norm(diff)
        loss, g_tv, g_ts = relevance_grad(params, video, sentence)
        assert loss == pytest.approx(np.linalg.norm(diff), abs=1e-12)
        np.testing.assert_allclose(g_tv, np.outer(unit, clip), atol=1e-12)
        np.testing.assert_allclose(g_ts[:, 3], -unit, atol=1e-12)
        assert not g_ts[:, :3].any()

    def test_finite_differences(self):
        rng = np.random.default_rng(16)
        eps = 1e-5
        checked = 0
        while checked < 10:
            params = LatentSpaceParams(rng.normal(size=(4, 5)),
                                       rng.normal(size=(4, 6)))
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 3) + 1))
            video = ClipFeatureSequence(rng.normal(size=(n, 5)))
            sentence = Sentence(tuple(int(t) for t in rng.integers(2, 6, size=m)))
            table = dtw(project_video(params.t_v, video),
                        project_sentence(params.t_s, sentence))
            if path_margin(table, backtrack(table)) < 1e-3:
                continue
            checked += 1
            loss, g_tv, g_ts = relevance_grad(params, video, sentence)
            assert loss == relevance_loss(params, video, sentence)
            for arr, grad in ((params.t_v, g_tv), (params.t_s, g_ts)):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = relevance_loss(params, video, sentence)
                    flat[idx] = orig - eps
                    down = relevance_loss(params, video, sentence)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    assert abs(gflat[idx] - numeric) <= 1e-4 * max(
                        1.0, abs(gflat[idx]), abs(numeric))
