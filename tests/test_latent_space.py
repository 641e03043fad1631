import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import latent_space, trainer
from lshan.corpus import ClipFeatureSequence, Sentence
from lshan.latent_space import (
    BAND_CACHE_SIZE, DEGENERATE_DISTANCE, AlignmentError, DtwTable,
    LatentSpaceParams, WindowPolicy, align_batch, backtrack, dtw, dtw_batch,
    project_sentence, project_video, relevance_grad, relevance_loss,
    window_policy,
)
from reference import brute_force_dtw


def loop_dtw_costs(dist: np.ndarray, feasible=None) -> np.ndarray:
    """The recurrence cell by cell: +inf where j > i or outside the band."""
    n, m = dist.shape
    costs = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(min(i, m - 1) + 1):
            if feasible is not None and not feasible[i, j]:
                continue
            if i == 0:
                costs[i, j] = dist[i, j]
            elif j == 0:
                costs[i, j] = costs[i - 1, j] + dist[i, j]
            else:
                costs[i, j] = min(costs[i - 1, j], costs[i - 1, j - 1]) \
                    + dist[i, j]
    return costs


def loop_window_policy(n: int, m: int) -> WindowPolicy:
    """The band as first written: every window start built by a loop, each
    word's window looked up, then a widening pass over the words."""
    if not n >= m >= 1:
        raise AlignmentError(f"need n >= m >= 1, got n={n}, m={m}")
    length = math.ceil(n / 2)
    overlap = n // 4
    stride = max(1, length - overlap)
    starts = [0]
    while starts[-1] + length < n:
        starts.append(starts[-1] + stride)
    if starts[-1] + length > n:
        starts[-1] = n - length
    n_windows = len(starts)

    lo = []
    hi = []
    for j in range(m):
        w = round(j * (n_windows - 1) / (m - 1)) if m > 1 else 0
        lo.append(starts[w] if m > 1 else 0)
        hi.append(min(starts[w] + length, n) - 1 if m > 1 else n - 1)
    lo[0], hi[m - 1] = 0, n - 1
    for j in range(m):
        lo[j] = min(lo[j], n - m + j)
        hi[j] = max(hi[j], j)
    for j in range(1, m):
        lo[j] = max(lo[j], lo[j - 1])
        hi[j] = max(hi[j], hi[j - 1])
        lo[j] = min(lo[j], hi[j - 1] + 1)
    return WindowPolicy(tuple(lo), tuple(hi))


def random_latents(rng, n, m, d):
    return rng.normal(size=(n, d)), rng.normal(size=(m, d))


def pair_distances(v_lat, s_lat):
    diff = v_lat[:, None, :] - s_lat[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def lockstep_batches(rng, count):
    """Batches of 1-6 (n, m) shapes: n = m, m = 1, n = 1 and a pair whose m
    exceeds another pair's n first, then random mixes."""
    batches = [[(1, 1)], [(5, 5), (1, 1)], [(6, 1), (9, 9), (2, 2)],
               [(3, 2), (12, 7)], [(1, 1), (8, 8), (4, 1), (10, 3)]]
    while len(batches) < count:
        batches.append([])
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 20))
            batches[-1].append((n, int(rng.integers(1, n + 1))))
    return batches


def one_relevance_grad(params, video, sentence):
    """``relevance_grad`` of an unbanded one-instance batch, as (loss, g_tv,
    g_ts)."""
    (loss,), g_tv, g_ts = relevance_grad(params, [(video, sentence)], False)
    return loss, g_tv, g_ts


def band(video, sentence, windowed):
    """The policy that ``windowed`` stands for, built by hand."""
    return window_policy(video.n, sentence.length) if windowed else None


def assert_matches_instance_sum(params, batch, windowed, oracle):
    """``relevance_grad`` of ``batch`` against ``oracle`` run per instance
    under the band that ``windowed`` stands for: every loss byte for byte,
    and each projection's gradient within 1e-12 norm-wise of the sum of the
    oracle's, so exactly 0 where that sum is."""
    losses, g_tv, g_ts = relevance_grad(params, batch, windowed)
    want = [oracle(params, video, sentence, band(video, sentence, windowed))
            for video, sentence in batch]
    assert [np.float64(loss).tobytes() for loss in losses] \
        == [np.float64(loss).tobytes() for loss, _, _ in want]
    for got, want_sum in ((g_tv, sum(w[1] for w in want)),
                          (g_ts, sum(w[2] for w in want))):
        assert got.shape == want_sum.shape
        assert np.linalg.norm(got - want_sum) \
            <= 1e-12 * np.linalg.norm(want_sum)


def instance_relevance_grad(params, video, sentence, policy=None):
    """One instance's relevance gradient on its own cell-loop table."""
    v_lat = project_video(params.t_v, video)
    s_lat = project_sentence(params.t_s, sentence)
    dist = pair_distances(v_lat, s_lat)
    feasible = None if policy is None else policy.mask
    table = DtwTable(loop_dtw_costs(dist, feasible), dist)
    jj = backtrack(table).words
    ii = np.arange(jj.size)
    d = dist[ii, jj]
    keep = d >= DEGENERATE_DISTANCE
    ii, jj, d = ii[keep], jj[keep], d[keep]
    unit = (v_lat[ii] - s_lat[jj]) / d[:, None]
    g_tv = np.add.reduce(unit[:, :, None] * video.clips[ii][:, None, :], axis=0)
    g_ts = np.zeros_like(params.t_s)
    np.subtract.at(g_ts.T, np.asarray(sentence.tokens)[jj], unit)
    return table.total, g_tv, g_ts


def loop_relevance_grad(params, video, sentence, policy=None):
    """The relevance gradient pair by pair along backtrack's path, from zero."""
    v_lat = project_video(params.t_v, video)
    s_lat = project_sentence(params.t_s, sentence)
    table = dtw(v_lat, s_lat, policy)
    g_tv = np.zeros_like(params.t_v)
    g_ts = np.zeros_like(params.t_s)
    for i, j in backtrack(table).pairs:
        d = table.dist[i, j]
        if d < DEGENERATE_DISTANCE:
            continue
        unit = (v_lat[i] - s_lat[j]) / d
        g_tv += np.outer(unit, video.clips[i])
        g_ts[:, sentence.tokens[j]] -= unit
    return table.total, g_tv, g_ts


def loop_path_margin(table, path):
    margin = np.inf
    for i, j in path.pairs:
        if i > 0 and j > 0:
            a, b = table.costs[i - 1, j], table.costs[i - 1, j - 1]
            if np.isfinite(a) and np.isfinite(b):
                margin = min(margin, abs(a - b))
    return float(margin)


def loop_min_path_distance(table, path):
    return float(min(table.dist[i, j] for i, j in path.pairs))


def relevance_case(rng, n, m):
    """Random projections, clips and a sentence over three tokens, so tokens
    repeat. A fifth of the clips are exactly zero. A third of the cases lie on
    the integer grid {-1, 0, 1}, where clip and word latents coincide, and a
    1e-10 nudge of some clips leaves distances just above zero."""
    if rng.random() < 1 / 3:
        def draw(shape):
            return rng.integers(-1, 2, size=shape).astype(float)
        t_v, t_s = draw((2, 2)), draw((2, 5))
        clips = draw((n, 2)) + rng.choice([0.0, 1e-10], size=(n, 2))
    else:
        t_v, t_s = rng.normal(size=(3, 4)), rng.normal(size=(3, 5))
        clips = rng.normal(size=(n, 4))
    clips[rng.random(n) < 0.2] = 0.0
    tokens = tuple(int(t) for t in rng.integers(2, 5, size=m))
    return (LatentSpaceParams(t_v, t_s), ClipFeatureSequence(clips),
            Sentence(tokens))


def relevance_batch(rng, shapes):
    """Shared projections and one (video, sentence) per shape, drawn as in
    ``relevance_case``: a third of the batches on the integer grid."""
    grid = rng.random() < 1 / 3
    dim = 2 if grid else 4

    def draw(shape):
        if grid:
            return rng.integers(-1, 2, size=shape).astype(float)
        return rng.normal(size=shape)
    params = LatentSpaceParams(draw((3, dim)), draw((3, 5)))
    batch = []
    for n, m in shapes:
        clips = draw((n, dim))
        if grid:
            clips += rng.choice([0.0, 1e-10], size=(n, dim))
        clips[rng.random(n) < 0.2] = 0.0
        tokens = tuple(int(t) for t in rng.integers(2, 5, size=m))
        batch.append((ClipFeatureSequence(clips), Sentence(tokens)))
    return params, batch


def relevance_shapes(rng, count):
    """n = m, m = 1 and n = 1 first, then random n >= m."""
    shapes = [(1, 1), (4, 4), (9, 9), (6, 1), (12, 1)]
    while len(shapes) < count:
        n = int(rng.integers(1, 13))
        shapes.append((n, int(rng.integers(1, n + 1))))
    return shapes


class TestProjections:
    def test_identity_video_projection(self):
        clips = np.random.default_rng(0).normal(size=(4, 3))
        video = ClipFeatureSequence(clips)
        np.testing.assert_array_equal(project_video(np.eye(3), video), clips)

    def test_zero_projection(self):
        video = ClipFeatureSequence(np.ones((4, 3)))
        assert not project_video(np.zeros((2, 3)), video).any()

    def test_video_rows_match_matvec(self):
        rng = np.random.default_rng(1)
        t_v = rng.normal(size=(3, 2))
        clips = rng.normal(size=(4, 2))
        out = project_video(t_v, ClipFeatureSequence(clips))
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
            project_video(np.zeros((2, 3)), ClipFeatureSequence(np.zeros((4, 5))))


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

    def test_whole_table_matches_cell_loop(self):
        rng = np.random.default_rng(17)
        shapes = [(1, 1), (6, 1), (5, 5), (9, 9)] + [
            (n, int(rng.integers(1, n + 1)))
            for n in rng.integers(1, 20, size=40)]
        for n, m in shapes:
            v, s = random_latents(rng, n, m, 3)
            policy = window_policy(n, m)
            for pol, feasible in ((None, None),
                                  (policy, policy.mask)):
                table = dtw(v, s, pol)
                assert np.array_equal(table.costs,
                                      loop_dtw_costs(table.dist, feasible))

    def test_lockstep_matches_single_tables(self):
        rng = np.random.default_rng(20)
        crossed = 0
        for shapes in lockstep_batches(rng, 300):
            pairs = [random_latents(rng, n, m, 3) for n, m in shapes]
            policies = [window_policy(n, m) if rng.random() < 0.5 else None
                        for n, m in shapes]
            tables = dtw_batch([(pair_distances(v, s), policy)
                                for (v, s), policy in zip(pairs, policies)])
            assert len(tables) == len(shapes)
            for (v, s), policy, table in zip(pairs, policies, tables):
                dist = pair_distances(v, s)
                feasible = None if policy is None else policy.mask
                assert table.dist.tobytes() == dist.tobytes()
                assert table.costs.shape == dist.shape
                assert table.costs.tobytes() \
                    == loop_dtw_costs(dist, feasible).tobytes()
            crossed += max(m for _, m in shapes) > min(n for n, _ in shapes)
        assert crossed > 50

    def test_align_batch_matches_hand_built_pairs(self):
        rng = np.random.default_rng(24)
        for shapes in lockstep_batches(rng, 300):
            params, batch = relevance_batch(rng, shapes)
            for windowed in (False, True):
                latents = [(project_video(params.t_v, video),
                            project_sentence(params.t_s, sentence))
                           for video, sentence in batch]
                pairs = [(pair_distances(v, s), band(video, sentence, windowed))
                         for (v, s), (video, sentence) in zip(latents, batch)]
                got = align_batch(params, batch, windowed)
                assert len(got) == len(batch)
                for table, want, (v, s), (_, policy) in zip(
                        got, dtw_batch(pairs), latents, pairs):
                    alone = dtw(v, s, policy)
                    for other in (want, alone):
                        assert table.costs.tobytes() == other.costs.tobytes()
                        assert table.dist.tobytes() == other.dist.tobytes()

    def test_align_batch_shares_one_table_per_video(self):
        # the same video objects repeat, and words repeat within and across
        # their sentences: each table is still the one its pair gets alone
        rng = np.random.default_rng(26)
        params = LatentSpaceParams(rng.normal(size=(3, 4)),
                                   rng.normal(size=(3, 7)))
        long, short = (ClipFeatureSequence(rng.normal(size=(n, 4)))
                       for n in (9, 4))
        batch = [(long, Sentence(tokens)) for tokens in
                 ((2, 3, 2), (4,), (3, 3, 3, 3), (6, 5, 4, 3, 2, 6), (2, 3, 2))]
        batch.insert(2, (short, Sentence((5, 2, 5))))
        batch.append((short, Sentence((2, 2))))
        for windowed in (False, True):
            got = align_batch(params, batch, windowed)
            assert len(got) == len(batch)
            for table, (video, sentence) in zip(got, batch):
                want = dtw(project_video(params.t_v, video),
                           project_sentence(params.t_s, sentence),
                           band(video, sentence, windowed))
                assert table.costs.tobytes() == want.costs.tobytes()
                assert table.dist.tobytes() == want.dist.tobytes()
            with pytest.raises(ValueError, match="^word index 7 does not fit"):
                align_batch(params, batch + [(long, Sentence((2, 7)))],
                            windowed)

    def test_batch_rejects_an_infeasible_pair(self, monkeypatch):
        rng = np.random.default_rng(21)
        v, s = random_latents(rng, 6, 3, 2)
        cases = [
            (random_latents(rng, 2, 3, 2), None,
             "no feasible path for n=2 < m=3"),
            ((np.zeros((0, 2)), np.zeros((1, 2))), None, "empty sequence"),
            # word 1 may only take clip 0, so no path reaches (3, 1)
            (random_latents(rng, 4, 2, 2), WindowPolicy((0, 0), (3, 0)),
             "feasible region admits no monotone path"),
        ]
        for (bad_v, bad_s), policy, message in cases:
            dist, bad = pair_distances(v, s), pair_distances(bad_v, bad_s)
            for pairs in ([(bad, policy)],
                          [(dist, None), (bad, policy),
                           (dist, window_policy(6, 3))]):
                with pytest.raises(AlignmentError, match=f"^{message}$"):
                    dtw_batch(pairs)
            if message == "empty sequence":
                continue  # the corpus types refuse empty videos and sentences
            params = LatentSpaceParams(np.eye(2), rng.normal(size=(2, 5)))
            batch = [(ClipFeatureSequence(v), Sentence((2, 3, 4))),
                     (ClipFeatureSequence(bad_v),
                      Sentence((2, 3, 4)[:bad_s.shape[0]]))]
            if policy is not None:   # the band comes from window_policy
                monkeypatch.setattr(latent_space, "window_policy", lambda n, m:
                                    policy if n == 4 else window_policy(n, m))
            with pytest.raises(AlignmentError, match=f"^{message}$"):
                relevance_grad(params, batch, policy is not None)

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
                brute_force_dtw(table.dist, policy.mask), abs=1e-9)

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

    def test_matches_scalar_walk(self):
        # the walk as first written, one numpy scalar comparison per clip;
        # grid cases tie exactly, and a tie must go to the diagonal
        def scalar_walk(costs):
            n, m = costs.shape
            words, j, ties = [0] * n, m - 1, 0
            for i in range(n - 1, 0, -1):
                words[i] = j
                if j > 0:
                    ties += bool(costs[i - 1, j - 1] == costs[i - 1, j])
                    if costs[i - 1, j - 1] <= costs[i - 1, j]:
                        j -= 1
            words[0] = j
            return words, ties

        rng = np.random.default_rng(28)
        tied = 0
        for n, m in relevance_shapes(rng, 600):
            params, video, sentence = relevance_case(rng, n, m)
            v = project_video(params.t_v, video)
            s = project_sentence(params.t_s, sentence)
            for policy in (None, window_policy(n, m)):
                table = dtw(v, s, policy)
                words, ties = scalar_walk(table.costs)
                path = backtrack(table).words
                assert path.dtype == np.intp and path.tolist() == words
                tied += ties
        assert tied > 50

    def test_path_statistics_match_pair_loops(self):
        rng = np.random.default_rng(18)
        no_choice = 0
        for n, m in relevance_shapes(rng, 600):
            params, video, sentence = relevance_case(rng, n, m)
            v = project_video(params.t_v, video)
            s = project_sentence(params.t_s, sentence)
            for policy in (None, window_policy(n, m)):
                table = dtw(v, s, policy)
                path = backtrack(table)
                margin = loop_path_margin(table, path)
                assert trainer._instance_degenerate(table) is (
                    margin < 1e-3
                    or loop_min_path_distance(table, path) < 1e-6)
                no_choice += margin == np.inf
                if m == 1 or n == m:
                    assert margin == np.inf
        assert 100 < no_choice < 1200


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

    def test_closed_form_matches_loop(self):
        # each (n, m) band is built once, with its mask once and read-only;
        # the 20100 shapes leave the most recent BAND_CACHE_SIZE behind
        try:
            for n in range(1, 201):
                clip = np.arange(n)[:, None]
                for m in range(1, n + 1):
                    policy = window_policy(n, m)
                    want = loop_window_policy(n, m)
                    assert policy == want, (n, m)
                    assert window_policy(n, m) is policy
                    mask = policy.mask
                    assert not mask.flags.writeable
                    assert policy.mask is mask
                    assert np.array_equal(mask, (clip >= np.array(want.lo))
                                          & (clip <= np.array(want.hi)))
            info = window_policy.cache_info()
            assert info.maxsize == BAND_CACHE_SIZE
            assert info.currsize == BAND_CACHE_SIZE
        finally:
            window_policy.cache_clear()


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
        loss, g_tv, g_ts = one_relevance_grad(params, video, Sentence((2,)))
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
        loss, g_tv, g_ts = one_relevance_grad(params, video, sentence)
        assert loss == pytest.approx(np.linalg.norm(diff), abs=1e-12)
        np.testing.assert_allclose(g_tv, np.outer(unit, clip), atol=1e-12)
        np.testing.assert_allclose(g_ts[:, 3], -unit, atol=1e-12)
        assert not g_ts[:, :3].any()

    def test_matches_path_loop(self):
        rng = np.random.default_rng(19)
        below = nudged = 0
        for n, m in relevance_shapes(rng, 1200):
            params, video, sentence = relevance_case(rng, n, m)
            for windowed in (False, True):
                assert_matches_instance_sum(params, [(video, sentence)],
                                            windowed, loop_relevance_grad)
            table = dtw(project_video(params.t_v, video),
                        project_sentence(params.t_s, sentence))
            path_dist = table.dist[np.arange(n), backtrack(table).words]
            below += (path_dist < DEGENERATE_DISTANCE).any()
            nudged += ((path_dist > 0) & (path_dist < DEGENERATE_DISTANCE)).any()
        # the degenerate-distance filter must have dropped cells, some of
        # them at a distance that is small but not zero
        assert below > 100 and nudged > 20

    def test_batch_matches_instance_loop(self):
        rng = np.random.default_rng(22)
        for shapes in lockstep_batches(rng, 400):
            params, batch = relevance_batch(rng, shapes)
            for windowed in (False, True):
                for oracle in (instance_relevance_grad, loop_relevance_grad):
                    assert_matches_instance_sum(params, batch, windowed, oracle)

    def test_batch_of_degenerate_cells_and_of_one_token(self):
        rng = np.random.default_rng(23)
        # every clip projects onto every word: no path cell has a direction
        params = LatentSpaceParams(np.eye(2), np.ones((2, 5)))
        batch = [(ClipFeatureSequence(np.ones((n, 2))), Sentence(tokens))
                 for n, tokens in ((1, (2,)), (4, (3, 2)), (6, (4, 4, 2)))]
        losses, g_tv, g_ts = relevance_grad(params, batch, False)
        assert losses == [0.0, 0.0, 0.0]
        assert g_tv.shape == (2, 2) and not g_tv.any()
        assert g_ts.shape == (2, 5) and not g_ts.any()
        assert_matches_instance_sum(params, batch, False, loop_relevance_grad)
        # one token, within and across sentences, takes every path cell
        params = LatentSpaceParams(rng.normal(size=(3, 4)),
                                   rng.normal(size=(3, 5)))
        batch = [(ClipFeatureSequence(rng.normal(size=(n, 4))),
                  Sentence((3,) * m)) for n, m in ((5, 3), (1, 1), (7, 7))]
        for windowed in (False, True):
            _, _, g_ts = relevance_grad(params, batch, windowed)
            assert np.flatnonzero(g_ts.any(axis=0)).tolist() == [3]
            for oracle in (instance_relevance_grad, loop_relevance_grad):
                assert_matches_instance_sum(params, batch, windowed, oracle)

    def test_word_gradient_is_the_clip_order_loop(self):
        # g_ts from zero, each kept path cell's unit subtracted in batch and
        # clip order: the same bytes, signed zeros included, where tokens
        # repeat and grid batches give units with exact-zero components
        rng = np.random.default_rng(27)
        zeros = 0
        for shapes in lockstep_batches(rng, 200):
            params, batch = relevance_batch(rng, shapes)
            for windowed in (False, True):
                want = np.zeros_like(params.t_s)
                for video, sentence in batch:
                    v_lat = project_video(params.t_v, video)
                    table = dtw(v_lat, project_sentence(params.t_s, sentence),
                                band(video, sentence, windowed))
                    for i, j in backtrack(table).pairs:
                        d = table.dist[i, j]
                        if d >= DEGENERATE_DISTANCE:
                            token = sentence.tokens[j]
                            unit = (v_lat[i] - params.t_s[:, token]) / d
                            want[:, token] -= unit
                            zeros += (unit == 0.0).sum()
                _, _, g_ts = relevance_grad(params, batch, windowed)
                assert g_ts.tobytes() == want.tobytes()
        assert zeros > 100

    def test_word_sums_are_the_ufunc_at_loops(self):
        # both projection gradients sum through word_sums: 0.0 - sums is
        # np.subtract.at and a zero array += sums is np.add.at, to the bit,
        # where tokens repeat and rows hold +0.0, -0.0 and more than 8 rows
        # of one word (numpy sums longer runs pairwise)
        rng = np.random.default_rng(31)
        for case in range(300):
            d, vocab = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            tokens = rng.integers(0, vocab, size=int(rng.integers(0, 40)))
            rows = rng.normal(size=(tokens.size, d)) * 10.0 ** rng.integers(
                -8, 9, size=(tokens.size, d))
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[rng.random(rows.shape) < 0.2] = -0.0
            subtracted, added = np.zeros((vocab, d)), np.zeros((vocab, d))
            np.subtract.at(subtracted, tokens, rows)
            np.add.at(added, tokens, rows)
            sums = latent_space.word_sums(tokens, rows, (d, vocab))
            assert sums.shape == (d, vocab)
            assert (0.0 - sums).tobytes() == subtracted.T.tobytes()
            out = np.zeros((d, vocab))
            out += sums
            assert out.tobytes() == added.T.tobytes()

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
            if loop_path_margin(table, backtrack(table)) < 1e-3:
                continue
            checked += 1
            loss, g_tv, g_ts = one_relevance_grad(params, video, sentence)
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
