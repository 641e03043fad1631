import itertools
import math
import os
import re
import stat
from pathlib import Path

import han_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import han as han_mod
from lshan.corpus import END_INDEX, ClipFeatureSequence, Sentence
from lshan.han import (
    Parameters, SegmentationStrategy, _attention_forward, _bidir_forward,
    _cell_forward, _emission, _Padding, coherence_grad, coherence_loss,
    encode_video, greedy_decode, han_param_items, init_params, kbest_decode,
    load_checkpoint, param_layout, parse_strategy, save_checkpoint,
    segment_clips,
)
from lshan.latent_space import project_video
from lshan.trainer import TrainingConfig, grad_check

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "standard.lshn"

TWO = SegmentationStrategy("two-split")
PAIR = SegmentationStrategy("pair-split")


def even(k):
    return SegmentationStrategy("even", k)


def tiny_model(seed=0, d_s=6, q=8, q_att=5, d_w=10, d_c=5):
    return init_params(np.random.default_rng(seed), d_s, d_c, d_w, q, q_att)


def tiny_instance(seed=0, n=5, m=2, d_c=5, d_w=10):
    rng = np.random.default_rng(seed)
    video = ClipFeatureSequence(rng.normal(size=(n, d_c)))
    sentence = Sentence(tuple(int(t) for t in rng.integers(2, d_w, size=m)))
    return video, sentence


# The batched kernels sum in another order than the per-vector oracle, so
# they are held to bounds: a whole buffer within 1e-12 of the oracle's norm,
# each array within 1e-10 of its own largest entry, each loss within 1e-12
# relative.
def assert_close_norm(got, want, bound=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def assert_close_arrays(got, want):
    assert_close_norm(got.flat, want.flat)
    for name, arr in want.items():
        scale = np.abs(arr).max()
        assert np.abs(got[name] - arr).max() <= 1e-10 * scale, name


def padded(seqs):
    """Sequences of one width as a zero-padded time-major stack."""
    pad = _Padding([len(x) for x in seqs])
    return pad.stack(np.concatenate(seqs)), pad


def loop_segment_clips(n, strategy):
    """The segmentations as first written: two halves, pairs, and even-k by a
    running start."""
    if n < 1:
        raise ValueError("need at least one clip")
    if strategy.kind == "two-split":
        first = (n + 1) // 2  # odd n: first half gets the extra clip
        return [(0, first)] + ([(first, n)] if n > first else [])
    if strategy.kind == "pair-split":
        return [(s, min(s + 2, n)) for s in range(0, n, 2)]
    k = min(strategy.k, n)
    base, rem = divmod(n, k)
    ranges = []
    start = 0
    for seg in range(k):
        size = base + (1 if seg < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class TestSegmentation:
    def test_two_split_odd(self):
        assert segment_clips(5, TWO) == [(0, 3), (3, 5)]

    def test_pair_split_with_singleton(self):
        assert segment_clips(5, PAIR) == [(0, 2), (2, 4), (4, 5)]

    def test_even_seven_of_ten(self):
        sizes = [b - a for a, b in segment_clips(10, even(7))]
        assert sizes == [2, 2, 2, 1, 1, 1, 1]

    def test_even_k_capped_at_n(self):
        assert segment_clips(3, even(7)) == [(0, 1), (1, 2), (2, 3)]

    @given(st.integers(1, 40), st.sampled_from(["two-split", "pair-split", "even"]))
    def test_partition_invariants(self, n, kind):
        strategy = SegmentationStrategy(kind) if kind != "even" else even(7)
        ranges = segment_clips(n, strategy)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(n))
        assert all(b > a for a, b in ranges)

    def test_even_partition_matches_loop(self):
        for strategy in [TWO, PAIR] + [even(k) for k in range(1, 13)]:
            for n in range(1, 201):
                assert segment_clips(n, strategy) \
                    == loop_segment_clips(n, strategy), (n, str(strategy))

    def test_parse_strategy(self):
        assert parse_strategy("even-5") == even(5)
        assert parse_strategy("two-split") == TWO
        with pytest.raises(ValueError):
            parse_strategy("bogus")


def cell_step(cell, x, state):
    """``_cell_forward`` on the raw input ``x``."""
    w, u, b = cell
    return _cell_forward(u, x @ w.T + b, state)


ZERO_STATE = (np.zeros(3), np.zeros(3))


class TestCellStep:
    def test_zero_weights_zero_hidden(self):
        cell = (np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        (h, c), _ = cell_step(cell, np.array([1.0, -2.0]), ZERO_STATE)
        assert not h.any() and not c.any()

    def test_state_stays_zero_under_zero_weights(self):
        cell = (np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        state = ZERO_STATE
        for _ in range(3):
            state, _ = cell_step(cell, np.zeros(2), state)
        assert not state[0].any()

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        p, q = 2, 3
        w, u, b = cell = (rng.normal(size=(4 * q, p)),
                          rng.normal(size=(4 * q, q)), rng.normal(size=4 * q))
        x = rng.normal(size=p)
        h_prev, c_prev = rng.normal(size=q), rng.normal(size=q)
        (h, c), _ = cell_step(cell, x, (h_prev, c_prev))

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for r in range(q):
            z = [float(w[g * q + r] @ x + u[g * q + r] @ h_prev + b[g * q + r])
                 for g in range(4)]
            ce = sig(z[1]) * c_prev[r] + sig(z[0]) * math.tanh(z[3])
            he = sig(z[2]) * math.tanh(ce)
            assert c[r] == pytest.approx(ce, abs=1e-12)
            assert h[r] == pytest.approx(he, abs=1e-12)

    def test_shape_mismatch(self):
        cell = (np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        with pytest.raises(ValueError):
            cell_step(cell, np.zeros(5), ZERO_STATE)


class TestLstmBackward:
    @pytest.mark.parametrize("width", ["d_s", "2q"])
    @pytest.mark.parametrize("steps", range(1, 7))
    def test_matches_per_step_cells(self, steps, width):
        q, d_s = 8, 6
        p = d_s if width == "d_s" else 2 * q
        rng = np.random.default_rng([steps, p])
        cell = (rng.normal(size=(4 * q, p)) * 0.5,
                rng.normal(size=(4 * q, q)) * 0.5, rng.normal(size=4 * q))
        # a batch of sequences of 1..steps steps: the shorter ones padded
        lengths = [steps, *rng.integers(1, steps + 1, size=3)]
        xs = [rng.normal(size=(n, p)) for n in lengths]
        dhs = [rng.normal(size=(n, q)) for n in lengths]
        h0, c0 = rng.normal(size=(2, len(lengths), q))
        # the views start non-zero, as they do for the second direction
        start = [rng.normal(size=a.shape) for a in cell]

        want = [a.copy() for a in start]
        want_dxs, want_dh0, want_dc0 = [], [], []
        for b, n in enumerate(lengths):
            # the per-vector oracle, checked by bytes one cell step at a time
            _, caches = oracle.lstm_forward(cell, xs[b], (h0[b], c0[b]))
            got_b = [np.zeros_like(a) for a in cell]
            dxs_b, dh_b, dc_b = oracle.lstm_backward(cell, caches, dhs[b], got_b)
            steps_b = [np.zeros_like(a) for a in cell]
            step_dxs = np.empty_like(xs[b])
            dh, dc = np.zeros(q), np.zeros(q)
            for t in range(n - 1, -1, -1):
                dw, du, db, dx, dh, dc = oracle.cell_backward_by_step(
                    cell, caches[t], dh + dhs[b][t], dc)
                steps_b[0] += dw
                steps_b[1] += du
                steps_b[2] += db
                step_dxs[t] = dx
            assert dxs_b.tobytes() == step_dxs.tobytes()
            assert (dh_b.tobytes(), dc_b.tobytes()) == (dh.tobytes(),
                                                        dc.tobytes())
            for g, w in zip(got_b, steps_b):
                assert g.tobytes() == w.tobytes()
            for acc, g in zip(want, got_b):
                acc += g
            want_dxs.append(dxs_b)
            want_dh0.append(dh_b)
            want_dc0.append(dc_b)

        x_stack, pad = padded(xs)
        _, cache = han_mod._lstm_forward(cell, x_stack, (h0, c0))
        got = [a.copy() for a in start]
        dxs, dh0, dc0 = han_mod._lstm_backward(cell, cache,
                                               padded(dhs)[0], got)
        assert_close_norm(dxs[pad.at], np.concatenate(want_dxs))
        assert not dxs[~pad.valid].any()
        assert_close_norm(dh0, want_dh0)
        assert_close_norm(dc0, want_dc0)
        for g, w in zip(got, want):
            assert_close_norm(g, w)


def bidir(fwd, bwd, seqs):
    """``_bidir_forward`` over a padded batch of ``seqs``, unpadded."""
    xs, pad = padded(seqs)
    hs = _bidir_forward(fwd, bwd, xs, pad)[0]
    return [hs[:len(x), b] for b, x in enumerate(seqs)]


class TestBidirectional:
    def make_cells(self, seed, p=3, q=4, shared=False):
        rng = np.random.default_rng(seed)

        def cell():
            return (rng.normal(size=(4 * q, p)) * 0.4,
                    rng.normal(size=(4 * q, q)) * 0.4,
                    rng.normal(size=4 * q) * 0.1)
        fwd = cell()
        return fwd, (fwd if shared else cell())

    def test_length_one(self):
        fwd, bwd = self.make_cells(0)
        x = np.random.default_rng(1).normal(size=(1, 3))
        hs = bidir(fwd, bwd, [x])[0]
        (h_fwd, _), _ = oracle.cell_forward(fwd, x[0])
        (h_bwd, _), _ = oracle.cell_forward(bwd, x[0])
        np.testing.assert_allclose(hs[0, :4], h_fwd)
        np.testing.assert_allclose(hs[0, 4:], h_bwd)

    def test_palindrome_symmetry(self):
        fwd, bwd = self.make_cells(2, shared=True)
        rng = np.random.default_rng(3)
        half = rng.normal(size=(3, 3))
        xs = np.concatenate([half, half[::-1]])
        # padded beside a longer sequence, it reads the same
        hs = bidir(fwd, bwd, [xs, rng.normal(size=(9, 3))])[0]
        # reversing a palindrome swaps forward and backward halves
        swapped = np.concatenate([hs[::-1, 4:], hs[::-1, :4]], axis=1)
        np.testing.assert_allclose(hs, swapped, atol=1e-12)

    def test_equals_two_unidirectional_runs(self):
        fwd, bwd = self.make_cells(4)
        rng = np.random.default_rng(5)
        seqs = [rng.normal(size=(n, 3)) for n in (6, 1, 4, 6, 2)]
        for xs, hs in zip(seqs, bidir(fwd, bwd, seqs)):
            state = None
            for t in range(len(xs)):
                state, _ = oracle.cell_forward(fwd, xs[t], state)
                np.testing.assert_allclose(hs[t, :4], state[0], atol=1e-12)
            state = None
            for t in range(len(xs) - 1, -1, -1):
                state, _ = oracle.cell_forward(bwd, xs[t], state)
                np.testing.assert_allclose(hs[t, 4:], state[0], atol=1e-12)


def pool(params, seqs):
    """``_attention_forward`` over a padded batch of ``seqs``."""
    hs, pad = padded(seqs)
    return _attention_forward(params, hs, pad.valid)[0]


class TestAttentionPool:
    def make_params(self, seed, h_dim=4, q_att=3):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(q_att, h_dim)), rng.normal(size=q_att),
                rng.normal(size=q_att))

    def test_single_vector_identity(self):
        params = self.make_params(0)
        h = np.random.default_rng(1).normal(size=(1, 4))
        np.testing.assert_allclose(pool(params, [h])[0], h[0], atol=1e-12)

    def test_identical_vectors_identity(self):
        params = self.make_params(2)
        h = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (5, 1))
        # the padding of a shorter column takes no weight
        pooled = pool(params, [h, h[:2], h[:1]])
        np.testing.assert_allclose(pooled, np.tile(h[0], (3, 1)), atol=1e-12)

    def test_matches_explicit_weighted_sum(self):
        params = proj, bias, query = self.make_params(3)
        rng = np.random.default_rng(4)
        seqs = [rng.normal(size=(n, 4)) for n in (6, 2, 1, 5)]
        for hs, pooled in zip(seqs, pool(params, seqs)):
            scores = np.array([query @ np.tanh(proj @ h + bias) for h in hs])
            weights = np.exp(scores) / np.exp(scores).sum()
            np.testing.assert_allclose(pooled, weights @ hs, atol=1e-12)
            assert weights.sum() == pytest.approx(1.0)


def mixed_videos(rng, count, d_c=5):
    """One long video and ``count - 1`` short ones, some of a single clip."""
    return [ClipFeatureSequence(rng.normal(size=(n, d_c)))
            for n in (int(rng.integers(15, 30)),
                      *rng.integers(1, 6, size=count - 1))]


class TestEncodeVideo:
    def test_even_seven_gives_seven_segments(self):
        ls, han = tiny_model()
        video = ClipFeatureSequence(np.random.default_rng(0).normal(
            size=(14, 5)))
        (clip_level, word_level), _ = encode_video(han, [video],
                                                   even(7)).cache
        assert clip_level[0].valid.shape == (2, 7)   # 7 segments of 2 clips
        assert word_level[0].valid.shape == (7, 1)   # one video of 7

    def test_single_segment_composition(self):
        ls, han = tiny_model(1)
        video = ClipFeatureSequence(np.random.default_rng(2).normal(
            size=(5, 5)))
        enc = encode_video(han, [video], even(1))
        clip_h, _ = oracle.bidir_forward(han.group("clip_fwd"),
                                         han.group("clip_bwd"),
                                         project_video(ls.t_v, video))
        seg_vec, _ = oracle.attention_forward(han.group("clip_att"), clip_h)
        word_h, _ = oracle.bidir_forward(han.group("word_fwd"),
                                         han.group("word_bwd"),
                                         seg_vec[None, :])
        u, _ = oracle.attention_forward(han.group("word_att"), word_h)
        np.testing.assert_allclose(enc.cache[-1][0], u, atol=1e-12)
        np.testing.assert_allclose(enc.h0[0],
                                   han["init_h.w"] @ u + han["init_h.b"],
                                   atol=1e-12)

    @pytest.mark.parametrize("strategy", [TWO, PAIR, even(3), even(7)],
                             ids=str)
    def test_batches_match_per_video_encoder(self, strategy):
        for case in range(12):
            rng = np.random.default_rng([case, *str(strategy).encode()])
            ls, han = init_params(rng, 6, 5, 10, int(rng.integers(2, 9)), 5)
            han.flat *= rng.uniform(0.5, 3.0)
            videos = mixed_videos(rng, case % 5 + 1)
            enc = encode_video(han, videos, strategy)
            for b, video in enumerate(videos):
                h0, c0, _ = oracle.encode_video(
                    han, project_video(ls.t_v, video),
                    segment_clips(video.n, strategy))
                assert_close_norm(enc.h0[b], h0)
                assert_close_norm(enc.c0[b], c0)


class TestEmission:
    def test_uniform_at_zero_params(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        h = np.random.default_rng(0).normal(size=8)
        p = np.exp(_emission(han, h))
        np.testing.assert_allclose(p, np.full(10, 0.1), atol=1e-12)

    def test_large_bias_is_stable(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        han["emit_b"][3] = 1000.0
        p = np.exp(_emission(han, np.zeros(8)))
        assert np.isfinite(p).all()
        assert p[3] == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_softmax(self):
        ls, han = tiny_model(5)
        h = np.random.default_rng(6).normal(size=8)
        logits = han["emit_w"] @ h + han["emit_b"]
        naive = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(np.exp(_emission(han, h)), naive,
                                   atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_distribution_invariants(self, seed):
        ls, han = tiny_model(seed % 7)
        h = np.random.default_rng(seed).normal(size=8) * 5
        p = np.exp(_emission(han, h))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p > 0).all()

    def test_stack_rows_match_single_states(self):
        # the teacher-forced stack and the decoder's single states score
        # the same numbers, within the bound of the batched kernels
        ls, han = tiny_model(4)
        hs = np.random.default_rng(8).normal(size=(9, 8)) * 3
        log_probs = _emission(han, hs)
        for t, h in enumerate(hs):
            assert_close_norm(log_probs[t], _emission(han, h))
        np.testing.assert_allclose(_emission(han, hs.reshape(3, 3, 8)),
                                   log_probs.reshape(3, 3, 10), rtol=1e-14)


class TestCoherenceLoss:
    def test_uniform_emission_value(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        video, sentence = tiny_instance(m=3)
        loss = coherence_loss(han, ls, video, sentence)
        assert loss == pytest.approx((3 + 1) * np.log(10), abs=1e-9)

    def test_bias_placement_matters(self):
        # biasing the #End symbol helps the final step; the same bias on a
        # token that is never a target only steals mass, so it must be worse
        ls, han = tiny_model()
        video, sentence = tiny_instance(m=2)
        han["emit_w"][...] = 0.0
        unused = next(t for t in range(2, 10) if t not in sentence.tokens)
        han["emit_b"][...] = 0.0
        han["emit_b"][1] = 3.0
        loss_end = coherence_loss(han, ls, video, sentence)
        han["emit_b"][...] = 0.0
        han["emit_b"][unused] = 3.0
        loss_unused = coherence_loss(han, ls, video, sentence)
        assert loss_end < loss_unused

    def test_matches_stepwise_accumulation(self):
        ls, han = tiny_model(7)
        video, sentence = tiny_instance(7, n=6, m=3)
        strategy = even(3)
        loss = coherence_loss(han, ls, video, sentence, strategy)
        latent = video.clips @ ls.t_v.T
        h0, c0, _ = oracle.encode_video(han, latent,
                                        segment_clips(video.n, strategy))
        state = (h0, c0)
        expected = 0.0
        for token, target in zip((0,) + sentence.tokens, sentence.tokens + (1,)):
            state, _ = oracle.cell_forward(han.group("decoder"),
                                           ls.t_s[:, token], state)
            expected -= _emission(han, state[0])[target]
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_permutation_sensitive(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            ls, han = tiny_model(seed + 20)
            video, _ = tiny_instance(seed, n=6, m=2)
            a, b = 2, 7
            l1 = coherence_loss(han, ls, video, Sentence((a, b)))
            l2 = coherence_loss(han, ls, video, Sentence((b, a)))
            if abs(l1 - l2) > 1e-9:
                return
        pytest.fail("coherence loss never distinguished word order")


class TestDecoding:
    def test_immediate_end_gives_empty_sentence(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        han["emit_b"][1] = 50.0
        video, _ = tiny_instance()
        assert greedy_decode(han, ls, video) == ()

    def test_max_len_truncation(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        han["emit_b"][4] = 50.0  # never emits #End
        video, _ = tiny_instance()
        assert greedy_decode(han, ls, video, max_len=3) == (4, 4, 4)

    def test_start_symbol_never_emitted(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        han["emit_b"][0] = 50.0  # favour #Start, which must be masked
        video, _ = tiny_instance()
        tokens = greedy_decode(han, ls, video, max_len=4)
        assert 0 not in tokens and 1 not in tokens

    def test_beam_one_matches_greedy(self):
        # the k=1 beam against a step-by-step argmax over the decoder
        for seed in range(8):
            ls, han = tiny_model(seed)
            video, _ = tiny_instance(seed)
            enc = encode_video(han, [video], han_mod.DEFAULT_STRATEGY)
            state = (enc.h0[0], enc.c0[0])
            w, _, b = han.group("decoder")
            token, argmax_tokens = 0, []
            while len(argmax_tokens) < 6:
                state, log_p = han_mod._decode_step(
                    han, ls.t_s[:, token] @ w.T + b, state)
                token = int(np.argmax(log_p))
                if token == 1:
                    break
                argmax_tokens.append(token)
            beam = kbest_decode(han, ls, video, k=1, max_len=6)
            assert beam[0][0] == tuple(argmax_tokens)
            assert greedy_decode(han, ls, video, max_len=6) == beam[0][0]

    def test_step_is_written_out_log_softmax(self):
        for seed in range(6):
            ls, han = tiny_model(seed, d_w=4 + seed)
            rng = np.random.default_rng(seed)
            state = (rng.normal(size=8), rng.normal(size=8))
            token = int(rng.integers(0, 4 + seed))
            w, _, b = han.group("decoder")
            (h, c), log_p = han_mod._decode_step(
                han, ls.t_s[:, token] @ w.T + b, state)
            (h_ref, c_ref), _ = cell_step(han.group("decoder"),
                                          ls.t_s[:, token], state)
            (h_old, c_old), _ = oracle.cell_forward(han.group("decoder"),
                                                    ls.t_s[:, token], state)
            assert_close_norm(h_ref, h_old)
            assert_close_norm(c_ref, c_old)
            logits = h_ref @ han["emit_w"].T + han["emit_b"]
            logits = logits - logits.max()
            expected = logits - np.log(np.exp(logits).sum())
            expected[0] = -np.inf
            assert log_p.tobytes() == expected.tobytes()
            assert h.tobytes() == h_ref.tobytes()
            assert c.tobytes() == c_ref.tobytes()
            # a stack of states, as the beam steps them: each row is its
            # single-state step, #Start masked in every row
            states = (rng.normal(size=(5, 8)), rng.normal(size=(5, 8)))
            tokens = rng.integers(0, 4 + seed, size=5)
            (hs, cs), log_ps = han_mod._decode_step(
                han, ls.t_s.T[tokens] @ w.T + b, states)
            assert log_ps.shape == (5, 4 + seed)
            assert (log_ps[:, 0] == -np.inf).all()
            for row, token in enumerate(tokens):
                (h, c), log_p = han_mod._decode_step(
                    han, ls.t_s[:, token] @ w.T + b,
                    (states[0][row], states[1][row]))
                assert_close_norm(hs[row], h)
                assert_close_norm(cs[row], c)
                assert_close_norm(log_ps[row, 1:], log_p[1:])

    def test_scores_non_increasing(self):
        ls, han = tiny_model(3)
        video, _ = tiny_instance(3)
        results = kbest_decode(han, ls, video, k=6, max_len=4)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_matches_exhaustive_enumeration(self):
        # vocabulary of size 3: #Start, #End, and one word
        ls, han = tiny_model(9, d_w=3)
        video, _ = tiny_instance(9, m=1, d_w=3)
        max_len = 2
        results = kbest_decode(han, ls, video, k=9, max_len=max_len)

        # enumerate all sentences of length <= 2 over the single word (id 2);
        # a sentence shorter than max_len pays for its #End emission, a
        # truncated one does not
        def score(tokens):
            h0, c0, _ = oracle.encode_video(
                han, video.clips @ ls.t_v.T,
                segment_clips(video.n, han_mod.DEFAULT_STRATEGY))
            state = (h0, c0)
            total = 0.0
            prev = 0
            for w in list(tokens) + ([1] if len(tokens) < max_len else []):
                state, _ = oracle.cell_forward(han.group("decoder"),
                                               ls.t_s[:, prev], state)
                total += float(_emission(han, state[0])[w])
                prev = w
            return total

        expected = sorted(
            [(tokens, score(tokens))
             for tokens in [(), (2,), (2, 2)]],
            key=lambda x: -x[1])
        assert [t for t, _ in results] == [t for t, _ in expected]
        for (ta, sa), (tb, sb) in zip(results, expected):
            assert sa == pytest.approx(sb, abs=1e-9)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_ties_break_by_tokens(self, k):
        # zero emission parameters make every extension equally likely;
        # #Start, #End and two words, so 7 sentences of at most 2 words
        ls, han = tiny_model(11, d_w=4)
        han["emit_w"] = 0.0
        han["emit_b"] = 0.0
        video, _ = tiny_instance(11, m=1, d_w=4)
        log_p = -np.log(4.0)
        expected = sorted(
            [((), log_p)]
            + [((w,), log_p + log_p) for w in (2, 3)]   # ended by #End
            + [(pair, log_p + log_p)                     # cut at max_len
               for pair in itertools.product((2, 3), repeat=2)],
            key=lambda h: (-h[1], h[0]))
        assert kbest_decode(han, ls, video, k=k, max_len=2) == expected[:k]


def end_at_second_step(seed):
    """A tiny model whose decoder runs the same states from any input:
    every gate open and the candidate 1, so c_t = t. #End is all but
    impossible at the first step and all but certain at the second."""
    ls, han = tiny_model(seed)
    for name in ("decoder.w", "decoder.u", "init_c.w", "init_c.b", "emit_w"):
        han[name] = 0.0
    han["decoder.b"] = 20.0
    # the #End logit is 100 (h_1 + ... + h_8) - 688: -79 at c = 1, +83 at c = 2
    han["emit_w"][END_INDEX] = 100.0
    han["emit_b"][END_INDEX] = -688.0
    han["emit_b"][2:] = np.linspace(0.0, 1.0, 8)
    return ls, han


def one_survivor_at_second_step(seed):
    """A tiny model whose decoder runs the same states from any input, with
    c_t = t - 1.5 in unit 0 and t - 2.5 in unit 1, so that the #End logit
    100 (h_0 - h_1) - 86.4 is +6 at the second step and below -40 at every
    other. Words hold fixed logits: word 2 at 5, words 3..9 at 0, -0.01, ...,
    -0.07. A beam of k >= 2 keeps word 2 and the next k - 1 words, then
    ends word 2 and the next k - 2 parents on #End and extends word 2 by
    word 2: k - 1 hypotheses finish at one step, too few for the stop, and
    the one survivor grows back to k at the third step."""
    ls, han = tiny_model(seed)
    for name in ("decoder.w", "decoder.u", "init_c.w", "emit_w"):
        han[name] = 0.0
    han["decoder.b"] = 20.0
    han["init_c.b"][:2] = (-1.5, -2.5)
    han["emit_w"][END_INDEX, :2] = (100.0, -100.0)
    han["emit_b"][END_INDEX] = -86.4
    han["emit_b"][2] = 5.0
    han["emit_b"][3:] = -0.01 * np.arange(7)
    return ls, han


def beam_models():
    """(name, ls, han, video): seeded tiny models as drawn, with #End made
    likelier, so that beams shrink to one live hypothesis and grow again,
    ``end_at_second_step`` and ``one_survivor_at_second_step``. Over twelve
    seeds, a k = 2 beam also shrinks to its second row with a hypothesis
    that stays among the k best."""
    for seed in range(12):
        video, _ = tiny_instance(seed)
        ls, han = tiny_model(seed)
        yield "drawn", ls, han, video
        for bias in (0.2, 1.0):   # k = 2 regrows only near 0.2
            ls, han = tiny_model(seed)
            han["emit_b"][END_INDEX] += bias
            yield "end-favoured", ls, han, video
        yield ("end-at-second-step",) + end_at_second_step(seed) + (video,)
        yield (("one-survivor-at-second-step",)
               + one_survivor_at_second_step(seed) + (video,))


class TestStackedBeam:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_per_hypothesis_oracle(self, k, monkeypatch):
        # ``widths`` records how many states each step of the stacked beam
        # runs, to show that the cases named in ``beam_models`` occur
        widths = []
        step = han_mod._decode_step

        def recorded(han, zx, state):
            widths.append(len(state[0]) if state[0].ndim == 2 else 1)
            return step(han, zx, state)

        monkeypatch.setattr(han_mod, "_decode_step", recorded)
        regrown = 0
        for name, ls, han, video in beam_models():
            for max_len in range(1, 7):
                args = (han, ls, video, han_mod.DEFAULT_STRATEGY, k, max_len)
                want = oracle.kbest_decode(*args)
                widths.clear()
                got = kbest_decode(*args)
                assert [t for t, _ in got] == [t for t, _ in want]
                if k == 1:
                    assert np.array([s for _, s in got]).tobytes() == \
                        np.array([s for _, s in want]).tobytes()
                for (_, a), (_, b) in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b)
                assert widths[0] == 1 and max(widths) <= k
                if name == "end-at-second-step" and max_len >= 2:
                    assert widths == [1, k]   # every hypothesis ended on #End
                    assert [len(t) for t, _ in got] == [1] * k
                if name == "one-survivor-at-second-step" and max_len >= 4 \
                        and k > 1:
                    assert widths[:4] == [1, k, 1, k]
                # a stack, then a single state, then a stack again
                regrown += bool(re.search(r"S1+S", "".join(
                    "S" if w > 1 else "1" for w in widths)))
        assert (regrown > 0) == (k > 1)


class TestStateShape:
    """One state shape per search, chosen by k: greedy decoding steps one
    (q,) vector, a beam of k >= 2 an (L, q) stack from first step to last."""

    def test_greedy_steps_one_vector(self, monkeypatch):
        inputs = decode_step_calls(monkeypatch)
        for name, ls, han, video in beam_models():
            inputs.clear()
            greedy_decode(han, ls, video)
            kbest_decode(han, ls, video, k=1)
            assert inputs and {ndim for ndim, _ in inputs} == {1}, name

    @pytest.mark.parametrize("k", range(2, 9))
    def test_beam_steps_one_stack(self, k, monkeypatch):
        inputs = decode_step_calls(monkeypatch)
        for name, ls, han, video in beam_models():
            inputs.clear()
            kbest_decode(han, ls, video, k=k)
            assert inputs[0] == (2, 1), name   # a stack of one at the start
            assert {ndim for ndim, _ in inputs} == {2}, name

    # tiny_model seeds as drawn whose k-beam narrows to one live hypothesis
    # after its first step and grows again
    @pytest.mark.parametrize("seed,k", [(13, 2), (58, 3)])
    def test_a_beam_narrowed_to_one_stays_a_stack(self, seed, k,
                                                  monkeypatch):
        ls, han = tiny_model(seed)
        video, _ = tiny_instance(seed)
        args = (han, ls, video, han_mod.DEFAULT_STRATEGY, k,
                han_mod.MAX_DECODE_LEN)
        want = oracle.kbest_decode(*args)
        inputs = decode_step_calls(monkeypatch)
        got = kbest_decode(*args)
        widths = "".join(str(width) for _, width in inputs)
        assert re.search(r"[2-9]1+[2-9]", widths), widths
        assert {ndim for ndim, _ in inputs} == {2}
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) <= 1e-12 * abs(b)


def tie_at_second_step(seed):
    """A tiny model whose decoder runs the same states from any input, every
    gate exactly 1 and c_t = t - 1, so h_1 = 0 exactly. #End and word 2
    share their logits, and word 3 ties with them at the first step only.
    A k = 3 beam finishes (), (2,) and (3,) and keeps (2, 2), whose score
    equals that of (3,) exactly and whose tokens sort first."""
    ls, han = tiny_model(seed)
    for name in ("decoder.w", "decoder.u", "init_c.w", "emit_w", "emit_b"):
        han[name] = 0.0
    han["decoder.b"] = 80.0   # sigmoid and tanh round to exactly 1
    han["init_c.b"] = -1.0
    han["emit_w"][3] = -1.0
    han["emit_b"][4:] = -10.0
    return ls, han


def decode_step_calls(monkeypatch):
    """A list that grows by one entry per ``_decode_step`` call: the
    ``zx.ndim`` of its inputs and the number of states it steps."""
    calls = []
    step = han_mod._decode_step

    def counted(han, zx, state):
        calls.append((zx.ndim, len(state[0]) if state[0].ndim == 2 else 1))
        return step(han, zx, state)

    monkeypatch.setattr(han_mod, "_decode_step", counted)
    return calls


def long_beams():
    """(ls, han, video) of seeded tiny models as drawn whose beams keep a
    live hypothesis for all ``MAX_DECODE_LEN`` steps at every k >= 2, while
    their k best settle within a dozen steps."""
    for seed in (5, 6, 7):
        video, _ = tiny_instance(seed)
        yield tiny_model(seed) + (video,)


class TestBeamStop:
    def test_long_beams_match_the_unstopped_oracle(self, monkeypatch):
        calls = decode_step_calls(monkeypatch)
        max_len = han_mod.MAX_DECODE_LEN
        for ls, han, video in long_beams():
            for k in range(1, 9):
                args = (han, ls, video, han_mod.DEFAULT_STRATEGY, k, max_len)
                calls.clear()
                want = oracle.kbest_decode(*args)
                at_max_len = len(calls)
                calls.clear()
                oracle.kbest_decode(*args[:-1], max_len + 1)
                # the beam does not empty: one step more costs more calls
                assert k == 1 or len(calls) > at_max_len
                got = kbest_decode(*args)
                assert [t for t, _ in got] == [t for t, _ in want]
                if k == 1:
                    assert np.array([s for _, s in got]).tobytes() == \
                        np.array([s for _, s in want]).tobytes()
                for (_, a), (_, b) in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b)

    def test_stops_well_before_max_len(self, monkeypatch):
        calls = decode_step_calls(monkeypatch)
        for ls, han, video in long_beams():
            for k in range(2, 9):
                calls.clear()
                kbest_decode(han, ls, video, han_mod.DEFAULT_STRATEGY, k,
                             han_mod.MAX_DECODE_LEN)
                assert len(calls) <= han_mod.MAX_DECODE_LEN // 2, k

    def test_a_tie_with_the_kth_finished_goes_on(self, monkeypatch):
        ls, han = tie_at_second_step(0)
        video, _ = tiny_instance(0)
        args = (han, ls, video, han_mod.DEFAULT_STRATEGY)
        # the tie itself: after two steps, (2, 2) scores exactly as (3,)
        four = oracle.kbest_decode(*args, 4, 2)
        assert [t for t, _ in four] == [(), (2,), (2, 2), (3,)]
        assert four[2][1] == four[3][1]
        calls = decode_step_calls(monkeypatch)
        for max_len in (2, 3):
            want = oracle.kbest_decode(*args, 3, max_len)
            calls.clear()
            got = kbest_decode(*args, 3, max_len)
            assert len(calls) == max_len   # the search went on after the tie
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert abs(a - b) <= 1e-12 * abs(b)
        # the live hypothesis, not the tied finished one, is third
        assert [t for t, _ in kbest_decode(*args, 3, 2)] == [(), (2,), (2, 2)]


class TestCoherenceGrad:
    @pytest.mark.parametrize("strategy", [TWO, PAIR, even(3), even(7)],
                             ids=str)
    def test_matches_step_loops(self, strategy):
        # 1-9 words (numpy sums more than 8 terms pairwise), drawn from three
        # words so that tokens repeat
        repeated = 0
        for case in range(45):
            m = case % 9 + 1
            rng = np.random.default_rng([case, *str(strategy).encode()])
            ls, han = init_params(rng, 6, 5, 10, int(rng.integers(2, 9)), 5)
            han.flat *= rng.uniform(0.5, 3.0)
            words = rng.choice(np.arange(2, 10), size=3, replace=False)
            sentence = Sentence(tuple(int(w) for w in rng.choice(words, m)))
            video = ClipFeatureSequence(rng.normal(size=(m + int(
                rng.integers(0, 12)), 5)))
            repeated += len(set(sentence.tokens)) < m
            (loss,), grads = coherence_grad(han, ls, [(video, sentence)],
                                            strategy, Parameters(han.layout))
            want_loss, want = oracle.coherence_grad(han, ls, video, sentence,
                                                    strategy)
            assert_close_arrays(grads, want)
            assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
            assert loss == coherence_loss(han, ls, video, sentence, strategy)
        assert repeated >= 20

    @pytest.mark.parametrize("strategy", [TWO, PAIR, even(3), even(7)],
                             ids=str)
    def test_batches_match_per_instance_sum(self, strategy):
        # mixed batches, B = 1 to 5: a long video beside short ones, single
        # clips and one-word sentences among them
        one_word = 0
        for case in range(24):
            rng = np.random.default_rng([case, 7, *str(strategy).encode()])
            ls, han = init_params(rng, 6, 5, 10, int(rng.integers(2, 9)), 5)
            han.flat *= rng.uniform(0.5, 3.0)
            batch = []
            for video in mixed_videos(rng, case % 5 + 1):
                m = int(rng.integers(1, min(video.n, 8) + 1))
                batch.append((video, Sentence(tuple(
                    int(w) for w in rng.integers(2, 10, size=m)))))
                one_word += m == 1
            losses, grads = coherence_grad(han, ls, batch, strategy,
                                           Parameters(han.layout))
            want = Parameters(han.layout)
            for (video, sentence), loss in zip(batch, losses, strict=True):
                want_loss, g = oracle.coherence_grad(han, ls, video, sentence,
                                                     strategy)
                want.flat += g.flat
                assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
            assert_close_arrays(grads, want)
        assert one_word >= 5

    def test_emission_bias_closed_form(self):
        ls, han = tiny_model(13)
        video, sentence = tiny_instance(13, n=5, m=2)
        _, fwd = han_mod._coherence_forward(han, ls, [(video, sentence)],
                                            han_mod.DEFAULT_STRATEGY)
        probs, targets = np.exp(fwd[-1]), fwd[3]
        expected = sum(p - np.eye(10)[t] for p, t in zip(probs, targets))
        _, grads = coherence_grad(han, ls, [(video, sentence)],
                                  han_mod.DEFAULT_STRATEGY,
                                  Parameters(han.layout))
        np.testing.assert_allclose(grads["emit_b"], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        # even-3 splits the 5 clips 2, 2, 1, so the clip-attention pool's
        # softmax has a gradient; grad_check differences every entry
        cfg = TrainingConfig(lambda1=0.0, lambda2=0.0, latent_dim=3,
                             hidden_size=2, attention_size=2, seed=seed + 30,
                             strategy=even(3))
        report = grad_check([tiny_instance(seed + 30, n=5, m=2)], cfg)
        assert report.checked_instances == 1
        assert report.failed == [], report.max_rel_error


class TestParameterLayout:
    def test_arrays_view_one_buffer_in_layout_order(self):
        ls, han = tiny_model()
        assert [(name, arr.shape) for name, arr in han.items()] == \
            param_layout(6, 5, 10, 8, 5)
        base = han.flat.__array_interface__["data"][0]
        offset = 0
        for name, arr in han.items():
            assert np.shares_memory(arr, han.flat), name
            assert arr.__array_interface__["data"][0] == base + 8 * offset, name
            offset += arr.size
        assert offset == han.flat.size
        assert ls.t_v is han["t_v"] and ls.t_s is han["t_s"]


class TestCheckpoint:
    def test_fixture_resaves_byte_for_byte(self, tmp_path):
        path = tmp_path / "standard.lshn"
        _, han, strategy = load_checkpoint(FIXTURE)
        save_checkpoint(path, han, strategy)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_roundtrip(self, tmp_path):
        ls, han = tiny_model(17)
        path = tmp_path / "model.lshn"
        save_checkpoint(path, han, even(5))
        ls2, han2, strategy = load_checkpoint(path)
        assert strategy == even(5)
        np.testing.assert_array_equal(ls.t_v, ls2.t_v)
        np.testing.assert_array_equal(ls.t_s, ls2.t_s)
        for (na, a), (nb, b) in zip(han_param_items(han), han_param_items(han2)):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        _, han = tiny_model(18)
        path = tmp_path / "model.lshn"
        save_checkpoint(path, han, even(5))
        before = path.read_bytes()
        han.flat += 1.0

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(han_mod.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(path, han, even(5))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.lshn"]

    def test_syncs_the_file_before_the_rename(self, tmp_path, monkeypatch):
        _, han = tiny_model(19)
        path = tmp_path / "model.lshn"
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            # the size shows whether the bytes reached the file before the sync
            calls.append(("fsync", kind, info.st_ino,
                          info.st_size if kind == "file" else None))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(han_mod.os, "fsync", recording_fsync)
        monkeypatch.setattr(han_mod.os, "replace", recording_replace)
        save_checkpoint(path, han, even(5))
        saved = path.stat()
        assert calls == [
            ("fsync", "file", saved.st_ino, saved.st_size),
            ("replace", "model.lshn.tmp", "model.lshn"),
            ("fsync", "dir", tmp_path.stat().st_ino, None)]
        assert saved.st_size == 36 + 8 * han.flat.size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lshn"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)
