import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import han as han_mod
from lshan.corpus import ClipFeatureSequence, Sentence
from lshan.han import (
    SegmentationStrategy, _attention_forward, _bidir_forward, _cell_forward,
    _emission_log_probs, coherence_grad, coherence_loss, encode_video,
    greedy_decode, han_param_items, init_params, kbest_decode, load_checkpoint,
    param_layout, parse_strategy, save_checkpoint, segment_clips,
)

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

    def test_parse_strategy(self):
        assert parse_strategy("even-5") == even(5)
        assert parse_strategy("two-split") == TWO
        with pytest.raises(ValueError):
            parse_strategy("bogus")


class TestCellStep:
    def test_zero_weights_zero_hidden(self):
        cell = (np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        (h, c), _ = _cell_forward(cell, np.array([1.0, -2.0]))
        assert not h.any() and not c.any()

    def test_state_stays_zero_under_zero_weights(self):
        cell = (np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        state = None
        for _ in range(3):
            state, _ = _cell_forward(cell, np.zeros(2), state)
        assert not state[0].any()

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        p, q = 2, 3
        w, u, b = cell = (rng.normal(size=(4 * q, p)),
                          rng.normal(size=(4 * q, q)), rng.normal(size=4 * q))
        x = rng.normal(size=p)
        h_prev, c_prev = rng.normal(size=q), rng.normal(size=q)
        (h, c), _ = _cell_forward(cell, x, (h_prev, c_prev))

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
            _cell_forward(cell, np.zeros(5))


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
        hs = _bidir_forward(fwd, bwd, x)[0]
        (h_fwd, _), _ = _cell_forward(fwd, x[0])
        (h_bwd, _), _ = _cell_forward(bwd, x[0])
        np.testing.assert_allclose(hs[0, :4], h_fwd)
        np.testing.assert_allclose(hs[0, 4:], h_bwd)

    def test_palindrome_symmetry(self):
        fwd, bwd = self.make_cells(2, shared=True)
        rng = np.random.default_rng(3)
        half = rng.normal(size=(3, 3))
        xs = np.concatenate([half, half[::-1]])
        hs = _bidir_forward(fwd, bwd, xs)[0]
        # reversing a palindrome swaps forward and backward halves
        swapped = np.concatenate([hs[::-1, 4:], hs[::-1, :4]], axis=1)
        np.testing.assert_allclose(hs, swapped, atol=1e-12)

    def test_equals_two_unidirectional_runs(self):
        fwd, bwd = self.make_cells(4)
        xs = np.random.default_rng(5).normal(size=(6, 3))
        hs = _bidir_forward(fwd, bwd, xs)[0]
        state = None
        for t in range(6):
            state, _ = _cell_forward(fwd, xs[t], state)
            np.testing.assert_allclose(hs[t, :4], state[0], atol=1e-12)
        state = None
        for t in range(5, -1, -1):
            state, _ = _cell_forward(bwd, xs[t], state)
            np.testing.assert_allclose(hs[t, 4:], state[0], atol=1e-12)


class TestAttentionPool:
    def make_params(self, seed, h_dim=4, q_att=3):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(q_att, h_dim)), rng.normal(size=q_att),
                rng.normal(size=q_att))

    def test_single_vector_identity(self):
        params = self.make_params(0)
        h = np.random.default_rng(1).normal(size=(1, 4))
        np.testing.assert_allclose(_attention_forward(params, h)[0], h[0],
                                   atol=1e-12)

    def test_identical_vectors_identity(self):
        params = self.make_params(2)
        h = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (5, 1))
        np.testing.assert_allclose(_attention_forward(params, h)[0], h[0],
                                   atol=1e-12)

    def test_matches_explicit_weighted_sum(self):
        params = proj, bias, query = self.make_params(3)
        hs = np.random.default_rng(4).normal(size=(6, 4))
        scores = np.array([query @ np.tanh(proj @ h + bias) for h in hs])
        weights = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(_attention_forward(params, hs)[0],
                                   weights @ hs, atol=1e-12)
        assert weights.sum() == pytest.approx(1.0)


class TestEncodeVideo:
    def test_even_seven_gives_seven_segments(self):
        ls, han = tiny_model()
        clips = np.random.default_rng(0).normal(size=(14, 6))
        enc = encode_video(han, clips, segment_clips(14, even(7)))
        assert len(enc.cache[1]) == 7

    def test_rejects_bad_segmentation(self):
        ls, han = tiny_model()
        clips = np.zeros((4, 6))
        with pytest.raises(ValueError):
            encode_video(han, clips, [(0, 2), (3, 4)])

    def test_single_segment_composition(self):
        ls, han = tiny_model(1)
        clips = np.random.default_rng(2).normal(size=(5, 6))
        enc = encode_video(han, clips, [(0, 5)])
        clip_h, _ = _bidir_forward(han.group("clip_fwd"), han.group("clip_bwd"),
                                   clips)
        seg_vec, _ = _attention_forward(han.group("clip_att"), clip_h)
        word_h, _ = _bidir_forward(han.group("word_fwd"), han.group("word_bwd"),
                                   seg_vec[None, :])
        u, _ = _attention_forward(han.group("word_att"), word_h)
        np.testing.assert_allclose(enc.cache[-1], u, atol=1e-12)
        np.testing.assert_allclose(enc.h0, han["init_h.w"] @ u + han["init_h.b"],
                                   atol=1e-12)


class TestEmission:
    def test_uniform_at_zero_params(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        h = np.random.default_rng(0).normal(size=8)
        p = np.exp(_emission_log_probs(han, h))
        np.testing.assert_allclose(p, np.full(10, 0.1), atol=1e-12)

    def test_large_bias_is_stable(self):
        ls, han = tiny_model()
        han["emit_w"][...] = 0.0
        han["emit_b"][...] = 0.0
        han["emit_b"][3] = 1000.0
        p = np.exp(_emission_log_probs(han, np.zeros(8)))
        assert np.isfinite(p).all()
        assert p[3] == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_softmax(self):
        ls, han = tiny_model(5)
        h = np.random.default_rng(6).normal(size=8)
        logits = han["emit_w"] @ h + han["emit_b"]
        naive = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(np.exp(_emission_log_probs(han, h)), naive,
                                   atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_distribution_invariants(self, seed):
        ls, han = tiny_model(seed % 7)
        h = np.random.default_rng(seed).normal(size=8) * 5
        p = np.exp(_emission_log_probs(han, h))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p > 0).all()


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
        enc = encode_video(han, latent, segment_clips(video.n, strategy))
        state = (enc.h0, enc.c0)
        expected = 0.0
        for token, target in zip((0,) + sentence.tokens, sentence.tokens + (1,)):
            state, _ = _cell_forward(han.group("decoder"), ls.t_s[:, token],
                                     state)
            expected -= _emission_log_probs(han, state[0])[target]
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
            state = han_mod._decode_init(han, ls, video,
                                         han_mod.DEFAULT_STRATEGY)
            token, argmax_tokens = 0, []
            while len(argmax_tokens) < 6:
                state, log_p = han_mod._decode_step(han, ls, state, token)
                token = int(np.argmax(log_p))
                if token == 1:
                    break
                argmax_tokens.append(token)
            beam = kbest_decode(han, ls, video, k=1, max_len=6)
            assert beam[0][0] == tuple(argmax_tokens)
            assert greedy_decode(han, ls, video, max_len=6) == beam[0][0]

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
            enc = encode_video(han, video.clips @ ls.t_v.T,
                               segment_clips(video.n, han_mod.DEFAULT_STRATEGY))
            state = (enc.h0, enc.c0)
            total = 0.0
            prev = 0
            for w in list(tokens) + ([1] if len(tokens) < max_len else []):
                state, _ = _cell_forward(han.group("decoder"), ls.t_s[:, prev],
                                         state)
                total += float(_emission_log_probs(han, state[0])[w])
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


class TestCoherenceGrad:
    def test_emission_bias_closed_form(self):
        ls, han = tiny_model(13)
        video, sentence = tiny_instance(13, n=5, m=2)
        _, fwd = han_mod._coherence_forward(han, ls, video, sentence,
                                            han_mod.DEFAULT_STRATEGY)
        probs, targets = fwd[5], fwd[3]
        expected = sum(p - np.eye(10)[t] for p, t in zip(probs, targets))
        _, grads = coherence_grad(han, ls, video, sentence)
        np.testing.assert_allclose(grads["emit_b"], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        ls, han = tiny_model(seed + 30)
        video, sentence = tiny_instance(seed + 30, n=5, m=2)
        strategy = even(3)
        value, grads = coherence_grad(han, ls, video, sentence, strategy)
        eps = 1e-5

        def loss():
            return coherence_loss(han, ls, video, sentence, strategy)

        assert value == loss()
        rng = np.random.default_rng(seed)
        for name, arr in han.items():
            grad = grads[name]
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            # spot-check a subset of entries per group to keep runtime sane
            idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for idx in idxs:
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss()
                flat[idx] = orig - eps
                down = loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(gflat[idx]), abs(numeric), 1e-4)
                assert abs(gflat[idx] - numeric) / denom <= 1e-4, \
                    f"{name}[{idx}]: analytic {gflat[idx]} vs numeric {numeric}"


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
        save_checkpoint(path, *load_checkpoint(FIXTURE))
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_roundtrip(self, tmp_path):
        ls, han = tiny_model(17)
        path = tmp_path / "model.lshn"
        save_checkpoint(path, ls, han, even(5))
        ls2, han2, strategy = load_checkpoint(path)
        assert strategy == even(5)
        np.testing.assert_array_equal(ls.t_v, ls2.t_v)
        np.testing.assert_array_equal(ls.t_s, ls2.t_s)
        for (na, a), (nb, b) in zip(han_param_items(han), han_param_items(han2)):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        ls, han = tiny_model(18)
        path = tmp_path / "model.lshn"
        save_checkpoint(path, ls, han, even(5))
        before = path.read_bytes()
        han.flat += 1.0

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(han_mod.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(path, ls, han, even(5))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.lshn"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lshn"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)
