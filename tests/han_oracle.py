"""The per-vector HAN, one LSTM state and one instance at a time: the oracle
that the batched kernels of ``lshan.han`` are tested against.

Every function here steps a single sequence; ``coherence_grad`` takes one
instance and sums each per-step term from zero in reverse step order, as
backprop visits them. ``_lstm_backward`` is itself checked step by step
against ``cell_backward_by_step``. ``kbest_decode`` runs one single-state
decoder step per live hypothesis.
"""

import math

import numpy as np

from lshan import han as han_mod
from lshan.corpus import END_INDEX, START_INDEX
from lshan.han import Parameters, segment_clips
from lshan.latent_space import project_video


def _sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def cell_forward(cell, x, state=None):
    """One LSTM step of ``cell`` = (w, u, b); returns ((h, c), cache)."""
    w, u, b = cell
    q = u.shape[1]
    if state is None:
        state = (np.zeros(q), np.zeros(q))
    h_prev, c_prev = state
    z = w @ x + u @ h_prev + b
    ifo = _sigmoid(z[:3 * q])
    i, f, o = ifo[:q], ifo[q:2 * q], ifo[2 * q:]
    g = np.tanh(z[3 * q:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return (h, c), (x, h_prev, c_prev, ifo, g, tc)


def cell_backward_by_step(cell, cache, dh, dc):
    """One reverse LSTM step taken on its own, returning its parameter and
    input gradients: the per-step oracle of ``lstm_backward``."""
    w, u, _ = cell
    x, h_prev, c_prev, ifo, g, tc = cache
    q = len(g)
    i, f, o = ifo[:q], ifo[q:2 * q], ifo[2 * q:]
    do = dh * tc
    dc = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dc * f
    dz = np.concatenate([np.concatenate([dc * g, dc * c_prev, do])
                         * ifo * (1 - ifo), dc * i * (1 - g * g)])
    dw = dz[:, None] * x
    du = dz[:, None] * h_prev
    dx = w.T @ dz
    dh_prev = u.T @ dz
    return dw, du, dz, dx, dh_prev, dc_prev


def lstm_forward(cell, xs, state=None):
    hs = np.empty((len(xs), cell[1].shape[1]))
    caches = []
    for t, x in enumerate(xs):
        (h, c), cache = cell_forward(cell, x, state)
        state = (h, c)
        hs[t] = h
        caches.append(cache)
    return hs, caches


def lstm_backward(cell, caches, dhs, dcell):
    """Accumulate the cell's grads into the views ``dcell``; return
    ``(dxs, dh0, dc0)``. Each step adds its terms in reverse step order."""
    w, u, _ = cell
    gw, gu, gb = dcell
    q = u.shape[1]
    dh = np.zeros(q)
    dc = np.zeros(q)
    dxs = np.empty((len(caches), w.shape[1]))
    for t in range(len(caches) - 1, -1, -1):
        x, h_prev, c_prev, ifo, g, tc = caches[t]
        i, f, o = ifo[:q], ifo[q:2 * q], ifo[2 * q:]
        dh = dh + dhs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([np.concatenate([dc * g, dc * c_prev, dh * tc])
                             * ifo * (1 - ifo), dc * i * (1 - g * g)])
        dc = dc * f
        gw += dz[:, None] * x
        gu += dz[:, None] * h_prev
        gb += dz
        dxs[t] = w.T @ dz
        dh = u.T @ dz
    return dxs, dh, dc


def bidir_forward(fwd, bwd, xs):
    hf, cf = lstm_forward(fwd, xs)
    hb_rev, cb = lstm_forward(bwd, xs[::-1])
    return np.concatenate([hf, hb_rev[::-1]], axis=1), (cf, cb)


def bidir_backward(fwd, bwd, caches, dhs, dfwd, dbwd):
    cf, cb = caches
    q = fwd[1].shape[1]
    dxs_f, _, _ = lstm_backward(fwd, cf, dhs[:, :q], dfwd)
    dxs_b, _, _ = lstm_backward(bwd, cb, dhs[::-1, q:], dbwd)
    return dxs_f + dxs_b[::-1]


def attention_forward(params, hs):
    proj, bias, query = params
    a = np.tanh(hs @ proj.T + bias)
    scores = a @ query
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    return weights @ hs, (hs, a, weights)


def attention_backward(params, cache, dout, dparams):
    proj, _, query = params
    gproj, gbias, gquery = dparams
    hs, a, weights = cache
    dweights = hs @ dout
    dhs = weights[:, None] * dout
    dscores = weights * (dweights - weights @ dweights)
    da = dscores[:, None] * query
    gquery += a.T @ dscores
    dpre = da * (1.0 - a * a)
    gproj += dpre.T @ hs
    gbias += dpre.sum(axis=0)
    dhs += dpre @ proj
    return dhs


def encode_video(params, latent_clips, segmentation):
    """One video: each segment, then the segment-vector sequence, in turn.
    Returns (h0, c0, cache); the cache ends with the pooled video vector."""
    clip_fwd, clip_bwd = params.group("clip_fwd"), params.group("clip_bwd")
    seg_caches = []
    seg_vectors = np.empty((len(segmentation), 2 * clip_fwd[1].shape[1]))
    for s, (a, b) in enumerate(segmentation):
        hs, bid_cache = bidir_forward(clip_fwd, clip_bwd, latent_clips[a:b])
        seg_vectors[s], att_cache = attention_forward(params.group("clip_att"),
                                                      hs)
        seg_caches.append((bid_cache, att_cache))
    word_hs, word_bid_cache = bidir_forward(
        params.group("word_fwd"), params.group("word_bwd"), seg_vectors)
    u, word_att_cache = attention_forward(params.group("word_att"), word_hs)
    h0 = params["init_h.w"] @ u + params["init_h.b"]
    c0 = params["init_c.w"] @ u + params["init_c.b"]
    return h0, c0, (segmentation, seg_caches, word_bid_cache, word_att_cache,
                    seg_vectors, u)


def encode_backward(params, cache, dh0, dc0, grads, n_clips):
    segmentation, seg_caches, word_bid_cache, word_att_cache, _, u = cache
    for name, d in (("init_h", dh0), ("init_c", dc0)):
        gw, gb = grads.group(name)
        gw += d[:, None] * u
        gb += d
    du = params["init_h.w"].T @ dh0 + params["init_c.w"].T @ dc0
    dword_hs = attention_backward(params.group("word_att"), word_att_cache,
                                  du, grads.group("word_att"))
    dseg = bidir_backward(params.group("word_fwd"), params.group("word_bwd"),
                          word_bid_cache, dword_hs, grads.group("word_fwd"),
                          grads.group("word_bwd"))
    clip_fwd, clip_bwd = params.group("clip_fwd"), params.group("clip_bwd")
    dlatent = np.zeros((n_clips, clip_fwd[0].shape[1]))
    for s, (a, b) in enumerate(segmentation):
        bid_cache, att_cache = seg_caches[s]
        dhs = attention_backward(params.group("clip_att"), att_cache, dseg[s],
                                 grads.group("clip_att"))
        dlatent[a:b] = bidir_backward(clip_fwd, clip_bwd, bid_cache, dhs,
                                      grads.group("clip_fwd"),
                                      grads.group("clip_bwd"))
    return dlatent


def coherence_grad(han, ls, video, sentence, strategy):
    """One instance's coherence loss and gradient, the emission and its
    gradient taken one decoder step at a time, the loss as
    ``log(e / e.sum())``."""
    h0, c0, cache = encode_video(han, project_video(ls.t_v, video),
                                 segment_clips(video.n, strategy))
    input_tokens = (START_INDEX,) + sentence.tokens
    targets = sentence.tokens + (END_INDEX,)
    hs, caches = lstm_forward(han.group("decoder"),
                              ls.t_s[:, input_tokens].T, (h0, c0))
    probs = []
    loss = 0.0
    for h, target in zip(hs, targets):
        logits = han["emit_w"] @ h + han["emit_b"]
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        loss -= float(np.log(p[target]))
        probs.append(p)
    grads = Parameters(han.layout)
    dhs = np.empty_like(hs)
    for t in range(len(hs) - 1, -1, -1):
        dlogits = probs[t].copy()
        dlogits[targets[t]] -= 1.0
        grads["emit_w"] += np.outer(dlogits, hs[t])
        grads["emit_b"] += dlogits
        dhs[t] = han["emit_w"].T @ dlogits
    dxs, dh0, dc0 = lstm_backward(han.group("decoder"), caches, dhs,
                                  grads.group("decoder"))
    for t in range(len(dxs) - 1, -1, -1):
        grads["t_s"][:, input_tokens[t]] += dxs[t]
    dlatent = encode_backward(han, cache, dh0, dc0, grads, video.n)
    grads["t_v"] = dlatent.T @ video.clips
    return loss, grads


def kbest_decode(han, ls, video, strategy, k, max_len):
    """The beam search of ``lshan.han.kbest_decode``, one ``_decode_step``
    on one (q,) state per live hypothesis."""
    enc = han_mod.encode_video(han, [video], strategy)
    w, _, b = han.group("decoder")
    word_zx = ls.t_s.T @ w.T + b
    # live hypotheses (tokens, score, state), all one length, sorted by tokens
    live = [((), 0.0, (enc.h0[0], enc.c0[0]))]
    finished = []
    n_words = ls.t_s.shape[1]
    for _ in range(max_len):
        steps = [han_mod._decode_step(han, word_zx[tokens[-1] if tokens
                                                   else START_INDEX], state)
                 for tokens, _, state in live]
        cand = np.concatenate([score + log_p for (_, score, _), (_, log_p)
                               in zip(live, steps)])
        best = np.argsort(-cand, kind="stable")[:k].tolist()
        extended = []
        for i in sorted(best):
            score = float(cand[i])
            if not math.isfinite(score):
                continue
            parent, word = divmod(i, n_words)
            tokens = live[parent][0] + (word,)
            if word == END_INDEX:
                finished.append((tokens[:-1], score))
            else:
                extended.append((tokens, score, steps[parent][0]))
        live = extended
        if not live:
            break
    finished.extend((tokens, score) for tokens, score, _ in live)
    finished.sort(key=lambda f: (-f[1], f[0]))
    return finished[:k]
