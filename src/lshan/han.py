"""Hierarchical attention encoder-decoder over latent clip sequences.

Structure: clips are split into contiguous segments; each segment runs through
a bidirectional gated recurrent (LSTM) encoder and is attention-pooled into one
segment vector; the segment-vector sequence runs through a second bidirectional
encoder with its own attention pool, and the pooled video vector initializes
the decoder state through a learned affine map. The decoder is a single LSTM
consuming latent word vectors and emitting a softmax distribution over the
vocabulary at every step.

A batch of instances runs as one padded, time-major pass per recurrent layer,
so each time step is one step of every sequence in the batch. All forward
passes cache what the handwritten reverse-mode pass needs; the gradients are
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import END_INDEX, START_INDEX, ClipFeatureSequence, Sentence, read_bytes
from .latent_space import LatentSpaceParams, project_video, word_sums


# ---------------------------------------------------------------------------
# segmentation strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentationStrategy:
    """One of: two-split, pair-split, even-k (k contiguous near-equal parts)."""

    kind: str  # "two-split" | "pair-split" | "even"
    k: int = 7

    def __post_init__(self):
        if self.kind == "even" and not 1 <= self.k < 2 ** 32:   # a u32 on disk
            raise ValueError("even-k needs 1 <= k < 2**32")

    def __str__(self) -> str:
        return f"even-{self.k}" if self.kind == "even" else self.kind


DEFAULT_STRATEGY = SegmentationStrategy("even", 7)
MAX_DECODE_LEN = 30   # the most words one decode returns

_STRATEGY_CODES = {"two-split": 1, "pair-split": 2, "even": 3}
_STRATEGY_KINDS = {v: k for k, v in _STRATEGY_CODES.items()}


def parse_strategy(text: str) -> SegmentationStrategy:
    text = text.strip().lower()
    if text in ("two-split", "pair-split"):
        return SegmentationStrategy(text)
    if text.startswith("even-"):
        try:
            return SegmentationStrategy("even", int(text[5:]))
        except ValueError:
            pass
    raise ValueError(
        f"bad strategy {text!r}; expected two-split, pair-split, or even-<k>")


def segment_clips(n: int, strategy: SegmentationStrategy
                  ) -> list[tuple[int, int]]:
    """Contiguous, disjoint, covering half-open clip ranges: the even-k
    partition into ``k = min(K, n)`` parts, the first ``n mod k`` of them one
    clip longer, where K is 2 for two-split, ``ceil(n/2)`` for pair-split and
    ``strategy.k`` for even-k."""
    parts = {"two-split": 2, "pair-split": math.ceil(n / 2)}
    k = min(parts.get(strategy.kind, strategy.k), n)
    base, rem = divmod(n, k)
    ends = [s * base + min(s, rem) for s in range(k + 1)]
    return list(zip(ends, ends[1:]))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_layout(d_s: int, d_c: int, d_w: int, q: int, q_att: int
                 ) -> list[tuple[str, tuple[int, ...]]]:
    """Every trained array as ``(name, shape)``, in checkpoint and gradient order.

    The latent projections come first, then the HAN. A recurrent cell is
    ``w`` (4q, input), ``u`` (4q, q) and ``b`` (4q,), with gate rows ordered
    input, forget, output, candidate; an attention pool over 2q-dim states is
    a score projection, its bias and a context query.
    """
    def cell(name, p):
        return [(f"{name}.w", (4 * q, p)), (f"{name}.u", (4 * q, q)),
                (f"{name}.b", (4 * q,))]

    def attention(name):
        return [(f"{name}.proj", (q_att, 2 * q)), (f"{name}.bias", (q_att,)),
                (f"{name}.query", (q_att,))]

    return [("t_v", (d_s, d_c)), ("t_s", (d_s, d_w)),
            *cell("clip_fwd", d_s), *cell("clip_bwd", d_s), *attention("clip_att"),
            *cell("word_fwd", 2 * q), *cell("word_bwd", 2 * q),
            *attention("word_att"),
            ("init_h.w", (q, 2 * q)), ("init_h.b", (q,)),   # decoder state
            ("init_c.w", (q, 2 * q)), ("init_c.b", (q,)),   # initialization
            *cell("decoder", d_s),                          # input: latent words
            ("emit_w", (d_w, q)), ("emit_b", (d_w,))]       # softmax emission


class Parameters(Mapping):
    """Named arrays laid out back to back in one contiguous float64 buffer.

    ``flat`` is the buffer and every name maps to a reshaped view of its
    slice, so vector ops on ``flat`` act on all arrays at once. Assigning to a
    name writes into its slice. ``group(prefix)`` returns the views named
    ``prefix.*`` in layout order, e.g. a cell's (w, u, b).
    """

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]],
                 flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for _, shape in layout]
        self.layout = layout
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self._arrays: dict[str, np.ndarray] = {}
        groups: dict[str, list[np.ndarray]] = {}
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            view = self.flat[offset:offset + size].reshape(shape)
            self._arrays[name] = view
            groups.setdefault(name.split(".")[0], []).append(view)
            offset += size
        self._groups = {prefix: tuple(views) for prefix, views in groups.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value) -> None:
        self._arrays[name][...] = value

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def group(self, prefix: str) -> tuple[np.ndarray, ...]:
        return self._groups[prefix]

    def first_non_finite(self) -> str | None:
        """The first array in layout order holding a NaN or an infinity."""
        if np.all(np.isfinite(self.flat)):
            return None
        return next(name for name, arr in self.items()
                    if not np.all(np.isfinite(arr)))


def init_params(rng: np.random.Generator, d_s: int, d_c: int, d_w: int,
                q: int, q_att: int) -> tuple[LatentSpaceParams, Parameters]:
    """Glorot-uniform matrices and attention queries drawn in layout order;
    zero biases, except a forget-gate bias of 1 in every recurrent cell."""
    params = Parameters(param_layout(d_s, d_c, d_w, q, q_att))
    for name, arr in params.items():
        if arr.ndim == 2 or name.endswith(".query"):
            # a query vector draws like a (q_att, 1) column
            fan = arr.shape[0] + (arr.shape[1] if arr.ndim == 2 else 1)
            s = math.sqrt(6.0 / fan)
            arr[...] = rng.uniform(-s, s, size=arr.shape)
        elif name.endswith(".b") and name[:-2] + ".u" in params:
            arr[q:2 * q] = 1.0   # a recurrent cell's forget-gate bias
    # the projections start larger than the recurrent weights: the alignment
    # loss pulls them toward zero at a scale-independent rate, and a small
    # start collapses the latent space before the decoder can shape it
    params["t_v"] *= 4.0
    params["t_s"] *= 4.0
    return LatentSpaceParams(params["t_v"], params["t_s"]), params


def han_param_items(p: Parameters) -> list[tuple[str, np.ndarray]]:
    """The HAN's arrays: every layout entry after ``t_v`` and ``t_s``."""
    return list(p.items())[2:]


# ---------------------------------------------------------------------------
# padded batches, recurrent cell, bidirectional encoder, attention pool
# ---------------------------------------------------------------------------

class _Padding:
    """Sequences of ``lengths`` laid out back to back as rows, and their
    zero-padded time-major (T, B, ...) stack: sequence b is column b, its
    steps run from t = 0 and padding follows its last step."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths)
        steps = np.arange(lengths.max())[:, None]
        self.valid = steps < lengths   # (T, B), the real steps
        # each sequence read backwards, padding mapped to itself: the one
        # index reverses the inputs, the states and their gradients
        self.rev = np.where(self.valid, lengths - 1 - steps, steps)
        self.cols = np.arange(lengths.size)
        self.at = np.nonzero(self.valid.T)[::-1]   # (t, b) of row after row

    def stack(self, rows: np.ndarray) -> np.ndarray:
        out = np.zeros(self.valid.shape + rows.shape[1:])
        out[self.at] = rows
        return out

    def reverse(self, stack: np.ndarray) -> np.ndarray:
        return stack[self.rev, self.cols]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _cell_forward(u, zx, state):
    """One LSTM step of one (q,) state or a (B, q) stack of them (a padded
    batch's time step, or the live hypotheses of a beam), given the input's
    share ``zx`` = w x + b of the pre-activations; the recurrent weights
    ``u`` add the rest. Returns ((h, c), (ifo, g, tc))."""
    h_prev, c_prev = state
    q = u.shape[1]
    z = zx + h_prev @ u.T
    ifo = _sigmoid(z[..., :3 * q])   # the input, forget and output gates
    g = np.tanh(z[..., 3 * q:])
    c = ifo[..., q:2 * q] * c_prev + ifo[..., :q] * g
    tc = np.tanh(c)
    return (ifo[..., 2 * q:] * tc, c), (ifo, g, tc)


def _lstm_forward(cell, xs, state=None):
    """Run ``cell`` = (w, u, b) over the time-major stack ``xs`` (T, B, p)
    from ``state`` (zeros if None); returns the states (T, B, q) and the
    cache of ``_lstm_backward``. The input GEMM runs before the time loop."""
    w, u, b = cell
    steps, batch = xs.shape[:2]
    q = u.shape[1]
    zx = xs @ w.T + b
    hs, cs = np.empty((2, steps + 1, batch, q))
    hs[0], cs[0] = state if state is not None else (0.0, 0.0)
    ifo = np.empty((steps, batch, 3 * q))
    g, tc = np.empty((2, steps, batch, q))
    for t in range(steps):
        (hs[t + 1], cs[t + 1]), (ifo[t], g[t], tc[t]) = _cell_forward(
            u, zx[t], (hs[t], cs[t]))
    return hs[1:], (xs, hs, cs, ifo, g, tc)


def _lstm_backward(cell, cache, dhs, dcell):
    """Add the cell's gradients to the views ``dcell``; return ``(dxs, dh0,
    dc0)``, the gradients of the inputs and of the initial state.

    The reverse loop only carries dh and dc and keeps each step's dZ; the
    weight gradients ``dZ^T X``, ``dZ^T H_prev`` and the bias sum follow it
    as single GEMMs. A padded step follows its sequence's last step and gets
    no upstream gradient, so its dZ is exactly zero."""
    w, u, _ = cell
    gw, gu, gb = dcell
    xs, hs, cs, ifo, g, tc = cache
    steps, batch, q = g.shape
    # dZ = (dc g, dc c_prev, dh tanh(c), dc i) times each block's derivative
    local = np.stack([g, cs[:-1], tc, ifo[..., :q]], axis=2) * np.concatenate(
        [ifo * (1.0 - ifo), 1.0 - g * g], axis=-1).reshape(steps, batch, 4, q)
    dtc = ifo[..., 2 * q:] * (1.0 - tc * tc)
    dz = np.empty((steps, batch, 4, q))
    dh = np.zeros((batch, q))
    dc = np.zeros((batch, q))
    for t in range(steps - 1, -1, -1):
        dh = dh + dhs[t]
        dc = dc + dh * dtc[t]
        np.multiply(local[t], dc[:, None], out=dz[t])
        np.multiply(local[t, :, 2], dh, out=dz[t, :, 2])
        dc = dc * ifo[t, :, q:2 * q]
        dh = dz[t].reshape(batch, 4 * q) @ u
    dz = dz.reshape(steps * batch, 4 * q)
    gw += dz.T @ xs.reshape(steps * batch, -1)
    gu += dz.T @ hs[:-1].reshape(steps * batch, q)
    gb += dz.sum(axis=0)
    return (dz @ w).reshape(steps, batch, -1), dh, dc


def _bidir_forward(fwd, bwd, xs, pad: _Padding):
    """Forward and backward states of each column of ``xs``, side by side."""
    hf, cf = _lstm_forward(fwd, xs)
    hb, cb = _lstm_forward(bwd, pad.reverse(xs))
    return np.concatenate([hf, pad.reverse(hb)], axis=-1), (cf, cb)


def _bidir_backward(fwd, bwd, cache, dhs, pad: _Padding, dfwd, dbwd):
    cf, cb = cache
    q = fwd[1].shape[1]
    dxs_f, _, _ = _lstm_backward(fwd, cf, dhs[..., :q], dfwd)
    dxs_b, _, _ = _lstm_backward(bwd, cb, pad.reverse(dhs[..., q:]), dbwd)
    return dxs_f + pad.reverse(dxs_b)


def _attention_forward(params, hs, valid):
    """Attention pool under ``params`` = (proj, bias, query) of each column
    of ``hs`` (T, B, 2q) over its real steps ``valid``; padding scores -inf."""
    proj, bias, query = params
    a = np.tanh(hs @ proj.T + bias)   # (T, B, q_att)
    scores = np.where(valid, a @ query, -np.inf)
    e = np.exp(scores - scores.max(axis=0))
    weights = e / e.sum(axis=0)
    pooled = (weights[..., None] * hs).sum(axis=0)
    return pooled, (hs, a, weights)


def _attention_backward(params, cache, dout, dparams):
    proj, _, query = params
    gproj, gbias, gquery = dparams
    hs, a, weights = cache
    dweights = (hs * dout).sum(axis=-1)
    # softmax backward; a padded step has weight 0, so no gradient
    dscores = weights * (dweights - (weights * dweights).sum(axis=0))
    da = dscores[..., None] * query
    gquery += (a * dscores[..., None]).sum(axis=(0, 1))
    dpre = (da * (1.0 - a * a)).reshape(-1, a.shape[-1])
    gproj += dpre.T @ hs.reshape(-1, hs.shape[-1])
    gbias += dpre.sum(axis=0)
    return weights[..., None] * dout + (dpre @ proj).reshape(hs.shape)


# ---------------------------------------------------------------------------
# hierarchical encoding
# ---------------------------------------------------------------------------

_LEVELS = ("clip", "word")   # the clip encoder, then the segment encoder


@dataclass
class EncodedVideo:
    h0: np.ndarray  # (B, q) decoder initial hidden states
    c0: np.ndarray  # (B, q) decoder initial cell states
    cache: tuple    # ends with the pooled (B, 2q) video vectors


def encode_video(params: Parameters, videos: list[ClipFeatureSequence],
                 strategy: SegmentationStrategy) -> EncodedVideo:
    """Encode a batch of videos in one padded, time-major pass per level:
    every segment of every video through the clip encoder as one (T, S, d_s)
    stack, then the videos' segment-vector sequences as one (K, B, 2q)."""
    xs = np.concatenate([project_video(params["t_v"], v) for v in videos])
    segments = [segment_clips(v.n, strategy) for v in videos]
    pads = (_Padding([b - a for segs in segments for a, b in segs]),
            _Padding([len(segs) for segs in segments]))
    levels = []
    for level, pad in zip(_LEVELS, pads):
        hs, bid_cache = _bidir_forward(params.group(f"{level}_fwd"),
                                       params.group(f"{level}_bwd"),
                                       pad.stack(xs), pad)
        xs, att_cache = _attention_forward(params.group(f"{level}_att"), hs,
                                           pad.valid)
        levels.append((pad, bid_cache, att_cache))
    h0 = xs @ params["init_h.w"].T + params["init_h.b"]
    c0 = xs @ params["init_c.w"].T + params["init_c.b"]
    return EncodedVideo(h0, c0, (levels, xs))


def _encode_backward(params: Parameters, enc: EncodedVideo, dh0, dc0,
                     grads: Parameters) -> np.ndarray:
    """Gradients of the encoder's parameters into ``grads``; returns the
    gradient of the latent clips, row after row as ``encode_video`` reads
    them."""
    levels, u = enc.cache
    for name, d in (("init_h", dh0), ("init_c", dc0)):
        gw, gb = grads.group(name)
        gw += d.T @ u
        gb += d.sum(axis=0)
    d = dh0 @ params["init_h.w"] + dc0 @ params["init_c.w"]
    for level, (pad, bid_cache, att_cache) in zip(_LEVELS[::-1], levels[::-1]):
        dhs = _attention_backward(params.group(f"{level}_att"), att_cache, d,
                                  grads.group(f"{level}_att"))
        d = _bidir_backward(params.group(f"{level}_fwd"),
                            params.group(f"{level}_bwd"), bid_cache, dhs, pad,
                            grads.group(f"{level}_fwd"),
                            grads.group(f"{level}_bwd"))[pad.at]
    return d


# ---------------------------------------------------------------------------
# emission and coherence loss
# ---------------------------------------------------------------------------

def _emission(han: Parameters, hs: np.ndarray) -> np.ndarray:
    """The vocabulary log-softmax of decoder states ``hs`` (..., q)."""
    logits = hs @ han["emit_w"].T + han["emit_b"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _coherence_forward(han: Parameters, ls: LatentSpaceParams, batch,
                       strategy: SegmentationStrategy):
    """The per-instance losses of ``batch`` from one padded pass: the
    videos through ``encode_video``, the teacher-forced sentences through
    the decoder as one (T_m, B, d_s) stack."""
    enc = encode_video(han, [video for video, _ in batch], strategy)
    inputs = np.concatenate([(START_INDEX,) + s.tokens for _, s in batch])
    targets = np.concatenate([s.tokens + (END_INDEX,) for _, s in batch])
    lengths = [s.length + 1 for _, s in batch]
    pad = _Padding(lengths)
    hs, dec_cache = _lstm_forward(han.group("decoder"),
                                  pad.stack(ls.t_s.T[inputs]), (enc.h0, enc.c0))
    hs = hs[pad.at]   # the real steps, sentence after sentence
    log_probs = _emission(han, hs)
    starts = np.cumsum([0] + lengths[:-1])
    losses = -np.add.reduceat(log_probs[np.arange(len(targets)), targets],
                              starts)
    return losses, (enc, pad, inputs, targets, dec_cache, hs, log_probs)


def coherence_loss(han: Parameters, ls: LatentSpaceParams,
                   video: ClipFeatureSequence, sentence: Sentence,
                   strategy: SegmentationStrategy = DEFAULT_STRATEGY) -> float:
    """Teacher-forced negative log-likelihood of the gold sentence plus #End."""
    losses, _ = _coherence_forward(han, ls, [(video, sentence)], strategy)
    return float(losses[0])


def coherence_grad(han: Parameters, ls: LatentSpaceParams, batch,
                   strategy: SegmentationStrategy, out: Parameters
                   ) -> tuple[list[float], Parameters]:
    """The coherence loss of each instance of ``batch``, in batch order, and
    the reverse-mode gradient of their sum, laid out like ``han``: added into
    ``out`` and returned in it.

    Input gradients reach the projections as matrix products: clip latents
    map back through the raw clip features, word latents through their
    one-hots.
    """
    losses, fwd = _coherence_forward(han, ls, batch, strategy)
    enc, pad, inputs, targets, dec_cache, hs, log_probs = fwd
    dlogits = np.exp(log_probs)
    dlogits[np.arange(len(targets)), targets] -= 1.0   # probs - one-hot
    out["emit_w"] += dlogits.T @ hs
    out["emit_b"] += dlogits.sum(axis=0)
    dxs, dh0, dc0 = _lstm_backward(han.group("decoder"), dec_cache,
                                   pad.stack(dlogits @ han["emit_w"]),
                                   out.group("decoder"))
    out["t_s"] += word_sums(inputs, dxs[pad.at], out["t_s"].shape)
    dlatent = _encode_backward(han, enc, dh0, dc0, out)
    out["t_v"] += dlatent.T @ np.concatenate([v.clips for v, _ in batch])
    return losses.tolist(), out


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _decode_step(han, zx, state):
    """One decoder step of one state or an (L, q) stack of them, from the
    inputs' share ``zx`` of the pre-activations; returns the new state and
    the log-probabilities, #Start masked in every row."""
    (h, c), _ = _cell_forward(han["decoder.u"], zx, state)
    log_p = _emission(han, h)
    log_p[..., START_INDEX] = -np.inf  # the start symbol is never emitted
    return (h, c), log_p


def greedy_decode(han: Parameters, ls: LatentSpaceParams,
                  video: ClipFeatureSequence,
                  strategy: SegmentationStrategy = DEFAULT_STRATEGY,
                  max_len: int = MAX_DECODE_LEN) -> tuple[int, ...]:
    """Most-probable-word decoding, the k=1 beam; stops at #End or max_len
    tokens."""
    return kbest_decode(han, ls, video, strategy, 1, max_len)[0][0]


def kbest_decode(han: Parameters, ls: LatentSpaceParams,
                 video: ClipFeatureSequence,
                 strategy: SegmentationStrategy = DEFAULT_STRATEGY,
                 k: int = 5, max_len: int = MAX_DECODE_LEN
                 ) -> list[tuple[tuple[int, ...], float]]:
    """Beam search; returns up to k (token tuple, log-probability), descending.

    A hypothesis finishes by emitting #End (its score includes that emission)
    or by reaching max_len tokens. Ending competes for beam slots like any
    other token, and equal scores go to the smaller token tuple, so k=1 is
    greedy decoding.

    The search stops once k hypotheses have finished and the k-th best of
    them scores strictly above every live one (the optimal stopping test of
    Huang, Zhao & Ma, EMNLP 2017). Log-probabilities are at most 0, so a
    hypothesis's score only falls as it grows: whatever a live hypothesis
    would still become sorts below the k finished ones, and the result is
    the one the search would return at max_len. On a tie the live
    hypothesis could hold the smaller token tuple, so the search goes on.

    Each step is one ``_decode_step`` over the live hypotheses, in one state
    shape per search, chosen by k: k=1 (greedy decoding) steps a single (q,)
    state; a beam of k >= 2 steps an (L, q) stack of its L live states, from
    its first step, where L = 1, to its last.
    """
    enc = encode_video(han, [video], strategy)
    w, _, b = han.group("decoder")
    word_zx = ls.t_s.T @ w.T + b   # the decoder's input GEMM, word by word
    # the live hypotheses, all one length and sorted by tokens, and their
    # scores and states: for k=1 one score and state, for a beam an (L, 1)
    # column of scores and (L, q) states, row by row
    live: list[tuple[int, ...]] = [()]
    scores, h, c, zx = np.zeros((1, 1)), enc.h0, enc.c0, word_zx[[START_INDEX]]
    if k == 1:   # greedy steps the one row as a vector
        scores, h, c, zx = 0.0, h[0], c[0], zx[0]
    finished: list[tuple[tuple[int, ...], float]] = []
    n_words = ls.t_s.shape[1]
    for _ in range(max_len):
        (h, c), log_p = _decode_step(han, zx, (h, c))
        # the scores of every extension, parent by parent
        cand = (scores + log_p).ravel()
        # a stable sort over parents in token order breaks ties by tokens
        best = np.argsort(-cand, kind="stable")[:k].tolist()
        kept, extended = [], []
        for i in sorted(best):   # index order is token order
            score = float(cand[i])
            if not math.isfinite(score):
                continue   # a masked extension, sorted last
            parent, word = divmod(i, n_words)
            tokens = live[parent] + (word,)
            if word == END_INDEX:
                finished.append((tokens[:-1], score))
            else:
                kept.append(i)
                extended.append(tokens)
        if kept and len(finished) >= k and cand[kept].max() < sorted(
                s for _, s in finished)[-k]:
            extended = []   # the stop: nothing live can reach the k best
        live = extended
        if not live:
            break
        if k == 1:
            scores, zx = cand[kept[0]], word_zx[live[0][-1]]
        else:
            scores, zx = cand[kept][:, None], word_zx[[t[-1] for t in live]]
            parents = [i // n_words for i in kept]
            if parents != list(range(len(h))):
                h, c = h[parents], c[parents]
    finished.extend(zip(live, np.ravel(scores).tolist()))
    finished.sort(key=lambda f: (-f[1], f[0]))
    return finished[:k]


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"LSHN"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: Path | str, han: Parameters,
                    strategy: SegmentationStrategy) -> None:
    """Binary checkpoint: magic, version, dimension header, then the parameter
    buffer as float64 LE in ``param_layout`` order. The file is synced to
    disk before it replaces ``path``, and the directory after, so a crash or
    a power loss leaves the old checkpoint or the new one, whole."""
    d_s, d_c = han["t_v"].shape
    d_w = han["t_s"].shape[1]
    q = han["decoder.u"].shape[1]
    q_att = han["clip_att.proj"].shape[0]
    tmp = Path(f"{path}.tmp")   # renamed over ``path`` once whole
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack(
                "<IIIIIIII", CHECKPOINT_VERSION, d_c, d_w, d_s, q, q_att,
                _STRATEGY_CODES[strategy.kind], strategy.k)
                + han.flat.astype("<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())   # on disk before the rename publishes it
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    directory = os.open(Path(path).parent, os.O_RDONLY)
    try:
        os.fsync(directory)   # and the rename itself survives a power loss
    finally:
        os.close(directory)


def load_checkpoint(path: Path | str
                    ) -> tuple[LatentSpaceParams, Parameters, SegmentationStrategy]:
    path = Path(path)
    data = read_bytes(path, "model checkpoint", ValueError)
    if len(data) < 36 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    version, d_c, d_w, d_s, q, q_att, strat_code, strat_k = struct.unpack(
        "<IIIIIIII", data[4:36])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if 0 in (d_c, d_w, d_s, q, q_att):
        raise ValueError(f"{path}: a zero dimension in the header (d_c={d_c}, "
                         f"d_w={d_w}, d_s={d_s}, q={q}, q_att={q_att})")
    try:
        strategy = SegmentationStrategy(_STRATEGY_KINDS[strat_code], strat_k)
    except (KeyError, ValueError):
        raise ValueError(f"{path}: bad segmentation strategy code {strat_code}"
                         f" (k={strat_k})") from None
    layout = param_layout(d_s, d_c, d_w, q, q_att)
    expected = 36 + 8 * sum(math.prod(shape) for _, shape in layout)
    if len(data) != expected:
        raise ValueError(f"{path}: {len(data)} bytes, but its header "
                         f"describes {expected}")
    han = Parameters(layout, np.frombuffer(data, dtype="<f8", offset=36)
                     .astype(np.float64))
    name = han.first_non_finite()
    if name is not None:
        raise ValueError(f"{path}: parameter {name!r} is not finite")
    return LatentSpaceParams(han["t_v"], han["t_s"]), han, strategy
