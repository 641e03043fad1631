"""Hierarchical attention encoder-decoder over latent clip sequences.

Structure: clips are split into contiguous segments; each segment runs through
a bidirectional gated recurrent (LSTM) encoder and is attention-pooled into one
segment vector; the segment-vector sequence runs through a second bidirectional
encoder with its own attention pool, and the pooled video vector initializes
the decoder state through a learned affine map. The decoder is a single LSTM
consuming latent word vectors and emitting a softmax distribution over the
vocabulary at every step.

All forward passes cache what the handwritten reverse-mode pass needs; the
gradients are validated against central finite differences in the test suite.
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
from .latent_space import LatentSpaceParams, project_video


# ---------------------------------------------------------------------------
# segmentation strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentationStrategy:
    """One of: two-split, pair-split, even-k (k contiguous near-equal parts)."""

    kind: str  # "two-split" | "pair-split" | "even"
    k: int = 7

    def __post_init__(self):
        if self.kind not in ("two-split", "pair-split", "even"):
            raise ValueError(f"unknown segmentation strategy {self.kind!r}")
        if self.kind == "even" and self.k < 1:
            raise ValueError("even-k needs k >= 1")

    def __str__(self) -> str:
        return f"even-{self.k}" if self.kind == "even" else self.kind


DEFAULT_STRATEGY = SegmentationStrategy("even", 7)

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
    if n < 1:
        raise ValueError("need at least one clip")
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

    # the dict's own views: Mapping's generic ones look every name up again,
    # which the regularizer pays on every finite-difference probe
    def items(self):
        return self._arrays.items()

    def values(self):
        return self._arrays.values()

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
# recurrent cell, bidirectional encoder, attention pool
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _cell_forward(cell, x, state=None):
    """One LSTM step of ``cell`` = (w, u, b); returns ((h, c), cache)."""
    w, u, b = cell
    q = u.shape[1]
    if state is None:
        state = (np.zeros(q), np.zeros(q))
    h_prev, c_prev = state
    z = w @ x + u @ h_prev + b
    ifo = _sigmoid(z[:3 * q])   # the input, forget and output gates
    i, f, o = ifo[:q], ifo[q:2 * q], ifo[2 * q:]
    g = np.tanh(z[3 * q:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (x, h_prev, c_prev, ifo, g, tc)
    return (h, c), cache


def _lstm_forward(cell, xs, state=None):
    hs = np.empty((len(xs), cell[1].shape[1]))
    caches = []
    for t, x in enumerate(xs):
        (h, c), cache = _cell_forward(cell, x, state)
        state = (h, c)
        hs[t] = h
        caches.append(cache)
    return hs, caches


def _lstm_backward(cell, caches, dhs, dcell):
    """Accumulate the cell's grads into the views ``dcell``; return
    ``(dxs, dh0, dc0)``, the gradients of the inputs and the initial state.
    Each step adds its terms to the views in reverse step order."""
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


def _bidir_forward(fwd, bwd, xs):
    if len(xs) < 1:
        raise ValueError("cannot encode an empty sequence")
    hf, cf = _lstm_forward(fwd, xs)
    hb_rev, cb = _lstm_forward(bwd, xs[::-1])
    hs = np.concatenate([hf, hb_rev[::-1]], axis=1)
    return hs, (cf, cb)


def _bidir_backward(fwd, bwd, caches, dhs, dfwd, dbwd):
    cf, cb = caches
    q = fwd[1].shape[1]
    dxs_f, _, _ = _lstm_backward(fwd, cf, dhs[:, :q], dfwd)
    dxs_b, _, _ = _lstm_backward(bwd, cb, dhs[::-1, q:], dbwd)
    return dxs_f + dxs_b[::-1]


def _attention_forward(params, hs):
    """Attention pool of ``hs`` under ``params`` = (proj, bias, query)."""
    proj, bias, query = params
    if len(hs) < 1:
        raise ValueError("cannot pool an empty sequence")
    a = np.tanh(hs @ proj.T + bias)   # (T, q_att)
    scores = a @ query
    scores = scores - scores.max()
    e = np.exp(scores)
    weights = e / e.sum()
    pooled = weights @ hs
    return pooled, (hs, a, weights)


def _attention_backward(params, cache, dout, dparams):
    proj, _, query = params
    gproj, gbias, gquery = dparams
    hs, a, weights = cache
    dweights = hs @ dout
    dhs = weights[:, None] * dout
    # softmax backward
    dscores = weights * (dweights - weights @ dweights)
    da = dscores[:, None] * query
    gquery += a.T @ dscores
    dpre = da * (1.0 - a * a)
    gproj += dpre.T @ hs
    gbias += dpre.sum(axis=0)
    dhs += dpre @ proj
    return dhs


# ---------------------------------------------------------------------------
# hierarchical encoding
# ---------------------------------------------------------------------------

@dataclass
class EncodedVideo:
    h0: np.ndarray  # decoder initial hidden state
    c0: np.ndarray  # decoder initial cell state
    cache: tuple    # ends with the pooled 2q video vector


def encode_video(params: Parameters, latent_clips: np.ndarray,
                 segmentation: list[tuple[int, int]]) -> EncodedVideo:
    covered = [i for a, b in segmentation for i in range(a, b)]
    if covered != list(range(len(latent_clips))):
        raise ValueError("segmentation does not partition the clip sequence")
    clip_fwd, clip_bwd = params.group("clip_fwd"), params.group("clip_bwd")
    clip_att = params.group("clip_att")
    seg_caches = []
    seg_vectors = np.empty((len(segmentation), 2 * clip_fwd[1].shape[1]))
    for s, (a, b) in enumerate(segmentation):
        hs, bid_cache = _bidir_forward(clip_fwd, clip_bwd, latent_clips[a:b])
        pooled, att_cache = _attention_forward(clip_att, hs)
        seg_vectors[s] = pooled
        seg_caches.append((bid_cache, att_cache))
    word_hs, word_bid_cache = _bidir_forward(
        params.group("word_fwd"), params.group("word_bwd"), seg_vectors)
    video_vector, word_att_cache = _attention_forward(params.group("word_att"),
                                                      word_hs)
    h0 = params["init_h.w"] @ video_vector + params["init_h.b"]
    c0 = params["init_c.w"] @ video_vector + params["init_c.b"]
    cache = (segmentation, seg_caches, word_bid_cache, word_att_cache,
             video_vector)
    return EncodedVideo(h0, c0, cache)


def _encode_backward(params: Parameters, enc: EncodedVideo, dh0, dc0,
                     grads: Parameters, n_clips: int) -> np.ndarray:
    segmentation, seg_caches, word_bid_cache, word_att_cache, u = enc.cache
    for name, d in (("init_h", dh0), ("init_c", dc0)):
        gw, gb = grads.group(name)
        gw += d[:, None] * u
        gb += d
    du = params["init_h.w"].T @ dh0 + params["init_c.w"].T @ dc0
    dword_hs = _attention_backward(params.group("word_att"), word_att_cache,
                                   du, grads.group("word_att"))
    dseg = _bidir_backward(params.group("word_fwd"), params.group("word_bwd"),
                           word_bid_cache, dword_hs,
                           grads.group("word_fwd"), grads.group("word_bwd"))
    clip_fwd, clip_bwd = params.group("clip_fwd"), params.group("clip_bwd")
    dlatent = np.zeros((n_clips, clip_fwd[0].shape[1]))
    for s, (a, b) in enumerate(segmentation):
        bid_cache, att_cache = seg_caches[s]
        dhs = _attention_backward(params.group("clip_att"), att_cache, dseg[s],
                                  grads.group("clip_att"))
        dlatent[a:b] = _bidir_backward(clip_fwd, clip_bwd, bid_cache, dhs,
                                       grads.group("clip_fwd"),
                                       grads.group("clip_bwd"))
    return dlatent


# ---------------------------------------------------------------------------
# emission and coherence loss
# ---------------------------------------------------------------------------

def _encode(han: Parameters, ls: LatentSpaceParams, video: ClipFeatureSequence,
            strategy: SegmentationStrategy) -> EncodedVideo:
    """The latent projection of ``video``, encoded under ``strategy``."""
    return encode_video(han, project_video(ls.t_v, video),
                        segment_clips(video.n, strategy))


def _emission(han: Parameters, hs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vocabulary log-softmax of one decoder state or a (T, q) stack of
    them, and the softmax as ``e / total``: ``(log_probs, e, total)``.
    Decoding reads only the log-probabilities, so it skips the division."""
    w = han["emit_w"]
    stack = hs.ndim > 1
    # a stack takes one gemv per state, which rounds exactly like ``w @ h``
    logits = ((w @ hs[..., None])[..., 0] if stack else w @ hs) + han["emit_b"]
    shifted = logits - logits.max(axis=-1, keepdims=stack)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=stack)
    return shifted - np.log(total), e, total


def _coherence_forward(han: Parameters, ls: LatentSpaceParams,
                       video: ClipFeatureSequence, sentence: Sentence,
                       strategy: SegmentationStrategy):
    enc = _encode(han, ls, video, strategy)
    input_tokens = np.array((START_INDEX,) + sentence.tokens)
    targets = sentence.tokens + (END_INDEX,)
    hs, dec_caches = _lstm_forward(han.group("decoder"),
                                   ls.t_s[:, input_tokens].T, (enc.h0, enc.c0))
    log_probs, e, total = _emission(han, hs)
    loss = -float(log_probs[np.arange(len(targets)), targets].sum())
    return loss, (enc, input_tokens, targets, dec_caches, e / total, hs)


def coherence_loss(han: Parameters, ls: LatentSpaceParams,
                   video: ClipFeatureSequence, sentence: Sentence,
                   strategy: SegmentationStrategy = DEFAULT_STRATEGY) -> float:
    """Teacher-forced negative log-likelihood of the gold sentence plus #End."""
    loss, _ = _coherence_forward(han, ls, video, sentence, strategy)
    return loss


def coherence_grad(han: Parameters, ls: LatentSpaceParams,
                   video: ClipFeatureSequence, sentence: Sentence,
                   strategy: SegmentationStrategy = DEFAULT_STRATEGY
                   ) -> tuple[float, Parameters]:
    """The coherence loss and its reverse-mode gradients, laid out like ``han``.

    Input gradients reach the projections as outer products: clip latents map
    back through the raw clip features, word latents through their one-hots.
    Per-step terms sum from zero in reverse step order, as backprop visits them.
    """
    loss, fwd = _coherence_forward(han, ls, video, sentence, strategy)
    enc, input_tokens, targets, dec_caches, dlogits, hs = fwd
    grads = Parameters(han.layout)
    dlogits[np.arange(len(targets)), targets] -= 1.0   # probs - one-hot
    grads["emit_w"] = np.add.reduce(
        (dlogits[:, :, None] * hs[:, None, :])[::-1], axis=0)
    grads["emit_b"] = np.add.reduce(dlogits[::-1], axis=0)
    dhs = (han["emit_w"].T @ dlogits[..., None])[..., 0]
    dxs, dh0, dc0 = _lstm_backward(han.group("decoder"), dec_caches, dhs,
                                   grads.group("decoder"))
    np.add.at(grads["t_s"].T, input_tokens[::-1], dxs[::-1])
    dlatent = _encode_backward(han, enc, dh0, dc0, grads, video.n)
    grads["t_v"] = dlatent.T @ video.clips
    return loss, grads


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _decode_step(han, ls, state, token):
    (h, c), _ = _cell_forward(han.group("decoder"), ls.t_s[:, token], state)
    log_p, _, _ = _emission(han, h)
    log_p[START_INDEX] = -np.inf  # the start symbol is never emitted
    return (h, c), log_p


def greedy_decode(han: Parameters, ls: LatentSpaceParams,
                  video: ClipFeatureSequence,
                  strategy: SegmentationStrategy = DEFAULT_STRATEGY,
                  max_len: int = 30) -> tuple[int, ...]:
    """Most-probable-word decoding, the k=1 beam; stops at #End or max_len
    tokens."""
    best = kbest_decode(han, ls, video, strategy, 1, max_len)
    return best[0][0] if best else ()


def kbest_decode(han: Parameters, ls: LatentSpaceParams,
                 video: ClipFeatureSequence,
                 strategy: SegmentationStrategy = DEFAULT_STRATEGY,
                 k: int = 5, max_len: int = 30
                 ) -> list[tuple[tuple[int, ...], float]]:
    """Beam search; returns up to k (token tuple, log-probability), descending.

    A hypothesis finishes by emitting #End (its score includes that emission)
    or by reaching max_len tokens. Ending competes for beam slots like any
    other token, and equal scores go to the smaller token tuple, so k=1 is
    greedy decoding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    # live hypotheses (tokens, score, state), all one length, sorted by tokens
    enc = _encode(han, ls, video, strategy)
    live = [((), 0.0, (enc.h0, enc.c0))]
    finished: list[tuple[tuple[int, ...], float]] = []
    n_words = ls.t_s.shape[1]
    for _ in range(max_len):
        steps = [_decode_step(han, ls, state, tokens[-1] if tokens else
                              START_INDEX) for tokens, _, state in live]
        # the scores of every extension, parent by parent
        cand = np.concatenate([score + log_p for (_, score, _), (_, log_p)
                               in zip(live, steps)])
        # a stable sort over parents in token order breaks ties by tokens
        best = np.argsort(-cand, kind="stable")[:k].tolist()
        extended = []
        for i in sorted(best):   # index order is token order
            score = float(cand[i])
            if not math.isfinite(score):
                continue   # a masked extension, sorted last
            parent, w = divmod(i, n_words)
            tokens = live[parent][0] + (w,)
            if w == END_INDEX:
                finished.append((tokens[:-1], score))
            else:
                extended.append((tokens, score, steps[parent][0]))
        live = extended
        if not live:
            break
    finished.extend((tokens, score) for tokens, score, _ in live)
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
    buffer as float64 LE in ``param_layout`` order."""
    d_s, d_c = han["t_v"].shape
    d_w = han["t_s"].shape[1]
    q = han["decoder.u"].shape[1]
    q_att = han["clip_att.proj"].shape[0]
    tmp = Path(f"{path}.tmp")   # renamed over ``path`` once whole
    try:
        tmp.write_bytes(CHECKPOINT_MAGIC + struct.pack(
            "<IIIIIIII", CHECKPOINT_VERSION, d_c, d_w, d_s, q, q_att,
            _STRATEGY_CODES[strategy.kind], strategy.k)
            + han.flat.astype("<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
