"""Shared video-sentence latent space and monotone DTW alignment.

Videos and one-hot words are linearly projected into a common space; the
relevance loss of an instance is the accumulated distance of the best monotone
clip-to-word alignment. The recurrence consumes exactly one clip per step,

    D[i, j] = min(D[i-1, j], D[i-1, j-1]) + d(i, j),

so it is NOT classical three-way DTW: there is no (i, j-1) predecessor, every
path has length n, and feasibility requires n >= m. All indices in this module
are 0-based; a path starts at (0, 0) and ends at (n-1, m-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ClipFeatureSequence, Sentence

DEGENERATE_DISTANCE = 1e-8  # below this a path cell contributes zero gradient
# The most (n, m) bands kept at once, each with its mask: a standard corpus
# (3-7 words of 2-4 clips) holds 55 shapes and a long one (10-15 words of
# 4-8 clips) 306, so 512 keeps both, and holds at most 20 MB of masks for
# shapes up to n = 200.
BAND_CACHE_SIZE = 512


class AlignmentError(ValueError):
    """Raised when no feasible monotone alignment exists."""


@dataclass(frozen=True)
class LatentSpaceParams:
    """The two projection matrices defining the shared latent space."""

    t_v: np.ndarray  # (d_s, d_c) video projection
    t_s: np.ndarray  # (d_s, d_w) word projection


@dataclass(frozen=True)
class WindowPolicy:
    """Banded feasibility for DTW after the windows of Sakoe & Chiba (1978):
    per-word inclusive clip ranges, in closed form.

    Windows of ``length = ceil(n/2)`` clips start every ``stride = max(1,
    length - floor(n/4))`` clips, the last (number ``last = ceil((n - length)
    / stride)``) moved back to end at clip n - 1. Words are spread evenly and
    in order across the windows, each start pulled back just enough that
    every later word keeps a clip:

        start_j = min(round(j * last / (m - 1)) * stride, n - length)
        lo_j = min(start_j, n - m + j),   hi_j = start_j + length - 1

    A single word (m = 1) takes every clip. That is all a monotone path needs:
    the ranges start at clip 0 and end at clip n - 1; a start moves by at most
    ``n - length <= length`` clips, so they leave no gap; and ``hi_j >= j``
    (from n = 8 on there are three windows, and a word in the middle one has
    ``j < 3(m-1)/4``, so ``j <= stride + length - 1``).
    """

    lo: tuple[int, ...]  # first feasible clip per word
    hi: tuple[int, ...]  # last feasible clip per word

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """The band as a read-only ``(max(hi) + 1, m)`` mask, built once."""
        clip = np.arange(max(self.hi) + 1)[:, None]
        mask = (clip >= np.array(self.lo)) & (clip <= np.array(self.hi))
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True)
class DtwTable:
    costs: np.ndarray  # (n, m) accumulated costs, +inf where infeasible
    dist: np.ndarray   # (n, m) pairwise latent distances

    @property
    def total(self) -> float:
        return float(self.costs[-1, -1])


@dataclass(frozen=True)
class AlignmentPath:
    """Monotone clip-to-word assignment, 0-based: clip i aligns to word words[i]."""

    words: np.ndarray  # (n,) int, nondecreasing, from 0 to m-1

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The path as (clip, word) pairs of Python ints, one per clip."""
        return tuple(enumerate(self.words.tolist()))


def project_video(t_v: np.ndarray, video: ClipFeatureSequence) -> np.ndarray:
    return video.clips @ t_v.T


def project_sentence(t_s: np.ndarray, sentence: Sentence) -> np.ndarray:
    # one-hot inputs select columns of t_s
    return t_s[:, np.asarray(sentence.tokens)].T


@functools.lru_cache(maxsize=BAND_CACHE_SIZE)
def window_policy(n: int, m: int) -> WindowPolicy:
    """Per-word feasible clip ranges from evenly assigned overlapping windows;
    built once per ``(n, m)``, and the same policy is returned while the
    shape stays among the ``BAND_CACHE_SIZE`` most recently used."""
    if m == 1:
        return WindowPolicy((0,), (n - 1,))
    length = math.ceil(n / 2)
    stride = max(1, length - n // 4)
    last = math.ceil((n - length) / stride)  # index of the last window
    starts = [min(round(j * last / (m - 1)) * stride, n - length)
              for j in range(m)]
    return WindowPolicy(
        tuple([min(start, n - m + j) for j, start in enumerate(starts)]),
        tuple([start + length - 1 for start in starts]))


def distances(v_latent: np.ndarray, s_latent: np.ndarray) -> np.ndarray:
    """``(n, m)`` Euclidean distances from each clip latent to each word
    latent. Each entry depends only on its own two rows, so a column is the
    same bytes whatever other words share the table."""
    diff = v_latent[:, None, :] - s_latent[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def dtw(v_latent: np.ndarray, s_latent: np.ndarray,
        policy: WindowPolicy | None = None) -> DtwTable:
    """Accumulated-cost table of the one-clip-per-step monotone recurrence."""
    return dtw_batch([(distances(v_latent, s_latent), policy)])[0]


def dtw_batch(pairs) -> list[DtwTable]:
    """Accumulated-cost tables of ``(dist, policy)`` pairs, each ``dist``
    an ``(n, m)`` table of ``distances``, filled in lockstep: time-major row
    i holds, pair after pair, a +inf guard and the pair's D[i, :]. Step
    costs are +inf at the guards and outside each band, so one flat
    min-and-add fills row i of every table. Padding goes unread, so the
    pairs are independent: each table is bit for bit the one its pair gets
    alone, whatever else shares the batch.
    """
    n_max, m_max = np.max([dist.shape for dist, _ in pairs], 0)
    steps = np.full((n_max, len(pairs), m_max + 1), np.inf)
    costs = np.full((n_max, len(pairs), m_max + 1), np.inf)
    tables = []
    for b, (dist, policy) in enumerate(pairs):
        n, m = dist.shape
        np.copyto(steps[:n, b, 1:m + 1], dist, where=True if policy is None
                  else policy.mask)
        costs[0, b, 1] = dist[0, 0]
        tables.append(DtwTable(costs[:n, b, 1:m + 1], dist))
    flat, flat_steps = costs.reshape(n_max, -1), steps.reshape(n_max, -1)
    for above, above_left, row, step in zip(
            flat[:, 1:], flat[:, :-1], flat[1:, 1:], flat_steps[1:, 1:]):
        np.minimum(above, above_left, out=row)
        row += step
    for table in tables:
        if np.isfinite(table.total):
            continue
        # for n >= m the full table and window_policy's bands admit a path,
        # so only a distance that overflowed (or is NaN) leaves the total
        # non-finite; more words than clips, or a hand-built band, admit none
        if not np.isfinite(table.dist).all():
            raise AlignmentError("a latent distance is not finite")
        raise AlignmentError("feasible region admits no monotone path")
    return tables


def backtrack(table: DtwTable) -> AlignmentPath:
    """Argmin path of the accumulated-cost table; ties prefer the diagonal."""
    costs = table.costs
    n, m = costs.shape
    # diagonal[i][j - 1]: whether the path into (i + 1, j) comes from (i, j - 1)
    diagonal = (costs[:-1, :-1] <= costs[:-1, 1:]).tolist()
    words = [0] * n
    j = m - 1
    for i in range(n - 1, 0, -1):
        words[i] = j
        if j > 0 and diagonal[i - 1][j - 1]:
            j -= 1
    words[0] = j
    return AlignmentPath(np.array(words, dtype=np.intp))


def relevance_loss(params: LatentSpaceParams, video: ClipFeatureSequence,
                   sentence: Sentence,
                   policy: WindowPolicy | None = None) -> float:
    return dtw(project_video(params.t_v, video),
               project_sentence(params.t_s, sentence), policy).total


def align_batch(ls: LatentSpaceParams, batch, windowed: bool) -> list[DtwTable]:
    """Each ``(video, sentence)`` instance's DTW table, in batch order, from
    one ``dtw_batch``: the one place that chooses the band, each pair's
    ``window_policy`` when ``windowed`` and none otherwise."""
    return _align(ls, batch, windowed)[0]


def _align(ls, batch, windowed: bool) -> tuple[list[DtwTable], list[np.ndarray]]:
    """``align_batch``'s tables and each instance's video latent. Each
    distinct video object is projected once and gets one ``distances`` table
    to the distinct words of its sentences; each pair gathers its columns."""
    columns = {}   # id(video) -> {word: column}, in order of first use
    for video, sentence in batch:
        column = columns.setdefault(id(video), {})
        for word in sentence.tokens:
            column.setdefault(word, len(column))
    projected = {}   # id(video) -> (video latent, distances to its words)
    pairs, v_latents = [], []
    for video, sentence in batch:
        column = columns[id(video)]
        if id(video) not in projected:
            v_latent = project_video(ls.t_v, video)
            projected[id(video)] = v_latent, distances(
                v_latent, project_sentence(ls.t_s, Sentence(tuple(column))))
        v_latent, table = projected[id(video)]
        pairs.append((table[:, [column[word] for word in sentence.tokens]],
                      window_policy(video.n, sentence.length) if windowed
                      else None))
        v_latents.append(v_latent)
    return dtw_batch(pairs), v_latents


def relevance_grad(ls: LatentSpaceParams, batch, windowed: bool
                   ) -> tuple[list[float], np.ndarray, np.ndarray]:
    """``(losses, g_tv, g_ts)``: the relevance loss of each instance of
    ``batch`` as ``align_batch`` aligns it, in batch order, and the
    subgradients of their sum w.r.t. the two projections. The instances are
    independent: each loss, and each one's share of the gradients, is what
    it gets in a batch of its own.

    The min is differentiated through the tie-broken argmin path; along it
    d(i,j) = ||T_v v_i - T_s s_j|| contributes (u v_i^T, -u e_{s_j}^T) with
    u = (T_v v_i - T_s s_j) / d(i,j), and zero where d(i,j) vanishes. A path
    takes every clip once, in order, so the batch's paths pair its clips,
    concatenated, with the words the paths gather.
    """
    tables, v_latents = _align(ls, batch, windowed)
    paths = [backtrack(table).words for table in tables]
    dist = np.concatenate([table.dist[np.arange(words.size), words]
                           for table, words in zip(tables, paths)])
    keep = dist >= DEGENERATE_DISTANCE
    tokens = np.concatenate([np.asarray(sentence.tokens)[words]
                             for (_, sentence), words in zip(batch, paths)])[keep]
    v_lat = np.concatenate(v_latents)[keep]
    unit = (v_lat - ls.t_s.T[tokens]) / dist[keep, None]
    g_ts = 0.0 - word_sums(tokens, unit, ls.t_s.shape)
    clips = np.concatenate([video.clips for video, _ in batch])[keep]
    return [table.total for table in tables], unit.T @ clips, g_ts


def word_sums(tokens: np.ndarray, rows: np.ndarray, shape) -> np.ndarray:
    """Sums of ``rows`` by word as a ``shape`` = (d, vocab) array: column w
    adds the rows whose token is w. ``np.bincount`` adds each bin in row order
    from 0.0, so ``0.0 - sums`` and a zero array ``+= sums`` are, signed zeros
    included, ``np.subtract.at`` and ``np.add.at`` of the rows, to the bit."""
    d, vocab = shape
    return np.bincount((tokens[:, None] * d + np.arange(d)).ravel(), rows.ravel(),
                       vocab * d).reshape(vocab, d).T
