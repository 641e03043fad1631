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

import math
from dataclasses import dataclass

import numpy as np

from .corpus import ClipFeatureSequence, Sentence

DEGENERATE_DISTANCE = 1e-8  # below this a path cell contributes zero gradient


class AlignmentError(ValueError):
    """Raised when no feasible monotone alignment exists."""


@dataclass(frozen=True)
class LatentSpaceParams:
    """The two projection matrices defining the shared latent space."""

    t_v: np.ndarray  # (d_s, d_c) video projection
    t_s: np.ndarray  # (d_s, d_w) word projection


@dataclass(frozen=True)
class WindowPolicy:
    """Banded feasibility for DTW: per-word inclusive clip ranges.

    Windows of length ``ceil(n/2)`` with ``floor(n/4)`` overlap tile the clip
    axis; words are spread evenly and in order across the windows, and the
    ranges are then widened just enough that a monotone path always exists.
    """

    lo: tuple[int, ...]  # first feasible clip per word
    hi: tuple[int, ...]  # last feasible clip per word

    def feasible_mask(self, n: int) -> np.ndarray:
        m = len(self.lo)
        mask = np.zeros((n, m), dtype=bool)
        for j in range(m):
            mask[self.lo[j]:self.hi[j] + 1, j] = True
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
    """Monotone clip-to-word assignment; one pair per clip, 0-based."""

    pairs: tuple[tuple[int, int], ...]


def project_video(t_v: np.ndarray, video: ClipFeatureSequence | np.ndarray) -> np.ndarray:
    clips = video.clips if isinstance(video, ClipFeatureSequence) else np.asarray(video)
    if clips.shape[1] != t_v.shape[1]:
        raise ValueError(
            f"feature dim {clips.shape[1]} does not match projection {t_v.shape}")
    return clips @ t_v.T


def project_sentence(t_s: np.ndarray, sentence: Sentence) -> np.ndarray:
    tokens = np.asarray(sentence.tokens)
    if tokens.max() >= t_s.shape[1]:
        raise ValueError(
            f"word index {tokens.max()} does not fit projection {t_s.shape}")
    # one-hot inputs select columns of t_s
    return t_s[:, tokens].T


def window_policy(n: int, m: int) -> WindowPolicy:
    """Per-word feasible clip ranges from evenly assigned overlapping windows."""
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
    # widen minimally so a monotone one-clip-per-step path always exists:
    # endpoints pinned, at least one clip left for every later word, word j
    # reachable by clip j, ranges monotone and gap-free.
    lo[0], hi[m - 1] = 0, n - 1
    for j in range(m):
        lo[j] = min(lo[j], n - m + j)
        hi[j] = max(hi[j], j)
    for j in range(1, m):
        lo[j] = max(lo[j], lo[j - 1])
        hi[j] = max(hi[j], hi[j - 1])
        lo[j] = min(lo[j], hi[j - 1] + 1)
    return WindowPolicy(tuple(lo), tuple(hi))


def dtw(v_latent: np.ndarray, s_latent: np.ndarray,
        policy: WindowPolicy | None = None) -> DtwTable:
    """Accumulated-cost table of the one-clip-per-step monotone recurrence."""
    n, m = v_latent.shape[0], s_latent.shape[0]
    if n < 1 or m < 1:
        raise AlignmentError("empty sequence")
    if m > n:
        raise AlignmentError(f"no feasible path for n={n} < m={m}")
    diff = v_latent[:, None, :] - s_latent[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # word j is unreachable before clip j (one clip consumed per step)
    feasible = np.arange(n)[:, None] >= np.arange(m)[None, :]
    if policy is not None:
        feasible &= policy.feasible_mask(n)

    costs = np.full((n, m), np.inf)
    if feasible[0, 0]:
        costs[0, 0] = dist[0, 0]
    for i in range(1, n):
        prev = costs[i - 1]
        row = np.full(m, np.inf)
        row[0] = prev[0] + dist[i, 0]
        if m > 1:
            row[1:] = np.minimum(prev[1:], prev[:-1]) + dist[i, 1:]
        row[~feasible[i]] = np.inf
        costs[i] = row
    if not np.isfinite(costs[n - 1, m - 1]):
        raise AlignmentError("feasible region admits no monotone path")
    return DtwTable(costs, dist)


def backtrack(table: DtwTable) -> AlignmentPath:
    """Argmin path of the accumulated-cost table; ties prefer the diagonal."""
    costs = table.costs
    n, m = costs.shape
    if not np.isfinite(costs[n - 1, m - 1]):
        raise AlignmentError("cannot backtrack an infeasible table")
    i, j = n - 1, m - 1
    pairs = [(i, j)]
    while i > 0:
        if j > 0 and costs[i - 1, j - 1] <= costs[i - 1, j]:
            j -= 1
        i -= 1
        pairs.append((i, j))
    pairs.reverse()
    return AlignmentPath(tuple(pairs))


def relevance_loss(params: LatentSpaceParams, video: ClipFeatureSequence,
                   sentence: Sentence,
                   policy: WindowPolicy | None = None) -> float:
    return dtw(project_video(params.t_v, video),
               project_sentence(params.t_s, sentence), policy).total


def relevance_grad(params: LatentSpaceParams, video: ClipFeatureSequence,
                   sentence: Sentence, policy: WindowPolicy | None = None
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """The relevance loss and its subgradients w.r.t. the two projections.

    The min is differentiated through the tie-broken argmin path; along it
    d(i,j) = ||T_v v_i - T_s s_j|| contributes (u v_i^T, -u e_{s_j}^T) with
    u = (T_v v_i - T_s s_j) / d(i,j), and zero where d(i,j) vanishes.
    """
    v_lat = project_video(params.t_v, video)
    s_lat = project_sentence(params.t_s, sentence)
    table = dtw(v_lat, s_lat, policy)
    path = backtrack(table)
    g_tv = np.zeros_like(params.t_v)
    g_ts = np.zeros_like(params.t_s)
    clips = video.clips
    for i, j in path.pairs:
        d = table.dist[i, j]
        if d < DEGENERATE_DISTANCE:
            continue
        unit = (v_lat[i] - s_lat[j]) / d
        g_tv += np.outer(unit, clips[i])
        g_ts[:, sentence.tokens[j]] -= unit
    return table.total, g_tv, g_ts


def path_margin(table: DtwTable, path: AlignmentPath) -> float:
    """Smallest |D[i-1,j] - D[i-1,j-1]| over the path's binary min choices.

    Small margins flag points where the argmin path is not unique and the loss
    is non-differentiable; gradient checks skip them.
    """
    margin = np.inf
    for i, j in path.pairs:
        if i > 0 and j > 0:
            a, b = table.costs[i - 1, j], table.costs[i - 1, j - 1]
            if np.isfinite(a) and np.isfinite(b):
                margin = min(margin, abs(a - b))
    return float(margin)


def min_path_distance(table: DtwTable, path: AlignmentPath) -> float:
    return float(min(table.dist[i, j] for i, j in path.pairs))
