"""Reference computations the benchmark checks the program against.

Each is written from its definition with plain loops and shares no code
with the program: the one-clip-per-step DTW (with and without a
feasibility mask), the Levenshtein distance, and central finite
differences. ``test_bench_oracles.py`` checks each against brute force or a
known answer.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

INF = math.inf


def distances(v_lat: np.ndarray, s_lat: np.ndarray) -> list[list[float]]:
    """Euclidean distance of every clip vector to every word vector."""
    return [[math.sqrt(sum((a - b) ** 2 for a, b in zip(v, s)))
             for s in s_lat.tolist()] for v in v_lat.tolist()]


def dtw(dist: Sequence[Sequence[float]],
        mask: Sequence[Sequence[bool]] | None = None) -> list[list[float]]:
    """Accumulated costs of D[i][j] = min(D[i-1][j], D[i-1][j-1]) + d(i, j).

    Every step consumes one clip and stays on the word or moves to the next
    one, so word j needs at least j clips before it. Cells outside ``mask``
    (where given) cost infinity.
    """
    n, m = len(dist), len(dist[0])
    costs = [[INF] * m for _ in range(n)]
    for i in range(n):
        for j in range(min(i + 1, m)):
            if mask is not None and not mask[i][j]:
                continue
            if i == 0:
                best = 0.0 if j == 0 else INF
            else:
                best = costs[i - 1][j]
                if j > 0:
                    best = min(best, costs[i - 1][j - 1])
            costs[i][j] = best + dist[i][j]
    return costs


def window_mask(n: int, lo: Sequence[int], hi: Sequence[int]
                ) -> list[list[bool]]:
    """Feasibility from per-word inclusive clip ranges ``lo[j]..hi[j]``."""
    return [[lo[j] <= i <= hi[j] for j in range(len(lo))] for i in range(n)]


def brute_force_dtw(dist: Sequence[Sequence[float]],
                    mask: Sequence[Sequence[bool]] | None = None) -> float:
    """Least total distance over every monotone one-clip-per-step path."""
    n, m = len(dist), len(dist[0])
    best = INF
    # a path is fixed by which of the n-1 steps advance the word index
    for advances in range(1 << (n - 1)):
        j, total = 0, dist[0][0]
        cells = [(0, 0)]
        for i in range(1, n):
            j += (advances >> (i - 1)) & 1
            if j >= m:
                break
            cells.append((i, j))
            total += dist[i][j]
        else:
            if j == m - 1 and (mask is None
                               or all(mask[a][b] for a, b in cells)):
                best = min(best, total)
    return best


def path_problems(pairs: Sequence[tuple[int, int]], n: int, m: int,
                  dist: Sequence[Sequence[float]], total: float) -> list[str]:
    """What is wrong with an alignment path; empty when it is valid."""
    problems = []
    if len(pairs) != n or [i for i, _ in pairs] != list(range(n)):
        problems.append("not one pair per clip in clip order")
    if pairs and (tuple(pairs[0]) != (0, 0) or tuple(pairs[-1]) != (n - 1, m - 1)):
        problems.append("does not run from (0,0) to (n-1,m-1)")
    if any(b[1] - a[1] not in (0, 1) for a, b in zip(pairs, pairs[1:])):
        problems.append("word index not monotone in steps of 0 or 1")
    path_sum = sum(dist[i][j] for i, j in pairs)
    if not math.isclose(path_sum, total, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"distances sum to {path_sum!r}, table total {total!r}")
    return problems


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Fewest single-token substitutions, insertions and deletions from a to b."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def central_differences(loss: Callable[[], float], arr: np.ndarray,
                        indices: Sequence[int], eps: float) -> np.ndarray:
    """(loss(p + eps) - loss(p - eps)) / 2 eps at flat ``indices`` of ``arr``.

    ``arr`` is perturbed in place and restored; ``loss`` reads it.
    """
    flat = arr.reshape(-1)
    out = np.empty(len(indices))
    for pos, idx in enumerate(indices):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = loss()
        flat[idx] = orig - eps
        down = loss()
        flat[idx] = orig
        out[pos] = (up - down) / (2.0 * eps)
    return out


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-4) -> float:
    """Largest |a - n| / max(|a|, |n|, floor); the floor keeps round-off in
    near-zero entries from reading as a large relative error."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
