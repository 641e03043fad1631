"""Tests of the benchmark's reference computations (``oracles.py``)."""

import itertools
import math

import numpy as np
import pytest

import oracles


def _random_case(rng, n, m, masked):
    dist = rng.uniform(0.1, 2.0, size=(n, m)).tolist()
    mask = None
    if masked:
        # a random band: word j allowed on clips lo[j]..hi[j]; some bands
        # leave no path, and then both computations must say so
        lo = sorted(int(x) for x in rng.integers(0, n, size=m))
        hi = sorted(int(x) for x in rng.integers(0, n, size=m))
        lo[0], hi[-1] = 0, n - 1
        mask = oracles.window_mask(n, lo, [max(a, b) for a, b in zip(lo, hi)])
    return dist, mask


@pytest.mark.parametrize("masked", [False, True])
def test_dtw_matches_brute_force_on_tiny_sizes(masked):
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for m in range(1, n + 1):
            for _ in range(8):
                dist, mask = _random_case(rng, n, m, masked)
                expected = oracles.brute_force_dtw(dist, mask)
                got = oracles.dtw(dist, mask)[n - 1][m - 1]
                assert got == pytest.approx(expected, rel=1e-12) \
                    or (math.isinf(got) and math.isinf(expected))


def test_dtw_one_clip_per_step_recurrence_by_hand():
    dist = [[1.0, 5.0], [2.0, 1.0], [3.0, 1.0]]
    costs = oracles.dtw(dist)
    assert costs[0] == [1.0, math.inf]          # word 1 unreachable at clip 0
    assert costs[1] == [3.0, 2.0]
    assert costs[2] == [6.0, 3.0]
    # forbidding clip 1 on word 1 forces the jump at the last clip
    mask = oracles.window_mask(3, lo=[0, 2], hi=[1, 2])
    assert oracles.dtw(dist, mask)[2][1] == 4.0


def test_path_problems_flags_each_defect():
    dist = [[1.0, 5.0], [2.0, 1.0], [3.0, 1.0]]
    good = [(0, 0), (1, 1), (2, 1)]
    assert oracles.path_problems(good, 3, 2, dist, 3.0) == []
    assert oracles.path_problems(good[:2], 3, 2, dist, 3.0)
    assert oracles.path_problems([(0, 0), (1, 0), (2, 0)], 3, 2, dist, 6.0)
    assert oracles.path_problems(good, 3, 2, dist, 2.5)


def _edit_brute(a, b):
    # shortest edit script by breadth-first search over strings
    a, b = tuple(a), tuple(b)
    alphabet = set(a) | set(b)
    frontier, seen, steps = {a}, {a}, 0
    while b not in frontier:
        nxt = set()
        for s in frontier:
            for i in range(len(s) + 1):
                for c in alphabet:
                    nxt.add(s[:i] + (c,) + s[i:])
                if i < len(s):
                    nxt.add(s[:i] + s[i + 1:])
                    for c in alphabet:
                        nxt.add(s[:i] + (c,) + s[i + 1:])
        frontier = nxt - seen
        seen |= nxt
        steps += 1
    return steps


def test_levenshtein_matches_search_on_short_strings():
    for a in itertools.product("ab", repeat=3):
        for b in ["", "a", "ba", "abb", "baab"]:
            assert oracles.levenshtein(a, b) == _edit_brute(a, b)
    assert oracles.levenshtein("kitten", "sitting") == 3
    assert oracles.levenshtein([], [1, 2]) == 2


def test_central_differences_of_a_known_function():
    x = np.array([[0.3, -1.2], [2.0, 0.5]])
    loss = lambda: float(np.sum(np.sin(x) * x ** 2))  # noqa: E731
    analytic = (np.cos(x) * x ** 2 + 2 * x * np.sin(x)).reshape(-1)
    before = x.copy()
    numeric = oracles.central_differences(loss, x, [0, 1, 2, 3], 1e-5)
    assert np.array_equal(x, before)
    assert oracles.relative_error(analytic, numeric) < 1e-8
    assert oracles.relative_error(analytic, numeric + 1e-2) > 1e-4
