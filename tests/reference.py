"""The slow-but-obvious references that several test modules check against:
brute-force enumeration of the DTW paths, the recursive edit distance, and
one tiny synthetic corpus. ``han_oracle.py`` holds the per-vector HAN.
"""

import itertools

import numpy as np

from lshan.corpus import SyntheticConfig, generate_synthetic


def brute_force_dtw(dist: np.ndarray, feasible=None) -> float:
    """Enumerate every monotone one-clip-per-step path and take the minimum;
    with ``feasible``, only the paths that stay where it is true."""
    n, m = dist.shape
    best = np.inf
    for increments in itertools.combinations(range(1, n), m - 1):
        js = np.zeros(n, dtype=int)
        for inc in increments:
            js[inc:] += 1
        if feasible is not None and not all(feasible[i, js[i]] for i in range(n)):
            continue
        best = min(best, sum(dist[i, js[i]] for i in range(n)))
    return best


def brute_edit_distance(ref, hyp):
    """Recursive three-way edit distance."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    sub = brute_edit_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0])
    dele = brute_edit_distance(ref[1:], hyp) + 1
    ins = brute_edit_distance(ref, hyp[1:]) + 1
    return min(sub, dele, ins)


def tiny_dataset(*, seed=0, count=4):
    return generate_synthetic(
        SyntheticConfig(vocab_size=6, feature_dim=5,
                        sentence_length=(2, 3), instance_count=count,
                        seed=seed))
