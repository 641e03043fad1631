"""Accuracy metric, corpus evaluation, rank-consistency probe, trade-off sweep.

The sentence accuracy is 1 - (S + I + D) / N, where S, I, D are the minimal
substitution / insertion / deletion counts transforming the hypothesis into the
reference and N is the reference length. It is 1 exactly at a perfect match and
can go negative when the hypothesis carries more errors than the reference has
words.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import han as han_mod
from . import latent_space as ls_mod
from . import trainer as trainer_mod
from .corpus import Dataset, Sentence
from .han import Parameters, SegmentationStrategy
from .latent_space import LatentSpaceParams


@dataclass(frozen=True)
class EditBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def accuracy(self) -> float:
        return 1.0 - self.total / self.reference_length


def edit_breakdown(hyp, ref) -> EditBreakdown:
    """Minimal-edit S/I/D decomposition transforming ``hyp`` into ``ref``.

    The total is the unique edit distance; among minimal alignments the split
    is made deterministic by backtrace preference substitution > deletion >
    insertion. Deletions remove hypothesis tokens, insertions add missing
    reference tokens.
    """
    hyp, ref = list(hyp), list(ref)
    if not ref:
        raise ValueError("reference sentence must be non-empty")
    nh, nr = len(hyp), len(ref)
    dist = np.zeros((nh + 1, nr + 1), dtype=np.int64)
    dist[:, 0] = np.arange(nh + 1)
    dist[0, :] = np.arange(nr + 1)
    for i in range(1, nh + 1):
        for j in range(1, nr + 1):
            sub = dist[i - 1, j - 1] + (hyp[i - 1] != ref[j - 1])
            dist[i, j] = min(sub, dist[i - 1, j] + 1, dist[i, j - 1] + 1)
    s = ins = dele = 0
    i, j = nh, nr
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] \
                and hyp[i - 1] == ref[j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + 1:
            s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditBreakdown(s, ins, dele, nr)


def accuracy(hyp, ref) -> float:
    return edit_breakdown(hyp, ref).accuracy


@dataclass
class InstanceResult:
    instance_id: int
    n_clips: int
    ref_length: int
    hyp_length: int
    breakdown: EditBreakdown
    decode_seconds: float

    @property
    def accuracy(self) -> float:
        return self.breakdown.accuracy


@dataclass
class EvalReport:
    results: list[InstanceResult]
    mean_accuracy: float
    aggregate: EditBreakdown

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance_id", "n", "m", "hyp_len", "S", "I", "D",
                             "accuracy"])
            for r in self.results:
                writer.writerow([r.instance_id, r.n_clips, r.ref_length,
                                 r.hyp_length, r.breakdown.substitutions,
                                 r.breakdown.insertions, r.breakdown.deletions,
                                 f"{r.accuracy:.6f}"])


def evaluate(ls: LatentSpaceParams, han: Parameters, dataset: Dataset,
             strategy: SegmentationStrategy = han_mod.DEFAULT_STRATEGY,
             max_len: int = 30) -> EvalReport:
    """Greedy-decode every instance and aggregate sentence accuracies."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    results = []
    agg_s = agg_i = agg_d = agg_n = 0
    for idx, (video, sentence) in enumerate(dataset.instances):
        start = time.perf_counter()
        hyp = han_mod.greedy_decode(han, ls, video, strategy, max_len)
        elapsed = time.perf_counter() - start
        b = edit_breakdown(hyp, sentence.tokens)
        results.append(InstanceResult(idx, video.n, sentence.length, len(hyp),
                                      b, elapsed))
        agg_s += b.substitutions
        agg_i += b.insertions
        agg_d += b.deletions
        agg_n += b.reference_length
    mean_acc = float(np.mean([r.accuracy for r in results]))
    return EvalReport(results, mean_acc,
                      EditBreakdown(agg_s, agg_i, agg_d, agg_n))


@dataclass
class ProbeVideo:
    video_id: int
    hypotheses: list[tuple[tuple[int, ...], float, float]]  # tokens, log_p, dtw
    correlation: float


@dataclass
class ProbeReport:
    videos: list[ProbeVideo]
    mean_correlation: float
    skipped: int
    sample_count: int

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["video_id", "rank", "log_prob", "dtw_distance"])
            for video in self.videos:
                for rank, (_, log_p, d) in enumerate(video.hypotheses, start=1):
                    writer.writerow([video.video_id, rank, f"{log_p:.6f}",
                                     f"{d:.6f}"])


def consistency_probe(ls: LatentSpaceParams, han: Parameters, dataset: Dataset,
                      k: int = 5, sample_count: int = 10, seed: int = 0,
                      strategy: SegmentationStrategy = han_mod.DEFAULT_STRATEGY,
                      max_len: int = 30) -> ProbeReport:
    """Rank agreement between decoder scores and latent DTW distances.

    Samples videos, k-best decodes each, measures every hypothesis's DTW
    distance to the video in the latent space, and reports the per-video
    Spearman correlation between decoder rank (descending probability) and
    distance. Videos yielding fewer than two distinct scoreable hypotheses, or
    whose distances all tie, leaving the correlation undefined, are skipped
    and counted.
    """
    if k < 2:
        raise ValueError("probe needs k >= 2")
    rng = np.random.default_rng(seed)
    sample_count = min(sample_count, len(dataset))
    picks = rng.choice(len(dataset), size=sample_count, replace=False)
    videos = []
    skipped = 0
    for vid in picks:
        video, _ = dataset.instances[int(vid)]
        hyps = han_mod.kbest_decode(han, ls, video, strategy, k, max_len)
        scored = []
        for tokens, log_p in hyps:
            if not tokens or len(tokens) > video.n:
                continue  # no feasible alignment for these lengths
            d = ls_mod.relevance_loss(ls, video, Sentence(tokens))
            scored.append((tokens, log_p, d))
        if len({t for t, _, _ in scored}) < 2:
            skipped += 1
            continue
        _, inverse, counts = np.unique([d for _, _, d in scored],
                                       return_inverse=True, return_counts=True)
        if len(counts) < 2:
            skipped += 1
            continue
        # Spearman: the Pearson correlation of the decoder ranks 1..L with
        # the distances' ranks, tied distances sharing their average rank
        distance_ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
        rho = np.corrcoef(np.arange(1, len(scored) + 1), distance_ranks)[0, 1]
        videos.append(ProbeVideo(int(vid), scored, float(rho)))
    mean = float(np.mean([v.correlation for v in videos])) if videos else float("nan")
    return ProbeReport(videos, mean, skipped, sample_count)


@dataclass
class SweepRow:
    lambda1: float
    val_accuracy: float  # NaN when the run failed
    error_message: str = ""

    @property
    def val_error(self) -> float:
        return 1.0 - self.val_accuracy


def lambda_sweep(train_ds: Dataset, val_ds: Dataset,
                 cfg: trainer_mod.TrainingConfig,
                 values=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0)) -> list[SweepRow]:
    """Retrain per trade-off value with the identical seed; evaluate on validation.

    Training failures are recorded on their row and the sweep continues.
    """
    rows = []
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"lambda1 value {value} outside [0, 1]")
        run_cfg = replace(cfg, lambda1=float(value))
        try:
            state = trainer_mod.train(train_ds, run_cfg)
            report = evaluate(state.ls, state.han, val_ds, cfg.strategy,
                              cfg.max_decode_len)
            rows.append(SweepRow(float(value), report.mean_accuracy))
        except (trainer_mod.TrainingDiverged, FloatingPointError) as exc:
            rows.append(SweepRow(float(value), float("nan"), str(exc)))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: Path | str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "val_accuracy", "val_error"])
        for row in rows:
            writer.writerow([f"{row.lambda1:.3f}", f"{row.val_accuracy:.6f}",
                             f"{row.val_error:.6f}"])
