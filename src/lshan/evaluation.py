"""Accuracy metric, corpus evaluation, rank-consistency probe, trade-off sweep.

The sentence accuracy is 1 - (S + I + D) / N, where S, I, D are the minimal
substitution / insertion / deletion counts transforming the hypothesis into the
reference and N is the reference length. It is 1 exactly at a perfect match and
can go negative when the hypothesis carries more errors than the reference has
words.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import han as han_mod
from . import latent_space as ls_mod
from . import trainer as trainer_mod
from .corpus import Dataset, Sentence, write_csv
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
    nh, nr = len(hyp), len(ref)
    dist = [list(range(nr + 1))]
    for i, h in enumerate(hyp, start=1):
        prev, row = dist[-1], [i]
        for j, r in enumerate(ref, start=1):
            row.append(min(prev[j - 1] + (h != r), prev[j] + 1, row[j - 1] + 1))
        dist.append(row)
    s = ins = dele = 0
    i, j = nh, nr
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] \
                and hyp[i - 1] == ref[j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditBreakdown(s, ins, dele, nr)


@dataclass
class InstanceResult:
    instance_id: int
    n_clips: int
    hyp_length: int
    breakdown: EditBreakdown

    @property
    def accuracy(self) -> float:
        return self.breakdown.accuracy


@dataclass
class EvalReport:
    results: list[InstanceResult]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.results]))

    @property
    def aggregate(self) -> EditBreakdown:
        """The S, I, D and reference lengths summed over the instances."""
        return EditBreakdown(*(sum(column) for column in zip(
            *(astuple(r.breakdown) for r in self.results))))

    def write_csv(self, path: Path | str) -> None:
        write_csv(path, ["instance_id", "n", "m", "hyp_len", "S", "I", "D",
                         "accuracy"],
                  ([r.instance_id, r.n_clips, r.breakdown.reference_length,
                    r.hyp_length, r.breakdown.substitutions,
                    r.breakdown.insertions, r.breakdown.deletions,
                    f"{r.accuracy:.6f}"] for r in self.results))


def evaluate(ls: LatentSpaceParams, han: Parameters, dataset: Dataset,
             strategy: SegmentationStrategy = han_mod.DEFAULT_STRATEGY,
             max_len: int = han_mod.MAX_DECODE_LEN) -> EvalReport:
    """Greedy-decode every instance and score it against its reference."""
    results = []
    for idx, (video, sentence) in enumerate(dataset.instances):
        hyp = han_mod.greedy_decode(han, ls, video, strategy, max_len)
        results.append(InstanceResult(idx, video.n, len(hyp),
                                      edit_breakdown(hyp, sentence.tokens)))
    return EvalReport(results)


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
    windowed: bool   # whether the distances come from the banded DTW

    def write_csv(self, path: Path | str) -> None:
        write_csv(path, ["video_id", "rank", "log_prob", "dtw_distance"],
                  ([video.video_id, rank, f"{log_p:.6f}", f"{d:.6f}"]
                   for video in self.videos
                   for rank, (_, log_p, d) in enumerate(video.hypotheses,
                                                        start=1)))


def _spearman(distances: list[float]) -> float:
    """Spearman correlation of the decoder ranks 1..L with the ranks of
    ``distances``, tied distances sharing their average rank: the Pearson
    correlation of the two rank lists, in the steps ``np.corrcoef`` takes.

    Every rank and mean is a multiple of 1/2, so the deviations and their
    products sum exactly in any order; what rounds is the same scaling by
    ``1.0 / (L - 1)``, square roots and two divisions, so the result is
    ``np.corrcoef``'s to the bit. Undefined (a zero division) when every
    distance ties.
    """
    count = len(distances)
    mean = (count + 1) / 2
    ranks = [sum(e < d for e in distances)
             + (sum(e == d for e in distances) + 1) / 2 for d in distances]
    decoder = [rank - mean for rank in range(1, count + 1)]
    ranked = [rank - mean for rank in ranks]
    scale = 1.0 / (count - 1)
    covariance = sum(a * b for a, b in zip(decoder, ranked)) * scale
    rho = covariance / math.sqrt(sum(a * a for a in decoder) * scale) \
        / math.sqrt(sum(b * b for b in ranked) * scale)
    return min(1.0, max(-1.0, rho))


def consistency_probe(ls: LatentSpaceParams, han: Parameters, dataset: Dataset,
                      k: int = 5, sample_count: int = 10, seed: int = 0,
                      strategy: SegmentationStrategy = han_mod.DEFAULT_STRATEGY,
                      max_len: int = han_mod.MAX_DECODE_LEN
                      ) -> ProbeReport:
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
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    windowed = False   # the probe ranks by the unbanded DTW
    rng = np.random.default_rng(seed)
    sample_count = min(sample_count, len(dataset))
    picks = rng.choice(len(dataset), size=sample_count, replace=False)
    videos = []
    skipped = 0
    for vid in picks:
        video, _ = dataset.instances[int(vid)]
        hyps = han_mod.kbest_decode(han, ls, video, strategy, k, max_len)
        # an empty or longer-than-the-video hypothesis has no alignment
        hyps = [(t, log_p) for t, log_p in hyps if 0 < len(t) <= video.n]
        if len({t for t, _ in hyps}) < 2:
            skipped += 1
            continue
        tables = ls_mod.align_batch(
            ls, [(video, Sentence(t)) for t, _ in hyps], windowed)
        scored = [(t, log_p, table.total)
                  for (t, log_p), table in zip(hyps, tables)]
        distances = [d for _, _, d in scored]
        if all(d == distances[0] for d in distances):
            skipped += 1
            continue
        videos.append(ProbeVideo(int(vid), scored, _spearman(distances)))
    mean = float(np.mean([v.correlation for v in videos])) if videos else float("nan")
    return ProbeReport(videos, mean, skipped, windowed)


@dataclass
class SweepRow:
    lambda1: float
    val_accuracy: float  # NaN when the run failed
    error_message: str = ""

    @property
    def val_error(self) -> float:
        return 1.0 - self.val_accuracy


def lambda_sweep(train_ds: Dataset, val_ds: Dataset,
                 cfg: trainer_mod.TrainingConfig, values) -> list[SweepRow]:
    """Retrain per trade-off value with the identical seed; evaluate on validation.

    Every value becomes a ``TrainingConfig`` before the first training, so
    one outside [0, 1] raises its ``ConfigError`` before any run; ``lshan
    sweep`` checks its ``--lambdas`` itself, before it opens ``--out``.
    Training failures are recorded on their row and the sweep continues.
    """
    rows = []
    for run_cfg in [replace(cfg, lambda1=float(value)) for value in values]:
        try:
            state = trainer_mod.train(train_ds, run_cfg)
            report = evaluate(state.ls, state.han, val_ds, cfg.strategy)
            rows.append(SweepRow(run_cfg.lambda1, report.mean_accuracy))
        except trainer_mod.TrainingDiverged as exc:
            rows.append(SweepRow(run_cfg.lambda1, float("nan"), str(exc)))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: Path | str) -> None:
    write_csv(path, ["lambda", "val_accuracy", "val_error"],
              ([f"{row.lambda1:.3f}", f"{row.val_accuracy:.6f}",
                f"{row.val_error:.6f}"] for row in rows))
