"""Joint training of the latent space and the attention encoder-decoder.

The per-batch objective is

    mean over batch of [ lam1 * relevance + (1 - lam1) * coherence ]
    + lam2 * (sum of squared parameter norms),

minimized by plain stochastic gradient descent with global-norm gradient
clipping. Given a fixed seed and config, training is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import han as han_mod
from . import latent_space as ls_mod
from .corpus import Dataset, read_text, text_lines, write_csv
from .han import Parameters, SegmentationStrategy, parse_strategy, save_checkpoint
from .latent_space import LatentSpaceParams


class ConfigError(ValueError):
    """Raised for malformed training configuration files or values."""


class TrainingDiverged(RuntimeError):
    """Raised when a loss or parameter becomes non-finite during training."""


@dataclass(frozen=True)
class TrainingConfig:
    lambda1: float = 0.6          # relevance vs coherence trade-off
    lambda2: float = 0.0002       # squared-norm regularization weight
    learning_rate: float = 0.3
    decay_factor: float = 0.5     # multiplicative rate decay
    decay_interval: int = 150     # epochs between decays
    epochs: int = 400
    batch_size: int = 4
    seed: int = 0
    latent_dim: int = 16
    hidden_size: int = 32
    attention_size: int = 16
    strategy: SegmentationStrategy = han_mod.DEFAULT_STRATEGY
    windowed_dtw: bool = True
    checkpoint_every: int = 0     # epochs; 0 disables periodic checkpoints
    max_grad_norm: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.lambda1 <= 1.0:
            raise ConfigError("lambda1 must lie in [0, 1]")
        if self.lambda2 < 0:
            raise ConfigError("lambda2 must be >= 0")
        if self.learning_rate <= 0 or self.decay_factor <= 0:
            raise ConfigError("learning rate and decay factor must be positive")
        if min(self.decay_interval, self.epochs, self.batch_size,
               self.latent_dim, self.hidden_size, self.attention_size) < 1:
            raise ConfigError("counts and dimensions must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0 or self.max_grad_norm <= 0:
            raise ConfigError("bad checkpoint cadence or gradient clip norm")
        try:   # the rate is largest at the last epoch when it grows
            last_rate = learning_rate_at(self, self.epochs - 1)
        except OverflowError:
            last_rate = math.inf
        if not math.isfinite(last_rate):
            raise ConfigError(
                f"decay_factor {self.decay_factor} overflows the learning rate "
                f"within {self.epochs} epochs")

    def objective(self, rel, coh, reg):
        return self.lambda1 * rel + (1.0 - self.lambda1) * coh + self.lambda2 * reg


_PARSERS_BY_TYPE = {
    bool: lambda s: {"true": True, "false": False}[s.lower()],
    SegmentationStrategy: parse_strategy,
}
# each key parses as the type of its default
_CONFIG_PARSERS = {
    f.name: _PARSERS_BY_TYPE.get(type(f.default), type(f.default))
    for f in fields(TrainingConfig)
}


def parse_config(text: str) -> TrainingConfig:
    """``key = value`` lines; blank lines and '#' comments allowed; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except (ValueError, KeyError):
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key!r}") from None
    return TrainingConfig(**values)


def load_config(path: Path | str) -> TrainingConfig:
    return parse_config(read_text(Path(path), "config file", ConfigError))


def format_config(cfg: TrainingConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class EpochStats:
    relevance: float
    coherence: float
    regularizer: float
    total: float
    wall_seconds: float


@dataclass
class TrainState:
    ls: LatentSpaceParams
    han: Parameters   # the whole parameter buffer; ``ls`` views part of it
    rng: np.random.Generator
    history: list[EpochStats] = field(default_factory=list)


def regularizer(params: Parameters) -> float:
    # numpy's own loop: BLAS ddot splits the sum by its thread count
    return float(np.einsum("i,i->", params.flat, params.flat))


def _instance_losses(batch, ls: LatentSpaceParams, han: Parameters,
                     cfg: TrainingConfig, rel: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Each instance's (relevance, coherence) loss, in batch order, from one
    lockstep DTW and one padded HAN pass; a term ``cfg`` skips reads 0.
    Given ``rel``, the batch's relevance losses under the present projections,
    the DTW is skipped and ``rel`` returned in its place."""
    coh = np.zeros(len(batch))
    if rel is None:
        rel = np.zeros(len(batch))
        if cfg.lambda1 > 0.0:
            rel = np.array([table.total for table in ls_mod.align_batch(
                ls, batch, cfg.windowed_dtw)])
    if cfg.lambda1 < 1.0:
        coh = han_mod._coherence_forward(han, ls, batch, cfg.strategy)[0]
    return rel, coh


def joint_loss(batch, ls: LatentSpaceParams, han: Parameters,
               cfg: TrainingConfig) -> tuple[float, float, float, float]:
    """Returns (total, mean relevance, mean coherence, regularizer)."""
    if not batch:
        raise ValueError("empty batch")
    rel, coh = (sum(losses.tolist()) / len(batch)
                for losses in _instance_losses(batch, ls, han, cfg))
    reg = regularizer(han)
    return cfg.objective(rel, coh, reg), rel, coh, reg


def joint_grad(batch, ls: LatentSpaceParams, han: Parameters,
               cfg: TrainingConfig, out: Parameters | None = None) -> Parameters:
    """Batch-mean gradient of the joint objective, in the layout of ``han``.

    The gradient is written into ``out``, which is zero-filled first and
    returned, so one buffer can serve every step of a run; without ``out``
    a fresh buffer is returned.
    With lambda1 at an endpoint the inactive term is skipped exactly, so e.g.
    at lambda1=1 the HAN parameters receive only the ridge gradient.
    ``grads.losses`` holds the batch's summed per-instance losses
    ``(relevance, coherence)`` from the same passes; a skipped term sums to 0.
    """
    grads = Parameters(han.layout) if out is None else out
    grads.flat.fill(0.0)
    scale = 1.0 / len(batch)
    rel_sum = coh_sum = 0.0
    if cfg.lambda1 < 1.0:
        losses, _ = han_mod.coherence_grad(han, ls, batch, cfg.strategy, grads)
        coh_sum = sum(losses)
        grads.flat *= (1.0 - cfg.lambda1) * scale
    if cfg.lambda1 > 0.0:
        losses, g_tv, g_ts = ls_mod.relevance_grad(ls, batch, cfg.windowed_dtw)
        rel_sum = sum(losses)
        grads["t_v"] += cfg.lambda1 * scale * g_tv
        grads["t_s"] += cfg.lambda1 * scale * g_ts
    if cfg.lambda2 > 0.0:
        grads.flat += 2.0 * cfg.lambda2 * han.flat
    grads.losses = (rel_sum, coh_sum)
    return grads


def clip_gradients(grads: Parameters, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = math.sqrt(np.einsum("i,i->", grads.flat, grads.flat))
    if total > max_norm:
        grads.flat *= max_norm / total
    return total


def sgd_step(state: TrainState, grads: Parameters, rate: float) -> None:
    """In-place descent step p <- p - rate * g; aborts on non-finite results.

    ``grads`` is scaled by ``rate`` in place, so it must not be reused after
    the step."""
    grads.flat *= rate
    state.han.flat -= grads.flat
    name = state.han.first_non_finite()
    if name is not None:
        raise TrainingDiverged(f"parameter group {name!r} became non-finite")


def learning_rate_at(cfg: TrainingConfig, epoch: int) -> float:
    return cfg.learning_rate * cfg.decay_factor ** (epoch // cfg.decay_interval)


def init_state(cfg: TrainingConfig, d_c: int, d_w: int) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    ls, han = han_mod.init_params(rng, cfg.latent_dim, d_c, d_w,
                                  cfg.hidden_size, cfg.attention_size)
    return TrainState(ls, han, rng)


def train(dataset: Dataset, cfg: TrainingConfig,
          out_dir: Path | str | None = None) -> TrainState:
    """Seeded SGD over shuffled batches. With ``out_dir``, it makes that
    directory and writes ``config.cfg``, the checkpoints, ``final.lshn`` and
    the loss log ``training_log.csv`` there. The log holds every completed
    epoch however the run ends; a run that diverges writes no ``final.lshn``.

    An epoch's ``rel_loss``/``coh_loss`` average each instance's loss from the
    pass that made its gradient, before its batch's step; ``reg`` is taken at
    the end of the epoch, and ``total`` weighs the three as the objective."""
    d_c = dataset.instances[0][0].dim
    state = init_state(cfg, d_c, dataset.vocabulary.size)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.cfg").write_text(format_config(cfg),
                                            encoding="utf-8")
    last_checkpoint: Path | None = None
    grads = Parameters(state.han.layout)   # every step's gradient

    try:
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            rate = learning_rate_at(cfg, epoch)
            order = state.rng.permutation(len(dataset))
            rel_sum = coh_sum = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                batch = [dataset.instances[i]
                         for i in order[lo:lo + cfg.batch_size]]
                joint_grad(batch, state.ls, state.han, cfg, grads)
                rel_sum += grads.losses[0]
                coh_sum += grads.losses[1]
                clip_gradients(grads, cfg.max_grad_norm)
                sgd_step(state, grads, rate)
            rel = rel_sum / len(dataset)
            coh = coh_sum / len(dataset)
            reg = regularizer(state.han)
            total = cfg.objective(rel, coh, reg)
            if not np.isfinite(total):
                raise TrainingDiverged(f"loss became non-finite at epoch {epoch}")
            elapsed = time.perf_counter() - start
            state.history.append(EpochStats(rel, coh, reg, total, elapsed))
            if out_dir is not None and cfg.checkpoint_every > 0 \
                    and (epoch + 1) % cfg.checkpoint_every == 0:
                last_checkpoint = out_dir / f"checkpoint_{epoch + 1:04d}.lshn"
                save_checkpoint(last_checkpoint, state.han, cfg.strategy)
        if out_dir is not None:
            save_checkpoint(out_dir / "final.lshn", state.han, cfg.strategy)
    except TrainingDiverged as exc:
        if last_checkpoint is None:
            raise
        raise TrainingDiverged(
            f"{exc}; last checkpoint {last_checkpoint}") from None
    finally:
        if out_dir is not None:
            write_csv(out_dir / "training_log.csv",
                      ["epoch", "rel_loss", "coh_loss", "reg", "total",
                       "wall_seconds"],
                      ([epoch, e.relevance, e.coherence, e.regularizer,
                        e.total, e.wall_seconds]
                       for epoch, e in enumerate(state.history)))
    return state


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: dict[str, float]   # per parameter group
    failed: list[str]
    skipped_instances: int
    checked_instances: int

    @property
    def passed(self) -> bool:
        return not self.failed and self.checked_instances > 0


def _instance_degenerate(table: ls_mod.DtwTable) -> bool:
    """True where the DTW argmin path is nearly tied or hits near-zero
    distances: one of its binary min choices has a margin
    |D[i-1,j] - D[i-1,j-1]| below 1e-3 (the argmin path is not unique and
    the loss not differentiable), or one of its cells a distance below 1e-6.
    """
    words = ls_mod.backtrack(table).words
    i = np.flatnonzero(words)  # word j > 0 needs clip i >= j > 0
    j = words[i]
    a, b = table.costs[i - 1, j], table.costs[i - 1, j - 1]
    gaps = np.abs(a - b)[np.isfinite(a) & np.isfinite(b)]
    return bool(gaps.min(initial=np.inf) < 1e-3
                or table.dist[np.arange(words.size), words].min() < 1e-6)


def grad_check(instances, cfg: TrainingConfig, eps: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare each instance's analytic gradient of the joint objective
    under ``cfg`` with central finite differences of every parameter entry.

    Instances whose DTW path is degenerate (ties or near-zero distances) are
    skipped when the relevance term is active. Each entry is perturbed once,
    and one batched pass gives every checked instance's loss; the DTW reruns
    only for entries of ``t_v`` and ``t_s``. An array fails when its worst
    relative error exceeds ``tolerance`` or is not a number.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    instances = list(instances)
    d_w = max(max(s.tokens) for _, s in instances) + 1   # the words seen
    state = init_state(cfg, instances[0][0].dim, d_w)
    ls, han = state.ls, state.han
    batch = instances
    if cfg.lambda1 > 0.0:   # the instances align independently
        batch = [inst for inst, table in zip(instances, ls_mod.align_batch(
            ls, instances, cfg.windowed_dtw)) if not _instance_degenerate(table)]
    skipped = len(instances) - len(batch)
    if not batch:
        return GradCheckReport({}, [], skipped, 0)
    analytic = np.array([joint_grad([inst], ls, han, cfg).flat for inst in batch])
    numeric = np.zeros_like(analytic)
    # only t_v and t_s, first in the layout, move the relevance losses, and
    # the lockstep DTW computes each pair alone: reuse them for the rest
    n_proj = ls.t_v.size + ls.t_s.size
    rel = _instance_losses(batch, ls, han, cfg)[0]
    for idx in range(han.flat.size):
        orig = han.flat[idx]
        totals = []
        for shift in (eps, -eps):
            han.flat[idx] = orig + shift
            totals.append(cfg.objective(*_instance_losses(
                batch, ls, han, cfg, None if idx < n_proj else rel),
                regularizer(han)))
        han.flat[idx] = orig
        numeric[:, idx] = (totals[0] - totals[1]) / (2.0 * eps)
    # denominator floor keeps central-difference round-off (~1e-9 absolute at
    # these loss scales) from inflating the relative error of near-zero entries
    error = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    worst = {name: float(arr.max()) for name, arr
             in Parameters(han.layout, error.max(axis=0)).items()}
    failed = sorted(name for name, err in worst.items()
                    if not err <= tolerance)   # NaN fails too
    return GradCheckReport(worst, failed, skipped, len(batch))
