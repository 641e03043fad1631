"""Joint training of the latent space and the attention encoder-decoder.

The per-batch objective is

    mean over batch of [ lam1 * relevance + (1 - lam1) * coherence ]
    + lam2 * (sum of squared parameter norms),

minimized by plain stochastic gradient descent with global-norm gradient
clipping. Given a fixed seed and config, training is bit-for-bit reproducible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import han as han_mod
from . import latent_space as ls_mod
from .corpus import ClipFeatureSequence, Dataset, Sentence, read_text
from .han import Parameters, SegmentationStrategy, parse_strategy, save_checkpoint
from .latent_space import LatentSpaceParams


class ConfigError(ValueError):
    """Raised for malformed training configuration files or values."""


class TrainingDiverged(RuntimeError):
    """Raised when a loss or parameter becomes non-finite during training."""

    def __init__(self, message: str, last_checkpoint: Path | None = None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


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
    max_decode_len: int = 30

    def __post_init__(self):
        if not 0.0 <= self.lambda1 <= 1.0:
            raise ConfigError("lambda1 must lie in [0, 1]")
        if self.lambda2 < 0:
            raise ConfigError("lambda2 must be >= 0")
        if self.learning_rate <= 0 or self.decay_factor <= 0:
            raise ConfigError("learning rate and decay factor must be positive")
        if min(self.decay_interval, self.epochs, self.batch_size,
               self.latent_dim, self.hidden_size, self.attention_size,
               self.max_decode_len) < 1:
            raise ConfigError("counts and dimensions must be positive")
        if self.checkpoint_every < 0 or self.max_grad_norm <= 0:
            raise ConfigError("bad checkpoint cadence or gradient clip norm")


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    epoch: int
    history: list[EpochStats] = field(default_factory=list)
    rng: np.random.Generator | None = None


def _policy_for(video: ClipFeatureSequence, sentence: Sentence,
                cfg: TrainingConfig) -> ls_mod.WindowPolicy | None:
    if not cfg.windowed_dtw:
        return None
    return ls_mod.window_policy(video.n, sentence.length)


def regularizer(params: Parameters) -> float:
    # summed array by array: one dot product over the buffer rounds differently
    return float(sum(np.add.reduce(arr * arr, axis=None)
                     for arr in params.values()))


def joint_loss(batch, ls: LatentSpaceParams, han: Parameters,
               cfg: TrainingConfig) -> tuple[float, float, float, float]:
    """Returns (total, mean relevance, mean coherence, regularizer)."""
    if not batch:
        raise ValueError("empty batch")
    rel = coh = 0.0
    for video, sentence in batch:
        if cfg.lambda1 > 0.0:
            rel += ls_mod.relevance_loss(ls, video, sentence,
                                         _policy_for(video, sentence, cfg))
        if cfg.lambda1 < 1.0:
            coh += han_mod.coherence_loss(han, ls, video, sentence, cfg.strategy)
    rel /= len(batch)
    coh /= len(batch)
    reg = regularizer(han)
    total = cfg.lambda1 * rel + (1.0 - cfg.lambda1) * coh + cfg.lambda2 * reg
    return total, rel, coh, reg


def joint_grad(batch, ls: LatentSpaceParams, han: Parameters,
               cfg: TrainingConfig) -> Parameters:
    """Batch-mean gradient of the joint objective, in the layout of ``han``.

    With lambda1 at an endpoint the inactive term is skipped exactly, so e.g.
    at lambda1=1 the HAN parameters receive only the ridge gradient.
    ``grads.losses`` holds the batch's summed per-instance losses
    ``(relevance, coherence)`` from the same passes; a skipped term sums to 0.
    """
    if not batch:
        raise ValueError("empty batch")
    grads = Parameters(han.layout)
    scale = 1.0 / len(batch)
    rel_sum = coh_sum = 0.0
    for video, sentence in batch:
        if cfg.lambda1 > 0.0:
            rel, g_tv, g_ts = ls_mod.relevance_grad(
                ls, video, sentence, _policy_for(video, sentence, cfg))
            rel_sum += rel
            grads["t_v"] += cfg.lambda1 * scale * g_tv
            grads["t_s"] += cfg.lambda1 * scale * g_ts
        if cfg.lambda1 < 1.0:
            coh, g_coh = han_mod.coherence_grad(han, ls, video, sentence,
                                                cfg.strategy)
            coh_sum += coh
            w = (1.0 - cfg.lambda1) * scale
            grads.flat += w * g_coh.flat
    if cfg.lambda2 > 0.0:
        grads.flat += 2.0 * cfg.lambda2 * han.flat
    grads.losses = (rel_sum, coh_sum)
    return grads


def clip_gradients(grads: Parameters, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    # summed array by array, like ``regularizer``
    total = np.sqrt(sum(float(np.add.reduce(g * g, axis=None))
                        for g in grads.values()))
    if total > max_norm:
        grads.flat *= max_norm / total
    return total


def sgd_step(state: TrainState, grads: Parameters, rate: float) -> TrainState:
    """In-place descent step p <- p - rate * g; aborts on non-finite results."""
    state.han.flat -= rate * grads.flat
    name = state.han.first_non_finite()
    if name is not None:
        raise TrainingDiverged(f"parameter group {name!r} became non-finite")
    return state


def learning_rate_at(cfg: TrainingConfig, epoch: int) -> float:
    return cfg.learning_rate * cfg.decay_factor ** (epoch // cfg.decay_interval)


def init_state(cfg: TrainingConfig, d_c: int, d_w: int) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    ls, han = han_mod.init_params(rng, cfg.latent_dim, d_c, d_w,
                                  cfg.hidden_size, cfg.attention_size)
    return TrainState(ls, han, epoch=0, rng=rng)


def train(dataset: Dataset, cfg: TrainingConfig,
          out_dir: Path | str | None = None,
          log_path: Path | str | None = None) -> TrainState:
    """Seeded SGD over shuffled batches; optional checkpoints and CSV loss log.

    An epoch's ``rel_loss``/``coh_loss`` average each instance's loss from the
    pass that made its gradient, before its batch's step; ``reg`` is taken at
    the end of the epoch, and ``total`` weighs the three as the objective."""
    if len(dataset) == 0:
        raise ValueError("training split is empty")
    d_c = dataset.instances[0][0].dim
    state = init_state(cfg, d_c, dataset.vocabulary.size)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    last_checkpoint: Path | None = None

    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        rate = learning_rate_at(cfg, epoch)
        order = state.rng.permutation(len(dataset))
        rel_sum = coh_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [dataset.instances[i] for i in order[lo:lo + cfg.batch_size]]
            grads = joint_grad(batch, state.ls, state.han, cfg)
            rel_sum += grads.losses[0]
            coh_sum += grads.losses[1]
            clip_gradients(grads, cfg.max_grad_norm)
            try:
                sgd_step(state, grads, rate)
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), last_checkpoint) from None
        rel = rel_sum / len(dataset)
        coh = coh_sum / len(dataset)
        reg = regularizer(state.han)
        total = cfg.lambda1 * rel + (1.0 - cfg.lambda1) * coh + cfg.lambda2 * reg
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch}", last_checkpoint)
        elapsed = time.perf_counter() - start
        state.history.append(EpochStats(rel, coh, reg, total, elapsed))
        state.epoch = epoch + 1
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            last_checkpoint = out_dir / f"checkpoint_{epoch + 1:04d}.lshn"
            save_checkpoint(last_checkpoint, state.ls, state.han, cfg.strategy)

    if out_dir is not None:
        save_checkpoint(out_dir / "final.lshn", state.ls, state.han, cfg.strategy)
    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "rel_loss", "coh_loss", "reg", "total",
                             "wall_seconds"])
            writer.writerows(
                [epoch, e.relevance, e.coherence, e.regularizer, e.total,
                 e.wall_seconds] for epoch, e in enumerate(state.history))
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
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.failed and self.checked_instances > 0


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # denominator floor keeps central-difference round-off (~1e-9 absolute at
    # these loss scales) from inflating the relative error of near-zero entries
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _instance_degenerate(ls, video, sentence, policy,
                         margin_tol=1e-3) -> bool:
    """True where the DTW argmin path is nearly tied or hits near-zero distances."""
    v_lat = ls_mod.project_video(ls.t_v, video)
    s_lat = ls_mod.project_sentence(ls.t_s, sentence)
    table = ls_mod.dtw(v_lat, s_lat, policy)
    path = ls_mod.backtrack(table)
    return (ls_mod.path_margin(table, path) < margin_tol
            or ls_mod.min_path_distance(table, path) < 1e-6)


def grad_check(instances, cfg: TrainingConfig, eps: float = 1e-5,
               tolerance: float = 1e-4, loss: str = "joint",
               samples_per_group: int | None = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss`` selects the differentiated objective: "joint", "relevance", or
    "coherence". Instances whose DTW path is degenerate (ties or near-zero
    distances) are skipped when the relevance term is active.
    ``samples_per_group`` caps how many entries of each parameter array get a
    finite-difference probe per instance (seeded, without replacement); None
    checks every entry.
    """
    if loss not in ("joint", "relevance", "coherence"):
        raise ValueError(f"unknown loss {loss!r}")
    instances = list(instances)
    if not instances:
        raise ValueError("no instances to check")
    d_c = instances[0][0].dim
    if loss == "relevance":
        eff = replace(cfg, lambda1=1.0, lambda2=0.0)
    elif loss == "coherence":
        eff = replace(cfg, lambda1=0.0, lambda2=0.0)
    else:
        eff = cfg

    worst: dict[str, float] = {}
    skipped = checked = 0
    base_state = init_state(cfg, d_c, _vocab_size_of(instances))
    sample_rng = np.random.default_rng(cfg.seed)
    for video, sentence in instances:
        ls, han = base_state.ls, base_state.han
        if eff.lambda1 > 0.0 and _instance_degenerate(
                ls, video, sentence, _policy_for(video, sentence, eff)):
            skipped += 1
            continue
        checked += 1
        batch = [(video, sentence)]
        grads = joint_grad(batch, ls, han, eff)
        for name, arr in han.items():
            flat = arr.reshape(-1)
            g_flat = grads[name].reshape(-1)
            if samples_per_group is None or samples_per_group >= flat.size:
                idxs = np.arange(flat.size)
            else:
                idxs = sample_rng.choice(flat.size, size=samples_per_group,
                                         replace=False)
            analytic = np.empty(len(idxs))
            numeric = np.empty(len(idxs))
            for pos, idx in enumerate(idxs):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = joint_loss(batch, ls, han, eff)[0]
                flat[idx] = orig - eps
                down = joint_loss(batch, ls, han, eff)[0]
                flat[idx] = orig
                analytic[pos] = g_flat[idx]
                numeric[pos] = (up - down) / (2.0 * eps)
            err = _relative_error(analytic, numeric)
            worst[name] = max(worst.get(name, 0.0), err)
    failed = sorted(name for name, err in worst.items() if err > tolerance)
    return GradCheckReport(worst, failed, skipped, checked, tolerance)


def _vocab_size_of(instances) -> int:
    return max(max(s.tokens) for _, s in instances) + 1
