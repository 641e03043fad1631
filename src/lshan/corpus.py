"""Vocabulary, dataset containers, on-disk formats, and synthetic data generation.

On-disk formats:
  * feature file: binary, little-endian; magic ``LSHF``, u32 version=1,
    u32 clip count n, u32 feature dim, then n*dim float32 values row-major.
  * annotation file: UTF-8 text, one sentence per line, space-separated tokens.
  * manifest: JSON with keys "features" (list of paths), "annotations" (path),
    "split" ("train" | "validation" | "test"). Paths are relative to the
    manifest's directory.
  * vocabulary file: UTF-8 text, one token per line, line number = index.

Features are stored as float32 on disk and promoted to float64 in memory, so a
generate -> save -> load round trip is element-wise exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

START_SYMBOL = "#Start"
START_INDEX = 0
END_SYMBOL = "#End"
END_INDEX = 1

FEATURE_MAGIC = b"LSHF"
FEATURE_VERSION = 1

VALID_SPLITS = ("train", "validation", "test")


class CorpusError(ValueError):
    """Raised for malformed corpora, files, or out-of-range indices."""


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token <-> index map with reserved boundary symbols at 0 and 1."""

    words: tuple[str, ...]
    index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.words) < 2 or self.words[START_INDEX] != START_SYMBOL \
                or self.words[END_INDEX] != END_SYMBOL:
            raise CorpusError(
                f"vocabulary must begin with {START_SYMBOL!r}, {END_SYMBOL!r}")
        if len(set(self.words)) != len(self.words):
            raise CorpusError("vocabulary contains duplicate tokens")
        object.__setattr__(
            self, "index_of", {w: i for i, w in enumerate(self.words)})

    @property
    def size(self) -> int:
        return len(self.words)

    def encode(self, tokens: list[str] | tuple[str, ...]) -> "Sentence":
        try:
            return Sentence(tuple(self.index_of[t] for t in tokens))
        except KeyError as exc:
            raise CorpusError(f"token {exc.args[0]!r} not in vocabulary") from None

    def decode(self, indices) -> list[str]:
        return [self.words[i] for i in indices]


@dataclass(frozen=True)
class Sentence:
    """Annotated word sequence as vocabulary indices, boundary symbols excluded."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise CorpusError("sentence must contain at least one word")
        if any(t in (START_INDEX, END_INDEX) for t in self.tokens):
            raise CorpusError("sentence must not contain reserved symbols")

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ClipFeatureSequence:
    """One video as an ordered sequence of fixed-dimension clip feature vectors."""

    clips: np.ndarray  # (n, dim) float64

    def __post_init__(self):
        clips = np.asarray(self.clips, dtype=np.float64)
        if clips.ndim != 2 or clips.shape[0] < 1 or clips.shape[1] < 1:
            raise CorpusError(f"clip matrix must be 2-D and non-empty, got shape {clips.shape}")
        if not np.all(np.isfinite(clips)):
            raise CorpusError("clip features contain non-finite values")
        object.__setattr__(self, "clips", clips)

    @property
    def n(self) -> int:
        return self.clips.shape[0]

    @property
    def dim(self) -> int:
        return self.clips.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Paired (video, sentence) instances sharing one vocabulary.

    ``alignments`` is generator metadata (true word position per clip) kept for
    diagnostics on synthetic data; it is never serialized.
    """

    instances: tuple[tuple[ClipFeatureSequence, Sentence], ...]
    vocabulary: Vocabulary
    split: str = "train"
    alignments: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.split not in VALID_SPLITS:
            raise CorpusError(f"unknown split {self.split!r}")
        dims = {v.dim for v, _ in self.instances}
        if len(dims) > 1:
            raise CorpusError(f"inconsistent feature dimensions {sorted(dims)}")
        for idx, (video, sentence) in enumerate(self.instances):
            if video.n < sentence.length:
                raise CorpusError(
                    f"instance {idx}: {video.n} clips < {sentence.length} words "
                    "(alignment requires at least one clip per word)")
            if any(t >= self.vocabulary.size for t in sentence.tokens):
                raise CorpusError(f"instance {idx}: token index out of vocabulary")

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the prototype-plus-noise synthetic dataset generator."""

    vocab_size: int = 20          # content words, excluding the 2 reserved symbols
    feature_dim: int = 16
    latent_dim: int = 16
    clips_per_word: tuple[int, int] = (2, 4)
    noise_std: float = 0.1
    sentence_length: tuple[int, int] = (3, 7)
    instance_count: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 1 or self.feature_dim < 1 or self.latent_dim < 1 \
                or self.instance_count < 1:
            raise CorpusError("all synthetic counts must be positive")
        if self.noise_std < 0:
            raise CorpusError("noise standard deviation must be >= 0")
        k_lo, k_hi = self.clips_per_word
        m_lo, m_hi = self.sentence_length
        if k_lo < 1 or k_hi < k_lo:
            raise CorpusError("clips-per-word range must satisfy 1 <= lo <= hi")
        if m_lo < 1 or m_hi < m_lo:
            raise CorpusError("sentence-length range must satisfy 1 <= lo <= hi")


def generate_synthetic(cfg: SyntheticConfig, split: str = "train") -> Dataset:
    """Prototype-per-word clips with Gaussian noise; deterministic given seed.

    Each content word owns one fixed prototype vector; a word emits a uniform
    random number of consecutive clips equal to prototype + noise. Features are
    quantized to float32 like the on-disk format so save/load round trips are
    exact.
    """
    rng = np.random.default_rng(cfg.seed)
    words = tuple(f"w{i:02d}" for i in range(cfg.vocab_size))
    vocab = Vocabulary((START_SYMBOL, END_SYMBOL) + words)
    prototypes = rng.normal(0.0, 1.0, size=(cfg.vocab_size, cfg.feature_dim))

    instances = []
    alignments = []
    m_lo, m_hi = cfg.sentence_length
    k_lo, k_hi = cfg.clips_per_word
    for _ in range(cfg.instance_count):
        m = int(rng.integers(m_lo, m_hi + 1))
        word_ids = rng.integers(0, cfg.vocab_size, size=m)
        blocks = []
        alignment: list[int] = []
        for pos, wid in enumerate(word_ids):
            k = int(rng.integers(k_lo, k_hi + 1))
            block = prototypes[wid] + rng.normal(
                0.0, cfg.noise_std, size=(k, cfg.feature_dim)) if cfg.noise_std > 0 \
                else np.tile(prototypes[wid], (k, 1))
            blocks.append(block)
            alignment.extend([pos] * k)
        clips = np.concatenate(blocks).astype(np.float32).astype(np.float64)
        sentence = Sentence(tuple(int(w) + 2 for w in word_ids))
        instances.append((ClipFeatureSequence(clips), sentence))
        alignments.append(tuple(alignment))
    return Dataset(tuple(instances), vocab, split, tuple(alignments))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def read_text(path: Path, what: str,
              error: type[ValueError] = CorpusError) -> str:
    """The UTF-8 text of ``what`` at ``path``; a missing file, a directory or
    bytes that are not UTF-8 raise ``error`` naming the path."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise error(f"{what} missing: {path}") from None
    except IsADirectoryError:
        raise error(f"{what} is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 ({exc.reason})") from None


def write_features(path: Path | str, clips: np.ndarray) -> None:
    clips = np.asarray(clips)
    n, dim = clips.shape
    payload = clips.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, n, dim))
        fh.write(payload)


def read_features(path: Path | str) -> ClipFeatureSequence:
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"feature file missing or not a file: {path}")
    data = path.read_bytes()
    if len(data) < 16 or data[:4] != FEATURE_MAGIC:
        raise CorpusError(f"{path}: not a feature file (bad magic)")
    version, n, dim = struct.unpack("<III", data[4:16])
    if version != FEATURE_VERSION:
        raise CorpusError(f"{path}: unsupported feature file version {version}")
    expected = 16 + 4 * n * dim
    if len(data) != expected:
        raise CorpusError(f"{path}: expected {expected} bytes, found {len(data)}")
    clips = np.frombuffer(data, dtype="<f4", offset=16).reshape(n, dim)
    clips = clips.astype(np.float64)
    if not np.all(np.isfinite(clips)):
        raise CorpusError(f"{path}: non-finite feature values")
    return ClipFeatureSequence(clips)


def write_vocabulary(path: Path | str, vocab: Vocabulary) -> None:
    Path(path).write_text("\n".join(vocab.words) + "\n", encoding="utf-8")


def read_vocabulary(path: Path | str) -> Vocabulary:
    lines = read_text(Path(path), "vocabulary file").splitlines()
    return Vocabulary(tuple(lines))


def save_dataset(dataset: Dataset, out_dir: Path | str) -> Path:
    """Write features, annotations, and manifest for one split. Returns the manifest path."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    split = dataset.split
    feature_paths = []
    lines = []
    for idx, (video, sentence) in enumerate(dataset.instances):
        rel = f"features/{split}_{idx:04d}.lshf"
        write_features(out_dir / rel, video.clips)
        feature_paths.append(rel)
        lines.append(" ".join(dataset.vocabulary.decode(sentence.tokens)))
    annotations = f"annotations_{split}.txt"
    (out_dir / annotations).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {"features": feature_paths, "annotations": annotations,
                "split": split}
    manifest_path = out_dir / f"manifest_{split}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n",
                             encoding="utf-8")
    return manifest_path


def load_dataset(manifest_path: Path | str, vocab: Vocabulary) -> Dataset:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("features", "annotations", "split"):
        if key not in manifest:
            raise CorpusError(f"{manifest_path}: manifest lacks key {key!r}")
    features, annotations = manifest["features"], manifest["annotations"]
    if not isinstance(features, list) or not isinstance(annotations, str) \
            or not all(isinstance(rel, str) for rel in features):
        raise CorpusError(f"{manifest_path}: 'features' must be a list of "
                          "paths and 'annotations' a path")
    base = manifest_path.parent
    lines = read_text(base / annotations, "annotation file").splitlines()
    token_lists = [line.split() for line in lines if line.strip()]
    if len(token_lists) != len(features):
        raise CorpusError(
            f"{manifest_path}: {len(features)} feature files but "
            f"{len(token_lists)} annotated sentences")
    instances = tuple((read_features(base / rel), vocab.encode(tokens))
                      for rel, tokens in zip(features, token_lists))
    return Dataset(instances, vocab, manifest["split"])
