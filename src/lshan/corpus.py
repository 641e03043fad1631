"""Vocabulary, dataset containers, on-disk formats, and synthetic data generation.

On-disk formats:
  * feature file: binary, little-endian; magic ``LSHF``, u32 version=1,
    u32 clip count n, u32 feature dim, then n*dim float32 values row-major.
  * annotation file: UTF-8 text, one sentence per line, space-separated tokens.
  * manifest: JSON with keys "features" (list of paths), "annotations" (path),
    "split" ("train" | "validation" | "test"). Paths are relative to the
    manifest's directory.
  * vocabulary file: UTF-8 text, one token per line and no whitespace in a
    line, line number = index. Blank lines may only end a text file.

Features are stored as float32 on disk and promoted to float64 in memory, so a
generate -> save -> load round trip is element-wise exact.
"""

from __future__ import annotations

import csv
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
    """Raised for malformed corpora or files."""


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
        # generate_synthetic's float32 cast overflows at a large noise
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

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the prototype-plus-noise synthetic generator; bad knobs raise ValueError."""

    vocab_size: int = 20          # content words, excluding the 2 reserved symbols
    feature_dim: int = 16
    clips_per_word: tuple[int, int] = (2, 4)
    noise_std: float = 0.1
    sentence_length: tuple[int, int] = (3, 7)
    instance_count: int = 50
    seed: int = 0

    def __post_init__(self):
        if min(self.vocab_size, self.feature_dim, self.instance_count) < 1:
            raise ValueError("all synthetic counts must be positive")
        if not 0 <= self.noise_std < np.inf:   # NaN compares false
            raise ValueError("noise standard deviation must be >= 0 and "
                             f"finite, got {self.noise_std}")
        k_lo, k_hi = self.clips_per_word
        m_lo, m_hi = self.sentence_length
        if k_lo < 1 or k_hi < k_lo:
            raise ValueError("clips-per-word range must satisfy 1 <= lo <= hi")
        if m_lo < 1 or m_hi < m_lo:
            raise ValueError("sentence-length range must satisfy 1 <= lo <= hi")


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
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
    return Dataset(tuple(instances), vocab, alignments=tuple(alignments))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def read_bytes(path: Path, what: str,
               error: type[ValueError] = CorpusError) -> bytes:
    """The bytes of ``what`` at ``path``, read as ``cat`` reads them; a path the
    OS will not read raises ``error("cannot read <what> <path>: <reason>")``."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:   # a NUL byte in the path
        raise error(f"cannot read {what} {path}: {exc}") from None


def read_text(path: Path, what: str,
              error: type[ValueError] = CorpusError) -> str:
    """The UTF-8 text of ``what`` at ``path``, read by ``read_bytes``; bytes
    that are not UTF-8 raise ``error`` naming the path."""
    try:
        return read_bytes(path, what, error).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 ({exc.reason})") from None


def text_lines(text: str) -> list[str]:
    """The lines of ``text`` as editors number them, through the last that
    holds more than whitespace: split at line feeds alone, one carriage
    return dropped from each line's end. ``str.splitlines`` would also split
    at lone carriage returns, form feeds and other separators that may sit
    inside a line."""
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def write_csv(path: Path | str, header: list[str], rows) -> None:
    """A UTF-8 CSV file of the ``header`` row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    data = read_bytes(path, "feature file")
    if len(data) < 16 or data[:4] != FEATURE_MAGIC:
        raise CorpusError(f"{path}: not a feature file (bad magic)")
    version, n, dim = struct.unpack("<III", data[4:16])
    if version != FEATURE_VERSION:
        raise CorpusError(f"{path}: unsupported feature file version {version}")
    expected = 16 + 4 * n * dim
    if len(data) != expected:
        raise CorpusError(f"{path}: expected {expected} bytes, found {len(data)}")
    clips = np.frombuffer(data, dtype="<f4", offset=16).reshape(n, dim)
    # checked before the cast, which warns on a signaling NaN
    if not np.all(np.isfinite(clips)):
        raise CorpusError(f"{path}: non-finite feature values")
    try:   # a header that gives 0 clips or dimension 0
        return ClipFeatureSequence(clips.astype(np.float64))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_vocabulary(path: Path | str, vocab: Vocabulary) -> None:
    Path(path).write_text("\n".join(vocab.words) + "\n", encoding="utf-8")


def read_vocabulary(path: Path | str) -> Vocabulary:
    words = text_lines(read_text(Path(path), "vocabulary file"))
    for number, word in enumerate(words, start=1):
        if word.split() != [word]:
            raise CorpusError(f"{path}: line {number} " + (
                "holds whitespace; a line is one token" if word.strip()
                else "is blank; only trailing lines may be"))
    try:   # reserved words first, no word twice
        return Vocabulary(tuple(words))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


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
    text = read_text(manifest_path, "manifest")   # names its own failure
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError) as exc:   # any text json refuses
        raise CorpusError(f"{manifest_path}: cannot parse JSON ({exc})") from None
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
    if not features:
        raise CorpusError(f"{manifest_path}: the manifest lists no instances")
    base = manifest_path.parent
    annotation_path = base / annotations
    token_lists = [line.split() for line in
                   text_lines(read_text(annotation_path, "annotation file"))]
    if [] in token_lists:
        raise CorpusError(f"{annotation_path}: line {token_lists.index([]) + 1}"
                          " is blank; only trailing lines may be")
    if len(token_lists) != len(features):
        raise CorpusError(
            f"{manifest_path}: {len(features)} feature files but "
            f"{len(token_lists)} annotated sentences")
    instances = []
    for number, (rel, tokens) in enumerate(zip(features, token_lists), 1):
        video = read_features(base / rel)
        try:
            instances.append((video, vocab.encode(tokens)))
        except CorpusError as exc:
            raise CorpusError(f"{annotation_path}: line {number}: {exc}") \
                from None
    try:   # an unknown split, or a video with fewer clips than words
        return Dataset(tuple(instances), vocab, manifest["split"])
    except CorpusError as exc:
        raise CorpusError(f"{manifest_path}: {exc}") from None
