"""Seeded benchmark corpora, written in the program's own file formats.

The recipe is the README's: every content word owns one Gaussian prototype
vector, and a word emits a run of consecutive clips, each its prototype plus
N(0, sigma^2) noise. The program only ever sees the files written here:
``features/*.lshf``, ``annotations_<split>.txt``, ``manifest_<split>.json``
and ``vocab.txt``.

Sentence lengths and clips-per-word counts are drawn as shuffled balanced
multisets (every value of the range equally often), not independently. A
corpus then holds the same total number of words and clips whatever the
seed, so run-to-run spread in throughput comes from the program and not
from how much work the seed happened to draw. The seed still decides which
words each sentence holds, which video gets which length and which clip
count, and all the noise.

This module writes its files with its own code; it imports nothing from the
program.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESERVED = ("#Start", "#End")
FEATURE_MAGIC = b"LSHF"
FEATURE_VERSION = 1

# the fixture checkpoint is trained on the standard corpus drawn with this seed
FIXTURE_SEED = 0


@dataclass(frozen=True)
class CorpusSpec:
    vocab_size: int
    feature_dim: int
    instances: int
    words: tuple[int, int]   # inclusive range of words per sentence
    clips: tuple[int, int]   # inclusive range of clips per word
    noise: float


STANDARD = CorpusSpec(vocab_size=20, feature_dim=16, instances=50,
                      words=(3, 7), clips=(2, 4), noise=0.1)
# long videos for alignment training: 10-15 words of 4-8 clips, ~75 clips each
LONG = CorpusSpec(vocab_size=20, feature_dim=16, instances=24,
                  words=(10, 15), clips=(4, 8), noise=0.1)
HELD_OUT_INSTANCES = 20


@dataclass(frozen=True)
class Instance:
    clips: np.ndarray        # (n, dim) float32
    tokens: tuple[int, ...]  # content-word ids, 0-based (vocab index - 2)


def _balanced(rng: np.random.Generator, count: int, lo: int, hi: int
              ) -> np.ndarray:
    values = lo + np.arange(count) % (hi - lo + 1)
    return rng.permutation(values)


def prototypes(spec: CorpusSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    return rng.normal(0.0, 1.0, size=(spec.vocab_size, spec.feature_dim))


def draw(spec: CorpusSpec, protos: np.ndarray, seed: int, stream: int,
         count: int) -> list[Instance]:
    """``count`` instances from generator stream ``stream`` of ``seed``."""
    rng = np.random.default_rng([seed, stream])
    lengths = _balanced(rng, count, *spec.words)
    per_word = _balanced(rng, int(lengths.sum()), *spec.clips)
    out = []
    pos = 0
    for m in lengths:
        tokens = rng.integers(0, spec.vocab_size, size=int(m))
        blocks = []
        for word in tokens:
            k = int(per_word[pos])
            pos += 1
            noise = rng.normal(0.0, spec.noise, size=(k, spec.feature_dim))
            blocks.append(protos[word] + noise)
        out.append(Instance(np.concatenate(blocks).astype("<f4"),
                            tuple(int(t) for t in tokens)))
    return out


def vocabulary(spec: CorpusSpec) -> list[str]:
    return list(RESERVED) + [f"w{i:02d}" for i in range(spec.vocab_size)]


def write_split(out: Path, split: str, instances: list[Instance],
                words: list[str]) -> None:
    (out / "features").mkdir(parents=True, exist_ok=True)
    rels, lines = [], []
    for idx, inst in enumerate(instances):
        rel = f"features/{split}_{idx:04d}.lshf"
        n, dim = inst.clips.shape
        (out / rel).write_bytes(
            FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, n, dim)
            + inst.clips.tobytes(order="C"))
        rels.append(rel)
        lines.append(" ".join(words[t + 2] for t in inst.tokens))
    annotations = f"annotations_{split}.txt"
    (out / annotations).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {"features": rels, "annotations": annotations, "split": split}
    (out / f"manifest_{split}.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def write_corpus(out: Path, spec: CorpusSpec,
                 splits: dict[str, list[Instance]]) -> Path:
    """Write all splits into ``out`` atomically (temp dir, then rename)."""
    if (out / "vocab.txt").exists():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    words = vocabulary(spec)
    for split, instances in splits.items():
        write_split(tmp, split, instances, words)
    (tmp / "vocab.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    os.replace(tmp, out)
    return out


def standard_corpus(root: Path, seed: int) -> Path:
    """The standard corpus of ``seed``: 50 training instances."""
    protos = prototypes(STANDARD, seed)
    return write_corpus(root / f"standard-{seed}", STANDARD, {
        "train": draw(STANDARD, protos, seed, 1, STANDARD.instances)})


def long_corpus(root: Path, seed: int) -> Path:
    protos = prototypes(LONG, seed)
    return write_corpus(root / f"long-{seed}", LONG, {
        "train": draw(LONG, protos, seed, 1, LONG.instances)})


def decode_corpus(root: Path, seed: int) -> Path:
    """The fixture's own training split plus a held-out split of ``seed``.

    The held-out videos reuse the fixture corpus's word prototypes, so they
    show the same words; their sentences, counts and noise come from
    ``seed``.
    """
    protos = prototypes(STANDARD, FIXTURE_SEED)
    train = draw(STANDARD, protos, FIXTURE_SEED, 1, STANDARD.instances)
    held_out = draw(STANDARD, protos, seed, 2, HELD_OUT_INSTANCES)
    return write_corpus(root / f"decode-{seed}", STANDARD,
                        {"train": train, "test": held_out})
