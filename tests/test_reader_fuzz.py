"""Property tests of the readers on damaged inputs.

On each damaged input below, ``read_features``, ``load_dataset`` and
``read_vocabulary`` either load or raise ``CorpusError`` (``lshan`` exit 2),
and ``load_checkpoint`` either loads or raises ``ValueError`` (exit 1). A
refusal names the file it refused: the damaged file, or the manifest or a
file it lists, since a corpus holds many files of each kind. The
damage: truncation, bit flips and appended bytes of a valid feature file and
checkpoint, their header fields set to edge values with or without the
values that follow, manifests with a key missing or of another JSON type,
text that is not JSON, and random vocabulary text.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshan import han as han_mod
from lshan.corpus import (
    CorpusError, Vocabulary, load_dataset, read_features, read_vocabulary,
    text_lines, write_features,
)

FUZZ = settings(max_examples=100, deadline=None)
EDGE_VALUES = (0, 1, 2 ** 31, 2 ** 32 - 1)
VOCAB = Vocabulary(("#Start", "#End", "a", "b"))
MANIFEST = {"features": ["0.lshf", "1.lshf"], "annotations": "ann.txt",
            "split": "train"}
# no "/" in a path string, so that no example reads outside the fixture
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("ab.\\\0\ud800é ", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def feature_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "v.lshf"
    write_features(path, np.random.default_rng(0).normal(size=(3, 4)))
    return path.read_bytes()


def checkpoint_bytes(tmp_path_factory) -> bytes:
    _, params = han_mod.init_params(np.random.default_rng(0), 2, 3, 4, 2, 2)
    path = tmp_path_factory.mktemp("valid") / "m.lshn"
    han_mod.save_checkpoint(path, params, han_mod.DEFAULT_STRATEGY)
    return path.read_bytes()


# (valid bytes, reader, its error, offsets of the u32 header fields)
FORMATS = {
    "features": (feature_bytes, read_features, CorpusError, range(4, 16, 4)),
    "checkpoint": (checkpoint_bytes, han_mod.load_checkpoint, ValueError,
                   range(4, 36, 4)),
}


@pytest.fixture(scope="module", params=sorted(FORMATS))
def fmt(request, tmp_path_factory):
    """``(valid bytes, path to write, reader, error, header offsets)``; a
    module-scoped directory, so hypothesis may reuse it across examples."""
    make, read, error, offsets = FORMATS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "damaged"
    return make(tmp_path_factory), path, read, error, offsets


def assert_names_a_file(exc, paths):
    """``exc``'s message names one of ``paths``, followed by ': '."""
    assert any(f"{path}: " in str(exc) for path in paths), str(exc)


def load(fmt, data: bytes):
    """The reader's result on ``data``, or None where it refused it with its
    documented error naming the file; any other exception fails the test."""
    _, path, read, error, _ = fmt
    path.write_bytes(data)
    try:
        return read(path)
    except error as exc:
        assert_names_a_file(exc, [path])
        return None


class TestBinaryFiles:
    def test_valid_bytes_load(self, fmt):
        assert load(fmt, fmt[0]) is not None

    @FUZZ
    @given(data=st.data())
    def test_truncation_is_refused(self, fmt, data):
        valid = fmt[0]
        assert load(fmt, valid[:data.draw(st.integers(0, len(valid) - 1))]) \
            is None

    @FUZZ
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_appended_bytes_are_refused(self, fmt, tail):
        assert load(fmt, fmt[0] + tail) is None

    @FUZZ
    @given(data=st.data())
    def test_bit_flips(self, fmt, data):
        damaged = bytearray(fmt[0])
        for bit in data.draw(st.lists(st.integers(0, 8 * len(damaged) - 1),
                                      min_size=1, max_size=4)):
            damaged[bit // 8] ^= 1 << bit % 8
        load(fmt, bytes(damaged))

    @FUZZ
    @given(data=st.data())
    def test_header_fields_at_edge_values(self, fmt, data):
        damaged = bytearray(fmt[0])
        fields = data.draw(st.dictionaries(st.sampled_from(fmt[4]),
                                           st.sampled_from(EDGE_VALUES),
                                           min_size=1))
        for offset, value in fields.items():
            damaged[offset:offset + 4] = struct.pack("<I", value)
        if data.draw(st.booleans()):   # the length a zero dimension describes
            del damaged[max(fmt[4]) + 4:]
        load(fmt, bytes(damaged))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Two valid videos and their annotations; each test writes the manifest."""
    root = tmp_path_factory.mktemp("corpus")
    for name in MANIFEST["features"]:
        write_features(root / name, np.zeros((3, 2)))
    (root / "ann.txt").write_text("a\nb a\n")
    return root


def load_manifest(root, manifest):
    """``load_dataset`` of ``manifest``, the file's bytes or a dict written as
    JSON, or None where it refused it naming the manifest or a file the dict
    lists."""
    text = manifest if isinstance(manifest, bytes) else \
        json.dumps(manifest).encode()
    (root / "manifest.json").write_bytes(text)
    try:
        return load_dataset(root / "manifest.json", VOCAB)
    except CorpusError as exc:
        listed = []
        if isinstance(manifest, dict):
            features = manifest.get("features")
            listed = [manifest.get("annotations"),
                      *(features if isinstance(features, list) else [])]
        assert_names_a_file(exc, [root / "manifest.json"] + [
            root / rel for rel in listed if isinstance(rel, str)])
        return None


class TestManifests:
    def test_valid_manifest_loads(self, corpus_dir):
        loaded = load_manifest(corpus_dir, MANIFEST)
        assert [s.tokens for _, s in loaded.instances] == [(2,), (3, 2)]

    @pytest.mark.parametrize("key", sorted(MANIFEST))
    def test_a_missing_key_is_refused(self, corpus_dir, key):
        manifest = {k: v for k, v in MANIFEST.items() if k != key}
        assert load_manifest(corpus_dir, manifest) is None

    @FUZZ
    @given(key=st.sampled_from(sorted(MANIFEST)), value=JSON_VALUES)
    def test_a_key_of_another_type(self, corpus_dir, key, value):
        manifest = dict(MANIFEST, **{key: value})
        loaded = load_manifest(corpus_dir, manifest)
        assert loaded is None or value == MANIFEST[key]

    @FUZZ
    @given(value=JSON_VALUES)
    def test_a_path_of_another_type(self, corpus_dir, value):
        manifest = dict(MANIFEST, features=["0.lshf", value])
        load_manifest(corpus_dir, manifest)

    @FUZZ
    @given(text=st.binary(max_size=64) | JSON_VALUES.map(
        lambda value: json.dumps(value).encode()))
    def test_text_that_is_not_a_manifest(self, corpus_dir, text):
        assert load_manifest(corpus_dir, text) is None


class TestVocabularyText:
    @FUZZ
    @given(text=st.text(st.characters(exclude_categories=("Cs",)),
                        max_size=40)
           | st.lists(st.sampled_from(["a", "b", "c", "", " ", "a b", " c",
                                       "d\t", "\r", "\x0c", "e\u2003f"]),
                      max_size=6).map(
               lambda lines: "\n".join(["#Start", "#End"] + lines)))
    def test_random_text(self, corpus_dir, text):
        path = corpus_dir / "vocab.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            vocab = read_vocabulary(path)
        except CorpusError as exc:
            assert_names_a_file(exc, [path])
            return
        assert vocab.words == tuple(text_lines(text))
        assert all(word.split() == [word] for word in vocab.words)
