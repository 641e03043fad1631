import numpy as np
import pytest

from lshan import corpus
from lshan.corpus import (
    ClipFeatureSequence, CorpusError, Sentence, SyntheticConfig, Vocabulary,
    generate_synthetic, load_dataset, read_features, save_dataset,
    write_features,
)

VOCAB = Vocabulary(("#Start", "#End", "a", "b", "c", "d", "e"))


class TestTypes:
    def test_sentence_requires_word(self):
        with pytest.raises(CorpusError):
            Sentence(())

    def test_sentence_rejects_reserved(self):
        with pytest.raises(CorpusError):
            Sentence((0, 2))

    def test_clips_reject_nan(self):
        with pytest.raises(CorpusError):
            ClipFeatureSequence(np.array([[1.0, np.nan]]))

    def test_vocabulary_requires_reserved_prefix(self):
        with pytest.raises(CorpusError):
            Vocabulary(("a", "b"))


class TestSynthetic:
    def test_zero_noise_clips_equal_prototypes(self):
        cfg = SyntheticConfig(vocab_size=3, feature_dim=4, noise_std=0.0,
                              clips_per_word=(2, 2), sentence_length=(1, 1),
                              instance_count=1, seed=5)
        ds = generate_synthetic(cfg)
        video, sentence = ds.instances[0]
        assert video.n == 2
        np.testing.assert_array_equal(video.clips[0], video.clips[1])

    def test_determinism(self):
        cfg = SyntheticConfig(instance_count=5, seed=42)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert len(a) == len(b)
        for (va, sa), (vb, sb) in zip(a.instances, b.instances):
            np.testing.assert_array_equal(va.clips, vb.clips)
            assert sa == sb

    def test_alignment_metadata(self):
        ds = generate_synthetic(SyntheticConfig(instance_count=3, seed=1))
        for (video, sentence), alignment in zip(ds.instances, ds.alignments):
            assert len(alignment) == video.n
            assert max(alignment) == sentence.length - 1

    def test_invalid_config(self):
        with pytest.raises(CorpusError):
            SyntheticConfig(noise_std=-1.0)
        with pytest.raises(CorpusError):
            SyntheticConfig(clips_per_word=(0, 2))


class TestFileFormats:
    def test_feature_roundtrip(self, tmp_path):
        clips = np.random.default_rng(0).normal(size=(4, 3)) \
            .astype(np.float32).astype(np.float64)
        write_features(tmp_path / "x.lshf", clips)
        loaded = read_features(tmp_path / "x.lshf")
        np.testing.assert_array_equal(loaded.clips, clips)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.lshf").write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(CorpusError):
            read_features(tmp_path / "bad.lshf")

    def test_nan_features_rejected(self, tmp_path):
        write_features(tmp_path / "x.lshf", np.array([[np.nan, 1.0]]))
        with pytest.raises(CorpusError):
            read_features(tmp_path / "x.lshf")

    def test_dataset_roundtrip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(instance_count=4, seed=9))
        manifest = save_dataset(ds, tmp_path)
        loaded = load_dataset(manifest, vocab=ds.vocabulary)
        assert loaded.vocabulary.words == ds.vocabulary.words
        for (va, sa), (vb, sb) in zip(ds.instances, loaded.instances):
            np.testing.assert_array_equal(va.clips, vb.clips)
            assert sa == sb

    def test_load_rejects_reserved_token(self, tmp_path):
        write_features(tmp_path / "v.lshf", np.zeros((3, 2)))
        (tmp_path / "ann.txt").write_text("a #End\n")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["v.lshf"], "annotations": "ann.txt", "split": "train"}')
        with pytest.raises(CorpusError, match="reserved"):
            load_dataset(tmp_path / "manifest.json", VOCAB)

    def test_load_rejects_short_video(self, tmp_path):
        write_features(tmp_path / "v.lshf", np.zeros((3, 2)))
        (tmp_path / "ann.txt").write_text("a b c d e\n")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["v.lshf"], "annotations": "ann.txt", "split": "train"}')
        with pytest.raises(CorpusError, match="instance 0"):
            load_dataset(tmp_path / "manifest.json", VOCAB)

    def test_missing_feature_file(self, tmp_path):
        (tmp_path / "ann.txt").write_text("a\n")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["gone.lshf"], "annotations": "ann.txt", "split": "test"}')
        with pytest.raises(CorpusError):
            load_dataset(tmp_path / "manifest.json", VOCAB)
