import re

import numpy as np
import pytest

from lshan import corpus
from lshan.corpus import (
    ClipFeatureSequence, CorpusError, Sentence, SyntheticConfig, Vocabulary,
    generate_synthetic, load_dataset, read_features, read_vocabulary,
    save_dataset, write_features, write_vocabulary,
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
        for knobs in ({"noise_std": -1.0}, {"noise_std": np.nan},
                      {"noise_std": np.inf}, {"clips_per_word": (0, 2)},
                      {"sentence_length": (0, 2)}, {"vocab_size": 0},
                      {"feature_dim": 0}, {"instance_count": 0}):
            with pytest.raises(ValueError) as info:
                SyntheticConfig(**knobs)
            assert type(info.value) is ValueError   # an argument, not data


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

    def test_signaling_nan_features_rejected(self, tmp_path):
        # a float32 signaling NaN, whose cast to float64 raises the invalid
        # flag; a warning from lshan's code fails the suite
        path = tmp_path / "x.lshf"
        write_features(path, np.zeros((1, 2)))
        path.write_bytes(path.read_bytes()[:16] + b"\x01\x00\x80\x7f"
                         + b"\x00" * 4)
        with pytest.raises(CorpusError, match="non-finite feature values"):
            read_features(path)

    def test_dataset_roundtrip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(instance_count=4, seed=9))
        manifest = save_dataset(ds, tmp_path)
        loaded = load_dataset(manifest, vocab=ds.vocabulary)
        assert loaded.vocabulary.words == ds.vocabulary.words
        for (va, sa), (vb, sb) in zip(ds.instances, loaded.instances):
            np.testing.assert_array_equal(va.clips, vb.clips)
            assert sa == sb

    def test_load_rejects_reserved_token(self, tmp_path):
        # a reserved or unknown token names its annotation file and line
        write_features(tmp_path / "v.lshf", np.zeros((3, 2)))
        (tmp_path / "manifest.json").write_text(
            '{"features": ["v.lshf", "v.lshf"], "annotations": "ann.txt", '
            '"split": "train"}')
        for line, message in [
                ("a #End", "sentence must not contain reserved symbols"),
                ("#Start b", "sentence must not contain reserved symbols"),
                ("a zzz", "token 'zzz' not in vocabulary")]:
            (tmp_path / "ann.txt").write_text(f"a\n{line}\n")
            with pytest.raises(CorpusError, match="^" + re.escape(
                    f"{tmp_path / 'ann.txt'}: line 2: {message}") + "$"):
                load_dataset(tmp_path / "manifest.json", VOCAB)

    def test_load_rejects_short_video(self, tmp_path):
        write_features(tmp_path / "v.lshf", np.zeros((3, 2)))
        (tmp_path / "ann.txt").write_text("a b c d e\n")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["v.lshf"], "annotations": "ann.txt", "split": "train"}')
        with pytest.raises(CorpusError, match="instance 0"):
            load_dataset(tmp_path / "manifest.json", VOCAB)

    @pytest.mark.parametrize("annotations,blank", [
        ("a\n\nb\nc\n", 2),     # four lines for three videos
        ("\na\nb\nc\n", 1),
        ("a\nb\n \t\nc\n", 3),
        ("a\nb\nc\n\n \n", None),   # trailing blank lines are allowed
        ("a\nb\nc", None),
    ])
    def test_load_refuses_a_blank_line_before_the_last(self, tmp_path,
                                                       annotations, blank):
        for name in ("0", "1", "2"):
            write_features(tmp_path / f"{name}.lshf", np.zeros((3, 2)))
        (tmp_path / "ann.txt").write_text(annotations)
        (tmp_path / "manifest.json").write_text(
            '{"features": ["0.lshf", "1.lshf", "2.lshf"], '
            '"annotations": "ann.txt", "split": "train"}')
        if blank is None:
            loaded = load_dataset(tmp_path / "manifest.json", VOCAB)
            assert [s.tokens for _, s in loaded.instances] == [(2,), (3,), (4,)]
        else:
            path = re.escape(str(tmp_path / "ann.txt"))
            with pytest.raises(CorpusError,
                               match=rf"^{path}: line {blank} is blank"):
                load_dataset(tmp_path / "manifest.json", VOCAB)

    @pytest.mark.parametrize("separator", [
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
        "\r"])
    def test_lines_break_at_line_feeds_alone(self, tmp_path, separator):
        # str.splitlines would read three sentences and give video 1 "b"
        for name in ("0", "1", "2"):
            write_features(tmp_path / f"{name}.lshf", np.zeros((3, 2)))
        (tmp_path / "ann.txt").write_text(f"a{separator}b\nc\n", newline="")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["0.lshf", "1.lshf", "2.lshf"], '
            '"annotations": "ann.txt", "split": "train"}')
        with pytest.raises(CorpusError, match="3 feature files but 2 "
                           "annotated sentences$"):
            load_dataset(tmp_path / "manifest.json", VOCAB)

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_crlf_files_load_as_their_lf_twins(self, tmp_path, final_newline):
        ds = generate_synthetic(SyntheticConfig(instance_count=4, seed=9))
        loaded = []
        for ending in ("\n", "\r\n"):
            out = tmp_path / repr(ending)
            manifest = save_dataset(ds, out)
            write_vocabulary(out / "vocab.txt", ds.vocabulary)
            for path in (out / "vocab.txt", out / "annotations_train.txt"):
                text = path.read_text()
                if not final_newline:
                    text = text.removesuffix("\n")
                path.write_text(text.replace("\n", ending), newline="")
            vocab = read_vocabulary(out / "vocab.txt")
            loaded.append((vocab, load_dataset(manifest, vocab)))
        (lf_vocab, lf), (crlf_vocab, crlf) = loaded
        assert crlf_vocab.words == lf_vocab.words == ds.vocabulary.words
        assert [s for _, s in crlf.instances] == [s for _, s in lf.instances] \
            == [s for _, s in ds.instances]
        for (va, _), (vb, _) in zip(crlf.instances, lf.instances):
            assert va.clips.tobytes() == vb.clips.tobytes()

    @pytest.mark.parametrize("tail", ["\n", " \n", "\r\n", "\t\n", "\x0c\n",
                                      "\n\n \n\r\n\t\n\x0c\n \t\r"])
    def test_text_files_may_end_in_blank_lines(self, tmp_path, tail):
        assert corpus.text_lines("a\n\n \nb\n" + tail) == ["a", "", " ", "b"]
        assert corpus.text_lines(tail) == []
        ds = generate_synthetic(SyntheticConfig(instance_count=4, seed=9))
        loaded = []
        for ending in ("", tail):
            out = tmp_path / repr(ending)
            manifest = save_dataset(ds, out)
            write_vocabulary(out / "vocab.txt", ds.vocabulary)
            for path in (out / "vocab.txt", out / "annotations_train.txt"):
                path.write_text(path.read_text() + ending, newline="")
            vocab = read_vocabulary(out / "vocab.txt")
            loaded.append((vocab, load_dataset(manifest, vocab)))
        (clean_vocab, clean), (tail_vocab, tailed) = loaded
        assert tail_vocab == clean_vocab and tail_vocab.words == ds.vocabulary.words
        assert [s for _, s in tailed.instances] == [s for _, s in clean.instances]

    @pytest.mark.parametrize("line,rule", [
        ("", "is blank; only trailing lines may be"),
        (" \t", "is blank; only trailing lines may be"),
        ("\x0c", "is blank; only trailing lines may be"),
        ("w 03", "holds whitespace; a line is one token"),
        (" w03", "holds whitespace; a line is one token"),
        ("w03\t", "holds whitespace; a line is one token"),
        ("w03\r\r", "holds whitespace; a line is one token"),
        ("w\x0c03", "holds whitespace; a line is one token"),
        ("w\u200303", "holds whitespace; a line is one token"),
    ])
    def test_vocabulary_line_is_one_token(self, tmp_path, line, rule):
        # line 4 of 5, so that only the rule on each line can refuse it
        path = tmp_path / "vocab.txt"
        path.write_text(f"#Start\n#End\nw02\n{line}\nw04\n", newline="")
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: "
                           rf"line 4 {re.escape(rule)}$"):
            read_vocabulary(path)

    def test_missing_feature_file(self, tmp_path):
        (tmp_path / "ann.txt").write_text("a\n")
        (tmp_path / "manifest.json").write_text(
            '{"features": ["gone.lshf"], "annotations": "ann.txt", "split": "test"}')
        with pytest.raises(CorpusError, match=r"^cannot read feature file "
                           r".*gone\.lshf: No such file or directory$"):
            load_dataset(tmp_path / "manifest.json", VOCAB)
