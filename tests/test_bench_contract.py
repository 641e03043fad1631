"""The calls that the benchmark (``bench/workload.py``) makes into ``lshan``.

Each call below is made once, on a tiny model, in the positional and keyword
form the benchmark uses, and each attribute it reads is read. A change to
one of these forms stops every benchmark run, so it fails here first; a
change to the benchmark that moves off a form updates this file with it.
The benchmark module itself is not imported: it sets the BLAS thread count
of the process that imports it.
"""

import csv
import math

import numpy as np
import pytest

from lshan import cli, corpus, evaluation, han, latent_space, trainer

MAX_LEN = 30   # the benchmark's decode length
BEAM_K = 5


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny corpus, a config like the benchmark's, and a model trained
    long enough that the probe reports its test videos."""
    root = tmp_path_factory.mktemp("contract")
    data = root / "data"
    assert cli.run(["synth", "--out", str(data), "--vocab-size", "6",
                    "--feature-dim", "5", "--instances", "4",
                    "--val-instances", "0", "--test-instances", "2",
                    "--sentence-len-min", "2", "--sentence-len-max", "3"]) == 0
    cfg = root / "epochs60.cfg"
    cfg.write_text("lambda1 = 0.6\nepochs = 60\nlatent_dim = 4\n"
                   "hidden_size = 6\nattention_size = 4\n", encoding="utf-8")
    out = root / "op"
    assert cli.run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(out)]) == 0
    return data, cfg, out


def test_train_op_and_its_outputs(tiny):
    data, cfg, out = tiny
    assert (out / "final.lshn").read_bytes()
    with open(out / "training_log.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    for row in rows:
        assert row["epoch"]
        for key in ("rel_loss", "coh_loss", "reg", "total"):
            assert math.isfinite(float(row[key]))


def test_training_internals(tiny):
    data, cfg_path, _ = tiny
    vocab = corpus.read_vocabulary(data / "vocab.txt")
    dataset = corpus.load_dataset(data / "manifest_train.json", vocab)
    assert len(dataset) == 4
    cfg = trainer.load_config(cfg_path)
    d_c = dataset.instances[0][0].dim
    state = trainer.init_state(cfg, d_c, dataset.vocabulary.size)
    ls, params = state.ls, state.han
    batch = [dataset.instances[0]]
    analytic = trainer.joint_grad(batch, ls, params, cfg)
    groups = [("t_v", ls.t_v), ("t_s", ls.t_s)] + han.han_param_items(params)
    assert set(analytic) == {name for name, _ in groups}
    for name, arr in groups:
        assert analytic[name].reshape(-1).size == arr.size
    assert math.isfinite(trainer.joint_loss(batch, ls, params, cfg)[0])


def test_alignment_internals(tiny):
    data, _, out = tiny
    vocab = corpus.read_vocabulary(data / "vocab.txt")
    dataset = corpus.load_dataset(data / "manifest_train.json", vocab)
    trained, _, _ = han.load_checkpoint(out / "final.lshn")
    video, sentence = dataset.instances[0]
    n, m = video.n, sentence.length
    policy = latent_space.window_policy(n, m)
    assert len(policy.lo) == len(policy.hi) == m
    v_lat = latent_space.project_video(trained.t_v, video)
    s_lat = latent_space.project_sentence(trained.t_s, sentence)
    for pol in (policy, None):
        loss = latent_space.relevance_loss(trained, video, sentence, pol)
        table = latent_space.dtw(v_lat, s_lat, pol)
        assert table.total == loss
        path = latent_space.backtrack(table).pairs
        assert [i for i, _ in path] == list(range(n))
    # the oracle distances read the projections as arrays
    assert (video.clips @ trained.t_v.T).shape == v_lat.shape
    assert trained.t_s[:, list(sentence.tokens)].T.shape == s_lat.shape


def test_decode_internals(tiny):
    data, _, out = tiny
    model, params, strategy = han.load_checkpoint(out / "final.lshn")
    vocab = corpus.read_vocabulary(data / "vocab.txt")
    dataset = corpus.load_dataset(data / "manifest_test.json", vocab)
    reported = 0
    for inst in dataset.instances:   # one video per op
        one = corpus.Dataset((inst,), vocab, "test")
        video = one.instances[0][0]

        report = evaluation.evaluate(model, params, one, strategy, MAX_LEN)
        r = report.results[0]
        hyp = han.greedy_decode(params, model, video, strategy, MAX_LEN)
        assert r.breakdown.total >= 0 and r.hyp_length == len(hyp)
        beam = han.kbest_decode(params, model, video, strategy, 1, MAX_LEN)
        assert beam[0][0] == hyp

        probe = evaluation.consistency_probe(
            model, params, one, k=BEAM_K, sample_count=1, seed=0,
            strategy=strategy, max_len=MAX_LEN)
        assert probe.skipped + len(probe.videos) == 1
        hyps = han.kbest_decode(params, model, video, strategy, BEAM_K,
                                MAX_LEN)
        assert all(len(entry) == 2 for entry in hyps)
        for v in probe.videos:
            reported += 1
            assert -1.0 <= v.correlation <= 1.0
            for toks, score, dist in v.hypotheses:
                if len(toks) < MAX_LEN:
                    nll = han.coherence_loss(params, model, video,
                                             corpus.Sentence(toks), strategy)
                    assert abs(score + nll) <= 1e-9
                assert np.isfinite(dist)
    assert reported   # the hypotheses' fields were read
