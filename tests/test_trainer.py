import dataclasses

import numpy as np
import pytest

from lshan import han as han_mod
from lshan.han import Parameters
from lshan import latent_space as ls_mod
from lshan import trainer
from lshan.corpus import (ClipFeatureSequence, Sentence, SyntheticConfig,
                          generate_synthetic)
from lshan.trainer import (ConfigError, TrainingConfig, clip_gradients,
                           format_config, grad_check, init_state, joint_grad,
                           joint_loss, learning_rate_at, load_config,
                           parse_config, regularizer, sgd_step, train)

TINY = TrainingConfig(epochs=2, learning_rate=0.05, latent_dim=4,
                      hidden_size=6, attention_size=4, seed=0)


def tiny_batch(seed=0, count=2, d_c=5, d_w=10):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        n = int(rng.integers(4, 7))
        m = int(rng.integers(2, 4))
        video = ClipFeatureSequence(rng.normal(size=(n, d_c)))
        sentence = Sentence(tuple(int(t) for t in rng.integers(2, d_w, size=m)))
        batch.append((video, sentence))
    return batch


def tiny_state(cfg=TINY, seed=0, d_c=5, d_w=10):
    return init_state(dataclasses.replace(cfg, seed=seed), d_c, d_w)


class TestJointLoss:
    def test_decomposition(self):
        batch = tiny_batch()
        state = tiny_state()
        cfg = dataclasses.replace(TINY, lambda1=0.3, lambda2=0.01)
        total, rel, coh, reg = joint_loss(batch, state.ls, state.han, cfg)
        assert total == pytest.approx(0.3 * rel + 0.7 * coh + 0.01 * reg,
                                      abs=1e-12)

    def test_lambda_one_is_pure_relevance_plus_ridge(self):
        batch = tiny_batch(1)
        state = tiny_state(seed=1)
        cfg = dataclasses.replace(TINY, lambda1=1.0, lambda2=0.0)
        total, rel, coh, _ = joint_loss(batch, state.ls, state.han, cfg)
        assert coh == 0.0
        expected = np.mean([
            ls_mod.relevance_loss(state.ls, v, s, ls_mod.window_policy(v.n, s.length))
            for v, s in batch])
        assert total == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_is_pure_coherence_plus_ridge(self):
        batch = tiny_batch(2)
        state = tiny_state(seed=2)
        cfg = dataclasses.replace(TINY, lambda1=0.0, lambda2=0.0)
        total, rel, coh, _ = joint_loss(batch, state.ls, state.han, cfg)
        assert rel == 0.0
        expected = np.mean([
            han_mod.coherence_loss(state.han, state.ls, v, s, cfg.strategy)
            for v, s in batch])
        assert total == pytest.approx(expected, abs=1e-12)

    def test_zero_emission_params_coherence_identity(self):
        batch = tiny_batch(3)
        state = tiny_state(seed=3)
        state.han["emit_w"][...] = 0.0
        state.han["emit_b"][...] = 0.0
        cfg = dataclasses.replace(TINY, lambda1=0.0, lambda2=0.0)
        _, _, coh, _ = joint_loss(batch, state.ls, state.han, cfg)
        expected = np.mean([(s.length + 1) * np.log(10) for _, s in batch])
        assert coh == pytest.approx(expected, abs=1e-9)

    def test_empty_batch_rejected(self):
        state = tiny_state()
        with pytest.raises(ValueError):
            joint_loss([], state.ls, state.han, TINY)


class TestJointGrad:
    def test_ridge_identity_at_lambda_one(self):
        # with lambda1=1 the HAN parameters receive exactly the ridge term
        batch = tiny_batch(4)
        state = tiny_state(seed=4)
        cfg = dataclasses.replace(TINY, lambda1=1.0, lambda2=0.003)
        grads = joint_grad(batch, state.ls, state.han, cfg)
        for name, arr in han_mod.han_param_items(state.han):
            np.testing.assert_allclose(grads[name], 2 * 0.003 * arr, atol=1e-15)

    def test_zero_lambda2_zero_ridge(self):
        batch = tiny_batch(5)
        state = tiny_state(seed=5)
        cfg = dataclasses.replace(TINY, lambda1=1.0, lambda2=0.0)
        grads = joint_grad(batch, state.ls, state.han, cfg)
        for name, _ in han_mod.han_param_items(state.han):
            assert not grads[name].any()

    def test_masks_drop_terms(self):
        # the lambda1 endpoints drop one term each, and the terms add up
        batch = tiny_batch(6)
        state = tiny_state(seed=6)

        def grad(lambda1):
            cfg = dataclasses.replace(TINY, lambda1=lambda1, lambda2=0.0)
            return joint_grad(batch, state.ls, state.han, cfg)

        both, rel_only, coh_only = grad(0.5), grad(1.0), grad(0.0)
        for name in both:
            np.testing.assert_allclose(both[name],
                                       0.5 * (rel_only[name] + coh_only[name]),
                                       atol=1e-12)

    def test_batch_mean_linearity(self):
        a = tiny_batch(7, count=1)
        b = tiny_batch(8, count=1)
        state = tiny_state(seed=7)
        cfg = dataclasses.replace(TINY, lambda1=0.4, lambda2=0.0)
        ga = joint_grad(a, state.ls, state.han, cfg)
        gb = joint_grad(b, state.ls, state.han, cfg)
        gab = joint_grad(a + b, state.ls, state.han, cfg)
        for name in gab:
            np.testing.assert_allclose(gab[name], (ga[name] + gb[name]) / 2,
                                       atol=1e-12)


class TestClipAndStep:
    def test_clip_noop_below_threshold(self):
        grads = Parameters([("a", (2,))])
        grads["a"] = [0.3, 0.4]
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_clip_scales_to_max_norm(self):
        grads = Parameters([("a", (2,)), ("b", (1,))])
        grads.flat[:] = [3.0, 0.0, 4.0]
        clip_gradients(grads, 1.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)
        assert grads["a"][0] == pytest.approx(0.6)

    def test_sgd_zero_rate_is_identity(self):
        state = tiny_state(seed=9)
        before = state.han.flat.copy()
        grads = Parameters(state.han.layout)
        grads.flat[:] = 1.0
        sgd_step(state, grads, 0.0)
        np.testing.assert_array_equal(state.han.flat, before)

    def test_sgd_closed_form(self):
        state = tiny_state(seed=10)
        before = state.ls.t_v.copy()
        grads = Parameters(state.han.layout)
        grads["t_v"] = 2.0
        sgd_step(state, grads, 0.25)
        np.testing.assert_allclose(state.ls.t_v, before - 0.5, atol=1e-15)

    def test_non_finite_update_diverges(self):
        state = tiny_state(seed=11)
        grads = Parameters(state.han.layout)
        grads["t_s"] = np.inf
        with pytest.raises(trainer.TrainingDiverged, match="t_s"):
            sgd_step(state, grads, 0.1)

    def test_ridge_only_geometric_decay(self):
        # pure ridge descent contracts every parameter by (1 - 2*rate*lambda2)
        batch = tiny_batch(12)
        state = tiny_state(seed=12)
        cfg = dataclasses.replace(TINY, lambda1=1.0, lambda2=0.01)
        before = state.han["emit_w"].copy()
        grads = joint_grad(batch, state.ls, state.han, cfg)
        sgd_step(state, grads, 0.5)
        np.testing.assert_allclose(state.han["emit_w"],
                                   before * (1 - 2 * 0.5 * 0.01), atol=1e-12)

    def test_learning_rate_schedule(self):
        cfg = dataclasses.replace(TINY, learning_rate=0.2, decay_factor=0.5,
                                  decay_interval=10)
        assert learning_rate_at(cfg, 0) == pytest.approx(0.2)
        assert learning_rate_at(cfg, 9) == pytest.approx(0.2)
        assert learning_rate_at(cfg, 10) == pytest.approx(0.1)
        assert learning_rate_at(cfg, 25) == pytest.approx(0.05)


class TestRegularizer:
    def test_matches_explicit_sum(self):
        state = tiny_state(seed=13)
        expected = float(np.sum(state.ls.t_v ** 2) + np.sum(state.ls.t_s ** 2)
                         + sum(np.sum(a ** 2)
                               for _, a in han_mod.han_param_items(state.han)))
        assert regularizer(state.han) == pytest.approx(expected)


class TestConfig:
    def test_roundtrip_through_text(self):
        cfg = dataclasses.replace(TINY, lambda1=0.25, windowed_dtw=False)
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nlambda1 = 0.4  # inline\nepochs = 3\n")
        assert cfg.lambda1 == 0.4 and cfg.epochs == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("momentum = 0.9\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("epochs = 3\nepochs = 4\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("epochs = soon\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("epochs 3\n")

    def test_out_of_range_lambda(self):
        with pytest.raises(ConfigError):
            parse_config("lambda1 = 1.5\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            load_config(tmp_path / "absent.cfg")

    def test_strategy_value(self):
        cfg = parse_config("strategy = pair-split\n")
        assert cfg.strategy.kind == "pair-split"


def tiny_dataset(seed=0, count=4):
    return generate_synthetic(
        SyntheticConfig(vocab_size=6, feature_dim=5, latent_dim=4,
                        sentence_length=(2, 3), instance_count=count,
                        seed=seed))


class TestTrain:
    def test_deterministic_bitwise(self):
        ds = tiny_dataset()
        cfg = dataclasses.replace(TINY, epochs=3)
        s1 = train(ds, cfg)
        s2 = train(ds, cfg)
        np.testing.assert_array_equal(s1.ls.t_v, s2.ls.t_v)
        for (na, a), (_, b) in zip(han_mod.han_param_items(s1.han),
                                   han_mod.han_param_items(s2.han)):
            np.testing.assert_array_equal(a, b, err_msg=na)
        assert [e.total for e in s1.history] == [e.total for e in s2.history]

    def test_history_lengths_and_log(self, tmp_path):
        ds = tiny_dataset(1)
        cfg = dataclasses.replace(TINY, epochs=3)
        log = tmp_path / "loss.csv"
        state = train(ds, cfg, out_dir=tmp_path, log_path=log)
        assert len(state.history) == 3
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,rel_loss,coh_loss,reg,total,wall_seconds"
        assert len(lines) == 4
        assert (tmp_path / "final.lshn").exists()

    def test_checkpoint_cadence(self, tmp_path):
        ds = tiny_dataset(2)
        cfg = dataclasses.replace(TINY, epochs=4, checkpoint_every=2)
        train(ds, cfg, out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.lshn"))
        assert "final.lshn" in names
        assert "checkpoint_0002.lshn" in names
        assert "checkpoint_0004.lshn" in names

    def test_runs_no_loss_only_pass(self, monkeypatch):
        # the logged losses come from the passes that make the gradients
        def forbidden(*args, **kwargs):
            raise AssertionError("train() ran a loss-only forward pass")

        monkeypatch.setattr(ls_mod, "relevance_loss", forbidden)
        monkeypatch.setattr(han_mod, "coherence_loss", forbidden)
        state = train(tiny_dataset(4), TINY)
        assert len(state.history) == TINY.epochs

    def test_logs_pre_step_losses(self):
        # one batch per epoch: epoch 0 logs the loss at the initial parameters
        ds = tiny_dataset(5)
        cfg = dataclasses.replace(TINY, batch_size=len(ds))
        initial = init_state(cfg, ds.instances[0][0].dim, ds.vocabulary.size)
        _, rel, coh, _ = joint_loss(ds.instances, initial.ls, initial.han, cfg)
        state = train(ds, cfg)
        first = state.history[0]
        assert first.relevance == pytest.approx(rel, rel=1e-12, abs=0)
        assert first.coherence == pytest.approx(coh, rel=1e-12, abs=0)
        # the regularizer is taken at the end of the epoch
        assert state.history[-1].regularizer == regularizer(state.han)

    def test_loss_decreases_on_tiny_problem(self):
        ds = tiny_dataset(3, count=3)
        cfg = dataclasses.replace(TINY, epochs=12, learning_rate=0.1,
                                  lambda1=0.0, lambda2=0.0)
        state = train(ds, cfg)
        assert state.history[-1].total < state.history[0].total


class TestGradCheck:
    def make_instances(self, seed=0, count=3):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(4, 7))
            m = int(rng.integers(2, 4))
            out.append((ClipFeatureSequence(rng.normal(size=(n, 5))),
                        Sentence(tuple(int(t)
                                       for t in rng.integers(2, 10, size=m)))))
        return out

    def cfg(self):
        return dataclasses.replace(TINY, latent_dim=6, hidden_size=8,
                                   attention_size=5, lambda1=0.6,
                                   lambda2=0.0002)

    def test_joint_gradient_passes(self):
        report = grad_check(self.make_instances(), self.cfg())
        assert report.passed, report.max_rel_error

    def test_relevance_only(self):
        report = grad_check(self.make_instances(1), self.cfg(),
                            loss="relevance")
        assert report.passed

    def test_coherence_only(self):
        report = grad_check(self.make_instances(2), self.cfg(),
                            loss="coherence")
        assert report.passed

    def test_detects_corrupted_gradient(self, monkeypatch):
        exact = trainer.joint_grad

        def corrupted(*args):
            grads = exact(*args)
            grads["t_s"] += 1.0
            return grads

        monkeypatch.setattr(trainer, "joint_grad", corrupted)
        report = grad_check(self.make_instances(3), self.cfg())
        assert not report.passed
        assert report.failed == ["t_s"]
