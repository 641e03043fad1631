import csv
import dataclasses

import numpy as np
import pytest

from lshan import han as han_mod
from lshan.han import Parameters
from lshan import latent_space as ls_mod
from lshan import trainer
from lshan.corpus import ClipFeatureSequence, Sentence
from lshan.trainer import (ConfigError, TrainingConfig, clip_gradients,
                           format_config, grad_check, init_state, joint_grad,
                           joint_loss, learning_rate_at, load_config,
                           parse_config, regularizer, sgd_step, train)
from reference import tiny_dataset

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


def loop_grad_check(instances, cfg, eps=1e-5, tolerance=1e-4):
    """The nested-loop gradient check that ``grad_check`` replaced: per
    instance, per array, per entry, two one-instance losses summed from
    ``relevance_loss`` and ``coherence_loss``."""
    def loss(video, sentence, ls, han, policy):
        rel = coh = 0.0
        if cfg.lambda1 > 0.0:
            rel = ls_mod.relevance_loss(ls, video, sentence, policy)
        if cfg.lambda1 < 1.0:
            coh = han_mod.coherence_loss(han, ls, video, sentence, cfg.strategy)
        return (cfg.lambda1 * rel + (1.0 - cfg.lambda1) * coh
                + cfg.lambda2 * regularizer(han))

    d_w = max(max(s.tokens) for _, s in instances) + 1
    state = init_state(cfg, instances[0][0].dim, d_w)
    ls, han = state.ls, state.han
    worst, skipped, checked = {}, 0, 0
    for video, sentence in instances:
        policy = ls_mod.window_policy(video.n, sentence.length) \
            if cfg.windowed_dtw else None
        # the screen, one instance at a time
        if cfg.lambda1 > 0.0 and trainer._instance_degenerate(ls_mod.dtw(
                ls_mod.project_video(ls.t_v, video),
                ls_mod.project_sentence(ls.t_s, sentence), policy)):
            skipped += 1
            continue
        checked += 1
        grads = trainer.joint_grad([(video, sentence)], ls, han, cfg)
        for name, arr in han.items():
            flat = arr.reshape(-1)
            g_flat = grads[name].reshape(-1)
            analytic = np.empty(flat.size)
            numeric = np.empty(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss(video, sentence, ls, han, policy)
                flat[idx] = orig - eps
                down = loss(video, sentence, ls, han, policy)
                flat[idx] = orig
                analytic[idx] = g_flat[idx]
                numeric[idx] = (up - down) / (2.0 * eps)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                               1e-4)
            err = float(np.max(np.abs(analytic - numeric) / denom))
            worst[name] = max(worst.get(name, 0.0), err)
    failed = sorted(name for name, err in worst.items() if err > tolerance)
    return trainer.GradCheckReport(worst, failed, skipped, checked)

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
        with pytest.raises(ConfigError, match=r"^cannot read config file "
                           r".*absent\.cfg: No such file or directory$"):
            load_config(tmp_path / "absent.cfg")

    def test_lines_break_at_line_feeds_alone(self):
        # a form feed ends no line, and CRLF lines parse as LF lines
        with pytest.raises(ConfigError, match="^line 2: unknown key"):
            parse_config("epochs = 2\x0c\nmomentum = 0.9\n")
        with pytest.raises(ConfigError, match="^line 1: bad value"):
            parse_config("lambda1 = 0.4\x0cepochs = 3\n")
        text = "# header\n\nlambda1 = 0.4  # inline\nepochs = 3\n"
        assert parse_config(text.replace("\n", "\r\n")) == parse_config(text)

    def test_strategy_value(self):
        cfg = parse_config("strategy = pair-split\n")
        assert cfg.strategy.kind == "pair-split"


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
        ds = tiny_dataset(seed=1)
        cfg = dataclasses.replace(TINY, epochs=3)
        state = train(ds, cfg, out_dir=tmp_path)
        assert len(state.history) == 3
        lines = (tmp_path / "training_log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,rel_loss,coh_loss,reg,total,wall_seconds"
        assert len(lines) == 4
        assert (tmp_path / "final.lshn").exists()
        assert load_config(tmp_path / "config.cfg") == cfg

    def test_stopped_run_logs_its_completed_epochs(self, tmp_path,
                                                    monkeypatch):
        """An exception inside an epoch, an interrupt say, stops the run; the
        log keeps the epochs before it, and no ``final.lshn`` is written."""
        ds = tiny_dataset(seed=1)
        cfg = dataclasses.replace(TINY, epochs=4)
        steps = -(-len(ds) // cfg.batch_size)   # per epoch
        calls = []

        def stop_in_epoch_2(*args):
            calls.append(args)
            if len(calls) > 2 * steps:
                raise KeyboardInterrupt
            return joint_grad(*args)

        monkeypatch.setattr(trainer, "joint_grad", stop_in_epoch_2)
        with pytest.raises(KeyboardInterrupt):
            train(ds, cfg, out_dir=tmp_path)
        with open(tmp_path / "training_log.csv", encoding="utf-8") as fh:
            assert [row["epoch"] for row in csv.DictReader(fh)] == ["0", "1"]
        assert not (tmp_path / "final.lshn").exists()

    def test_checkpoint_cadence(self, tmp_path):
        ds = tiny_dataset(seed=2)
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
        monkeypatch.setattr(trainer, "joint_loss", forbidden)
        monkeypatch.setattr(trainer, "_instance_losses", forbidden)
        state = train(tiny_dataset(seed=4), TINY)
        assert len(state.history) == TINY.epochs

    def test_logs_pre_step_losses(self):
        # one batch per epoch: epoch 0 logs the loss at the initial parameters
        ds = tiny_dataset(seed=5)
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
        ds = tiny_dataset(seed=3, count=3)
        cfg = dataclasses.replace(TINY, epochs=12, learning_rate=0.1,
                                  lambda1=0.0, lambda2=0.0)
        state = train(ds, cfg)
        assert state.history[-1].total < state.history[0].total


def fresh_joint_grad(batch, ls, han, cfg):
    """``joint_grad`` as it was before the gradient buffer was reused: a
    fresh buffer per step, the relevance terms assigned first, then the
    scaled coherence gradient and the ridge term added over the whole
    buffer."""
    grads = Parameters(han.layout)
    scale = 1.0 / len(batch)
    if cfg.lambda1 > 0.0:
        _, g_tv, g_ts = ls_mod.relevance_grad(ls, batch, cfg.windowed_dtw)
        grads["t_v"] = cfg.lambda1 * scale * g_tv
        grads["t_s"] = cfg.lambda1 * scale * g_ts
    if cfg.lambda1 < 1.0:
        _, g_coh = han_mod.coherence_grad(han, ls, batch, cfg.strategy,
                                          Parameters(han.layout))
        grads.flat += (1.0 - cfg.lambda1) * scale * g_coh.flat
    if cfg.lambda2 > 0.0:
        grads.flat += 2.0 * cfg.lambda2 * han.flat
    return grads


def fresh_buffer_train(dataset, cfg):
    """The training loop with a fresh gradient per step and the descent step
    ``han.flat -= rate * grads.flat``; returns the final parameter buffer."""
    state = init_state(cfg, dataset.instances[0][0].dim, dataset.vocabulary.size)
    for epoch in range(cfg.epochs):
        rate = learning_rate_at(cfg, epoch)
        order = state.rng.permutation(len(dataset))
        for lo in range(0, len(order), cfg.batch_size):
            batch = [dataset.instances[i] for i in order[lo:lo + cfg.batch_size]]
            grads = fresh_joint_grad(batch, state.ls, state.han, cfg)
            clip_gradients(grads, cfg.max_grad_norm)
            state.han.flat -= rate * grads.flat
    return state.han.flat


GRID = [dataclasses.replace(TINY, lambda1=lambda1, lambda2=lambda2,
                            windowed_dtw=windowed)
        for lambda1 in (0.0, 0.6, 1.0) for lambda2 in (0.0, 2e-4)
        for windowed in (True, False)]


class TestGradientBuffer:
    @pytest.mark.parametrize("cfg", GRID, ids=lambda c: (
        f"l1={c.lambda1}-l2={c.lambda2}-windowed={c.windowed_dtw}"))
    def test_training_matches_fresh_buffers_bytewise(self, cfg):
        # a partial last batch, and a clip norm that some steps exceed
        cfg = dataclasses.replace(cfg, epochs=3, learning_rate=0.3,
                                  max_grad_norm=1.0)
        ds = tiny_dataset(seed=6, count=7)
        assert train(ds, cfg).han.flat.tobytes() \
            == fresh_buffer_train(ds, cfg).tobytes()

    @pytest.mark.parametrize("cfg", GRID[::2], ids=lambda c: (
        f"l1={c.lambda1}-l2={c.lambda2}"))
    def test_out_is_zero_filled(self, cfg):
        batch = tiny_batch(14, count=3)
        state = tiny_state(seed=14)
        out = Parameters(state.han.layout)
        out.flat[:] = np.random.default_rng(14).normal(size=out.flat.size)
        out.flat[::7] = np.nan
        fresh = joint_grad(batch, state.ls, state.han, cfg)
        assert joint_grad(batch, state.ls, state.han, cfg, out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()
        assert out.losses == fresh.losses

    def test_one_buffer_per_run(self, monkeypatch):
        # the Parameters built by a run do not grow with its steps, and every
        # step's gradient goes into one buffer
        built, buffers = [], []
        init = Parameters.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def recording_grad(*args):
            buffers.append(args[4])
            return joint_grad(*args)

        monkeypatch.setattr(Parameters, "__init__", counting_init)
        monkeypatch.setattr(trainer, "joint_grad", recording_grad)
        for epochs in (2, 4):
            built.clear()
            buffers.clear()
            train(tiny_dataset(seed=7, count=5),
                  dataclasses.replace(TINY, epochs=epochs))
            assert len(built) == 2   # the parameters and the gradient
            assert len(buffers) == 2 * epochs   # batches of 4 and 1
            assert all(out is buffers[0] for out in buffers)


class TestGradCheck:
    @pytest.mark.parametrize("clips,words,degenerate", [
        ([[5e-7]], [[0.0]], True),       # a path distance below 1e-6
        ([[2e-6]], [[0.0]], False),
        # the clip in the middle chooses between the words with a margin of
        # 8e-4, below 1e-3, then of 1.2e-3; every distance is at least 1
        ([[1.0], [5.0004], [11.0]], [[0.0], [10.0]], True),
        ([[1.0], [5.0006], [11.0]], [[0.0], [10.0]], False),
    ])
    def test_degenerate_thresholds(self, clips, words, degenerate):
        table = ls_mod.dtw(np.array(clips), np.array(words))
        assert trainer._instance_degenerate(table) is degenerate


class TestGradCheckOracle:
    """``grad_check`` against ``loop_grad_check`` on a set with one
    degenerate instance, at dims small enough for the loops."""

    CFG = dataclasses.replace(TINY, latent_dim=3, hidden_size=2,
                              attention_size=2, lambda2=0.0002)

    def instances(self, seed=0, count=4):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 3) + 1))
            out.append((ClipFeatureSequence(rng.normal(size=(n, 3))),
                        Sentence(tuple(int(t)
                                       for t in rng.integers(2, 6, size=m)))))
        return out

    @pytest.mark.parametrize("lambda1", [0.0, 0.6, 1.0])
    def test_matches_loop_oracle(self, lambda1):
        cfg = dataclasses.replace(self.CFG, lambda1=lambda1)
        want = loop_grad_check(self.instances(), cfg)
        got = grad_check(self.instances(), cfg)
        assert (got.checked_instances, got.skipped_instances) == \
            (want.checked_instances, want.skipped_instances)
        assert got.skipped_instances == (1 if lambda1 > 0.0 else 0)
        assert list(got.max_rel_error) == list(want.max_rel_error)
        assert got.failed == want.failed == []
        for name, err in want.max_rel_error.items():
            assert abs(got.max_rel_error[name] - err) <= 1e-5, name

    def test_probes_the_oracles_entries(self, monkeypatch):
        # every perturbed loss goes through one coherence forward pass; the
        # entry that differs from the initial buffer is the probed one
        instances = self.instances()
        cfg = dataclasses.replace(self.CFG, lambda1=0.6)
        d_w = max(max(s.tokens) for _, s in instances) + 1
        base = init_state(cfg, 3, d_w).han.flat.copy()
        number = {id(video): k for k, (video, _) in enumerate(instances)}
        forward = han_mod._coherence_forward

        def probes(check):
            seen = set()

            def recording(han, ls, batch, strategy):
                moved = np.flatnonzero(han.flat != base)
                seen.update((number[id(video)], int(idx))
                            for video, _ in batch for idx in moved)
                return forward(han, ls, batch, strategy)

            monkeypatch.setattr(han_mod, "_coherence_forward", recording)
            check(instances, cfg)
            return seen

        want = probes(loop_grad_check)
        assert len(want) == 3 * base.size   # every (checked, entry) pair
        assert probes(grad_check) == want

    def test_one_instance_error_is_not_diluted(self, monkeypatch):
        # t_s is wrong for one instance only, shifted or NaN in one entry;
        # its own row still fails
        instances = self.instances()
        exact = trainer.joint_grad
        target = instances[-1][0]

        def shift(t_s):
            t_s += 1.0

        def nan(t_s):
            t_s[0, 2] = np.nan

        for corrupt in (shift, nan):
            def corrupted(batch, *args):
                grads = exact(batch, *args)
                if len(batch) == 1 and batch[0][0] is target:
                    corrupt(grads["t_s"])
                return grads

            monkeypatch.setattr(trainer, "joint_grad", corrupted)
            report = grad_check(instances, dataclasses.replace(self.CFG,
                                                               lambda1=0.6))
            assert report.checked_instances == 3
            assert report.failed == ["t_s"], corrupt.__name__
            assert not report.passed

    @pytest.mark.parametrize("windowed", [False, True])
    def test_batched_screen_skips_the_per_instance_screens(self, monkeypatch,
                                                            windowed):
        # the instances that get an analytic gradient are the ones that
        # loop_grad_check's one-instance screen lets through
        instances = self.instances(seed=1, count=40)
        cfg = dataclasses.replace(self.CFG, lambda1=1.0,
                                  windowed_dtw=windowed)
        exact = trainer.joint_grad

        def checked(check):
            seen = []

            def recording(batch, *args):
                seen.extend(id(video) for video, _ in batch)
                return exact(batch, *args)

            monkeypatch.setattr(trainer, "joint_grad", recording)
            report = check(instances, cfg)
            assert report.checked_instances == len(seen)
            return seen

        want = checked(loop_grad_check)
        assert 0 < len(want) < len(instances)
        assert checked(grad_check) == want

    def test_no_checked_instance_fails(self, monkeypatch):
        monkeypatch.setattr(trainer, "_instance_degenerate",
                            lambda table: True)
        report = grad_check(self.instances(), self.CFG)
        assert (report.checked_instances, report.skipped_instances) == (0, 4)
        assert report.max_rel_error == {} and report.failed == []
        assert not report.passed
