"""One benchmark workload in one fresh process: set up, timed ops, checks.

    python3 bench/workload.py --workload W --seed N --seconds S --trace 0|1 \
        --data DIR --work DIR [--spans FILE] [--setup-only]

``run.py`` starts this script once per run, and again a few times with
``--setup-only`` to sample set-up time. It prints one JSON object as its last
line of standard output.

Set-up time runs from the first line of this file, before ``lshan`` or
numpy is imported, to the first timed op. It covers importing ``lshan.cli``,
loading inputs and the checkpoint through the program, and the untimed
warm-up ops. The timed loop then runs whole rounds of ops until ``--seconds``
have passed. Every op's output is checked between ops, outside its timing;
an op that raises or fails a check counts as failed. Checks that need a
longer computation run once after the loop and decide ``correct``.

Time metrics are given at the reference machine speed of ``calibrate.py``:
a burst of a fixed kernel is timed right after set-up and then between
rounds every ``CALIBRATE_EVERY_S``, and each time is scaled by the latest
burst. The raw times go into the run record beside them.

With ``--trace 1`` the rounds alternate between untraced and traced, and the
per-layer figures are taken from the traced rounds; they are raw times.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # this process only, before numpy

import argparse  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIXTURE = HERE / "fixture" / "standard.lshn"
MODULES = ("cli", "corpus", "latent_space", "han", "trainer", "evaluation")
MAX_LEN = 30     # the eval and probe default
BEAM_K = 5
GRAD_EPS = 1e-5
GRAD_TOL = 1e-4  # the ``lshan gradcheck`` default
EXACT = 1e-9     # relative tolerance between two computations of one value

CHECKING = -2    # tracer op id while outputs are checked, kept out of figures
CALIBRATE_EVERY_S = 0.5

# numpy and the benchmark modules that use it are imported inside functions,
# after lshan, so that set-up time includes the program's own numpy import
lshan: dict = {}   # module name -> imported lshan module


class Train:
    """One op is one ``lshan train`` invocation through ``cli.run``."""

    epochs = 0
    lambda1 = 0.0
    warmup = (0,)

    def __init__(self, data: Path, work: Path, seed: int):
        self.data, self.work, self.seed = data, work, seed
        self.out = work / "op"
        self.first: bytes | None = None
        self.notes: dict[str, float] = {}   # extra figures for the run record

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg = self._config(self.epochs)
        vocab = lshan["corpus"].read_vocabulary(self.data / "vocab.txt")
        self.dataset = lshan["corpus"].load_dataset(
            self.data / "manifest_train.json", vocab)
        self.work_per_op = len(self.dataset) * self.epochs

    def round(self) -> list[int]:
        return [0]

    def _config(self, epochs: int) -> Path:
        """A config file: the defaults, except lambda1 and the epochs."""
        path = self.work / f"epochs{epochs}.cfg"
        path.write_text(f"lambda1 = {self.lambda1}\nepochs = {epochs}\n",
                        encoding="utf-8")
        return path

    def _train(self, cfg: Path, out: Path) -> int:
        return lshan["cli"].run(["train", "--config", str(cfg),
                                 "--data", str(self.data), "--out", str(out)])

    def run(self, _item: int) -> int:
        return self._train(self.cfg, self.out)

    def check(self, _item: int, code: int) -> list[str]:
        if code != 0:
            return [f"lshan train exited {code}"]
        problems = []
        ckpt = (self.out / "final.lshn").read_bytes()
        if self.first is None:
            self.first = ckpt
        elif ckpt != self.first:
            problems.append("final.lshn differs from the run's first op")
        with open(self.out / "training_log.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.epochs:
            problems.append(f"{len(rows)} logged epochs, expected {self.epochs}")
        for row in rows:
            for key in ("rel_loss", "coh_loss", "reg", "total"):
                if not math.isfinite(float(row[key])):
                    problems.append(f"epoch {row['epoch']}: {key} not finite")
        return problems

    def initial_params(self):
        cfg = lshan["trainer"].load_config(self.cfg)
        d_c = self.dataset.instances[0][0].dim
        state = lshan["trainer"].init_state(cfg, d_c, self.dataset.vocabulary.size)
        return cfg, state.ls, state.han


class TrainJoint(Train):
    epochs = 2
    lambda1 = 0.6   # the default config: even-7, windowed DTW, batch 4

    def final_checks(self) -> list[str]:
        return self._gradient_check() + self._longer_run()

    def _gradient_check(self) -> list[str]:
        """Central differences of trainer.joint_loss against joint_grad."""
        import numpy as np
        import oracles
        trainer = lshan["trainer"]
        cfg, ls, han = self.initial_params()
        batch = next(([inst] for inst in self.dataset.instances
                      if not _degenerate(ls, *inst)), None)
        if batch is None:
            return ["no non-degenerate instance for the gradient check"]
        analytic = trainer.joint_grad(batch, ls, han, cfg)
        groups = [("t_v", ls.t_v), ("t_s", ls.t_s)] \
            + lshan["han"].han_param_items(han)
        if set(analytic) != {name for name, _ in groups}:
            return ["joint_grad keys differ from the parameter groups"]
        rng = np.random.default_rng(self.seed)
        problems = []
        worst = 0.0
        for name, arr in groups:
            idx = rng.choice(arr.size, size=min(3, arr.size), replace=False)
            numeric = oracles.central_differences(
                lambda: trainer.joint_loss(batch, ls, han, cfg)[0], arr, idx,
                GRAD_EPS)
            err = oracles.relative_error(analytic[name].reshape(-1)[idx], numeric)
            worst = max(worst, err)
            if err > GRAD_TOL:
                problems.append(f"gradient of {name}: relative error {err:.2e}")
        self.notes["grad_max_rel_error"] = worst
        return problems

    def _longer_run(self) -> list[str]:
        out = self.work / "longer"
        code = self._train(self._config(3 * self.epochs), out)
        if code != 0:
            return [f"longer lshan train exited {code}"]
        with open(out / "training_log.csv", encoding="utf-8") as fh:
            totals = [float(row["total"]) for row in csv.DictReader(fh)]
        if not totals[-1] < totals[0]:
            return [f"total loss did not fall: {totals[0]} -> {totals[-1]}"]
        return []


class TrainAlign(Train):
    epochs = 10
    lambda1 = 1.0   # the relevance-only end of ``lshan sweep``

    def final_checks(self) -> list[str]:
        """DTW, paths and the loss drop, on the trained checkpoint."""
        import oracles
        ls_mod = lshan["latent_space"]
        trained, _, _ = lshan["han"].load_checkpoint(self.out / "final.lshn")
        _, init, _ = self.initial_params()
        problems = []
        before = after = 0.0
        for idx, (video, sentence) in enumerate(self.dataset.instances):
            n, m = video.n, sentence.length
            policy = ls_mod.window_policy(n, m)
            mask = oracles.window_mask(n, policy.lo, policy.hi)
            dist = _distances(trained, video, sentence.tokens)
            v_lat = ls_mod.project_video(trained.t_v, video)
            s_lat = ls_mod.project_sentence(trained.t_s, sentence)
            for label, pol, msk in (("windowed", policy, mask),
                                    ("unwindowed", None, None)):
                got = ls_mod.relevance_loss(trained, video, sentence, pol)
                want = oracles.dtw(dist, msk)[n - 1][m - 1]
                if not math.isclose(got, want, rel_tol=EXACT):
                    problems.append(f"instance {idx} {label}: relevance_loss "
                                    f"{got!r}, DTW oracle {want!r}")
                table = ls_mod.dtw(v_lat, s_lat, pol)
                path = ls_mod.backtrack(table).pairs
                problems += [f"instance {idx} {label} path: {p}" for p in
                             oracles.path_problems(path, n, m, dist, table.total)]
            after += ls_mod.relevance_loss(trained, video, sentence, policy)
            before += ls_mod.relevance_loss(init, video, sentence, policy)
        if not after < before:
            problems.append(f"relevance loss did not fall: {before} -> {after}")
        return problems


class Decode:
    """Decoding with the fixture checkpoint, cycling over every video of the
    fixture's training split and of the seed's held-out split."""

    lambda1 = None
    warmup = (0, 1, 2)

    def __init__(self, data: Path, work: Path, seed: int):
        self.data, self.work, self.seed = data, work, seed
        self.seen: dict[int, tuple] = {}   # item -> (first output, problems)
        self.work_per_op = 1
        self.notes: dict[str, float] = {}

    def setup(self) -> None:
        corpus = lshan["corpus"]
        self.ls, self.han, self.strategy = lshan["han"].load_checkpoint(FIXTURE)
        vocab = corpus.read_vocabulary(self.data / "vocab.txt")
        self.items = []
        for split in ("train", "test"):
            dataset = corpus.load_dataset(self.data / f"manifest_{split}.json",
                                          vocab)
            self.items += [(split, corpus.Dataset((inst,), vocab, split))
                           for inst in dataset.instances]

    def round(self) -> list[int]:
        return list(range(len(self.items)))

    def check(self, item: int, output) -> list[str]:
        """Validate a video's first output; later ones must equal it, and
        inherit its verdict."""
        key = self.summary(output)
        if item not in self.seen:
            self.seen[item] = (key, self.validate(item, output))
        first, problems = self.seen[item]
        return problems if key == first else \
            [f"video {item}: output differs from its first decode"]


class DecodeGreedy(Decode):
    """One op is ``evaluation.evaluate`` on one video."""

    def run(self, item: int):
        return lshan["evaluation"].evaluate(self.ls, self.han,
                                            self.items[item][1],
                                            self.strategy, MAX_LEN)

    @staticmethod
    def summary(report):
        r = report.results[0]
        return (r.breakdown, r.hyp_length)

    def greedy(self, item: int) -> tuple[int, ...]:
        video = self.items[item][1].instances[0][0]
        return lshan["han"].greedy_decode(self.han, self.ls, video,
                                          self.strategy, MAX_LEN)

    def validate(self, item: int, report) -> list[str]:
        import oracles
        split, dataset = self.items[item]
        ref = dataset.instances[0][1].tokens
        hyp = self.greedy(item)
        r = report.results[0]
        problems = []
        if r.breakdown.total != oracles.levenshtein(hyp, ref) \
                or r.hyp_length != len(hyp):
            problems.append(f"video {item}: S+I+D {r.breakdown.total} against "
                            f"Levenshtein {oracles.levenshtein(hyp, ref)}")
        if split == "train" and hyp != ref:
            problems.append(f"video {item}: training sentence not reproduced")
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        for item, (_, dataset) in enumerate(self.items):
            beam = lshan["han"].kbest_decode(self.han, self.ls,
                                             dataset.instances[0][0],
                                             self.strategy, 1, MAX_LEN)
            if beam[0][0] != self.greedy(item):
                problems.append(f"video {item}: k=1 beam differs from greedy")
        return problems


class DecodeBeam(Decode):
    """One op is ``evaluation.consistency_probe`` (k=5) on one video."""

    def run(self, item: int):
        return lshan["evaluation"].consistency_probe(
            self.ls, self.han, self.items[item][1], k=BEAM_K, sample_count=1,
            seed=0, strategy=self.strategy, max_len=MAX_LEN)

    @staticmethod
    def summary(report):
        return ([(v.hypotheses, v.correlation) for v in report.videos],
                report.skipped)

    def validate(self, item: int, report) -> list[str]:
        import numpy as np
        import oracles
        from scipy.stats import spearmanr

        def oracle_dtw(tokens):
            return oracles.dtw(_distances(self.ls, video, tokens))[-1][-1]

        corpus = lshan["corpus"]
        video = self.items[item][1].instances[0][0]
        if not report.videos:
            # a skip is right only where fewer than two distinct hypotheses
            # can be aligned, or all their distances tie
            hyps = lshan["han"].kbest_decode(self.han, self.ls, video,
                                             self.strategy, BEAM_K, MAX_LEN)
            alignable = {t for t, _ in hyps if t and len(t) <= video.n}
            dists = {oracle_dtw(t) for t in alignable}
            return [] if len(alignable) < 2 or len(dists) < 2 else \
                [f"video {item}: skipped with {len(alignable)} hypotheses"]
        hyps = report.videos[0].hypotheses
        problems = []
        tokens = [t for t, _, _ in hyps]
        scores = [s for _, s, _ in hyps]
        if len(set(tokens)) != len(tokens):
            problems.append(f"video {item}: repeated hypotheses")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"video {item}: hypotheses not sorted by score")
        recomputed = []
        for toks, score, dist in hyps:
            if len(toks) < MAX_LEN:   # ended by emitting #End
                nll = lshan["han"].coherence_loss(
                    self.han, self.ls, video, corpus.Sentence(toks),
                    self.strategy)
                if abs(score + nll) > EXACT:
                    problems.append(f"video {item}: score {score!r} against "
                                    f"coherence loss {nll!r}")
            want = oracle_dtw(toks)
            recomputed.append(want)
            if not math.isclose(dist, want, rel_tol=EXACT):
                problems.append(f"video {item}: DTW {dist!r}, oracle {want!r}")
        rho = spearmanr(np.arange(1, len(hyps) + 1), recomputed).statistic
        if not math.isclose(rho, report.videos[0].correlation, rel_tol=EXACT,
                            abs_tol=1e-12):
            problems.append(f"video {item}: correlation "
                            f"{report.videos[0].correlation!r}, scipy {rho!r}")
        return problems

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {"train-joint": TrainJoint, "train-align": TrainAlign,
             "decode-greedy": DecodeGreedy, "decode-beam": DecodeBeam}


def _distances(ls, video, tokens) -> list[list[float]]:
    """Oracle clip-to-word distances in the latent space of ``ls``."""
    import oracles
    return oracles.distances(video.clips @ ls.t_v.T, ls.t_s[:, list(tokens)].T)


def _degenerate(ls, video, sentence) -> bool:
    """Whether the windowed DTW argmin is near a tie or a zero distance, where
    the loss has no gradient for central differences to match."""
    import oracles
    dist = _distances(ls, video, sentence.tokens)
    policy = lshan["latent_space"].window_policy(video.n, sentence.length)
    costs = oracles.dtw(dist, oracles.window_mask(video.n, policy.lo, policy.hi))
    i, j = video.n - 1, sentence.length - 1
    margin, least = math.inf, dist[i][j]
    while i > 0:
        stay, move = costs[i - 1][j], (costs[i - 1][j - 1] if j else math.inf)
        if math.isfinite(stay) and math.isfinite(move):
            margin = min(margin, abs(stay - move))
        if move <= stay:
            j -= 1
        i -= 1
        least = min(least, dist[i][j])
    return margin < 1e-3 or least < 1e-6


# ---------------------------------------------------------------------------
# tracing: which functions get spans, which counters, which metrics
# ---------------------------------------------------------------------------

def _size_hook(counter):
    def hook(bump, args, kwargs, result):
        bump(counter, os.path.getsize(args[0]))
    return hook


def _dataset_bytes(bump, args, kwargs, result):
    manifest = Path(args[0])
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    files = [manifest, manifest.parent / spec["annotations"]] \
        + [manifest.parent / rel for rel in spec["features"]]
    bump("corpus.bytes_read", sum(os.path.getsize(f) for f in files))


SPANS = {
    "cli.run": None,
    "corpus.load_dataset": _dataset_bytes,
    "trainer.train": None,
    "trainer.joint_grad":
        lambda bump, args, kwargs, result: bump("instance_steps", len(args[0])),
    "trainer.clip_gradients": None,
    "trainer.sgd_step": None,
    "trainer.regularizer": None,
    "latent_space.dtw": lambda bump, args, kwargs, result: bump(
        "latent_space.dtw.cells", args[0].shape[0] * args[1].shape[0]),
    "latent_space.backtrack": None,
    "latent_space.relevance_grad": None,
    "latent_space.relevance_loss": None,
    "latent_space.window_policy": None,
    "han._lstm_forward": None,
    "han._lstm_backward": None,
    "han._attention_forward": None,
    "han._attention_backward": None,
    "han.encode_video": None,
    "han.coherence_grad": None,
    "han.coherence_loss": None,
    "han._decode_step": None,
    "han.kbest_decode": None,
    "han.save_checkpoint": _size_hook("han.checkpoint_bytes"),
    "han.load_checkpoint": _size_hook("han.checkpoint_bytes"),
    "evaluation.edit_breakdown": None,
    "evaluation.consistency_probe": None,
}
COUNTERS = {
    "han._cell_forward":
        lambda bump, args, kwargs, result: bump("han.cell_steps", 1),
}
# set-up work on the decode workloads: reported per process where no op
# does it
SETUP_PHASE = {"corpus.load_dataset", "corpus.bytes_read",
               "han.load_checkpoint", "han.checkpoint_bytes"}


def layer_metrics(tracer, ops: list[int], workload) -> dict[str, float]:
    per, setup = tracer.totals(set(ops)), tracer.totals({-1})
    counts: dict[str, float] = {}
    for op in ops:
        for key, value in tracer.counts[op].items():
            counts[key] = counts.get(key, 0.0) + value

    def span(name, field):
        value = per[name][field] / len(ops) if name in per else 0.0
        if not value and name in SETUP_PHASE and name in setup:
            value = setup[name][field]
        return value

    def count(name):
        value = counts.get(name, 0.0) / len(ops)
        if not value and name in SETUP_PHASE:
            value = tracer.counts[-1].get(name, 0.0)
        return value

    steps = counts.get("instance_steps", 0.0)
    terms = 1 if workload.lambda1 in (0.0, 1.0) else 2
    passes = sum(per[name]["calls"] for name in (
        "han.coherence_loss", "han.coherence_grad",
        "latent_space.relevance_loss", "latent_space.relevance_grad")
        if name in per)
    return {
        "cli.run.self_ms": span("cli.run", "self_ms"),
        "corpus.load_dataset.ms": span("corpus.load_dataset", "ms"),
        "corpus.bytes_read": count("corpus.bytes_read"),
        "latent_space.dtw.ms": span("latent_space.dtw", "ms"),
        "latent_space.dtw.calls": span("latent_space.dtw", "calls"),
        "latent_space.dtw.cells": count("latent_space.dtw.cells"),
        "latent_space.backtrack.ms": span("latent_space.backtrack", "ms"),
        "latent_space.relevance_grad.self_ms":
            span("latent_space.relevance_grad", "self_ms"),
        "latent_space.window_policy.ms": span("latent_space.window_policy", "ms"),
        "han.lstm_forward.self_ms": span("han._lstm_forward", "self_ms"),
        "han.cell_steps": count("han.cell_steps"),
        "han.lstm_backward.self_ms": span("han._lstm_backward", "self_ms"),
        "han.lstm_backward.calls": span("han._lstm_backward", "calls"),
        "han.attention.self_ms": span("han._attention_forward", "self_ms")
        + span("han._attention_backward", "self_ms"),
        "han.encode_video.ms": span("han.encode_video", "ms"),
        "han.encode_video.calls": span("han.encode_video", "calls"),
        "han.coherence_grad.ms": span("han.coherence_grad", "ms"),
        "han.coherence_loss.calls": span("han.coherence_loss", "calls"),
        "han.decode_step.ms": span("han._decode_step", "ms"),
        "han.decode_step.calls": span("han._decode_step", "calls"),
        "han.kbest_decode.self_ms": span("han.kbest_decode", "self_ms"),
        "han.save_checkpoint.ms": span("han.save_checkpoint", "ms"),
        "han.load_checkpoint.ms": span("han.load_checkpoint", "ms"),
        "han.checkpoint_bytes": count("han.checkpoint_bytes"),
        "trainer.joint_grad.self_ms": span("trainer.joint_grad", "self_ms"),
        "trainer.clip_gradients.ms": span("trainer.clip_gradients", "ms"),
        "trainer.sgd_step.ms": span("trainer.sgd_step", "ms"),
        "trainer.regularizer.ms": span("trainer.regularizer", "ms"),
        "trainer.steps": span("trainer.sgd_step", "calls"),
        "trainer.forward_passes_per_instance":
            passes / (steps * terms) if steps else 0.0,
        "evaluation.edit_breakdown.ms": span("evaluation.edit_breakdown", "ms"),
        "evaluation.consistency_probe.self_ms":
            span("evaluation.consistency_probe", "self_ms"),
    }


def layer_shares(tracer, ops: list[int], op_ms: float) -> dict[str, float]:
    """Share of traced op time spent in each module's own code (self time)."""
    shares: dict[str, float] = {}
    totals = tracer.totals(set(ops))
    for name, entry in totals.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + entry["self_ms"]
    shares["han.lstm"] = sum(totals[name]["self_ms"] for name in (
        "han._lstm_forward", "han._lstm_backward") if name in totals)
    return {k: round(v / op_ms, 4) for k, v in sorted(shares.items())}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _blas() -> dict:
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                out["threads"] = getter()
                return out
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    importlib.import_module("lshan.cli")
    import_ms = (time.perf_counter() - t) * 1e3
    for name in MODULES:
        lshan[name] = sys.modules[f"lshan.{name}"]
    workload = WORKLOADS[args.workload](args.data, args.work, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer([lshan[name] for name in MODULES])
        tracer.install(SPANS, COUNTERS)
    workload.setup()
    warmup = [(item, workload.run(item)) for item in workload.warmup]
    setup_raw_s = time.perf_counter() - START
    from calibrate import Calibrator
    calibrator = Calibrator()
    setup_s = setup_raw_s * calibrator.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    if tracer:
        tracer.op = CHECKING
    problems = [p for item, output in warmup
                for p in workload.check(item, output)]

    latencies: list[float] = []      # at reference speed
    raw_latencies: list[float] = []
    round_rates: dict[bool, list[float]] = {False: [], True: []}
    raw_rates: list[float] = []
    traced_ops: list[int] = []
    traced_busy = 0.0
    attempted = failed = 0
    failures: list[str] = []
    loop_start = time.perf_counter()
    rounds = 0
    calibrated = -math.inf
    while time.perf_counter() - loop_start < args.seconds:
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            scale = calibrator.scale()
            calibrated = time.perf_counter()
        traced = bool(tracer) and rounds % 2 == 1
        if tracer:
            tracer.uninstall()
            if traced:
                tracer.install(SPANS, COUNTERS)
        busy = 0.0
        work = 0
        for item in workload.round():
            attempted += 1
            if tracer:
                tracer.op = attempted
            t = time.perf_counter()
            try:
                output = workload.run(item)
                elapsed = time.perf_counter() - t
                if tracer:
                    tracer.op = CHECKING
                op_problems = workload.check(item, output)
            except Exception:   # an op that raises counts as failed
                elapsed = time.perf_counter() - t
                op_problems = [traceback.format_exc(limit=3)]
            busy += elapsed
            if op_problems:   # timed all the same; its work does not count
                failed += 1
                failures += op_problems[:2]
            else:
                work += workload.work_per_op
            if traced:
                traced_ops.append(attempted)
            else:
                latencies.append(elapsed * scale)
                raw_latencies.append(elapsed)
        if busy:
            round_rates[traced].append(work / (busy * scale))
            if not traced:
                raw_rates.append(work / busy)
        if traced:
            traced_busy += busy
        rounds += 1
    measured_s = time.perf_counter() - loop_start
    if tracer:
        tracer.uninstall()
    problems += workload.final_checks()

    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "failures": failures[:20],
        "rounds": rounds, "ops_timed": len(latencies),
        "measured_s": measured_s, "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if latencies:
        ms = sorted(1e3 * x for x in latencies)
        result["work_per_s"] = statistics.median(round_rates[False])
        result["op_p50_ms"] = statistics.median(ms)
        if len(ms) >= 100:
            result["op_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
        result["raw_work_per_s"] = statistics.median(raw_rates)
        result["raw_op_p50_ms"] = 1e3 * statistics.median(raw_latencies)
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw_s
    result["calibration_ms"] = calibrator.bursts
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer and traced_ops:
        layers = layer_metrics(tracer, traced_ops, workload)
        layers["cli.import_ms"] = import_ms
        layers["trace.overhead"] = statistics.median(round_rates[True]) \
            / result["work_per_s"] if latencies else 0.0
        result["layers"] = layers
        result["shares"] = layer_shares(tracer, traced_ops, 1e3 * traced_busy)
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
    result.update(workload.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
