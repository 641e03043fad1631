"""Command-line entry point for reproducible experiments.

Subcommands: synth, train, eval, align, gradcheck, probe, sweep.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every command but gradcheck writes a run manifest beside its outputs: the
command, its arguments, the lshan version and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import han as han_mod
from . import latent_space as ls_mod
from . import trainer as trainer_mod
from .corpus import CorpusError
from .latent_space import AlignmentError
from .trainer import ConfigError, TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def seed(text: str) -> int:
    """A ``--seed`` value: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_run_manifest(out_dir: Path, command: str, args: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # the subcommand handler's repr holds a per-process address
    args = {key: value for key, value in args.items() if key != "func"}
    manifest = {"command": command, "version": __version__, "args": args,
                "python": platform.python_version(), "numpy": np.__version__}
    (out_dir / f"run_{command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8")


def _load_split(data_dir: Path, split: str) -> corpus_mod.Dataset:
    vocab = corpus_mod.read_vocabulary(data_dir / "vocab.txt")
    return corpus_mod.load_dataset(data_dir / f"manifest_{split}.json", vocab)


def _load_model_and_split(args):
    """``(ls, han, strategy, dataset)``: ``--model`` under ``--strategy`` if
    given, and the split of ``--data`` it reads, which must share its words
    and its feature dim."""
    ls, han, strategy = han_mod.load_checkpoint(args.model)
    if getattr(args, "strategy", None):
        strategy = han_mod.parse_strategy(args.strategy)
    dataset = _load_split(Path(args.data), args.split)
    words, vocab = ls.t_s.shape[1], dataset.vocabulary.size
    if words != vocab:
        raise ValueError(f"{args.model}: the checkpoint has {words} words, but "
                         f"{Path(args.data) / 'vocab.txt'} has {vocab}")
    width, dim = ls.t_v.shape[1], dataset.instances[0][0].dim
    if width != dim:
        raise ValueError(f"{args.model}: the checkpoint has {width}-dim "
                         f"features, but {args.data} has {dim}-dim features")
    return ls, han, strategy, dataset


def _cmd_synth(args) -> int:
    out = Path(args.out)
    counts = {"train": args.instances, "validation": args.val_instances,
              "test": args.test_instances}
    if min(counts.values()) < 0:
        raise ValueError(f"instance counts must be >= 0, got {counts}")
    # one generator run for all splits so the word prototypes are shared;
    # the splits then differ only in which sentences were drawn
    cfg = corpus_mod.SyntheticConfig(
        vocab_size=args.vocab_size, feature_dim=args.feature_dim,
        clips_per_word=(args.clips_per_word_min, args.clips_per_word_max),
        noise_std=args.noise,
        sentence_length=(args.sentence_len_min, args.sentence_len_max),
        instance_count=sum(counts.values()), seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    pool = corpus_mod.generate_synthetic(cfg)
    start = 0
    for split, count in counts.items():
        if count == 0:
            continue
        dataset = dataclasses.replace(
            pool, instances=pool.instances[start:start + count], split=split,
            alignments=pool.alignments[start:start + count])
        start += count
        corpus_mod.save_dataset(dataset, out)
    corpus_mod.write_vocabulary(out / "vocab.txt", pool.vocabulary)
    _write_run_manifest(out, "synth", vars(args))
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = trainer_mod.load_config(args.config)
    dataset = _load_split(Path(args.data), "train")
    out = Path(args.out)
    _write_run_manifest(out, "train", {**vars(args), "seed": cfg.seed})
    trainer_mod.train(dataset, cfg, out_dir=out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    ls, han, strategy, dataset = _load_model_and_split(args)
    start = time.perf_counter()
    report = eval_mod.evaluate(ls, han, dataset, strategy)
    seconds = time.perf_counter() - start
    out = Path(args.out)
    report.write_csv(out)
    _write_run_manifest(out.parent, "eval", vars(args))
    agg = report.aggregate
    print(f"mean_accuracy {report.mean_accuracy:.6f}  S={agg.substitutions} "
          f"I={agg.insertions} D={agg.deletions} N={agg.reference_length}  "
          f"decode_seconds={seconds:.3f}")
    return EXIT_OK


def _cmd_align(args) -> int:
    ls, _, _, dataset = _load_model_and_split(args)
    tables = ls_mod.align_batch(ls, dataset.instances, args.windowed)
    rows = [(idx, i, j) for idx, table in enumerate(tables)
            for i, j in enumerate(ls_mod.backtrack(table).words.tolist())]
    out = Path(args.out)
    corpus_mod.write_csv(out, ["instance_id", "clip_index", "word_index"], rows)
    _write_run_manifest(out.parent, "align", vars(args))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    rng = np.random.default_rng(args.seed)
    synth = corpus_mod.SyntheticConfig(
        vocab_size=8, feature_dim=5, clips_per_word=(1, 2),
        noise_std=0.3, sentence_length=(1, 3), instance_count=args.instances,
        seed=int(rng.integers(2 ** 31)))
    dataset = corpus_mod.generate_synthetic(synth)
    # these videos have at most 6 clips, so even-7 would give every segment
    # one clip, whose attention softmax has a zero gradient; pairs give every
    # video of 2 or more clips a 2-clip segment
    cfg = trainer_mod.TrainingConfig(
        latent_dim=6, hidden_size=8, attention_size=5, seed=args.seed,
        strategy=han_mod.SegmentationStrategy("pair-split"))
    report = trainer_mod.grad_check(dataset.instances, cfg, eps=args.eps,
                                    tolerance=args.tolerance)
    for name in sorted(report.max_rel_error):
        flag = "FAIL" if name in report.failed else "ok"
        print(f"{name:<16} max_rel_err {report.max_rel_error[name]:.3e}  {flag}")
    print(f"checked {report.checked_instances} instances, "
          f"skipped {report.skipped_instances} degenerate")
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _cmd_probe(args) -> int:
    ls, han, strategy, dataset = _load_model_and_split(args)
    report = eval_mod.consistency_probe(ls, han, dataset, k=args.k,
                                        sample_count=args.samples,
                                        seed=args.seed, strategy=strategy)
    out = Path(args.out)
    report.write_csv(out)
    _write_run_manifest(out.parent, "probe", vars(args))
    print(f"mean_spearman {report.mean_correlation:.4f}  "
          f"videos={len(report.videos)} skipped={report.skipped} "
          f"dtw={'windowed' if report.windowed else 'unwindowed'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = trainer_mod.load_config(args.config)
    data_dir = Path(args.data)
    train_ds = _load_split(data_dir, "train")
    val_ds = _load_split(data_dir, "validation")
    values = []
    for item in args.lambdas.split(","):   # checked before --out is opened
        try:
            value = float(item)
        except ValueError:
            raise ValueError(f"--lambdas item {item!r} is not a number") \
                from None
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"lambda1 value {value} outside [0, 1]")
        values.append(value)
    out = Path(args.out)
    out.open("a").close()   # an unusable --out fails before the trainings
    rows = eval_mod.lambda_sweep(train_ds, val_ds, cfg, values)
    eval_mod.write_sweep_csv(rows, out)
    _write_run_manifest(out.parent, "sweep", vars(args))
    for row in rows:
        print(f"lambda={row.lambda1:.2f} val_accuracy={row.val_accuracy:.4f}"
              + (f"  [{row.error_message}]" if row.error_message else ""))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lshan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--val-instances", type=int, default=20)
    p.add_argument("--test-instances", type=int, default=20)
    p.add_argument("--sentence-len-min", type=int, default=3)
    p.add_argument("--sentence-len-max", type=int, default=7)
    p.add_argument("--clips-per-word-min", type=int, default=2)
    p.add_argument("--clips-per-word-max", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--strategy", default=None,
                   help="two-split | pair-split | even-<k>; default from checkpoint")
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("align", help="export DTW alignment paths as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--windowed", action="store_true")
    p.add_argument("--out", default="alignments.csv")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of analytic gradients")
    p.add_argument("--seed", type=seed, default=1)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("probe",
                       help="decoder-rank vs latent-distance consistency probe")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--strategy", default=None)
    p.add_argument("--out", default="probe.csv")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("sweep", help="trade-off parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambdas", default="0.0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (CorpusError, ConfigError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, AlignmentError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # inputs report their own, so this is an output
        # a rename's destination is its second path
        print(f"usage error: cannot write {exc.filename2 or exc.filename}: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
