"""Train the fixture checkpoint that both decode workloads load.

    python3 bench/make_fixture.py

Draws the standard corpus with ``gen.FIXTURE_SEED``, trains it through
``lshan train`` with the default configuration (400 epochs; a few minutes on
two cores), writes ``bench/fixture/standard.lshn`` and prints the greedy
training-split accuracy. Decoding a stored checkpoint keeps the decoded
parameters identical across the commits that a comparison measures.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from lshan import cli, corpus, evaluation, han  # noqa: E402

FIXTURE = HERE / "fixture" / "standard.lshn"


def main() -> int:
    data = gen.standard_corpus(HERE / "_work" / "data", gen.FIXTURE_SEED)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        cfg = Path(tmp) / "default.cfg"
        cfg.write_text("", encoding="utf-8")  # every key at its default
        start = time.perf_counter()
        code = cli.run(["train", "--config", str(cfg), "--data", str(data),
                        "--out", tmp])
        if code != 0:
            print(f"lshan train exited {code}", file=sys.stderr)
            return code
        FIXTURE.parent.mkdir(exist_ok=True)
        shutil.copyfile(Path(tmp) / "final.lshn", FIXTURE)
        seconds = time.perf_counter() - start
    ls, model, strategy = han.load_checkpoint(FIXTURE)
    vocab = corpus.read_vocabulary(data / "vocab.txt")
    dataset = corpus.load_dataset(data / "manifest_train.json", vocab)
    report = evaluation.evaluate(ls, model, dataset, strategy)
    print(f"fixture {FIXTURE.name}: corpus seed {gen.FIXTURE_SEED}, "
          f"trained in {seconds:.0f} s, training-split accuracy "
          f"{report.mean_accuracy:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
