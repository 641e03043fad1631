"""Benchmark of lshan training and decoding.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It draws the seed's inputs with ``gen.py``
(cached under ``bench/_work/data``), then runs the workload in a fresh
process (``workload.py``) that times calls into the program from outside and
checks every output. With ``--trace 0`` it also starts the workload
``SETUP_SAMPLES - 1`` more times with set-up only, and reports the median
set-up time of all of them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``). The line before it is the run record: machine, versions,
source commit, seed, op counts, and anything that failed. It is also written
to ``bench/_work/runs/``; a traced run writes its spans to
``bench/_work/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = {"train-joint": "standard_corpus", "train-align": "long_corpus",
             "decode-greedy": "decode_corpus", "decode-beam": "decode_corpus"}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def make_inputs(workload: str, seed: int) -> Path:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import gen
    return getattr(gen, WORKLOADS[workload])(WORK / "data", seed)


def run_workload(args, data: Path, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(data),
           "--work", str(WORK / "out" / f"{args.workload}-{args.seed}")] + extra
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not end in {CHILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_state() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lshan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lshan" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'lshan'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload.startswith("decode") \
            and not (HERE / "fixture" / "standard.lshn").is_file():
        print("fixture checkpoint missing; run bench/make_fixture.py",
              file=sys.stderr)
        return 2

    data = make_inputs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [] if args.trace else [
            run_workload(args, data, ["--setup-only"])
            for _ in range(SETUP_SAMPLES - 1)]
        result = run_workload(
            args, data, ["--spans", str(WORK / "spans" / f"{tag}.jsonl")])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    result["setup_s_samples"] = [s["setup_s"] for s in setups]
    result["setup_raw_s_samples"] = [s["setup_raw_s"] for s in setups]
    result["setup_s"] = statistics.median(result["setup_s_samples"])

    values = result.get("layers", {}) if args.trace else result
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": result.pop("blas"), "python": result.pop("python"),
        "numpy": result.pop("numpy"), "scipy": metadata.version("scipy"),
        **source_state(),
        **{k: v for k, v in result.items() if k != "layers"},
    }
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    (WORK / "runs" / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
