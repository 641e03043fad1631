"""Every function defined in ``src/lshan/`` is called by some subcommand.

The subcommands run in a fresh process on a tiny corpus under
``sys.setprofile``. A function, method, lambda or generator expression of
``lshan`` that none of them calls fails the test, unless ``UNREACHED``
names it with its reason; a name there that a command does call fails it
too, so the list stays exact.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import lshan
from lshan import cli

_BENCH_ONLY = ("called only by bench/workload.py; ROADMAP item 1 deletes it "
               "when the benchmark moves to the batched forms")

UNREACHED = {
    "han.han_param_items": _BENCH_ONLY,
    "han.coherence_loss": _BENCH_ONLY,
    "latent_space.AlignmentPath.pairs": _BENCH_ONLY,
    "latent_space.dtw": _BENCH_ONLY,
    "latent_space.relevance_loss": _BENCH_ONLY,
    "trainer.joint_loss": _BENCH_ONLY,
    "trainer.joint_loss.<locals>.<genexpr>": _BENCH_ONLY,
    "cli.main": "the console-script entry point; it passes sys.argv to "
                "cli.run, which the commands here call",
    "han.Parameters.__len__": "Mapping requires it; no command takes the "
                              "length of a parameter set",
    "han.Parameters.first_non_finite.<locals>.<genexpr>":
        "names the first non-finite array, so it runs only on a divergence "
        "or a checkpoint holding a NaN or an infinity",
}


_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def defined_functions():
    """``{(file, first line, qualified name): "module.qualname"}`` of every
    function body in the package's source. Module and class bodies, and the
    comprehensions they hold, run at import and are left out."""
    found = {}
    for path in sorted(Path(lshan.__file__).parent.glob("*.py")):
        path = path.resolve()
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            in_function = code.co_flags & inspect.CO_NEWLOCALS
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and (
                        in_function or const.co_name not in _COMPREHENSIONS):
                    stack.append(const)
            if in_function:
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def commands(root: Path):
    data, model = root / "data", root / "model"
    config = root / "tiny.cfg"
    config.write_text("epochs = 2\nlatent_dim = 4\nhidden_size = 6\n"
                      "attention_size = 4\ncheckpoint_every = 1\n"
                      "strategy = pair-split\nwindowed_dtw = true\n")
    checkpoint = str(model / "final.lshn")
    read = ["--model", checkpoint, "--data", str(data)]
    return [
        ["synth", "--out", str(data), "--seed", "0", "--vocab-size", "6",
         "--feature-dim", "5", "--instances", "4", "--val-instances", "2",
         "--test-instances", "2", "--sentence-len-min", "2",
         "--sentence-len-max", "3"],
        ["train", "--config", str(config), "--data", str(data),
         "--out", str(model), "--split", "train"],   # refused: _Parser.error
        ["train", "--config", str(config), "--data", str(data),
         "--out", str(model)],
        ["eval", *read, "--out", str(root / "eval.csv")],
        ["eval", *read, "--strategy", "two-split",
         "--out", str(root / "eval_two_split.csv")],
        ["align", *read, "--out", str(root / "align.csv")],
        ["align", *read, "--windowed", "--out", str(root / "align_w.csv")],
        ["probe", *read, "--k", "3", "--samples", "4",
         "--out", str(root / "probe.csv")],
        ["sweep", "--config", str(config), "--data", str(data),
         "--lambdas", "0.0,0.6,1.0", "--out", str(root / "sweep.csv")],
        ["gradcheck", "--instances", "2"],
    ]


def reached_functions(root: Path):
    """Runs ``commands(root)`` under ``sys.setprofile``; returns their exit
    codes and the (file, first line, qualified name) of each function they
    called."""
    called = {}

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        codes = [cli.run(argv) for argv in commands(root)]
    finally:
        sys.setprofile(None)
    return codes, sorted({(os.path.realpath(code.co_filename),
                           code.co_firstlineno, code.co_qualname)
                          for code in called.values()})


def test_every_function_is_reached(tmp_path):
    # a fresh process: no cache filled and no function patched by another test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "reached.json").read_text())
    assert result["codes"] == [0, 1] + [0] * 8, proc.stderr
    reached = {tuple(key) for key in result["reached"]}
    unreached = {name for key, name in defined_functions().items()
                 if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "never called"
    assert sorted(UNREACHED.keys() - unreached) == [], \
        "listed, but called or gone"


if __name__ == "__main__":
    codes, reached = reached_functions(Path(sys.argv[1]))
    (Path(sys.argv[1]) / "reached.json").write_text(
        json.dumps({"codes": codes, "reached": reached}))
