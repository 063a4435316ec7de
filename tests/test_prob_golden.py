"""Golden digest of the probabilistic decision commands as the CLI prints
them under each monad of the probabilistic calculus.

The digest is the SHA-256 of the lines ``_lines`` produces: the exit code
and output of ``selcalc eval --semantics denotational``, ``canon``,
``pure`` and ``equiv`` (against the program of the next seed at the same
type), each as text and as ``--json``, under DW, T2 and T3, on seeded
probabilistic programs at Bool, Unit and Bool * Bool.  Even seeds
evaluate at the zero valuation and odd seeds under a table that separates
``tt`` from ``ff``.  It pins how T2 and T3 values print (support in value
order, with each value's reward or the pooled one) wherever the commands
print them.

Capture recipe, run from the repository root on the code to pin:

    PYTHONPATH=src:tests python -c "import test_prob_golden as g; g.capture()"

and paste the printed digest into ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from selcalc.cli import main
from selcalc.syntax import BOOL, UNIT, Prod, pretty_program, Program
from selcalc.testgen import GenConfig, gen_program

GOLDEN = "cd155347f41a217b061f0b8fa72816b4318c16e5ae113e322a66f94394f0baf9"
SEEDS = range(20)
TARGETS = [BOOL, UNIT, Prod(BOOL, BOOL)]
MONADS = ("DW", "T2", "T3")
TABLE = {"tt": "2", "ff": "1/2"}


def _run(*args) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return f"{code} {out.getvalue()}{err.getvalue()}"


def _program(ty, seed) -> str:
    cfg = GenConfig(seed=seed, mode="prob", max_term_size=20)
    config = cfg.lang()
    return pretty_program(Program(config, gen_program(cfg, ty, cfg.rng(), config)))


def _lines():
    with tempfile.TemporaryDirectory() as tmp:
        src, other = Path(tmp, "a.sel"), Path(tmp, "b.sel")
        table = Path(tmp, "gamma.json")
        table.write_text(json.dumps(TABLE))
        for ty in TARGETS:
            for seed in SEEDS:
                src.write_text(_program(ty, seed))
                other.write_text(_program(ty, seed + 1))
                gamma = str(table) if seed % 2 else "zero"
                for monad in MONADS:
                    for fmt in ([], ["--json"]):
                        head = f"{ty} {seed} {monad} {' '.join(fmt)}"
                        for args in (
                                ["eval", "--semantics", "denotational",
                                 "--gamma", gamma, str(src)],
                                ["canon", str(src)],
                                ["pure", str(src)],
                                ["equiv", str(src), str(other)]):
                            yield f"{head} {args[0]} " + _run(
                                *args[:1], "--monad", monad, *fmt, *args[1:])


def _digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def capture():
    print(f'GOLDEN = "{_digest()}"')


def test_prob_commands_match_golden_digest():
    assert _digest() == GOLDEN
