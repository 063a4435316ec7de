"""Golden digest of the denotational semantics as the CLI prints it.

The digest is the SHA-256 of the lines ``_lines`` produces: the output of
``selcalc eval --semantics denotational --json`` on seeded programs at
Bool, Unit, a product, a function and a higher-order type, in W
(rewards mode) and in DW, T2 and T3 (probabilistic mode).  Even seeds run
at the zero valuation and odd seeds under a table that separates ``tt``
from ``ff``, so choices are decided by reward and not only by ties.

Capture recipe, run from the repository root on the code to pin:

    PYTHONPATH=src:tests python -c "import test_denote_golden as g; g.capture()"

and paste the printed digest into ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from selcalc.cli import main
from selcalc.syntax import BOOL, UNIT, Arrow, Prod, pretty
from selcalc.testgen import GenConfig, gen_program

GOLDEN = "2e93e88078776b818298795bc47e7097fd93923385cae9823727276bcdc18f85"
SEEDS = range(30)
TARGETS = [BOOL, UNIT, Prod(BOOL, UNIT), Arrow(BOOL, BOOL),
           Arrow(Arrow(BOOL, BOOL), BOOL)]
MONADS = {"W": "rewards", "DW": "prob", "T2": "prob", "T3": "prob"}
TABLE = {"tt": "2", "ff": "1/2"}


def _run(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return f"{code} {out.getvalue()}"


def _lines():
    with tempfile.TemporaryDirectory() as tmp:
        src, table = Path(tmp, "p.sel"), Path(tmp, "gamma.json")
        table.write_text(json.dumps(TABLE))
        for monad, mode in MONADS.items():
            for ty in TARGETS:
                for seed in SEEDS:
                    cfg = GenConfig(seed=seed, mode=mode, max_term_size=20)
                    t = gen_program(cfg, ty, cfg.rng(), cfg.lang())
                    src.write_text(pretty(t))
                    gamma = str(table) if seed % 2 else "zero"
                    yield f"{monad} {ty} {seed} " + _run(
                        "eval", "--semantics", "denotational", "--json",
                        "--mode", mode, "--monad", monad, "--gamma", gamma,
                        str(src))


def _digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def capture():
    print(f'GOLDEN = "{_digest()}"')


def test_denotational_eval_matches_golden_digest():
    assert _digest() == GOLDEN
