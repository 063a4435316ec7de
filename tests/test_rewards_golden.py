"""Golden digest of the rewards-mode commands as the CLI prints them under
each reward structure.

The digest is the SHA-256 of the lines ``_lines`` produces: the exit code
and output of ``selcalc eval`` (selection, ``--oracle`` and ``--semantics
ordinary``), ``canon``, ``pure``, ``equiv`` and ``distinguish`` (both
against the program of the next seed at the same type), each as text and
as ``--json``, on seeded rewards-mode programs at Bool, Unit, Bool * Bool
and Bool -> Bool under every reward structure.  It pins the canonical
forms, the purity witnesses and the distinguishing contexts of the
rewards calculus, and the exit codes 0, 1 and 2 all occur in it.

Capture recipe, run from the repository root on the code to pin:

    PYTHONPATH=src:tests python -c "import test_rewards_golden as g; g.capture()"

and paste the printed digest into ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from selcalc.cli import main
from selcalc.rewards import STRUCTURES
from selcalc.syntax import BOOL, UNIT, Arrow, Prod, Program, pretty_program
from selcalc.testgen import GenConfig, gen_program

GOLDEN = "08b6cb53f7d2a08452b5dc6fcac0df49249a070c38675a3b2bc2c577f6c6068a"
SEEDS = range(12)
TARGETS = [BOOL, UNIT, Prod(BOOL, BOOL), Arrow(BOOL, BOOL)]
COMMANDS = (
    ("eval",), ("eval", "--oracle"), ("eval", "--semantics", "ordinary"),
    ("canon",), ("pure",), ("equiv", "OTHER"), ("distinguish", "OTHER"),
)


def _run(*args) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return f"{code} {out.getvalue()}{err.getvalue()}"


def _program(structure, ty, seed) -> str:
    cfg = GenConfig(seed=seed, mode="rewards", max_term_size=20,
                    structure=structure)
    config = cfg.lang()
    return pretty_program(Program(config, gen_program(cfg, ty, cfg.rng(), config)))


def _lines():
    with tempfile.TemporaryDirectory() as tmp:
        src, other = Path(tmp, "a.sel"), Path(tmp, "b.sel")
        for name in sorted(STRUCTURES):
            for ty in TARGETS:
                for seed in SEEDS:
                    src.write_text(_program(STRUCTURES[name], ty, seed))
                    other.write_text(_program(STRUCTURES[name], ty, seed + 1))
                    for fmt in ([], ["--json"]):
                        head = f"{name} {ty} {seed} {' '.join(fmt)}"
                        for cmd, *rest in COMMANDS:
                            files = [str(src)] + [str(other)
                                                  for a in rest if a == "OTHER"]
                            flags = [a for a in rest if a != "OTHER"]
                            yield f"{head} {cmd} {' '.join(flags)} " + _run(
                                cmd, *flags, *fmt, *files)


def _digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def capture():
    print(f'GOLDEN = "{_digest()}"')


def test_rewards_commands_match_golden_digest():
    assert _digest() == GOLDEN
