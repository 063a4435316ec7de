"""Golden digest of ``repr`` on terms and types.

``StuckTerm`` messages and ``Dist.__repr__`` print terms with ``repr``,
so its text is pinned: the dataclass form ``Cls(field=value, ...)``.  The
digest is the SHA-256 of the lines ``_lines`` produces: the ``repr`` of
seeded programs of several types in both modes, of their effect values,
of a few types and of hand-built nodes that the generator does not make.

Capture recipe, run from the repository root on the code to pin:

    PYTHONPATH=src:tests python -c "import test_repr_golden as g; g.capture()"

and paste the printed digest into ``GOLDEN``.
"""

import hashlib
from fractions import Fraction as F

from selcalc.operational import eval_effect
from selcalc.syntax import (
    BOOL, FF, REW, TT, UNIT, App, Arrow, Base, FnApp, Hole, Lam, Or,
    PChoice, Prod, Rew, RewConst, Star, Var, parse,
)
from selcalc.testgen import GenConfig, gen_program

GOLDEN = "0ded72f3d77480ab5eb92480f66cfd502a0c4192ee0c432b7f985595bb169a33"
SEEDS = range(150)
TARGETS = [BOOL, Prod(BOOL, BOOL), Arrow(BOOL, BOOL),
           Arrow(Arrow(BOOL, BOOL), Prod(BOOL, UNIT))]
TYPES = [BOOL, REW, UNIT, Base("Color"), Prod(Arrow(BOOL, REW), UNIT),
         Arrow(Prod(BOOL, BOOL), Arrow(BOOL, Prod(REW, Base("Color"))))]
NODES = [
    Hole(), Star(), Var("x'"), RewConst(F(-3, 4)), FnApp("+", (TT,)),
    FnApp("oplus", (RewConst(F(1)), RewConst(F(2))), F(1, 3)),
    FnApp("<=", ()), PChoice(F(1, 2), Or(TT, Hole()), Rew(RewConst(F(0)), FF)),
    Lam("f", Arrow(BOOL, Prod(BOOL, UNIT)), App(Var("f"), TT)),
    parse("fun (x:Bool) -> [-] or fst <x, *>"),
]


def _lines():
    for mode in ("rewards", "prob"):
        for ty in TARGETS:
            for seed in SEEDS:
                cfg = GenConfig(seed=seed, mode=mode, max_term_size=40)
                config = cfg.lang()
                t = gen_program(cfg, ty, cfg.rng(), config)
                yield f"{mode} {seed} {t!r}"
                yield f"{mode} {seed} {eval_effect(t, config)!r}"
    for x in TYPES + NODES:
        yield repr(x)


def _digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def capture():
    print(f'GOLDEN = "{_digest()}"')


def test_repr_matches_golden_digest():
    assert _digest() == GOLDEN
