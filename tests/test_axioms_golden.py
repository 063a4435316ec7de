"""Golden digests of the axiom layer: instance generation, rewriting at
the root, and the equivalent pairs built from both.

Each digest is the SHA-256 of the lines ``_instance_lines``,
``_rewrite_lines`` and ``_pair_lines`` produce; a rewrite line holds the
printed result, or ``NoMatch`` when the axiom does not apply.  Drawing
under AddRationals (mixing, zero 0) and MulPositiveRationals
(non-mixing, zero 1) covers each branch that depends on the structure.

Capture recipe, run from the repository root on the code to pin:

    PYTHONPATH=src:tests python -c "import test_axioms_golden as g; g.capture()"

and paste the printed digests into ``GOLDEN``.
"""

import hashlib

import pytest

from selcalc.equations import AXIOMS, NoMatch, apply_axiom
from selcalc.rewards import ADD_RATIONALS, MUL_POSITIVE
from selcalc.syntax import BOOL, parse_program, pretty
from selcalc.testgen import (
    FIG3_AXIOMS, GenConfig, gen_axiom_instance, gen_equivalent_pair,
    gen_program,
)

SEEDS = range(60)
PROGRAMS = 200
PAIRS = 200
STRUCTURES = (ADD_RATIONALS, MUL_POSITIVE)
MODES = {"rewards": FIG3_AXIOMS, "prob": tuple(AXIOMS)}

GOLDEN = {
    "instances": "4b5685576d61fd30956cf94e1aeb2370bf7ac829346a433041cb64077e251bd7",
    "rewrites": "5618ac7d96451cf0332694d264d87e2313f864eac6f10d4e266c2cd41f7ff342",
    "pairs": "dac3361dc5234ba0b32a35b4e9ba47c3dfcda09655ae22306209ab65438206d4",
}


def _instances(st, mode):
    """(config, term) for every axiom of the mode under every seed."""
    out = []
    for name in MODES[mode]:
        for seed in SEEDS:
            cfg = GenConfig(seed=seed, mode=mode, structure=st)
            config = cfg.lang()
            out.append((name, seed, config,
                        gen_axiom_instance(name, cfg, config=config)))
    return out


def _instance_lines():
    for st in STRUCTURES:
        for mode in MODES:
            for name, seed, _, t in _instances(st, mode):
                yield f"{st.name} {mode} {name} {seed} {pretty(t)}"


def _rewrite_lines():
    for st in STRUCTURES:
        for mode in MODES:
            terms = [(c, t) for _, _, c, t in _instances(st, mode)]
            cfg = GenConfig(seed=7, mode=mode, structure=st, max_term_size=12)
            config, rng = cfg.lang(), cfg.rng()
            terms += [(config, gen_program(cfg, BOOL, rng, config))
                      for _ in range(PROGRAMS)]
            for k, (config, t) in enumerate(terms):
                for name in AXIOMS:
                    try:
                        got = pretty(apply_axiom(name, t, (), config))
                    except NoMatch:
                        got = "NoMatch"
                    yield f"{st.name} {mode} {k} {name} {got}"


def _pair_lines():
    for st in STRUCTURES:
        for mode in MODES:
            for seed in range(PAIRS):
                cfg = GenConfig(seed=seed, mode=mode, structure=st)
                a, b = gen_equivalent_pair(cfg)
                yield f"{st.name} {mode} {seed} {pretty(a)} = {pretty(b)}"


LINES = {"instances": _instance_lines, "rewrites": _rewrite_lines,
         "pairs": _pair_lines}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def capture():
    for key, lines in LINES.items():
        print(f'    "{key}": "{_digest(lines())}",')


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_axiom_layer_matches_golden_digest(key):
    assert _digest(LINES[key]()) == GOLDEN[key]


@pytest.mark.parametrize("name, src, want", [
    # a repeated metavariable binds at its leftmost occurrence, and the
    # rewrite reuses that copy
    ("r1", "(1 . (fun (a:Bool) -> a) tt) or (2 . (fun (b:Bool) -> b) tt)",
     "2 . (fun (a:Bool) -> a) tt"),
    ("or-idem", "((fun (a:Bool) -> a) tt) or ((fun (b:Bool) -> b) tt)",
     "(fun (a:Bool) -> a) tt"),
])
def test_rewrite_keeps_the_leftmost_copy(name, src, want):
    p = parse_program(src)
    assert pretty(apply_axiom(name, p.term, (), p.config)) == want
