"""Fuzz properties of the command line: random token streams over the
lexer's vocabulary and generated programs in both modes go through
``eval``, ``canon``, ``pure`` and ``equiv`` with themselves, the last
three and the denotational ``eval`` also under each monad of the mode and
each reward structure; none ever answers "internal error", a well-typed
program is equivalent to itself, and every term printed parses back to
an alpha-equal term."""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selcalc.cli import main
from selcalc.equations import (
    canon_rewards, canonical_term, weak_canon_prob, weak_canonical_term,
)
from selcalc.monads import make_monad
from selcalc.rewards import STRUCTURES
from selcalc.selection import denote, embed_outcome, observe, zero_gamma
from selcalc.strategies import select_program
from selcalc.syntax import (
    BOOL, App, Arrow, Lam, Prod, Program, SelSyntaxError, SelTypeError,
    _KEYWORDS, _PUNCT, alpha_eq, parse, parse_program, pretty, pretty_program,
    typecheck,
)
from selcalc.testgen import GenConfig, gen_program

TOKENS = sorted(_PUNCT) + sorted(_KEYWORDS) + [
    "tt", "ff", "x", "f", "Bool", "Rew", "Unit", "C", "a", "NonNegAdd",
    "0", "1", "-2", "1/2", "3/0", "[-]", "fun (x:Bool) ->", "+[1/3]",
]

# capsys is read after every call, so sharing it across examples is safe
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def source_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "prog.sel"


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    assert "internal error" not in out.err, (args, out.err)
    assert rc in (0, 1, 2, 3, 4)
    return rc, out.out


def canonical(term, config, monad):
    if monad == "W":
        return canonical_term(canon_rewards(term, config))
    return weak_canonical_term(weak_canon_prob(term, config, monad), monad)


def check_program(capsys, path, src, term=None):
    """Run eval, canon, pure and equiv with itself on src, and all but the
    first (eval denotationally) under each monad of its mode and each
    reward structure; when it is a well-typed program (whose source was
    printed from term, if given), check that it is equivalent to itself
    and that the program, its selected value and each canonical form
    ``canon`` prints parse back alpha-equal."""
    path.write_text(src)
    f = str(path)
    run(capsys, "eval", f)
    rc, out = run(capsys, "canon", f)
    try:
        p = parse_program(src)
        typecheck(p.term, config=p.config)
    except (SelSyntaxError, SelTypeError):
        assert term is None
        for args in (["eval", "--semantics", "denotational"], ["pure"],
                     ["equiv", f]):
            assert run(capsys, *args, f)[0] == 3
        return
    assert term is None or alpha_eq(p.term, term)
    monads = ["W"] if p.config.mode == "rewards" else ["DW", "T2", "T3"]
    for structure, monad in itertools.product(sorted(STRUCTURES), monads):
        flags = ["--structure", structure]
        run(capsys, "eval", "--semantics", "denotational", "--monad", monad,
            *flags, f)
        if monad != "W":
            flags += ["--monad", monad]
        rc_s, out_s = run(capsys, "canon", *flags, f)
        if rc_s == 0:
            q = parse_program(src, structure=STRUCTURES[structure])
            c = canonical(q.term, q.config, monad)
            assert out_s.strip() == pretty(c)
            assert alpha_eq(parse(pretty(c), q.config), c), pretty(c)
        for command in (["pure"], ["equiv", f]):
            run(capsys, *command, *flags, f)
    assert run(capsys, "equiv", f, f)[0] == 0
    printed = [p.term, canonical(p.term, p.config, monads[0])]
    if p.config.mode == "rewards":
        printed.append(select_program(p.term, p.config)[1])
    for t in printed:
        assert alpha_eq(parse(pretty(t), p.config), t), pretty(t)
    if rc == 0:
        assert out.strip() == pretty(printed[1])


@FUZZ
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=16))
def test_token_streams(capsys, source_file, tokens):
    check_program(capsys, source_file, " ".join(tokens))


@FUZZ
@given(st.integers(0, 10**6), st.sampled_from(["rewards", "prob"]),
       st.sampled_from([BOOL, Prod(BOOL, BOOL), Arrow(BOOL, BOOL)]))
def test_generated_programs(capsys, source_file, seed, mode, ty):
    cfg = GenConfig(seed=seed, max_term_size=20, mode=mode)
    config = cfg.lang()
    t = gen_program(cfg, ty, config=config)
    check_program(capsys, source_file, pretty_program(Program(config, t)), t)


@FUZZ
@given(st.integers(0, 10**6), st.sampled_from(["rewards", "prob"]),
       st.integers(1, 3))
def test_unused_lets_keep_denotation_adequate(seed, mode, lets):
    """A generated program under lets whose variables it never reads, each
    bound to a generated choice term, still denotes its operational outcome
    at the zero valuation under each monad of its mode; the lets take the
    path that shares a body ignoring its binder."""
    cfg = GenConfig(seed=seed, max_term_size=20, mode=mode)
    config, rng = cfg.lang(), cfg.rng()
    small = dataclasses.replace(cfg, max_term_size=8)
    t = gen_program(cfg, BOOL, rng, config)
    for i in range(lets):
        t = App(Lam(f"unused{i}", BOOL, t), gen_program(small, BOOL, rng, config))
    out = observe(t, config)
    for name in ["W"] if mode == "rewards" else ["DW", "T2", "T3"]:
        mon = make_monad(name, config.structure)
        got = denote(t, config, mon)(zero_gamma(config))
        assert got == embed_outcome(out, config, mon), (name, pretty(t))
