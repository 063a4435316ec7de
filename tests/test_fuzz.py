"""Fuzz properties of the command line: random token streams over the
lexer's vocabulary and generated programs in both modes go through
``eval``, ``canon``, ``pure`` and ``equiv`` with themselves, the last
three and the denotational ``eval`` also under each monad of the mode and
each reward structure; none ever answers "internal error", a well-typed
program is equivalent to itself, and every term printed parses back to
an alpha-equal term.  Under sampled valuations, a generated program's
denotation, shifted by the valuation, is the machine's outcome for the
program under the context that grants the valuation's rewards.  Free
variables and substitution, on generated programs and random open terms,
agree with the folds over the whole term that ``tests/smallstep.py``
keeps as their reference."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selcalc.cli import main
from selcalc.equations import (
    canon_rewards, canonical_term, weak_canon_prob, weak_canonical_term,
)
from selcalc.monads import k_gamma, make_monad
from selcalc.rewards import STRUCTURES
from selcalc.selection import (
    denote, embed_outcome, gamma_from_table, kappa_term, observe, zero_gamma,
)
from selcalc.strategies import select_program
from selcalc.syntax import (
    BOOL, FF, TT, App, Arrow, Fst, If, Lam, Or, Pair, Prod, Program, Rew,
    RewConst, SelSyntaxError, SelTypeError, Star, Var, _KEYWORDS, _PUNCT,
    alpha_eq, fold_term, free_vars, nodes, parse, parse_program, pretty,
    pretty_program, substitute, typecheck,
)
from selcalc.testgen import GenConfig, gamma_tables, gen_program
from smallstep import (
    free_vars as reference_free_vars, substitute as reference_substitute,
)

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
       st.integers(1, 3),
       st.sampled_from([BOOL, Arrow(BOOL, BOOL), Prod(BOOL, Arrow(BOOL, BOOL))]))
def test_unused_lets_keep_denotation_adequate(seed, mode, lets, ty):
    """A generated program under lets whose variables it never reads, each
    bound to a generated choice term, still denotes its operational outcome
    at the zero valuation under each monad of its mode, at function types
    too, where a function value is its closure; the lets take the path
    that shares a body ignoring its binder."""
    cfg = GenConfig(seed=seed, max_term_size=20, mode=mode)
    config, rng = cfg.lang(), cfg.rng()
    small = dataclasses.replace(cfg, max_term_size=8)
    t = gen_program(cfg, ty, rng, config)
    for i in range(lets):
        t = App(Lam(f"unused{i}", BOOL, t), gen_program(small, BOOL, rng, config))
    out = observe(t, config)
    for name in ["W"] if mode == "rewards" else ["DW", "T2", "T3"]:
        mon = make_monad(name, config.structure)
        got = denote(t, config, mon)(zero_gamma(config))
        assert got == embed_outcome(out, config, mon), (name, pretty(t))


def capturing_binders(t, var, val):
    """The variables of the binders of t, in preorder, that bind a free
    variable of val and have a free occurrence of var under them."""
    capture, found = reference_free_vars(val), []

    def bind(lam, env):
        if (lam.var in capture and lam.var != var and var not in env
                and var in reference_free_vars(lam.body)):
            found.append(lam.var)
        return lam.ty

    fold_term(t, lambda s, kids, env: None, bind)
    return found


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_denotation_is_adequate_under_sampled_valuations(seed, mode):
    """Under each of six sampled valuations gamma, the denotation of a
    generated program, shifted by gamma, equals the operational outcome of
    the program under the context that grants gamma's rewards, in each
    monad of the mode: the denotation at a nonzero valuation is checked
    against the machine, not only against another denotation."""
    cfg = GenConfig(seed=seed, max_term_size=25, mode=mode)
    config = cfg.lang()
    m = gen_program(cfg, BOOL, config=config)
    consts = config.constants_of("Bool")
    monads = [make_monad(name, config.structure)
              for name in (["W"] if mode == "rewards" else ["DW", "T2", "T3"])]
    for table in gamma_tables("Bool", config, count=6, seed=seed):
        gamma = gamma_from_table(table, config)
        out = observe(App(kappa_term(consts, table), m), config)
        for mon in monads:
            got = k_gamma(gamma, denote(m, config, mon)(gamma), mon)
            assert got == embed_outcome(out, config, mon), (
                mon.name, table, pretty(m))


def check_substitution(t, var, val):
    """free_vars and substitute agree with the folds over the whole term in
    tests/smallstep.py; substitute refuses exactly where var occurs under
    a capturing binder, naming the first, and returns t itself when var
    is not free in it."""
    assert free_vars(t) == reference_free_vars(t)
    binders = capturing_binders(t, var, val)
    try:
        got = substitute(t, var, val)
    except ValueError as e:
        assert binders and f"binder {binders[0]} would capture" in str(e)
        with pytest.raises(ValueError, match="would capture"):
            reference_substitute(t, var, val)
        return
    assert not binders
    assert got == reference_substitute(t, var, val, check_capture=False)
    if var not in reference_free_vars(t):
        assert got is t
    assert free_vars(got) == reference_free_vars(got)


NAMES = ("x", "y", "z")


def open_term(rng, depth):
    """A random term over the variables x, y and z, with binders of them."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var(n) for n in NAMES] + [TT, FF, Star()])
    cls, arity = rng.choice([(App, 2), (Pair, 2), (Or, 2), (If, 3), (Fst, 1),
                             (Lam, 1), (Rew, 1)])
    kids = [open_term(rng, depth - 1) for _ in range(arity)]
    if cls is Lam:
        return Lam(rng.choice(NAMES), BOOL, *kids)
    if cls is Rew:
        return Rew(RewConst(1), *kids)
    return cls(*kids)


@FUZZ
@given(st.integers(0, 10**6))
def test_substitution_matches_the_fold_on_open_terms(seed):
    rng = random.Random(seed)
    t = open_term(rng, 6)
    vals = [TT, Var("y"), Pair(Var("y"), Var("z")),
            Lam("y", BOOL, Var("x")), open_term(rng, 3)]
    for var, val in itertools.product(NAMES, vals):
        check_substitution(t, var, val)
        # again, reading the sets the first pass left on t's nodes
        check_substitution(t, var, val)


@FUZZ
@given(st.integers(0, 10**6), st.sampled_from(["rewards", "prob"]))
def test_substitution_matches_the_fold_on_generated_programs(seed, mode):
    cfg = GenConfig(seed=seed, max_term_size=30, mode=mode)
    config = cfg.lang()
    t = gen_program(cfg, BOOL, cfg.rng(), config)
    lams = [s for s in nodes(t) if type(s) is Lam]
    names = sorted({lam.var for lam in lams})
    vals = [TT, gen_program(cfg, Arrow(BOOL, BOOL), cfg.rng(), config)]
    vals += [Var(n) for n in names[:2]] + [Pair(Var(n), TT) for n in names[-1:]]
    for var in names[:3] + ["unused"]:
        for val in vals:
            check_substitution(t, var, val)
    # the beta-step's substitutions, into bodies whose sets t's walk left
    for lam in lams:
        for val in vals:
            check_substitution(lam.body, lam.var, val)
