"""Deep terms at the default recursion limit: the parser, typecheck,
selection, printing, free variables, substitution, alpha-equivalence,
term equality and hashing, ``is_value``, ``node_tally`` and the traced
machine keep explicit stacks, so nesting depth is bounded by memory, not
by Python's recursion limit.
``denote`` still recurses once per level; its current reach is pinned so
that it cannot shrink unnoticed."""

import sys
from dataclasses import fields

import pytest

from selcalc.equations import canon_rewards, canonical_term
from selcalc.monads import make_monad
from selcalc.operational import trace_eval
from selcalc.selection import denote, embed_outcome, zero_gamma
from selcalc.strategies import select_bruteforce, select_program
from selcalc.syntax import (
    BOOL, FF, TT, Lam, Or, Pair, Var, alpha_eq, free_vars,
    parse_program, pretty, substitute, typecheck,
)
from selcalc.testgen import node_tally

LIMIT = sys.getrecursionlimit()
N = 5000

FAMILIES = {
    "parentheses": "(" * N + "tt" + ")" * N,
    "application": "let f : Bool -> Bool = fun (x:Bool) -> if x then 1 . ff "
                   "else 2 . tt in " + "f (" * N + "tt" + ")" * N,
    "stacked-reward": "1 . " * N + "tt",
    "or-chain": " or ".join(f"{i % 3} . {'tt' if i % 2 else 'ff'}"
                            for i in range(N)),
}


# three of the families with their deepest leaf changed, and the fields
# of the root node
CHANGED = {
    "application": (FAMILIES["application"].replace("tt)", "ff)", 1),
                    ["fn", "arg"]),
    "stacked-reward": ("1 . " * N + "ff", ["param", "body"]),
    "or-chain": (FAMILIES["or-chain"].replace("ff", "tt", 1),
                 ["left", "right"]),
}


@pytest.mark.parametrize("name", CHANGED)
def test_deep_terms_compare_and_hash(name):
    s, t = (parse_program(FAMILIES[name]).term for _ in range(2))
    assert s is not t and s == t and hash(s) == hash(t)
    changed, names = CHANGED[name]
    u = parse_program(changed).term
    assert s != u and u != s
    assert [f.name for f in fields(s)] == names
    assert sys.getrecursionlimit() == LIMIT


@pytest.mark.parametrize("name", FAMILIES)
def test_deep_family_round_trips(name):
    p = parse_program(FAMILIES[name])
    assert typecheck(p.term, config=p.config) == BOOL
    reward, value = select_program(p.term, p.config)
    assert value in (TT, FF)
    q = parse_program(pretty(p.term))
    assert alpha_eq(q.term, p.term)
    assert sys.getrecursionlimit() == LIMIT


def test_deep_pair_nest_round_trips():
    # <<...<(tt or ff), 1 . ff>..., 1 . ff>: every level asks is_value
    p = parse_program("<" * N + "tt or ff" + ", 1 . ff>" * N)
    best = select_program(p.term, p.config)
    assert best[0] == N
    assert select_bruteforce(p.term, p.config)[0] == N
    q = parse_program(pretty(p.term))
    assert alpha_eq(q.term, p.term)
    c = canonical_term(canon_rewards(p.term, p.config))
    assert alpha_eq(parse_program(pretty(c)).term, c)
    assert sys.getrecursionlimit() == LIMIT


def pair_nest(t, n):
    for _ in range(n):
        t = Pair(t, TT)
    return t


def test_trace_of_a_deep_pair_nest():
    # the reference relation decomposes this from the root: the root, then
    # each branch of the or with the whole context plugged around it
    t = pair_nest(Or(TT, FF), N)
    want = [(0, pretty(t)), (1, pretty(pair_nest(TT, N))),
            (1, pretty(pair_nest(FF, N)))]
    got = [(d, pretty(s)) for d, s in trace_eval(t, parse_program("tt").config)]
    assert got == want
    assert sys.getrecursionlimit() == LIMIT


def test_node_tally_on_a_long_or_chain():
    # tt or ... or tt, left-nested: counting walks no paths, so its time
    # grows linearly with the depth
    t = TT
    for _ in range(4 * N - 1):
        t = Or(t, TT)
    assert node_tally(t) == {"Or": 4 * N - 1, "Const": 4 * N}
    assert sys.getrecursionlimit() == LIMIT


def nested_lambdas(n):
    """fun (x0:Bool) -> <y, fun (x1:Bool) -> ... x0>, names reused mod 7."""
    t = Var("x0")
    for i in reversed(range(n)):
        t = Lam(f"x{i % 7}", BOOL, Pair(Var("y"), t) if i % 2 else t)
    return t


def test_deep_lambdas_free_vars_substitute_alpha_eq():
    t = nested_lambdas(N)
    assert free_vars(t) == {"y"}
    s = substitute(t, "y", TT)
    assert free_vars(s) == frozenset()
    assert alpha_eq(t, t) and not alpha_eq(t, s)
    assert alpha_eq(substitute(t, "y", Var("z")),
                    substitute(nested_lambdas(N), "y", Var("z")))
    assert sys.getrecursionlimit() == LIMIT


def test_substitute_returns_what_it_does_not_change():
    t = nested_lambdas(N)
    assert substitute(t, "w", TT) is t
    s = substitute(Pair(t, Var("w")), "w", TT)
    assert s.fst is t and s.snd is TT


def test_substitute_refuses_a_capturing_binder():
    x, y, z = Var("x"), Var("y"), Var("z")
    inner = Lam("y", BOOL, Pair(x, y))
    shadowed = Lam("x", BOOL, Lam("z", BOOL, x))
    t = Lam("y", BOOL, Pair(inner, shadowed))
    with pytest.raises(ValueError, match="binder y "):
        substitute(t, "x", Pair(y, z))
    # under a binder of the substituted variable nothing is captured
    assert substitute(shadowed, "x", Pair(y, z)) == shadowed


def test_closed_substitution_draws_no_fresh_names():
    t = Lam("y", BOOL, Pair(Var("x"), Lam("x", BOOL, Var("x"))))
    assert substitute(t, "x", Lam("y", BOOL, Var("y"))) == Lam(
        "y", BOOL, Pair(Lam("y", BOOL, Var("y")), Lam("x", BOOL, Var("x"))))


@pytest.mark.parametrize("src", [
    "1 . " * 100 + "tt",
    "let f : Bool -> Bool = fun (x:Bool) -> 1 . x in " + "f (" * 100 + "tt"
    + ")" * 100,
])
def test_denote_reaches_depth_100(src):
    p = parse_program(src)
    mon = make_monad("W", p.config.structure)
    u = denote(p.term, p.config, mon)(zero_gamma(p.config))
    assert u == embed_outcome(select_program(p.term, p.config), p.config, mon)
