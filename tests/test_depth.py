"""Deep terms and types at the default recursion limit: the parser,
typecheck, selection, printing, free variables, substitution,
alpha-equivalence, equality, hashing and ``repr`` of terms and types,
``is_value``, ``node_tally`` and the traced machine keep explicit stacks,
so nesting depth is bounded by memory, not by Python's recursion limit.
``denote`` compiles a term in one fold, but the computations it builds
still nest once per level when they run; their current reach is pinned
so that it cannot shrink unnoticed."""

import json
import random
import sys
from dataclasses import fields
from fractions import Fraction as F

import pytest

from selcalc.cli import main
from selcalc.equations import canon_rewards, canonical_term
from selcalc.monads import make_monad
from selcalc.operational import StuckTerm, eval_effect, trace_eval
from selcalc.selection import denote, embed_outcome, zero_gamma
from selcalc.strategies import select_bruteforce, select_program
from selcalc.syntax import (
    BOOL, FF, TT, App, Arrow, Lam, Or, Pair, RewConst, SelTypeError, Star,
    Var, alpha_eq, free_vars, is_effect_value, parse_program, pretty,
    substitute, typecheck,
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


def deep_pair(leaf, n=N):
    return "<" * n + leaf + ", ff>" * n


def test_deep_product_types_compare_and_hash():
    p = parse_program(f"{deep_pair('tt')} or {deep_pair('ff')}")
    ty = typecheck(p.term, config=p.config)
    again = typecheck(parse_program(deep_pair("tt")).term)
    assert ty is not again and ty == again and hash(ty) == hash(again)
    assert ty != typecheck(parse_program(deep_pair("tt", N - 1)).term)
    assert str(ty) == "(" * N + "Bool" + " * Bool)" * N
    assert sys.getrecursionlimit() == LIMIT


def test_deep_product_types_print_in_type_errors(capsys, tmp_path):
    a, b = tmp_path / "a.sel", tmp_path / "b.sel"
    a.write_text(deep_pair("tt"))
    b.write_text(deep_pair("tt", N - 1))
    assert main(["equiv", str(a), str(b)]) == 3
    assert capsys.readouterr().err.startswith("error: type mismatch: (((")
    with pytest.raises(SelTypeError, match="or branches disagree"):
        typecheck(parse_program(
            f"{deep_pair('tt')} or {deep_pair('tt', N - 1)}").term)
    assert sys.getrecursionlimit() == LIMIT


def test_equiv_of_deep_pairs_tests_one_leaf(capsys, tmp_path):
    # the context compares only the leaf where the two values differ, so
    # it grows linearly with the pair depth
    n = 1000
    a, b = tmp_path / "a.sel", tmp_path / "b.sel"
    a.write_text(deep_pair("(1 . tt or ff)", n))
    b.write_text(deep_pair("(ff or 1 . tt)", n))
    assert main(["equiv", "--json", str(a), str(b)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert len(out["context"]) < 20 * n
    assert out["left"] != out["right"]
    assert sys.getrecursionlimit() == LIMIT


def cli(capsys, tmp_path, src, *args):
    f = tmp_path / "prog.sel"
    f.write_text(src)
    rc = main([*args, str(f)])
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out.rstrip("\n")


def test_deep_pair_values_print_at_the_cli(capsys, tmp_path):
    value = pretty(parse_program(deep_pair("tt")).term)
    both = f"{deep_pair('tt')} or {deep_pair('ff')}"
    assert cli(capsys, tmp_path, both, "eval", "--semantics", "ordinary") \
        == f"{value} or {pretty(parse_program(deep_pair('ff')).term)}"
    src = deep_pair("tt")
    assert cli(capsys, tmp_path, src, "eval") == f"reward 0, value {value}"
    assert cli(capsys, tmp_path, src, "eval", "--semantics", "ordinary") \
        == value
    assert cli(capsys, tmp_path, src, "canon") == f"0 . {value}"
    assert cli(capsys, tmp_path, src, "pure") == f"pure: {value}"
    assert sys.getrecursionlimit() == LIMIT


def test_deep_pair_atoms_sort_in_prob_mode(capsys, tmp_path):
    # the atoms sort tt's pair first, as the nested pair key orders them
    src = "mode prob; " + deep_pair("(ff +[1/3] tt)")
    tt, ff = (pretty(parse_program(deep_pair(c)).term) for c in ("tt", "ff"))
    assert cli(capsys, tmp_path, src, "eval") == (
        f"2/3: reward 0, value {tt}; 1/3: reward 0, value {ff}")
    assert cli(capsys, tmp_path, src, "canon") == (
        f"0 . {tt} +[2/3] 0 . {ff}")
    assert sys.getrecursionlimit() == LIMIT


def nested_sort_key(v):
    """The nested pair key the flat one replaces."""
    if isinstance(v, Pair):
        return (3, nested_sort_key(v.fst), nested_sort_key(v.snd))
    return v.sort_key()


def test_flat_pair_key_orders_as_the_nested_key():
    rng = random.Random(5)
    leaves = [TT, FF, Star(), RewConst(F(1)), RewConst(F(-1, 2))]

    def value(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return Pair(value(depth - 1), value(depth - 1))

    vs = [value(4) for _ in range(300)]
    assert (sorted(vs, key=lambda v: v.sort_key())
            == sorted(vs, key=nested_sort_key))
    for a, b in zip(vs, vs[1:]):
        assert ((a.sort_key() < b.sort_key())
                == (nested_sort_key(a) < nested_sort_key(b)))


def test_is_effect_value_rejects_an_application_of_a_deep_term():
    d = parse_program("1 . " * N + "tt").term
    assert not is_effect_value(Or(TT, App(d, TT)))
    assert sys.getrecursionlimit() == LIMIT


PARENS = "(" * N + "Bool * Bool" + ")" * N


@pytest.mark.parametrize("src, ty", [
    (f"fun (x:{PARENS}) -> fst x", "((Bool * Bool) -> Bool)"),
    (f"let x : {PARENS} = <tt, ff> in snd x", "Bool"),
])
def test_deep_parentheses_in_binder_types(src, ty):
    p = parse_program(src)
    assert str(typecheck(p.term, config=p.config)) == ty
    text = pretty(p.term)
    assert "(x:(Bool * Bool))" in text
    assert parse_program(text).term == p.term
    assert sys.getrecursionlimit() == LIMIT


def arrow_chain(n):
    ty = BOOL
    for _ in range(n):
        ty = Arrow(BOOL, ty)
    return ty


def test_deep_arrow_types_parse_typecheck_print_and_repr():
    ty = arrow_chain(N)
    p = parse_program(f"fun (f:{'Bool -> ' * N}Bool) -> f")
    assert p.term.ty == ty and hash(p.term.ty) == hash(ty)
    assert typecheck(p.term, config=p.config) == Arrow(ty, ty)
    assert p.term.ty != arrow_chain(N - 1)
    assert str(ty) == "(Bool -> " * N + "Bool" + ")" * N
    bool_repr = "Base(name='Bool')"
    assert repr(ty) == (f"Arrow(arg={bool_repr}, res=" * N + bool_repr
                        + ")" * N)
    assert sys.getrecursionlimit() == LIMIT


def test_repr_of_deep_terms():
    tt = "Const(name='tt', base='Bool', index=0)"
    one = "RewConst(value=Fraction(1, 1))"
    rewards = parse_program("1 . " * N + "tt").term
    assert repr(rewards) == (f"Rew(param={one}, body=" * N + tt + ")" * N)
    pairs = pair_nest(TT, N)
    assert repr(pairs) == "Pair(fst=" * N + tt + f", snd={tt})" * N
    assert sys.getrecursionlimit() == LIMIT


def test_a_stuck_deep_application_reports_its_redex():
    config = parse_program("tt").config
    with pytest.raises(StuckTerm) as err:
        eval_effect(App(TT, pair_nest(TT, N)), config)
    assert str(err.value).startswith("stuck redex App(fn=Const(name='tt'")
    assert sys.getrecursionlimit() == LIMIT


def test_canon_of_a_parenthesised_binder_type(capsys, tmp_path):
    ty = "(" * 400 + "Bool" + ")" * 400
    assert cli(capsys, tmp_path, f"(fun (x:{ty}) -> x) tt", "canon") == "0 . tt"


def test_canon_renders_a_2048_outcome_distribution(capsys, tmp_path):
    src = "mode prob;\n" + "".join(
        f"let x{i} : Unit = ({2 ** i} . * +[1/2] *) in " for i in range(11))
    dw = cli(capsys, tmp_path, src + "tt", "canon", "--monad", "DW")
    assert dw.count("+[") == 2047
    assert cli(capsys, tmp_path, src + "tt", "canon", "--monad", "T2") == \
        "2047/2 . tt"
