"""Parser, printer, and typechecker behavior, including mode inference from
the file prelude."""

from fractions import Fraction as F

import pytest

from selcalc.rewards import STRUCTURES
from selcalc.syntax import (
    App, Arrow, BOOL, Base, Const, FF, Hole, If, Lam, LangConfig, Or,
    PChoice, Pair, Prod, REW, Rew, RewConst, SelSyntaxError, SelTypeError,
    TT, UNIT, Var, alpha_eq, make_dispatcher, parse_program, plug, pretty,
    substitute, type_rank, typecheck,
)
from selcalc.testgen import GenConfig, gen_program


def parse1(src, **kw):
    return parse_program(src, **kw)


def test_simple_or():
    p = parse1("(5 . tt) or (6 . ff)")
    assert p.config.mode == "rewards"
    assert p.term == Or(Rew(RewConst(F(5)), TT), Rew(RewConst(F(6)), FF))


def test_mode_inferred_from_pchoice():
    p = parse1("tt +[1/2] ff")
    assert p.config.mode == "prob"
    assert p.term == PChoice(F(1, 2), TT, FF)


def test_mode_prelude_wins_over_inference():
    p = parse1("mode prob;\ntt or ff")
    assert p.config.mode == "prob"


def test_mode_conflict_is_error():
    with pytest.raises(SelSyntaxError):
        parse1("mode rewards;\ntt +[1/2] ff")


def test_mode_flag_conflict_is_error():
    with pytest.raises((SelSyntaxError, SelTypeError)):
        parse1("mode rewards;\ntt or ff", mode="prob")


def test_base_declaration():
    p = parse1("base Coin = { heads, tails };\nheads or tails")
    assert "Coin" in p.config.bases
    assert p.config.bases["Coin"] == ("heads", "tails")
    assert typecheck(p.term, config=p.config) == Base("Coin")


def test_structure_prelude():
    p = parse1("structure MulPositiveRationals;\n(2 . tt) or (3 . ff)")
    assert p.config.structure is STRUCTURES["MulPositiveRationals"]


def test_reward_outside_structure_rejected():
    p = parse1("structure MulPositiveRationals;\n(0 . tt) or tt")
    with pytest.raises(SelTypeError):
        typecheck(p.term, config=p.config)


def test_let_sugar():
    p = parse1("let x : Bool = tt in x or ff")
    assert p.term == App(Lam("x", BOOL, Or(Var("x"), FF)), TT)


def test_typecheck_examples():
    p = parse1("(5 . tt) or (6 . ff)")
    assert typecheck(p.term, config=p.config) == BOOL
    q = parse1("<tt, 3>")
    assert typecheck(q.term, config=q.config) == Prod(BOOL, REW)


def test_typecheck_rejects_or_mismatch():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(Or(TT, RewConst(F(1))), config=cfg)


def test_typecheck_rejects_unbound():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(Var("nope"), config=cfg)


def test_pchoice_rejected_in_rewards_mode():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(PChoice(F(1, 2), TT, FF), config=cfg)


def test_type_rank():
    assert type_rank(BOOL) == 0
    assert type_rank(Prod(BOOL, BOOL)) == 0
    assert type_rank(Arrow(BOOL, BOOL)) == 1
    assert type_rank(Arrow(Arrow(BOOL, BOOL), BOOL)) == 2
    assert type_rank(UNIT) == 0


def test_plug_fills_hole():
    ctx = If(Hole(), TT, FF)
    assert plug(ctx, FF) == If(FF, TT, FF)


def test_plug_does_not_capture():
    # contexts bind variables over the hole on purpose
    ctx = App(Lam("x", BOOL, Hole()), TT)
    assert plug(ctx, Var("x")) == App(Lam("x", BOOL, Var("x")), TT)


def test_alpha_eq():
    a = Lam("x", BOOL, Var("x"))
    b = Lam("y", BOOL, Var("y"))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Lam("y", BOOL, TT))
    assert not alpha_eq(a, Lam("y", BOOL, Var("x")))


def test_pretty_parse_roundtrip_fixed():
    for src in [
        "(5 . tt) or (6 . ff)",
        "if tt == ff then 1 . tt else ff",
        "fst <tt, ff> or snd <ff, tt>",
        "(fun (x:Bool) -> 0 . x) tt",
    ]:
        p = parse1(src)
        again = parse_program(pretty(p.term), mode=p.config.mode)
        assert again.term == p.term


@pytest.mark.parametrize("mode", ["rewards", "prob"])
@pytest.mark.parametrize("seed", range(40))
def test_pretty_parse_roundtrip_generated(mode, seed):
    cfg = GenConfig(seed=seed, max_term_size=30, mode=mode)
    config = cfg.lang()
    t = gen_program(cfg, BOOL, config=config)
    p = parse_program(pretty(t), mode=mode)
    assert p.term == t


def test_parse_error_reports():
    with pytest.raises(SelSyntaxError):
        parse1("(5 . tt) or")
    with pytest.raises(SelSyntaxError):
        parse1("base Coin = heads, tails;\nheads")


def test_choice_weight_out_of_range_rejected():
    p = parse1("tt +[3/2] ff")
    with pytest.raises(SelTypeError):
        typecheck(p.term, config=p.config)


def test_dispatcher_prints_parseable_source():
    disp = make_dispatcher([TT, FF], lambda c: Rew(RewConst(F(1)), c))
    src = pretty(App(disp, TT))
    assert "%" not in src
    back = parse1(src).term
    assert alpha_eq(back, App(disp, TT))


def test_dispatcher_rejects_open_branches():
    with pytest.raises(ValueError, match="closed"):
        make_dispatcher([TT, FF], lambda c: If(Var("x"), c, FF))


def test_substitute_refuses_capture_of_an_open_value():
    # fun (y:Bool) -> z (x y), with x := y: the binder would capture y
    t = Lam("y", BOOL, App(Var("z"), App(Var("x"), Var("y"))))
    with pytest.raises(ValueError, match="binder y would capture"):
        substitute(t, "x", Var("y"))
    # a value free of y goes in
    assert substitute(t, "x", Var("w")) == Lam(
        "y", BOOL, App(Var("z"), App(Var("w"), Var("y"))))
