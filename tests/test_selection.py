"""Denotational semantics in the selection monad, its agreement with the
operational selection outcome, and reward-shifting contexts."""

from fractions import Fraction as F

import pytest

from selcalc.monads import (
    DWMonad, Dist, WMonad, atoms, make_monad, t2val, k_gamma,
)
from selcalc.selection import (
    ConstElem, FnElem, agree_at, denote, embed_outcome, gamma_from_table,
    kappa_term, observe, read_back, zero_gamma,
)
from selcalc.syntax import (
    App, BOOL, TT, Hole, Lam, Pair, parse_program, pretty, typecheck,
)
from selcalc.testgen import GenConfig, default_gammas, gamma_tables, gen_program

E1 = "(5 . tt) or (6 . ff)"
E2 = "mode prob;\n(1 . tt) +[1/2] ((2 . ff) +[2/5] (3 . tt))"


def den(src, monad_name, gamma=None):
    p = parse_program(src)
    mon = make_monad(monad_name, p.config.structure)
    g = gamma if gamma is not None else zero_gamma(p.config)
    return denote(p.term, p.config, mon)(g), p.config


def test_e1_w_denotation():
    got, cfg = den(E1, "W")
    assert got == (F(6), ConstElem("ff", "Bool", 1))


def test_e1_gamma_can_flip_choice():
    p = parse_program(E1)
    g = gamma_from_table({"tt": F(2), "ff": F(0)}, p.config)
    mon = make_monad("W", p.config.structure)
    # tt is worth 5+2=7 > 6 here, but the outcome carries the program's
    # own reward; the valuation only steers the choice
    assert denote(p.term, p.config, mon)(g) == (F(5), ConstElem("tt", "Bool", 0))


def test_e2_dw_denotation():
    tt, ff = ConstElem("tt", "Bool", 0), ConstElem("ff", "Bool", 1)
    got, _ = den(E2, "DW")
    assert got == Dist([(F(1, 2), (F(1), tt)), (F(1, 5), (F(2), ff)),
                        (F(3, 10), (F(3), tt))])


def test_e2_t2_denotation():
    tt, ff = ConstElem("tt", "Bool", 0), ConstElem("ff", "Bool", 1)
    got, _ = den(E2, "T2")
    dist = Dist([(F(4, 5), tt), (F(1, 5), ff)])
    assert got == t2val(dist, {tt: F(7, 4), ff: F(2)})


def test_e2_t3_denotation():
    tt, ff = ConstElem("tt", "Bool", 0), ConstElem("ff", "Bool", 1)
    got, _ = den(E2, "T3")
    assert got == t2val(Dist([(F(4, 5), tt), (F(1, 5), ff)]), lambda _: F(9, 5))


def test_embed_outcome_ground_pair():
    p = parse_program("<tt, 2>")
    mon = make_monad("W", p.config.structure)
    _, v = embed_outcome(observe(p.term, p.config), p.config, mon)
    assert v.fst == ConstElem("tt", "Bool", 0)
    assert v.snd.value == F(2)


def fn_elems(u, monad_name):
    """The function values a monad value holds, also inside pairs, keyed
    by their read-back."""
    found, work = {}, [x for _, _, x in atoms(u, monad_name)]
    while work:
        x = work.pop()
        if type(x) is FnElem:
            found[x] = x
        elif type(x) is Pair:
            work += [x.fst, x.snd]
    return found


FN_PROB = ("mode prob; (fun (x:Bool) -> 1 . x) +[1/2] "
           "(fun (y:Bool) -> (3 . ff) or y)")


@pytest.mark.parametrize("src,monad_name", [
    ("fun (x:Bool) -> 1 . x", "W"),
    ("<fun (x:Bool) -> (2 . x) or (1 . ff), tt>", "W"),
    ("let k : Rew = 1 or 2 in fun (x:Bool) -> k . x", "W"),
    (FN_PROB, "DW"), (FN_PROB, "T2"), (FN_PROB, "T3"),
])
@pytest.mark.parametrize("table", [None, {"ff": F(5)}])
def test_embedded_function_applies_like_denoted(src, monad_name, table):
    p = parse_program(src)
    mon = make_monad(monad_name, p.config.structure)
    zero = zero_gamma(p.config)
    gamma = zero if table is None else gamma_from_table(table, p.config)
    embedded = fn_elems(
        embed_outcome(observe(p.term, p.config), p.config, mon), monad_name)
    denoted = fn_elems(denote(p.term, p.config, mon)(zero), monad_name)
    assert embedded and embedded.keys() == denoted.keys()
    for f in embedded:
        assert embedded[f].fn(TT)(gamma) == denoted[f].fn(TT)(gamma), \
            pretty(read_back(f))


def test_observe_matches_denotation_at_zero():
    for src in [E1, "1 . ((2 . tt) or (2 . ff))",
                "if (tt or ff) == tt then 3 . tt else ff"]:
        p = parse_program(src)
        mon = make_monad("W", p.config.structure)
        lhs = denote(p.term, p.config, mon)(zero_gamma(p.config))
        rhs = embed_outcome(observe(p.term, p.config), p.config, mon)
        assert lhs == rhs


@pytest.mark.parametrize("monad_name", ["DW", "T2", "T3"])
def test_observe_matches_denotation_prob(monad_name):
    p = parse_program(E2)
    mon = make_monad(monad_name, p.config.structure)
    lhs = denote(p.term, p.config, mon)(zero_gamma(p.config))
    rhs = embed_outcome(observe(p.term, p.config), p.config, mon)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("mode,monad_name",
                         [("rewards", "W"), ("prob", "DW"),
                          ("prob", "T2"), ("prob", "T3")])
def test_adequacy_random(seed, mode, monad_name):
    cfg = GenConfig(seed=seed, max_term_size=35, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad_name, config.structure)
    m = gen_program(cfg, BOOL, config=config)
    lhs = denote(m, config, mon)(zero_gamma(config))
    rhs = embed_outcome(observe(m, config), config, mon)
    assert lhs == rhs, pretty(m)


def test_gamma_tables_deterministic_replay():
    p = parse_program("tt")
    got = gamma_tables("Bool", p.config, count=4, seed=7)
    assert got == [
        {"tt": F(0), "ff": F(0)},
        {"tt": F(2), "ff": F(-1)},
        {"tt": F(3), "ff": F(-1, 3)},
        {"tt": F(-3), "ff": F(-2)},
    ]
    assert got[0] == {"tt": F(0), "ff": F(0)}, "zero table leads every batch"


def test_kappa_term_shifts_rewards():
    # applying the dispatcher at gamma equals adding gamma pointwise
    p = parse_program(E1)
    table = {"tt": F(2), "ff": F(0)}
    gam = gamma_from_table(table, p.config)
    mon = make_monad("W", p.config.structure)
    kap = kappa_term(p.config.constants_of("Bool"), table)
    lhs = k_gamma(gam, denote(p.term, p.config, mon)(gam), mon)
    rhs = denote(App(kap, p.term), p.config, mon)(zero_gamma(p.config))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("mode,monad_name", [("rewards", "W"), ("prob", "DW")])
def test_kappa_square_random(seed, mode, monad_name):
    cfg = GenConfig(seed=seed, max_term_size=20, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad_name, config.structure)
    e = gen_program(cfg, BOOL, config=config)
    table = gamma_tables("Bool", config, count=2, seed=seed + 100)[1]
    gam = gamma_from_table(table, config)
    kap = kappa_term(config.constants_of("Bool"), table)
    lhs = k_gamma(gam, denote(e, config, mon)(gam), mon)
    rhs = denote(App(kap, e), config, mon)(zero_gamma(config))
    assert lhs == rhs, pretty(e)


def test_agree_at_on_equivalent_pair():
    a = parse_program("(2 . tt) or (2 . tt)")
    b = parse_program("2 . tt")
    mon = make_monad("W", a.config.structure)
    gs = default_gammas(a.term, b.term, a.config, count=32, seed=3)
    assert agree_at(a.term, b.term, a.config, mon, gs)


def test_agree_at_detects_difference():
    a = parse_program("(2 . tt) or (2 . tt)")
    c = parse_program("tt or ff")
    mon = make_monad("W", a.config.structure)
    gs = default_gammas(a.term, c.term, a.config, count=32, seed=3)
    assert not agree_at(a.term, c.term, a.config, mon, gs)


def test_constant_renaming_commutes_with_selection():
    # swapping the two booleans everywhere maps the outcome accordingly
    from selcalc.syntax import Const
    from selcalc.strategies import select_program
    p = parse_program("(5 . tt) or ((6 . ff) or tt)")
    swapped = parse_program("(5 . ff) or ((6 . tt) or ff)").term
    tt, ff = Const("tt", "Bool", 0), Const("ff", "Bool", 1)
    r1, v1 = select_program(p.term, p.config)
    r2, v2 = select_program(swapped, p.config)
    assert r1 == r2
    assert {v1, v2} == {tt, ff}


def test_sel_bind_runs_each_continuation_once_per_valuation():
    from collections import Counter
    from selcalc.selection import TT_ELEM, FF_ELEM, sel_bind, sel_or, sel_unit
    mon = make_monad("W", parse_program("tt").config.structure)
    calls = Counter()

    def k(x):
        calls[x] += 1
        return sel_unit(mon, x)

    either = sel_or(mon, sel_unit(mon, TT_ELEM), sel_unit(mon, FF_ELEM))
    f = sel_bind(mon, either, k)
    gamma = gamma_from_table({"ff": F(1)}, parse_program("tt").config)
    assert f(gamma) == (F(0), FF_ELEM)
    assert calls == {TT_ELEM: 1, FF_ELEM: 1}
    # the memo lives for one run: a second valuation calls k afresh
    assert f(zero_gamma(parse_program("tt").config)) == (F(0), TT_ELEM)
    assert calls == {TT_ELEM: 2, FF_ELEM: 2}
    # a k that ignores x returns one computation, which each run runs once
    runs = []

    def shared(g):
        runs.append(g)
        return either(g)

    h = sel_bind(mon, either, lambda x: shared)
    assert h(gamma) == (F(0), FF_ELEM) and len(runs) == 1
    assert h(zero_gamma(parse_program("tt").config)) == (F(0), TT_ELEM)
    assert len(runs) == 2


# a level of a let chain; only x0 is read, so every later level's body
# ignores its binder
CHAIN_LEVELS = {
    "W": "let x{i} : Bool = ({a} . tt) or ({b} . ff) in ",
    "DW": "let x{i} : Bool = ({a} . tt) +[1/3] ({b} . ff) in ",
}


@pytest.mark.parametrize("monad_name", ["W", "DW"])
def test_denote_shares_bodies_that_ignore_their_binder(monad_name):
    # each body that ignores its binder runs once per valuation, not once
    # per value of the binder, so the work grows linearly with the chain
    base = {"W": WMonad, "DW": DWMonad}[monad_name]

    class Counting(base):
        binds = 0

        def bind(self, u, f):
            self.binds += 1
            return super().bind(u, f)

    counts = []
    for n in (8, 16):
        src = "" if monad_name == "W" else "mode prob; "
        src += "".join(CHAIN_LEVELS[monad_name].format(
            i=i, a=1 + i % 3, b=3 - (2 * i) % 3) for i in range(n)) + "x0"
        p = parse_program(src)
        mon = Counting(p.config.structure)
        got = denote(p.term, p.config, mon)(zero_gamma(p.config))
        counts.append(mon.binds)
        assert got == embed_outcome(observe(p.term, p.config), p.config, mon)
    assert counts[1] <= 2.5 * counts[0], counts


def test_agree_at_compiles_each_program_once(monkeypatch):
    import selcalc.selection
    real, calls = selcalc.selection.fold_term, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(selcalc.selection, "fold_term", counting)
    m = parse_program("let f : Bool -> Bool = fun (x:Bool) -> (1 . x) or ff in"
                      " f (f (f tt))")
    n = parse_program("let g : Bool -> Bool = fun (y:Bool) -> if y then 2 . ff"
                      " else y in g (g (g (g ff)))")
    config, mon = m.config, make_monad("W", m.config.structure)
    gammas = [gamma_from_table(w, config)
              for w in gamma_tables("Bool", config, 64)]
    assert len(gammas) == 64
    agree_at(m.term, n.term, config, mon, gammas)
    assert calls == [m.term, n.term]


def test_a_hole_fails_only_when_its_computation_is_built():
    config = parse_program("tt").config
    mon = make_monad("W", config.structure)
    fn = denote(Lam("x", BOOL, Hole()), config, mon)(zero_gamma(config))[1]
    pair = denote(Pair(TT, Hole()), config, mon)
    for run in (lambda: fn.fn(TT), lambda: pair(zero_gamma(config))):
        with pytest.raises(ValueError, match="cannot denote Hole"):
            run()


def counting_binds(base):
    class Counting(base):
        binds = 0

        def bind(self, u, f):
            self.binds += 1
            return super().bind(u, f)
    return Counting


ONES, TWOS = " + ".join(["1"] * 30), " + ".join(["2"] * 20)


@pytest.mark.parametrize("src", [
    f"({ONES}) . tt or ({TWOS}) . ff",
    f"let y : Bool = ({ONES}) . tt in (y or (2 . ff))",
    f"mode prob; ({ONES}) . tt +[1/2] ((2 . ff) or (3 . tt))",
])
def test_valuations_rerun_only_the_choices(src):
    # a fragment with no choice has one value under every valuation, so
    # 64 valuations cost about what one does, not 64 times as much
    p = parse_program(src)
    base = WMonad if p.config.mode == "rewards" else DWMonad
    gammas = [gamma_from_table(w, p.config)
              for w in gamma_tables("Bool", p.config, 64)]
    binds = []
    for gs in (gammas[:1], gammas):
        mon = counting_binds(base)(p.config.structure)
        assert agree_at(p.term, p.term, p.config, mon, gs)
        binds.append(mon.binds)
    assert binds[1] < 4 * binds[0], binds


@pytest.mark.parametrize("src", [
    "<1 . tt, (fun (x:Bool) -> 2 . x) ff>",
    "let f : Bool -> Bool = fun (x:Bool) -> if x then 1 . ff else tt in f (f tt)",
    "mode prob; (1 . tt) +[1/3] snd <ff, 2 . tt>",
])
def test_a_program_without_choice_never_reads_its_continuation(src):
    def gamma(x):
        raise AssertionError(f"continuation read at {x!r}")

    p = parse_program(src)
    for name in ["W"] if p.config.mode == "rewards" else ["DW", "T2", "T3"]:
        mon = make_monad(name, p.config.structure)
        d = denote(p.term, p.config, mon)
        assert d(gamma) == d(zero_gamma(p.config)) == d(gamma)


def test_an_error_without_choice_raises_on_every_run():
    # a reward outside the structure fails when a run first reaches it,
    # not when the denotation is built, and no run keeps the failure
    from selcalc.rewards import STRUCTURES
    from selcalc.syntax import LangConfig, Rew, RewConst
    config = LangConfig(structure=STRUCTURES["NonNegAdd"])
    mon = make_monad("W", config.structure)
    d = denote(Pair(TT, Rew(RewConst(F(-1)), TT)), config, mon)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a NonNegAdd reward"):
            d(zero_gamma(config))
