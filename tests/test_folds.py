"""The effect-value fold and the generic term walk, checked on deep terms at
the default recursion limit, plus the names the package exports."""

import inspect
import sys
from fractions import Fraction as F

import pytest

import selcalc
from selcalc import equations, syntax
from selcalc.equations import (
    canon_rewards, decide_pure_prob, decide_pure_rewards, weak_canon_prob,
)
from selcalc.monads import Dist, mr_of_effect, mrval
from selcalc.strategies import (
    outcomes, select_bruteforce, select_fast, select_program, strategy_count,
)
from selcalc.syntax import (
    App, FF, FnApp, Hole, LangConfig, Lam, Or, Pair, PChoice, Rew, RewConst,
    TT, Var, BOOL, fold_effect, is_effect_value, parse_program, plug,
    pretty, replace_at, subterm_at,
)

REWARDS = LangConfig()
PROB = LangConfig(mode="prob")
DEEP = 5000


def _or_chain(n):
    """A left-nested n-way or; branch i carries reward i and tt or ff by
    parity, so the last branch (ff for even n) wins."""
    t = Rew(RewConst(F(0)), TT)
    for i in range(1, n):
        t = Or(t, Rew(RewConst(F(i)), (TT, FF)[i % 2]))
    return t


def _rew_chain(n):
    t = PChoice(F(1, 2), TT, FF)
    for _ in range(n):
        t = Rew(RewConst(F(1)), t)
    return t


### fold_effect

def test_fold_effect_visits_left_before_right():
    e = Or(Rew(RewConst(F(2)), TT), PChoice(F(1, 3), FF, Pair(TT, FF)))
    seen = []

    def leaf(v):
        seen.append(v)
        return ("v", v)

    got = fold_effect(e, leaf, lambda a, b: ("or", a, b),
                      lambda c, b: ("rew", c, b), lambda p, a, b: ("pc", p, a, b))
    assert seen == [TT, FF, Pair(TT, FF)]
    assert got == ("or", ("rew", F(2), ("v", TT)),
                   ("pc", F(1, 3), ("v", FF), ("v", Pair(TT, FF))))


def _count(*_):
    return 1


@pytest.mark.parametrize("e", [
    Or(TT, Var("x")),
    Rew(FnApp("+", (RewConst(F(1)), RewConst(F(1)))), TT),
    Or(TT, App(Lam("x", BOOL, Var("x")), TT)),
])
def test_fold_effect_rejects_other_nodes(e):
    with pytest.raises(ValueError, match="not an effect value"):
        fold_effect(e, _count, _count, _count, _count)
    assert not is_effect_value(e)


def test_fold_effect_without_pchoice_rejects_it():
    e = Rew(RewConst(F(1)), PChoice(F(1, 2), TT, FF))
    with pytest.raises(ValueError, match="not an effect value"):
        fold_effect(e, _count, _count, _count)
    assert fold_effect(e, _count, _count, lambda c, n: n,
                       lambda p, m, n: m + n) == 2


def _subtree(mode):
    if mode == "prob":
        return PChoice(F(1, 3), Rew(RewConst(F(2)), TT),
                       Or(FF, Rew(RewConst(F(1)), TT)))
    return Or(Rew(RewConst(F(2)), TT), Or(FF, Rew(RewConst(F(1)), TT)))


@pytest.mark.parametrize("config", [REWARDS, PROB], ids=["rewards", "prob"])
def test_shared_subtrees_fold_like_a_tree(config):
    # Or(Or(x, y), x) with x one object: its fold is reused, so a callback
    # that changed its arguments would change what the second x reads
    x, y = _subtree(config.mode), Rew(RewConst(F(3)), FF)
    dag = Or(Or(x, y), x)
    tree = Or(Or(_subtree(config.mode), y), _subtree(config.mode))
    assert dag.right is dag.left.left and tree.right is not tree.left.left

    def show(e):
        return fold_effect(e, lambda v: ("v", v), lambda a, b: ("or", a, b),
                           lambda c, b: ("rew", c, b),
                           lambda p, a, b: ("pc", p, a, b))

    assert show(dag) == show(tree)
    assert outcomes(dag, config) == outcomes(tree, config)
    assert select_fast(dag, config) == select_fast(tree, config)
    assert strategy_count(dag) == strategy_count(tree)
    canon = canon_rewards if config.mode == "rewards" else weak_canon_prob
    assert canon(dag, config) == canon(tree, config)
    assert pretty(dag) == pretty(tree)


def test_outcomes_of_a_deep_or_chain_keep_strategy_order():
    # a left-nested chain: each or pairs its sides' folds, flattened once
    assert outcomes(_or_chain(DEEP), REWARDS) == [
        (F(i), (TT, FF)[i % 2]) for i in range(DEEP)]


### the term walk

def test_plug_fills_every_hole():
    ctx = Pair(Hole(), Or(Hole(), FF))
    assert plug(ctx, TT) == Pair(TT, Or(TT, FF))


### deep terms at the default recursion limit

def test_effect_folds_on_a_deep_or_chain():
    assert DEEP > sys.getrecursionlimit()
    e = _or_chain(DEEP)
    assert is_effect_value(e)
    assert strategy_count(e) == DEEP
    assert select_fast(e, REWARDS) == (F(DEEP - 1), FF)
    assert mr_of_effect(e) == mrval({TT: F(DEEP - 2), FF: F(DEEP - 1)})
    assert canon_rewards(e, REWARDS) == [(F(DEEP - 2), TT), (F(DEEP - 1), FF)]
    assert decide_pure_rewards(e, REWARDS) is None
    bottom = (0,) * (DEEP - 1)
    assert subterm_at(e, bottom) == Rew(RewConst(F(0)), TT)
    assert not is_effect_value(replace_at(e, bottom, Var("x")))


def test_bruteforce_on_a_deep_or_chain():
    e = _or_chain(3000)
    assert select_bruteforce(e, REWARDS) == select_fast(e, REWARDS) == (F(2999), FF)


def test_prob_canon_and_purity_on_a_deep_reward_chain():
    e = _rew_chain(DEEP)
    half = F(1, 2)
    assert weak_canon_prob(e, PROB) == [
        Dist([(half, (F(DEEP), TT)), (half, (F(DEEP), FF))])]
    res = decide_pure_prob(e, PROB)
    assert res.constant is None
    assert res.witness == {"tt": F(0), "ff": F(0)}


def test_long_sum_parses_and_selects():
    p = parse_program("(" + " + ".join(["1"] * DEEP) + ") . tt")
    assert p.config.mode == "rewards"
    assert select_program(p.term, p.config) == (F(DEEP), TT)


### the package's names

EXPORTS = """
    ConditionCUnavailable DEFAULT_STRUCTURE RewardStructure STRUCTURES
    parse_reward App Arrow BOOL Base Const FF FnApp Fst Hole If Lam
    LangConfig Or PChoice Pair Prod Program REW Rew RewConst SelSyntaxError
    SelTypeError Snd Star TT Term Type UNIT Var alpha_eq is_effect_value
    is_value parse_program plug pretty type_rank typecheck BudgetExceeded
    DEFAULT_BUDGET StuckTerm eval_effect trace_eval StrategyCapExceeded
    argmax max_by select_bruteforce select_fast select_program
    Dist MRVal atom_key cond_reward expect0 k_gamma make_monad
    mr_of_effect mrval t2val theta vdis ConstElem FnElem PairElem RewElem
    UnitElem agree_at denote embed_outcome gamma_from_table
    kappa_term observe zero_gamma AXIOMS NoMatch PurityResult apply_axiom
    canon_equal canon_rewards canonical_term decide_equiv_prob
    decide_equiv_rewards decide_pure_prob decide_pure_rewards
    distinguish_rewards replace_at rewards_impurity_witness subterm_at
    weak_canon_prob weak_canonical_term FIG3_AXIOMS FIG4_AXIOMS GenConfig
    default_gammas gamma_tables gen_axiom_instance gen_effect_value
    gen_equivalent_pair gen_kleisli gen_monad_value gen_program
    gen_tie_effect or_swap main run_suite suites
""".split()


# The parameter names of every exported function and class, in EXPORTS
# order, so that a parameter no caller sets does not come back unnoticed.
# Exception classes take any arguments and are left out.
SIGNATURES = """
RewardStructure(name, zero, add, contains, condition_c, mixing, gathering)
parse_reward(text)
App(fn, arg)
Arrow(arg, res)
Base(name)
Const(name, base, index)
FnApp(sym, args, weight)
Fst(arg)
Hole()
If(cond, then, els)
Lam(var, ty, body)
LangConfig(mode, bases, structure)
Or(left, right)
PChoice(weight, left, right)
Pair(fst, snd)
Prod(fst, snd)
Program(config, term)
Rew(param, body)
RewConst(value)
Snd(arg)
Star()
Term()
Type()
Var(name)
alpha_eq(s, t)
is_effect_value(t)
is_value(t)
parse_program(src, mode, structure)
plug(ctx, t)
pretty(t)
type_rank(ty)
typecheck(t, env, config, path)
eval_effect(t, config, budget)
trace_eval(t, config)
argmax(candidates, score)
max_by(score, u, v)
select_bruteforce(m, config, cap)
select_fast(e, config)
select_program(m, config)
Dist(weighted)
MRVal(entries)
atom_key(a)
cond_reward(u, x, structure)
expect0(u, structure)
k_gamma(gamma, u, monad)
make_monad(name, structure)
mr_of_effect(e, structure)
mrval(mapping)
t2val(dist, rho)
theta(u, monad)
vdis(u)
ConstElem(name, base, index)
FnElem(fn, lam, env)
PairElem(fst, snd)
RewElem(value)
UnitElem()
agree_at(m, n, config, monad, gammas)
denote(t, config, monad)
embed_outcome(out, config, monad)
gamma_from_table(table, config)
kappa_term(consts, table)
observe(m, config, monad_name)
zero_gamma(config)
PurityResult(constant, witness)
apply_axiom(name, t, path, config)
canon_equal(a, b)
canon_rewards(m, config)
canonical_term(cf)
decide_equiv_prob(m, n, config, monad_name)
decide_equiv_rewards(m, n, config)
decide_pure_prob(m, config, monad_name)
decide_pure_rewards(m, config)
distinguish_rewards(m, n, config)
replace_at(t, path, new)
rewards_impurity_witness(m, config)
subterm_at(t, path)
weak_canon_prob(m, config, monad_name)
weak_canonical_term(branches, monad_name)
GenConfig(seed, max_term_size, max_order, mode, structure)
default_gammas(m, n, config, count, seed)
gamma_tables(base, config, count, seed)
gen_axiom_instance(name, cfg, rng, config)
gen_effect_value(cfg, rng, max_ops, base, config)
gen_equivalent_pair(cfg, rng, config)
gen_kleisli(cfg, monad, dom, carrier, rng)
gen_monad_value(cfg, monad, carrier, rng)
gen_program(cfg, target_type, rng, config)
gen_tie_effect(cfg, rng, max_ops, base, config)
or_swap(e, rng)
main(argv)
run_suite(name, seed, cases, monad, jobs)
suites()
""".strip().splitlines()


def test_package_names_resolve():
    assert [n for n in EXPORTS if not hasattr(selcalc, n)] == []
    assert equations.subterm_at is syntax.subterm_at
    assert equations.replace_at is syntax.replace_at
    assert callable(syntax.plug)


def test_package_signatures_are_pinned():
    got = []
    for name in EXPORTS:
        obj = getattr(selcalc, name)
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, BaseException)):
            params = inspect.signature(obj).parameters
            got.append(f"{name}({', '.join(params)})")
    assert got == SIGNATURES
