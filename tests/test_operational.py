from fractions import Fraction as F

import pytest

from selcalc.operational import (
    BudgetExceeded, StuckTerm, eval_effect, trace_eval,
)
from selcalc.syntax import (
    App, BOOL, FF, Hole, If, Lam, Or, Rew, RewConst, TT, Var, is_effect_value,
    parse_program, pretty,
)
from selcalc.testgen import GenConfig, gen_program


def run(src, **kw):
    p = parse_program(src, **kw)
    return eval_effect(p.term, p.config), p.config


def test_value_is_fixed():
    e, _ = run("tt")
    assert e == TT


def test_beta():
    e, _ = run("(fun (x:Bool) -> x or ff) tt")
    assert e == Or(TT, FF)


def test_if_on_branches():
    # choices evaluate under every branch before selection happens
    e, _ = run("if tt == ff then tt else ff")
    assert e == FF


def test_reward_params_reduce():
    e, _ = run("(1 + 2) . tt")
    assert e == Rew(RewConst(F(3)), TT)


def test_projections():
    e, _ = run("fst <tt, ff>")
    assert e == TT
    e, _ = run("snd <tt, ff>")
    assert e == FF


def test_if_distributes_into_effects():
    e, _ = run("if (tt or ff) == tt then 1 . tt else 2 . ff")
    assert e == Or(Rew(RewConst(F(1)), TT), Rew(RewConst(F(2)), FF))


def test_pchoice_effect_value():
    e, cfg = run("tt +[1/2] (ff or tt)")
    assert is_effect_value(e)
    assert pretty(e) == "tt +[1/2] (ff or tt)"


def test_stuck_on_open_term():
    p = parse_program("tt")
    with pytest.raises(StuckTerm):
        eval_effect(Var("x"), p.config)


def test_budget_exceeded():
    # (fun x -> x x) applied to itself loops; the budget cuts it off
    p = parse_program("tt")
    dup = Lam("f", BOOL, App(Var("f"), Var("f")))
    with pytest.raises((BudgetExceeded, StuckTerm)):
        eval_effect(App(dup, dup), p.config, budget=500)


def test_trace_monotone_and_ends_at_value():
    p = parse_program("(fun (x:Bool) -> 1 . x) (tt or ff)")
    steps = list(trace_eval(p.term, p.config))
    assert steps, "trace must show at least the starting term"
    assert all(isinstance(d, int) and d >= 0 for d, _ in steps)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_generated_programs_terminate_in_effect_values(seed, mode):
    cfg = GenConfig(seed=seed, max_term_size=40, mode=mode)
    config = cfg.lang()
    t = gen_program(cfg, BOOL, config=config)
    e = eval_effect(t, config)
    assert is_effect_value(e), pretty(e)


# --- the refocused machine against the small-step reference ---------------

import sys

from selcalc.selection import denote, zero_gamma
from selcalc.strategies import select_fast, strategy_count
from selcalc.monads import make_monad
from selcalc.rewards import NONNEG_ADD
from selcalc.syntax import (
    Const, FnApp, Fst, LangConfig, Pair, PChoice, Snd, Star,
)
from smallstep import Branch, Ordinary, Value, step, step_trace


def step_effect(t, config, budget=10 ** 6):
    """Reference: fold ``step`` into an effect value, re-decomposing from
    the root after every step.  Returns (effect value, ordinary steps)."""
    remaining = [budget]

    def go(t):
        while True:
            match step(t, config):
                case Value(v):
                    return v
                case Ordinary(nxt):
                    remaining[0] -= 1
                    if remaining[0] < 0:
                        raise BudgetExceeded(f"exceeded {budget} evaluation steps")
                    t = nxt
                case Branch("or", _, (a, b)):
                    return Or(go(a), go(b))
                case Branch("reward", (c,), (m,)):
                    return Rew(RewConst(c), go(m))
                case Branch("pchoice", (p,), (a, b)):
                    return PChoice(p, go(a), go(b))

    e = go(t)
    return e, budget - remaining[0]


def same_run(t, config):
    """The machine and the reference give equal effect values."""
    return eval_effect(t, config) == step_effect(t, config)[0]


def _show(t):
    try:
        return pretty(t)
    except ValueError:          # a function symbol the printer lacks
        return repr(t)


def _snapshots(run):
    """(depth, printed term) of each snapshot a trace yields, then the
    error it raises, if any; and the value it returns."""
    out = []
    try:
        while True:
            depth, t = next(run)
            out.append((depth, _show(t)))
    except StopIteration as finished:
        return out, finished.value
    except (StuckTerm, BudgetExceeded, ValueError) as e:
        return out + [(type(e), str(e))], None


def same_trace(t, config):
    """Run ``trace_eval`` and the fold of the reference ``step``: both must
    yield the same snapshots, then raise the same error; a finished trace
    returns the reference effect value."""
    got, value = _snapshots(trace_eval(t, config))
    want, _ = _snapshots(step_trace(t, config))
    if got != want:
        return False
    if value is None:
        return _error_of(lambda: step_effect(t, config)) == want[-1]
    return value == step_effect(t, config)[0]


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_machine_matches_step_reference_on_generated_programs(mode):
    for seed in range(400):
        cfg = GenConfig(seed=seed, max_term_size=40, mode=mode)
        config = cfg.lang()
        t = gen_program(cfg, BOOL, config=config)
        assert same_run(t, config), f"seed {seed}: {pretty(t)}"


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_trace_matches_step_reference_on_generated_programs(mode):
    for seed in range(400):
        cfg = GenConfig(seed=seed, max_term_size=40, mode=mode)
        config = cfg.lang()
        t = gen_program(cfg, BOOL, config=config)
        assert same_trace(t, config), f"seed {seed}: {pretty(t)}"


# The benchmark's deep families at their benchmark sizes, with fixed
# constants.
DEEP_FAMILIES = {
    "sum150": "(" + " + ".join(str(1 + i % 3) for i in range(150)) + ") . tt",
    "app60": "let f : Bool -> Bool = fun (x:Bool) -> if x then 1 . ff "
             "else 2 . tt in " + "f (" * 60 + "tt" + ")" * 60,
    "let-select9": "".join(
        f"let x{i} : Bool = ({1 + i % 3} . tt) or ({3 - i % 3} . ff) in "
        for i in range(9)) + "x0",
    "plet-select5": "mode prob; " + "".join(
        f"let x{i} : Bool = (1 . tt) +[1/{2 + i % 3}] ((2 . ff) or ({i} . tt)) in "
        for i in range(5)) + "x0",
}


def _let_chain(n):
    pairs = [(1 + i % 3, 3 - (i * 2) % 3) for i in range(n)]
    src = "".join(f"let x{i} : Bool = ({a} . tt) or ({b} . ff) in "
                  for i, (a, b) in enumerate(pairs)) + "x0"
    a0, b0 = pairs[0]
    return src, sum(max(a, b) for a, b in pairs), "tt" if a0 >= b0 else "ff"


def _plet_chain(n):
    return "mode prob; " + "".join(
        f"let x{i} : Bool = (1 . tt) +[1/{2 + i % 3}] ((2 . ff) or ({i} . tt)) in "
        for i in range(n)) + "x0"


@pytest.mark.parametrize("n", range(1, 9))
def test_shared_runs_match_step_reference_on_let_chains(n):
    for src in (_let_chain(n)[0], _plet_chain(n)):
        p = parse_program(src)
        assert same_run(p.term, p.config), src


@pytest.mark.parametrize("family", list(DEEP_FAMILIES))
def test_machine_matches_step_reference_on_deep_families(family):
    p = parse_program(DEEP_FAMILIES[family])
    assert same_run(p.term, p.config)


@pytest.mark.parametrize("family", list(DEEP_FAMILIES))
def test_trace_matches_step_reference_on_deep_families(family):
    p = parse_program(DEEP_FAMILIES[family])
    assert same_trace(p.term, p.config)


def test_machine_refuses_capture_like_the_reference():
    # the argument is open, and a binder of its free variable y would
    # capture it, so substitution refuses instead of renaming
    arg = Lam("z", BOOL, Var("y"))
    t = App(Lam("x", BOOL, Or(Lam("y", BOOL, Var("x")), Lam("y", BOOL, Var("x")))), arg)
    got = _error_of(lambda: eval_effect(t, REWARDS))
    assert got == _error_of(lambda: step_effect(t, REWARDS))
    assert got[0] is ValueError and "binder y" in got[1]
    assert same_trace(t, REWARDS)


# The let and plet chains are where branches reach the same state, and the
# machine finishes it from its memo.
BUDGET_PROGRAMS = [
    "(fun (x:Bool) -> 1 . x) (tt or ff)",
    "let f : Bool -> Bool = fun (x:Bool) -> if x then 1 . ff else 2 . tt in "
    "f (f (tt or ff))",
    "mode prob; fst <(1 + 2) . tt, ff> +[1/3] (snd <tt, ff> or (3 <= 4))",
    "let x : Rew = 1 + 2 in (x + x) . (if x == x then tt else ff)",
    _let_chain(6)[0],
    _plet_chain(4),
]


@pytest.mark.parametrize("src", BUDGET_PROGRAMS)
def test_budget_counts_steps_across_branches(src):
    p = parse_program(src)
    _, n = step_effect(p.term, p.config)
    assert n > 0
    eval_effect(p.term, p.config, budget=n)
    with pytest.raises(BudgetExceeded):
        eval_effect(p.term, p.config, budget=n - 1)


def _error_of(fn):
    try:
        fn()
    except (StuckTerm, BudgetExceeded, ValueError) as e:
        return type(e), str(e)
    return None


REWARDS = LangConfig()
NONNEG = LangConfig(structure=NONNEG_ADD)
PROB = LangConfig(mode="prob")


FAILING = [
    (Var("x"), REWARDS),
    (App(TT, FF), REWARDS),
    (Fst(TT), REWARDS),
    (Snd(Lam("x", BOOL, Var("x"))), REWARDS),
    (If(RewConst(F(1)), TT, FF), REWARDS),
    (Rew(TT, FF), REWARDS),
    (Rew(RewConst(F(-1)), TT), NONNEG),
    (PChoice(F(1, 2), TT, FF), REWARDS),
    (FnApp("max", (RewConst(F(1)),)), REWARDS),
    (Pair(TT, Hole()), REWARDS),
    (Or(TT, App(Lam("y", BOOL, Var("z")), Star())), PROB),
    (Rew(RewConst(F(1)), PChoice(F(1, 2), TT, Fst(FF))), PROB),
]


@pytest.mark.parametrize("t, config", FAILING)
def test_machine_fails_like_the_reference(t, config):
    got = _error_of(lambda: eval_effect(t, config))
    want = _error_of(lambda: step_effect(t, config))
    assert got is not None and got == want


@pytest.mark.parametrize("t, config", FAILING)
def test_trace_fails_like_the_reference(t, config):
    assert _snapshots(trace_eval(t, config))[1] is None
    assert same_trace(t, config)


def _leaves(e):
    """Values of an effect value, left to right, without recursion."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Or):
            stack += [x.right, x.left]
        elif isinstance(x, Rew):
            out.append(("reward", x.param.value))
            stack.append(x.body)
        else:
            out.append(x)
    return out


DEEP = 5000


def test_deep_sum_chain_runs_without_recursion():
    assert DEEP > sys.getrecursionlimit()
    left = RewConst(F(1))
    right = RewConst(F(1))
    for _ in range(DEEP - 1):
        left = FnApp("+", (left, RewConst(F(1))))
        right = FnApp("+", (RewConst(F(1)), right))
    for chain in (left, right):
        e = eval_effect(Rew(chain, TT), REWARDS)
        assert _leaves(e) == [("reward", F(DEEP)), TT]


def test_deep_or_chain_runs_without_recursion():
    consts = [TT, FF, Star()]
    leaves = [consts[i % 3] for i in range(DEEP)]
    t = leaves[0]
    for v in leaves[1:]:
        t = Or(t, v)
    e = eval_effect(t, REWARDS)
    assert _leaves(e) == leaves
    # the or nodes sit under a context: each branch resumes it
    e = eval_effect(Pair(t, TT), REWARDS)
    assert _leaves(e) == [Pair(v, TT) for v in leaves]


def test_let_chain_denotes_its_closed_form_in_W():
    src, reward, value = _let_chain(12)
    p = parse_program(src)
    r, v = denote(p.term, p.config, make_monad("W", p.config.structure))(
        zero_gamma(p.config))
    assert (r, v.name) == (reward, value)


def test_let_chain_at_forty_shares_its_residuals():
    # 2**40 strategies over O(n) distinct subtrees: the machine and the
    # folds work per distinct node, while the budget still counts the steps
    # of the small-step relation, of which there are exponentially many
    src, reward, value = _let_chain(40)
    p = parse_program(src)
    e = eval_effect(p.term, p.config, budget=10 ** 30)
    assert strategy_count(e) == 2 ** 40
    r, v = select_fast(e, p.config)
    assert (r, v.name) == (reward, value)
    with pytest.raises(BudgetExceeded):
        eval_effect(p.term, p.config)
