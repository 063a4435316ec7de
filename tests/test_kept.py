"""What a term node keeps: its effect value and its canonical forms.

``eval_effect``, ``canon_rewards`` and ``weak_canon_prob`` keep their
result on the node they were given, keyed by the config object (and the
budget, or the monad).  These tests count runs of the machine and of the
canonicalising fold to see what is kept, what is recomputed, and that
errors and equal but distinct terms share nothing.
"""

from fractions import Fraction as F

import pytest

import selcalc.equations
import selcalc.operational
from selcalc.equations import (
    canon_rewards, decide_pure_prob, decide_pure_rewards,
    rewards_impurity_witness, weak_canon_prob,
)
from selcalc.operational import BudgetExceeded, StuckTerm, eval_effect
from selcalc.properties import run_suite
from selcalc.rewards import STRUCTURES
from selcalc.strategies import StrategyCapExceeded
from selcalc.syntax import (
    FF, LangConfig, Or, PChoice, Rew, RewConst, TT, parse_program,
)

# programs, not effect values: evaluating them runs the machine
IMPURE = "(fun (x:Bool) -> x) (ff or ((-1) . (tt or ff)))"
PROB = ("mode prob;\n"
        "(fun (x:Bool) -> x) (((1 . tt) +[1/2] ((-1) . tt)) or (2 . ff))")
# two beta-steps, then a choice
TWO_STEPS = "(fun (x:Bool) -> x or ff) ((fun (y:Bool) -> y) tt)"


@pytest.fixture
def runs(monkeypatch):
    """Counts of machine runs and of canonicalising folds."""
    count = {"machine": 0, "fold": 0}

    def counted(name, module, key):
        real = getattr(module, name)

        def wrapper(*args):
            count[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted("_machine", selcalc.operational, "machine")
    counted("best_outcomes", selcalc.equations, "fold")
    return count


def program(src):
    p = parse_program(src)
    return p.term, p.config


### kept results

def test_a_second_eval_runs_no_machine(runs):
    t, config = program(TWO_STEPS)
    e = eval_effect(t, config)
    assert eval_effect(t, config) is e
    assert runs["machine"] == 1


def test_a_second_canon_runs_no_machine_and_no_fold(runs):
    t, config = program(IMPURE)
    eval_effect(t, config)
    first = canon_rewards(t, config)
    assert canon_rewards(t, config) == first
    assert runs == {"machine": 1, "fold": 1}


def test_rewards_purity_reads_the_kept_form(runs):
    t, config = program(IMPURE)
    cf = canon_rewards(t, config)
    assert decide_pure_rewards(t, config) is None
    assert rewards_impurity_witness(t, config) is not None
    assert canon_rewards(t, config) == cf
    assert runs == {"machine": 1, "fold": 1}


def test_prob_purity_reads_the_kept_form(runs):
    t, config = program(PROB)
    branches = weak_canon_prob(t, config, "DW")
    res = decide_pure_prob(t, config, "DW")
    assert res.constant is None and res.witness is not None
    assert weak_canon_prob(t, config, "DW") == branches
    assert runs == {"machine": 1, "fold": 1}


def test_purity_rewards_suite_folds_each_program_once(runs):
    res = run_suite("purity-rewards", seed=0, cases=40, jobs=1)
    assert res.ok
    assert runs["fold"] == 40


### what recomputes

def test_another_config_object_recomputes(runs):
    t, config = program(TWO_STEPS)
    other = LangConfig(config.mode, config.bases, config.structure)
    assert other == config and other is not config
    e = eval_effect(t, config)
    assert eval_effect(t, other) == e
    assert runs["machine"] == 2
    canon_rewards(t, config)
    canon_rewards(t, other)
    assert runs["fold"] == 2


def test_another_budget_recomputes(runs):
    t, config = program(TWO_STEPS)
    e = eval_effect(t, config)
    assert eval_effect(t, config, budget=2) == e
    assert eval_effect(t, config, budget=10 ** 9) == e
    assert runs["machine"] == 3


def test_a_smaller_budget_still_raises(runs):
    t, config = program(TWO_STEPS)
    eval_effect(t, config)
    with pytest.raises(BudgetExceeded, match="exceeded 1 evaluation steps"):
        eval_effect(t, config, budget=1)
    # the default budget still finds its kept value
    eval_effect(t, config)
    assert runs["machine"] == 2


def test_another_monad_recomputes(runs):
    t, config = program(PROB)
    dw = weak_canon_prob(t, config, "DW")
    t2 = weak_canon_prob(t, config, "T2")
    assert runs["fold"] == 2
    assert dw == weak_canon_prob(program(PROB)[0], config, "DW")
    assert t2 == weak_canon_prob(program(PROB)[0], config, "T2")
    assert t2 != dw


def test_equal_but_distinct_terms_each_compute_once(runs):
    (s, config), t = program(IMPURE), parse_program(IMPURE).term
    assert s == t and s is not t
    for _ in range(2):
        assert eval_effect(s, config) == eval_effect(t, config)
        assert canon_rewards(s, config) == canon_rewards(t, config)
    assert runs == {"machine": 2, "fold": 2}


### errors are never kept

def test_budget_exceeded_raises_every_time(runs):
    t, config = program(TWO_STEPS)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="exceeded 0 evaluation steps"):
            eval_effect(t, config, budget=0)
    assert runs["machine"] == 2


def test_stuck_term_raises_every_time(runs):
    t = PChoice(F(1, 2), TT, FF)
    config = LangConfig()
    for _ in range(2):
        with pytest.raises(StuckTerm, match="outside mode prob"):
            eval_effect(t, config)
    assert runs["machine"] == 2


### what a caller sees

def test_mutating_a_returned_form_leaves_the_next_unchanged():
    t, config = program(IMPURE)
    cf = canon_rewards(t, config)
    want = list(cf)
    cf.clear()
    assert canon_rewards(t, config) == want
    p, pconfig = program(PROB)
    branches = weak_canon_prob(p, pconfig)
    want = list(branches)
    branches.append(None)
    assert weak_canon_prob(p, pconfig) == want


def test_repr_eq_and_hash_ignore_what_a_node_keeps():
    t, config = program(IMPURE)
    fresh = parse_program(IMPURE).term
    before = repr(t), hash(t)
    eval_effect(t, config)
    canon_rewards(t, config)
    assert (repr(t), hash(t)) == before
    assert t == fresh and fresh == t and hash(t) == hash(fresh)


### effect values come back as themselves

def _shared(levels):
    e = TT
    for _ in range(levels):
        e = Or(Rew(RewConst(F(1)), e), e)
    return e


def test_an_effect_value_is_its_own_effect_value(runs):
    e = _shared(16)
    config = LangConfig()
    assert eval_effect(e, config) is e
    assert eval_effect(e, config, budget=0) is e
    assert eval_effect(TT, config, budget=0) is TT
    assert runs["machine"] == 0


def test_a_shared_effect_value_meets_the_cap_at_once_every_time(runs):
    e, config = _shared(21), LangConfig()
    for _ in range(2):
        with pytest.raises(StrategyCapExceeded):
            canon_rewards(e, config)
    assert runs == {"machine": 0, "fold": 0}


def test_an_effect_value_the_machine_refuses_still_raises():
    prob = PChoice(F(1, 2), TT, FF)
    with pytest.raises(StuckTerm, match="outside mode prob"):
        eval_effect(prob, LangConfig())
    assert eval_effect(prob, LangConfig(mode="prob")) is prob
    negative = Rew(RewConst(F(-1)), TT)
    with pytest.raises(ValueError, match="not a NonNegAdd reward"):
        eval_effect(negative, LangConfig(structure=STRUCTURES["NonNegAdd"]))
    assert eval_effect(negative, LangConfig()) is negative
