"""Selection strategies: the dynamic-programming pass must match exhaustive
strategy enumeration, and ties must resolve to the leftmost candidate."""

from fractions import Fraction as F

import pytest

from selcalc.monads import Dist, default_monad, make_monad
from selcalc.rewards import STRUCTURES
from selcalc.strategies import (
    StrategyCapExceeded, argmax, max_by, select_bruteforce, select_fast,
    select_program,
)
from selcalc.syntax import FF, Or, Rew, RewConst, TT, parse_program, pretty
from selcalc.testgen import GenConfig, gen_effect_value, gen_tie_effect


def outcome(src, **kw):
    p = parse_program(src, **kw)
    return select_program(p.term, p.config), p.config


def test_argmax_takes_least_maximizer():
    assert argmax([3, 1, 3, 2], lambda x: x) == 3
    assert argmax(["b", "a", "c"], len) == "b"


def test_max_by_left_bias():
    assert max_by(len, "ab", "cd") == "ab"
    assert max_by(len, "a", "cd") == "cd"


def test_select_simple_or():
    out, _ = outcome("(5 . tt) or (6 . ff)")
    assert out == (F(6), FF)


def test_select_tie_goes_left():
    out, _ = outcome("(2 . tt) or (2 . ff)")
    assert out == (F(2), TT)


def test_select_nested_rewards_accumulate():
    out, _ = outcome("1 . ((2 . tt) or (4 . ff))")
    assert out == (F(5), FF)


def test_select_prob_example():
    out, _ = outcome("mode prob;\n(5 . tt) or ((5 . tt) +[1/2] (6 . ff))")
    assert out == Dist([(F(1, 2), (F(5), TT)), (F(1, 2), (F(6), FF))])


def test_prob_choice_keeps_distinct_reward_atoms():
    out, _ = outcome("mode prob;\n(1 . tt) +[1/2] (3 . tt)")
    assert out == Dist([(F(1, 2), (F(1), TT)), (F(1, 2), (F(3), TT))])


def score(out, config):
    """The expected reward of an outcome, in the mode's monad."""
    return make_monad(default_monad(config.mode), config.structure).expect0(out)


def test_outcome_score():
    p = parse_program("(5 . tt) or (6 . ff)")
    assert score((F(6), FF), p.config) == F(6)
    q = parse_program("mode prob;\ntt +[1/2] ff")
    d = Dist([(F(1, 2), (F(1), TT)), (F(1, 2), (F(3), FF))])
    assert score(d, q.config) == F(2)


def test_bruteforce_agrees_on_examples():
    for src in [
        "(5 . tt) or (6 . ff)",
        "((1 . tt) or (2 . ff)) or (3 . tt)",
        "1 . ((2 . tt) or (2 . ff))",
        "mode prob;\n(5 . tt) or ((5 . tt) +[1/2] (6 . ff))",
        "mode prob;\n(1 . (tt +[1/3] ff)) or (2 . ff)",
    ]:
        p = parse_program(src)
        assert select_program(p.term, p.config) == \
            select_bruteforce(p.term, p.config)


def test_bruteforce_refuses_more_strategies_than_its_cap():
    p = parse_program("((1 . tt) or (2 . ff)) or ((3 . tt) or (4 . ff))")
    with pytest.raises(StrategyCapExceeded):
        select_bruteforce(p.term, p.config, cap=3)
    assert select_bruteforce(p.term, p.config, cap=4) == (F(4), FF)


@pytest.mark.parametrize("seed", range(80))
def test_fast_matches_bruteforce_random(seed):
    # every structure per seed, so the ids stay one per seed
    mode = "prob" if seed % 2 else "rewards"
    for name, structure in sorted(STRUCTURES.items()):
        cfg = GenConfig(seed=seed, mode=mode, structure=structure)
        config = cfg.lang()
        e = gen_effect_value(cfg, max_ops=10, config=config)
        assert select_fast(e, config) == select_bruteforce(e, config), \
            (name, pretty(e))


@pytest.mark.parametrize("seed", range(30))
def test_forced_ties_resolve_left(seed):
    cfg = GenConfig(seed=seed, mode="rewards")
    config = cfg.lang()
    e = gen_tie_effect(cfg, config=config)
    assert isinstance(e, Or)
    fast = select_fast(e, config)
    assert fast == select_bruteforce(e, config)
    # both arms reach the winning score; left-bias picks the left arm
    left = select_fast(e.left, config)
    assert score(fast, config) == score(left, config)
    assert fast == left


def test_select_left_biased_across_equal_values():
    e = Or(Rew(RewConst(F(0)), TT), Rew(RewConst(F(0)), FF))
    p = parse_program("tt")
    assert select_fast(e, p.config) == (F(0), TT)
