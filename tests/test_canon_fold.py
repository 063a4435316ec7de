"""Selection and the canonical form in every monad are one keyed fold of
the effect value, ``strategies.best_outcomes``, with one keep rule: a
later outcome replaces the listed one of its key exactly when its
``expect0`` is strictly greater.  Checked here against the reference
route it replaced (list every strategy's outcome, map each through
``theta``, then deduplicate the whole list), and selection against the
form: the selected outcome is the form's first entry of greatest
``expect0``."""

import time
from fractions import Fraction as F

import pytest

from selcalc.cli import main
from selcalc.equations import (
    canon, canon_rewards, canonical_term, decide_pure_prob, decide_pure_rewards,
    rewards_impurity_witness, weak_canon_prob,
)
from selcalc.monads import default_monad, make_monad, theta
from selcalc.operational import eval_effect
from selcalc.rewards import STRUCTURES
from selcalc.strategies import (
    StrategyCapExceeded, argmax, best_outcomes, check_cap, outcomes,
    select_bruteforce, select_fast, strategy_count,
)
from selcalc.syntax import (
    BOOL, Arrow, Or, PChoice, Prod, Rew, RewConst, TT, FF, alpha_eq,
    parse_program, pretty,
)
from selcalc.testgen import GenConfig, gen_program, gen_tie_effect

TARGETS = [BOOL, Prod(BOOL, BOOL), Arrow(BOOL, BOOL)]
MOST_STRATEGIES = 1 << 12  # the reference lists every strategy


def reference_canon_rewards(m, config):
    """Every strategy's outcome in strategy order, deduplicated left to
    right by value: a later entry with a strictly greater reward deletes
    the earlier one and is appended."""
    st = config.structure
    out = []
    for c, v in outcomes(eval_effect(m, config), config):
        for k, (ck, vk) in enumerate(out):
            if alpha_eq(v, vk):
                if not st.leq(c, ck):
                    del out[k]
                    out.append((c, v))
                break
        else:
            out.append((c, v))
    return out


def reference_weak_canon_prob(m, config, monad_name):
    """Every strategy's outcome in DW, mapped through theta, with later
    duplicates dropped."""
    monad = make_monad(monad_name, config.structure)
    out = []
    for d in outcomes(eval_effect(m, config), config):
        b = theta(d, monad)
        if b not in out:
            out.append(b)
    return out


def generated(structure, mode, count=60, size=40):
    """Generated programs of each target type, small enough to list."""
    cfg = GenConfig(seed=len(structure.name), max_term_size=size, mode=mode,
                    structure=structure)
    config = cfg.lang()
    rng = cfg.rng()
    for i in range(count):
        m = gen_program(cfg, TARGETS[i % len(TARGETS)], rng, config)
        if strategy_count(eval_effect(m, config)) <= MOST_STRATEGIES:
            yield m, config


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_canon_rewards_matches_the_listing_reference(name):
    seen = 0
    for m, config in generated(STRUCTURES[name], "rewards"):
        assert canon_rewards(m, config) == reference_canon_rewards(m, config), \
            pretty(m)
        seen += 1
    assert seen >= 30


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("monad_name", ["DW", "T2", "T3"])
def test_weak_canon_prob_matches_the_listing_reference(name, monad_name):
    st = STRUCTURES[name]
    seen = 0
    for m, config in generated(st, "prob"):
        if monad_name == "T3" and not st.mixing_verified:
            with pytest.raises(ValueError, match="does not mix rewards"):
                weak_canon_prob(m, config, monad_name)
            continue
        got = weak_canon_prob(m, config, monad_name)
        assert got == reference_weak_canon_prob(m, config, monad_name), \
            pretty(m)
        seen += 1
    assert seen >= 30 or not st.mixing_verified


def test_a_preferred_later_outcome_moves_to_the_end():
    # values tt, ff, tt with rewards 1, 0, 2: the second tt scores strictly
    # more, so it replaces the first tt and is listed after ff
    e = Or(Or(Rew(RewConst(F(1)), TT), FF), Rew(RewConst(F(2)), TT))
    monad = make_monad("W")
    assert best_outcomes(e, monad, lambda u: u[1]) == [
        (F(0), FF), (F(2), TT)]
    assert best_outcomes(e, monad, lambda u: u) == [
        (F(1), TT), (F(0), FF), (F(2), TT)]
    assert best_outcomes(e, monad, lambda u: None) == [(F(2), TT)]
    # an equal score keeps the listed outcome where it is
    tie = Or(Or(Rew(RewConst(F(2)), FF), TT), Rew(RewConst(F(2)), TT))
    assert best_outcomes(tie, monad, lambda u: None) == [(F(2), FF)]
    # in DW the score is the mean reward: 1/2 and 3/2 average to 1, which
    # ties with 1 . ff and loses to 3/2 . ff
    mixed = PChoice(F(1, 2), Rew(RewConst(F(1, 2)), TT),
                    Rew(RewConst(F(3, 2)), FF))
    dw = make_monad("DW")
    assert best_outcomes(Or(mixed, Rew(RewConst(F(1)), FF)), dw,
                         lambda u: None) == [first(mixed, dw)]
    assert best_outcomes(Or(mixed, Rew(RewConst(F(3, 2)), FF)), dw,
                         lambda u: None) == [dw.reward(F(3, 2), dw.unit(FF))]


def first(e, monad):
    """The one outcome of a choice-free effect value."""
    [u] = best_outcomes(e, monad, lambda u: u)
    return u


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_selection_is_the_first_best_entry_of_the_form(name, mode):
    # the strategy-order lemma: the kept form lists the first outcome of
    # greatest score, in strategy order, before any other maximal entry
    monad_name = default_monad(mode)
    monad = make_monad(monad_name, STRUCTURES[name])
    seen = 0
    for m, config in generated(STRUCTURES[name], mode):
        assert select_fast(eval_effect(m, config), config) == argmax(
            canon(m, config, monad_name), monad.expect0), pretty(m)
        seen += 1
    assert seen >= 30


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_selection_is_the_first_best_entry_of_the_form_on_ties(mode):
    cfg = GenConfig(seed=3, mode=mode)
    config, rng = cfg.lang(), cfg.rng()
    monad_name = default_monad(mode)
    monad = make_monad(monad_name, config.structure)
    for _ in range(150):
        e = gen_tie_effect(cfg, rng, max_ops=5, config=config)
        best = argmax(canon(e, config, monad_name), monad.expect0)
        assert select_fast(e, config) == best, pretty(e)
        assert select_bruteforce(e, config) == best, pretty(e)


def test_canonical_forms_keep_the_strategy_cap(tmp_path, capsys):
    # five probabilistic lets: the strategies square at each level, to
    # 2^31; refused before any outcome is built
    src = "mode prob; " + "".join(
        f"let x{i} : Bool = (1 . tt) +[1/2] ((2 . ff) or (1 . tt)) in "
        for i in range(5)) + "x0"
    p = parse_program(src)
    for monad_name in ("DW", "T2", "T3"):
        with pytest.raises(StrategyCapExceeded,
                           match="more than 1048576 strategies"):
            weak_canon_prob(p.term, p.config, monad_name)
        with pytest.raises(StrategyCapExceeded):
            decide_pure_prob(p.term, p.config, monad_name)
    f = tmp_path / "chain.sel"
    f.write_text(src)
    for cmd in ("canon", "pure"):
        assert main([cmd, str(f)]) == 4
        assert capsys.readouterr().err == (
            "resource or invariant failure: more than 1048576 strategies\n")
    # a shared effect value with 2^21 strategies, counted without listing
    e = TT
    for _ in range(21):
        e = Or(Rew(RewConst(F(1)), e), e)
    with pytest.raises(StrategyCapExceeded):
        check_cap(e)
    assert check_cap(e, 1 << 21) is e


def test_canon_and_pure_on_a_long_let_chain_are_fast():
    # 2^18 strategies, which listing every one took seconds to deduplicate
    src = "".join(f"let x{i} : Bool = ({i % 3} . tt) or ({i % 2} . ff) in "
                  for i in range(18)) + "x0"
    p = parse_program(src)
    start = time.perf_counter()
    cf = canon_rewards(p.term, p.config)
    assert decide_pure_rewards(p.term, p.config) is None
    assert rewards_impurity_witness(p.term, p.config) == {
        "tt": F(0), "ff": F(0)}
    elapsed = time.perf_counter() - start
    assert pretty(canonical_term(cf)) == "21 . tt or 21 . ff"
    assert elapsed < 2, f"canon and pure took {elapsed:.2f} s"
