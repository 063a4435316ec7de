from fractions import Fraction as F

import pytest

from selcalc.equations import (
    AXIOMS, NoMatch, PurityResult, apply_axiom, canon, canon_equal,
    canon_rewards,
    canonical_term, decide_equiv_prob, decide_equiv_rewards, decide_pure_prob,
    decide_pure_rewards, distinguish_rewards, replace_at,
    rewards_impurity_witness, separate_prob, subterm_at, weak_canon_prob,
    weak_canonical_term,
)
from selcalc.monads import make_monad
from selcalc.selection import (
    agree_at, denote, gamma_from_table, observe, zero_gamma,
)
from selcalc.strategies import select_program
from selcalc.syntax import (
    BOOL, FF, Or, Rew, RewConst, TT, parse_program, plug, pretty,
)
from selcalc.testgen import GenConfig, default_gammas, gen_program


def term(src, **kw):
    p = parse_program(src, **kw)
    return p.term, p.config


def test_canonical_form_dedupes_by_value():
    t, cfg = term("(5 . tt) or (6 . ff) or (4 . tt)")
    cf = canon_rewards(t, cfg)
    assert cf == [(F(5), TT), (F(6), FF)]
    assert pretty(canonical_term(cf)) == "5 . tt or 6 . ff"


def test_canonical_form_keeps_first_appearance_order():
    t, cfg = term("(1 . ff) or (2 . tt)")
    assert canon_rewards(t, cfg) == [(F(1), FF), (F(2), TT)]


def test_canonical_form_accumulates_nesting():
    t, cfg = term("1 . ((2 . tt) or ff)")
    assert canon_rewards(t, cfg) == [(F(3), TT), (F(1), FF)]


def test_canon_equal_is_order_sensitive():
    a, cfg = term("tt or ff")
    b, _ = term("ff or tt")
    assert not canon_equal(canon_rewards(a, cfg), canon_rewards(b, cfg))


def test_canonicalization_idempotent():
    t, cfg = term("((1 . tt) or tt) or (2 . (ff or tt))")
    cf = canon_rewards(t, cfg)
    assert canon_rewards(canonical_term(cf), cfg) == cf


def test_decide_equiv_rewards_examples():
    a, cfg = term("(2 . tt) or (2 . tt)")
    b, _ = term("2 . tt")
    assert decide_equiv_rewards(a, b, cfg)
    c, _ = term("tt or ff")
    assert not decide_equiv_rewards(a, c, cfg)


def test_distinguish_returns_none_for_equivalent():
    a, cfg = term("(2 . tt) or (2 . tt)")
    b, _ = term("2 . tt")
    assert distinguish_rewards(a, b, cfg) is None


def test_absorbed_entry_does_not_separate():
    # the same value at a lower reward is absorbed, so order is moot here
    a, cfg = term("(2 . tt) or tt")
    b, _ = term("tt or (2 . tt)")
    assert decide_equiv_rewards(a, b, cfg)


def test_distinguishing_context_verified_by_execution():
    a, cfg = term("tt or ff")
    b, _ = term("ff or tt")
    ctx = distinguish_rewards(a, b, cfg)
    assert ctx is not None
    assert select_program(plug(ctx, a), cfg) != select_program(plug(ctx, b), cfg)


def test_pure_constant_detected():
    t, cfg = term("if tt == tt then tt else ff")
    assert decide_pure_rewards(t, cfg) == TT


def test_impure_has_working_witness():
    t, cfg = term("ff or ((-1) . (tt or ff))")
    assert decide_pure_rewards(t, cfg) is None
    w = rewards_impurity_witness(t, cfg)
    assert w is not None
    mon = make_monad("W", cfg.structure)
    d = denote(t, cfg, mon)
    _, v0 = d(zero_gamma(cfg))
    assert d(gamma_from_table(w, cfg)) != (cfg.structure.zero, v0)


def test_rewarded_singleton_impure_at_zero_table():
    # a lone nonzero reward is already impure: the zero table separates
    t, cfg = term("(2 . tt) or (2 . tt)")
    assert decide_pure_rewards(t, cfg) is None
    w = rewards_impurity_witness(t, cfg)
    assert w == {"tt": F(0)} or all(v == 0 for v in w.values())


def test_witness_none_for_pure():
    t, cfg = term("tt")
    assert rewards_impurity_witness(t, cfg) is None


def test_weak_canon_prob_sound_under_dw():
    t, cfg = term("mode prob;\n((1 . tt) +[1/2] ff) or (2 . (tt +[1/3] ff))")
    branches = weak_canon_prob(t, cfg)
    c = weak_canonical_term(branches, "DW")
    mon = make_monad("DW", cfg.structure)
    gs = default_gammas(t, c, cfg, count=32, seed=11)
    assert agree_at(t, c, cfg, mon, gs)
    assert weak_canon_prob(c, cfg) == branches


def test_canon_in_w_lists_each_value_once_whatever_it_is_called():
    t, cfg = term("(1 . tt) or ff or (2 . tt)")
    assert canon(t, cfg, "W") == [(F(0), FF), (F(2), TT)]
    assert weak_canon_prob(t, cfg, "W") == canon_rewards(t, cfg)


def test_monads_with_no_canonical_rule_are_refused():
    t, cfg = term("(1 . tt) or ff")
    with pytest.raises(ValueError, match="MR has no canonical form"):
        canon(t, cfg, "MR")
    with pytest.raises(ValueError, match="use decide_pure_rewards for W"):
        decide_pure_prob(t, cfg, "W")
    with pytest.raises(ValueError, match="use decide_equiv_rewards for W"):
        separate_prob(t, t, cfg, "W")
    with pytest.raises(ValueError, match="use decide_equiv_rewards for W"):
        decide_equiv_prob(t, t, cfg, "W")


def test_decide_equiv_prob_commutativity():
    a, cfg = term("mode prob;\ntt +[1/2] ff")
    b, _ = term("mode prob;\nff +[1/2] tt")
    assert decide_equiv_prob(a, b, cfg) is True


def test_decide_equiv_prob_detects_difference():
    a, cfg = term("mode prob;\n(1 . tt) +[1/2] ff")
    b, _ = term("mode prob;\ntt +[1/2] ff")
    assert decide_equiv_prob(a, b, cfg) is False


def test_purity_is_monad_relative():
    t, cfg = term("mode prob;\n(1 . tt) +[1/2] ((-1) . tt)")
    dw = decide_pure_prob(t, cfg, "DW")
    assert dw.constant is None and dw.witness is not None
    t2 = decide_pure_prob(t, cfg, "T2")
    assert t2.constant == TT
    t3 = decide_pure_prob(t, cfg, "T3")
    assert t3.constant == TT


def test_prob_witness_separates():
    t, cfg = term("mode prob;\nff or ((-1) . (tt +[1/2] ff))")
    res = decide_pure_prob(t, cfg, "DW")
    assert res.constant is None
    mon = make_monad("DW", cfg.structure)
    d = denote(t, cfg, mon)
    at_w = d(gamma_from_table(res.witness, cfg))
    assert at_w != mon.unit(d(zero_gamma(cfg)).items()[0][0][1])


def test_axiom_registry_covers_both_calculi():
    from selcalc.testgen import FIG3_AXIOMS, FIG4_AXIOMS
    for name in set(FIG3_AXIOMS) | set(FIG4_AXIOMS):
        assert name in AXIOMS, name


def test_apply_axiom_at_path():
    # child 1 of a reward node is its body
    t, cfg = term("1 . (tt or tt)")
    got = apply_axiom("or-idem", t, (1,), cfg)
    assert got == Rew(RewConst(F(1)), TT)


def test_apply_axiom_no_match():
    t, cfg = term("tt or ff")
    with pytest.raises(NoMatch):
        apply_axiom("or-idem", t, (), cfg)


def test_r3_rewrites_with_the_leftmost_copy():
    # M binds at its leftmost occurrence; the right copy is only alpha-equal
    t, cfg = term("(1 . (fun (a:Bool) -> a) tt) or ff "
                  "or (2 . (fun (b:Bool) -> b) tt)")
    got = apply_axiom("r3", t, (), cfg)
    assert pretty(got) == "ff or 2 . (fun (a:Bool) -> a) tt"


def test_subterm_replace_roundtrip():
    t, cfg = term("1 . (tt or ff)")
    sub = subterm_at(t, (1,))
    assert sub == Or(TT, FF)
    back = replace_at(t, (1,), sub)
    assert back == t
    assert replace_at(t, (1, 0), FF) == parse_program("1 . (ff or ff)").term


@pytest.mark.parametrize("seed", range(30))
def test_canonical_term_agrees_with_source(seed):
    cfg_g = GenConfig(seed=seed, max_term_size=22)
    config = cfg_g.lang()
    m = gen_program(cfg_g, BOOL, config=config)
    cf = canon_rewards(m, config)
    c = canonical_term(cf)
    assert c == weak_canonical_term(cf, "W")
    mon = make_monad("W", config.structure)
    gs = default_gammas(m, c, config, count=24, seed=seed)
    assert agree_at(m, c, config, mon, gs), pretty(m)
    assert select_program(m, config) == select_program(c, config)


@pytest.mark.parametrize("seed", range(30))
def test_equiv_decision_matches_denotations(seed):
    cfg_g = GenConfig(seed=seed, max_term_size=18)
    config = cfg_g.lang()
    m = gen_program(cfg_g, BOOL, config=config)
    n = gen_program(cfg_g, BOOL, config=config)
    mon = make_monad("W", config.structure)
    gs = default_gammas(m, n, config, count=48, seed=seed * 7)
    if decide_equiv_rewards(m, n, config):
        assert agree_at(m, n, config, mon, gs)
    else:
        ctx = distinguish_rewards(m, n, config)
        assert select_program(plug(ctx, m), config) != \
            select_program(plug(ctx, n), config)
