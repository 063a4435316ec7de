"""Health checks for the seeded generators: everything generated must
typecheck, terminate, and cover the grammar."""

import random
from fractions import Fraction as F

import pytest

from selcalc.equations import apply_axiom
from selcalc.monads import make_monad
from selcalc.operational import eval_effect
from selcalc.selection import agree_at
from selcalc.strategies import select_fast
from selcalc.syntax import (
    BOOL, Arrow, Or, Prod, is_effect_value, pretty, typecheck,
)
from selcalc.testgen import (
    AXIOM_MONADS, FIG3_AXIOMS, FIG4_AXIOMS, GenConfig, constructor_coverage,
    default_gammas, gamma_tables, gen_axiom_instance, gen_effect_value,
    gen_equivalent_pair, gen_monad_value, gen_program, gen_tie_effect,
    node_tally, or_swap,
)


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_500_programs_typecheck_and_terminate(mode):
    cfg = GenConfig(seed=99, max_term_size=40, mode=mode)
    config = cfg.lang()
    rng = cfg.rng()
    for _ in range(500):
        t = gen_program(cfg, BOOL, rng, config)
        assert typecheck(t, config=config) == BOOL
        assert is_effect_value(eval_effect(t, config))


def test_generation_deterministic_per_seed():
    a = [pretty(gen_program(GenConfig(seed=5, mode="prob"))) for _ in range(5)]
    b = [pretty(gen_program(GenConfig(seed=5, mode="prob"))) for _ in range(5)]
    assert a == b
    c = pretty(gen_program(GenConfig(seed=6, mode="prob")))
    assert c not in a


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_constructor_coverage(mode):
    cfg = GenConfig(seed=1, max_term_size=40, mode=mode)
    tally = constructor_coverage(cfg, count=200)
    want = {"Or", "Rew", "If", "App", "Lam", "Var", "Const", "RewConst"}
    if mode == "prob":
        want |= {"PChoice"}
    hit = {k for k in tally if tally[k] > 0}
    assert want <= hit, want - hit
    # most programs use at least one effect operation
    assert tally["programs_with_op"] >= 0.6 * tally["programs"]


def test_higher_order_targets():
    cfg = GenConfig(seed=3, max_term_size=30, max_order=2)
    config = cfg.lang()
    ty = Arrow(BOOL, BOOL)
    t = gen_program(cfg, ty, config=config)
    assert typecheck(t, config=config) == ty
    t2 = gen_program(cfg, Prod(BOOL, BOOL), config=config)
    assert typecheck(t2, config=config) == Prod(BOOL, BOOL)


def test_gen_rejects_over_rank_targets():
    cfg = GenConfig(seed=0, max_order=1)
    with pytest.raises(ValueError):
        gen_program(cfg, Arrow(Arrow(BOOL, BOOL), BOOL), config=cfg.lang())


def test_effect_values_respect_op_budget():
    cfg = GenConfig(seed=4, mode="prob")
    config = cfg.lang()
    rng = cfg.rng()
    for _ in range(100):
        e = gen_effect_value(cfg, rng, max_ops=6, config=config)
        assert is_effect_value(e)
        tally = node_tally(e)
        assert tally["Or"] + tally["PChoice"] <= 6


def test_tie_effects_actually_tie():
    cfg = GenConfig(seed=8)
    config = cfg.lang()
    rng = cfg.rng()
    w = make_monad("W", config.structure)
    for _ in range(40):
        e = gen_tie_effect(cfg, rng, config=config)
        assert isinstance(e, Or)
        left = w.expect0(select_fast(e.left, config))
        right = w.expect0(select_fast(e.right, config))
        assert left == right
        assert select_fast(e, config) == select_fast(e.left, config)


def test_gamma_tables_zero_first_and_seeded():
    cfg = GenConfig(seed=0)
    config = cfg.lang()
    t1 = gamma_tables("Bool", config, count=8, seed=3)
    t2 = gamma_tables("Bool", config, count=8, seed=3)
    assert t1 == t2
    assert all(v == 0 for v in t1[0].values())
    assert len(t1) == 8


@pytest.mark.parametrize("name", sorted(set(FIG3_AXIOMS)))
def test_fig3_instances_rewrite_and_agree(name):
    cfg = GenConfig(seed=21, max_term_size=40, mode="rewards")
    config = cfg.lang()
    rng = cfg.rng()
    mon = make_monad("W", config.structure)
    for i in range(8):
        t = gen_axiom_instance(name, cfg, rng, config)
        r = apply_axiom(name, t, (), config)
        gs = default_gammas(t, r, config, count=16, seed=i)
        assert agree_at(t, r, config, mon, gs), f"{name}: {pretty(t)}"


@pytest.mark.parametrize("name", sorted(set(FIG4_AXIOMS)))
def test_fig4_instances_rewrite_and_agree(name):
    cfg = GenConfig(seed=22, max_term_size=40, mode="prob")
    config = cfg.lang()
    rng = cfg.rng()
    for i in range(5):
        t = gen_axiom_instance(name, cfg, rng, config)
        r = apply_axiom(name, t, (), config)
        gs = default_gammas(t, r, config, count=16, seed=i)
        for mname in AXIOM_MONADS.get(name, ("DW",)):
            mon = make_monad(mname, config.structure)
            assert agree_at(t, r, config, mon, gs), f"{name}: {pretty(t)}"


def test_prob_only_axioms_rejected_in_rewards_mode():
    cfg = GenConfig(seed=0, mode="rewards")
    with pytest.raises(ValueError):
        gen_axiom_instance("pchoice-comm", cfg, config=cfg.lang())


def test_equivalent_pairs_are_equivalent():
    from selcalc.equations import decide_equiv_rewards
    cfg = GenConfig(seed=17, max_term_size=30)
    config = cfg.lang()
    rng = cfg.rng()
    for _ in range(30):
        m, n = gen_equivalent_pair(cfg, rng, config)
        assert decide_equiv_rewards(m, n, config), \
            f"{pretty(m)} vs {pretty(n)}"


def test_or_swap_flips_exactly_one_or():
    cfg = GenConfig(seed=2)
    config = cfg.lang()
    rng = random.Random(0)
    e = gen_effect_value(cfg, rng, max_ops=8, config=config)
    f = or_swap(e, rng)
    if node_tally(e)["Or"] == 0:
        assert f == e
    else:
        assert node_tally(f) == node_tally(e)


@pytest.mark.parametrize("name", ["W", "DW", "T2", "T3", "MR"])
def test_monad_value_generator_round(name):
    cfg = GenConfig(seed=12)
    mon = make_monad(name, cfg.structure)
    rng = cfg.rng()
    for _ in range(50):
        u = gen_monad_value(cfg, name, ("a", "b", "c"), rng)
        # a legal value survives a unit bind unchanged
        assert mon.bind(u, mon.unit) == u
