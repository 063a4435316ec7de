import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selcalc.monads import (
    Dist, MRVal, atom_key, atoms, cond_reward, expect0, k_gamma, make_monad,
    mr_of_effect, mrval, t2val, theta, vdis,
)
from selcalc.rewards import DEFAULT_STRUCTURE, STRUCTURES
from selcalc.syntax import FF, Or, Rew, RewConst, TT, parse_program
from selcalc.testgen import GenConfig, gen_kleisli, gen_monad_value

ST = DEFAULT_STRUCTURE
ATOMS = ("a", "b", "c")

rewards = st.fractions(max_denominator=12, min_value=-6, max_value=6)


@st.composite
def dists(draw, atoms=ATOMS):
    support = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3,
                            unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support),
                            max_size=len(support)))
    tot = sum(weights)
    return Dist([(F(w, tot), x) for w, x in zip(weights, support)])


@st.composite
def dw_values(draw, atoms=ATOMS):
    support = draw(st.lists(st.tuples(rewards, st.sampled_from(atoms)),
                            min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support),
                            max_size=len(support)))
    tot = sum(weights)
    return Dist([(F(w, tot), x) for w, x in zip(weights, support)])


def monad_values(name, atoms=ATOMS):
    if name == "W":
        return st.tuples(rewards, st.sampled_from(atoms))
    if name == "DW":
        return dw_values(atoms)
    if name == "T2":
        return st.tuples(dists(atoms), st.fixed_dictionaries(
            {x: rewards for x in atoms})).map(lambda t: t2val(t[0], t[1]))
    if name == "T3":
        return st.tuples(dists(atoms), rewards).map(
            lambda t: t2val(t[0], lambda _: t[1]))
    if name == "MR":
        return st.dictionaries(st.sampled_from(atoms), rewards,
                               min_size=1).map(mrval)
    raise ValueError(name)


def kleisli(name, dom, cod):
    return st.fixed_dictionaries({x: monad_values(name, cod) for x in dom}) \
        .map(lambda table: table.__getitem__)


@pytest.mark.parametrize("name", ["W", "DW", "T2", "T3", "MR"])
def test_monad_laws(name):
    mon = make_monad(name, ST)

    @settings(max_examples=60, deadline=None)
    @given(monad_values(name), kleisli(name, ATOMS, ("p", "q")),
           kleisli(name, ("p", "q"), ("x", "y")), st.sampled_from(ATOMS))
    def laws(u, f, g, x):
        assert mon.bind(mon.unit(x), f) == f(x)
        assert mon.bind(u, mon.unit) == u
        assert mon.bind(mon.bind(u, f), g) == \
            mon.bind(u, lambda y: mon.bind(f(y), g))

    laws()


@pytest.mark.parametrize("name", ["DW", "T2", "T3"])
def test_mix_barycentric(name):
    mon = make_monad(name, ST)

    @settings(max_examples=60, deadline=None)
    @given(monad_values(name), monad_values(name),
           st.fractions(min_value=0, max_value=1, max_denominator=8))
    def laws(u, v, p):
        assert mon.mix([(F(1), u)]) == u
        assert mon.mix([(p, u), (1 - p, v)]) == \
            mon.mix([(1 - p, v), (p, u)])

    laws()


@pytest.mark.parametrize("name", ["T2", "T3"])
def test_theta_is_monad_morphism(name):
    mon = make_monad(name, ST)
    dw = make_monad("DW", ST)

    @settings(max_examples=80, deadline=None)
    @given(dw_values(), kleisli("DW", ATOMS, ("p", "q")), rewards,
           st.sampled_from(ATOMS),
           st.fractions(min_value=0, max_value=1, max_denominator=8),
           dw_values())
    def squares(u, f, r, x, p, v):
        th = lambda w: theta(w, mon)
        assert th(dw.unit(x)) == mon.unit(x)
        assert th(dw.bind(u, f)) == mon.bind(th(u), lambda y: th(f(y)))
        assert th(dw.reward(r, u)) == mon.reward(r, th(u))
        assert th(dw.mix([(p, u), (1 - p, v)])) == \
            mon.mix([(p, th(u)), (1 - p, th(v))])

    squares()


@pytest.mark.parametrize("name", ["W", "DW", "T2", "T3"])
def test_theta_preserves_expectation(name):
    mon = make_monad(name, ST)
    dw = make_monad("DW", ST)

    @settings(max_examples=60, deadline=None)
    @given(dw_values(), st.fixed_dictionaries({x: rewards for x in ATOMS}))
    def pres(u, table):
        gam = table.__getitem__
        if name == "W":
            return  # no theta into W; expectation is direct
        assert mon.expect(theta(u, mon), gam) == dw.expect(u, gam)

    pres()


def test_dist_merges_and_sorts():
    d = Dist([(F(1, 4), "b"), (F(1, 4), "a"), (F(1, 2), "b")])
    assert d.items() == [("a", F(1, 4)), ("b", F(3, 4))]
    assert d.prob("b") == F(3, 4)
    assert d.prob("zzz") == F(0)


def test_dist_rejects_bad_weights():
    with pytest.raises(ValueError, match=r"^weights sum to 1/2, not 1$"):
        Dist([(F(1, 2), "a")])
    with pytest.raises(ValueError, match=r"^negative weight -1/2$"):
        Dist([(F(-1, 2), "a"), (F(3, 2), "b")])


def opposite_mixes(mon):
    """One value of mon mixed from the same parts in opposite orders."""
    parts = [(F(1, 4), mon.reward(F(1), mon.unit("b"))),
             (F(1, 4), mon.unit("c")),
             (F(1, 2), mon.pchoice(F(1, 3), mon.unit("a"),
                                   mon.reward(F(-1), mon.unit("c"))))]
    return mon.mix(parts), mon.mix(parts[::-1])


@pytest.mark.parametrize("name", ["DW", "T2", "T3"])
def test_merge_order_shows_in_no_listing(name):
    d, e = opposite_mixes(make_monad(name, ST))
    assert list(d._w) != list(e._w)  # the merge orders do differ
    assert d == e and hash(d) == hash(e)
    want = sorted(d._w.items(), key=lambda a: atom_key(a[0]))
    listed = [(p, r, x) for (r, x), p in want]
    if name != "DW":
        listed.sort(key=lambda a: atom_key(a[2]))
    for u in (d, e):
        assert list(u.pairs) == u.items() == want
        assert u.support() == [x for x, _ in want]
        assert repr(u) == "Dist(" + " + ".join(
            f"{p}*{x!r}" for x, p in want) + ")"
        assert atoms(u, name) == listed


def test_kernel_arithmetic_never_sorts(monkeypatch):
    import selcalc.monads
    real, calls = selcalc.monads.atom_key, []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(selcalc.monads, "atom_key", counting)
    dw = make_monad("DW", ST)

    def fresh():
        return Dist([(F(1, 2), (F(1), "b")), (F(1, 3), (F(0), "a")),
                     (F(1, 6), (F(-2), "c"))])

    Dist.mix([(F(1, 3), fresh()), (F(2, 3), fresh())])
    expect0(fresh())
    dw.alpha(Dist([(F(1, 2), (F(1), F(2))), (F(1, 2), (F(0), F(-3)))]))
    assert fresh() == fresh()
    hash(fresh())
    # the loops that run a caller's function read the merged weights too
    fresh().map(lambda rx: rx[1])
    table = {"a": F(1), "b": F(2), "c": F(0)}
    t2val(vdis(fresh()), table)
    t2val(vdis(fresh()), table.__getitem__)
    for name in ("DW", "T2", "T3"):
        mon = make_monad(name, ST)
        mon.bind(fresh(), lambda x: mon.pchoice(
            F(1, 2), mon.unit(x), mon.reward(F(1), mon.unit("d"))))
        mon.expect(fresh(), table.__getitem__)
    assert calls == []
    fresh().items()  # a listing does sort
    assert calls


def test_k_gamma_frozen_example():
    dw = make_monad("DW", ST)
    u = Dist([(F(1, 2), (F(1), "tt")), (F(1, 2), (F(3), "ff"))])
    gam = {"tt": F(1), "ff": F(2)}.__getitem__
    got = k_gamma(gam, u, dw)
    assert got == Dist([(F(1, 2), (F(2), "tt")), (F(1, 2), (F(5), "ff"))])


@pytest.mark.parametrize("name", ["W", "DW", "T2", "T3", "MR"])
def test_k_gamma_injective_spot(name):
    mon = make_monad(name, ST)
    gam = {"a": F(1), "b": F(-2), "c": F(0)}.__getitem__

    @settings(max_examples=80, deadline=None)
    @given(monad_values(name), monad_values(name))
    def inj(u, v):
        if u != v:
            assert k_gamma(gam, u, mon) != k_gamma(gam, v, mon)

    inj()


def test_expectation_values():
    dw = make_monad("DW", ST)
    u = Dist([(F(1, 2), (F(1), "tt")), (F(1, 2), (F(3), "ff"))])
    assert expect0(u, ST) == F(2)
    gam = {"tt": F(2), "ff": F(0)}.__getitem__
    assert dw.expect(u, gam) == F(3)
    assert vdis(u) == Dist([(F(1, 2), "ff"), (F(1, 2), "tt")])
    assert cond_reward(u, "tt") == F(1)
    assert cond_reward(u, "ff") == F(3)


def test_t2_conditional_rewards():
    u = Dist([(F(1, 4), (F(1), "a")), (F(1, 4), (F(3), "a")),
              (F(1, 2), (F(5), "b"))])
    t2 = theta(u, make_monad("T2", ST))
    assert vdis(t2) == Dist([(F(1, 2), "a"), (F(1, 2), "b")])
    assert cond_reward(t2, "a") == F(2)
    assert cond_reward(t2, "b") == F(5)
    assert_normal_form("T2", t2)
    assert t2 == t2val(Dist([(F(1, 2), "a"), (F(1, 2), "b")]),
                       {"a": F(2), "b": F(5)})


def test_t3_pools_reward():
    u = Dist([(F(1, 4), (F(1), "a")), (F(3, 4), (F(5), "b"))])
    t3 = theta(u, make_monad("T3", ST))
    assert vdis(t3) == Dist([(F(1, 4), "a"), (F(3, 4), "b")])
    assert expect0(t3) == F(4)
    assert_normal_form("T3", t3)
    assert t3 == t2val(Dist([(F(1, 4), "a"), (F(3, 4), "b")]), lambda _: F(4))


def test_t3_rejects_unverified_structure():
    mul = STRUCTURES["MulPositiveRationals"]
    with pytest.raises(ValueError, match=(
            r"^structure MulPositiveRationals does not mix rewards through "
            r"accumulation; pooling a single reward is unsound$")):
        make_monad("T3", mul)


def test_make_monad_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown monad 'X'"):
        make_monad("X", ST)


def test_mr_or_keeps_best_reward_per_value():
    mr = make_monad("MR", ST)
    u = mrval({"a": F(1), "b": F(5)})
    v = mrval({"a": F(3)})
    got = mr.or_op(u, v)
    assert got == mrval({"a": F(3), "b": F(5)})


def test_mr_of_effect_example():
    p = parse_program("(1 . tt) or ((3 . tt) or (2 . ff))")
    got = mr_of_effect(p.term, ST)
    assert got == mrval({TT: F(3), FF: F(2)})


def test_mr_of_effect_invariant_under_swap():
    a = parse_program("(0 . tt) or (0 . ff)")
    b = parse_program("(0 . ff) or (0 . tt)")
    assert mr_of_effect(a.term, ST) == mr_of_effect(b.term, ST)


### the kernel against the formulas it replaced

# Each reference below is the formula the kernel used before it built its
# results without re-validating them: everything goes through the public,
# checking Dist constructor, and T2/T3 read weights and rewards by scanning
# with prob/rho.  The kernel must give equal values on generated inputs.

CARRIER = ("a", "b", "c")
KERNEL_SEEDS = range(200)


def ref_unit(x):
    return Dist([(F(1), x)])


def ref_mix(weighted):
    return Dist([(p * q, x) for p, d in weighted for x, q in d.pairs])


def ref_map(f, d):
    return Dist([(p, f(x)) for x, p in d.pairs])


def ref_dw_bind(mon, u, f):
    return mon.mix([(p, mon.reward(r, f(x))) for (r, x), p in u.pairs])


def ref_dw_expect(mon, u, gamma):
    return mon.alpha(ref_map(lambda rx: (rx[0], gamma(rx[1])), u))


def ref_t2_mix(st, weighted):
    dist = ref_mix([(p, vdis(u)) for p, u in weighted])
    rho = {}
    for x in dist.support():
        total = dist.prob(x)
        parts = [(p * vdis(u).prob(x) / total, cond_reward(u, x, st))
                 for p, u in weighted if p > 0 and vdis(u).prob(x) > 0]
        rho[x] = st.big_convex(parts)
    return t2val(dist, rho)


def ref_t2_map(st, f, u):
    dist = ref_map(f, vdis(u))
    rho = {}
    for y in dist.support():
        parts = [(vdis(u).prob(x) / dist.prob(y), cond_reward(u, x, st))
                 for x in vdis(u).support() if f(x) == y]
        rho[y] = st.big_convex(parts)
    return t2val(dist, rho)


def ref_t2_bind(mon, u, f):
    return ref_t2_mix(mon.structure,
                      [(vdis(u).prob(x),
                        mon.reward(cond_reward(u, x, mon.structure), f(x)))
                       for x in vdis(u).support()])


def ref_t2_alpha(st, u):
    return st.big_convex([(vdis(u).prob(x), st.add(cond_reward(u, x, st), x))
                          for x in vdis(u).support()])


def ref_t3_bind(mon, u, f):
    return mon.reward(expect0(u, mon.structure),
                      mon.mix([(vdis(u).prob(x), f(x)) for x in vdis(u).support()]))


def ref_t3_alpha(st, u):
    avg = st.big_convex([(vdis(u).prob(x), x) for x in vdis(u).support()])
    return st.add(expect0(u, st), avg)


def assert_dist_invariant(d):
    atoms = [x for x, _ in d.pairs]
    assert all(p > 0 for _, p in d.pairs)
    assert sum(p for _, p in d.pairs) == 1
    assert len(set(atoms)) == len(atoms)
    keys = [atom_key(x) for x in atoms]
    assert keys == sorted(keys)


def assert_normal_form(name, u):
    """A T2 value holds no value twice; a T3 value has one reward."""
    assert_dist_invariant(u)
    if name == "T2":
        assert len(vdis(u).pairs) == len(u.pairs)
    if name == "T3":
        assert len({r for (r, _), _ in u.pairs}) == 1


def kernel_cases(name):
    """(monad, cfg, rng) per seed for every structure the monad accepts."""
    for st in STRUCTURES.values():
        try:
            mon = make_monad(name, st)
        except ValueError:
            continue
        for seed in KERNEL_SEEDS:
            yield mon, GenConfig(seed=seed, structure=st), random.Random(seed)


def squash(x):
    """A map that merges two atoms of the carrier."""
    return "a" if x == "b" else x


@pytest.mark.parametrize("name", ["DW", "T2", "T3"])
def test_kernel_bind_matches_reference(name):
    seen = 0
    for mon, cfg, rng in kernel_cases(name):
        u = gen_monad_value(cfg, name, CARRIER, rng)
        f = gen_kleisli(cfg, name, CARRIER, ("p", "q", "a"), rng)
        got = mon.bind(u, f)
        if name == "DW":
            want = ref_dw_bind(mon, u, f)
        elif name == "T2":
            want = ref_t2_bind(mon, u, f)
        else:
            want = ref_t3_bind(mon, u, f)
        assert got == want
        assert_normal_form(name, got)
        seen += 1
    assert seen >= 400


@pytest.mark.parametrize("name", ["DW", "T2", "T3"])
def test_kernel_expect_matches_reference(name):
    for mon, cfg, rng in kernel_cases(name):
        u = gen_monad_value(cfg, name, CARRIER, rng)
        table = {x: rng.choice(cfg.rewards) for x in CARRIER}
        gam = table.__getitem__
        got = mon.expect(u, gam)
        if name == "DW":
            assert got == ref_dw_expect(mon, u, gam)
        elif name == "T2":
            assert got == ref_t2_alpha(mon.structure,
                                       ref_t2_map(mon.structure, gam, u))
        else:
            pooled = expect0(u, mon.structure)
            assert got == ref_t3_alpha(mon.structure,
                                       t2val(ref_map(gam, vdis(u)), lambda _: pooled))


@pytest.mark.parametrize("name", ["DW", "T2", "T3"])
def test_kernel_map_mix_alpha_match_reference(name):
    for mon, cfg, rng in kernel_cases(name):
        st = mon.structure
        u = gen_monad_value(cfg, name, CARRIER, rng)
        v = gen_monad_value(cfg, name, CARRIER, rng)
        w = gen_monad_value(cfg, name, CARRIER, rng)
        p = rng.choice([F(0), F(1, 3), F(1, 2), F(1)])
        three = [(p / 2, u), (F(0), w), (1 - p / 2 - F(1, 4), v), (F(1, 4), w)]
        if name == "DW":
            assert mon.map(squash, u) == ref_map(lambda rx: (rx[0], squash(rx[1])), u)
            assert mon.mix(three) == ref_mix(three)
        elif name == "T2":
            assert mon.map(squash, u) == ref_t2_map(st, squash, u)
            assert mon.mix(three) == ref_t2_mix(st, three)
            assert mon.alpha(mon.map(lambda x: st.zero, u)) == \
                ref_t2_alpha(st, ref_t2_map(st, lambda x: st.zero, u))
        else:
            assert vdis(mon.map(squash, u)) == ref_map(squash, vdis(u))
            assert vdis(mon.mix(three)) == ref_mix([(q, vdis(d)) for q, d in three])
            for got in (mon.map(squash, u), mon.mix(three)):
                assert_normal_form(name, got)
            pooled = t2val(ref_map(lambda x: st.zero, vdis(u)),
                           lambda _: expect0(u, st))
            assert mon.alpha(pooled) == ref_t3_alpha(st, pooled)


def ref_value_atoms(u):
    """A T2 or T3 value's atoms as (value, probability, reward), sorted by
    value: the listing printing read before ``atoms``."""
    return sorted(((x, p, r) for (r, x), p in u.pairs),
                  key=lambda a: atom_key(a[0]))


@pytest.mark.parametrize("name", ["W", "DW", "T2", "T3"])
def test_atoms_list_values_in_print_order(name):
    seen = 0
    for mon, cfg, rng in kernel_cases(name):
        u = gen_monad_value(cfg, name, CARRIER, rng)
        got = atoms(u, name)
        assert all(len(a) == 3 for a in got)
        assert sum(p for p, _, _ in got) == 1
        if name == "W":
            assert got == [(F(1), u[0], u[1])]
        else:
            assert Dist([(p, (r, x)) for p, r, x in got]) == u
        if name == "DW":
            assert got == [(p, r, x) for (r, x), p in u.pairs]
        if name in ("T2", "T3"):
            assert got == [(p, r, x) for x, p, r in ref_value_atoms(u)]
        seen += 1
    assert seen >= 400


def test_dist_constructors_match_public_constructor():
    for _, cfg, rng in kernel_cases("DW"):
        u = gen_monad_value(cfg, "DW", CARRIER, rng)
        v = gen_monad_value(cfg, "DW", CARRIER, rng)
        p = rng.choice([F(0), F(1, 5), F(1, 2), F(1)])
        for got, want in ((Dist.unit(u.pairs[0][0]), ref_unit(u.pairs[0][0])),
                          (u.map(lambda rx: rx[1]), ref_map(lambda rx: rx[1], u)),
                          (Dist.mix([(p, u), (1 - p, v)]),
                           ref_mix([(p, u), (1 - p, v)]))):
            assert got.pairs == want.pairs
            assert_dist_invariant(got)


def test_dist_mix_rejects_bad_outer_weights():
    u = Dist([(F(1, 2), "a"), (F(1, 2), "b")])
    v = Dist.unit("c")
    with pytest.raises(ValueError, match=r"^negative weight -1/2$"):
        Dist.mix([(F(-1, 2), u), (F(3, 2), v)])
    for weighted in ([(F(1, 2), u), (F(3, 4), v)], [(F(1, 4), u)], []):
        with pytest.raises(ValueError) as public:
            ref_mix(weighted)
        with pytest.raises(ValueError) as trusted:
            Dist.mix(weighted)
        assert str(trusted.value) == str(public.value)
        assert str(trusted.value).startswith("weights sum to ")
