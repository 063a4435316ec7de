"""The property suites: seeded random checks of the paper's adequacy,
full-abstraction and axiom-soundness theorems and of the algebra under
them (monad laws, the DW-to-T2/T3 morphism, injective reward shifts).

``SUITES`` describes each suite once (``Suite``).  Its builder sets up once
per slice of cases and returns the check of case ``i``, which draws from
its own RNG seeded by ``(seed, i)``, so a report does not depend on how
``run_suite`` splits cases over worker processes.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .equations import (
    apply_axiom, canon_rewards, canonical_term, decide_equiv_rewards,
    decide_pure_prob, decide_pure_rewards, distinguish_rewards, gamma_tables,
    rewards_impurity_witness, weak_canon_prob, weak_canonical_term,
)
from .monads import default_monad, k_gamma, make_monad, mr_of_effect, mrval, theta
from .rewards import DEFAULT_STRUCTURE, ZERO, Rational
from .selection import (
    agree_at, denote, embed_outcome, gamma_from_table, kappa_term, observe,
    zero_gamma,
)
from .strategies import (
    argmax, max_by, select_bruteforce, select_fast, select_program,
)
from .syntax import App, BOOL, FF, Or, PChoice, Rew, RewConst, TT, plug, pretty
from .testgen import (
    AXIOM_MONADS, FIG3_AXIOMS, FIG4_AXIOMS, PROB_POOL, GenConfig,
    default_gammas, gen_axiom_instance, gen_effect_value,
    gen_equivalent_pair, gen_kleisli, gen_monad_value, gen_program,
    gen_tie_effect, or_swap,
)


@dataclass
class SuiteResult:
    passed: int
    total: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _case_rng(seed: int, i: int) -> random.Random:
    # string seeding hashes platform-independently, and deriving from the
    # case index keeps results identical under any worker-pool split
    return random.Random(f"{seed}:{i}")


def _run_cases(lo: int, hi: int, fn) -> SuiteResult:
    failures: list[str] = []
    passed = 0
    for i in range(lo, hi):
        try:
            fn(i)
            passed += 1
        except AssertionError as e:
            if len(failures) < 5:
                failures.append(f"case {i}: {e}")
        except Exception as e:  # a raising case fails; the others still run
            if len(failures) < 5:
                failures.append(f"case {i}: {type(e).__name__}: {e}")
    return SuiteResult(passed, hi - lo, failures)


def _suite_adequacy(seed, cases, mode, monad):
    cfg = GenConfig(seed=seed, max_term_size=40, max_order=2, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad, config.structure)
    zero = zero_gamma(config)

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        lhs = denote(m, config, mon)(zero)
        rhs = embed_outcome(observe(m, config), config, mon)
        assert lhs == rhs, f"adequacy gap on {pretty(m)}: {lhs} vs {rhs}"

    return one


def _suite_local_vs_brute(seed, cases, mode, monad):
    cfg_r = GenConfig(seed=seed, mode="rewards")
    cfg_p = GenConfig(seed=seed + 1, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()

    def one(i):
        rng = _case_rng(seed, i)
        if i % 10 == 9:
            e, config = gen_tie_effect(cfg_r, rng, max_ops=5, config=conf_r), conf_r
        elif i % 2:
            e, config = gen_effect_value(cfg_p, rng, 12, "Bool", conf_p), conf_p
        else:
            e, config = gen_effect_value(cfg_r, rng, 12, "Bool", conf_r), conf_r
        fast = select_fast(e, config)
        brute = select_bruteforce(e, config)
        assert fast == brute, f"{pretty(e)}: fast {fast} vs brute {brute}"

    return one


def _suite_monad_laws(seed, cases, mode, monad):
    st = DEFAULT_STRUCTURE
    names = ("W", "DW", "T2", "T3", "MR")
    doms = (("a", "b", "c"), ("p", "q"), ("x", "y", "z"))
    cfg = GenConfig(seed=seed)

    def one(i):
        name = names[i // cases]
        mon = make_monad(name, st)
        rng = _case_rng(seed, i)
        a, b, c = doms
        u = gen_monad_value(cfg, name, a, rng)
        f = gen_kleisli(cfg, name, a, b, rng)
        g = gen_kleisli(cfg, name, b, c, rng)
        x = rng.choice(a)
        assert mon.bind(mon.unit(x), f) == f(x), f"{name}: left identity at {x!r}"
        assert mon.bind(u, mon.unit) == u, f"{name}: right identity on {u}"
        lhs = mon.bind(mon.bind(u, f), g)
        rhs = mon.bind(u, lambda y: mon.bind(f(y), g))
        assert lhs == rhs, f"{name}: associativity on {u}"

    return one


def _suite_theta(seed, cases, mode, monad):
    st = DEFAULT_STRUCTURE
    dw = make_monad("DW", st)
    targets = (make_monad("T2", st), make_monad("T3", st))
    cfg = GenConfig(seed=seed)
    a, b = ("a", "b", "c"), ("p", "q")

    def one(i):
        rng = _case_rng(seed, i)
        u = gen_monad_value(cfg, "DW", a, rng)
        v = gen_monad_value(cfg, "DW", a, rng)
        f = gen_kleisli(cfg, "DW", a, b, rng)
        r = rng.choice(cfg.rewards)
        p = rng.choice(PROB_POOL)
        gam = {x: rng.choice(cfg.rewards) for x in a}.__getitem__
        x0 = rng.choice(a)
        for mon in targets:
            th = lambda w: theta(w, mon)
            assert th(dw.unit(x0)) == mon.unit(x0), f"{mon.name}: unit square"
            assert th(dw.bind(u, f)) == mon.bind(th(u), lambda y: th(f(y))), \
                f"{mon.name}: bind square on {u}"
            assert th(dw.reward(r, u)) == mon.reward(r, th(u)), \
                f"{mon.name}: reward square"
            assert th(dw.mix([(p, u), (1 - p, v)])) == \
                mon.mix([(p, th(u)), (1 - p, th(v))]), f"{mon.name}: mix square"
            assert mon.expect(th(u), gam) == dw.expect(u, gam), \
                f"{mon.name}: expectation not preserved"

    return one


def _suite_axioms(seed, cases, mode, monad):
    names = FIG3_AXIOMS if mode == "rewards" else FIG4_AXIOMS
    cfg = GenConfig(seed=seed, max_term_size=40, mode=mode)
    config = cfg.lang()

    def one(i):
        name = names[i // cases]
        t = gen_axiom_instance(name, cfg, _case_rng(seed, i), config)
        r = apply_axiom(name, t, (), config)
        monads = AXIOM_MONADS.get(name, (default_monad(mode),))
        gammas = default_gammas(t, r, config, count=64, seed=seed * 1009 + i)
        for mname in monads:
            mon = make_monad(mname, config.structure)
            assert agree_at(t, r, config, mon, gammas), \
                f"{name} under {mname}: {pretty(t)} vs {pretty(r)}"
        oa, ob = observe(t, config), observe(r, config)
        if name in AXIOM_MONADS:
            mon = make_monad(AXIOM_MONADS[name][0], config.structure)
            oa, ob = theta(oa, mon), theta(ob, mon)
        assert oa == ob, f"{name} operationally: {pretty(t)} vs {pretty(r)}"

    return one


# A stored tie: two branches with equal rewards, and the same choice swapped
_TIE = Or(Rew(RewConst(ZERO), TT), Rew(RewConst(ZERO), FF))
_SWAPPED_TIE = Or(_TIE.right, _TIE.left)


def _suite_genax_or(seed, cases, mode, monad):
    cfg_r = GenConfig(seed=seed, max_term_size=12)
    cfg_p = GenConfig(seed=seed, max_term_size=12, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()

    def one(i):
        rng = _case_rng(seed, i)
        if i == 0:
            # choice is not commutative: swapping flips the tie-break
            m, n = _TIE, _SWAPPED_TIE
            mon = make_monad("W", conf_r.structure)
            z = zero_gamma(conf_r)
            a, b = denote(m, conf_r, mon)(z), denote(n, conf_r, mon)(z)
            assert a != b, "stored counterexample collapsed denotationally"
            oa, ob = observe(m, conf_r), observe(n, conf_r)
            assert oa != ob and oa[0] == ob[0], \
                "stored counterexample must differ in value only"
            return
        cfg, config = (cfg_r, conf_r) if i % 2 else (cfg_p, conf_p)
        mon = make_monad(default_monad(config.mode), config.structure)
        m = gen_program(cfg, BOOL, rng, config)
        n = gen_program(cfg, BOOL, rng, config)
        p = gen_program(cfg, BOOL, rng, config)
        gammas = default_gammas(m, n, config, count=16, seed=seed * 913 + i)
        assert agree_at(Or(m, m), m, config, mon, gammas), \
            f"idempotence fails on {pretty(m)}"
        assert agree_at(Or(Or(m, n), p), Or(m, Or(n, p)), config, mon, gammas), \
            "associativity fails"
        assert agree_at(Or(m, Or(n, m)), Or(m, n), config, mon, gammas), \
            "left-bias identity fails"
        dm, dn, d_or = (denote(x, config, mon) for x in (m, n, Or(m, n)))
        for g in gammas:
            want = max(mon.expect(dm(g), g), mon.expect(dn(g), g))
            assert mon.expect(d_or(g), g) == want, "expected reward of or != max"

    return one


def _suite_distributivity(seed, cases, mode, monad):
    cfg_r = GenConfig(seed=seed, max_term_size=10)
    cfg_p = GenConfig(seed=seed, max_term_size=10, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()

    def pair_eq(a, b, config, mon, gammas):
        assert agree_at(a, b, config, mon, gammas), \
            f"distribution fails: {pretty(a)} vs {pretty(b)}"
        assert observe(a, config) == observe(b, config), \
            f"operational distribution fails: {pretty(a)} vs {pretty(b)}"

    def one(i):
        rng = _case_rng(seed, i)
        cfg, config = (cfg_r, conf_r) if i % 2 else (cfg_p, conf_p)
        mon = make_monad(default_monad(config.mode), config.structure)
        m = gen_program(cfg, BOOL, rng, config)
        n = gen_program(cfg, BOOL, rng, config)
        r = RewConst(rng.choice(cfg.rewards))
        gammas = default_gammas(m, n, config, count=16, seed=seed * 737 + i)
        pair_eq(Rew(r, Or(m, n)), Or(Rew(r, m), Rew(r, n)), config, mon, gammas)
        if config.mode == "prob":
            l = gen_program(cfg, BOOL, rng, config)
            p = rng.choice(PROB_POOL)
            pair_eq(PChoice(p, l, Or(m, n)),
                    Or(PChoice(p, l, m), PChoice(p, l, n)), config, mon, gammas)
            pair_eq(PChoice(p, Or(m, n), l),
                    Or(PChoice(p, m, l), PChoice(p, n, l)), config, mon, gammas)

    return one


def _suite_canon_sound(seed, cases, mode, monad):
    cfg_r = GenConfig(seed=seed, max_term_size=25)
    cfg_p = GenConfig(seed=seed, max_term_size=20, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()
    w = make_monad("W", conf_r.structure)
    dw = make_monad("DW", conf_p.structure)

    def one(i):
        rng = _case_rng(seed, i)
        if i % 2:
            m = gen_program(cfg_p, BOOL, rng, conf_p)
            branches = weak_canon_prob(m, conf_p)
            c = weak_canonical_term(branches, "DW")
            gammas = default_gammas(m, c, conf_p, count=32, seed=seed * 641 + i)
            assert agree_at(m, c, conf_p, dw, gammas), \
                f"weak canonical term differs: {pretty(m)} vs {pretty(c)}"
            assert weak_canon_prob(c, conf_p) == branches, \
                f"weak canonicalization not idempotent on {pretty(m)}"
            return
        m = gen_program(cfg_r, BOOL, rng, conf_r)
        cf = canon_rewards(m, conf_r)
        vals = [pretty(v) for _, v in cf]
        assert len(set(vals)) == len(vals), f"duplicate canonical values: {vals}"
        c = canonical_term(cf)
        assert canon_rewards(c, conf_r) == cf, \
            f"canonicalization not idempotent on {pretty(m)}"
        gammas = default_gammas(m, c, conf_r, count=32, seed=seed * 641 + i)
        assert agree_at(m, c, conf_r, w, gammas), \
            f"canonical term differs: {pretty(m)} vs {pretty(c)}"
        assert select_program(m, conf_r) == select_program(c, conf_r), \
            f"selection differs from canonical term on {pretty(m)}"

    return one


def _suite_equiv_roundtrip(seed, cases, mode, monad):
    cfg = GenConfig(seed=seed, max_term_size=25, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad, config.structure)

    def one(i):
        rng = _case_rng(seed, i)
        if i % 2:
            m, n = gen_equivalent_pair(cfg, rng, config)
        else:
            m = gen_program(cfg, BOOL, rng, config)
            n = gen_program(cfg, BOOL, rng, config)
        gammas = default_gammas(m, n, config, count=64, seed=seed * 557 + i)
        ctx = distinguish_rewards(m, n, config)
        if ctx is None:
            assert agree_at(m, n, config, mon, gammas), \
                f"claimed equal but denotations differ: {pretty(m)} / {pretty(n)}"
        else:
            a = select_program(plug(ctx, m), config)
            b = select_program(plug(ctx, n), config)
            assert a != b, f"context does not separate: {pretty(ctx)}"

    return one


def _suite_purity_rewards(seed, cases, mode, monad):
    cfg = GenConfig(seed=seed, max_term_size=14, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad, config.structure)
    st = config.structure

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        gammas = default_gammas(m, m, config, count=32, seed=seed * 449 + i)
        d = denote(m, config, mon)
        c = decide_pure_rewards(m, config)
        if c is not None:
            cv = mon.unit(c)
            assert all(d(g) == cv for g in gammas), \
                f"claimed pure but varies: {pretty(m)}"
        else:
            w = rewards_impurity_witness(m, config)
            assert w is not None
            _, v0 = d(zero_gamma(config))
            out = d(gamma_from_table(w, config))
            assert out != (st.zero, v0), \
                f"witness fails on {pretty(m)}: {w} gives {out}"

    return one


def _suite_purity_prob(seed, cases, mode, monad):
    cfg = GenConfig(seed=seed, max_term_size=14, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad, config.structure)

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        res = decide_pure_prob(m, config, monad)
        d = denote(m, config, mon)
        gammas = default_gammas(m, m, config, count=32, seed=seed * 389 + i)
        if res.constant is not None:
            cv = mon.unit(res.constant)
            assert all(d(g) == cv for g in gammas), \
                f"claimed pure under {monad} but varies: {pretty(m)}"
            return
        at0 = d(zero_gamma(config))
        cand = next((c for c in config.constants_of("Bool")
                     if at0 == mon.unit(c)), None)
        if cand is None:
            return  # the zero table itself already separates
        assert res.witness is not None, f"impure without witness: {pretty(m)}"
        out = d(gamma_from_table(res.witness, config))
        assert out != mon.unit(cand), \
            f"witness fails on {pretty(m)}: {res.witness}"

    return one


def _unequal_pair(cfg, mon, atoms, rng):
    """Two different values of the monad over atoms, from up to 50 draws
    of a pair."""
    for _ in range(50):
        u = gen_monad_value(cfg, mon.name, atoms, rng)
        v = gen_monad_value(cfg, mon.name, atoms, rng)
        if u != v:
            return u, v
    raise AssertionError(f"{mon.name}: no unequal pair drawn")


def _suite_k_gamma(seed, cases, mode, monad):
    st = DEFAULT_STRUCTURE
    cfg = GenConfig(seed=seed)
    atoms = ("a", "b", "c")
    monads = [make_monad(x, st) for x in ("W", "DW", "T2", "T3", "MR")]
    cfg_r = GenConfig(seed=seed, max_term_size=15)
    cfg_p = GenConfig(seed=seed, max_term_size=15, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()

    def one(i):
        rng = _case_rng(seed, i)
        for mon in monads:
            u, v = _unequal_pair(cfg, mon, atoms, rng)
            if i % 7 == 0:
                table = {x: st.zero for x in atoms}
            else:
                table = {x: rng.choice(cfg.rewards) for x in atoms}
            gam = table.__getitem__
            assert k_gamma(gam, u, mon) != k_gamma(gam, v, mon), \
                f"{mon.name}: reward addition collapsed {u} and {v} at {table}"
        if i % 5 == 0:
            # reward addition agrees with the syntactic dispatcher context
            for cfgx, confx, mname in ((cfg_r, conf_r, "W"), (cfg_p, conf_p, "DW")):
                e = gen_program(cfgx, BOOL, rng, confx)
                tbl = gamma_tables("Bool", confx, count=2, seed=seed * 31 + i)[1]
                gamc = gamma_from_table(tbl, confx)
                mon = make_monad(mname, confx.structure)
                lhs = k_gamma(gamc, denote(e, confx, mon)(gamc), mon)
                kap = kappa_term(confx.constants_of("Bool"), tbl)
                rhs = denote(App(kap, e), confx, mon)(zero_gamma(confx))
                assert lhs == rhs, f"dispatcher square fails on {pretty(e)}"

    return one


def _suite_char_bool(seed, cases, mode, monad):
    st = DEFAULT_STRUCTURE
    cfg = GenConfig(seed=seed)
    monads = [make_monad(x, st) for x in ("W", "DW", "T2", "T3", "MR")]

    def one(i):
        rng = _case_rng(seed, i)
        k = rng.randint(2, 4)
        carrier = tuple(f"c{j}" for j in range(k))
        for mon in monads:
            u, v = _unequal_pair(cfg, mon, carrier, rng)
            separated = False
            for bits in itertools.product((0, 1), repeat=k):
                h = dict(zip(carrier, ("T" if b else "F" for b in bits)))
                mu = mon.bind(u, lambda x: mon.unit(h[x]))
                mv = mon.bind(v, lambda x: mon.unit(h[x]))
                if mu != mv:
                    separated = True
                    break
            assert separated, \
                f"{mon.name}: boolean maps cannot tell {u} from {v}"

    return one


def _suite_mr_fullab(seed, cases, mode, monad):
    cfg = GenConfig(seed=seed, mode=mode)
    config = cfg.lang()
    st = config.structure

    def canon_map(e):
        return {pretty(v): c for c, v in canon_rewards(e, config)}

    def one(i):
        rng = _case_rng(seed, i)
        if i == 0:
            # equal best rewards, different selected values: the reward
            # observation cannot tell a choice from its swap
            a, b = _TIE, _SWAPPED_TIE
            assert mr_of_effect(a, st) == mr_of_effect(b, st)
            oa, ob = select_fast(a, config), select_fast(b, config)
            assert oa[0] == ob[0] and oa[1] != ob[1]
            assert not decide_equiv_rewards(a, b, config), \
                "swap should not be a full equivalence"
            return
        e = gen_effect_value(cfg, rng, 10, "Bool", config)
        f = or_swap(e, rng) if i % 2 else gen_effect_value(cfg, rng, 10, "Bool", config)
        me, mf = mr_of_effect(e, st), mr_of_effect(f, st)
        assert me == mrval({v: c for c, v in canon_rewards(e, config)}), \
            f"fold disagrees with canonical entries on {pretty(e)}"
        assert (me == mf) == (canon_map(e) == canon_map(f)), \
            f"reward-observation equality mismatch: {pretty(e)} / {pretty(f)}"
        if i % 2:
            se, sf = select_fast(e, config)[0], select_fast(f, config)[0]
            assert se == sf, f"swap changed the optimal reward on {pretty(e)}"

    return one


def _suite_argmax(seed, cases, mode, monad):
    def one(i):
        rng = _case_rng(seed, i)
        # a maximizer over a split order is the biased max of the parts
        n = rng.randint(1, 9)
        k = rng.randint(0, n)
        scores = [Rational(rng.randint(-3, 3), rng.choice((1, 2)))
                  for _ in range(n)]
        g = scores.__getitem__
        whole = argmax(range(n), g)
        if k == 0:
            combined = argmax(range(k, n), g)
        elif k == n:
            combined = argmax(range(k), g)
        else:
            combined = max_by(g, argmax(range(k), g), argmax(range(k, n), g))
        assert whole == combined, f"split: {scores} at {k}: {whole} vs {combined}"
        # stagewise maximization over a lexicographic product is global
        np_, nq = rng.randint(1, 5), rng.randint(1, 5)
        table = {(u, v): Rational(rng.randint(-2, 2))
                 for u in range(np_) for v in range(nq)}
        pairs = [(u, v) for u in range(np_) for v in range(nq)]
        whole2 = argmax(pairs, table.__getitem__)
        loc = {u: argmax(range(nq), lambda v, u=u: table[(u, v)])
               for u in range(np_)}
        ubar = argmax(range(np_), lambda u: table[(u, loc[u])])
        assert whole2 == (ubar, loc[ubar]), \
            f"lex: {table}: {whole2} vs {(ubar, loc[ubar])}"

    return one


class Suite(NamedTuple):
    """``build(seed, cases, mode, monad)`` gets the suite's calculus and the
    monad ``suite_monad`` resolves.  A run checks ``cases * parts`` cases:
    the monad laws once per monad, the axiom suites once per axiom."""
    build: Callable
    cases: int             # by default
    parts: int
    calculus: str | None   # "rewards" or "prob"; None for both or neither
    monads: tuple          # one run may ask for these, the first by default;
                           # none when the suite loops over its own


SUITES: dict[str, Suite] = {
    "adequacy-rewards": Suite(_suite_adequacy, 500, 1, "rewards", ("W",)),
    "adequacy-prob-T1": Suite(_suite_adequacy, 300, 1, "prob", ("DW",)),
    "adequacy-prob-T2": Suite(_suite_adequacy, 300, 1, "prob", ("T2",)),
    "adequacy-prob-T3": Suite(_suite_adequacy, 300, 1, "prob", ("T3",)),
    "local-vs-brute": Suite(_suite_local_vs_brute, 300, 1, None, ()),
    "monad-laws": Suite(_suite_monad_laws, 1000, 5, None, ()),
    "theta-morphism": Suite(_suite_theta, 500, 1, None, ()),
    "axioms-fig3": Suite(_suite_axioms, 100, len(FIG3_AXIOMS), "rewards", ()),
    "axioms-fig4": Suite(_suite_axioms, 50, len(FIG4_AXIOMS), "prob", ()),
    "genax-or": Suite(_suite_genax_or, 200, 1, None, ()),
    "distributivity": Suite(_suite_distributivity, 200, 1, None, ()),
    "canon-sound": Suite(_suite_canon_sound, 300, 1, None, ()),
    "equiv-roundtrip": Suite(_suite_equiv_roundtrip, 200, 1, "rewards", ("W",)),
    "purity-rewards": Suite(_suite_purity_rewards, 200, 1, "rewards", ("W",)),
    "purity-prob": Suite(_suite_purity_prob, 200, 1, "prob", ("DW", "T2", "T3")),
    "k-gamma-injective": Suite(_suite_k_gamma, 500, 1, None, ()),
    "char-bool": Suite(_suite_char_bool, 200, 1, None, ()),
    "mr-fullab": Suite(_suite_mr_fullab, 300, 1, "rewards", ()),
    "argmax-lemmas": Suite(_suite_argmax, 500, 1, None, ()),
}


def suites() -> list[str]:
    """Registered property-suite names."""
    return list(SUITES)


def suite_monad(name: str, monad: str | None = None) -> str | None:
    """The monad a run of suite ``name`` reads: ``monad``, by default the
    first the suite declares.  Raises ValueError for one it does not."""
    declared = SUITES[name].monads
    if monad is not None and monad not in declared:
        raise ValueError(f"suite {name} does not take monad {monad}")
    return monad or next(iter(declared), None)


def _suite_slice(name: str, seed: int, cases: int, monad: str | None,
                 lo: int, hi: int) -> SuiteResult:
    """Cases lo..hi-1 of a suite; each failure names its suite, seed and
    case index, so it can be found again."""
    suite = SUITES[name]
    res = _run_cases(lo, hi, suite.build(seed, cases, suite.calculus, monad))
    res.failures = [f"{name} seed {seed} {f}" for f in res.failures]
    return res


def run_suite(name: str, seed: int = 0, cases: int | None = None,
              monad: str | None = None, jobs: int | None = None) -> SuiteResult:
    """Run a property suite, fanning cases out over a process pool.  Case
    results are reduced in index order, so the report does not depend on
    scheduling.  Raises ValueError for an unknown suite, a negative case
    count, or a monad the suite does not declare."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    if cases is not None and cases < 0:
        raise ValueError(f"cases must be nonnegative, got {cases}")
    monad = suite_monad(name, monad)
    n = SUITES[name].cases if cases is None else cases
    total = n * SUITES[name].parts
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    if jobs <= 1 or total < 2 * jobs:
        return _suite_slice(name, seed, n, monad, 0, total)
    step = -(-total // jobs)
    bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        slices = list(pool.map(_suite_slice, *zip(*[
            (name, seed, n, monad, lo, hi) for lo, hi in bounds])))
    passed = sum(s.passed for s in slices)
    failures = [f for s in slices for f in s.failures][:5]
    return SuiteResult(passed, total, failures)
