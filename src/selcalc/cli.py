"""Command-line entry point: evaluate under any semantics, canonicalize,
compare, decide purity, generate programs, and run the property suites.

Exit codes: 0 success / positive decision; 1 negative decision
(inequivalent, impure, suite violation found nothing to decide); 2
indeterminate; 3 usage, parse, or type error; 4 internal invariant
violation or resource exhaustion.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click

from .equations import (
    NoDistinguishingContext, canon_rewards, canonical_term, decide_equiv_prob,
    decide_equiv_rewards, decide_pure_prob, decide_pure_rewards,
    distinguish_rewards, rewards_impurity_witness, weak_canon_prob,
    weak_canonical_term,
)
from .monads import k_gamma, make_monad, mr_of_effect, mrval, theta
from .operational import BudgetExceeded, StuckTerm, eval_effect, trace_eval
from .rewards import (
    ConditionCUnavailable, DEFAULT_STRUCTURE, STRUCTURES, parse_reward,
)
from .selection import (
    ConstElem, FnElem, PairElem, RewElem, UnitElem, agree_at, denote,
    denote_value, embed_outcome, gamma_from_table, kappa_term, observe,
    zero_gamma,
)
from .strategies import (
    StrategyCapExceeded, argmax, max_by, outcome_score, select_bruteforce,
    select_fast, select_program,
)
from .syntax import (
    App, BOOL, Base, FF, Hole, LangConfig, Or, PChoice, REW, Rew, RewConst,
    SelSyntaxError, SelTypeError, TT, Term, _Parser, _lex, parse_program,
    plug, pretty, typecheck,
)
from .testgen import (
    AXIOM_MONADS, FIG3_AXIOMS, FIG4_AXIOMS, GenConfig, default_gammas,
    gamma_tables, gen_axiom_instance, gen_effect_value, gen_equivalent_pair,
    gen_kleisli, gen_monad_value, gen_program, gen_tie_effect, or_swap,
)

JSON_VERSION = "1"


### rendering

def _sem_str(x) -> str:
    match x:
        case ConstElem():
            return x.name
        case RewElem():
            return str(x.value)
        case UnitElem():
            return "<>"
        case PairElem():
            return f"<{_sem_str(x.fst)}, {_sem_str(x.snd)}>"
        case FnElem():
            return "<function>"
        case Term():
            return pretty(x)
        case _:
            return str(x)


def _outcome_atoms(out, config: LangConfig) -> list[dict[str, str]]:
    if config.mode == "rewards":
        r, v = out
        return [{"prob": "1", "reward": str(r), "value": _sem_str(v)}]
    return [{"prob": str(p), "reward": str(r), "value": _sem_str(v)}
            for (r, v), p in out.items()]


def _outcome_text(out, config: LangConfig) -> str:
    atoms = _outcome_atoms(out, config)
    if config.mode == "rewards":
        a = atoms[0]
        return f"reward {a['reward']}, value {a['value']}"
    return "; ".join(f"{a['prob']}: reward {a['reward']}, value {a['value']}"
                     for a in atoms)


def _monad_value_json(u, monad_name: str):
    match monad_name:
        case "W":
            r, v = u
            return {"reward": str(r), "value": _sem_str(v)}
        case "DW":
            return {"outcome": [{"prob": str(p), "reward": str(r),
                                 "value": _sem_str(x)} for (r, x), p in u.items()]}
        case "T2":
            return {"dist": [{"prob": str(p), "value": _sem_str(x)}
                             for x, p in u.dist.items()],
                    "rewards": [{"value": _sem_str(x), "reward": str(r)}
                                for x, r in u.rew]}
        case "T3":
            return {"dist": [{"prob": str(p), "value": _sem_str(x)}
                             for x, p in u.dist.items()],
                    "reward": str(u.rew)}
        case _:
            raise ValueError(f"no rendering for monad {monad_name}")


def _monad_value_text(u, monad_name: str) -> str:
    match monad_name:
        case "W":
            r, v = u
            return f"reward {r}, value {_sem_str(v)}"
        case "DW":
            return "; ".join(f"{p}: reward {r}, value {_sem_str(x)}"
                             for (r, x), p in u.items())
        case "T2":
            dist = ", ".join(f"{p} {_sem_str(x)}" for x, p in u.dist.items())
            rew = ", ".join(f"{_sem_str(x)} -> {r}" for x, r in u.rew)
            return f"dist: {dist}; rewards: {rew}"
        case "T3":
            dist = ", ".join(f"{p} {_sem_str(x)}" for x, p in u.dist.items())
            return f"dist: {dist}; reward {u.rew}"
        case _:
            raise ValueError(f"no rendering for monad {monad_name}")


def _table_str(table: dict[str, Fraction]) -> str:
    return json.dumps({k: str(v) for k, v in table.items()})


### file and flag handling

def _load(path: str, mode: str | None, structure_name: str | None):
    structure = STRUCTURES[structure_name] if structure_name else None
    prog = parse_program(Path(path).read_text(), mode=mode, structure=structure)
    typecheck(prog.term, config=prog.config)
    return prog


def _load_gamma(gamma_arg: str | None, config: LangConfig):
    if gamma_arg in (None, "zero"):
        return zero_gamma(config)
    raw = json.loads(Path(gamma_arg).read_text())
    if not isinstance(raw, dict):
        raise click.UsageError(
            f"valuation table must be a JSON object, got {type(raw).__name__}")
    try:
        table = {k: parse_reward(v) for k, v in raw.items()}
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise click.UsageError(f"bad valuation table: {e}")
    for k, v in table.items():
        if not config.has_constant(k):
            raise click.UsageError(f"gamma table names unknown constant {k!r}")
        if not config.structure.contains(v):
            raise click.UsageError(
                f"gamma entry {k}={v} lies outside {config.structure.name}")
    return gamma_from_table(table, config)


### property suites

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


def _suite_adequacy(seed, cases, monad, lo, hi, mode, monad_name) -> SuiteResult:
    cfg = GenConfig(seed=seed, max_term_size=40, max_order=2, mode=mode)
    config = cfg.lang()
    mon = make_monad(monad_name, config.structure)
    zero = zero_gamma(config)

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        lhs = denote(m, config, mon)(zero)
        rhs = embed_outcome(observe(m, config), config, mon)
        assert lhs == rhs, f"adequacy gap on {pretty(m)}: {lhs} vs {rhs}"

    return _run_cases(lo, hi, one)


def _suite_local_vs_brute(seed, cases, monad, lo, hi) -> SuiteResult:
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

    return _run_cases(lo, hi, one)


def _suite_monad_laws(seed, cases, monad, lo, hi) -> SuiteResult:
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

    return _run_cases(lo, hi, one)


def _suite_theta(seed, cases, monad, lo, hi) -> SuiteResult:
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
        p = rng.choice(cfg.prob_pool)
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

    return _run_cases(lo, hi, one)


def _suite_axioms(seed, cases, monad, lo, hi, names, mode) -> SuiteResult:
    cfg = GenConfig(seed=seed, max_term_size=40, mode=mode)
    config = cfg.lang()
    from .equations import apply_axiom

    def one(i):
        name = names[i // cases]
        t = gen_axiom_instance(name, cfg, _case_rng(seed, i), config)
        r = apply_axiom(name, t, (), config)
        monads = AXIOM_MONADS.get(name, ("W",) if mode == "rewards" else ("DW",))
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

    return _run_cases(lo, hi, one)


def _suite_genax_or(seed, cases, monad, lo, hi) -> SuiteResult:
    cfg_r = GenConfig(seed=seed, max_term_size=12)
    cfg_p = GenConfig(seed=seed, max_term_size=12, mode="prob")
    conf_r, conf_p = cfg_r.lang(), cfg_p.lang()
    zero = Fraction(0)

    def one(i):
        rng = _case_rng(seed, i)
        if i == 0:
            # choice is not commutative: swapping flips the tie-break
            m = Or(Rew(RewConst(zero), TT), Rew(RewConst(zero), FF))
            n = Or(Rew(RewConst(zero), FF), Rew(RewConst(zero), TT))
            mon = make_monad("W", conf_r.structure)
            z = zero_gamma(conf_r)
            a, b = denote(m, conf_r, mon)(z), denote(n, conf_r, mon)(z)
            assert a != b, "stored counterexample collapsed denotationally"
            oa, ob = observe(m, conf_r), observe(n, conf_r)
            assert oa != ob and oa[0] == ob[0], \
                "stored counterexample must differ in value only"
            return
        cfg, config = (cfg_r, conf_r) if i % 2 else (cfg_p, conf_p)
        mname = "W" if config.mode == "rewards" else "DW"
        mon = make_monad(mname, config.structure)
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

    return _run_cases(lo, hi, one)


def _suite_distributivity(seed, cases, monad, lo, hi) -> SuiteResult:
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
        mon = make_monad("W" if config.mode == "rewards" else "DW",
                         config.structure)
        m = gen_program(cfg, BOOL, rng, config)
        n = gen_program(cfg, BOOL, rng, config)
        r = RewConst(rng.choice(cfg.rewards))
        gammas = default_gammas(m, n, config, count=16, seed=seed * 737 + i)
        pair_eq(Rew(r, Or(m, n)), Or(Rew(r, m), Rew(r, n)), config, mon, gammas)
        if config.mode == "prob":
            l = gen_program(cfg, BOOL, rng, config)
            p = rng.choice(cfg.prob_pool)
            pair_eq(PChoice(p, l, Or(m, n)),
                    Or(PChoice(p, l, m), PChoice(p, l, n)), config, mon, gammas)
            pair_eq(PChoice(p, Or(m, n), l),
                    Or(PChoice(p, m, l), PChoice(p, n, l)), config, mon, gammas)

    return _run_cases(lo, hi, one)


def _suite_canon_sound(seed, cases, monad, lo, hi) -> SuiteResult:
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

    return _run_cases(lo, hi, one)


def _suite_equiv_roundtrip(seed, cases, monad, lo, hi) -> SuiteResult:
    cfg = GenConfig(seed=seed, max_term_size=25)
    config = cfg.lang()
    mon = make_monad("W", config.structure)

    def one(i):
        rng = _case_rng(seed, i)
        if i % 2:
            m, n = gen_equivalent_pair(cfg, rng, config)
        else:
            m = gen_program(cfg, BOOL, rng, config)
            n = gen_program(cfg, BOOL, rng, config)
        gammas = default_gammas(m, n, config, count=64, seed=seed * 557 + i)
        if decide_equiv_rewards(m, n, config):
            assert agree_at(m, n, config, mon, gammas), \
                f"claimed equal but denotations differ: {pretty(m)} / {pretty(n)}"
        else:
            ctx = distinguish_rewards(m, n, config)
            assert ctx is not None, \
                f"inequivalent without context: {pretty(m)} / {pretty(n)}"
            a = select_program(plug(ctx, m), config)
            b = select_program(plug(ctx, n), config)
            assert a != b, f"context does not separate: {pretty(ctx)}"

    return _run_cases(lo, hi, one)


def _suite_purity_rewards(seed, cases, monad, lo, hi) -> SuiteResult:
    cfg = GenConfig(seed=seed, max_term_size=14)
    config = cfg.lang()
    mon = make_monad("W", config.structure)
    st = config.structure

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        gammas = default_gammas(m, m, config, count=32, seed=seed * 449 + i)
        d = denote(m, config, mon)
        c = decide_pure_rewards(m, config)
        if c is not None:
            cv = mon.unit(denote_value(c, config, mon))
            assert all(d(g) == cv for g in gammas), \
                f"claimed pure but varies: {pretty(m)}"
        else:
            w = rewards_impurity_witness(m, config)
            assert w is not None
            _, v0 = d(zero_gamma(config))
            out = d(gamma_from_table(w, config))
            assert out != (st.zero, v0), \
                f"witness fails on {pretty(m)}: {w} gives {out}"

    return _run_cases(lo, hi, one)


def _suite_purity_prob(seed, cases, monad, lo, hi) -> SuiteResult:
    monad_name = monad or "DW"
    cfg = GenConfig(seed=seed, max_term_size=14, mode="prob")
    config = cfg.lang()
    mon = make_monad(monad_name, config.structure)

    def one(i):
        m = gen_program(cfg, BOOL, _case_rng(seed, i), config)
        res = decide_pure_prob(m, config, monad_name)
        d = denote(m, config, mon)
        gammas = default_gammas(m, m, config, count=32, seed=seed * 389 + i)
        if res.constant is not None:
            cv = mon.unit(denote_value(res.constant, config, mon))
            assert all(d(g) == cv for g in gammas), \
                f"claimed pure under {monad_name} but varies: {pretty(m)}"
            return
        at0 = d(zero_gamma(config))
        cand = None
        for c in config.constants_of("Bool"):
            if at0 == mon.unit(denote_value(c, config, mon)):
                cand = c
                break
        if cand is None:
            return  # the zero table itself already separates
        assert res.witness is not None, f"impure without witness: {pretty(m)}"
        out = d(gamma_from_table(res.witness, config))
        assert out != mon.unit(denote_value(cand, config, mon)), \
            f"witness fails on {pretty(m)}: {res.witness}"

    return _run_cases(lo, hi, one)


def _suite_k_gamma(seed, cases, monad, lo, hi) -> SuiteResult:
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
            for _ in range(50):
                u = gen_monad_value(cfg, mon.name, atoms, rng)
                v = gen_monad_value(cfg, mon.name, atoms, rng)
                if u != v:
                    break
            else:
                raise AssertionError(f"{mon.name}: no unequal pair drawn")
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

    return _run_cases(lo, hi, one)


def _suite_char_bool(seed, cases, monad, lo, hi) -> SuiteResult:
    st = DEFAULT_STRUCTURE
    cfg = GenConfig(seed=seed)
    monads = [make_monad(x, st) for x in ("W", "DW", "T2", "T3", "MR")]

    def one(i):
        rng = _case_rng(seed, i)
        k = rng.randint(2, 4)
        carrier = tuple(f"c{j}" for j in range(k))
        for mon in monads:
            for _ in range(50):
                u = gen_monad_value(cfg, mon.name, carrier, rng)
                v = gen_monad_value(cfg, mon.name, carrier, rng)
                if u != v:
                    break
            else:
                raise AssertionError(f"{mon.name}: no unequal pair drawn")
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

    return _run_cases(lo, hi, one)


def _suite_mr_fullab(seed, cases, monad, lo, hi) -> SuiteResult:
    cfg = GenConfig(seed=seed)
    config = cfg.lang()
    st = config.structure
    zero = Fraction(0)

    def canon_map(e):
        return {pretty(v): c for c, v in canon_rewards(e, config)}

    def one(i):
        rng = _case_rng(seed, i)
        if i == 0:
            # equal best rewards, different selected values: the reward
            # observation cannot tell a choice from its swap
            a = Or(Rew(RewConst(zero), TT), Rew(RewConst(zero), FF))
            b = Or(Rew(RewConst(zero), FF), Rew(RewConst(zero), TT))
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
            se = outcome_score(select_fast(e, config), config)
            sf = outcome_score(select_fast(f, config), config)
            assert se == sf, f"swap changed the optimal reward on {pretty(e)}"

    return _run_cases(lo, hi, one)


def _suite_argmax(seed, cases, monad, lo, hi) -> SuiteResult:
    def one(i):
        rng = _case_rng(seed, i)
        # a maximizer over a split order is the biased max of the parts
        n = rng.randint(1, 9)
        k = rng.randint(0, n)
        scores = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
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
        table = {(u, v): Fraction(rng.randint(-2, 2))
                 for u in range(np_) for v in range(nq)}
        pairs = [(u, v) for u in range(np_) for v in range(nq)]
        whole2 = argmax(pairs, table.__getitem__)
        loc = {u: argmax(range(nq), lambda v, u=u: table[(u, v)])
               for u in range(np_)}
        ubar = argmax(range(np_), lambda u: table[(u, loc[u])])
        assert whole2 == (ubar, loc[ubar]), \
            f"lex: {table}: {whole2} vs {(ubar, loc[ubar])}"

    return _run_cases(lo, hi, one)


def _suite_adequacy_rewards(s, c, m, lo, hi):
    return _suite_adequacy(s, c, m, lo, hi, "rewards", "W")


def _suite_adequacy_t1(s, c, m, lo, hi):
    return _suite_adequacy(s, c, m, lo, hi, "prob", "DW")


def _suite_adequacy_t2(s, c, m, lo, hi):
    return _suite_adequacy(s, c, m, lo, hi, "prob", "T2")


def _suite_adequacy_t3(s, c, m, lo, hi):
    return _suite_adequacy(s, c, m, lo, hi, "prob", "T3")


def _suite_axioms_fig3(s, c, m, lo, hi):
    return _suite_axioms(s, c, m, lo, hi, FIG3_AXIOMS, "rewards")


def _suite_axioms_fig4(s, c, m, lo, hi):
    return _suite_axioms(s, c, m, lo, hi, FIG4_AXIOMS, "prob")


# name -> (runner, default cases, total case count as a function of cases)
SUITES: dict[str, tuple] = {
    "adequacy-rewards": (_suite_adequacy_rewards, 500, lambda c: c),
    "adequacy-prob-T1": (_suite_adequacy_t1, 300, lambda c: c),
    "adequacy-prob-T2": (_suite_adequacy_t2, 300, lambda c: c),
    "adequacy-prob-T3": (_suite_adequacy_t3, 300, lambda c: c),
    "local-vs-brute": (_suite_local_vs_brute, 300, lambda c: c),
    "monad-laws": (_suite_monad_laws, 1000, lambda c: c * 5),
    "theta-morphism": (_suite_theta, 500, lambda c: c),
    "axioms-fig3": (_suite_axioms_fig3, 100, lambda c: c * len(FIG3_AXIOMS)),
    "axioms-fig4": (_suite_axioms_fig4, 50, lambda c: c * len(FIG4_AXIOMS)),
    "genax-or": (_suite_genax_or, 200, lambda c: c),
    "distributivity": (_suite_distributivity, 200, lambda c: c),
    "canon-sound": (_suite_canon_sound, 300, lambda c: c),
    "equiv-roundtrip": (_suite_equiv_roundtrip, 200, lambda c: c),
    "purity-rewards": (_suite_purity_rewards, 200, lambda c: c),
    "purity-prob": (_suite_purity_prob, 200, lambda c: c),
    "k-gamma-injective": (_suite_k_gamma, 500, lambda c: c),
    "char-bool": (_suite_char_bool, 200, lambda c: c),
    "mr-fullab": (_suite_mr_fullab, 300, lambda c: c),
    "argmax-lemmas": (_suite_argmax, 500, lambda c: c),
}


def suites() -> list[str]:
    """Registered property-suite names."""
    return list(SUITES)


def _suite_slice(name: str, seed: int, cases: int, monad: str | None,
                 lo: int, hi: int) -> SuiteResult:
    """Cases lo..hi-1 of a suite; each failure names its suite, seed and
    case index, so it can be found again."""
    res = SUITES[name][0](seed, cases, monad, lo, hi)
    res.failures = [f"{name} seed {seed} {f}" for f in res.failures]
    return res


def run_suite(name: str, seed: int = 0, cases: int | None = None,
              monad: str | None = None, jobs: int | None = None) -> SuiteResult:
    """Run a property suite, fanning cases out over a process pool.  Case
    results are reduced in index order, so the report does not depend on
    scheduling."""
    _, default_cases, total_of = SUITES[name]
    n = default_cases if cases is None else cases
    total = total_of(n)
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    if jobs <= 1 or total < 2 * jobs:
        return _suite_slice(name, seed, n, monad, 0, total)
    step = -(-total // jobs)
    bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_suite_slice, *zip(*[
            (name, seed, n, monad, lo, hi) for lo, hi in bounds])))
    passed = sum(p.passed for p in parts)
    failures = [f for p in parts for f in p.failures][:5]
    return SuiteResult(passed, total, failures)


def _resolve_suite(name: str, mode: str | None, monad: str | None) -> str:
    if name in SUITES:
        return name
    mode = mode or "rewards"
    monad = {"T1": "DW"}.get(monad, monad)
    fallbacks = {
        ("adequacy", "rewards"): "adequacy-rewards",
        ("adequacy", "prob"): {None: "adequacy-prob-T1", "DW": "adequacy-prob-T1",
                               "T2": "adequacy-prob-T2", "T3": "adequacy-prob-T3"},
        ("axioms", "rewards"): "axioms-fig3",
        ("axioms", "prob"): "axioms-fig4",
        ("purity", "rewards"): "purity-rewards",
        ("purity", "prob"): "purity-prob",
    }
    hit = fallbacks.get((name, mode))
    if isinstance(hit, dict):
        hit = hit.get(monad)
    if hit is None:
        raise click.UsageError(
            f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return hit


### commands

@click.group()
def _cli():
    """Two small calculi of choices and rewards, interpreted by globally
    optimizing selection."""


@_cli.command("eval")
@click.option("--semantics", default="selection", show_default=True,
              type=click.Choice(["ordinary", "selection", "denotational"]))
@click.option("--monad", "monad_name",
              type=click.Choice(["W", "DW", "T2", "T3"]), default=None)
@click.option("--gamma", "gamma_arg", default=None,
              help="'zero' or a JSON valuation table file")
@click.option("--oracle", is_flag=True,
              help="use exhaustive strategy search (selection only)")
@click.option("--trace", is_flag=True, help="print each step (ordinary only)")
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def eval_cmd(semantics, monad_name, gamma_arg, oracle, trace, mode,
             structure_name, as_json, file):
    """Evaluate FILE under the chosen semantics."""
    if monad_name and semantics != "denotational":
        raise click.UsageError("--monad needs --semantics denotational")
    if gamma_arg and semantics != "denotational":
        raise click.UsageError("--gamma needs --semantics denotational")
    if oracle and semantics != "selection":
        raise click.UsageError("--oracle needs --semantics selection")
    if trace and semantics != "ordinary":
        raise click.UsageError("--trace needs --semantics ordinary")
    prog = _load(file, mode, structure_name)
    config, term = prog.config, prog.term

    if semantics == "ordinary":
        if trace:
            for depth, t in trace_eval(term, config):
                click.echo("  " * depth + pretty(t))
        e = eval_effect(term, config)
        if as_json:
            click.echo(json.dumps({"version": JSON_VERSION, "effect": pretty(e)}))
        else:
            click.echo(pretty(e))
        return 0

    if semantics == "selection":
        out = select_bruteforce(term, config) if oracle else \
            select_program(term, config)
        if as_json:
            click.echo(json.dumps({"version": JSON_VERSION,
                                   "outcome": _outcome_atoms(out, config)}))
        else:
            click.echo(_outcome_text(out, config))
        return 0

    mname = monad_name or ("W" if config.mode == "rewards" else "DW")
    if (mname == "W") != (config.mode == "rewards"):
        raise click.UsageError(f"monad {mname} does not fit mode {config.mode}")
    gam = _load_gamma(gamma_arg, config)
    u = denote(term, config, make_monad(mname, config.structure))(gam)
    if as_json:
        payload = {"version": JSON_VERSION, "monad": mname}
        payload.update(_monad_value_json(u, mname))
        click.echo(json.dumps(payload))
    else:
        click.echo(_monad_value_text(u, mname))
    return 0


@_cli.command()
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["DW", "T2", "T3"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def canon(mode, monad_name, structure_name, as_json, file):
    """Print the canonical form of FILE."""
    prog = _load(file, mode, structure_name)
    config, term = prog.config, prog.term
    if config.mode == "rewards":
        if monad_name:
            raise click.UsageError("--monad applies to probabilistic mode")
        c = canonical_term(canon_rewards(term, config))
    else:
        mname = monad_name or "DW"
        c = weak_canonical_term(weak_canon_prob(term, config, mname), mname)
    if as_json:
        click.echo(json.dumps({"version": JSON_VERSION, "canonical": pretty(c)}))
    else:
        click.echo(pretty(c))
    return 0


def _prob_separating_context(m, n, config, monad_name):
    ty = typecheck(m, config=config)
    if not isinstance(ty, Base):
        return None, None
    mon = make_monad(monad_name, config.structure)
    dm, dn = denote(m, config, mon), denote(n, config, mon)
    for table in gamma_tables(ty.name, config, count=64, seed=0):
        g = gamma_from_table(table, config)
        if dm(g) != dn(g):
            consts = config.constants_of(ty.name)
            return App(kappa_term(consts, table), Hole()), table
    return None, None


@_cli.command()
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["DW", "T2", "T3"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
def equiv(mode, monad_name, structure_name, as_json, file_a, file_b):
    """Decide whether two programs are observationally equivalent."""
    pa = _load(file_a, mode, structure_name)
    pb = _load(file_b, mode or pa.config.mode, structure_name
               or pa.config.structure.name)
    if pa.config.mode != pb.config.mode:
        raise click.UsageError("the two programs declare different modes")
    config = pa.config
    m, n = pa.term, pb.term

    def emit(verdict, extra=None):
        if as_json:
            payload = {"version": JSON_VERSION, "equivalent": verdict}
            payload.update(extra or {})
            click.echo(json.dumps(payload))

    if config.mode == "rewards":
        if monad_name:
            raise click.UsageError("--monad applies to probabilistic mode")
        if decide_equiv_rewards(m, n, config):
            emit(True)
            if not as_json:
                click.echo("equivalent")
            return 0
        ctx = distinguish_rewards(m, n, config)
        a = select_program(plug(ctx, m), config)
        b = select_program(plug(ctx, n), config)
        emit(False, {"context": pretty(ctx),
                     "left": _outcome_atoms(a, config),
                     "right": _outcome_atoms(b, config)})
        if not as_json:
            click.echo("inequivalent")
            click.echo(f"context: {pretty(ctx)}")
            click.echo(f"context[A]: {_outcome_text(a, config)}")
            click.echo(f"context[B]: {_outcome_text(b, config)}")
        return 1

    mname = monad_name or "DW"
    verdict = decide_equiv_prob(m, n, config, mname)
    if verdict is True:
        emit(True)
        if not as_json:
            click.echo("equivalent")
        return 0
    if verdict is False:
        ctx, table = _prob_separating_context(m, n, config, mname)
        extra = {}
        lines = ["inequivalent"]
        if ctx is not None:
            a = observe(plug(ctx, m), config, mname)
            b = observe(plug(ctx, n), config, mname)
            extra = {"context": pretty(ctx), "gamma": {k: str(v) for k, v
                                                       in table.items()},
                     "left": _monad_value_json(a, mname),
                     "right": _monad_value_json(b, mname)}
            lines += [f"context: {pretty(ctx)}",
                      f"gamma: {_table_str(table)}",
                      f"context[A]: {_monad_value_text(a, mname)}",
                      f"context[B]: {_monad_value_text(b, mname)}"]
        emit(False, extra)
        if not as_json:
            for line in lines:
                click.echo(line)
        return 1
    emit(None)
    if not as_json:
        click.echo("unknown")
    return 2


@_cli.command()
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["DW", "T2", "T3"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def pure(mode, monad_name, structure_name, as_json, file):
    """Decide whether FILE is equivalent to a single value."""
    prog = _load(file, mode, structure_name)
    config, term = prog.config, prog.term
    if config.mode == "rewards":
        if monad_name:
            raise click.UsageError("--monad applies to probabilistic mode")
        c = decide_pure_rewards(term, config)
        witness = None
        if c is None:
            try:
                witness = rewards_impurity_witness(term, config)
            except ValueError:
                witness = None
    else:
        res = decide_pure_prob(term, config, monad_name or "DW")
        c, witness = res.constant, res.witness
    if c is not None:
        if as_json:
            click.echo(json.dumps({"version": JSON_VERSION, "pure": True,
                                   "value": pretty(c)}))
        else:
            click.echo(f"pure: {pretty(c)}")
        return 0
    if as_json:
        payload = {"version": JSON_VERSION, "pure": False}
        if witness is not None:
            payload["witness"] = {k: str(v) for k, v in witness.items()}
        click.echo(json.dumps(payload))
    else:
        click.echo("impure")
        if witness is not None:
            click.echo(f"witness gamma: {_table_str(witness)}")
    return 1


@_cli.command()
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["DW", "T2", "T3"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def distinguish(ctx, mode, monad_name, structure_name, as_json, file_a, file_b):
    """Exhibit a context separating two programs, when one exists."""
    code = ctx.invoke(equiv, mode=mode, monad_name=monad_name,
                      structure_name=structure_name, as_json=as_json,
                      file_a=file_a, file_b=file_b)
    # a found context is this command's success; equivalence its failure
    return {0: 1, 1: 0}.get(code, code)


@_cli.command()
@click.option("--seed", default=0, type=int)
@click.option("--size", default=40, type=int, help="node budget per program")
@click.option("--type", "type_text", default="Bool")
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default="rewards")
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--max-order", default=2, type=int)
@click.option("--count", default=1, type=int)
def gen(seed, size, type_text, mode, structure_name, max_order, count):
    """Emit seeded random programs, one per line."""
    structure = STRUCTURES[structure_name] if structure_name else DEFAULT_STRUCTURE
    cfg = GenConfig(seed=seed, max_term_size=size, max_order=max_order,
                    mode=mode, structure=structure)
    config = cfg.lang()
    parser = _Parser(_lex(type_text), config)
    target = parser.type_()
    parser.expect("eof")
    if target == REW:
        raise click.UsageError("generation targets value types, not Rew")
    from .syntax import type_rank
    if type_rank(target) > max_order:
        raise click.UsageError(
            f"type {type_text!r} exceeds --max-order {max_order}")
    rng = cfg.rng()
    for _ in range(count):
        click.echo(pretty(gen_program(cfg, target, rng, config)))
    return 0


@_cli.command()
@click.option("--suite", required=True)
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["T1", "DW", "T2", "T3"]), default=None)
@click.option("--seed", default=0, type=int)
@click.option("--cases", default=None, type=int)
@click.option("--jobs", default=None, type=int, help="worker processes")
@click.option("--json", "as_json", is_flag=True)
def check(suite, mode, monad_name, seed, cases, jobs, as_json):
    """Run a property suite and report pass counts."""
    name = _resolve_suite(suite, mode, monad_name)
    n = SUITES[name][1] if cases is None else cases
    if n < 0:
        raise click.UsageError("--cases must be nonnegative")
    if n == 0:
        click.echo(f"warning: suite {name} ran no cases", err=True)
        click.echo(json.dumps({"version": JSON_VERSION, "suite": name,
                               "passed": 0, "total": 0, "ok": True})
                   if as_json else "0/0 OK")
        return 0
    mn = {"T1": "DW"}.get(monad_name, monad_name)
    res = run_suite(name, seed, n, mn, jobs)
    if as_json:
        click.echo(json.dumps({"version": JSON_VERSION, "suite": name,
                               "passed": res.passed, "total": res.total,
                               "ok": res.ok, "failures": res.failures}))
    else:
        click.echo(f"{res.passed}/{res.total} {'OK' if res.ok else 'FAIL'}")
    if not res.ok:
        for f in res.failures:
            click.echo(f"failure: {f}", err=True)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        code = _cli.main(args=argv, standalone_mode=False)
        return 0 if code is None else int(code)
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show(file=sys.stderr)
        return 3
    except (SelSyntaxError, SelTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as e:
        print(f"error: bad JSON input: {e}", file=sys.stderr)
        return 3
    except (BudgetExceeded, StrategyCapExceeded, StuckTerm) as e:
        print(f"resource or invariant failure: {e}", file=sys.stderr)
        return 4
    except (ConditionCUnavailable, NoDistinguishingContext) as e:
        print(f"indeterminate: {e}", file=sys.stderr)
        return 2
    except click.Abort:
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
