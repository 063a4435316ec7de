"""Equational reasoning: canonical forms, equivalence and purity decisions,
distinguishing contexts, and named rewrite axioms.

Rewards mode has a complete story: every program of base type normalizes to
an or-chain of rewarded values with no value repeated, two programs are
contextually equivalent exactly when their canonical forms coincide, and
differing canonical forms yield an explicit distinguishing context.

Probabilistic mode gets a weak canonical form (an or-chain of probabilistic
reward-values, normalized per auxiliary monad), a sound but incomplete
equivalence check, and a purity decision that either certifies a program
equal to a constant or produces a valuation under which the optimizer
provably picks something else.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .monads import Dist, make_monad, theta, vdis
from .operational import DEFAULT_BUDGET, eval_effect
from .syntax import (
    App, Base, Const, FnApp, Fst, Hole, If, LangConfig, Lam, Or, PChoice,
    Pair, Prod, Rew, RewConst, Snd, Star, Term, TT, FF, UNIT, Var, alpha_eq,
    fold_effect, is_value, pretty, replace_at, subterm_at,
)


### canonical forms, rewards mode

def canon_rewards(m: Term, config: LangConfig,
                  budget: int = DEFAULT_BUDGET) -> list[tuple[Fraction, Term]]:
    """Canonical form of a rewards-mode program: an ordered list of
    (reward, value) entries with no value repeated.

    Flattening pushes accumulated rewards to the leaves; deduplication folds
    left to right, keeping the earlier entry when its reward is at least the
    later one's and otherwise deleting it and appending the later entry.
    Both moves are instances of the choice axioms, so the result is provably
    equal to the program.
    """
    st = config.structure
    entries = fold_effect(eval_effect(m, config, budget),
                          lambda v: [(st.zero, v)], operator.add,
                          lambda c, es: [(st.add(c, r), v) for r, v in es])
    out: list[tuple[Fraction, Term]] = []
    for c, v in entries:
        for k, (ck, vk) in enumerate(out):
            if alpha_eq(v, vk):
                if st.leq(c, ck):
                    break
                del out[k]
                out.append((c, v))
                break
        else:
            out.append((c, v))
    return out


def canonical_term(cf: list[tuple[Fraction, Term]]) -> Term:
    """Render a canonical form back into a left-nested or-chain."""
    parts = [Rew(RewConst(c), v) for c, v in cf]
    t = parts[0]
    for p in parts[1:]:
        t = Or(t, p)
    return t


def canon_equal(a: list[tuple[Fraction, Term]], b: list[tuple[Fraction, Term]]) -> bool:
    return (len(a) == len(b)
            and all(c1 == c2 and alpha_eq(v1, v2)
                    for (c1, v1), (c2, v2) in zip(a, b)))


def decide_equiv_rewards(m: Term, n: Term, config: LangConfig,
                         budget: int = DEFAULT_BUDGET) -> bool:
    return canon_equal(canon_rewards(m, config, budget),
                       canon_rewards(n, config, budget))


def decide_pure_rewards(m: Term, config: LangConfig,
                        budget: int = DEFAULT_BUDGET) -> Term | None:
    """The value this program is equivalent to, if any: a single canonical
    entry carrying the zero reward."""
    cf = canon_rewards(m, config, budget)
    if len(cf) == 1 and cf[0][0] == config.structure.zero:
        return cf[0][1]
    return None


def rewards_impurity_witness(m: Term, config: LangConfig,
                             budget: int = DEFAULT_BUDGET
                             ) -> dict[str, Fraction] | None:
    """A valuation table under which the program's denotation differs from
    the unit of its zero-valuation winner, or None when the program is
    pure.  Canonical values must be constants."""
    cf = canon_rewards(m, config, budget)
    st = config.structure
    if len(cf) == 1 and cf[0][0] == st.zero:
        return None
    if not all(isinstance(v, Const) for _, v in cf):
        raise ValueError("witness construction needs constant-valued programs")
    names = [v.name for _, v in cf]
    zero_table = {name: st.zero for name in names}
    best, i0 = cf[0][0], 0
    for k, (c, _) in enumerate(cf[1:], start=1):
        if not st.leq(c, best):
            best, i0 = c, k
    if cf[i0][0] != st.zero:
        # the winner itself carries a nonzero reward
        return zero_table
    # boost some other entry past the zero-table winner
    j = next(k for k in range(len(cf)) if k != i0)
    cj = cf[j][0]
    candidates = [best - cj + 1]
    if cj != 0:
        candidates.append((best / cj) * 2)
    for g in candidates:
        if not st.contains(g) or st.leq(st.add(cj, g), best):
            continue
        table = dict(zero_table)
        table[names[j]] = g
        return table
    raise ValueError(f"no witness entry found within {st.name}")


### distinguishing contexts, rewards mode

class NoDistinguishingContext(Exception):
    """Raised when two programs' canonical forms differ but no context
    separating them can be built: the reward structure has no procedure
    for it, the values to tell apart are not ground, or (probabilistic
    mode) valuations of the programs' type cannot be sampled."""


def _ground_type(v: Term):
    """The type of a ground value (constants, ``*`` and pairs of them),
    or None for any other value."""
    match v:
        case Const(_, base, _):
            return Base(base)
        case Star():
            return UNIT
        case Pair(a, b):
            ta, tb = _ground_type(a), _ground_type(b)
            return None if ta is None or tb is None else Prod(ta, tb)
    return None


def _equals(x: Term, v: Term) -> Term:
    """A Bool term testing the ground value x against v, comparing
    constants with ``==`` and pairs component by component (``*`` needs
    no test)."""
    match v:
        case Const():
            return FnApp("==", (x, v))
        case Pair(a, b):
            ta, tb = _equals(Fst(x), a), _equals(Snd(x), b)
            return tb if ta == TT else ta if tb == TT else If(ta, tb, FF)
    return TT


def distinguish_rewards(m: Term, n: Term, config: LangConfig,
                        budget: int = DEFAULT_BUDGET) -> Term | None:
    """A context C with a hole such that C[m] and C[n] have different
    optimal outcomes; None when the programs are equivalent.

    The context compares the program's result against a chosen constant and
    grants rewards placing that constant's entry just above or below the
    competition, so canonical forms that differ in entries, rewards, or
    order become observably different.
    """
    a = canon_rewards(m, config, budget)
    b = canon_rewards(n, config, budget)
    if canon_equal(a, b):
        return None
    st = config.structure
    if st.name != "AddRationals":
        raise NoDistinguishingContext(
            f"distinguishing contexts are built over AddRationals, not {st.name}")
    low, high = Fraction(0), Fraction(1)

    def find(entries, v):
        for i, (c, w) in enumerate(entries):
            if alpha_eq(w, v):
                return i
        return None

    def one_sided(a, b):
        """An entry of a whose value is missing in b, or is cheaper in a."""
        for i0, (c, v) in enumerate(a):
            j = find(b, v)
            if j is None:
                return i0
            if c < b[j][0]:
                return i0
        return None

    def context_value_gap(entries, i0, other):
        c0, v0 = entries[i0]
        rest = [c for k, (c, _) in enumerate(entries) if k != i0]
        rest += [c for c, _ in other]
        cap = max(rest) if rest else Fraction(0)
        yes, no = Rew(RewConst(cap + high), TT), Rew(RewConst(c0 + low), TT)
        ty = _ground_type(v0)
        if ty is None:
            raise NoDistinguishingContext(
                f"distinguishing contexts are built over ground values, not {pretty(v0)}")
        if isinstance(v0, Const):
            return If(FnApp("==", (Hole(), v0)), yes, no)
        return App(Lam("x", ty, If(_equals(Var("x"), v0), yes, no)), Hole())

    i0 = one_sided(a, b)
    if i0 is not None:
        return context_value_gap(a, i0, b)
    j0 = one_sided(b, a)
    if j0 is not None:
        return context_value_gap(b, j0, a)

    # same entries, different order: split at the first differing position
    i = next(k for k in range(len(a)) if not (a[k][0] == b[k][0]
                                              and alpha_eq(a[k][1], b[k][1])))
    c_a, v_a = a[i]
    c_b, v_b = b[i]
    ty = _ground_type(v_a)
    if ty is None:
        raise NoDistinguishingContext(
            f"distinguishing contexts are built over ground values, not {pretty(v_a)}")
    cap = max([c for c, _ in a] + [c for c, _ in b])
    x = Var("x")
    body = If(_equals(x, v_a),
              Rew(RewConst(cap + c_b + high), TT),
              If(_equals(x, v_b),
                 Rew(RewConst(cap + c_a + high), FF),
                 Rew(RewConst(c_a + c_b + low), FF)))
    return App(Lam("x", ty, body), Hole())


### weak canonical forms, probabilistic mode

def pr_branches(e: Term, config: LangConfig) -> list[Dist]:
    """Distribute rewards and probabilistic choice over ``or``, turning an
    effect value into an or-chain of probabilistic reward-values, each
    represented as a distribution of (reward, value) atoms.  The cross
    product of a probabilistic choice enumerates left branches in the outer
    position."""
    dw = make_monad("DW", config.structure)
    return fold_effect(
        e, lambda v: [dw.unit(v)], operator.add,
        lambda c, ds: [dw.reward(c, d) for d in ds],
        lambda p, das, dbs: [dw.pchoice(p, da, db) for da in das for db in dbs])


def weak_canon_prob(m: Term, config: LangConfig, monad_name: str = "DW",
                    budget: int = DEFAULT_BUDGET) -> list:
    """Weak canonical form: the or-branches of the program, each normalized
    in the chosen monad, with later duplicates dropped."""
    monad = make_monad(monad_name, config.structure)
    branches = [theta(d, monad) for d in pr_branches(eval_effect(m, config, budget), config)]
    out = []
    for b in branches:
        if b not in out:
            out.append(b)
    return out


def _dw_chain(atoms: list[tuple[Fraction, Fraction, Term]]) -> Term:
    """Weighted rewarded values rendered as a right-nested probabilistic
    chain; each atom is (probability, reward, value)."""
    total = sum(p for p, _, _ in atoms)
    p, r, v = atoms[0]
    leaf = Rew(RewConst(r), v)
    if len(atoms) == 1:
        return leaf
    return PChoice(p / total, leaf, _dw_chain(atoms[1:]))


def weak_canonical_term(branches: list, monad_name: str) -> Term:
    """Render a weak canonical form back into syntax."""
    def branch_term(b):
        match monad_name:
            case "DW":
                return _dw_chain([(p, r, x) for (r, x), p in b.items()])
            case "T2":
                return _dw_chain([(b.dist.prob(x), b.rho(x), x)
                                  for x in b.dist.support()])
            case "T3":
                vals = [(b.dist.prob(x), Fraction(0), x) for x in b.dist.support()]
                return Rew(RewConst(b.rew), _dw_chain(vals))
            case _:
                raise ValueError(f"no term rendering for monad {monad_name}")

    t = branch_term(branches[0])
    for b in branches[1:]:
        t = Or(t, branch_term(b))
    return t


def decide_equiv_prob(m: Term, n: Term, config: LangConfig,
                      monad_name: str = "DW", gammas=None,
                      budget: int = DEFAULT_BUDGET) -> bool | None:
    """True when the weak canonical forms coincide; False when a sampled
    valuation separates the denotations; None (unknown) otherwise.
    Raises NoDistinguishingContext when valuations must be sampled for a
    type other than a finite base."""
    return separate_prob(m, n, config, monad_name, gammas, budget)[0]


def separate_prob(m: Term, n: Term, config: LangConfig,
                  monad_name: str = "DW", gammas=None,
                  budget: int = DEFAULT_BUDGET):
    """``decide_equiv_prob``'s verdict with the valuation behind a False:
    (True, None), (False, the first separating valuation) or (None, None).
    gammas may hold reward continuations or valuation tables; by default
    they are the programs' 64 ``default_tables``."""
    wm = weak_canon_prob(m, config, monad_name, budget)
    wn = weak_canon_prob(n, config, monad_name, budget)
    if wm == wn:
        return True, None
    from .selection import denote, gamma_from_table
    from .testgen import default_tables
    if gammas is None:
        gammas = default_tables(m, n, config)
    monad = make_monad(monad_name, config.structure)
    dm = denote(m, config, monad)
    dn = denote(n, config, monad)
    for w in gammas:
        g = w if callable(w) else gamma_from_table(w, config)
        if dm(g) != dn(g):
            return False, w
    return None, None


### purity, probabilistic mode

@dataclass
class PurityResult:
    constant: Term | None            # the constant when pure
    witness: dict[str, Fraction] | None  # valuation table when impure


def _branch_view(b, monad_name: str, zero: Fraction):
    """(value distribution, reward floor, unit flag) of a normalized branch.
    The floor satisfies: expected reward under any valuation is at least
    floor combined with the average valuation."""
    match monad_name:
        case "DW":
            vd = vdis(b)
            floor = min(r for (r, _), _ in b.items())
            unit = len(b.items()) == 1 and b.items()[0][0][0] == zero
        case "T2":
            vd = b.dist
            floor = min(r for _, r in b.rew)
            unit = len(vd.items()) == 1 and b.rew[0][1] == zero
        case "T3":
            vd = b.dist
            floor = b.rew
            unit = len(vd.items()) == 1 and b.rew == zero
        case _:
            raise ValueError(f"no purity procedure for monad {monad_name}")
    return vd, floor, unit


def decide_pure_prob(m: Term, config: LangConfig, monad_name: str = "DW",
                     budget: int = DEFAULT_BUDGET) -> PurityResult:
    """Decide whether the program is equivalent to a constant.

    The winning or-branch at the zero valuation must itself be the unit on
    some constant; every competing branch must either sit entirely on that
    constant (in which case the optimizer can never prefer it in a way that
    changes the outcome) or else admits a valuation making it strictly
    better than the constant, which is returned as an impurity witness.

    Raises ConditionCUnavailable when a competing branch's reward floor is
    below zero and the structure has no discrimination witness, and
    NoDistinguishingContext when the program is not of a finite base type.
    """
    st = config.structure
    monad = make_monad(monad_name, config.structure)
    branches = weak_canon_prob(m, config, monad_name, budget)
    zero_g = lambda x: st.zero
    scores = [monad.expect(b, zero_g) for b in branches]
    best = max(scores)
    i0 = scores.index(best)
    vd0, _, unit0 = _branch_view(branches[i0], monad_name, st.zero)

    consts = _value_support(m, config)

    def table(cbar_name: str, on_cbar: Fraction, elsewhere: Fraction):
        return {c.name: (on_cbar if c.name == cbar_name else elsewhere)
                for c in consts}

    if not unit0:
        return PurityResult(None, {c.name: st.zero for c in consts})
    cbar = vd0.support()[0]

    for i, b in enumerate(branches):
        if i == i0:
            continue
        vd, floor, _ = _branch_view(b, monad_name, st.zero)
        off_mass = sum(vd.prob(x) for x in vd.support() if x != cbar)
        if off_mass == 0:
            continue
        if off_mass == 1:
            # the branch never lands on the constant: pay the constant only
            # its floor, pay everything else strictly more
            low, high = st.zero, st.zero + 1
            return PurityResult(None, table(cbar.name, st.add(floor, low), high))
        # mixed support: need the floor recoverable against the split mass
        if st.leq(st.zero, floor):
            low, high = st.zero, st.zero + 1
        else:
            low, high = st.condition_c_witness(off_mass, floor)
        return PurityResult(None, table(cbar.name, low, high))

    return PurityResult(cbar, None)


def _value_support(m: Term, config: LangConfig) -> list[Const]:
    """Constants of the program's base type (used to build valuations)."""
    vs = fold_effect(eval_effect(m, config), lambda v: [v], operator.add,
                     lambda c, b: b, lambda p, a, b: a + b)
    if not all(isinstance(v, Const) for v in vs):
        raise NoDistinguishingContext(
            "purity decision applies to programs of base type")
    return config.constants_of(vs[0].base)


### named axioms

class NoMatch(Exception):
    pass


def _pr_flatten(t: Term) -> list[tuple[Fraction, Term, Term]] | None:
    """Flatten a term in probabilistic-reward form into weighted
    (reward term, target) leaves, left to right; None if it is not of that
    shape."""
    out = []
    stack = [(Fraction(1), t)]
    while stack:
        w, s = stack.pop()
        match s:
            case Rew(param, l):
                out.append((w, param, l))
            case PChoice(p, a, b):
                stack += [((1 - p) * w, b), (p * w, a)]
            case _:
                return None
    return out


def _pr_value_info(t: Term, config: LangConfig):
    """(expected reward, marginal weight per target) for a probabilistic
    reward-value with constant rewards; None otherwise.  The marginal keys
    targets by their printed form."""
    flat = _pr_flatten(t)
    if flat is None:
        return None
    total = Fraction(0)
    marginal: dict[str, Fraction] = {}
    for w, r, l in flat:
        if not isinstance(r, RewConst) or not is_value(l):
            return None
        total += w * r.value
        key = pretty(l)
        marginal[key] = marginal.get(key, Fraction(0)) + w
    return total, marginal


def _same_pr_targets(m: Term, n: Term, config: LangConfig):
    """Expected rewards of two probabilistic reward-values whose target
    marginals coincide, which makes their expected-reward gap independent
    of the valuation; otherwise no match.  Structures whose monoid does not
    mix through convex combination only support a single shared target."""
    im = _pr_value_info(m, config)
    in_ = _pr_value_info(n, config)
    if im is None or in_ is None or im[1] != in_[1]:
        raise NoMatch
    if len(im[1]) > 1 and not config.structure.mixing_verified:
        raise NoMatch
    return im[0], in_[0]


def _eval_closed_reward(t: Term, config: LangConfig) -> Fraction:
    """Value of a closed reward term built from constants, +, and oplus."""
    match t:
        case RewConst(v):
            return v
        case FnApp("+", (a, b), _):
            return config.structure.add(_eval_closed_reward(a, config),
                                        _eval_closed_reward(b, config))
        case FnApp("oplus", (a, b), p):
            return config.structure.convex(p, _eval_closed_reward(a, config),
                                           _eval_closed_reward(b, config))
        case _:
            raise NoMatch


def _ax_or_idem(t, config):
    match t:
        case Or(a, b) if alpha_eq(a, b):
            return a
    raise NoMatch


def _ax_or_assoc(t, config):
    match t:
        case Or(Or(l, m), n):
            return Or(l, Or(m, n))
    raise NoMatch


def _ax_reward_zero(t, config):
    match t:
        case Rew(RewConst(c), n) if c == config.structure.zero:
            return n
    raise NoMatch


def _ax_reward_action(t, config):
    match t:
        case Rew(x, Rew(y, n)):
            return Rew(FnApp("+", (x, y)), n)
    raise NoMatch


def _ax_reward_or(t, config):
    match t:
        case Rew(x, Or(m, n)):
            return Or(Rew(x, m), Rew(x, n))
    raise NoMatch


def _ax_if_max(t, config):
    match t:
        case If(FnApp("<=", (y1, x1), _), Rew(x2, m), Rew(y2, n)) if (
                alpha_eq(x1, x2) and alpha_eq(y1, y2) and alpha_eq(m, n)):
            return Or(Rew(x1, m), Rew(y1, m))
    raise NoMatch


def _ax_if_max_chain(t, config):
    match t:
        case If(FnApp("<=", (z1, x1), _),
                Or(Rew(x2, m1), n1),
                Or(n2, Rew(z2, m2))) if (
                alpha_eq(x1, x2) and alpha_eq(z1, z2)
                and alpha_eq(m1, m2) and alpha_eq(n1, n2)):
            return Or(Or(Rew(x1, m1), n1), Rew(z1, m1))
    raise NoMatch


def _ax_r1(t, config):
    match t:
        case Or(Rew(RewConst(c), m), Rew(RewConst(c2), m2)) if alpha_eq(m, m2):
            best = c if config.structure.leq(c2, c) else c2
            return Rew(RewConst(best), m)
    raise NoMatch


def _ax_r2(t, config):
    match t:
        case Or(Or(Rew(RewConst(c), m), n), Rew(RewConst(c2), m2)) if (
                alpha_eq(m, m2) and config.structure.leq(c2, c)):
            return Or(Rew(RewConst(c), m), n)
    raise NoMatch


def _ax_r3(t, config):
    match t:
        case Or(Or(Rew(RewConst(c), m), n), Rew(RewConst(c2), m2)) if (
                alpha_eq(m, m2) and not config.structure.leq(c2, c)):
            return Or(n, Rew(RewConst(c2), m2))
    raise NoMatch


def _ax_pchoice_one(t, config):
    match t:
        case PChoice(p, m, _) if p == 1:
            return m
    raise NoMatch


def _ax_pchoice_comm(t, config):
    match t:
        case PChoice(p, m, n):
            return PChoice(1 - p, n, m)
    raise NoMatch


def _ax_pchoice_assoc(t, config):
    match t:
        case PChoice(q, PChoice(p, m, n), l) if p < 1 and q < 1:
            return PChoice(p * q, m,
                           PChoice((1 - p) * q / (1 - p * q), n, l))
    raise NoMatch


def _ax_reward_pchoice(t, config):
    match t:
        case Rew(x, PChoice(p, m, n)):
            return PChoice(p, Rew(x, m), Rew(x, n))
    raise NoMatch


def _ax_pchoice_or(t, config):
    match t:
        case PChoice(p, l, Or(m, n)):
            return Or(PChoice(p, l, m), PChoice(p, l, n))
    raise NoMatch


def _ax_if_expect(t, config):
    match t:
        case If(FnApp("<=", (a, b), _), m, n):
            em, en = _same_pr_targets(m, n, config)
            if (_eval_closed_reward(a, config) == en
                    and _eval_closed_reward(b, config) == em):
                return Or(m, n)
    raise NoMatch


def _ax_if_expect_chain(t, config):
    match t:
        case If(FnApp("<=", (a, b), _), Or(m, p1), Or(p2, n)) if alpha_eq(p1, p2):
            em, en = _same_pr_targets(m, n, config)
            if (_eval_closed_reward(a, config) == en
                    and _eval_closed_reward(b, config) == em):
                return Or(Or(m, p1), n)
    raise NoMatch


def _ax_pr1(t, config):
    match t:
        case Or(m, n):
            em, en = _same_pr_targets(m, n, config)
            if em >= en:
                return m
    raise NoMatch


def _ax_pr2(t, config):
    match t:
        case Or(m, n):
            em, en = _same_pr_targets(m, n, config)
            if em < en:
                return n
    raise NoMatch


def _ax_pr3(t, config):
    match t:
        case Or(Or(m, l), n):
            em, en = _same_pr_targets(m, n, config)
            if em >= en:
                return Or(m, l)
    raise NoMatch


def _ax_pr4(t, config):
    match t:
        case Or(Or(m, l), n):
            em, en = _same_pr_targets(m, n, config)
            if em < en:
                return Or(l, n)
    raise NoMatch


def _ax_gather_shared(t, config):
    match t:
        case PChoice(p, Rew(x, m), Rew(y, m2)) if alpha_eq(m, m2):
            return Rew(FnApp("oplus", (x, y), p), m)
    raise NoMatch


def _ax_gather_mix(t, config):
    match t:
        case PChoice(p, Rew(x, m), Rew(y, n)):
            opl = FnApp("oplus", (x, y), p)
            return PChoice(p, Rew(opl, m), Rew(opl, n))
    raise NoMatch


AXIOMS = {
    # choice and reward (both modes)
    "or-idem": _ax_or_idem,
    "or-assoc": _ax_or_assoc,
    "reward-zero": _ax_reward_zero,
    "reward-action": _ax_reward_action,
    "reward-or": _ax_reward_or,
    # rewards mode conditionals and derived rules
    "if-max": _ax_if_max,
    "if-max-chain": _ax_if_max_chain,
    "r1": _ax_r1,
    "r2": _ax_r2,
    "r3": _ax_r3,
    # probabilistic choice
    "pchoice-one": _ax_pchoice_one,
    "pchoice-comm": _ax_pchoice_comm,
    "pchoice-assoc": _ax_pchoice_assoc,
    "reward-pchoice": _ax_reward_pchoice,
    "pchoice-or": _ax_pchoice_or,
    "if-expect": _ax_if_expect,
    "if-expect-chain": _ax_if_expect_chain,
    "pr1": _ax_pr1,
    "pr2": _ax_pr2,
    "pr3": _ax_pr3,
    "pr4": _ax_pr4,
    # extra gathering laws, sound for the pooled-reward monads only
    "gather-shared": _ax_gather_shared,
    "gather-mix": _ax_gather_mix,
}


def apply_axiom(name: str, t: Term, path: tuple[int, ...],
                config: LangConfig) -> Term:
    """Rewrite the subterm at ``path`` with the named axiom, left to right.
    Raises NoMatch when the subterm does not have the axiom's shape."""
    if name not in AXIOMS:
        raise ValueError(f"unknown axiom {name!r}")
    sub = subterm_at(t, path)
    return replace_at(t, path, AXIOMS[name](sub, config))
