"""Equational reasoning: canonical forms, equivalence and purity decisions,
distinguishing contexts, and named rewrite axioms.

Both calculi share one canonical form, ``canon(m, config, monad_name)``,
whose key comes from the auxiliary monad; forms compare up to renaming.

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
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .monads import atoms, make_monad
from .operational import eval_effect
from .rewards import ONE, ZERO, Rational
from .selection import denote, gamma_from_table
from .strategies import argmax, best_outcomes, check_cap
from .syntax import (
    App, Base, Const, FnApp, Fst, Hole, If, LangConfig, Lam, Or, PChoice,
    Pair, Prod, Rew, RewConst, Snd, Star, Term, TT, FF, UNIT, Var, alpha_eq,
    alpha_key, fold_term, is_value, kept, pretty, replace_at, subterm_at,
    type_rank, typecheck,
)


### canonical forms

def canon(m: Term, config: LangConfig, monad_name: str) -> list:
    """Canonical form of a program in the auxiliary monad ``monad_name``:
    its strategy outcomes in that monad, in strategy order, one per key
    under the rule of ``strategies.best_outcomes``, so it equals the
    program.  The key is the value up to renaming in W and the outcome
    itself in DW, T2 and T3.  MR has no canonical form (ValueError).  The
    node m keeps the form (``syntax.kept``), keyed by the config object and
    the monad name, and each call returns a list of its own."""
    if monad_name == "MR":
        raise ValueError("monad MR has no canonical form")

    def fold():
        monad = make_monad(monad_name, config.structure)
        key = ((lambda u: alpha_key(u[1])) if monad_name == "W"
               else (lambda u: u))
        return best_outcomes(check_cap(eval_effect(m, config)), monad, key)

    return list(kept(m, "_canon", config, monad_name, fold))


def canon_rewards(m: Term, config: LangConfig) -> list[tuple[Fraction, Term]]:
    """Canonical form of a rewards-mode program: ``canon`` in W."""
    return canon(m, config, "W")


def weak_canon_prob(m: Term, config: LangConfig,
                    monad_name: str = "DW") -> list:
    """Weak canonical form of a probabilistic program: ``canon``."""
    return canon(m, config, monad_name)


def canonical_term(cf: list[tuple[Fraction, Term]]) -> Term:
    """Render a canonical form back into a left-nested or-chain."""
    return weak_canonical_term(cf, "W")


def _same_form(a: list, b: list, monad) -> bool:
    """Whether two canonical forms in ``monad`` agree entry by entry up to
    renaming of bound variables: each entry is compared through
    ``monad.map(alpha_key, u)``, which in W is its (reward, key) pair and
    in T2 and T3 also gathers or pools the values equal up to renaming."""
    return len(a) == len(b) and all(
        monad.map(alpha_key, u) == monad.map(alpha_key, v)
        for u, v in zip(a, b))


def canon_equal(a: list[tuple[Fraction, Term]], b: list[tuple[Fraction, Term]]) -> bool:
    return _same_form(a, b, make_monad("W"))


def decide_equiv_rewards(m: Term, n: Term, config: LangConfig) -> bool:
    return canon_equal(canon_rewards(m, config), canon_rewards(n, config))


def _unit_value(u, monad_name: str, st):
    """x when u is the unit on x, one atom carrying the zero reward."""
    listed = atoms(u, monad_name)
    pure = len(listed) == 1 and listed[0][1] == st.zero
    return listed[0][2] if pure else None


def decide_pure_rewards(m: Term, config: LangConfig) -> Term | None:
    """The value this program is equivalent to, if any: its canonical form
    is one entry, the unit on that value.  It reads the form m keeps."""
    cf = canon_rewards(m, config)
    return _unit_value(cf[0], "W", config.structure) if len(cf) == 1 else None


def rewards_impurity_witness(m: Term, config: LangConfig
                             ) -> dict[str, Fraction] | None:
    """A valuation table under which the program's denotation differs from
    the unit of its zero-valuation winner, or None when the program is
    pure.  Canonical values must be constants.  It reads the form m
    keeps."""
    if decide_pure_rewards(m, config) is not None:
        return None
    cf, st = canon_rewards(m, config), config.structure
    if not all(isinstance(v, Const) for _, v in cf):
        raise ValueError("witness construction needs constant-valued programs")
    names = [v.name for _, v in cf]
    zero_table = {name: st.zero for name in names}
    w = make_monad("W", st)
    i0 = argmax(range(len(cf)), lambda i: w.expect0(cf[i]))
    best = cf[i0][0]
    if _unit_value(cf[i0], "W", st) is None:
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


def distinguish_rewards(m: Term, n: Term, config: LangConfig) -> Term | None:
    """A context C with a hole such that C[m] and C[n] have different
    optimal outcomes; None when the programs are equivalent.

    The context compares the program's result against a chosen constant and
    grants rewards placing that constant's entry just above or below the
    competition, so canonical forms that differ in entries, rewards, or
    order become observably different.
    """
    a = canon_rewards(m, config)
    b = canon_rewards(n, config)
    if canon_equal(a, b):
        return None
    st = config.structure
    if st.name != "AddRationals":
        raise NoDistinguishingContext(
            f"distinguishing contexts are built over AddRationals, not {st.name}")
    low, high = ZERO, ONE

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
        cap = max(rest) if rest else ZERO
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

def _dw_chain(atoms: list[tuple[Fraction, Fraction, Term]]) -> Term:
    """Weighted rewarded values rendered as a right-nested probabilistic
    chain, built from the last atom outward; each atom is (probability,
    reward, value)."""
    total, t = ZERO, None
    for p, r, v in reversed(atoms):
        total += p
        leaf = Rew(RewConst(r), v)
        t = leaf if t is None else PChoice(p / total, leaf, t)
    return t


def weak_canonical_term(branches: list, monad_name: str) -> Term:
    """Render a canonical form, a list of monad_name values (W for a
    rewards canonical form), back into a left-nested or-chain of
    probabilistic chains.  A T3 branch keeps its pooled reward in front."""
    def branch_term(b):
        listed = atoms(b, monad_name)
        if monad_name != "T3":
            return _dw_chain(listed)
        vals = [(p, ZERO, x) for p, _, x in listed]
        return Rew(RewConst(listed[0][1]), _dw_chain(vals))

    t = branch_term(branches[0])
    for b in branches[1:]:
        t = Or(t, branch_term(b))
    return t


### probabilistic equivalence, and the valuations it samples

GAMMA_POOL = tuple(Rational(n) for n in range(-3, 4)) + (
    Rational(1, 2), Rational(-1, 2), Rational(1, 3), Rational(-1, 3))


def gamma_tables(base: str, config: LangConfig, count: int = 64,
                 seed: int = 0) -> list[dict[str, Rational]]:
    """A batch of valuation tables over a finite base type.  The zero table
    always comes first; the rest draw entries from ``GAMMA_POOL``
    (restricted to the structure's carrier)."""
    consts = config.constants_of(base)
    entries = [r for r in GAMMA_POOL if config.structure.contains(r)]
    rng = random.Random(seed)
    z = config.structure.zero
    tables = [{c.name: z for c in consts}]
    for _ in range(max(count - 1, 0)):
        tables.append({c.name: rng.choice(entries) for c in consts})
    return tables


def default_tables(m: Term, n: Term, config: LangConfig,
                   count: int = 64, seed: int = 0) -> list[dict[str, Rational]]:
    """Sampled valuation tables for comparing two programs of a finite
    base type.  At any other first-order type only the zero table is
    drawn, since ``gamma_from_table`` scores every value it does not name
    zero.  Raises NoDistinguishingContext at a function type."""
    ty = typecheck(m, config=config)
    ty2 = typecheck(n, config=config)
    if ty != ty2:
        raise ValueError(f"type mismatch: {ty} vs {ty2}")
    if isinstance(ty, Base) and ty.name in config.bases:
        return gamma_tables(ty.name, config, count, seed)
    if type_rank(ty) > 0:
        raise NoDistinguishingContext("valuations are not sampled at a function type")
    return [{}]


def decide_equiv_prob(m: Term, n: Term, config: LangConfig,
                      monad_name: str = "DW") -> bool | None:
    """True when the weak canonical forms coincide; False when a sampled
    valuation separates the denotations; None (unknown) otherwise.  At a
    first-order type other than a finite base the only valuation tried is
    the zero table.  Raises NoDistinguishingContext when valuations must
    be sampled at a function type."""
    return separate_prob(m, n, config, monad_name)[0]


def separate_prob(m: Term, n: Term, config: LangConfig,
                  monad_name: str = "DW"):
    """``decide_equiv_prob``'s verdict with the valuation table behind a
    False: (True, None), (False, the first separating table) or (None,
    None).  The tables tried are the programs' 64 ``default_tables``."""
    _refuse_w(monad_name, "decide_equiv_rewards")
    monad = make_monad(monad_name, config.structure)
    if _same_form(canon(m, config, monad_name), canon(n, config, monad_name),
                  monad):
        return True, None
    dm = denote(m, config, monad)
    dn = denote(n, config, monad)
    for w in default_tables(m, n, config):
        g = gamma_from_table(w, config)
        if dm(g) != dn(g):
            return False, w
    return None, None


### purity, probabilistic mode

@dataclass
class PurityResult:
    constant: Term | None            # the constant when pure
    witness: dict[str, Fraction] | None  # valuation table when impure


def _refuse_w(monad_name: str, rewards_decider: str) -> None:
    if monad_name == "W":
        raise ValueError("the probabilistic deciders read DW, T2 or T3; "
                         f"use {rewards_decider} for W")


def decide_pure_prob(m: Term, config: LangConfig,
                     monad_name: str = "DW") -> PurityResult:
    """Decide whether the program is equivalent to a constant.

    The winning or-branch at the zero valuation must itself be the unit on
    some constant; every competing branch must either sit entirely on that
    constant (in which case the optimizer can never prefer it in a way that
    changes the outcome) or else admits a valuation making it strictly
    better than the constant, which is returned as an impurity witness.

    Raises ConditionCUnavailable when a competing branch's reward floor is
    below zero and the structure has no discrimination witness,
    NoDistinguishingContext when the program is not of a finite base type,
    and ValueError in W, whose decider is ``decide_pure_rewards``.
    """
    _refuse_w(monad_name, "decide_pure_rewards")
    st = config.structure
    branches = canon(m, config, monad_name)
    monad = make_monad(monad_name, st)
    i0 = argmax(range(len(branches)), lambda i: monad.expect0(branches[i]))
    listed0 = atoms(branches[i0], monad_name)
    if not all(isinstance(x, Const) for _, _, x in listed0):
        raise NoDistinguishingContext(
            "purity decision applies to programs of base type")
    consts = config.constants_of(listed0[0][2].base)

    def table(cbar_name: str, on_cbar: Fraction, elsewhere: Fraction):
        return {c.name: (on_cbar if c.name == cbar_name else elsewhere)
                for c in consts}

    cbar = _unit_value(branches[i0], monad_name, st)
    if cbar is None:
        return PurityResult(None, {c.name: st.zero for c in consts})

    for i, b in enumerate(branches):
        if i == i0:
            continue
        listed = atoms(b, monad_name)
        # the branch expects at least floor ⊕ the average valuation
        floor = min(r for _, r, _ in listed)
        off_mass = sum(p for p, _, x in listed if x != cbar)
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


### named axioms

class NoMatch(Exception):
    pass


@dataclass(frozen=True)
class Axiom:
    """One equation of Figure 3 and/or 4 (``figures``), written once.

    ``lhs`` and ``rhs`` build each side from the reward structure and the
    axiom's metavariables.  A metavariable's name gives its sort: upper
    case is a program, ``x``/``y``/``z`` a reward term, ``c``/``d`` a
    reward constant (any term when matching; ``when`` demands a
    ``RewConst`` where the rewrite needs one) and ``p``/``q`` a weight.
    ``when`` takes the same arguments, guards the rewrite and may raise
    NoMatch itself.  ``monads`` are the auxiliary monads validating the
    axiom, empty when the calculus's own monad does; ``size`` bounds each
    program drawn for an instance."""
    figures: tuple[int, ...]
    lhs: Callable[..., Term]
    rhs: Callable[..., Term]
    when: Callable[..., bool] | None = None
    monads: tuple[str, ...] = ()
    size: int = 5

    @property
    def metavars(self) -> tuple[str, ...]:
        """The metavariable names, in drawing order."""
        code = self.lhs.__code__
        return code.co_varnames[1:code.co_argcount]


@dataclass(frozen=True)
class _Meta:
    """A metavariable in a left-hand side built for matching."""
    name: str


def _match(pat, t, binds: dict) -> bool:
    """Match t against a pattern field by field, binding metavariables in
    preorder.  Recursion follows the pattern, which is a few levels deep."""
    if isinstance(pat, _Meta):
        if pat.name not in binds:
            binds[pat.name] = t
            return True
        return alpha_eq(binds[pat.name], t)
    if isinstance(pat, Term):
        return type(pat) is type(t) and all(
            _match(getattr(pat, f), getattr(t, f), binds)
            for f in pat.__match_args__)
    if isinstance(pat, tuple):
        return len(pat) == len(t) and all(
            _match(a, b, binds) for a, b in zip(pat, t))
    return pat == t


def _pr_value_info(t: Term):
    """(expected reward, marginal weight per target) for a probabilistic
    reward-value with constant rewards, a tree of probabilistic choices
    over rewarded values; None otherwise.  The marginal keys targets by
    their printed form."""
    total = ZERO
    marginal: dict[str, Fraction] = {}
    stack = [(ONE, t)]
    while stack:
        w, s = stack.pop()
        match s:
            case Rew(RewConst(r), l) if is_value(l):
                total += w * r
                key = pretty(l)
                marginal[key] = marginal.get(key, ZERO) + w
            case PChoice(p, a, b):
                stack += [((1 - p) * w, b), (p * w, a)]
            case _:
                return None
    return total, marginal


def _same_pr_targets(m: Term, n: Term, st):
    """Expected rewards of two probabilistic reward-values whose target
    marginals coincide, which makes their expected-reward gap independent
    of the valuation; otherwise no match.  Structures whose monoid does not
    mix through convex combination only support a single shared target."""
    im = _pr_value_info(m)
    in_ = _pr_value_info(n)
    if im is None or in_ is None or im[1] != in_[1]:
        raise NoMatch
    if len(im[1]) > 1 and not st.mixing_verified:
        raise NoMatch
    return im[0], in_[0]


def _eval_closed_reward(t: Term, st) -> Fraction:
    """Value of a closed reward term built from constants, +, and oplus;
    a fold."""
    def node(s, kids, env):
        if type(s) is RewConst:
            return s.value
        if type(s) is not FnApp or len(kids) != 2 or s.sym not in ("+", "oplus"):
            raise NoMatch
        return st.add(*kids) if s.sym == "+" else st.convex(s.weight, *kids)

    return fold_term(t, node)


def _expects(st, x: Term, y: Term, m: Term, n: Term) -> bool:
    """Whether the closed reward terms x and y are the expected rewards of
    m and n, two probabilistic reward-values over the same targets."""
    em, en = _same_pr_targets(m, n, st)
    return _eval_closed_reward(y, st) == en and _eval_closed_reward(x, st) == em


def _consts(*ts: Term) -> bool:
    return all(isinstance(t, RewConst) for t in ts)


AXIOMS = {
    # choice and reward (both calculi)
    "or-idem": Axiom((3, 4), lambda st, M: Or(M, M), lambda st, M: M),
    "or-assoc": Axiom((3, 4), lambda st, L, M, N: Or(Or(L, M), N),
                      lambda st, L, M, N: Or(L, Or(M, N))),
    "reward-zero": Axiom((3, 4), lambda st, M: Rew(RewConst(st.zero), M),
                         lambda st, M: M),
    "reward-action": Axiom((3, 4), lambda st, x, y, M: Rew(x, Rew(y, M)),
                           lambda st, x, y, M: Rew(FnApp("+", (x, y)), M)),
    "reward-or": Axiom((3, 4), lambda st, x, M, N: Rew(x, Or(M, N)),
                       lambda st, x, M, N: Or(Rew(x, M), Rew(x, N))),
    # rewards calculus: conditionals and derived rules
    "if-max": Axiom(
        (3,), lambda st, x, y, M: If(FnApp("<=", (y, x)), Rew(x, M), Rew(y, M)),
        lambda st, x, y, M: Or(Rew(x, M), Rew(y, M))),
    "if-max-chain": Axiom(
        (3,), lambda st, x, z, M, N: If(FnApp("<=", (z, x)),
                                        Or(Rew(x, M), N), Or(N, Rew(z, M))),
        lambda st, x, z, M, N: Or(Or(Rew(x, M), N), Rew(z, M))),
    "r1": Axiom((3,), lambda st, M, c, d: Or(Rew(c, M), Rew(d, M)),
                lambda st, M, c, d: Rew(c if st.leq(d.value, c.value) else d, M),
                lambda st, M, c, d: _consts(c, d)),
    "r2": Axiom((3,), lambda st, c, d, M, N: Or(Or(Rew(c, M), N), Rew(d, M)),
                lambda st, c, d, M, N: Or(Rew(c, M), N),
                lambda st, c, d, M, N: _consts(c, d) and st.leq(d.value, c.value)),
    "r3": Axiom((3,), lambda st, c, d, M, N: Or(Or(Rew(c, M), N), Rew(d, M)),
                lambda st, c, d, M, N: Or(N, Rew(d, M)),
                lambda st, c, d, M, N: (_consts(c, d)
                                        and not st.leq(d.value, c.value))),
    # probabilistic calculus
    "pchoice-one": Axiom((4,), lambda st, M, N: PChoice(ONE, M, N),
                         lambda st, M, N: M),
    "pchoice-comm": Axiom((4,), lambda st, p, M, N: PChoice(p, M, N),
                          lambda st, p, M, N: PChoice(1 - p, N, M)),
    "pchoice-assoc": Axiom(
        (4,), lambda st, q, p, M, N, L: PChoice(q, PChoice(p, M, N), L),
        lambda st, q, p, M, N, L: PChoice(
            p * q, M, PChoice((1 - p) * q / (1 - p * q), N, L)),
        lambda st, q, p, M, N, L: p < 1 and q < 1, size=4),
    "reward-pchoice": Axiom(
        (4,), lambda st, x, p, M, N: Rew(x, PChoice(p, M, N)),
        lambda st, x, p, M, N: PChoice(p, Rew(x, M), Rew(x, N)), size=4),
    "pchoice-or": Axiom(
        (4,), lambda st, p, L, M, N: PChoice(p, L, Or(M, N)),
        lambda st, p, L, M, N: Or(PChoice(p, L, M), PChoice(p, L, N)), size=4),
    "if-expect": Axiom((4,), lambda st, x, y, M, N: If(FnApp("<=", (y, x)), M, N),
                       lambda st, x, y, M, N: Or(M, N), _expects),
    "if-expect-chain": Axiom(
        (4,), lambda st, x, y, M, L, N: If(FnApp("<=", (y, x)),
                                           Or(M, L), Or(L, N)),
        lambda st, x, y, M, L, N: Or(Or(M, L), N),
        lambda st, x, y, M, L, N: _expects(st, x, y, M, N), size=4),
    "pr1": Axiom((4,), lambda st, M, N: Or(M, N), lambda st, M, N: M,
                 lambda st, M, N: operator.ge(*_same_pr_targets(M, N, st))),
    "pr2": Axiom((4,), lambda st, M, N: Or(M, N), lambda st, M, N: N,
                 lambda st, M, N: operator.lt(*_same_pr_targets(M, N, st))),
    "pr3": Axiom((4,), lambda st, M, L, N: Or(Or(M, L), N),
                 lambda st, M, L, N: Or(M, L),
                 lambda st, M, L, N: operator.ge(*_same_pr_targets(M, N, st)),
                 size=4),
    "pr4": Axiom((4,), lambda st, M, L, N: Or(Or(M, L), N),
                 lambda st, M, L, N: Or(L, N),
                 lambda st, M, L, N: operator.lt(*_same_pr_targets(M, N, st)),
                 size=4),
    # extra gathering laws, sound for the pooled-reward monads only
    "gather-shared": Axiom(
        (4,), lambda st, M, p, c, d: PChoice(p, Rew(c, M), Rew(d, M)),
        lambda st, M, p, c, d: Rew(FnApp("oplus", (c, d), p), M),
        monads=("T2",)),
    "gather-mix": Axiom(
        (4,), lambda st, p, c, M, d, N: PChoice(p, Rew(c, M), Rew(d, N)),
        lambda st, p, c, M, d, N: PChoice(p, Rew(FnApp("oplus", (c, d), p), M),
                                          Rew(FnApp("oplus", (c, d), p), N)),
        monads=("T3",)),
}


def apply_axiom(name: str, t: Term, path: tuple[int, ...],
                config: LangConfig) -> Term:
    """Rewrite the subterm at ``path`` with the named axiom, left to right.
    A repeated metavariable binds at its leftmost occurrence, and the
    others must be alpha-equivalent to it.  Raises NoMatch when the
    subterm does not have the axiom's shape or fails its side condition."""
    if name not in AXIOMS:
        raise ValueError(f"unknown axiom {name!r}")
    ax, st = AXIOMS[name], config.structure
    names = ax.metavars
    binds: dict = {}
    if not _match(ax.lhs(st, *map(_Meta, names)), subterm_at(t, path), binds):
        raise NoMatch
    args = [binds[n] for n in names]
    if ax.when is not None and not ax.when(st, *args):
        raise NoMatch
    return replace_at(t, path, ax.rhs(st, *args))
