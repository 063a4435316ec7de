"""Denotational semantics via the selection monad, plus the observation and
embedding maps that connect it to the operational side.

A computation of type X denotes a function from reward continuations
(valuations of final results) to a value of the auxiliary monad:

    S(X) = (X -> Reward) -> T(X)

Binding threads the continuation backwards: the bound-term's continuation
scores each candidate x by the expected reward of continuing with f(x).
Choice takes the side whose T-value has greater expected reward under the
current continuation, preferring the left one on ties; that makes every
choice globally optimal with respect to the final valuation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .monads import make_monad, theta
from .operational import DEFAULT_BUDGET, eval_effect
from .strategies import max_by, select_fast
from .syntax import (
    App, Const, FnApp, Fst, If, LangConfig, Lam, Or, Pair, PChoice, Rew,
    RewConst, Snd, Star, Term, Var, make_dispatcher,
)


### semantic values

class SemVal:
    pass


@dataclass(frozen=True)
class ConstElem(SemVal):
    name: str
    base: str
    index: int

    def sort_key(self):
        return (0, self.base, self.index)

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class RewElem(SemVal):
    value: Fraction

    def sort_key(self):
        return (1, self.value)

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True)
class UnitElem(SemVal):
    def sort_key(self):
        return (2,)

    def __repr__(self):
        return "*"


@dataclass(frozen=True)
class PairElem(SemVal):
    fst: SemVal
    snd: SemVal

    def sort_key(self):
        return (3, self.fst.sort_key(), self.snd.sort_key())

    def __repr__(self):
        return f"<{self.fst!r}, {self.snd!r}>"


_fn_uid = itertools.count()


@dataclass(frozen=True)
class FnElem(SemVal):
    """A semantic function SemVal -> SelComp.  Compared by identity; use
    extensional comparison helpers where function equality matters."""
    fn: Callable = field(compare=False)
    uid: int = field(default_factory=lambda: next(_fn_uid))

    def sort_key(self):
        return (4, self.uid)

    def __repr__(self):
        return f"<fn#{self.uid}>"


TT_ELEM = ConstElem("tt", "Bool", 0)
FF_ELEM = ConstElem("ff", "Bool", 1)


### selection computations

@dataclass
class SelComp:
    """A computation: reward continuation -> value of the auxiliary monad."""
    monad: Any
    run: Callable

    def __call__(self, gamma):
        return self.run(gamma)


def sel_unit(x, monad) -> SelComp:
    return SelComp(monad, lambda gamma: monad.unit(x))


def sel_bind(f: SelComp, k) -> SelComp:
    """Sequence: run f under the continuation that scores each x by the
    expected reward of k(x), then continue each result with k.

    Scoring and continuing both need k(x)(gamma), a function of x alone
    once gamma is fixed; computing it twice per bind would make nested
    binds exponential in their depth.  So each run keeps a dict from x to
    it.  The dict lasts for one run(gamma) call and is keyed by the
    semantic value x (frozen dataclasses; a function value by its uid),
    so nothing is shared across valuations or calls."""
    monad = f.monad

    def run(gamma):
        memo = {}

        def cont(x):
            if x not in memo:
                memo[x] = k(x)(gamma)
            return memo[x]

        scored = f(lambda x: monad.expect(cont(x), gamma))
        return monad.bind(scored, cont)

    return SelComp(monad, run)


def sel_or(f: SelComp, g: SelComp) -> SelComp:
    monad = f.monad

    def run(gamma):
        return max_by(lambda u: monad.expect(u, gamma), f(gamma), g(gamma))

    return SelComp(monad, run)


def sel_reward(c: Fraction, f: SelComp) -> SelComp:
    return SelComp(f.monad, lambda gamma: f.monad.reward(c, f(gamma)))


def sel_pchoice(p: Fraction, f: SelComp, g: SelComp) -> SelComp:
    return SelComp(f.monad, lambda gamma: f.monad.pchoice(p, f(gamma), g(gamma)))


### reward continuations

def zero_gamma(config: LangConfig):
    z = config.structure.zero
    return lambda x: z


def gamma_from_table(table: dict[str, Fraction], config: LangConfig):
    """Valuation of base-type results given by name; anything without an
    entry scores zero."""
    z = config.structure.zero

    def gamma(x):
        name = getattr(x, "name", None)
        return table.get(name, z)

    return gamma


### denotation

def denote_value(v: Term, config: LangConfig, monad) -> SemVal:
    """Denotation of a value, as a semantic element."""
    match v:
        case Const(name, base, index):
            return ConstElem(name, base, index)
        case RewConst(r):
            return RewElem(r)
        case Star():
            return UnitElem()
        case Pair(a, b):
            return PairElem(denote_value(a, config, monad),
                            denote_value(b, config, monad))
        case Lam(x, _, body):
            return FnElem(lambda arg: denote(body, config, monad, {x: arg}))
        case _:
            raise ValueError(f"not a value: {v!r}")


def denote(t: Term, config: LangConfig, monad, env: dict[str, SemVal] | None = None) -> SelComp:
    env = env or {}

    def go(t, env) -> SelComp:
        match t:
            case Var(name):
                return sel_unit(env[name], monad)
            case Const(name, base, index):
                return sel_unit(ConstElem(name, base, index), monad)
            case RewConst(r):
                return sel_unit(RewElem(r), monad)
            case Star():
                return sel_unit(UnitElem(), monad)
            case Lam(x, _, body):
                return sel_unit(
                    FnElem(lambda arg: go(body, {**env, x: arg})), monad)
            case Pair(a, b):
                return sel_bind(go(a, env), lambda u:
                                sel_bind(go(b, env), lambda v:
                                         sel_unit(PairElem(u, v), monad)))
            case Fst(a):
                return sel_bind(go(a, env), lambda u: sel_unit(u.fst, monad))
            case Snd(a):
                return sel_bind(go(a, env), lambda u: sel_unit(u.snd, monad))
            case App(f, a):
                return sel_bind(go(f, env), lambda phi:
                                sel_bind(go(a, env), lambda v: phi.fn(v)))
            case If(c, a, b):
                return sel_bind(go(c, env), lambda v:
                                go(a, env) if v == TT_ELEM else go(b, env))
            case FnApp(sym, args, w):
                def finish(vals):
                    return sel_unit(_apply_fn(sym, vals, w, config), monad)

                def chain(i, acc):
                    if i == len(args):
                        return finish(acc)
                    return sel_bind(go(args[i], env),
                                    lambda v, i=i: chain(i + 1, acc + [v]))

                return chain(0, [])
            case Or(a, b):
                return sel_or(go(a, env), go(b, env))
            case Rew(c, m):
                return sel_bind(go(c, env), lambda r:
                                sel_reward(r.value, go(m, env)))
            case PChoice(p, a, b):
                return sel_pchoice(p, go(a, env), go(b, env))
            case _:
                raise ValueError(f"cannot denote {t!r}")

    return go(t, env)


def _apply_fn(sym: str, vals: list[SemVal], weight, config: LangConfig) -> SemVal:
    st = config.structure
    match sym:
        case "+":
            return RewElem(st.add(vals[0].value, vals[1].value))
        case "<=":
            return TT_ELEM if st.leq(vals[0].value, vals[1].value) else FF_ELEM
        case "==":
            return TT_ELEM if vals[0] == vals[1] else FF_ELEM
        case "oplus":
            return RewElem(st.convex(weight, vals[0].value, vals[1].value))
        case _:
            raise ValueError(f"unknown function symbol {sym}")


### observation (operational summaries) and embedding

def observe(m: Term, config: LangConfig, monad_name: str | None = None,
            budget: int = DEFAULT_BUDGET):
    """Run the program and summarize the optimal outcome in the chosen
    monad.  Atoms are syntactic values.  In rewards mode the summary is the
    (reward, value) pair; in prob mode the outcome distribution is mapped
    through the comparison map of the chosen monad."""
    out = select_fast(eval_effect(m, config, budget), config)
    if config.mode == "rewards":
        if monad_name not in (None, "W"):
            raise ValueError("rewards mode observes through W")
        return out
    if monad_name in (None, "DW"):
        return out
    return theta(out, make_monad(monad_name, config.structure))


def embed_outcome(out, config: LangConfig, monad):
    """Map an operational outcome (atoms: syntactic values) to the monad's
    carrier over semantic values."""
    if config.mode == "rewards":
        r, v = out
        return (r, denote_value(v, config, monad))
    dw = out.map(lambda rx: (rx[0], denote_value(rx[1], config, monad)))
    return theta(dw, monad)


def agree_at(m: Term, n: Term, config: LangConfig, monad, gammas) -> bool:
    """Do two closed terms denote the same function on the sampled
    continuations?"""
    dm = denote(m, config, monad)
    dn = denote(n, config, monad)
    return all(dm(g) == dn(g) for g in gammas)


### reward-shifting contexts

def kappa_term(consts: list[Const], table: dict[str, Fraction]) -> Lam:
    """Reward-shifting program: a case dispatcher that grants each constant
    its valuation and returns it.  Applying it to a computation performs, in
    syntax, what ``k_gamma`` performs on monad values."""
    return make_dispatcher(
        consts, lambda c: Rew(RewConst(table[c.name]), c))
