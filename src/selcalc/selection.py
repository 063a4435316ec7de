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

Semantic values are the syntax's own ground values (constants, reward
constants, ``*`` and pairs of semantic values) plus functions, ``FnElem``;
so the denotation and the operational semantics share one carrier at base
types, and built-in function symbols have one table,
``operational._eval_fn``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .monads import make_monad, theta
from .operational import DEFAULT_BUDGET, _eval_fn, eval_effect
from .strategies import max_by, select_fast
from .syntax import (
    FF, TT, App, Const, FnApp, Fst, If, LangConfig, Lam, Or, Pair, PChoice,
    Rew, RewConst, Snd, Star, Term, Var, make_dispatcher,
)


### semantic values

# Ground semantic values are the syntax's values; these names stay as
# aliases of their classes.
ConstElem, RewElem, UnitElem, PairElem = Const, RewConst, Star, Pair
TT_ELEM, FF_ELEM = TT, FF

_fn_uid = itertools.count()


@dataclass(frozen=True)
class FnElem:
    """A semantic function: semantic value -> SelComp.  Compared by
    identity; use extensional comparison helpers where function equality
    matters."""
    fn: Callable = field(compare=False, repr=False)
    uid: int = field(default_factory=lambda: next(_fn_uid))

    def sort_key(self):
        return (4, self.uid)


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

def denote_value(v: Term, config: LangConfig, monad):
    """Denotation of a value: the value itself, with each lambda, also
    inside pairs, turned into an FnElem."""
    match v:
        case Const() | RewConst() | Star():
            return v
        case Pair(a, b):
            return Pair(denote_value(a, config, monad),
                        denote_value(b, config, monad))
        case Lam(x, _, body):
            return FnElem(lambda arg: denote(body, config, monad, {x: arg}))
        case _:
            raise ValueError(f"not a value: {v!r}")


def denote(t: Term, config: LangConfig, monad, env: dict | None = None) -> SelComp:
    env = env or {}

    def go(t, env) -> SelComp:
        match t:
            case Var(name):
                return sel_unit(env[name], monad)
            case Const() | RewConst() | Star():
                return sel_unit(t, monad)
            case Lam(x, _, body):
                return sel_unit(
                    FnElem(lambda arg: go(body, {**env, x: arg})), monad)
            case Pair(a, b):
                return sel_bind(go(a, env), lambda u:
                                sel_bind(go(b, env), lambda v:
                                         sel_unit(Pair(u, v), monad)))
            case Fst(a):
                return sel_bind(go(a, env), lambda u: sel_unit(u.fst, monad))
            case Snd(a):
                return sel_bind(go(a, env), lambda u: sel_unit(u.snd, monad))
            case App(f, a):
                return sel_bind(go(f, env), lambda phi:
                                sel_bind(go(a, env), lambda v: phi.fn(v)))
            case If(c, a, b):
                return sel_bind(go(c, env), lambda v:
                                go(a, env) if v == TT else go(b, env))
            case FnApp(sym, args, w):
                def chain(i, acc):
                    if i == len(args):
                        return sel_unit(_eval_fn(sym, acc, w, config), monad)
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
