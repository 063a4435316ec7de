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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from .monads import make_monad, theta
from .operational import _eval_fn, eval_effect
from .strategies import max_by, select_fast
from .syntax import (
    FF, TT, App, Const, FnApp, Fst, If, LangConfig, Lam, Or, Pair, PChoice,
    Rew, RewConst, Snd, Star, Term, Var, fold_term, free_vars,
    make_dispatcher, substitute,
)


### semantic values

# Ground semantic values are the syntax's values; these names stay as
# aliases of their classes.
ConstElem, RewElem, UnitElem, PairElem = Const, RewConst, Star, Pair
TT_ELEM, FF_ELEM = TT, FF


@dataclass(frozen=True, eq=False)
class FnElem:
    """A semantic function, semantic value -> computation: the closure of
    the Lam it came from over the values of its free variables, ``env``,
    as (name, value) pairs in name order.  It compares and orders as its
    read-back term; its hash reads the binder and type equal terms share."""
    fn: Callable = field(repr=False)
    lam: Lam
    env: tuple
    _term: Lam | None = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        return type(other) is FnElem and (
            self is other or read_back(self) == read_back(other))

    def __hash__(self):
        return hash((self.lam.var, self.lam.ty))

    def sort_key(self):
        return read_back(self).sort_key()


def read_back(v):
    """The closed value term a semantic value stands for: a function value
    is its ``lam`` with each captured value's read-back substituted in,
    built on first need and kept.  On an explicit stack."""
    done, work = [], [v]
    while work:
        x = work.pop()
        if type(x) is tuple:  # exit record: value, where its parts' terms start
            x, k = x
            parts, done[k:] = done[k:], []
            if type(x) is FnElem:
                t = x.lam
                for (name, _), part in zip(x.env, parts):
                    t = substitute(t, name, part)
                object.__setattr__(x, "_term", t)
            done.append(x._term if type(x) is FnElem else Pair(*parts))
        elif type(x) is Pair or (type(x) is FnElem and x._term is None):
            work.append((x, len(done)))
            work += reversed((x.fst, x.snd) if type(x) is Pair
                             else [u for _, u in x.env])
        else:
            done.append(x._term if type(x) is FnElem else x)
    return done[0]


### selection computations

# A computation is a plain function from a reward continuation to a value
# of the auxiliary monad; each combinator takes that monad first.

def sel_unit(monad, x):
    return lambda gamma: monad.unit(x)


def sel_bind(monad, f, k):
    """Sequence: run f under the continuation that scores each x by the
    expected reward of k(x), then continue each result with k.

    Scoring and continuing both need k(x)(gamma), a function of x alone
    once gamma is fixed; computing it twice per bind would make nested
    binds exponential in their depth.  So each run keeps two memos: one
    from the semantic value x to k(x)(gamma), and behind it one from the
    computation k(x) returns, by identity, to its run.  The second lets
    candidates that lead to the same computation, as when k ignores x, run
    it once.  Both last for one run(gamma) call, so nothing is shared
    across valuations or calls."""
    def run(gamma):
        memo, runs = {}, {}

        def cont(x):
            u = memo.get(x)  # monad values are never None
            if u is None:
                c = k(x)
                u = runs.get(c)
                if u is None:
                    u = runs[c] = c(gamma)
                memo[x] = u
            return u

        scored = f(lambda x: monad.expect(cont(x), gamma))
        return monad.bind(scored, cont)

    return run


def sel_or(monad, f, g):
    return lambda gamma: max_by(lambda u: monad.expect(u, gamma),
                                f(gamma), g(gamma))


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

def _compiler(config: LangConfig, monad):
    """denote's node callback: each node becomes its run, a function from
    an environment (variable -> semantic value) to the computation it
    denotes there, made from its children's runs once per fold.  The fold
    gives each binder a flag, [False], that its bound variables set; a Lam
    whose body ignores its variable denotes a function that returns one
    body computation, built on its first call, for every argument.  A node
    with no denotation (a Hole) fails only when its computation is built."""
    unit, bind = partial(sel_unit, monad), partial(sel_bind, monad)

    def node(s, kids, binders):
        cls = type(s)
        if cls is Var:
            read = binders.get(s.name)
            if read is not None:
                read[0] = True
            return lambda env: unit(env[s.name])
        if cls in (Const, RewConst, Star):
            return lambda env: unit(s)
        if cls is Lam:
            body, names = kids[0], sorted(free_vars(s))

            def closure(env, fn):
                return unit(FnElem(fn, s, tuple((n, env[n]) for n in names)))
            if binders[s.var][0]:
                return lambda env: closure(env, lambda a: body({**env, s.var: a}))

            def constant(env):
                built = []  # the body's computation, built on the first call

                def fn(_):
                    if not built:
                        built.append(body(env))
                    return built[0]
                return closure(env, fn)
            return constant
        if cls is Pair:
            return lambda env: bind(kids[0](env), lambda u: bind(
                kids[1](env), lambda v: unit(Pair(u, v))))
        if cls is Fst or cls is Snd:
            return lambda env: bind(kids[0](env), lambda u: unit(
                u.fst if cls is Fst else u.snd))
        if cls is App:
            f, a = kids
            return lambda env: bind(f(env), lambda phi: bind(a(env), phi.fn))
        if cls is If:
            c, a, b = kids
            return lambda env: bind(c(env), lambda v: a(env) if v == TT else b(env))
        if cls is FnApp:
            def chain(env, i, acc):  # one level per argument, at most two
                if i == len(kids):
                    return unit(_eval_fn(s.sym, acc, s.weight, config))
                return bind(kids[i](env), lambda v: chain(env, i + 1, acc + [v]))
            return lambda env: chain(env, 0, [])
        if cls is Or:
            return lambda env: sel_or(monad, kids[0](env), kids[1](env))
        # a default argument builds a part once per computation, not per gamma
        if cls is Rew:
            return lambda env: bind(kids[0](env), lambda r: (
                lambda gamma, f=kids[1](env): monad.reward(r.value, f(gamma))))
        if cls is PChoice:
            return lambda env: (lambda gamma, f=kids[0](env), g=kids[1](env):
                                monad.pchoice(s.weight, f(gamma), g(gamma)))

        def fail(env):
            raise ValueError(f"cannot denote {s!r}")
        return fail

    return node


def denote_value(v: Term, config: LangConfig, monad):
    """Denotation of a closed value: the value itself, with each lambda,
    also inside pairs, turned into an FnElem.  A fold, None at non-values."""
    def node(s, kids, _):
        if type(s) is Lam:
            return FnElem(lambda a: denote(s.body, config, monad, {s.var: a}), s, ())
        if type(s) is Pair and None not in kids:
            return Pair(*kids)
        return s if type(s) in (Const, RewConst, Star) else None

    value = fold_term(v, node)
    if value is None:
        raise ValueError(f"not a value: {v!r}")
    return value


def denote(t: Term, config: LangConfig, monad, env: dict | None = None):
    """The computation t denotes: a function from a reward continuation to
    a value of monad.  One fold compiles t; the result runs under env."""
    return fold_term(t, _compiler(config, monad),
                     lambda lam, binders: [False])(env or {})


### observation (operational summaries) and embedding

def observe(m: Term, config: LangConfig, monad_name: str | None = None):
    """Run the program and summarize the optimal outcome in the chosen
    monad.  Atoms are syntactic values.  In rewards mode the summary is the
    (reward, value) pair; in prob mode the outcome distribution is mapped
    through the comparison map of the chosen monad."""
    out = select_fast(eval_effect(m, config), config)
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
