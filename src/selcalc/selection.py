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

Only choice (``sel_or``) and the scorer of ``sel_bind`` read the
continuation, so a fragment with no choice denotes the image of one value
of T under the monad morphism t -> (lambda gamma: t).  ``denote`` marks a
node *free* when it is no Or and no Hole, its children are free, and, at
an App, its function is a literal Lam with a free body: any other
function may run a body that chooses (a Lam itself is a value, so free).
A free node denotes straight in T, once per value of its free variables
for the life of the denotation, and valuations re-run only the choices.

Semantic values are the syntax's own ground values (constants, reward
constants, ``*`` and pairs of semantic values) plus functions, ``FnElem``;
so the denotation and the operational semantics share one carrier at base
types, and built-in function symbols have one table,
``operational._eval_fn``.  ``embed_outcome`` carries an operational
outcome into the monad by binding it to what ``denote`` gives each value,
so an embedded function value is the same closure the denotation builds.
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
    Hole, Rew, RewConst, Snd, Star, Term, Var, fold_term, make_dispatcher,
    substitute,
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
    """denote's node callback, and its lift to a selection computation.
    Each node becomes (run, free, fv, body, leaf), from its children's once
    per fold: its run, from an environment (variable -> semantic value) to
    what it denotes there, a value of T if the node is free (see the module
    docstring) and a selection computation if not, both built by one case
    per constructor from the unit and bind of T or of ``sel_*``; its free
    variables; its body's tuple, at a Lam; whether it is a Var or constant.
    ``keep`` computes a free value on the first run that needs it, at a
    choosing parent, the root or a let's body, and keeps it per value of
    its free variables.  A Lam whose body ignores its variable returns one
    body computation, built on first call; a Hole fails when built."""
    free_ops = (monad.unit, monad.bind, monad.reward,
                getattr(monad, "pchoice", None))
    sel_ops = (partial(sel_unit, monad), partial(sel_bind, monad),
               lambda c, f: lambda gamma: monad.reward(c, f(gamma)),
               lambda p, f, g: lambda gamma: monad.pchoice(p, f(gamma), g(gamma)))

    def keep(run, fv):
        kept, names = {}, tuple(fv)

        def value(env):
            key = tuple([env[n] for n in names])
            u = kept.get(key)  # monad values are never None
            if u is None:
                u = kept[key] = run(env)
            return u
        return value

    def as_sel(kid):
        run, free, fv, _, leaf = kid
        if not free:
            return run
        if leaf:  # a unit: nothing worth keeping
            return lambda env: (lambda gamma, u=run(env): u)
        value = keep(run, fv)
        return lambda env: lambda gamma: value(env)

    # one case per constructor, over ops = (unit, bind, reward, pchoice)

    def pair(s, runs, ops):
        (f, g), (unit, bind, _, _) = runs, ops
        return lambda env: bind(f(env), lambda u: bind(
            g(env), lambda v: unit(Pair(u, v))))

    def proj(s, runs, ops):
        (f,), (unit, bind, _, _), snd = runs, ops, type(s) is Snd
        return lambda env: bind(f(env), lambda u: unit(u.snd if snd else u.fst))

    def app(s, runs, ops):
        (f, a), bind = runs, ops[1]
        return lambda env: bind(f(env), lambda phi: bind(a(env), phi.fn))

    def cond(s, runs, ops):
        (c, a, b), bind = runs, ops[1]
        return lambda env: bind(c(env), lambda v: a(env) if v == TT else b(env))

    def fn_app(s, runs, ops):
        unit, bind, _, _ = ops

        def chain(env, i, acc):  # one level per argument, at most two
            if i == len(runs):
                return unit(_eval_fn(s.sym, acc, s.weight, config))
            return bind(runs[i](env), lambda v: chain(env, i + 1, acc + [v]))
        return lambda env: chain(env, 0, [])

    def rew(s, runs, ops):
        (r, f), (_, bind, reward, _) = runs, ops
        return lambda env: bind(r(env), lambda c: reward(c.value, f(env)))

    def pchoice(s, runs, ops):
        (f, g), choice = runs, ops[3]
        return lambda env: choice(s.weight, f(env), g(env))

    def choose(s, runs, ops):
        f, g = runs
        return lambda env: sel_or(monad, f(env), g(env))

    def fail(s, runs, ops):
        def run(env):
            raise ValueError(f"cannot denote {s!r}")
        return run

    cases = {Pair: pair, Fst: proj, Snd: proj, App: app, If: cond,
             FnApp: fn_app, Rew: rew, PChoice: pchoice, Or: choose}

    def let(x, arg, body):  # a free App of a literal Lam
        body, bind = keep(body[0], body[2]), monad.bind
        return lambda env: bind(arg(env), lambda v: body({**env, x: v}))

    def leaf(s):
        if type(s) is Var:
            return lambda env: monad.unit(env[s.name])
        return lambda env: monad.unit(s)

    def lam(s, body, fv):
        x, names, reads, body = s.var, sorted(fv), s.var in body[2], as_sel(body)

        def run(env):
            captured = tuple((n, env[n]) for n in names)
            if reads:
                return monad.unit(FnElem(lambda a: body({**env, x: a}), s, captured))
            built = []  # the body's computation, built on the first call

            def fn(_):
                if not built:
                    built.append(body(env))
                return built[0]
            return monad.unit(FnElem(fn, s, captured))
        return run

    def node(s, kids, _):
        cls = type(s)
        if cls is Var:
            return leaf(s), True, {s.name}, None, True
        if cls in (Const, RewConst, Star):
            return leaf(s), True, frozenset(), None, True
        if cls is Lam:
            fv = kids[0][2] - {s.var}
            return lam(s, kids[0], fv), True, fv, kids[0], False
        free, fv = cls is not Or and cls is not Hole, frozenset()
        for k in kids:
            free = free and k[1]
            if k[2]:
                fv = fv | k[2] if fv else k[2]
        if free and cls is App:
            body = kids[0][3]
            if body is not None and body[1]:
                return let(s.fn.var, kids[1][0], body), True, fv, None, False
            free = False
        if free:
            return cases[cls](s, [k[0] for k in kids], free_ops), True, fv, None, False
        runs = [as_sel(k) if k[1] else k[0] for k in kids]
        return cases.get(cls, fail)(s, runs, sel_ops), False, fv, None, False

    return node, as_sel


def denote(t: Term, config: LangConfig, monad):
    """The computation t denotes: a function from a reward continuation to
    a value of monad.  One fold compiles t.  A closed value denotes the
    unit on its semantic value under every valuation, a ``fun`` as its
    closure, an ``FnElem``."""
    node, as_sel = _compiler(config, monad)
    return as_sel(fold_term(t, node))({})


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
    """An operational outcome (atoms: syntactic values) in the monad's
    carrier over semantic values: the outcome, through ``theta`` in prob
    mode, bound to what ``denote`` gives each value.  A closed value
    denotes the unit on its semantic value under every valuation, and
    ``theta`` is a monad morphism, so this maps each value in place."""
    u = out if config.mode == "rewards" else theta(out, monad)
    zero = zero_gamma(config)
    return monad.bind(u, lambda v: denote(v, config, monad)(zero))


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
