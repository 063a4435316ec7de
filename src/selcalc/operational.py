"""Operational semantics: evaluation contexts, small steps, and the big-step
map from programs to effect values.

A closed well-typed term that is not a value decomposes uniquely into an
evaluation context around a redex.  Ordinary redexes rewrite in place;
operation redexes suspend, and the context is pushed into every branch
(commutation of contexts with operations).  Iterating this turns a program
into an effect value: a tree of or / reward / probabilistic-choice nodes
with values at the leaves.

``step`` (with ``decompose`` and ``plug``) is that small-step relation
written out literally, one root-to-redex decomposition per step; it is the
reference the ``--trace`` output follows.  ``eval_effect`` computes the same
effect value by refocusing (Danvy and Nielsen, *Refocusing in reduction
semantics*, 2004): it keeps the evaluation context as a linked stack of
frames, descends to the next redex, and after a reduction resumes at the
frame where the redex sat instead of restarting from the root.  At an
operation both branches resume with the same continuation object, which is
the commutation rule without re-plugging.  Frames and pending branches
live on explicit stacks, so neither term depth nor effect depth uses
Python recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    App, Const, FnApp, Fst, Hole, If, LangConfig, Lam, Or, Pair, PChoice,
    Rew, RewConst, Snd, Star, Term, Var, is_value, plug, substitute,
)


class StuckTerm(Exception):
    pass


class BudgetExceeded(Exception):
    pass


### decomposition

def decompose(t: Term) -> tuple[Term, Term] | None:
    """Split a closed non-value term into (context, redex); None for values.
    The context is a term with a single Hole."""
    if is_value(t):
        return None

    def wrap(ctx_of, sub):
        inner = decompose(sub)
        if inner is None:
            raise StuckTerm(f"expected a non-value: {sub!r}")
        ctx, redex = inner
        return ctx_of(ctx), redex

    match t:
        case App(f, a):
            if not is_value(f):
                return wrap(lambda c: App(c, a), f)
            if not is_value(a):
                return wrap(lambda c: App(f, c), a)
            return (Hole(), t)
        case Pair(a, b):
            if not is_value(a):
                return wrap(lambda c: Pair(c, b), a)
            return wrap(lambda c: Pair(a, c), b)
        case Fst(a):
            if not is_value(a):
                return wrap(lambda c: Fst(c), a)
            return (Hole(), t)
        case Snd(a):
            if not is_value(a):
                return wrap(lambda c: Snd(c), a)
            return (Hole(), t)
        case If(c, a, b):
            if not is_value(c):
                return wrap(lambda h: If(h, a, b), c)
            return (Hole(), t)
        case FnApp(sym, args, w):
            for i, a in enumerate(args):
                if not is_value(a):
                    def rebuild(c, i=i):
                        new = args[:i] + (c,) + args[i + 1:]
                        return FnApp(sym, new, w)
                    return wrap(rebuild, a)
            return (Hole(), t)
        case Or(_, _) | PChoice(_, _, _):
            return (Hole(), t)
        case Rew(c, m):
            if not is_value(c):
                return wrap(lambda h: Rew(h, m), c)
            return (Hole(), t)
        case Var(name):
            raise StuckTerm(f"unbound variable {name}")
        case _:
            raise StuckTerm(f"cannot decompose {t!r}")


### small step

@dataclass
class Value:
    term: Term


@dataclass
class Ordinary:
    term: Term


@dataclass
class Branch:
    """An operation redex in context: op(params; branch terms), with the
    surrounding context already pushed into the branches."""
    op: str                       # "or" | "reward" | "pchoice"
    params: tuple[Fraction, ...]
    branches: tuple[Term, ...]


def _eval_fn(sym: str, args, weight, config: LangConfig) -> Term:
    from .syntax import FF, TT
    st = config.structure
    match sym:
        case "+":
            return RewConst(st.add(args[0].value, args[1].value))
        case "<=":
            return TT if st.leq(args[0].value, args[1].value) else FF
        case "==":
            return TT if args[0] == args[1] else FF
        case "oplus":
            return RewConst(st.convex(weight, args[0].value, args[1].value))
        case _:
            raise StuckTerm(f"unknown function symbol {sym}")


def step(t: Term, config: LangConfig):
    """One step: Value, Ordinary(next term), or Branch(op, params, branches)."""
    d = decompose(t)
    if d is None:
        return Value(t)
    ctx, redex = d
    match redex:
        case App(Lam(v, _, body), a):
            return Ordinary(plug(ctx, substitute(body, v, a)))
        case Fst(Pair(a, _)):
            return Ordinary(plug(ctx, a))
        case Snd(Pair(_, b)):
            return Ordinary(plug(ctx, b))
        case If(Const("tt", "Bool", _), a, _):
            return Ordinary(plug(ctx, a))
        case If(Const("ff", "Bool", _), _, b):
            return Ordinary(plug(ctx, b))
        case FnApp(sym, args, w):
            return Ordinary(plug(ctx, _eval_fn(sym, args, w, config)))
        case Or(a, b):
            return Branch("or", (), (plug(ctx, a), plug(ctx, b)))
        case Rew(RewConst(c), m):
            config.structure.check_member(c)
            return Branch("reward", (c,), (plug(ctx, m),))
        case PChoice(p, a, b):
            if config.mode != "prob":
                raise StuckTerm("probabilistic choice outside mode prob")
            return Branch("pchoice", (p,), (plug(ctx, a), plug(ctx, b)))
        case _:
            raise StuckTerm(f"stuck redex {redex!r}")


DEFAULT_BUDGET = 10 ** 6


# Frames of the evaluation context, innermost first: (tag, data, outer).
# ``data`` is the sub-term still to evaluate, the value already found, or
# the node whose hole the frame stands for.
_APP_FN = 0     # [-] a            data: a
_APP_ARG = 1    # f [-]            data: the value f
_PAIR_L = 2     # <[-], b>         data: the Pair node
_PAIR_R = 3     # <a, [-]>         data: (the value a, the Pair node)
_FST = 4        # fst [-]
_SND = 5        # snd [-]
_IF = 6         # if [-] then a else b     data: the If node
_FN = 7         # sym(v1..vi, [-], ...)    data: (FnApp node, i, (v1..vi))
_REW = 8        # [-] . m          data: the Rew node

# Entries of the work stack besides (_EVAL, term, continuation): rebuild an
# operation node from the effect values of its finished branches.
_EVAL, _BUILD_OR, _BUILD_REW, _BUILD_PC = range(4)

_VALUE_LEAVES = (Const, RewConst, Star, Lam)


def eval_effect(t: Term, config: LangConfig, budget: int = DEFAULT_BUDGET) -> Term:
    """Big-step evaluation to an effect value, by the refocused machine
    described in the module docstring.  ``budget`` bounds the total number
    of ordinary steps across all branches.  Redexes fire in the order
    ``step`` fires them, branches left before right, so the result, the
    step count and the fresh names ``substitute`` makes are the same."""
    remaining = budget
    done: list[Term] = []      # effect values of finished branches
    work = [(_EVAL, t, None)]
    while work:
        kind, t, k = work.pop()
        if kind == _BUILD_REW:
            done.append(Rew(t, done.pop()))
            continue
        if kind != _EVAL:
            b = done.pop()
            a = done.pop()
            done.append(Or(a, b) if kind == _BUILD_OR else PChoice(t, a, b))
            continue
        while True:
            # descend to the next value or operation, pushing frames
            cls = type(t)
            if cls is App:
                k = (_APP_FN, t.arg, k)
                t = t.fn
                continue
            if cls is Pair:
                k = (_PAIR_L, t, k)
                t = t.fst
                continue
            if cls is Fst or cls is Snd:
                k = (_FST if cls is Fst else _SND, None, k)
                t = t.arg
                continue
            if cls is If:
                k = (_IF, t, k)
                t = t.cond
                continue
            if cls is Rew:
                k = (_REW, t, k)
                t = t.param
                continue
            if cls is FnApp:
                if t.args:
                    k = (_FN, (t, 0, ()), k)
                    t = t.args[0]
                    continue
                t = _eval_fn(t.sym, t.args, t.weight, config)
                remaining -= 1
                if remaining < 0:
                    raise BudgetExceeded(f"exceeded {budget} evaluation steps")
                continue
            if cls is Or:
                work.append((_BUILD_OR, None, None))
                work.append((_EVAL, t.right, k))
                t = t.left
                continue
            if cls is PChoice:
                if config.mode != "prob":
                    raise StuckTerm("probabilistic choice outside mode prob")
                work.append((_BUILD_PC, t.weight, None))
                work.append((_EVAL, t.right, k))
                t = t.left
                continue
            if cls not in _VALUE_LEAVES:
                if cls is Var:
                    raise StuckTerm(f"unbound variable {t.name}")
                raise StuckTerm(f"cannot decompose {t!r}")
            # plug the value into frames until a frame needs another
            # sub-term evaluated or a redex fires
            v = t
            while k is not None:
                tag, data, outer = k
                if tag == _PAIR_R:
                    a, node = data
                    v = node if a is node.fst and v is node.snd else Pair(a, v)
                    k = outer
                    continue
                if tag == _APP_FN:
                    k = (_APP_ARG, v, outer)
                    t = data
                    break
                if tag == _PAIR_L:
                    k = (_PAIR_R, (v, data), outer)
                    t = data.snd
                    break
                if tag == _FN:
                    node, i, vals = data
                    vals += (v,)
                    i += 1
                    if i < len(node.args):
                        k = (_FN, (node, i, vals), outer)
                        t = node.args[i]
                        break
                    t = _eval_fn(node.sym, vals, node.weight, config)
                elif tag == _APP_ARG:
                    if type(data) is not Lam:
                        raise StuckTerm(f"stuck redex {App(data, v)!r}")
                    t = substitute(data.body, data.var, v)
                elif tag == _REW:
                    if type(v) is not RewConst:
                        raise StuckTerm(f"stuck redex {Rew(v, data.body)!r}")
                    config.structure.check_member(v.value)
                    work.append((_BUILD_REW, v, None))
                    k = outer
                    t = data.body
                    break
                elif tag == _IF:
                    if type(v) is Const and v.base == "Bool" and v.name == "tt":
                        t = data.then
                    elif type(v) is Const and v.base == "Bool" and v.name == "ff":
                        t = data.els
                    else:
                        raise StuckTerm(f"stuck redex {If(v, data.then, data.els)!r}")
                elif type(v) is Pair:
                    t = v.fst if tag == _FST else v.snd
                else:
                    raise StuckTerm(
                        f"stuck redex {(Fst(v) if tag == _FST else Snd(v))!r}")
                # an ordinary step fired; resume focus where the redex sat
                remaining -= 1
                if remaining < 0:
                    raise BudgetExceeded(f"exceeded {budget} evaluation steps")
                k = outer
                break
            else:
                done.append(v)
                break
    return done[0]


def trace_eval(t: Term, config: LangConfig, budget: int = DEFAULT_BUDGET):
    """Yield (depth, term) snapshots of the evaluation, one per ordinary
    step, descending into branches left to right."""
    remaining = budget
    pending = [(0, t)]
    while pending:
        depth, t = pending.pop()
        yield (depth, t)
        while True:
            r = step(t, config)
            match r:
                case Value(_):
                    break
                case Ordinary(nxt):
                    remaining -= 1
                    if remaining < 0:
                        raise BudgetExceeded(f"exceeded {budget} evaluation steps")
                    t = nxt
                    yield (depth, t)
                case Branch(_, _, branches):
                    pending += [(depth + 1, b) for b in reversed(branches)]
                    break
