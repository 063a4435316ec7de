"""The small-step relation written out literally: one root-to-redex
decomposition per step, then contract and plug.  It is the reference that
the refocused machine in ``selcalc.operational`` is checked against, for
effect values, step counts, errors and ``trace_eval`` snapshots.  Its
beta-step substitutes with the fold ``substitute`` below, kept apart from
the library's, so that a fault of the library's substitution shows as a
difference."""

from dataclasses import dataclass
from fractions import Fraction

from selcalc.operational import (
    DEFAULT_BUDGET, BudgetExceeded, StuckTerm, _eval_fn,
)
from selcalc.syntax import (
    App, Const, FnApp, Fst, Hole, If, LangConfig, Lam, Or, Pair, PChoice,
    Rew, RewConst, Snd, Term, Var, children, fold_term, is_value, plug,
    rebuild,
)


### free variables and substitution, as folds over the whole term

def free_vars(t: Term) -> frozenset[str]:
    def node(s, kids, env):
        if type(s) is Var:
            return frozenset() if s.name in env else frozenset((s.name,))
        return frozenset().union(*kids)

    return fold_term(t, node)


def substitute(t: Term, var: str, val: Term, check_capture: bool = True) -> Term:
    """Substitution t[val/var] by one fold over all of t.  With
    check_capture, a binder of t that binds a free variable of val, and
    lies under no binder of var, raises ValueError naming it, whether or
    not var occurs under it.  A node none of whose children changed is
    returned itself."""
    capture = free_vars(val) if check_capture else frozenset()

    def bind(lam, env):
        if lam.var in capture and lam.var != var and var not in env:
            raise ValueError(f"substitute: binder {lam.var} would capture "
                             f"a free variable of the value for {var}")
        return lam.ty

    def node(s, kids, env):
        if type(s) is Var:
            return val if s.name == var and var not in env else s
        if all(a is b for a, b in zip(kids, children(s))):
            return s
        return rebuild(s, kids)

    return fold_term(t, node, bind)


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


def step_trace(t: Term, config: LangConfig, budget: int = DEFAULT_BUDGET):
    """Yield (depth, term) snapshots of the evaluation, one per ordinary
    step, descending into branches left to right: the fold of ``step`` that
    ``trace_eval`` must match."""
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
