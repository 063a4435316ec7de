"""Operational semantics: the small-step map from programs to effect values.

A closed well-typed term that is not a value decomposes uniquely into an
evaluation context around a redex.  Ordinary redexes rewrite in place;
operation redexes suspend, and the context is pushed into every branch
(commutation of contexts with operations).  Iterating this turns a program
into an effect value: a tree of or / reward / probabilistic-choice nodes
with values at the leaves.

One machine runs that relation by refocusing (Danvy and Nielsen,
*Refocusing in reduction semantics*, 2004): it keeps the evaluation context
as a linked stack of frames, descends to the next redex, and after a
reduction resumes at the frame where the redex sat instead of restarting
from the root, so it fires the redexes the literal relation fires, in its
order.  Both branches of an operation resume with the same continuation
object: commutation without re-plugging.  Explicit stacks hold frames and
pending branches, so neither term depth nor effect depth uses Python
recursion.  ``trace_eval`` runs the machine ``eval_effect`` runs and also
yields the whole term, the focus plugged into its frames, at each branch
and step.  The literal relation is the tests' reference for both.

Branches often reach the same state: a ``let`` whose variable does not
occur in its body substitutes into the same body object (``substitute``
returns what it does not change) under the same shared continuation.
Untraced, the machine keeps a memo for the length of one call, keyed by
the identity of the term and continuation after a beta-step; it records
a state while another branch is pending, evaluates it once and hands its
effect value to every branch that reaches it again.  Effect values may
therefore share subtrees; they print, compare and hash as the trees they
stand for.  The budget still counts steps of the small-step relation: a
memo hit charges the steps the state took the first time, so a run
fails where the relation would.  ``trace_eval`` keeps no memo, because
it yields every snapshot.
"""

from __future__ import annotations

from .syntax import (
    FF, TT, App, Const, FnApp, Fst, If, LangConfig, Lam, Or, Pair, PChoice,
    Rew, RewConst, Snd, Star, Term, Var, is_effect_value_with, kept,
    substitute,
)


class StuckTerm(Exception):
    pass


class BudgetExceeded(Exception):
    pass


def _eval_fn(sym: str, args, weight, config: LangConfig) -> Term:
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

# The term each frame makes of the term t in its hole, by tag.
_PLUG = (
    lambda d, t: App(t, d),
    lambda d, t: App(d, t),
    lambda d, t: Pair(t, d.snd),
    lambda d, t: Pair(d[0], t),
    lambda d, t: Fst(t),
    lambda d, t: Snd(t),
    lambda d, t: If(t, d.then, d.els),
    lambda d, t: FnApp(d[0].sym, d[2] + (t,) + d[0].args[d[1] + 1:],
                       d[0].weight),
    lambda d, t: Rew(t, d.body),
)


def _plug_frames(k, t: Term) -> Term:
    """The whole term: t plugged into the frame stack k."""
    while k is not None:
        tag, data, k = k
        t = _PLUG[tag](data, t)
    return t


# Work stack entries: (_EVAL, term, continuation) evaluates a branch;
# (_BUILD, node, depth) rebuilds an operation node (for a reward, its
# constant) from the effect values of its branches, which run at ``depth``;
# (_STORE, (term, continuation), steps left) records in the memo the
# effect value that state finished with, and the steps it took.
_EVAL, _BUILD, _STORE = 0, 1, 2

_VALUE_LEAVES = (Const, RewConst, Star, Lam)


def _machine(t: Term, config: LangConfig, budget: int, trace: bool):
    """The refocused machine: yields the snapshots ``trace_eval`` documents
    if ``trace`` is set, none otherwise, and returns the effect value."""
    remaining = budget
    done: list[Term] = []      # effect values of finished branches
    work = [(_EVAL, t, None)]
    depth = 0                  # branch depth of the focus
    # (id(term), id(continuation)) of a state reached by a beta-step ->
    # (its effect value, the steps it took, the keyed state, kept so that
    # the ids stay its own)
    memo = {}
    branches = 1               # _EVAL entries on the work stack
    while work:
        kind, t, k = work.pop()
        if kind == _STORE:
            memo[id(t[0]), id(t[1])] = (done[-1], k - remaining, t)
            continue
        if kind == _BUILD:
            b = done.pop()
            if type(t) is RewConst:
                done.append(Rew(t, b))
            else:
                a = done.pop()
                done.append(Or(a, b) if type(t) is Or else PChoice(t.weight, a, b))
            continue
        branches -= 1
        if trace:
            # a right branch sits just above its node's build entry
            depth = work[-1][2] if work else 0
            yield depth, _plug_frames(k, t)
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
                if trace:
                    yield depth, _plug_frames(k, t)
                continue
            if cls is Or or cls is PChoice:
                if cls is PChoice and config.mode != "prob":
                    raise StuckTerm("probabilistic choice outside mode prob")
                depth += 1
                work.append((_BUILD, t, depth))
                work.append((_EVAL, t.right, k))
                branches += 1
                t = t.left
                if trace:
                    yield depth, _plug_frames(k, t)
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
                    depth += 1
                    work.append((_BUILD, v, depth))
                    k = outer
                    t = data.body
                    if trace:
                        yield depth, _plug_frames(k, t)
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
                if trace:
                    yield depth, _plug_frames(k, t)
                elif tag == _APP_ARG and (branches or memo):
                    # a state another branch may have reached: finish it
                    # from the memo; else, while a branch is pending that
                    # may reach it, record it when it finishes
                    hit = memo.get((id(t), id(k)))
                    if hit is None:
                        if branches:
                            work.append((_STORE, (t, k), remaining))
                    else:
                        remaining -= hit[1]
                        if remaining < 0:
                            raise BudgetExceeded(
                                f"exceeded {budget} evaluation steps")
                        v = hit[0]
                        k = None       # so the else below ends the branch
                        continue
                break
            else:
                done.append(v)
                break
    return done[0]


def eval_effect(t: Term, config: LangConfig, budget: int = DEFAULT_BUDGET) -> Term:
    """Big-step evaluation to an effect value, by the refocused machine
    described in the module docstring.  ``budget`` bounds the total number
    of ordinary steps across all branches.  Redexes fire in the order of
    the small-step relation, branches left before right, so the result and
    the step count are the ones that relation gives; a repeated state is
    evaluated once and its subtree shared.

    An input that already is an effect value the machine accepts takes no
    step and comes back as itself, with whatever subtrees it shares.  Any
    other input keeps its effect value on the node (``syntax.kept``) for
    as long as the node lives, keyed by the config object and the budget:
    a later call with both the same returns it without running the
    machine, and any other call runs the machine again.  Errors are never
    kept: they raise on every call."""
    if is_effect_value_with(t, config.mode == "prob",
                            config.structure.contains):
        return t
    return kept(t, "_effect", config, budget,
                lambda: _run(t, config, budget))


def _run(t: Term, config: LangConfig, budget: int) -> Term:
    try:
        next(_machine(t, config, budget, False))
    except StopIteration as finished:
        return finished.value


def trace_eval(t: Term, config: LangConfig):
    """Yield (depth, term) snapshots of one run of the machine: the root at
    depth 0, the start of each branch of an operation at one more than the
    depth of the operation, and the whole term after each ordinary step;
    branches are visited left to right.  The generator returns the effect
    value ``eval_effect`` gives."""
    return _machine(t, config, DEFAULT_BUDGET, True)
