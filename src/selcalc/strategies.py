"""Strategies over effect values, and globally optimal selection.

A strategy resolves every choice in an effect value: it picks a side of
each ``or`` and commits to both sides of a probabilistic choice.  Strategies
are enumerated in a fixed total order (left strategies before right ones,
outer component major for probabilistic pairs); selection picks the least
strategy maximizing expected reward, so ties resolve to the leftmost
option.

An outcome lives in the mode's auxiliary monad, W or DW, and its score is
``monad.expect0``, its expected reward at the zero valuation; no other
scorer exists.  ``select_bruteforce`` lists every strategy's outcome and
picks with ``argmax``, the least maximizer; it is the reference oracle.
``select_fast`` and the canonical forms share ``best_outcomes``, one fold
that keeps each subtree's outcomes one per key, replacing one only by a
strictly better one, so a single key keeps the selected outcome.
"""

from __future__ import annotations

import operator

from .monads import default_monad, make_monad
from .operational import eval_effect
from .syntax import LangConfig, Term, fold_effect


class StrategyCapExceeded(Exception):
    pass


DEFAULT_CAP = 2 ** 20


def strategy_count(e: Term) -> int:
    return fold_effect(e, lambda v: 1, operator.add, lambda c, n: n,
                       lambda p, m, n: m * n)


def check_cap(e: Term, cap: int = DEFAULT_CAP) -> Term:
    """e itself; StrategyCapExceeded when it has more than cap strategies."""
    if strategy_count(e) > cap:
        raise StrategyCapExceeded(f"more than {cap} strategies")
    return e


def outcomes(e: Term, config: LangConfig, cap: int = DEFAULT_CAP) -> list:
    """The outcome of every strategy for an effect value, in the canonical
    strategy order: an ``or`` lists its left strategies before its right
    ones, and a probabilistic choice pairs each left strategy, varying
    slowest, with each right one.  An outcome is a (reward, value) pair in
    rewards mode and a distribution of such pairs in prob mode.  The list
    holds up to ``cap`` outcomes; more strategies raise
    StrategyCapExceeded before any is listed."""
    check_cap(e, cap)
    monad = make_monad(default_monad(config.mode), config.structure)

    # An ``or`` pairs its sides' folds, which are flattened only where
    # needed: a left-nested chain costs linear time, and no fold, which
    # another node sharing the subtree may read, is changed.
    def flat(a):
        if type(a) is list:
            return a
        out, stack = [], [a]
        while stack:
            x = stack.pop()
            if type(x) is list:
                out += x
            else:
                stack += (x[1], x[0])
        return out

    def pchoice(p, a, b):
        b = flat(b)
        return [monad.pchoice(p, u, v) for u in flat(a) for v in b]

    return flat(fold_effect(e, lambda v: [monad.unit(v)], lambda a, b: (a, b),
                            lambda c, a: [monad.reward(c, u) for u in flat(a)],
                            pchoice if monad.has_pchoice else None))


def best_outcomes(e: Term, monad, key) -> list:
    """The strategy outcomes of an effect value in ``monad``, in strategy
    order, one per key: a later outcome with a listed key replaces the
    listed one, moving to the end, exactly when its ``monad.expect0`` (its
    expected reward at the zero valuation) is strictly greater, and is
    dropped otherwise.  Reducing each node's list as it is folded gives
    the same list, since an ``or`` lists its sides in order and reward and
    ``+[p]`` act on each outcome alone.  Keys are computed only where
    lists meet, and scores only where keys meet."""
    def merge(outs):
        kept = {}
        for u in outs:
            k = key(u)
            old = kept.get(k)
            if old is None or monad.expect0(u) > monad.expect0(old):
                kept.pop(k, None)
                kept[k] = u
        return list(kept.values())

    def pchoice(p, a, b):
        return merge([monad.pchoice(p, u, v) for u in a for v in b])

    return fold_effect(e, lambda v: [monad.unit(v)], lambda a, b: merge(a + b),
                       lambda c, a: [monad.reward(c, u) for u in a],
                       pchoice if monad.has_pchoice else None)


### selection

def argmax(candidates, score):
    """Least maximizer: first element whose score no later element beats."""
    return max(candidates, key=score)


def max_by(score, u, v):
    """Binary left-biased maximum."""
    return u if score(u) >= score(v) else v


def select_bruteforce(m: Term, config: LangConfig, cap: int = DEFAULT_CAP):
    """Evaluate to an effect value, list every strategy's outcome, and
    take the first with the greatest ``monad.expect0``, in the mode's
    monad."""
    monad = make_monad(default_monad(config.mode), config.structure)
    return argmax(outcomes(eval_effect(m, config), config, cap), monad.expect0)


def select_fast(e: Term, config: LangConfig):
    """Outcome of the optimal strategy: the first outcome with the
    greatest expected reward, kept by one fold of the effect value."""
    monad = make_monad(default_monad(config.mode), config.structure)
    return best_outcomes(e, monad, lambda u: None)[0]


def select_program(m: Term, config: LangConfig):
    """Evaluate and select, the fast way."""
    return select_fast(eval_effect(m, config), config)
