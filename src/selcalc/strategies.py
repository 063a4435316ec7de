"""Strategies over effect values, and globally optimal selection.

A strategy resolves every choice in an effect value: it picks a side of
each ``or`` and commits to both sides of a probabilistic choice.  Strategies
are enumerated in a fixed total order (left strategies before right ones,
outer component major for probabilistic pairs); selection picks the least
strategy maximizing expected reward, so ties resolve to the leftmost
option.

``select_bruteforce`` lists every strategy's outcome and is the reference
oracle; ``select_fast`` computes the same outcome by one fold of the effect
value that keeps only the best outcome of each subtree.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .monads import default_monad, expect0, make_monad
from .operational import eval_effect
from .syntax import LangConfig, Term, fold_effect


class StrategyCapExceeded(Exception):
    pass


DEFAULT_CAP = 2 ** 20


def strategy_count(e: Term) -> int:
    return fold_effect(e, lambda v: 1, operator.add, lambda c, n: n,
                       lambda p, m, n: m * n)


def outcomes(e: Term, config: LangConfig, cap: int = DEFAULT_CAP) -> list:
    """The outcome of every strategy for an effect value, in the canonical
    strategy order: an ``or`` lists its left strategies before its right
    ones, and a probabilistic choice pairs each left strategy, varying
    slowest, with each right one.  An outcome is a (reward, value) pair in
    rewards mode and a distribution of such pairs in prob mode.  The list
    holds up to ``cap`` outcomes; more strategies raise
    StrategyCapExceeded before any is listed."""
    if strategy_count(e) > cap:
        raise StrategyCapExceeded(f"more than {cap} strategies")
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


def outcome_score(out, config: LangConfig) -> Fraction:
    """Expected reward of an outcome, ignoring values."""
    if config.mode == "rewards":
        return out[0]
    return expect0(out, config.structure)


### selection

def argmax(candidates, score):
    """Least maximizer: first element whose score no later element beats."""
    best = None
    best_score = None
    for c in candidates:
        sc = score(c)
        if best is None or sc > best_score:
            best, best_score = c, sc
    if best is None:
        raise ValueError("argmax of empty sequence")
    return best


def max_by(score, u, v):
    """Binary left-biased maximum."""
    return u if score(u) >= score(v) else v


def select_bruteforce(m: Term, config: LangConfig, cap: int = DEFAULT_CAP):
    """Evaluate to an effect value, list every strategy's outcome, and
    take the first with the greatest expected reward."""
    e = eval_effect(m, config)
    return argmax(outcomes(e, config, cap), lambda u: outcome_score(u, config))


def select_fast(e: Term, config: LangConfig):
    """Outcome of the optimal strategy, by one fold of the effect value:
    values give the unit outcome, rewards shift, probabilistic choice
    mixes, and ``or`` takes the expected-reward maximum of its sides,
    preferring the left."""
    monad = make_monad(default_monad(config.mode), config.structure)
    return fold_effect(
        e, monad.unit,
        lambda u, v: max_by(lambda w: outcome_score(w, config), u, v),
        monad.reward, monad.pchoice if monad.has_pchoice else None)


def select_program(m: Term, config: LangConfig):
    """Evaluate and select, the fast way."""
    return select_fast(eval_effect(m, config), config)
