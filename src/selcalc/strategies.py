"""Strategies over effect values, and globally optimal selection.

A strategy resolves every choice in an effect value: it picks a side of
each ``or`` and commits to both sides of a probabilistic choice.  Strategies
are enumerated in a fixed total order (left strategies before right ones,
outer component major for probabilistic pairs); selection picks the least
strategy maximizing expected reward, so ties resolve to the leftmost
option.

``select_bruteforce`` enumerates everything and is the reference oracle;
``select_fast`` computes the same outcome by one fold of the effect value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .monads import expect0, make_monad
from .operational import DEFAULT_BUDGET, eval_effect
from .syntax import (
    LangConfig, Or, PChoice, Rew, RewConst, Term, fold_effect, is_value,
)


class StrategyCapExceeded(Exception):
    pass


### strategy trees

class Strategy:
    pass


@dataclass(frozen=True)
class Leaf(Strategy):
    def __repr__(self):
        return "*"


@dataclass(frozen=True)
class Left(Strategy):
    s: Strategy

    def __repr__(self):
        return f"1{self.s!r}"


@dataclass(frozen=True)
class Right(Strategy):
    s: Strategy

    def __repr__(self):
        return f"2{self.s!r}"


@dataclass(frozen=True)
class Through(Strategy):
    s: Strategy

    def __repr__(self):
        return f".{self.s!r}"


@dataclass(frozen=True)
class Both(Strategy):
    """Strategy for a probabilistic choice: one sub-strategy per side."""
    s1: Strategy
    s2: Strategy

    def __repr__(self):
        return f"({self.s1!r},{self.s2!r})"


DEFAULT_CAP = 2 ** 20


def strategy_count(e: Term) -> int:
    return fold_effect(e, lambda v: 1, operator.add, lambda c, n: n,
                       lambda p, m, n: m * n)


def enumerate_strategies(e: Term, cap: int = DEFAULT_CAP):
    """All strategies for an effect value, in their canonical order."""
    if strategy_count(e) > cap:
        raise StrategyCapExceeded(f"more than {cap} strategies")

    def gen(e):
        if is_value(e):
            yield Leaf()
            return
        match e:
            case Or(a, b):
                for s in gen(a):
                    yield Left(s)
                for s in gen(b):
                    yield Right(s)
            case Rew(_, m):
                for s in gen(m):
                    yield Through(s)
            case PChoice(_, a, b):
                rights = list(gen(b))
                for s1 in gen(a):
                    for s2 in rights:
                        yield Both(s1, s2)

    return gen(e)


### outcomes

def outcome(s: Strategy, e: Term, config: LangConfig):
    """The result this strategy extracts: a (reward, value) pair in rewards
    mode, a distribution of such pairs in prob mode."""
    if config.mode == "rewards":
        monad = make_monad("W", config.structure)
    else:
        monad = make_monad("DW", config.structure)

    def go(s, e):
        match s, e:
            case (Leaf(), v) if is_value(v):
                return monad.unit(v)
            case (Left(t), Or(a, _)):
                return go(t, a)
            case (Right(t), Or(_, b)):
                return go(t, b)
            case (Through(t), Rew(RewConst(c), m)):
                return monad.reward(c, go(t, m))
            case (Both(t1, t2), PChoice(p, a, b)):
                return monad.pchoice(p, go(t1, a), go(t2, b))
            case _:
                raise ValueError(f"strategy {s!r} does not fit {e!r}")

    return go(s, e)


def outcome_score(out, config: LangConfig) -> Fraction:
    """Expected reward of an outcome, ignoring values."""
    if config.mode == "rewards":
        return out[0]
    return expect0(out, config.structure)


def strategy_reward(s: Strategy, e: Term, config: LangConfig) -> Fraction:
    return outcome_score(outcome(s, e, config), config)


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


def best_strategy(e: Term, config: LangConfig, cap: int = DEFAULT_CAP):
    """The least optimal strategy and its outcome."""
    best = argmax(enumerate_strategies(e, cap),
                  lambda s: strategy_reward(s, e, config))
    return best, outcome(best, e, config)


def select_bruteforce(m: Term, config: LangConfig, cap: int = DEFAULT_CAP,
                      budget: int = DEFAULT_BUDGET):
    """Evaluate to an effect value, then score every strategy."""
    e = eval_effect(m, config, budget)
    _, out = best_strategy(e, config, cap)
    return out


def select_fast(e: Term, config: LangConfig):
    """Outcome of the optimal strategy, by one fold of the effect value:
    values give the unit outcome, rewards shift, probabilistic choice
    mixes, and ``or`` takes the expected-reward maximum of its sides,
    preferring the left."""
    if config.mode == "rewards":
        monad = make_monad("W", config.structure)
    else:
        monad = make_monad("DW", config.structure)
    return fold_effect(
        e, monad.unit,
        lambda u, v: max_by(lambda w: outcome_score(w, config), u, v),
        monad.reward, monad.pchoice if monad.has_pchoice else None)


def select_program(m: Term, config: LangConfig, budget: int = DEFAULT_BUDGET):
    """Evaluate and select, the fast way."""
    return select_fast(eval_effect(m, config, budget), config)
