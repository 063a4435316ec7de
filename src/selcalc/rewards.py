"""Reward scalars and reward structures.

Rewards are exact rationals.  A reward structure packages the carrier
predicate, the commutative monoid used to accumulate rewards, the total
order used to compare them, and the convex-combination operation used to
average them.  Three structures are provided:

* ``ADD_RATIONALS``  -- all rationals under addition (the default),
* ``NONNEG_ADD``     -- non-negative rationals under addition,
* ``MUL_POSITIVE``   -- strictly positive rationals under multiplication.

All three share the usual numeric order and the arithmetic convex
combination ``p*r + (1-p)*s``.  Each declares whether it satisfies the
mixing and gathering laws; the tests check each declaration by trial.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd
from typing import Callable

_MODULUS = sys.hash_info.modulus
_INVERSES: dict[int, int] = {}  # denominator -> its inverse mod _MODULUS, or 0
_new = object.__new__


def _rational(n: int, d: int) -> "Rational":
    """The Rational n/d for coprime n and d > 0, without Fraction's checks."""
    q = _new(Rational)
    q._numerator = n
    q._denominator = d
    q._hash = None
    return q


# Fraction's algorithms on numerator and denominator pairs in lowest terms

def _sum(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rational(t, s * db)
    return _rational(t // g2, s * (db // g2))


def _product(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rational(na * nb, db * da)


def _quotient(na, da, nb, db):
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    return _product(na, da, -db, -nb) if nb < 0 else _product(na, da, db, nb)


def _binary(op, fallback):
    """The method a OP b of a Rational a: op on the numerators and
    denominators, (na, da, nb, db), when b is a Rational, a Fraction or an
    int, else Fraction's own method (floats, complex numbers, other types)."""
    def method(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return op(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, int):
            return op(a._numerator, a._denominator, b, 1)
        return fallback(a, b)
    return method


class Rational(Fraction):
    """The exact rational of every reward, weight and expectation: equal,
    hash-equal and printed alike to the Fraction of its value.  Arithmetic
    and comparison with a Rational, a Fraction or an int skip Fraction's
    operator dispatch; the reflected methods take ``Fraction + Rational``
    and ``0 + Rational`` too, as Python tries a subclass's first.  The hash
    is computed once.  ``abs``, ``**`` and ``//`` give plain Fractions."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        self._hash = None
        return self

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __hash__(self):
        """Fraction.__hash__, with the denominators' inverses cached."""
        h = self._hash
        if h is None:
            n, d = self._numerator, self._denominator
            if d == 1:
                h = hash(n)
            else:
                inv = _INVERSES.get(d)
                if inv is None:
                    if len(_INVERSES) >= 4096:
                        _INVERSES.clear()
                    inv = _INVERSES[d] = pow(d, -1, _MODULUS) if d % _MODULUS else 0
                h = hash(hash(abs(n)) * inv) if inv else sys.hash_info.inf
                if n < 0:
                    h = -2 if h == 1 else -h
            self._hash = h
        return h

    __eq__ = _binary(lambda na, da, nb, db: na == nb and da == db, Fraction.__eq__)
    __lt__ = _binary(lambda na, da, nb, db: na * db < nb * da, Fraction.__lt__)
    __le__ = _binary(lambda na, da, nb, db: na * db <= nb * da, Fraction.__le__)
    __gt__ = _binary(lambda na, da, nb, db: na * db > nb * da, Fraction.__gt__)
    __ge__ = _binary(lambda na, da, nb, db: na * db >= nb * da, Fraction.__ge__)

    def __bool__(a):
        return a._numerator != 0

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    # a reflected method computes b OP a: + and * commute, - and / swap
    __add__ = _binary(_sum, Fraction.__add__)
    __radd__ = _binary(_sum, Fraction.__radd__)
    __sub__ = _binary(lambda na, da, nb, db: _sum(na, da, -nb, db), Fraction.__sub__)
    __rsub__ = _binary(lambda na, da, nb, db: _sum(nb, db, -na, da), Fraction.__rsub__)
    __mul__ = _binary(_product, Fraction.__mul__)
    __rmul__ = _binary(_product, Fraction.__rmul__)
    __truediv__ = _binary(_quotient, Fraction.__truediv__)
    __rtruediv__ = _binary(lambda na, da, nb, db: _quotient(nb, db, na, da),
                           Fraction.__rtruediv__)


ZERO = Rational(0)
ONE = Rational(1)


class ConditionCUnavailable(Exception):
    """Raised when a structure has no verified witness procedure for the
    discrimination condition used by the purity decision."""


class RewardStructure:
    """A totally ordered commutative reward monoid with convex combination.

    ``mixing_verified`` and ``gathering_verified`` declare two laws that
    gate the monads and decision procedures pooling rewards: mixing,
    (r+x) +_p (s+y) == ((r +_p s) + x) +_p ((r +_p s) + y), and gathering,
    (r+x) +_p (s+x) == (r +_p s) + x.
    """

    def __init__(
        self,
        name: str,
        zero: Fraction,
        add: Callable[[Fraction, Fraction], Fraction],
        contains: Callable[[Fraction], bool],
        condition_c: Callable[[Fraction, Fraction], tuple[Fraction, Fraction]] | None,
        mixing: bool,
        gathering: bool,
    ):
        self.name = name
        self.zero = zero
        self._add = add
        self._contains = contains
        self._condition_c = condition_c
        self.mixing_verified = mixing
        self.gathering_verified = gathering

    def __repr__(self) -> str:
        return f"RewardStructure({self.name})"

    def contains(self, r: Fraction) -> bool:
        return self._contains(r)

    def check_member(self, r: Fraction) -> Fraction:
        if not self._contains(r):
            raise ValueError(f"{r} is not a {self.name} reward")
        return r

    def add(self, r: Fraction, s: Fraction) -> Fraction:
        """Monoid operation (written + in terms; multiplication for MUL_POSITIVE)."""
        return self._add(self.check_member(r), self.check_member(s))

    def leq(self, r: Fraction, s: Fraction) -> bool:
        """The order is numeric for every built-in structure."""
        return self.check_member(r) <= self.check_member(s)

    def convex(self, p: Fraction, r: Fraction, s: Fraction) -> Fraction:
        """Barycentric combination r +_p s = p*r + (1-p)*s."""
        if not (ZERO <= p <= ONE):
            raise ValueError(f"convex weight {p} outside [0,1]")
        self.check_member(r)
        self.check_member(s)
        return p * r + (ONE - p) * s

    def big_convex(self, weighted: list[tuple[Fraction, Fraction]]) -> Fraction:
        """Finite barycentric sum of (probability, reward) pairs.  Weights
        must be positive and sum to 1."""
        total = sum(p for p, _ in weighted)
        if total != ONE or any(p <= ZERO for p, _ in weighted):
            raise ValueError("weights must be positive and sum to 1")
        return self.mean(weighted)

    def mean(self, weighted: list[tuple[Fraction, Fraction]]) -> Fraction:
        """``big_convex`` for weights already known to be positive and to
        sum to 1, such as a ``Dist``'s: checks only that each reward is a
        member."""
        check = self.check_member
        return _mean([(p, check(r)) for p, r in weighted])

    def condition_c_witness(self, p: Fraction, s: Fraction) -> tuple[Fraction, Fraction]:
        """For weight p in (0,1) and a reward s < 0, return rewards (l, r)
        with l < r and s + (p*r + (1-p)*l) > l.

        Only ADD_RATIONALS carries a verified witness procedure; the other
        structures raise ConditionCUnavailable.
        """
        if not (ZERO < p < ONE):
            raise ValueError(f"weight {p} must lie strictly between 0 and 1")
        if self._condition_c is None:
            raise ConditionCUnavailable(
                f"no discrimination witness available for structure {self.name}"
            )
        if not (self._contains(s) and s < ZERO):
            raise ValueError(f"witness requires a negative reward, got {s}")
        return self._condition_c(p, s)


def _plus(r: Fraction, s: Fraction) -> Fraction:
    """r + s, returning one operand itself when the other is zero."""
    if not s:
        return r
    if not r:
        return s
    return r + s


def _mean(weighted: list[tuple[Fraction, Fraction]]) -> Fraction:
    """The sum of p*r over (p, r) pairs whose weights sum to 1."""
    (p, r), *rest = weighted
    total = p * r
    for p, r in rest:
        total += p * r
    return total


def _add_witness(p: Fraction, s: Fraction) -> tuple[Fraction, Fraction]:
    # With l = 0 the requirement becomes s + p*r > 0; r = (1-s)/p gives
    # s + p*r = 1 > 0, and r > 0 = l since s < 0.
    return (ZERO, (ONE - s) / p)


ADD_RATIONALS = RewardStructure(
    "AddRationals",
    zero=ZERO,
    add=_plus,
    contains=lambda r: True,
    condition_c=_add_witness,
    mixing=True,
    gathering=True,
)
# Every rational is a member, so these skip the membership check.
ADD_RATIONALS.add = _plus
ADD_RATIONALS.leq = operator.le
ADD_RATIONALS.mean = _mean

NONNEG_ADD = RewardStructure(
    "NonNegAdd",
    zero=ZERO,
    add=_plus,
    contains=lambda r: r >= ZERO,
    condition_c=None,
    mixing=True,
    gathering=True,
)

MUL_POSITIVE = RewardStructure(
    "MulPositiveRationals",
    zero=ONE,
    add=lambda r, s: r * s,
    contains=lambda r: r > ZERO,
    condition_c=None,
    mixing=False,
    gathering=True,
)

STRUCTURES = {s.name: s for s in (ADD_RATIONALS, NONNEG_ADD, MUL_POSITIVE)}

DEFAULT_STRUCTURE = ADD_RATIONALS


def parse_reward(text) -> Fraction:
    """Parse an exact rational literal like '2', '-1', '5/2' or '0.5'.
    Integers and Fractions pass through; floats are rejected to keep
    arithmetic exact, and exponent notation, whose '1e400000000' would
    build a 400-million-digit numerator, is refused."""
    if isinstance(text, str):
        if "e" in text.lower():
            raise ValueError(f"exponent notation not accepted: {text!r}")
        return Rational(text.strip())
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Rational(text)
    raise ValueError(f"not an exact rational: {text!r}")
