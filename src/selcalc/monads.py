"""Auxiliary monads for the selection semantics, over exact rationals.

* ``WMonad``   -- reward-and-value pairs (deterministic mode),
* ``DWMonad``  -- distributions over reward-and-value pairs,
* ``T2Monad``  -- DW distributions in gathered normal form: no value twice,
  each value carrying its reward conditioned on it,
* ``T3Monad``  -- DW distributions in pooled normal form: every atom
  carrying the one expected reward,
* ``MRMonad``  -- sets of values tagged with their best reward (used for the
  observational characterization in rewards mode, not for selection).

T2 and T3 are the images of DW under the comparison map ``theta``: their
operations are DW's, with ``mix``, ``bind`` and ``map`` followed by the
monad's ``normal`` map, so ``vdis``, ``cond_reward`` and ``expect0`` read
values of all three.  All are parametric in a reward structure.  T2 and
T3 require the structure to declare the gathering and mixing laws
respectively; their constructors refuse structures that do not.

The module also provides expectation, the comparison/embedding maps between
these monads, the reward-shift maps used to prove programs apart, and
``atoms``, the one listing of a W, DW, T2 or T3 value that printing reads.

The ``Dist`` kernel keeps no sort order inside: its arithmetic reads the
merged weights in insertion order, and only the listings (``pairs``,
``items()``, ``support()``, ``repr``, ``atoms``) sort by ``atom_key``.
Expectation trusts the ``Dist`` invariant and does not re-check the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .rewards import ONE, ZERO, Rational, RewardStructure, DEFAULT_STRUCTURE
from .syntax import fold_effect


### generic sorting key for distribution atoms

def atom_key(a: Any):
    # Fraction's isinstance goes through ABCMeta, so it comes last
    if type(a) is Rational:
        return (0, a)
    if isinstance(a, str):
        return (1, a)
    if isinstance(a, tuple):
        return (2, tuple(atom_key(x) for x in a))
    if hasattr(a, "sort_key"):
        return (3, a.sort_key())
    if isinstance(a, Fraction):
        return (0, a)
    raise TypeError(f"cannot order atom {a!r}")


### finite distributions

def _sorted_pairs(acc: dict[Any, Fraction]) -> tuple:
    if len(acc) == 1:
        return tuple(acc.items())
    return tuple(sorted(acc.items(), key=lambda kv: atom_key(kv[0])))


_set = object.__setattr__


class Dist:
    """A finite probability distribution with exact rational weights.
    Atoms must be hashable; equal atoms are merged, so equal distributions
    compare and hash equal whatever order their atoms were merged in.

    Invariant of every instance: positive weights summing to exactly 1, no
    atom twice.  The merged weights are kept in a dict in insertion order,
    and the arithmetic (``map``, ``mix``, ``DWMonad.bind``, ``alpha``,
    ``expect0``, ``prob``, ``==``, ``hash``) reads that dict without
    sorting.  ``pairs``, ``items()``, ``support()`` and ``repr`` list the
    atoms sorted by ``atom_key``, built on first read and cached.  Only
    the public constructor checks weights; ``unit``, ``map`` and ``mix``
    build from distributions that already hold the invariant and so skip
    the checks they cannot fail (``mix`` still checks its outer
    weights)."""

    __slots__ = ("_w", "_pairs", "_hash")

    def __init__(self, weighted):
        acc: dict[Any, Fraction] = {}
        for p, x in weighted:
            if p < 0:
                raise ValueError(f"negative weight {p}")
            if p == 0:
                continue
            acc[x] = acc.get(x, ZERO) + p
        if sum(acc.values()) != 1:
            raise ValueError(f"weights sum to {sum(acc.values())}, not 1")
        self._fill(acc)

    def _fill(self, acc: dict[Any, Fraction]) -> None:
        _set(self, "_w", acc)
        _set(self, "_pairs", None)  # the sorted listing, built on first read
        _set(self, "_hash", None)

    @classmethod
    def _trusted(cls, acc: dict[Any, Fraction]) -> "Dist":
        """A distribution from merged positive weights known to sum to 1."""
        d = object.__new__(cls)
        d._fill(acc)
        return d

    @staticmethod
    def unit(x) -> "Dist":
        return Dist._trusted({x: ONE})

    @staticmethod
    def mix(weighted: list[tuple[Fraction, "Dist"]]) -> "Dist":
        total = ZERO
        acc: dict[Any, Fraction] = {}
        for p, d in weighted:
            if p < 0:
                raise ValueError(f"negative weight {p}")
            if p == 0:
                continue
            total += p
            for x, q in d._w.items():
                w = p * q
                old = acc.get(x)
                acc[x] = w if old is None else old + w
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        return Dist._trusted(acc)

    def map(self, f) -> "Dist":
        return _image(f, self._w.items())

    @property
    def pairs(self) -> tuple:
        """(atom, weight) pairs sorted by ``atom_key``."""
        if self._pairs is None:
            _set(self, "_pairs", _sorted_pairs(self._w))
        return self._pairs

    def support(self):
        return [x for x, _ in self.pairs]

    def prob(self, x) -> Fraction:
        return self._w.get(x, ZERO)

    def items(self):
        return list(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Dist) and self._w == other._w

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash(frozenset(self._w.items())))
        return self._hash

    def __repr__(self):
        body = " + ".join(f"{p}*{x!r}" for x, p in self.pairs)
        return f"Dist({body})"

    def __setattr__(self, *_):
        raise AttributeError("Dist is immutable")


def _image(f, weighted) -> Dist:
    """The distribution of f(x) over (x, weight) pairs that hold the
    invariant."""
    acc: dict[Any, Fraction] = {}
    for x, p in weighted:
        y = f(x)
        old = acc.get(y)
        acc[y] = p if old is None else old + p
    return Dist._trusted(acc)


### compound carriers

def t2val(dist: Dist, rho: dict[Any, Fraction] | Callable[[Any], Fraction]) -> Dist:
    """The T2 value over dist whose value x carries reward rho(x): a DW
    distribution with one (rho(x), x) atom per support point.  With a
    constant rho it is the T3 value pooling that reward."""
    get = rho.__getitem__ if isinstance(rho, dict) else rho
    return Dist._trusted({(get(x), x): p for x, p in dist._w.items()})


def atoms(u, monad_name: str) -> list[tuple[Fraction, Any, Any]]:
    """A W, DW, T2 or T3 value's atoms as (probability, reward, value), in
    print order: a W pair is one atom of probability 1, a DW value lists
    its atoms in ``Dist`` order, and a T2 or T3 value in value order."""
    if monad_name == "W":
        r, x = u
        return [(ONE, r, x)]
    listed = [(p, r, x) for (r, x), p in u.pairs]
    if monad_name == "DW":
        return listed
    return sorted(listed, key=lambda a: atom_key(a[2]))


@dataclass(frozen=True)
class MRVal:
    """A finite nonempty set of values, each tagged with the best reward
    seen for it.  ``entries`` is sorted by atom."""
    entries: tuple[tuple[Any, Fraction], ...]


def mrval(mapping: dict[Any, Fraction]) -> MRVal:
    if not mapping:
        raise ValueError("empty value set")
    return MRVal(_sorted_pairs(mapping))


### the monads

class Monad:
    """An auxiliary monad over a reward structure.  Expectation at a
    valuation is ``alpha(map(gamma, u))`` unless a monad sums it directly."""
    name: str
    has_pchoice = False

    def __init__(self, structure: RewardStructure = DEFAULT_STRUCTURE):
        self.structure = structure

    def expect(self, u, gamma) -> Fraction:
        return self.alpha(self.map(gamma, u))


class WMonad(Monad):
    """Reward-and-value pairs; binding accumulates rewards."""
    name = "W"

    def unit(self, x):
        return (self.structure.zero, x)

    def bind(self, u, f):
        r, x = u
        s, y = f(x)
        return (self.structure.add(r, s), y)

    def map(self, f, u):
        r, x = u
        return (r, f(x))

    def reward(self, c, u):
        r, x = u
        return (self.structure.add(c, r), x)

    def alpha(self, u) -> Fraction:
        r, s = u
        return self.structure.add(r, s)

    def expect0(self, u) -> Fraction:
        """The reward: expectation at the zero valuation."""
        return u[0]


class DWMonad(Monad):
    """Distributions over reward-and-value pairs, with probabilistic choice
    as the mixture of two values."""
    name = "DW"
    has_pchoice = True

    def unit(self, x) -> Dist:
        return Dist.unit((self.structure.zero, x))

    def mix(self, weighted) -> Dist:
        return Dist.mix(weighted)

    def bind(self, u: Dist, f) -> Dist:
        """The mix of reward(r, f(x)) over u, merged in one pass."""
        add = self.structure.add
        acc: dict[Any, Fraction] = {}
        for (r, x), p in u._w.items():
            for (s, y), q in f(x)._w.items():
                a, w = (add(r, s), y), p * q
                old = acc.get(a)
                acc[a] = w if old is None else old + w
        return Dist._trusted(acc)

    def map(self, f, u: Dist) -> Dist:
        return u.map(lambda rx: (rx[0], f(rx[1])))

    def reward(self, c, u: Dist) -> Dist:
        add = self.structure.add
        return _image(lambda rx: (add(c, rx[0]), rx[1]), u._w.items())

    def alpha(self, u: Dist) -> Fraction:
        add = self.structure.add
        return self.structure.mean([(p, add(r, s)) for (r, s), p in u._w.items()])

    def expect(self, u: Dist, gamma) -> Fraction:
        """alpha(map(gamma, u)), without building the mapped distribution."""
        add = self.structure.add
        return self.structure.mean(
            [(p, add(r, gamma(x))) for (r, x), p in u._w.items()])

    def expect0(self, u: Dist) -> Fraction:
        """The mean reward: expectation at the zero valuation."""
        return self.structure.mean([(p, r) for (r, _), p in u._w.items()])

    def pchoice(self, p: Fraction, u, v):
        if p == 1:
            return u
        if p == 0:
            return v
        return self.mix([(p, u), (1 - p, v)])


class T2Monad(DWMonad):
    """DW in gathered normal form: no value twice, each value carrying its
    reward conditioned on it.  Requires the reward action to gather
    through convex combination on a shared point, which every built-in
    structure satisfies."""
    name = "T2"

    def __init__(self, structure: RewardStructure = DEFAULT_STRUCTURE):
        if not structure.gathering_verified:
            raise ValueError(
                f"structure {structure.name} does not average rewards on a "
                "shared point; per-point pooling is unsound")
        super().__init__(structure)

    def normal(self, u: Dist) -> Dist:
        """Gather the atoms of each value into one, with the average of
        their rewards conditioned on the value."""
        parts: dict[Any, list] = {}
        for (r, x), p in u._w.items():
            parts.setdefault(x, []).append((p, r))
        if len(parts) == len(u._w):
            return u
        mean = self.structure.mean
        acc: dict[Any, Fraction] = {}
        for x, ps in parts.items():
            total = sum(p for p, _ in ps)
            acc[(mean([(p / total, r) for p, r in ps]), x)] = total
        return Dist._trusted(acc)

    def mix(self, weighted) -> Dist:
        return self.normal(super().mix(weighted))

    def bind(self, u: Dist, f) -> Dist:
        return self.normal(super().bind(u, f))

    def map(self, f, u: Dist) -> Dist:
        return self.normal(super().map(f, u))


class T3Monad(T2Monad):
    """DW in pooled normal form: every atom carries the one expected
    reward, so no value occurs twice and a T3 value is a T2 value too.
    Only sound when the monoid mixes through convex combination on
    distinct points; the constructor checks the structure's declared
    mixing law (and, through T2, the gathering law that it implies)."""
    name = "T3"

    def __init__(self, structure: RewardStructure = DEFAULT_STRUCTURE):
        if not structure.mixing_verified:
            raise ValueError(
                f"structure {structure.name} does not mix rewards through "
                "accumulation; pooling a single reward is unsound")
        super().__init__(structure)

    def normal(self, u: Dist) -> Dist:
        """Pool the rewards of all atoms into their expectation."""
        if len({r for r, _ in u._w}) == 1:
            return u
        pooled = self.expect0(u)
        return _image(lambda rx: (pooled, rx[1]), u._w.items())


class MRMonad(Monad):
    """Value sets tagged with their best reward.  Choice keeps the better
    reward per value; rewards act additively on every tag."""
    name = "MR"

    def unit(self, x) -> MRVal:
        return mrval({x: self.structure.zero})

    def or_op(self, u: MRVal, v: MRVal) -> MRVal:
        out = dict(u.entries)
        for x, r in v.entries:
            if x in out:
                out[x] = max(out[x], r)
            else:
                out[x] = r
        return mrval(out)

    def reward(self, c, u: MRVal) -> MRVal:
        add = self.structure.add
        return mrval({x: add(c, r) for x, r in u.entries})

    def bind(self, u: MRVal, f) -> MRVal:
        parts = [self.reward(r, f(x)) for x, r in u.entries]
        out = parts[0]
        for p in parts[1:]:
            out = self.or_op(out, p)
        return out

    def map(self, f, u: MRVal) -> MRVal:
        out: dict[Any, Fraction] = {}
        for x, r in u.entries:
            y = f(x)
            out[y] = max(out[y], r) if y in out else r
        return mrval(out)


_MONADS = {m.name: m for m in (WMonad, DWMonad, T2Monad, T3Monad, MRMonad)}

def make_monad(name: str, structure: RewardStructure = DEFAULT_STRUCTURE) -> Monad:
    """A new instance of the named monad over structure."""
    if name not in _MONADS:
        raise ValueError(f"unknown monad {name!r}")
    return _MONADS[name](structure)


def default_monad(mode: str) -> str:
    """The monad operational outcomes live in: W in rewards mode, DW in
    prob mode."""
    return "W" if mode == "rewards" else "DW"


### comparison map out of DW, and direct observation summaries

def theta(u: Dist, monad) -> Any:
    """Embed a distribution of reward-and-value pairs into another monad by
    rebuilding it from unit, reward, and convex mixture."""
    return monad.mix([(p, monad.reward(r, monad.unit(x))) for (r, x), p in u._w.items()])


def vdis(u: Dist) -> Dist:
    """Marginal distribution of values."""
    return _image(lambda rx: rx[1], u._w.items())


def cond_reward(u: Dist, x, structure: RewardStructure = DEFAULT_STRUCTURE) -> Fraction:
    """Average reward conditioned on the value being x."""
    total = sum(p for (_, y), p in u._w.items() if y == x)
    if total == 0:
        raise KeyError(f"{x!r} has probability 0")
    return structure.mean(
        [(p / total, r) for (r, y), p in u._w.items() if y == x])


def expect0(u: Dist, structure: RewardStructure = DEFAULT_STRUCTURE) -> Fraction:
    """Expected reward, ignoring values (expectation at the zero valuation)."""
    return DWMonad(structure).expect0(u)


def k_gamma(gamma, u, monad):
    """Shift every value's reward by its valuation: the binding of
    x -> gamma(x) . unit(x).  Injective for each built-in monad, which is
    what lets contexts turn semantic differences into observable ones."""
    return monad.bind(u, lambda x: monad.reward(gamma(x), monad.unit(x)))


### observational summary in rewards mode

def mr_of_effect(e, structure: RewardStructure = DEFAULT_STRUCTURE) -> MRVal:
    """Fold an effect value of the rewards calculus into a value set tagged
    with best rewards."""
    m = MRMonad(structure)
    return fold_effect(e, m.unit, m.or_op, m.reward)
