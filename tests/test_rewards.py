import copy
import operator
import pickle
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selcalc.monads import Dist, make_monad
from selcalc.rewards import (
    ConditionCUnavailable, DEFAULT_STRUCTURE, ONE, STRUCTURES, ZERO, Rational,
    _mean, _plus, parse_reward,
)
from selcalc.syntax import parse_program
from selcalc.testgen import (
    GAMMA_POOL, PROB_POOL, GenConfig, gen_kleisli, gen_monad_value,
)

ADD = STRUCTURES["AddRationals"]
NN = STRUCTURES["NonNegAdd"]
MUL = STRUCTURES["MulPositiveRationals"]

rationals = st.fractions(max_denominator=50)
probs = st.fractions(min_value=0, max_value=1, max_denominator=30)


def test_registry():
    assert DEFAULT_STRUCTURE is ADD
    assert set(STRUCTURES) == {"AddRationals", "NonNegAdd",
                               "MulPositiveRationals"}


def test_zeros():
    assert ADD.zero == 0
    assert NN.zero == 0
    assert MUL.zero == 1


def test_membership():
    assert ADD.contains(F(-7, 3))
    assert not NN.contains(F(-1))
    assert NN.contains(F(0))
    assert not MUL.contains(F(0))
    assert MUL.contains(F(1, 9))


def test_convex_example():
    # 2/5 * 2 + 3/5 * 3
    assert ADD.convex(F(2, 5), F(2), F(3)) == F(13, 5)


def test_big_convex_matches_binary():
    got = ADD.big_convex([(F(1, 2), F(4)), (F(1, 4), F(0)), (F(1, 4), F(8))])
    assert got == F(4)


def test_checked_structures_keep_their_errors():
    # the zero fast path must not skip a check
    with pytest.raises(ValueError, match=r"^-1 is not a NonNegAdd reward$"):
        NN.add(F(0), F(-1))
    with pytest.raises(ValueError, match=r"^-1 is not a NonNegAdd reward$"):
        NN.leq(F(-1), F(0))
    with pytest.raises(ValueError,
                       match=r"^0 is not a MulPositiveRationals reward$"):
        MUL.add(F(1), F(0))
    for st in (ADD, NN, MUL):
        for weighted in ([(F(1, 2), F(4)), (F(1, 4), F(8))], [(F(1, 2), F(4))],
                         [(F(3, 2), F(4)), (F(-1, 2), F(8))]):
            with pytest.raises(ValueError,
                               match=r"^weights must be positive and sum to 1$"):
                st.big_convex(weighted)


def test_condition_c_witness_frozen():
    # s = -1 < 0: witness pair with r0 + s*g == r0 only at the stated g
    assert ADD.condition_c_witness(F(1, 2), F(-1)) == (F(0), F(4))


def test_condition_c_unavailable_on_nonneg():
    with pytest.raises(ConditionCUnavailable):
        NN.condition_c_witness(F(1, 2), F(-1))


def test_mul_structure_gated_off_mixing():
    assert ADD.mixing_verified
    assert not MUL.mixing_verified


_SAMPLE_POOL = [F(n) for n in range(-3, 4)] + [
    F(1, 2), F(-1, 2), F(1, 3), F(-1, 3),
]


def gathers_through_convex(st, rng, trials=1000):
    """Check by random trial that averaging two rewards attached to the
    same point can be done before or after accumulation:

        (r+x) +_p (s+x)  ==  (r +_p s) + x
    """
    pool = [q for q in _SAMPLE_POOL if st.contains(q)]
    probs = [F(1, 2), F(1, 3), F(2, 5), F(3, 4)]
    for _ in range(trials):
        r, s, x = (rng.choice(pool) for _ in range(3))
        p = rng.choice(probs)
        lhs = st.convex(p, st.add(r, x), st.add(s, x))
        rhs = st.add(st.convex(p, r, s), x)
        if lhs != rhs:
            return False
    return True


def mixes_through_add(st, rng, trials=1000):
    """Check by random trial whether convex combination commutes with the
    monoid in both arguments at once:

        (r+x) +_p (s+y)  ==  ((r +_p s) + x) +_p ((r +_p s) + y)
    """
    pool = [q for q in _SAMPLE_POOL if st.contains(q)]
    probs = [F(1, 2), F(1, 3), F(2, 5), F(3, 4), F(1, 7)]
    for _ in range(trials):
        r, s, x, y = (rng.choice(pool) for _ in range(4))
        p = rng.choice(probs)
        m = st.convex(p, r, s)
        lhs = st.convex(p, st.add(r, x), st.add(s, y))
        rhs = st.convex(p, st.add(m, x), st.add(m, y))
        if lhs != rhs:
            return False
    return True


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_declared_laws_hold_by_trial(name):
    st = STRUCTURES[name]
    assert mixes_through_add(st, random.Random(0)) == st.mixing_verified
    assert gathers_through_convex(st, random.Random(0)) == st.gathering_verified


@given(rationals, rationals, rationals)
def test_add_monoid(a, b, c):
    assert ADD.add(ADD.add(a, b), c) == ADD.add(a, ADD.add(b, c))
    assert ADD.add(ADD.zero, a) == a
    assert ADD.add(a, ADD.zero) == a


@given(rationals, rationals, rationals)
def test_add_order_translation_invariant(a, b, c):
    # r <= s implies c+r <= c+s
    if ADD.leq(a, b):
        assert ADD.leq(ADD.add(c, a), ADD.add(c, b))


@given(probs, rationals, rationals)
def test_convex_between(p, a, b):
    lo, hi = (a, b) if ADD.leq(a, b) else (b, a)
    v = ADD.convex(p, a, b)
    assert ADD.leq(lo, v) and ADD.leq(v, hi)


@given(rationals, rationals)
def test_convex_endpoints(a, b):
    assert ADD.convex(F(1), a, b) == a
    assert ADD.convex(F(0), a, b) == b


@given(probs, rationals, rationals, rationals)
def test_add_mixes_through_convex(p, a, b, c):
    # c + (p*a + (1-p)*b) == p*(c+a) + (1-p)*(c+b)
    lhs = ADD.add(c, ADD.convex(p, a, b))
    rhs = ADD.convex(p, ADD.add(c, a), ADD.add(c, b))
    assert lhs == rhs


positives = st.fractions(min_value=F(1, 40), max_value=40, max_denominator=40)


@given(positives, positives, positives)
def test_mul_monoid(a, b, c):
    assert MUL.add(MUL.add(a, b), c) == MUL.add(a, MUL.add(b, c))
    assert MUL.add(MUL.zero, a) == a
    assert MUL.add(a, MUL.zero) == a


@given(probs, positives, positives, positives)
def test_mul_does_not_mix_through_convex(p, a, b, c):
    # multiplication distributes over convex combinations too, but the
    # gate is a separate verified flag, so just check the law directly
    lhs = MUL.add(c, MUL.convex(p, a, b))
    rhs = MUL.convex(p, MUL.add(c, a), MUL.add(c, b))
    assert lhs == rhs


def test_parse_reward():
    assert parse_reward("3/4") == F(3, 4)
    assert parse_reward("-2") == F(-2)
    assert parse_reward(F(5)) == F(5)
    with pytest.raises(ValueError):
        parse_reward("0.5.1")


def test_parse_reward_accepts_decimals_and_refuses_exponents():
    assert parse_reward("0.5") == F(1, 2)
    assert parse_reward(" 3/4 ") == F(3, 4)
    for text in ("1e400000000", "2E3", "0.5e-1"):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_reward(text)


### Rational against fractions.Fraction

P = sys.hash_info.modulus
integers = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2 ** 80), 2 ** 80),  # past 2^64
    st.integers(-3, 3).map(lambda k: k * P),  # multiples of the hash modulus
)
denominators = st.one_of(st.integers(1, 50), st.integers(1, 2 ** 80),
                         st.integers(1, 3).map(lambda k: k * P))
values = st.builds(F, integers, denominators)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge)


def _same(got, want):
    """got is a Rational equal to the Fraction want in value, normalised
    numerator and denominator, and hash."""
    assert type(got) is Rational
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.__hash__() == hash(got) == want.__hash__() == F.__hash__(got)


def _apply(op, a, b):
    """op(a, b), or the type of the exception it raises."""
    try:
        return op(a, b)
    except ZeroDivisionError as e:
        return type(e)


@settings(max_examples=300)
@given(values, values, integers)
@example(F(-(P + 2), 2), F(1, P), -1)  # hashes that fold -1 to -2, and inf
def test_rational_matches_fraction(x, y, n):
    a = Rational(x)
    _same(a, x)
    _same(-a, -x)
    assert bool(a) == bool(x)
    assert (repr(a), str(a)) == (repr(x), str(x))
    for other, plain in ((Rational(y), y), (y, y), (n, n)):
        for op in ARITHMETIC:
            for got, want in ((_apply(op, a, other), _apply(op, x, plain)),
                              (_apply(op, other, a), _apply(op, plain, x))):
                if want is ZeroDivisionError:
                    assert got is ZeroDivisionError
                else:
                    _same(got, want)
        for op in COMPARISONS:
            assert op(a, other) == op(x, plain)
            assert op(other, a) == op(plain, x)


@given(values)
def test_rational_pickles_copies_and_keys_like_fraction(x):
    a = Rational(x)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        _same(b, x)
    assert {x: "plain"}[a] == "plain" and {a: "lean"}[x] == "lean"


@given(values, st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_rational_with_a_float_gives_what_fraction_gives(x, f):
    a = Rational(x)
    for op in ARITHMETIC:
        want = _apply(op, x, f), _apply(op, f, x)
        assert (_apply(op, a, f), _apply(op, f, a)) == want
    for op in COMPARISONS:
        assert (op(a, f), op(f, a)) == (op(x, f), op(f, x))


def test_sum_of_rationals_is_rational():
    _same(sum([Rational(1, 3), Rational(1, 6)]), F(1, 2))
    _same(F(1, 3) + Rational(1, 6), F(1, 2))


### the library makes every rational a Rational

def _rationals(u: Dist):
    """The rewards and weights of a DW, T2 or T3 value."""
    return [q for (r, _), p in u._w.items() for q in (r, p)]


def test_library_rationals_are_rational():
    t = parse_program("mode prob;\n(5/2 . tt) +[2/6] (-1 . ff)").term
    made = [t.weight, t.left.param.value, t.right.param.value, ZERO, ONE,
            parse_reward("3/4"), parse_reward(-2), parse_reward(F(1, 2)),
            *GAMMA_POOL, *PROB_POOL, _plus(ONE, PROB_POOL[0]),
            _mean([(PROB_POOL[0], ONE), (PROB_POOL[0], GAMMA_POOL[0])])]
    cfg = GenConfig(mode="prob")
    atoms = ("a", "b", "c")
    gamma = dict(zip(atoms, GAMMA_POOL)).__getitem__
    for name in ("DW", "T2", "T3"):
        m, rng = make_monad(name), random.Random(name)
        for _ in range(20):
            u, v = (gen_monad_value(cfg, name, atoms, rng) for _ in range(2))
            f = gen_kleisli(cfg, name, atoms, atoms, rng)
            p = rng.choice(PROB_POOL)
            made += _rationals(m.bind(u, f)) + [m.expect(u, gamma)]
            made += _rationals(m.mix([(p, u), (1 - p, v)]))
    assert {type(q) for q in made} == {Rational}
