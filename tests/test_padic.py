"""Scalar layer: p-adic floats and unramified coefficient extensions."""

import itertools
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from phinabla.errors import NonInvertible
from phinabla.padic import (PadicNumber, RingParams,
                            _irreducible_mod_p, _is_prime)


P5 = RingParams(5, 20, (32, 32))


def test_from_rational_roundtrip():
    for r in (Fraction(3, 7), Fraction(-22, 13), Fraction(125),
              Fraction(1, 25), Fraction(0)):
        x = PadicNumber.from_rational(P5, r)
        assert x.to_fraction() == r


def test_arithmetic_matches_rationals():
    a = PadicNumber.from_rational(P5, Fraction(3, 7))
    b = PadicNumber.from_rational(P5, Fraction(-2, 11))
    assert (a + b).to_fraction() == Fraction(3, 7) + Fraction(-2, 11)
    assert (a * b).to_fraction() == Fraction(3, 7) * Fraction(-2, 11)
    assert (a - b).to_fraction() == Fraction(3, 7) - Fraction(-2, 11)
    assert (a / b).to_fraction() == Fraction(3, 7) / Fraction(-2, 11)


def test_valuation_tracking():
    x = PadicNumber.from_rational(P5, Fraction(50))   # 2 * 5^2
    assert x.valuation() == 2
    y = PadicNumber.from_rational(P5, Fraction(1, 5))
    assert y.valuation() == -1
    assert (x * y).valuation() == 1


def test_precision_loss_on_subtraction():
    # cancellation of leading digits must lower relative precision,
    # never silently fabricate digits
    a = PadicNumber.from_rational(P5, 1 + 5 ** 10)
    b = PadicNumber.from_rational(P5, 1)
    d = a - b
    assert d.valuation() == 10
    assert d.to_fraction() == 5 ** 10


def test_zero_at_precision():
    z = PadicNumber.zero(P5)
    assert z.is_zero()
    a = PadicNumber.from_rational(P5, 3)
    assert (a - a).is_zero()
    assert (z * a).is_zero()


def test_inverse_of_unit():
    a = PadicNumber.from_rational(P5, Fraction(7, 3))
    assert (a * a.inverse()).to_fraction() == 1


def test_congruence_at_joint_precision():
    a = PadicNumber.from_rational(P5, 2)
    b = PadicNumber.from_rational(P5, 2 + 5 ** 25)  # beyond precision
    assert a.congruent(b)


def test_power():
    a = PadicNumber.from_rational(P5, Fraction(2, 3))
    assert (a ** 3).to_fraction() == Fraction(8, 27)


def test_sigma_identity_on_prime_field():
    a = PadicNumber.from_rational(P5, Fraction(9, 4))
    assert a.sigma().congruent(a)


@pytest.fixture
def f4_params():
    # W(F_4) at p = 2, modulus x^2 + x + 1
    return RingParams(2, 16, (16, 16), a=2, modulus=(1, 1, 1))


def test_witt_frobenius_is_involution_on_f4(f4_params):
    x = PadicNumber.from_poly(f4_params, (0, 1))  # the generator
    fx = x.sigma()
    assert not fx.congruent(x)
    assert fx.sigma().congruent(x)


def test_witt_frobenius_is_ring_hom(f4_params):
    x = PadicNumber.from_poly(f4_params, (1, 1))
    y = PadicNumber.from_poly(f4_params, (0, 3))
    assert (x * y).sigma().congruent(x.sigma() * y.sigma())
    assert (x + y).sigma().congruent(x.sigma() + y.sigma())


def test_witt_frobenius_order_three():
    prm = RingParams(3, 12, (8, 8), a=3, modulus=(1, 2, 0, 1))
    x = PadicNumber.from_poly(prm, (0, 1))
    f1 = x.sigma()
    f2 = f1.sigma()
    f3 = f2.sigma()
    assert not f1.congruent(x)
    assert not f2.congruent(x)
    assert f3.congruent(x)


def test_extension_inverse(f4_params):
    x = PadicNumber.from_poly(f4_params, (1, 1))
    one = PadicNumber.from_rational(f4_params, 1)
    assert (x * x.inverse()).congruent(one)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
    assert [n for n in range(10 ** 4) if _is_prime(n)] == \
        [n for n in range(10 ** 4) if trial(n)]
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 61 + 1)
    # 399165290221 * 798330580441: a strong pseudoprime to every base
    # 2..37, caught only by base 41
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        _is_prime(2 ** 89 - 1)


def test_ring_params_are_immutable_values():
    a = RingParams(5, 20, (32, 32))
    b = RingParams(5, 20, (32, 32), 1, None)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != RingParams(5, 21, (32, 32))
    with pytest.raises(AttributeError):
        a.N = 30
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        RingParams(4, 20)


def test_ring_params_replace_is_checked():
    a = RingParams(5, 20)
    assert a._replace(t_window=(4, 8)) == RingParams(5, 20, (4, 8))
    with pytest.raises(ValueError,
                       match="coefficient precision N must be >= 1"):
        a._replace(N=0)


@pytest.mark.parametrize("args, kwargs, name", [
    ((True, 20), {}, "p = True"),
    ((5, True), {}, "N = True"),
    ((5, 20.0), {}, "N = 20.0"),
    ((5, 20, (True, 32)), {}, r"t_window\[0\] = True"),
    ((5, 20, (0, 32.0)), {}, r"t_window\[1\] = 32.0"),
    ((5, 20), {"a": True}, "a = True"),
    ((5, 20), {"a": 2, "modulus": (2, 0, True)}, r"modulus \[2, 0, True\]"),
], ids=["p-bool", "N-bool", "N-float", "window-bool", "window-float",
        "a-bool", "modulus-bool"])
def test_ring_params_refuse_non_integers(args, kwargs, name):
    with pytest.raises(TypeError, match=name):
        RingParams(*args, **kwargs)


@pytest.mark.parametrize("p, modulus", [
    (5, (2, 0, 1)), (2, (1, 1, 1)), (3, (1, 0, 1)), (3, (1, 2, 0, 1))])
def test_irreducible_moduli_are_accepted(p, modulus):
    RingParams(p, 20, a=len(modulus) - 1, modulus=modulus)


def test_reducible_modulus_is_refused():
    # x^2 + 4 = (x - 1)(x + 1) mod 5: x - 1 would get a false inverse
    with pytest.raises(ValueError, match=r"modulus \[4, 0, 1\] is reducible"):
        RingParams(5, 20, a=2, modulus=(4, 0, 1))
    # Rabin's test against the root search, which decides degrees 2 and 3
    for p, a in itertools.product((2, 3, 5), (2, 3)):
        for low in itertools.product(range(p), repeat=a):
            f = low + (1,)
            rooted = any(sum(c * x ** i for i, c in enumerate(f)) % p == 0
                         for x in range(p))
            assert _irreducible_mod_p(f, p) is not rooted, (f, p)


# an irreducible quadratic modulus per prime, for a = 2
QUADRATIC = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1), 7: (1, 0, 1),
             11: (1, 0, 1)}
_PRIMES = st.sampled_from(sorted(QUADRATIC))
_PRECISIONS = st.one_of(st.integers(1, 30), st.integers(300, 320))


def _params(p, N, a):
    return RingParams(p, N, a=a, modulus=QUADRATIC[p] if a == 2 else None)


def _small_rationals(p):
    return st.builds(lambda n, d, j: Fraction(n, d) * Fraction(p) ** j,
                     st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
                     st.integers(-4, 4))


def _vp(x, p):
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@st.composite
def _operands(draw):
    p = draw(_PRIMES)
    params = _params(p, draw(_PRECISIONS), draw(st.sampled_from((1, 2))))
    return params, draw(_small_rationals(p)), draw(_small_rationals(p))


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_arithmetic_agrees_with_fraction(operands):
    # every result is congruent to the exact rational at the precision it
    # claims; at N >= 300 it reconstructs to that rational exactly
    params, x, y = operands
    X = PadicNumber.from_rational(params, x)
    Y = PadicNumber.from_rational(params, y)
    results = [(X + Y, x + y), (X - Y, x - y), (X * Y, x * y),
               (-X, -x), (X + y, x + y), (x - Y, x - y), (X * y, x * y)]
    if y:
        results += [(X / Y, x / y), (Y.inverse(), 1 / y)]
    else:
        with pytest.raises(NonInvertible):
            Y.inverse()
    for got, exact in results:
        assert got == exact, (got, exact)
        if got.is_zero_at_precision:
            # only |exact| <= p^-abs_prec is claimed
            assert exact == 0 or _vp(exact, params.p) >= got.abs_prec
        else:
            # canonical form: a unit mantissa reduced mod p^rel_prec
            assert got.v == _vp(exact, params.p)
            coords = (got.unit,) if params.a == 1 else got.unit
            assert all(0 <= c < params.p ** got.rel_prec for c in coords)
            assert any(c % params.p for c in coords)
        if params.N >= 300:
            assert got.to_fraction() == exact


@settings(max_examples=300, deadline=None)
@given(_PRIMES, _PRECISIONS, st.sampled_from((1, 2)), st.data())
def test_from_rational_round_trips_small_heights(p, N, a, data):
    # |num| and den within the reconstruction bound, and 2 |num| den < p^N
    # so that the representative is unique (Wang's condition)
    m = p ** N
    h = min(isqrt(m) // 2, isqrt((m - 1) // 2))
    x = Fraction(data.draw(st.integers(-h, h)),
                 data.draw(st.integers(1, max(h, 1))))
    assert PadicNumber.from_rational(_params(p, N, a), x).to_fraction() == x


def test_to_fraction_refuses_a_denominator_divisible_by_p():
    # 6 = 5 / -20 mod 5^3: the only small candidate has p in its denominator
    with pytest.raises(ValueError, match="no small rational representative"):
        PadicNumber(RingParams(5, 3), 0, 6, 3).to_fraction()


def test_instances_are_immutable_and_unhashable():
    x = PadicNumber.from_rational(P5, Fraction(3, 7))
    for name in PadicNumber.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(TypeError):
        hash(x)
    assert x.v == 0 and x.to_fraction() == Fraction(3, 7)


@pytest.mark.parametrize("rel_prec", [0, -2])
@pytest.mark.parametrize("params", [P5, RingParams(5, 20, (32, 32), a=2,
                                                   modulus=(2, 0, 1))])
def test_relative_precision_below_one_is_refused(params, rel_prec):
    # an element takes its relative precision from its ring's N, which the
    # ring refuses below 1 (a relative precision of 0 gave a non-zero
    # element with unit 0 and abs_prec 0, and -2 a float unit)
    with pytest.raises(ValueError, match="precision N must be >= 1"):
        RingParams(params.p, rel_prec, params.t_window, params.a,
                   params.modulus)
    coarse = RingParams(params.p, 1, params.t_window, params.a,
                        params.modulus)
    for value in (Fraction(1, 5), 25, 3):
        assert PadicNumber.from_rational(coarse, value).rel_prec == 1
        assert PadicNumber.from_poly(coarse, [value, 1]).rel_prec == 1
