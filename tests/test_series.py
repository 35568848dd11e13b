"""Truncated Laurent arithmetic: windows, tails, sigma, derivations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phinabla import linalg
from phinabla.errors import NonInvertible, WindowTooSmall
from phinabla.padic import PadicNumber, RingParams
from phinabla.series import LaurentElement

from helpers import count_calls, dense_lmat_mul, laurent_bits as _bits


P = RingParams(5, 20, (16, 16))


def L(*terms):
    return LaurentElement.from_terms(P, terms)


def test_ring_axioms_on_samples():
    x = L((0, 1), (2, Fraction(1, 3)), (-1, 2))
    y = L((1, -1), (3, 7))
    z = L((0, Fraction(5)))
    assert ((x + y) + z).congruent(x + (y + z))
    assert (x * (y + z)).congruent(x * y + x * z)
    assert (x * y).congruent(y * x)


def test_window_clipping_sets_tails():
    t15 = LaurentElement.monomial(P, 15)
    sq = t15 * t15
    assert sq.is_zero()
    assert sq.tail_pos and not sq.tail_neg
    inv15 = LaurentElement.monomial(P, -15)
    low = inv15 * inv15
    assert low.tail_neg


def test_inverse_of_monomial_times_unit_is_exact():
    x = LaurentElement.from_terms(P, [(3, Fraction(2, 7))])
    xi = x.inverse()
    assert (x * xi).congruent(1)
    assert not xi.has_tail()


def test_inverse_of_one_plus_t():
    x = L((0, 1), (1, 1))
    xi = x.inverse()
    prod = x * xi
    # geometric series does not terminate: the inverse is correct to the
    # window edge and flagged as truncated
    assert xi.tail_pos
    for e in range(-5, 10):
        want = 1 if e == 0 else 0
        assert prod.coefficient(e).congruent(
            PadicNumber.from_rational(P, want))


@pytest.mark.parametrize("x, truthy, no_term", [
    (LaurentElement.zero(P), False, True),
    (L((0, 1)) - L((0, 1)), False, True),
    # a coefficient zero at precision is no term
    (LaurentElement(P, {3: PadicNumber.zero(P, 2)}), False, True),
    (L((-1, 7)), True, False),
    (LaurentElement(P, {}, tail_pos=True), True, True),
    (LaurentElement(P, {}, tail_neg=True), True, True),
    (LaurentElement.monomial(P, 15) * LaurentElement.monomial(P, 15), True,
     True),
    (LaurentElement(P, {0: PadicNumber.from_rational(P, 2)}, True, True),
     True, False),
])
def test_only_an_exact_zero_is_falsy(x, truthy, no_term):
    assert bool(x) is truthy
    assert x.is_zero() is no_term


def test_padic_zero_is_truthy():
    # a zero at precision keeps the abs_prec a product must see
    assert PadicNumber.zero(P, 3)


def test_zero_not_invertible():
    with pytest.raises(NonInvertible):
        LaurentElement.zero(P).inverse()


def test_inverse_below_the_window_bottom_is_refused():
    # t^-1 does not exist in K[[t]], and t^-4 lies below a window with
    # bottom 3: both refused, never a truncated zero
    t = LaurentElement.monomial(RingParams(5, 20, (0, 5)), 1)
    with pytest.raises(NonInvertible, match="K\\[\\[t\\]\\]"):
        t.inverse()
    P3 = RingParams(5, 20, (3, 5))
    with pytest.raises(WindowTooSmall, match="bottom 4 holds it$"):
        LaurentElement.monomial(P3, 4).inverse()
    inv = LaurentElement.monomial(P3, 3).inverse()
    assert _bits(inv) == _bits(LaurentElement.monomial(P3, -3))


def test_sigma_on_monomials():
    x = LaurentElement.monomial(P, 2, 3)
    sx = x.sigma()
    assert sx.coefficient(10).to_fraction() == 3
    assert sx.min_exponent() == 10


def test_sigma_is_ring_hom():
    x = L((0, 1), (1, 2))
    y = L((-1, 3), (2, Fraction(1, 2)))
    assert (x * y).sigma().congruent(x.sigma() * y.sigma())


def test_d_dt_product_rule():
    x = L((1, 1), (2, 4))
    y = L((-1, 2), (0, 1))
    lhs = (x * y).d_dt()
    rhs = x.d_dt() * y + x * y.d_dt()
    assert lhs.congruent(rhs)


def test_twisted_chain_rule():
    # d/dt sigma(x) = p t^(p-1) sigma(dx/dt)
    x = L((1, 1), (3, Fraction(2, 3)), (-2, 1))
    lhs = x.sigma().d_dt()
    tw = LaurentElement.monomial(P, P.p - 1, P.p)
    rhs = tw * x.d_dt().sigma()
    assert lhs.congruent(rhs)


def test_D_operator():
    x = L((3, 2), (-1, 5), (0, 7))
    dx = x.D()
    assert dx.coefficient(3).to_fraction() == 6
    assert dx.coefficient(-1).to_fraction() == -5
    assert dx.coefficient(0).is_zero()


def test_D_equals_t_ddt():
    x = L((2, 1), (-3, Fraction(4, 7)))
    assert x.D().congruent(x.d_dt().shift(1))


def test_coefficient_builds_a_zero_only_for_an_absent_exponent(
        monkeypatch):
    x = L((0, 1), (3, Fraction(2, 7)))
    got = []
    assert count_calls(monkeypatch, PadicNumber, "zero",
                       lambda: got.append(x.coefficient(3))) == 0
    assert got[0] is x.coeffs[3]
    assert count_calls(monkeypatch, PadicNumber, "zero",
                       lambda: got.append(x.coefficient(2))) == 1
    assert got[1].is_zero_at_precision and got[1].abs_prec == P.N


def test_json_roundtrip():
    x = L((-2, Fraction(3, 4)), (0, 1), (5, -2))
    back = LaurentElement.from_json(P, x.to_json())
    assert back.congruent(x)


def test_rebase_across_windows():
    wide = RingParams(5, 20, (32, 32))
    x = L((4, 1), (-4, 2))
    y = x.rebase(wide)
    assert y.coefficient(4).to_fraction() == 1
    assert y.params == wide


def _reference_product(x, y):
    """Product over Q of {exponent: Fraction} dicts, with no window."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _reference_sum(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def _triples(draw):
    """Three elements on a small window with exponents on one side of 0
    (truncating an ideal, so the window is a ring quotient and products
    run past it) or near 0 (products stay inside)."""
    m_pos = draw(st.integers(1, 8))
    m_neg = draw(st.integers(0, 8))
    params = RingParams(draw(st.sampled_from((2, 3, 5))), 40, (m_neg, m_pos))
    lo, hi = draw(st.sampled_from(
        [(0, m_pos), (-m_neg, 0), (-(m_neg // 3), m_pos // 3)]))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    element = st.dictionaries(st.integers(lo, hi), coeff, max_size=4)
    return params, [{e: c for e, c in draw(element).items() if c}
                    for _ in range(3)]


def _assert_matches(params, got, ref):
    """Window coefficients equal the reference's; a tail flag is set
    exactly when the reference has a term past that end of the window."""
    lo, hi = params.window_lo, params.window_hi
    assert set(got.coeffs) == {e for e in ref if lo <= e <= hi}
    for e, c in got.coeffs.items():
        assert c == ref[e], (e, c, ref[e])
    assert got.tail_pos == any(e > hi for e in ref)
    assert got.tail_neg == any(e < lo for e in ref)


@settings(max_examples=300, deadline=None)
@given(_triples())
def test_ring_axioms_against_reference(triple):
    params, refs = triple
    x, y, z = (LaurentElement.from_terms(params, r.items()) for r in refs)
    rx, ry, rz = refs
    one = LaurentElement.one(params)
    xy = _reference_product(rx, ry)
    for got, ref in [
            (x * y, xy), (y * x, xy),
            ((x * y) * z, _reference_product(xy, rz)),
            (x * (y * z), _reference_product(rx, _reference_product(ry, rz))),
            (x + y, _reference_sum(rx, ry)), (y + x, _reference_sum(rx, ry)),
            ((x + y) + z, _reference_sum(_reference_sum(rx, ry), rz)),
            (x + (y + z), _reference_sum(rx, _reference_sum(ry, rz))),
            (x * one, rx), (one * x, rx)]:
        _assert_matches(params, got, ref)
    # distributivity: x y + x z may flag a tail whose terms cancel in
    # x (y + z), so compare the window and require the flags of the
    # exact side only
    left = x * (y + z)
    right = x * y + x * z
    _assert_matches(params, left,
                    _reference_product(rx, _reference_sum(ry, rz)))
    assert left.congruent(right)
    assert right.tail_pos >= left.tail_pos
    assert right.tail_neg >= left.tail_neg


# -- Laurent matrices through linalg's products -------------------------------

@st.composite
def _laurent_matrices(draw):
    """(params, A, B, v): A is n x k, B is k x m and v has k entries, over a
    window with bottom 0 or below.  Entries are exact zeros, zeros with a
    tail at either end or both, or terms of both signs with coefficients of
    mixed valuation and precision, some past the window (which sets a
    tail)."""
    a = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((2, 3, 5)))
    window = (draw(st.sampled_from((0, 1, 3))), draw(st.integers(1, 4)))
    params = RingParams(p, 8, window, a=a,
                        modulus={2: (1, 1, 1), 3: (1, 0, 1),
                                 5: (2, 0, 1)}[p] if a == 2 else None)
    lo, hi = params.window_lo, params.window_hi

    def cut(x, prec):   # x + O(p^(v + prec)): relative precision prec
        return x + PadicNumber.zero(params, x.v + prec)

    coeff = st.builds(
        lambda num, den, k, prec: cut(PadicNumber.from_rational(
            params, Fraction(num, den) * Fraction(p) ** k), prec),
        st.integers(-9, 9).filter(bool), st.integers(1, 9),
        st.integers(-1, 2), st.integers(1, 8))
    zero = LaurentElement.zero(params)
    element = st.one_of(
        st.just(zero),
        st.builds(lambda tails: LaurentElement(params, {}, *tails),
                  st.sampled_from([(True, False), (False, True),
                                   (True, True)])),
        st.builds(lambda terms, tails: LaurentElement(params, terms, *tails),
                  st.dictionaries(st.integers(lo - 2, hi + 2), coeff,
                                  min_size=1, max_size=3),
                  st.sampled_from([(False, False)] * 3 + [
                      (True, False), (False, True), (True, True)])))
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return [[draw(element) for _ in range(cols)] for _ in range(rows)]

    return params, matrix(n, k), matrix(k, m), matrix(1, k)[0]


@settings(max_examples=300, deadline=None)
@given(_laurent_matrices())
def test_sparse_products_match_the_dense_loop(case):
    params, A, B, v = case
    zero = LaurentElement.zero(params)
    for got, ref in [
            (linalg.mat_mul(A, B, zero), dense_lmat_mul(A, B)),
            ([[x] for x in linalg.mat_vec(A, v, zero)],
             dense_lmat_mul(A, [[x] for x in v]))]:
        assert [[_bits(x) for x in row] for row in got] == \
            [[_bits(x) for x in row] for row in ref]
