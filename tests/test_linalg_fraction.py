"""Rational kernels of ``linalg``: the fraction-free elimination and its
views, zero-skipping rref bases and mat_vec against dense references,
``charpoly`` against interpolated determinants, and the rational-root
search of ``residue_exponents``.

The references here and in ``helpers`` (a Fraction Gauss-Jordan loop and
the views read off it) multiply every entry, zeros included; they share no
code with ``linalg``.
"""

import math
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from phinabla import linalg
from phinabla.oracles import _det, _interpolate

from helpers import (fraction_completion, fraction_nullspace,
                     fraction_rref, fraction_solve)


F = Fraction


def dense_mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in A]


fraction_entries = st.one_of(st.just(F(0)),
                             st.fractions(-6, 6, max_denominator=5))
int_entries = st.one_of(st.just(0), st.integers(-6, 6))


@st.composite
def sparse_matrices(draw):
    """About half the entries zero, plus a row combining two others (so
    the rank is deficient) and an all-zero row; all entries Fractions,
    all ints, or a mix of both."""
    entries = draw(st.sampled_from([
        fraction_entries, int_entries,
        st.one_of(fraction_entries, int_entries)]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    A = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    s, t = draw(entries), draw(entries)
    u, w = draw(st.sampled_from(A)), draw(st.sampled_from(A))
    A.insert(draw(st.integers(0, rows)),
             [s * x + t * y for x, y in zip(u, w)])
    A.insert(draw(st.integers(0, rows + 1)),
             [0 if entries is int_entries else F(0)] * cols)
    v = [draw(entries) for _ in range(cols)]
    return A, v


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_matrices())
def test_zero_skipping_kernels_match_dense(problem):
    A, v = problem
    R = linalg.span_basis(A)
    expected, pivots = fraction_rref(A)
    assert R == expected[:len(pivots)]
    assert all(type(x) is F for row in R for x in row)
    Av = linalg.mat_vec(A, v)
    assert Av == dense_mat_vec(A, v)
    assert all(type(x) is F for x in Av)
    assert len(pivots) < len(A)


@st.composite
def rational_problems(draw):
    """A wide or tall rational matrix (denominators up to 10^6) with zero
    and repeated rows, and right-hand sides, images A x or drawn at random
    (then mostly inconsistent when A has dependent rows)."""
    entries = st.one_of(st.just(F(0)), st.just(0), st.integers(-9, 9),
                        st.fractions(-1000, 1000, max_denominator=10 ** 6))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        A.insert(draw(st.integers(0, len(A))), list(draw(st.sampled_from(A))))
    if draw(st.booleans()):
        A.insert(draw(st.integers(0, len(A))), [draw(st.sampled_from(
            [0, F(0)]))] * cols)
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rhs.append(dense_mat_vec(A, [draw(entries) for _ in range(cols)]))
        else:
            rhs.append([draw(entries) for _ in range(len(A))])
    return A, rhs


def _fractions_only(obj):
    if isinstance(obj, list):
        return all(_fractions_only(x) for x in obj)
    return obj is None or type(obj) is F


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_problems())
def test_fraction_free_views_match_fraction_gauss_jordan(problem):
    # the rational insertion step gives the unique reduced echelon form:
    # every view equals the Fraction reference entry for entry, as Fractions
    A, rhs = problem
    R, pivots = fraction_rref(A)
    k = min(len(A), len(A[0]))
    square = [row[:k] for row in A[:k]]
    cols = fraction_solve(square, [[F(int(i == j)) for i in range(k)]
                                   for j in range(k)])
    half = len(A) // 2
    views = [
        (linalg.nullspace(A), fraction_nullspace(A)),
        (linalg.span_basis(A), R[:len(pivots)]),
        (linalg.column_space(A),
         fraction_rref(linalg.transpose(A))[0][:len(pivots)]),
        (linalg.solve(A, rhs), fraction_solve(A, rhs)),
        (linalg.mat_inv(square),
         None if cols is None else linalg.transpose(cols)),
    ]
    for got, expected in views:
        assert got == expected
        assert _fractions_only(got)
    assert linalg.rank(A) == len(pivots)
    assert linalg._completion(A[:half], A[half:]) == \
        fraction_completion(A[:half], A[half:])
    # the rows of A as the columns: the indices where the rank grows
    ranks = [len(fraction_rref(A[:i])[1]) for i in range(len(A) + 1)]
    assert linalg._pivot_columns(A) == [
        i for i in range(len(A)) if ranks[i + 1] > ranks[i]]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_problems())
def test_integer_kernel_is_the_primitive_fraction_kernel(problem):
    # the kernel read off the fraction-free rows equals the primitive
    # integer multiples of the Fraction reference's, as ints
    A = problem[0]
    expected = []
    for v in fraction_nullspace(A):
        den = math.lcm(*(x.denominator for x in v))
        w = [int(x * den) for x in v]
        g = math.gcd(*w)
        expected.append([x // g for x in w])
    got = linalg._integer_kernel(A)
    assert got == expected
    assert all(type(x) is int for v in got for x in v)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_problems(), st.data())
def test_span_bases_are_the_rref_of_each_prefix(problem, data):
    # one flag pass over blocks of A's rows (empty blocks among them) gives
    # after each block the reduced echelon form of the rows so far
    A = problem[0]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(A)), max_size=4)))
    blocks = [A[a:b] for a, b in zip([0] + cuts, cuts + [len(A)])]
    bases = linalg.span_bases(blocks)
    assert len(bases) == len(blocks)
    for b, basis in zip(cuts + [len(A)], bases):
        R, pivots = fraction_rref(A[:b])
        assert basis == R[:len(pivots)]
        assert _fractions_only(basis)
    assert linalg.span_basis(A) == bases[-1]


@given(st.lists(st.lists(st.one_of(int_entries, fraction_entries),
                         min_size=3, max_size=3), max_size=3))
def test_scaled_is_an_integer_matrix_over_the_lcm(A):
    Y, s = linalg._scaled(A)
    assert s == math.lcm(*(F(x).denominator for row in A for x in row))
    assert all(type(x) is int for row in Y for x in row)
    assert [[F(y, s) for y in row] for row in Y] == A


def test_fractions_returns_new_rows():
    A = [[F(1, 2), 3], [0, F(-2)]]
    B = linalg._fractions(A)
    assert B == A and all(type(x) is F for row in B for x in row)
    # Fraction entries are shared (immutable), the row lists are not
    assert B[0][0] is A[0][0] and B[1][1] is A[1][1]
    B[0][0] = F(7)
    B[1].append(F(1))
    assert A == [[F(1, 2), 3], [0, F(-2)]]


def test_mat_pow_forms_one_product_per_bit(monkeypatch):
    # k = 0 is the identity; k = 1 a copy; otherwise one square per bit
    # below the top and one product per further set bit, never with I
    A = [[F(2), F(1, 3), F(0)], [F(0), F(-1), F(4)], [F(1, 2), F(0), F(1)]]
    want = linalg.identity(3)
    for k in range(14):
        products = []
        mat_mul = linalg.mat_mul

        def counted(X, Y, *rest):
            assert X != linalg.identity(3) and Y != linalg.identity(3)
            products.append(1)
            return mat_mul(X, Y, *rest)

        monkeypatch.setattr(linalg, "mat_mul", counted)
        got = linalg.mat_pow(A, k)
        monkeypatch.undo()
        assert got == want and got is not A
        assert all(type(x) is F for row in got for x in row)
        assert len(products) == (max(k.bit_length() - 1, 0)
                                 + max(bin(k).count("1") - 1, 0))
        want = linalg.mat_mul(want, A)

def test_rational_roots_of_large_constant_terms():
    for coeffs, roots in (([-(10**14 + 39), 0, 1], []),
                          ([-(10**7 + 19) ** 2, 0, 1],
                           [-(10**7 + 19), 10**7 + 19])):
        # best of three, so that one scheduler stall cannot fail the bound
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            got, rest = linalg._rational_roots([F(c) for c in coeffs])
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.05
        assert sorted(got) == roots
        assert rest == ([F(c) for c in coeffs] if not roots else None)


def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_repeated():
    # (T-1)^2 (T-2) and (T-1/2)^2 (T-1): every member of the Sturm chain of
    # a polynomial with a multiple root vanishes there, unless the chain is
    # taken of its square-free part
    for roots in ([F(1), F(1), F(2)], [F(1, 2), F(1, 2), F(1)],
                  [F(0), F(3), F(3), F(3), F(-3, 2)]):
        poly = [F(1)]
        for r in roots:
            poly = _mul(poly, [-r, F(1)])
        got, rest = linalg._rational_roots(poly)
        assert sorted(got) == sorted(roots) and rest is None


# small roots, each repeated one to three times: bisection midpoints land
# on them and the multiple ones are where a chain that is not square-free
# miscounts
_repeated_roots = st.lists(
    st.tuples(st.fractions(-6, 6, max_denominator=3), st.integers(1, 3)),
    max_size=4).map(lambda rs: [r for r, k in rs for _ in range(k)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_repeated_roots,
                 st.lists(st.fractions(-60, 60, max_denominator=12),
                          max_size=5)),
       st.integers(1, 40), st.integers(-40, 40), st.integers(1, 9))
def test_rational_roots_of_linear_factors_times_a_quadratic(roots, c, b,
                                                            lead):
    # T^2 + bT + c with b^2 < 4c has no real root, so no rational one
    c = max(c, b * b // 4 + 1)
    poly = [F(c, lead), F(b, lead), F(1, lead)]
    for r in roots:
        poly = _mul(poly, [-r, F(1)])
    got, rest = linalg._rational_roots(poly)
    assert sorted(got) == sorted(roots)
    assert rest is not None and len(rest) == 3
    assert rest[1] * c == rest[0] * b and rest[2] * c == rest[0]


@st.composite
def square_matrices(draw):
    """Rank 0-7, about half the entries zero; Fractions, ints or both."""
    entries = draw(st.sampled_from([
        fraction_entries, int_entries,
        st.one_of(fraction_entries, int_entries)]))
    n = draw(st.integers(0, 7))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


def charpoly_by_interpolation(A):
    """det(x I - A) at x = 0..n by the oracle's elimination, interpolated."""
    n = len(A)
    return _interpolate([
        (F(x), _det([[F(x) * (i == j) - F(A[i][j]) for j in range(n)]
                     for i in range(n)]))
        for x in range(n + 1)])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices())
def test_charpoly_matches_interpolated_determinants(A):
    chi = linalg.charpoly(A)
    assert chi == charpoly_by_interpolation(A)
    assert chi[-1] == 1 and all(type(c) is F for c in chi)
