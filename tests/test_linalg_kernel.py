"""Sparse p-adic elimination against a dense reference.

``dense_rref`` below is a plain Gauss-Jordan elimination over full rows
with the same pivot rule as ``linalg`` (minimal valuation, first row in
current order on ties) and the same reading of the input: an entry that is
zero at precision is an exact zero.  It shares no code with ``linalg``.
The sparse kernel, and the same elimination run on right-hand sides
(``helpers.field_solve``), must agree with it entry by entry, and never
report less precision on a non-zero entry.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from phinabla.linalg import field_kernel
from phinabla.padic import PadicNumber, RingParams

from helpers import field_solve


# monic quadratics irreducible mod p, for the unramified degree-2 fields
QUADRATIC = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1)}


def ring(p, N, a):
    return RingParams(p, N, a=a, modulus=QUADRATIC[p] if a == 2 else None)


def dense_rref(rows, ncols):
    R = [[PadicNumber.from_rational(x.params, 0) if x.is_zero() else x
          for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(R):
            break
        cands = [(R[i][c].valuation(), i) for i in range(r, len(R))
                 if not R[i][c].is_zero()]
        if not cands:
            continue
        i = min(cands)[1]
        R[r], R[i] = R[i], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for k in range(len(R)):
            if k != r and not R[k][c].is_zero():
                f = R[k][c]
                R[k] = [x - f * y for x, y in zip(R[k], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def dense_kernel(rows, ncols, zero, one):
    R, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for rr, pc in enumerate(pivots):
            v[pc] = -R[rr][fc]
        basis.append(v)
    return basis


def dense_solve(rows, rhs, ncols, zero):
    R, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(not row[ncols].is_zero() for row in R[len(pivots):]):
        return None
    x = [zero] * ncols
    for rr, pc in enumerate(pivots):
        x[pc] = R[rr][ncols]
    return x


def assert_vectors_agree(got, ref):
    """Entries congruent; no non-zero reference entry is more precise.

    Zero entries are only compared by congruence: an entry the sparse
    kernel leaves out is an exact zero, while the dense loop's placeholder
    products give zeros of arbitrary bound.
    """
    assert len(got) == len(ref)
    for g, e in zip(got, ref):
        assert g.congruent(e), (g, e)
        if not e.is_zero():
            assert g.abs_prec >= e.abs_prec, (g, e)


@st.composite
def systems(draw):
    """A random p-adic matrix and right-hand side.

    Rows may be banded, contain all-zero rows, and repeat p-adic linear
    combinations of earlier rows (so the matrix is often rank-deficient).
    Entries have valuations in [-2, 3] and sometimes reduced precision.
    """
    p = draw(st.sampled_from(sorted(QUADRATIC)))
    N = draw(st.sampled_from([20, 200]))
    a = draw(st.sampled_from([1, 2]))
    params = ring(p, N, a)
    zero = PadicNumber.zero(params)

    def scalar():
        coords = [Fraction(draw(st.integers(-40, 40)),
                           draw(st.integers(1, 40))) for _ in range(a)]
        if not any(coords):
            return zero
        scale = Fraction(p) ** draw(st.integers(-2, 3))
        rel = draw(st.sampled_from([None, N - 3, N // 2]))
        x = PadicNumber.from_poly(params, [c * scale for c in coords])
        # adding O(p^(v + rel)) cuts x to relative precision rel
        return x if rel is None else x + PadicNumber.zero(params, x.v + rel)

    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    band = draw(st.one_of(st.none(), st.integers(0, 2)))
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "combo" and rows:
            u, w = (draw(st.sampled_from(rows)) for _ in range(2))
            s, t = scalar(), scalar()
            rows.append([s * x + t * y for x, y in zip(u, w)])
        else:
            rows.append([scalar() if band is None or abs(i - j) <= band
                         else zero for j in range(ncols)])
    rhs = [scalar() for _ in rows]
    one = PadicNumber.from_rational(params, 1)
    return rows, rhs, ncols, zero, one


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(systems())
def test_kernel_matches_dense_reference(system):
    rows, _rhs, ncols, zero, one = system
    got = [[v.get(c, zero) for c in range(ncols)]
           for v in field_kernel(rows, one)]
    ref = dense_kernel(rows, ncols, zero, one)
    assert len(got) == len(ref)
    for g, e in zip(got, ref):
        assert_vectors_agree(g, e)


@SETTINGS
@given(systems())
def test_solve_matches_dense_reference(system):
    rows, rhs, ncols, zero, _one = system
    got = field_solve(rows, [rhs], zero)
    ref = dense_solve(rows, rhs, ncols, zero)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert_vectors_agree(got[0], ref)


def _bits(x):
    return (x.v, x.unit, x.abs_prec)


@SETTINGS
@given(systems())
def test_solve_columns_match_one_at_a_time(system):
    # every right-hand side column sees the same row operations, so a joint
    # solve gives each column the exact digits and bounds of a lone solve
    rows, rhs, _ncols, zero, _one = system
    columns = [rhs, rhs[::-1], [x * x for x in rhs]]
    alone = [field_solve(rows, [b], zero) for b in columns]
    joint = field_solve(rows, columns, zero)
    if any(x is None for x in alone):
        assert joint is None
        return
    assert [[_bits(x) for x in v] for v in joint] == \
        [[_bits(x) for x in v[0]] for v in alone]


def test_inconsistent_solve_returns_none():
    params = ring(5, 20, 1)
    zero = PadicNumber.zero(params)

    def q(x):
        return PadicNumber.from_rational(params, x)
    # x + 2y = 1 and 5x + 10y = 3: the second row is 5 times the first
    rows = [[q(1), q(2)], [q(5), q(10)]]
    rhs = [q(1), q(3)]
    assert field_solve(rows, [rhs], zero) is None
    assert dense_solve(rows, rhs, 2, zero) is None
    # one inconsistent column makes the whole solve fail
    assert field_solve(rows, [[q(1), q(5)], rhs], zero) is None
    (x,) = field_solve(rows, [[q(1), q(5)]], zero)
    assert (x[0] + q(2) * x[1]).congruent(q(1))


def test_cancelled_entry_keeps_its_precision():
    params = ring(5, 20, 1)
    zero = PadicNumber.zero(params)
    one = PadicNumber.from_rational(params, 1)
    coarse_one = PadicNumber(params, 0, 1, 3)
    # eliminating column 0 leaves O(5^3) at (1, 2); the column-1 step must
    # carry that bound into (2, 2) instead of trusting 5^4 there
    rows = [[one, zero, one],
            [one, one, coarse_one],
            [zero, one, PadicNumber.from_rational(params, 5 ** 4)]]
    got = field_kernel(rows, one)
    assert len(got) == len(dense_kernel(rows, 3, zero, one)) == 1
    # pivots 0 and 1, free column 2, which row 0 holds as 1 and row 1 as
    # the cancelled O(5^3): the vector holds those three entries, the
    # cancelled one with its bound
    (v,) = got
    assert sorted(v) == [0, 1, 2]
    assert v[2] is one and v[0].congruent(-one)
    assert v[1].is_zero() and v[1].abs_prec == 3


def test_kernel_vector_holds_only_the_entries_it_fixes():
    # a vector's keys are its free column and the pivot columns of the
    # rows holding that column; every other entry is an exact zero
    params = ring(5, 20, 1)
    zero = PadicNumber.zero(params)
    one = PadicNumber.from_rational(params, 1)
    two = PadicNumber.from_rational(params, 2)
    assert [sorted(v) for v in field_kernel(
        [[one, zero, two], [zero, one, zero]], one)] == [[0, 2]]
    assert [sorted(v) for v in field_kernel(
        [[one, zero, zero], [zero, zero, one]], one)] == [[1]]
