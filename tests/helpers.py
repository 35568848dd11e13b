"""Checks and builders shared by several test modules."""

import random
from fractions import Fraction

from phinabla import linalg
from phinabla.modules import GaugeChange, lmat_identity, lmat_mul
from phinabla.series import LaurentElement
from phinabla.weil_deligne import WeilDeligneRep


def same_space(basis1, basis2):
    """Whether two lists of rational vectors span the same subspace."""
    return (linalg.rank(list(basis1) + list(basis2)) == linalg.rank(basis1)
            == linalg.rank(basis2))


def fraction_rref(A):
    """Dense Gauss-Jordan over Fraction, every entry multiplied, zeros
    included: (R, pivot columns), the reference for ``linalg``'s views."""
    R = [[Fraction(x) for x in row] for row in A]
    rows, cols = len(R), len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def fraction_nullspace(A):
    """One kernel vector per free column, 1 there, read off the rref."""
    R, pivots = fraction_rref(A)
    ncols = len(A[0])
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def fraction_solve(A, rhs):
    """Solutions of A x = b for each column b of rhs, free unknowns 0, or
    None if one column is inconsistent (a pivot in the column of b)."""
    ncols = len(A[0])
    out = []
    for b in rhs:
        R, pivots = fraction_rref([list(row) + [b[i]]
                                   for i, row in enumerate(A)])
        if ncols in pivots:
            return None
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][ncols]
        out.append(x)
    return out


def fraction_completion(known, cand):
    """The candidates that raise the rank of known and the candidates
    before them, one rank at a time."""
    def rank(vectors):
        return len(fraction_rref(vectors)[1]) if vectors else 0
    kept, seen = [], list(known)
    for v in cand:
        if rank(seen + [v]) > rank(seen):
            kept.append(v)
        seen.append(v)
    return kept


def kron(A, B):
    """Kronecker product of two matrices given as lists of rows."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def random_nilpotent(rng, d):
    """Strictly upper triangular, conjugated by a random shear."""
    N = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
          for j in range(d)] for i in range(d)]
    U = [[Fraction(1) if i == j else Fraction(rng.randint(-1, 1)) if j > i
          else Fraction(0) for j in range(d)] for i in range(d)]
    Ui = linalg.mat_inv(U)
    return linalg.mat_mul(Ui, linalg.mat_mul(N, U))


def sp2_power(k):
    """Sp(2)^(xk) over q = 5: Phi = diag(1, 5)^(xk), N the Kronecker sum
    of k copies of N0 = E_12."""
    I2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    N0 = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    phi1 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(5)]]
    phi, N, I = phi1, N0, I2
    for _ in range(k - 1):
        N = [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(kron(N, I2), kron(I, N0))]
        phi, I = kron(phi, phi1), kron(I, I2)
    return WeilDeligneRep(5, phi, N)


def dense_unit_matrix(params, n):
    """U L with U upper and L lower unitriangular and entries c0 + c1 t
    (c0, c1 drawn from [-3, 3] with seed 8 + n): every entry is dense, the
    determinant is 1 and the inverse a Laurent polynomial matrix."""
    rng = random.Random(8 + n)
    U, L = lmat_identity(params, n), lmat_identity(params, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                (U if j > i else L)[i][j] = LaurentElement.from_terms(
                    params, [(0, rng.randint(-3, 3)), (1, rng.randint(-3, 3))])
    return lmat_mul(U, L)


def random_shear_gauge(rng, params, rank, lowest=-2):
    """Product of elementary shears with series entries of exponents in
    [lowest, 3]: the determinant is a constant unit, so the inverse is
    exact.  With lowest >= 0 the gauge keeps a log pole of G a log pole."""
    U = lmat_identity(params, rank)
    for _ in range(3):
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if i == j:
            continue
        # keep exponents small: sigma multiplies them by p, and exact
        # residual cancellation must happen inside the Laurent window
        terms = [(rng.randint(lowest, 3), Fraction(rng.randint(-4, 4),
                                               rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        E = lmat_identity(params, rank)
        E[i][j] = LaurentElement.from_terms(params, terms)
        U = lmat_mul(U, E)
    return GaugeChange(U)
