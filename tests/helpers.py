"""Checks and builders shared by several test modules."""

import random
from fractions import Fraction

from phinabla import linalg
from phinabla.modules import GaugeChange, lmat_identity, lmat_mul
from phinabla.series import LaurentElement


def same_space(basis1, basis2):
    """Whether two lists of rational vectors span the same subspace."""
    return (linalg.rank(list(basis1) + list(basis2)) == linalg.rank(basis1)
            == linalg.rank(basis2))


def kron(A, B):
    """Kronecker product of two matrices given as lists of rows."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


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
