"""Built-in example objects.

Every shipped JSON input under corpus/ is generated from these builders;
`selftest` rebuilds them directly (at arbitrary precision) instead of
reading files, so the two stay in sync by construction.
"""

from __future__ import annotations

from fractions import Fraction

from .diagnostics import AbelianVarietyDatum, OpenCurveDatum
from .modules import PhiNablaModule
from .padic import RingParams
from .series import LaurentElement
from .weil_deligne import WeilDeligneRep, special_rep


def ring(p=5, precision=20, window=32) -> RingParams:
    return RingParams(p, precision, (window, window))


def kummer_tate(params=None) -> PhiNablaModule:
    """H^1 of the Tate curve: A = diag(1, p), G = E_12 / t."""
    params = params or ring()
    return PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[1, 0], [0, params.p]],
        connection=[[0, {-1: 1}], [0, 0]],
        label="kummer_tate")


def constant_trivial(params=None) -> PhiNablaModule:
    params = params or ring()
    return PhiNablaModule.from_rational_matrices(
        params, frobenius=[[1]], connection=[[0]], label="constant_trivial")


def symplectic_pairing(params, n=1):
    """Standard symplectic form on rank 2n, constant coefficients."""
    P = [[LaurentElement.zero(params) for _ in range(2 * n)]
         for _ in range(2 * n)]
    for i in range(n):
        P[i][n + i] = LaurentElement.one(params)
        P[n + i][i] = LaurentElement.constant(params, -1)
    return P


def tate_abelian_datum(params=None) -> AbelianVarietyDatum:
    """D(A) for the Tate elliptic curve: A = diag(1/p, 1), G = E_12 / t,
    self-dual under the standard symplectic pairing."""
    params = params or ring()
    m = PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[Fraction(1, params.p), 0], [0, 1]],
        connection=[[0, {-1: 1}], [0, 0]],
        label="tate_abelian")
    return AbelianVarietyDatum(m, pairing=symplectic_pairing(params))


def good_elliptic_datum(params=None, a=2) -> AbelianVarietyDatum:
    """D(A) for an elliptic curve with good reduction and Frobenius trace
    a: the companion matrix of T^2 - aT + p, scaled by 1/p."""
    params = params or ring()
    p = params.p
    m = PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[0, -1], [Fraction(1, p), Fraction(a, p)]],
        connection=[[0, 0], [0, 0]],
        label="good_elliptic")
    return AbelianVarietyDatum(m, pairing=symplectic_pairing(params))


def good_elliptic_h1(params=None, a=2) -> PhiNablaModule:
    """Cohomological H^1 of a good-reduction elliptic curve: companion
    matrix of T^2 - aT + p, trivial connection."""
    params = params or ring()
    return PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[0, -params.p], [1, a]],
        connection=[[0, 0], [0, 0]],
        label="good_elliptic_h1")


def bad_reduction_datum(params=None) -> AbelianVarietyDatum:
    """Non-semistable rank-2 datum: exponents 1/2, A = diag(t^((p-1)/2))."""
    params = params or ring()
    k = (params.p - 1) // 2
    m = PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[{k: 1}, 0], [0, {k: 1}]],
        connection=[[{-1: Fraction(1, 2)}, 0], [0, {-1: Fraction(1, 2)}]],
        label="bad_reduction")
    return AbelianVarietyDatum(m)


def half_twist(params=None) -> PhiNablaModule:
    """Rank-1 module with residue exponent 1/2; constant after the e = 2
    Kummer pullback."""
    params = params or ring()
    k = (params.p - 1) // 2
    return PhiNablaModule.from_rational_matrices(
        params,
        frobenius=[[{k: 1}]],
        connection=[[{-1: Fraction(1, 2)}]],
        label="half_twist")


def wild_module(params=None) -> PhiNablaModule:
    """Exponent 1/p: out of tame scope, must raise NotTame."""
    params = params or ring()
    return PhiNablaModule.from_rational_matrices(
        params, frobenius=[[1]],
        connection=[[{-1: Fraction(1, params.p)}]],
        label="wild")


def open_tate_curve(params=None) -> OpenCurveDatum:
    """Tate curve minus two rational points: H^0(D)(-1) is trivial^2
    twisted once, the boundary map sums the two points into H^2."""
    params = params or ring()
    p = params.p
    h1 = kummer_tate(params)
    h0 = PhiNablaModule.from_rational_matrices(
        params, frobenius=[[p, 0], [0, p]], connection=[[0, 0], [0, 0]],
        label="h0_boundary_twisted")
    h2 = PhiNablaModule.from_rational_matrices(
        params, frobenius=[[p]], connection=[[0]], label="h2_compact")
    one = LaurentElement.one(params)
    return OpenCurveDatum(h1, h0, h2, [[one, one]])


def proper_tate_curve(params=None) -> OpenCurveDatum:
    """Empty boundary: the proper case."""
    params = params or ring()
    h1 = kummer_tate(params)
    h0 = PhiNablaModule(params, 0, [], [], "h0_empty")
    h2 = PhiNablaModule(params, 0, [], [], "h2_empty")
    return OpenCurveDatum(h1, h0, h2, [])


def ell_adic_sp2(q=5) -> WeilDeligneRep:
    """Hand-built 'ell-adic' member of the Tate-curve family."""
    return special_rep(q, label="ell_adic_sp2")


def family_tate(q=5):
    """[WD-shaped p-adic member, ell-adic member]; both are sp(2)."""
    return [special_rep(q, label="p_adic_sp2"), ell_adic_sp2(q)]
