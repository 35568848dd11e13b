"""Arithmetic verdicts: reduction types, rank bookkeeping, weight
filtrations, excision for open curves, and ell-independence.

Conventions: abelian-variety modules are homological (weights -2, -1, 0 on
D(A)); cohomological H^1 data carry weight 1.  Reports always name the
convention in force.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import partial

from . import linalg
from .errors import (DiagnosticConflict, InconsistentRanks, MissingPairing,
                     NotEquivariant, PurityFailure)
from .extraction import _check_frobenius, _representation, wd_extract
from .linalg import field_kernel
from .modules import (PhiNablaModule, UnipotentFiltration, _rational_matrix,
                      horizontal_sections, lmat_add, lmat_ddt, lmat_det,
                      lmat_mul, lmat_sigma, module_from_json,
                      unipotent_filtration)
from .padic import PadicNumber
from .series import LaurentElement
from .weil_deligne import (FrobeniusKind, GradedReport, WeilDeligneRep,
                           compatibility_family, monodromy_filtration,
                           quasi_purity_check, _graded, _json_matrix,
                           _weights_of)


class ReductionType(enum.Enum):
    GOOD = "GOOD"
    SEMISTABLE_NOT_GOOD = "SEMISTABLE_NOT_GOOD"
    NOT_SEMISTABLE = "NOT_SEMISTABLE"


class AbelianVarietyDatum:
    """D(A) with optional D(A') and Weil pairing into R(1).

    The pairing matrix P encodes <x, y> = x^T P y; when dual_module is
    omitted the datum is treated as self-dual (principal polarization)."""

    def __init__(self, module: PhiNablaModule,
                 dual_module: PhiNablaModule | None = None,
                 pairing: list | None = None):
        self.module = module
        self.dual_module = dual_module
        self.pairing = pairing
        if self.module.rank % 2 != 0:
            raise InconsistentRanks("D(A) must have even rank")
        if self.pairing is not None:
            self._validate_pairing()

    @property
    def n(self):
        return self.module.rank // 2

    @property
    def dual(self):
        return self.dual_module if self.dual_module is not None \
            else self.module

    def _validate_pairing(self):
        m = self.module
        md = self.dual
        P = self.pairing
        # a 0 x 0 P pairs two rank-0 modules perfectly
        if len(P) != m.rank or P and not lmat_det(P).is_unit():
            raise MissingPairing("pairing is not perfect at precision")
        q = m.params.q
        if m.has_frobenius and md.has_frobenius:
            lhs = lmat_mul(linalg.transpose(m.A), lmat_mul(P, md.A))
            qinv = LaurentElement.constant(m.params, Fraction(1, q))
            rhs = [[x.sigma() * qinv for x in row] for row in P]
            if not _lmat_eq(lhs, rhs):
                raise MissingPairing("pairing fails <phi x, phi y> = "
                                     "q^-1 sigma<x, y>")
        if m.has_connection and md.has_connection:
            lhs = lmat_ddt(P)
            rhs = lmat_add(lmat_mul(linalg.transpose(m.G), P),
                           lmat_mul(P, md.G))
            if not _lmat_eq(lhs, rhs):
                raise MissingPairing("pairing is not horizontal")


def _lmat_eq(A, B):
    return all(x.congruent(y) for ra, rb in zip(A, B)
               for x, y in zip(ra, rb))


class RankProfile:
    def __init__(self, n: int, mu: int, alpha: int, lam: int):
        if n != alpha + mu + lam:
            raise InconsistentRanks(
                f"n = {n} != alpha + mu + lambda = {alpha + mu + lam}")
        self.n = n
        self.mu = mu          # reductive (toric) rank
        self.alpha = alpha    # abelian rank
        self.lam = lam        # unipotent rank

    def __eq__(self, other):
        if not isinstance(other, RankProfile):
            return NotImplemented
        return ((self.n, self.mu, self.alpha, self.lam)
                == (other.n, other.mu, other.alpha, other.lam))


def _fixed_part_kernel(datum: AbelianVarietyDatum, sections, dual_sections):
    """Constant combinations of `sections` pairing to zero with every dual
    section: coordinates of D^t inside D^f, as dense rows."""
    params = datum.module.params
    zero = PadicNumber.zero(params)
    one = PadicNumber.from_rational(params, 1)
    lzero = LaurentElement.zero(params)
    rows = []
    for y in dual_sections:
        Py = linalg.mat_vec(datum.pairing, y, lzero)
        pairings = linalg.mat_vec(sections, Py, lzero)
        for e in sorted({e for v in pairings for e in v.coeffs}):
            rows.append([v.coefficient(e) for v in pairings])
    if not rows:
        rows = [[zero] * len(sections)]
    return [[v.get(c, zero) for c in range(len(sections))]
            for v in field_kernel(rows, one)]


def _rank_profile(datum: AbelianVarietyDatum, sections):
    """The rank profile from the horizontal sections of D(A), with the
    D^t coordinates inside D^f (empty when there are no sections)."""
    n = datum.n
    rk_f = len(sections)
    if rk_f == 0:
        return RankProfile(n, 0, 0, n), []
    if datum.pairing is None:
        raise MissingPairing("mu/alpha split requires the Weil pairing")
    # a self-dual datum pairs D(A) with itself: its sections serve twice
    dual_sections = (sections if datum.dual is datum.module
                     else horizontal_sections(datum.dual))
    ker = _fixed_part_kernel(datum, sections, dual_sections)
    mu = len(ker)
    if (rk_f - mu) % 2 != 0:
        raise InconsistentRanks(
            f"rk D^f - mu = {rk_f - mu} is odd; invalid datum")
    alpha = (rk_f - mu) // 2
    lam = n - alpha - mu
    if lam < 0:
        raise InconsistentRanks("negative unipotent rank; invalid datum")
    return RankProfile(n, mu, alpha, lam), ker


def rank_profile(datum: AbelianVarietyDatum) -> RankProfile:
    return _rank_profile(datum, horizontal_sections(datum.module))[0]


class _Reduction:
    """A reduction verdict with the solves behind it, for reuse."""

    def __init__(self, verdict: ReductionType, sections: list,
                 filtration: UnipotentFiltration,
                 profile: RankProfile | None, torus: list):
        self.verdict = verdict
        self.sections = sections        # horizontal sections of D(A)
        self.filtration = filtration
        # None without a pairing, given sections
        self.profile = profile
        self.torus = torus              # D^t coordinates inside D^f


def _reduction(datum: AbelianVarietyDatum) -> _Reduction:
    m = datum.module
    fil = unipotent_filtration(m)
    # the log-degree-0 solutions are horizontal_sections(m): the reduced
    # log basis restricted to log degree 0 is the reduced basis there
    sections = [s.section(m.params) for s in fil.solutions
                if not s.log_degree]
    if len(sections) == m.rank:
        verdict = ReductionType.GOOD
    elif fil.unipotent:
        verdict = ReductionType.SEMISTABLE_NOT_GOOD
    else:
        verdict = ReductionType.NOT_SEMISTABLE
    profile, torus = None, []
    if datum.pairing is not None or len(sections) == 0:
        profile, torus = _rank_profile(datum, sections)
        if verdict is ReductionType.SEMISTABLE_NOT_GOOD and \
                profile.lam != 0:
            raise DiagnosticConflict("semistable but lambda nonzero")
        if verdict is ReductionType.NOT_SEMISTABLE and profile.lam == 0:
            raise DiagnosticConflict("not semistable but lambda zero")
    return _Reduction(verdict, sections, fil, profile, torus)


def reduction_type(datum: AbelianVarietyDatum) -> ReductionType:
    """Module-theoretic verdict, cross-checked against the rank profile
    when the pairing permits computing one."""
    return _reduction(datum).verdict


# ---------------------------------------------------------------------------
# semistable weight filtration on D(A)

class WeightFiltration:
    """W_-2 = D^t, W_-1 = D^f, W_0 = D(A); homological convention
    (graded weights -2, -1, 0), geometric mirror printed alongside."""

    convention = "homological (geometric mirror: w and -w agree)"

    def __init__(self, ranks: dict, graded: list, sections: list,
                 torus_coordinates: list):
        self.ranks = ranks
        self.graded = graded
        self.sections = sections        # basis of D^f as horizontal sections
        # D^t in D^f coordinates (Fraction vectors)
        self.torus_coordinates = torus_coordinates


def _restricted(phi, flag):
    """phi on the graded pieces of a flag, each (Y, s) for phi = Y / s
    (``_graded``); raises unless phi keeps every subspace."""
    pieces = _graded(*linalg._scaled(phi), flag)
    if pieces is None:
        raise DiagnosticConflict("subspace is not phi-invariant")
    return pieces


def semistable_weight_filtration(datum: AbelianVarietyDatum
                                 ) -> WeightFiltration:
    return _weight_filtration(datum, _reduction(datum))


def _weight_filtration(datum: AbelianVarietyDatum,
                       red: _Reduction) -> WeightFiltration:
    """semistable_weight_filtration, given _reduction(datum)."""
    if red.verdict is ReductionType.NOT_SEMISTABLE:
        raise DiagnosticConflict("weight filtration needs semistability")
    m = datum.module
    q = m.params.q
    sections = red.sections
    rk_f = len(sections)
    if rk_f and datum.pairing is None:
        raise MissingPairing("W_-2 requires the Weil pairing")
    torus = _rational_matrix(red.torus, DiagnosticConflict, "D^t coordinates")
    mu = len(torus)
    ranks = {-2: mu, -1: rk_f, 0: m.rank}
    # the filtration's Phi, with D^f, the log-degree-0 solutions, as its
    # first diagonal block; on a diagonal block the gauge's signs are a
    # similarity by diag(+-1), which keeps the weights
    phi = red.filtration.phi

    def block(lo, hi, what):
        return _rational_matrix([row[lo:hi] for row in phi[lo:hi]],
                                DiagnosticConflict, what)

    phi_f = block(0, rk_f, "Frobenius on D^f")
    # split phi_f along D^t
    restr, quot = _restricted(phi_f, [torus, linalg.identity(rk_f)])

    def report(index, mat, s=1):
        weights = _weights_of(mat, q, FrobeniusKind.GEOMETRIC, s)
        if weights != [Fraction(index)]:
            raise PurityFailure(
                f"Gr_{index} has weights {weights}, expected {index}",
                eigenvalue=weights)
        return GradedReport(index, len(mat), weights, Fraction(index), True)

    graded = [report(k, Y, s) for k, (Y, s) in ((-2, restr), (-1, quot))
              if Y]
    # Gr_0 = D / D^f: the rest of the diagonal
    if m.rank > rk_f:
        graded.append(report(0, block(rk_f, m.rank, "Frobenius on Gr_0")))
    return WeightFiltration(ranks, graded, sections, torus)


def wd_weight_filtration_flags(datum: AbelianVarietyDatum):
    """Images WD(W_k) of the weight filtration inside the WD space,
    together with the monodromy filtration of the extracted N.

    Returns (flags, fil, rep) where flags maps k in {-2, -1, 0} to a basis
    of WD(W_k) in solution coordinates; Thm-shape expectation is
    WD(W_k) = M_{k+1}."""
    red = _reduction(datum)
    wf = _weight_filtration(datum, red)
    _check_frobenius(datum.module)
    # e = 1; the filtration's first rk D^f solutions are the sections of D^f
    rep = _representation(datum.module, red.filtration, 1,
                          FrobeniusKind.GEOMETRIC)
    coords = linalg.identity(rep.dim)[:len(wf.sections)]
    flags = {
        -2: linalg.span_basis(linalg.mat_mul(wf.torus_coordinates, coords)),
        -1: coords,
        0: linalg.identity(rep.dim),
    }
    fil = monodromy_filtration(rep.N)
    return flags, fil, rep


# ---------------------------------------------------------------------------
# weight-monodromy for a single module

def check_weight_monodromy(m: PhiNablaModule, i, m_max: int = 24):
    rep, _trace = wd_extract(m, m_max)
    return quasi_purity_check(rep, i)


# ---------------------------------------------------------------------------
# excision for open curves

class OpenCurveDatum:
    def __init__(self, h1_compact: PhiNablaModule,
                 h0_boundary_twisted: PhiNablaModule,
                 h2_compact: PhiNablaModule, boundary_map: list):
        self.h1_compact = h1_compact
        self.h0_boundary_twisted = h0_boundary_twisted  # H^0(D)(-1)
        self.h2_compact = h2_compact
        self.boundary_map = boundary_map  # matrix H^0(D)(-1) -> H^2(Xbar)

    def validate_equivariance(self):
        F = self.boundary_map
        src, dst = self.h0_boundary_twisted, self.h2_compact
        if dst.rank == 0 or src.rank == 0:
            return
        if src.has_frobenius and dst.has_frobenius:
            lhs = lmat_mul(F, src.A)
            rhs = lmat_mul(dst.A, lmat_sigma(F))
            if not _lmat_eq(lhs, rhs):
                raise NotEquivariant("boundary map is not phi-equivariant")
        if src.has_connection and dst.has_connection:
            lhs = lmat_add(lmat_ddt(F), lmat_mul(dst.G, F))
            rhs = lmat_mul(F, src.G)
            if not _lmat_eq(lhs, rhs):
                raise NotEquivariant("boundary map is not nabla-equivariant")


class ExcisionReport:
    convention = "cohomological, geometric weights"

    def __init__(self, gr1_rank: int, gr2_rank: int, gr1_report: object,
                 gr2_weights: list, ok: bool):
        self.gr1_rank = gr1_rank
        self.gr2_rank = gr2_rank
        self.gr1_report = gr1_report    # PurityReport (quasi-purity at 1)
        self.gr2_weights = gr2_weights
        self.ok = ok


def excision_weight_filtration(c: OpenCurveDatum, m_max: int = 24
                               ) -> ExcisionReport:
    """^gW_1 = image of H^1(Xbar), ^gW_2 = everything; Gr_2 = ker(boundary)
    inside H^0(D)(-1)."""
    c.validate_equivariance()
    h1 = c.h1_compact
    rep1, _ = wd_extract(h1, m_max) if h1.rank else (None, None)
    gr1 = quasi_purity_check(rep1, 1) if rep1 is not None else None

    # kernel of the boundary map: constant by equivariance at desk scale
    gr2_weights = []
    gr2_rank = 0
    if c.h0_boundary_twisted.rank:
        F = _rational_matrix(c.boundary_map, DiagnosticConflict,
                             "boundary map")
        ker = linalg.nullspace(F) if F and F[0] else \
            linalg.identity(c.h0_boundary_twisted.rank)
        gr2_rank = len(ker)
        if gr2_rank:
            A0 = _rational_matrix(c.h0_boundary_twisted.A,
                                  DiagnosticConflict, "H^0(D)(-1) Frobenius")
            Y, s = _restricted(A0, [ker])[0]
            gr2_weights = _weights_of(Y, h1.params.q,
                                      FrobeniusKind.GEOMETRIC, s)
    if gr2_rank and gr2_weights != [Fraction(2)]:
        raise PurityFailure(f"Gr_2 weights {gr2_weights}, expected 2",
                            eigenvalue=gr2_weights)
    return ExcisionReport(h1.rank, gr2_rank, gr1, gr2_weights,
                          gr1 is None or gr1.pure)


# ---------------------------------------------------------------------------
# ell-independence

def ell_independence_check(p_adic: WeilDeligneRep, ell_family,
                           n_max: int = 6):
    return compatibility_family([p_adic] + list(ell_family), n_max)


# ---------------------------------------------------------------------------
# JSON ingestion for the CLI

def abelian_datum_from_json(obj, params=None) -> AbelianVarietyDatum:
    module = module_from_json(obj["module"], params)
    dual = module_from_json(obj["dual_module"], module.params) \
        if obj.get("dual_module") else None
    pairing = None
    if obj.get("pairing"):
        pairing = _json_matrix(
            obj["pairing"], "pairing", module.rank, module.rank,
            partial(LaurentElement.from_json, module.params))
    return AbelianVarietyDatum(module, dual, pairing)


def open_curve_from_json(obj, params=None) -> OpenCurveDatum:
    h1 = module_from_json(obj["h1_compact"], params)
    h0 = module_from_json(obj["h0_boundary_twisted"], h1.params)
    h2 = module_from_json(obj["h2_compact"], h1.params)
    F = _json_matrix(obj["boundary_map"], "boundary_map", h2.rank, h0.rank,
                     partial(LaurentElement.from_json, h1.params))
    return OpenCurveDatum(h1, h0, h2, F)
