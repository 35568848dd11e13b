"""From tame quasi-unipotent (phi, nabla)-modules to Weil-Deligne data.

The pipeline: residue exponents pick the tame cover degree e; after Kummer
pullback the module is unipotent and its log-horizontal solutions
(coefficients in K, finitely many powers of log t) carry a constant
Frobenius, the log-derivative monodromy N, and a mu_e inertia action read
off the t-exponent residue classes.  The log basis comes from the
resonance-driven Frobenius-method solver in `modules` (horizontal sections
are its log-depth-1 case): linear algebra only where det(nI + R) = 0, one
back substitution at every other exponent of the window.  Each residue
class is solved at the log depth the pulled-back residue R allows: the sum
of the largest Jordan blocks of R at its eigenvalues in that class
(Levelt).  Phi and N are read once, as solution coordinates, by the
unipotent filtration of the pullback (`modules._log_filtration`); the
extraction recognises them over Q, and the ExtractionTrace keeps that
filtration.  The level-2 normal form is
the filtration's gauge at e = 1, its first block rotated, with its
constants read off N.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (NonConstantFrobenius, NotLevelTwo, NotTame,
                     WindowTooSmall)
from .modules import (GaugeChange, PhiNablaModule, UnipotentFiltration,
                      _check_untruncated, _log_depths, _log_filtration,
                      _rational_matrix, kummer_pullback, lmat_identity,
                      unipotent_filtration)
from .series import LaurentElement
from .weil_deligne import FrobeniusKind, WeilDeligneRep


class ExtractionTrace:
    """Derivation record surfaced by the CLI: the cover degree and the
    unipotent filtration of the pullback the extraction read."""

    def __init__(self, cover_degree: int, filtration: UnipotentFiltration):
        self.cover_degree = cover_degree
        self.filtration = filtration  # of the pulled-back module
        sols = filtration.solutions
        self.log_degrees = [s.log_degree for s in sols]
        self.residue_classes = [s.residue_class for s in sols]


def log_solution_basis(m: PhiNablaModule, e: int = 1
                       ) -> UnipotentFiltration:
    """The filtration at cover degree e of m without its Frobenius: its
    solutions are the full basis of log-horizontal sections, solved per
    residue class at the log depth the residue's Jordan blocks allow,
    sorted by log degree, then by residue class."""
    fil = _log_filtration(PhiNablaModule(m.params, m.rank, None, m.G,
                                         m.label), e)
    _require_rank(m, e, fil.solutions)
    return fil


def _require_rank(m: PhiNablaModule, e: int, sols):
    """WindowTooSmall unless the solve found rank m log solutions."""
    if len(sols) != m.rank:
        depths = "/".join(map(str, _log_depths(m.residue, e)))
        raise WindowTooSmall(f"found {len(sols)} log solutions at log depth "
                             f"{depths}, expected {m.rank}")


def _check_frobenius(m: PhiNablaModule):
    """WindowTooSmall if the window cuts the Frobenius matrix."""
    if any(a.has_tail() for row in m.A for a in row):
        raise WindowTooSmall("Frobenius matrix truncated; cannot trust "
                             "its image")


# ---------------------------------------------------------------------------
# the extraction

def _tame_cover_degree(m: PhiNablaModule, m_max: int) -> int:
    """The cover degree e: the lcm of the residue exponents' denominators."""
    residue = m.residue
    if residue.unresolved_factor is not None:
        raise NotTame("residue exponents are not all rational")
    dens = [x.denominator for x in residue.exponents]
    for d in dens:
        if d % m.params.p == 0:
            raise NotTame(f"exponent denominator {d} divisible by "
                          f"p = {m.params.p}")
        if d > m_max:
            raise NotTame(f"exponent denominator {d} exceeds m_max={m_max}")
    e = lcm(*dens) if dens else 1
    if e > m_max:
        raise NotTame(f"cover degree {e} exceeds m_max = {m_max}")
    return e


def _canonical_sp2(phi, N):
    """For dim 2 with N of rank 1, (phi, N) with N in the exact E_12 shape.
    In the log basis, log-degree-1 solution last, N is [[0, c], [0, 0]]:
    scaling the first basis vector by c, which commutes with the diagonal
    inertia, divides phi_12 by c and multiplies phi_21 by it."""
    if len(N) != 2 or not N[0][1]:
        return phi, N
    c = N[0][1]
    return ([[phi[0][0], phi[0][1] / c], [phi[1][0] * c, phi[1][1]]],
            [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])


def wd_extract(m: PhiNablaModule, m_max: int = 24,
               frobenius_kind=FrobeniusKind.GEOMETRIC):
    """Weil-Deligne representation of a tame quasi-unipotent module."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    m._require(frobenius=True)
    _check_untruncated(m)   # before a lost term reads as a pole of t G
    e = _tame_cover_degree(m, m_max)
    _check_frobenius(m)
    pulled = kummer_pullback(m, e)  # m itself at e = 1
    fil = _log_filtration(pulled, e)
    _require_rank(pulled, e, fil.solutions)
    rep = _representation(m, fil, e, frobenius_kind)
    return rep, ExtractionTrace(e, fil)


def _representation(m: PhiNablaModule, fil: UnipotentFiltration, e: int,
                    frobenius_kind) -> WeilDeligneRep:
    """The representation of m off the filtration `fil` of its pullback to
    cover degree e: its Phi and N over Q."""
    params = m.params
    # sigma fixes Q, so the a-th power of the p-power Frobenius read on the
    # rational solution coordinates is the linear (q-power) Frobenius
    phi = linalg.mat_pow(_rational_matrix(fil.phi, NonConstantFrobenius,
                                          "induced Frobenius"), params.a)
    N = _rational_matrix(fil.N, NonConstantFrobenius, "monodromy operator")

    inertia_matrix = None
    if e == 2:
        inertia_matrix = [[Fraction((-1) ** s.residue_class if i == j else 0)
                           for j in range(m.rank)]
                          for i, s in enumerate(fil.solutions)]

    phi, N = _canonical_sp2(phi, N)

    if frobenius_kind is FrobeniusKind.ARITHMETIC:
        # the solution-space action computed above is that of geometric
        # Frobenius; the arithmetic one is its inverse
        phi = linalg.mat_inv(phi)

    return WeilDeligneRep(params.q, phi, N, e, inertia_matrix,
                          frobenius_kind, m.label)


def wd_of_cohomology(m: PhiNablaModule, i: int, m_max: int = 24,
                     frobenius_kind=FrobeniusKind.GEOMETRIC):
    """Extraction for a module carrying H^i of a variety; tags the
    result with H^i."""
    rep, trace = wd_extract(m, m_max, frobenius_kind)
    rep.label = f"H^{i}_p({m.label})" if m.label else f"H^{i}_p"
    return rep, trace


# ---------------------------------------------------------------------------
# level-2 normal form

class NormalForm:
    def __init__(self, gauge: GaugeChange, e_block: list, f_block: list,
                 g_block: list, constants: list):
        self.gauge = gauge
        self.e_block = e_block      # basis indices (gauged module), D = 0
        self.f_block = f_block      # remaining horizontal basis indices
        self.g_block = g_block      # level-2 indices
        self.constants = constants  # C over Q, D(g_k) = sum_i C[i][k] e_i


def key2_normal_form(m: PhiNablaModule) -> NormalForm:
    """Gauge a level <= 2 unipotent module so that D kills the first two
    basis blocks and maps the third into the constant span of the first."""
    fil = unipotent_filtration(m)
    if not fil.unipotent:
        raise NotLevelTwo("module is not unipotent")
    if fil.level > 2:
        raise NotLevelTwo(f"unipotence level {fil.level} > 2")
    params = m.params
    if fil.level < 2:
        return NormalForm(fil.gauge, [], list(range(m.rank)), [], [])
    k1, k2 = fil.block_sizes
    # in the gauge D(g_k) = sum_i N_{i, k1+k} e_i: from log degree 1 to 0
    # the gauged t G is N itself
    C = _rational_matrix([row[k1:] for row in fil.N[:k1]],
                         NonConstantFrobenius, "normal-form constant")
    total = fil.gauge
    # rotate the first block so the image span of C comes first
    img = linalg.column_space(C) if k1 and k2 else []
    col_rank = len(img)
    if 0 < col_rank < k1:
        E = linalg.transpose(
            img + linalg._completion(img, linalg.identity(k1)))
        U3 = lmat_identity(params, k1 + k2)
        for i in range(k1):
            for j in range(k1):
                U3[i][j] = LaurentElement.constant(params, E[i][j])
        total = total.compose(GaugeChange(U3))
        C = linalg.mat_mul(linalg.mat_inv(E), C)
    e_block = list(range(col_rank))
    f_block = list(range(col_rank, k1))
    g_block = list(range(k1, k1 + k2))
    return NormalForm(total, e_block, f_block, g_block, C)
