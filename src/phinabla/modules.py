"""(phi, nabla)-modules as matrix pairs over truncated Laurent series.

A module of rank r is given by a Frobenius matrix A (phi(e_j) = sum A_ij e_i,
sigma-semilinear) and a connection matrix G (nabla(e_j) = sum G_ij e_i dt).
Both structures are optional; when both are present the compatibility
residual  dA/dt + G A - p t^(p-1) A sigma(G)  must vanish at precision.

One solver serves horizontal sections and the log-horizontal solutions
sum_d v_d (log t)^d that extraction needs: it solves the coefficient
equations of D + tG (D = t d/dt) at a given log depth, per exponent class
mod a cover degree e, on a capped window checked against its half.  A
horizontal section is a solution of log depth 1 with e = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DiagnosticConflict, IrregularSingularity,
                     MismatchedParams, MissingStructure, NonInvertible,
                     WildCover, WindowTooSmall)
from .linalg import _rational_roots, field_kernel, field_solve
from .padic import PadicNumber, RingMode, RingParams
from .series import LaurentElement

# horizontal-section solves restrict unknown supports to this many exponents
# on each side of 0; results are checked against the full-window equations
SOLVE_WINDOW_CAP = 10


# ---------------------------------------------------------------------------
# Laurent matrix helpers

def lmat_zero(params, n, m=None):
    m = n if m is None else m
    return [[LaurentElement.zero(params) for _ in range(m)] for _ in range(n)]


def lmat_identity(params, n):
    out = lmat_zero(params, n)
    for i in range(n):
        out[i][i] = LaurentElement.one(params)
    return out


def lmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def lmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def lmat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for l in range(k):
                term = A[i][l] * B[l][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def lmat_scale(A, c):
    return [[x * c for x in row] for row in A]


def lmat_map(A, f):
    return [[f(x) for x in row] for row in A]


def lmat_sigma(A):
    return lmat_map(A, lambda x: x.sigma())


def lmat_ddt(A):
    return lmat_map(A, lambda x: x.d_dt())


def lmat_transpose(A):
    return [list(col) for col in zip(*A)]


def lmat_is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def lmat_det(A):
    n = len(A)
    if n == 0:
        return None
    if n == 1:
        return A[0][0]
    # cofactor expansion along the first row; fine at desk-scale ranks
    det = None
    for j in range(n):
        if A[0][j].is_zero():
            continue
        minor = [[A[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = A[0][j] * lmat_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    if det is None:
        det = LaurentElement.zero(A[0][0].params)
    return det


def lmat_inverse(A):
    """Adjugate-over-determinant inverse; exact when det has a terminating
    inverse (e.g. a monomial times a unit)."""
    n = len(A)
    det = lmat_det(A)
    if det is None or det.is_zero() or not det.is_unit():
        raise NonInvertible("matrix determinant is not a unit at precision")
    det_inv = det.inverse()
    if n == 1:
        return [[det_inv]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = lmat_det(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof * det_inv)
        adj.append(row)
    return adj


def kronecker(A, B):
    n1, n2 = len(A), len(B)
    out = []
    for i1 in range(n1):
        for i2 in range(n2):
            row = []
            for j1 in range(n1):
                for j2 in range(n2):
                    row.append(A[i1][j1] * B[i2][j2])
            out.append(row)
    return out


# ---------------------------------------------------------------------------

class PhiNablaModule:
    """Finite free module with optional Frobenius and connection matrices."""

    def __init__(self, params: RingParams, rank: int,
                 frobenius=None, connection=None, label: str = ""):
        self.params = params
        self.rank = rank
        self.A = frobenius
        self.G = connection
        self.label = label
        for M in (self.A, self.G):
            if M is not None:
                if len(M) != rank or any(len(r) != rank for r in M):
                    raise ValueError("matrix shape does not match rank")

    @property
    def has_frobenius(self):
        return self.A is not None

    @property
    def has_connection(self):
        return self.G is not None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational_matrices(cls, params, frobenius=None, connection=None,
                               label=""):
        """Matrices given as nested lists of {exponent: rational} dicts,
        plain rationals (constants), or LaurentElement."""
        def conv(M):
            if M is None:
                return None
            out = []
            for row in M:
                orow = []
                for x in row:
                    if isinstance(x, LaurentElement):
                        orow.append(x)
                    elif isinstance(x, dict):
                        orow.append(LaurentElement.from_terms(
                            params, list(x.items())))
                    else:
                        orow.append(LaurentElement.constant(params, x))
                out.append(orow)
            return out
        A, G = conv(frobenius), conv(connection)
        rank = len(A) if A is not None else len(G)
        return cls(params, rank, A, G, label)

    def with_params(self, params: RingParams) -> "PhiNablaModule":
        conv = lambda M: None if M is None else lmat_map(
            M, lambda x: x.rebase(params))
        return PhiNablaModule(params, self.rank, conv(self.A), conv(self.G),
                              self.label)

    def _require(self, frobenius=False, connection=False):
        if frobenius and not self.has_frobenius:
            raise MissingStructure(f"{self.label or 'module'}: no Frobenius")
        if connection and not self.has_connection:
            raise MissingStructure(f"{self.label or 'module'}: no connection")

    def _check_params(self, other):
        if self.params != other.params:
            raise MismatchedParams("modules over different RingParams")

    def __repr__(self):
        return (f"PhiNablaModule(rank={self.rank}, "
                f"label={self.label!r}, phi={self.has_frobenius}, "
                f"nabla={self.has_connection})")


@dataclass
class CompatibilityReport:
    residual: list
    compatible: bool
    max_residual_valuation: int | None  # None when residual is zero


@dataclass
class GaugeChange:
    """Basis change e'_j = sum U_ij e_i:  A -> U^-1 A sigma(U),
    G -> U^-1 (G U + dU/dt)."""

    U: list

    def inverse(self) -> "GaugeChange":
        return GaugeChange(lmat_inverse(self.U))

    def apply(self, m: PhiNablaModule) -> PhiNablaModule:
        U_inv = lmat_inverse(self.U)
        A = G = None
        if m.has_frobenius:
            A = lmat_mul(U_inv, lmat_mul(m.A, lmat_sigma(self.U)))
        if m.has_connection:
            G = lmat_mul(U_inv, lmat_add(lmat_mul(m.G, self.U),
                                         lmat_ddt(self.U)))
        return PhiNablaModule(m.params, m.rank, A, G, m.label)

    def compose(self, other: "GaugeChange") -> "GaugeChange":
        """Apply self first, then other (U_total = U_self . U_other)."""
        return GaugeChange(lmat_mul(self.U, other.U))


def check_compatibility(m: PhiNablaModule) -> CompatibilityReport:
    """Residual of the Frobenius/connection compatibility diagram."""
    m._require(frobenius=True, connection=True)
    p = m.params.p
    lhs = lmat_add(lmat_ddt(m.A), lmat_mul(m.G, m.A))
    tw = LaurentElement.monomial(m.params, p - 1, p)
    rhs = lmat_scale(lmat_mul(m.A, lmat_sigma(m.G)), tw)
    residual = lmat_sub(lhs, rhs)
    vals = [c.valuation() for row in residual for x in row
            for c in x.coeffs.values()]
    return CompatibilityReport(residual, lmat_is_zero(residual),
                               min(vals) if vals else None)


# -- functorial operations --------------------------------------------------

def tensor(m1: PhiNablaModule, m2: PhiNablaModule) -> PhiNablaModule:
    m1._check_params(m2)
    A = G = None
    if m1.has_frobenius and m2.has_frobenius:
        A = kronecker(m1.A, m2.A)
    if m1.has_connection and m2.has_connection:
        I1 = lmat_identity(m1.params, m1.rank)
        I2 = lmat_identity(m1.params, m2.rank)
        G = lmat_add(kronecker(m1.G, I2), kronecker(I1, m2.G))
    label = f"({m1.label})x({m2.label})" if m1.label or m2.label else ""
    return PhiNablaModule(m1.params, m1.rank * m2.rank, A, G, label)


def dual(m: PhiNablaModule) -> PhiNablaModule:
    A = G = None
    if m.has_frobenius:
        A = lmat_transpose(lmat_inverse(m.A))
    if m.has_connection:
        G = lmat_map(lmat_transpose(m.G), lambda x: -x)
    return PhiNablaModule(m.params, m.rank, A, G,
                          f"({m.label})^dual" if m.label else "")


def tate_twist(m: PhiNablaModule, n: int) -> PhiNablaModule:
    """Twist by R(n): Frobenius scaled by q^-n, connection unchanged."""
    m._require(frobenius=True)
    c = PadicNumber.from_rational(m.params, Fraction(1, m.params.q) ** n)
    A = lmat_map(m.A, lambda x: x.scale(c))
    return PhiNablaModule(m.params, m.rank, A, m.G,
                          f"{m.label}({n})" if m.label else "")


def direct_sum(m1: PhiNablaModule, m2: PhiNablaModule) -> PhiNablaModule:
    m1._check_params(m2)
    r1, r2 = m1.rank, m2.rank
    params = m1.params

    def block(M1, M2):
        if M1 is None or M2 is None:
            return None
        out = lmat_zero(params, r1 + r2)
        for i in range(r1):
            for j in range(r1):
                out[i][j] = M1[i][j]
        for i in range(r2):
            for j in range(r2):
                out[r1 + i][r1 + j] = M2[i][j]
        return out

    return PhiNablaModule(params, r1 + r2, block(m1.A, m2.A),
                          block(m1.G, m2.G),
                          f"({m1.label})+({m2.label})" if m1.label or m2.label
                          else "")


# -- log-horizontal solutions ----------------------------------------------

@dataclass
class LogSolution:
    """One solution sum_d v_d (log t)^d of nabla; v_d are Laurent vectors.
    A horizontal section is the solution of log depth 1 (no log t)."""
    components: list        # index d -> tuple of LaurentElement
    residue_class: int      # exponent class mod e (inertia character)

    @property
    def log_degree(self):
        return max((d for d, v in enumerate(self.components)
                    if any(not x.is_zero() for x in v)), default=0)


def _nabla_kernel(m: PhiNablaModule, tG, depth: int, residue_class: int,
                  e: int, lo: int, hi: int):
    """Solutions sum_{d < depth} v_d (log)^d of
    D v_d + (tG) v_d + (d+1) v_{d+1} = 0 with all exponents congruent to
    residue_class mod e, supported on [lo, hi].

    Unknowns are the coefficients c[d, j, n]; equations come from every
    exponent of the D-form operator that the window determines exactly.
    """
    params = m.params
    r = m.rank
    exps = [n for n in range(lo, hi + 1) if (n - residue_class) % e == 0]
    if not exps:
        return []
    pos = {n: i for i, n in enumerate(exps)}
    ncols = depth * r * len(exps)

    def idx(d, j, n):
        return (d * r + j) * len(exps) + pos[n]

    zero = PadicNumber.zero(params)
    one = PadicNumber.from_rational(params, 1)
    # the operator in D-form: D f + (tG) f, so exponents shift by +1 from G
    tg_exps = [k for row in tG for x in row for k in x.coeffs]
    shift_lo = min([0] + tg_exps)
    shift_hi = max([0] + tg_exps)

    rows = []
    for d in range(depth):
        for i in range(r):
            for mexp in range(lo + shift_lo, hi + shift_hi + 1):
                if (mexp - residue_class) % e != 0:
                    continue
                row = [zero] * ncols
                nontrivial = False
                if mexp in pos and mexp != 0:
                    row[idx(d, i, mexp)] = PadicNumber.from_rational(
                        params, mexp)
                    nontrivial = True
                for j in range(r):
                    for k, c in tG[i][j].coeffs.items():
                        n = mexp - k
                        if n in pos:
                            col = idx(d, j, n)
                            row[col] = row[col] + c
                            nontrivial = True
                if d + 1 < depth and mexp in pos:
                    row[idx(d + 1, i, mexp)] = PadicNumber.from_rational(
                        params, d + 1)
                    nontrivial = True
                if nontrivial:
                    rows.append(row)
    out = []
    for v in field_kernel(rows, zero, one):
        comps = []
        for d in range(depth):
            vec = []
            for j in range(r):
                terms = [(n, v[idx(d, j, n)]) for n in exps
                         if not v[idx(d, j, n)].is_zero()]
                vec.append(LaurentElement.from_terms(params, terms))
            comps.append(tuple(vec))
        out.append(LogSolution(comps, residue_class))
    return out


def _satisfies(tG, sol: LogSolution) -> bool:
    """Whether sol solves the D-form equations at every log degree."""
    comps = sol.components
    r = len(tG)
    for d, vd in enumerate(comps):
        for i in range(r):
            acc = vd[i].D()
            for j in range(r):
                acc = acc + tG[i][j] * vd[j]
            if d + 1 < len(comps):
                acc = acc + comps[d + 1][i].scale(d + 1)
            if not acc.is_zero():
                return False
    return True


def _solve_nabla(m: PhiNablaModule, depth: int, e: int, cap: int):
    """Log solutions of depth `depth`, solved per residue class mod e.

    Each class is solved on the working exponent window (capped to
    [-cap, cap]) and again on its half; WindowTooSmall is raised when the
    two disagree, when a solution fails the full equations, or when G
    itself is truncated.
    """
    m._require(connection=True)
    if any(x.has_tail() for row in m.G for x in row):
        raise WindowTooSmall("connection matrix truncated; cannot trust "
                             "the coefficient equations")
    tG = [[g.shift(1) for g in row] for row in m.G]
    lo = max(m.params.window_lo, -cap)
    hi = min(m.params.window_hi, cap)
    sols = []
    for rcls in range(e):
        found = _nabla_kernel(m, tG, depth, rcls, e, lo, hi)
        half = _nabla_kernel(m, tG, depth, rcls, e, -((-lo) // 2),
                             max(1, hi // 2))
        if len(half) != len(found):
            raise WindowTooSmall("solution space is window-boundary "
                                 "sensitive")
        if not all(_satisfies(tG, s) for s in found):
            raise WindowTooSmall("candidate solution fails the "
                                 "full-window equations")
        sols.extend(found)
    return sols


def horizontal_sections(m: PhiNablaModule, cap: int = SOLVE_WINDOW_CAP):
    """K-basis of ker(nabla) with window-supported entries: the log
    solutions of depth 1.

    Raises WindowTooSmall when the answer changes between the working
    exponent window and its half, or when G itself is truncated.
    """
    return [s.components[0] for s in _solve_nabla(m, 1, 1, cap)]


def _solution_coordinates(basis, target, params):
    """Constants x with sum_k x_k basis_k = target, or None.  Each basis
    element and the target are lists of vectors, one per log degree."""
    coords = set()
    for comps in list(basis) + [target]:
        for d, vec in enumerate(comps):
            for i, x in enumerate(vec):
                coords.update((d, i, n) for n in x.coeffs)
    rows = []
    rhs = []
    for (d, i, n) in sorted(coords):
        rows.append([b[d][i].coefficient(n) for b in basis])
        rhs.append(target[d][i].coefficient(n))
    return field_solve(rows, rhs, PadicNumber.zero(params))


def _frobenius_image(m: PhiNablaModule, comps):
    """phi applied to sum_d v_d (log t)^d: A sigma(v_d) p^d at log degree
    d, since phi(log t) = p log t."""
    p = m.params.p
    out = []
    for d, vd in enumerate(comps):
        svec = [x.sigma() for x in vd]
        vec = []
        for i in range(m.rank):
            acc = None
            for j in range(m.rank):
                term = m.A[i][j] * svec[j]
                acc = term if acc is None else acc + term
            vec.append(acc.scale(Fraction(p) ** d))
        out.append(tuple(vec))
    return out


# -- constant part and unipotence -------------------------------------------

@dataclass
class ConstantSubmodule:
    basis: list          # horizontal sections spanning the submodule
    frobenius: list | None  # induced phi over K (PadicNumber entries)
    rank: int


def largest_constant_submodule(m: PhiNablaModule,
                               cap: int = SOLVE_WINDOW_CAP):
    """Span of ker(nabla) with the induced (constant) Frobenius."""
    basis = horizontal_sections(m, cap)
    return ConstantSubmodule(basis, _constant_frobenius(m, basis),
                             len(basis))


def _constant_frobenius(m: PhiNablaModule, basis):
    """Matrix of phi on the span of the horizontal sections `basis`
    (column j = phi(b_j)), or None without Frobenius or sections."""
    if not (m.has_frobenius and basis):
        return None
    comps = [[b] for b in basis]
    frob = []
    for c in comps:
        x = _solution_coordinates(comps, _frobenius_image(m, c), m.params)
        if x is None:
            raise DiagnosticConflict(
                "phi does not stabilise ker(nabla) at precision")
        frob.append(x)
    return [list(col) for col in zip(*frob)]


@dataclass
class UnipotentFiltration:
    unipotent: bool
    level: int | None = None
    gauge: GaugeChange | None = None
    block_sizes: list | None = None
    gauged_module: PhiNablaModule | None = None


def _complete_basis(params, vectors, rank):
    """Invertible matrix whose first columns are the given vectors."""
    if not vectors:
        return lmat_identity(params, rank), []
    # normalise by unit monomials so pivots are order-zero (LAURENT only)
    normed = []
    for vec in vectors:
        exps = [x.min_exponent() for x in vec if not x.is_zero()]
        shift = min(exps)
        if params.ring_mode is RingMode.LAURENT and shift != 0:
            vec = tuple(x.shift(-shift) for x in vec)
        normed.append(vec)
    # greedy pivot selection with elimination on a scratch copy
    scratch = [list(vec) for vec in normed]
    pivot_rows = []
    for cidx, col in enumerate(scratch):
        choice = None
        for i in range(rank):
            if i in pivot_rows or col[i].is_zero():
                continue
            if not col[i].is_unit():
                continue
            if choice is None or (col[i].min_exponent()
                                  < col[choice].min_exponent()):
                choice = i
        if choice is None:
            raise WindowTooSmall("cannot complete horizontal basis to a "
                                 "module basis at this window")
        pivot_rows.append(choice)
        inv = col[choice].inverse()
        for later in scratch[cidx + 1:]:
            f = later[choice] * inv
            if not f.is_zero():
                for i in range(rank):
                    later[i] = later[i] - col[i] * f
    others = [i for i in range(rank) if i not in pivot_rows]
    U = lmat_zero(params, rank)
    for j, vec in enumerate(normed):
        for i in range(rank):
            U[i][j] = vec[i]
    for j, i in enumerate(others):
        U[i][len(normed) + j] = LaurentElement.one(params)
    det = lmat_det(U)
    if det.is_zero() or not det.is_unit():
        raise WindowTooSmall("completed basis is not invertible at precision")
    return U, normed


def unipotent_filtration(m: PhiNablaModule,
                         cap: int = SOLVE_WINDOW_CAP) -> UnipotentFiltration:
    """Flag with constant graded pieces, or NOT_UNIPOTENT.

    Iterates the largest constant submodule on successive quotients and
    accumulates the gauge exhibiting strictly block-triangular G with zero
    diagonal blocks.
    """
    m._require(connection=True)
    if m.rank == 0:
        return UnipotentFiltration(True, 0, GaugeChange([]), [], m)
    return _unipotent_filtration(m, cap, horizontal_sections(m, cap))


def _unipotent_filtration(m: PhiNablaModule, cap: int,
                          sections: list) -> UnipotentFiltration:
    """``unipotent_filtration`` of a module of positive rank whose
    horizontal sections are already solved."""
    params = m.params
    total_U = lmat_identity(params, m.rank)
    current = m
    offset = 0
    block_sizes = []
    while current.rank > 0:
        if current is not m:
            sections = horizontal_sections(current, cap)
        if not sections:
            return UnipotentFiltration(False)
        U, _ = _complete_basis(params, sections, current.rank)
        gauged = GaugeChange(U).apply(current)
        k = len(sections)
        # sub-basis columns of G must vanish; phi must stabilise the span
        for j in range(k):
            for i in range(current.rank):
                if not gauged.G[i][j].is_zero():
                    raise DiagnosticConflict("gauge failed to flatten the "
                                             "constant sub-basis")
        if gauged.has_frobenius:
            for i in range(k, current.rank):
                for j in range(k):
                    if not gauged.A[i][j].is_zero():
                        raise DiagnosticConflict("constant submodule not "
                                                 "phi-stable at precision")
        # embed U into the total gauge
        r = m.rank
        emb = lmat_identity(params, r)
        for i in range(current.rank):
            for j in range(current.rank):
                emb[offset + i][offset + j] = U[i][j]
        total_U = lmat_mul(total_U, emb)
        block_sizes.append(k)
        offset += k
        A_q = None
        if gauged.has_frobenius:
            A_q = [[gauged.A[i][j] for j in range(k, current.rank)]
                   for i in range(k, current.rank)]
        G_q = [[gauged.G[i][j] for j in range(k, current.rank)]
               for i in range(k, current.rank)]
        current = PhiNablaModule(params, current.rank - k, A_q, G_q, m.label)
    gauge = GaugeChange(total_U)
    return UnipotentFiltration(True, len(block_sizes), gauge, block_sizes,
                               gauge.apply(m))


# -- residue exponents ------------------------------------------------------

@dataclass
class ResidueReport:
    exponents: list            # recognised rational eigenvalues
    semisimple: bool
    matrix: list               # residue matrix over Q (Fractions)
    unresolved_factor: list | None  # charpoly factor without rational roots


def _rational_matrix(M, description="matrix"):
    out = []
    for row in M:
        orow = []
        for x in row:
            try:
                orow.append(x.to_fraction())
            except ValueError:
                raise DiagnosticConflict(
                    f"{description}: entry fails rational recognition")
        out.append(orow)
    return out


def residue_exponents(m: PhiNablaModule) -> ResidueReport:
    """Eigenvalues of the residue matrix R = (t G)|_{t=0}."""
    from . import linalg

    m._require(connection=True)
    params = m.params
    tG = [[g.shift(1) for g in row] for row in m.G]
    for row in tG:
        for x in row:
            if x.min_exponent() is not None and x.min_exponent() < 0:
                raise IrregularSingularity(
                    "connection has a pole of order > 1 at t = 0")
            if x.tail_neg:
                raise IrregularSingularity("negative tail in t*G")
    R_p = [[x.coefficient(0) for x in row] for row in tG]
    R = _rational_matrix(R_p, "residue matrix")
    cp = linalg.charpoly(R)
    roots, remaining = _rational_roots(cp)
    # semisimple on the recognised part: product of (R - lambda) vanishes
    if remaining is None:
        prod = linalg.identity(m.rank)
        for lam in set(roots):
            shifted = [[R[i][j] - (lam if i == j else 0)
                        for j in range(m.rank)] for i in range(m.rank)]
            prod = linalg.mat_mul(prod, shifted)
        semisimple = all(x == 0 for row in prod for x in row)
    else:
        semisimple = False
    return ResidueReport(sorted(roots), semisimple, R, remaining)


# -- Kummer pullback --------------------------------------------------------

def kummer_pullback(m: PhiNablaModule, e: int) -> PhiNablaModule:
    """Base change along t = s^e (tame cover, gcd(e, p) = 1)."""
    if e < 1:
        raise ValueError("cover degree must be positive")
    if e % m.params.p == 0:
        raise WildCover(f"p = {m.params.p} divides e = {e}")
    if e == 1:
        return m
    params = m.params

    def substitute(x: LaurentElement, extra_shift=0, scale=1):
        coeffs = {}
        for k, c in x.coeffs.items():
            ek = e * k + extra_shift
            if ek > params.window_hi or ek < params.window_lo:
                raise WindowTooSmall(
                    f"exponent {k} maps outside the window under t = s^{e}")
            coeffs[ek] = c * scale if scale != 1 else c
        return LaurentElement(params, coeffs, x.tail_pos, x.tail_neg)

    A = G = None
    if m.has_frobenius:
        A = lmat_map(m.A, substitute)
    if m.has_connection:
        G = lmat_map(m.G, lambda x: substitute(x, e - 1, e))
    return PhiNablaModule(params, m.rank, A, G,
                          f"{m.label}|t=s^{e}" if m.label else "")


# -- serialization ----------------------------------------------------------

def module_to_json(m: PhiNablaModule) -> dict:
    mode = ("power_series" if m.params.ring_mode is RingMode.POWER_SERIES
            else "laurent")
    obj = {
        "params": {"p": m.params.p, "precision": m.params.N,
                   "t_window": list(m.params.t_window), "ring_mode": mode,
                   "a": m.params.a},
        "rank": m.rank,
        "label": m.label,
    }
    if m.has_frobenius:
        obj["frobenius"] = [[x.to_json() for x in row] for row in m.A]
    if m.has_connection:
        obj["connection"] = [[x.to_json() for x in row] for row in m.G]
    return obj


def module_from_json(obj: dict, params: RingParams | None = None
                     ) -> PhiNablaModule:
    if params is None:
        pr = obj["params"]
        mode = (RingMode.POWER_SERIES if pr.get("ring_mode") == "power_series"
                else RingMode.LAURENT)
        params = RingParams(pr["p"], pr.get("precision", 20),
                            tuple(pr.get("t_window", (32, 32))), mode,
                            pr.get("a", 1),
                            tuple(pr["modulus"]) if pr.get("modulus") else None)
    rank = obj["rank"]
    conv = lambda M: [[LaurentElement.from_json(params, x) for x in row]
                      for row in M]
    A = conv(obj["frobenius"]) if "frobenius" in obj else None
    G = conv(obj["connection"]) if "connection" in obj else None
    return PhiNablaModule(params, rank, A, G, obj.get("label", ""))
