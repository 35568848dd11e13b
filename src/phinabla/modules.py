"""(phi, nabla)-modules as matrix pairs over truncated Laurent series.

A module of rank r is given by a Frobenius matrix A (phi(e_j) = sum A_ij e_i,
sigma-semilinear) and a connection matrix G (nabla(e_j) = sum G_ij e_i dt).
Both structures are optional; when both are present the compatibility
residual  dA/dt + G A - p t^(p-1) A sigma(G)  must vanish at precision.

One solver serves horizontal sections and the log-horizontal solutions
sum_d v_d (log t)^d that extraction needs.  For a regular-singular
connection (t G a power series with residue R) it runs the Frobenius
method: the coefficient blocks obey a recurrence that needs linear algebra
only at the resonances, the integers n with det(nI + R) = 0, and one back
substitution at every other exponent.  It returns the solutions supported
in the exponent window, per residue class mod a cover degree e.  A
horizontal section is a solution of log depth 1 with e = 1.

A solution is kept as the solver's coefficient dicts.  Its full-window
check, log derivative and Frobenius image A sigma(v) p^d are formed on
them, the image exactly: no window cuts a product.  The unipotent
filtration is the flag of log degrees of the solutions at e = 1.  It holds
Phi and N, the solution coordinates of the Frobenius image and of the log
derivative; the log-degree-0 components, signed by log degree, are a basis
in which the module is constant, built when read.  Run on the Kummer
pullback at its cover degree, this one read gives the Weil-Deligne
extraction its Phi and N too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (DiagnosticConflict, IrregularSingularity,
                     MismatchedParams, MissingStructure, NonInvertible,
                     WildCover, WindowTooSmall)
from . import linalg
from .linalg import _eliminate, _rational_roots, field_kernel
from .padic import PadicNumber, RingParams
from .series import LaurentElement

# ---------------------------------------------------------------------------
# Laurent matrix helpers

def lmat_identity(params, n):
    return linalg.identity(n, LaurentElement.one(params))


def lmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def lmat_mul(A, B):
    if not A:
        return []
    return linalg.mat_mul(A, B, LaurentElement.zero(A[0][0].params))


def lmat_map(A, f):
    return [[f(x) for x in row] for row in A]


def lmat_sigma(A):
    return lmat_map(A, lambda x: x.sigma())


def lmat_ddt(A):
    return lmat_map(A, lambda x: x.d_dt())


def lmat_is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def _charpoly(A):
    """(det(T I - W), det A, W) for n = len(A) >= 1, W = A over a window n
    times as wide as its exponents: no product of up to n entries is cut."""
    params, n = A[0][0].params, len(A)
    exps = [n * e for row in A for x in row for e in x.coeffs] + [0]
    lo, hi = params.t_window
    window = (max(lo, -min(exps)), max(hi, max(exps)))
    wide = params if window == (lo, hi) else params._replace(t_window=window)
    W = lmat_map(A, lambda x: x.rebase(wide))
    chi = linalg.charpoly(W, LaurentElement.one(wide))
    return chi, (-chi[0] if n % 2 else chi[0]).rebase(params), W


def lmat_det(A):
    return _charpoly(A)[1] if A else None


def lmat_inverse(A):
    """adj A / det A, exact when det A has a terminating inverse.  The
    adjugate is (-1)^(n-1) sum_{k=1}^n c_k A^(k-1) (Cayley-Hamilton)."""
    n = len(A)
    if not n:
        return []
    chi, det, W = _charpoly(A)
    if not det.is_unit():
        raise NonInvertible("matrix determinant is not a unit at precision")
    adj = lmat_identity(W[0][0].params, n)  # Horner from c_n = 1 down
    for c in chi[n - 1:0:-1]:
        adj = lmat_mul(W, adj)
        for i in range(n):
            adj[i][i] = adj[i][i] + c
    # times det^-1 in the wide window: it may bring adj terms back inside
    s = (det.inverse() if n % 2 else -det.inverse()).rebase(W[0][0].params)
    return lmat_map(adj, lambda x: (x * s).rebase(det.params))


def kronecker(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


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


class CompatibilityReport:
    def __init__(self, residual: list, compatible: bool,
                 max_residual_valuation: int | None):
        self.residual = residual
        self.compatible = compatible
        # None when residual is zero
        self.max_residual_valuation = max_residual_valuation


class GaugeChange:
    """Basis change e'_j = sum U_ij e_i:  A -> U^-1 A sigma(U),
    G -> U^-1 (G U + dU/dt)."""

    def __init__(self, U: list):
        self.U = U

    def inverse(self) -> "GaugeChange":
        return GaugeChange(lmat_inverse(self.U))

    def apply(self, m: PhiNablaModule) -> PhiNablaModule:
        """m in the basis e'_j = sum U_ij e_i."""
        U, U_inv = self.U, lmat_inverse(self.U)
        A = G = None
        if m.has_frobenius:
            A = lmat_mul(U_inv, lmat_mul(m.A, lmat_sigma(U)))
        if m.has_connection:
            G = lmat_mul(U_inv, lmat_add(lmat_mul(m.G, U), lmat_ddt(U)))
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
    rhs = lmat_mul(m.A, lmat_sigma(m.G))
    residual = [[a - b * tw for a, b in zip(ra, rb)]
                for ra, rb in zip(lhs, rhs)]
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
        A = linalg.transpose(lmat_inverse(m.A))
    if m.has_connection:
        G = lmat_map(linalg.transpose(m.G), lambda x: -x)
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
    zero = LaurentElement.zero(params)

    def block(M1, M2):
        if M1 is None or M2 is None:
            return None
        return ([list(row) + [zero] * r2 for row in M1]
                + [[zero] * r1 + list(row) for row in M2])

    return PhiNablaModule(params, r1 + r2, block(m1.A, m2.A),
                          block(m1.G, m2.G),
                          f"({m1.label})+({m2.label})" if m1.label or m2.label
                          else "")


# -- log-horizontal solutions ----------------------------------------------

class LogSolution:
    """One solution sum_d v_d (log t)^d of nabla, as the solver's
    coefficients vec[d][i] = {n: x} of t^n in entry i of v_d.  A horizontal
    section is the solution of log depth 1 (no log t)."""

    def __init__(self, vec: list, residue_class: int):
        self.vec = vec                      # d -> i -> {n: PadicNumber}
        self.residue_class = residue_class  # exponent class mod e (inertia)
        self.log_degree = max((d for d, vd in enumerate(vec) if any(vd)),
                              default=0)

    def section(self, params):
        """v_0 as a tuple of LaurentElement over params."""
        return tuple(LaurentElement(params, x) for x in self.vec[0])


def _solve_nabla(m: PhiNablaModule, depth, e: int, residue=None):
    """Log solutions supported in the window, solved per residue class mod
    e at log depth `depth`, or with None at the depth _log_depths gives
    each class.  `residue` is _residue(m) when the caller has read it, and
    then m has passed _check_untruncated."""
    if residue is None:
        _check_untruncated(m)
        residue = _residue(m)
    depths = [depth] * e if depth is not None else _log_depths(residue, e)
    # det(nI + R) = 0 exactly at the integers n = -lambda
    resonances = sorted({-int(x) for x in residue.exponents
                         if x.denominator == 1})
    return [sol for rcls in range(e)
            for sol in _solve_class(m.params, residue.tG, residue.matrix,
                                    resonances, depths[rcls], rcls, e)]


def _check_untruncated(m: PhiNablaModule):
    """WindowTooSmall if the window cuts t G: G has a tail or a t^hi term."""
    m._require(connection=True)
    if any(g.has_tail() or m.params.window_hi in g.coeffs
           for row in m.G for g in row):
        raise WindowTooSmall("connection matrix truncated; cannot trust "
                             "the coefficient equations")


def _log_depths(residue, e):
    """The log depth each residue class c mod e needs (Levelt): the sum,
    over the distinct integer eigenvalues lambda of R with -lambda = c mod
    e, of the largest Jordan block of R at lambda."""
    depths = [0] * e
    for lam, k in residue.largest_blocks.items():
        if lam.denominator == 1:
            depths[int(-lam) % e] += k
    return depths


def _solve_class(params, tG, R, resonances, depth, rcls, e):
    """Solutions sum_{d < depth} v_d (log t)^d of
    D v_d + (tG) v_d + (d+1) v_{d+1} = 0 with exponents = rcls mod e in
    the window, by the Frobenius method: the blocks w_n = (v_{d,n})_d obey
    L_n w_n = -sum_{k>0} T_k w_{n-k} (T_k the t^k coefficient of tG, L_n
    block-triangular with nI + R on the diagonal, (d+1) I beside it).
    From the lowest resonance (det(nI + R) = 0) in the window, each block
    of the family {(d r + j, n): x} is the kernel of [L_n | -rhs of the
    live members]: new parameters and consistency at a resonance, a back
    substitution elsewhere.  At the window top the live combinations must
    vanish beyond it; those that cannot are followed as far again, and
    WindowTooSmall names the window that holds one that ends there.  The
    vanishing ones come as the reduced basis of their span, unknowns
    ordered by (d, j, n), which _solution_coordinates relies on: each
    solution is 1 at its pivot, its largest coordinate with a term, where
    no other solution has a term, and they come in the order of that
    coordinate.  Each is checked against the full-window equations on its
    coefficients (_solves)."""
    r, hi = len(tG), params.window_hi
    res = [n for n in resonances
           if n >= params.window_lo and (n - rcls) % e == 0]
    if not r or not res or res[0] > hi:
        return []
    zero, one = PadicNumber.zero(params), PadicNumber.from_rational(params, 1)
    size = depth * r
    cols = {}       # (k, j) -> [(i, -T_k[i][j])] for k > 0 inside the class
    for i, row in enumerate(tG):
        for j, x in enumerate(row):
            for k, c in x.coeffs.items():
                if k > 0 and k % e == 0:
                    cols.setdefault((k, j), []).append((i, -c))
    s = max((k for k, _ in cols), default=0)

    def rhs(mem, n):
        out = {}
        for (idx, m), x in mem.items():
            for i, c in cols.get((n - m, idx % r), ()):
                key = idx - idx % r + i
                out[key] = out[key] + c * x if key in out else c * x
        return {key: x for key, x in out.items() if not x.is_zero()}

    def live(family, n):
        return any(m + s >= n for mem in family for _, m in mem)

    def step(family, n, fresh=True):
        heads = [(mem, h) for mem in family for h in (rhs(mem, n),) if h]
        if not heads and n not in res:
            return family
        rows = [[zero] * (size + len(heads)) for _ in range(size)]
        for d in range(depth):
            for i in range(r):
                row = rows[d * r + i]
                for j in range(r):
                    if R[i][j] or (i == j and n):
                        row[d * r + j] = PadicNumber.from_rational(
                            params, R[i][j] + (n if i == j else 0))
                if d + 1 < depth:
                    row[(d + 1) * r + i] = PadicNumber.from_rational(
                        params, d + 1)
                for b, (_, h) in enumerate(heads):
                    row[size + b] = -h.get(d * r + i, zero)
        out = [mem for mem in family if all(mem is not x for x, _ in heads)]
        for v in field_kernel(rows, one):
            new = _combine((heads[c - size][0], x)
                           for c, x in v.items() if c >= size)
            if fresh or new:
                new.update(((c, n), x) for c, x in v.items()
                           if c < size and not x.is_zero())
            if new:
                out.append(new)
        return out

    def vanishing(family, n):
        """The reduced basis, as {(idx, m): x} dicts, of the combinations
        zero from block n on: one elimination of the rows [tails |
        coordinates], tail columns first and coordinates descending; the
        rows whose pivot is a coordinate, that pivot set to one."""
        tails = [{(t, key): x for t, m in enumerate(range(n, n - e + s + 1, e))
                  for key, x in rhs(mem, m).items()} for mem in family]
        tcol = {key: c for c, key in enumerate(
            sorted({key for tail in tails for key in tail}))}
        width = len(tcol)
        coords = sorted({key for mem in family for key in mem}, reverse=True)
        col = {key: c for c, key in enumerate(coords, width)}
        rows = [{tcol[key]: x for key, x in tail.items()}
                | {col[key]: x for key, x in mem.items()}
                for tail, mem in zip(tails, family)]
        reduced, pivots = _eliminate(rows, width + len(coords))
        basis = []
        for row, pc in zip(reduced, pivots):
            if pc >= width:
                row[pc] = one
                basis.append({coords[c - width]: x for c, x in row.items()
                              if c >= width and not x.is_zero()})
        return basis

    family, n, last = [], res[0], max(x for x in res if x <= hi)
    while n <= hi and (n <= last or live(family, n)):
        family = step(family, n)
        n += e
    kept = vanishing(family, n)
    if len(kept) < len(family):
        while n <= 2 * hi - res[0] + s and live(family, n):
            family = step(family, n, fresh=False)
            n += e
        ended = vanishing(family, n)
        if len(ended) > len(kept):
            top = max(m for sol in ended for _, m in sol)
            raise WindowTooSmall(f"a solution runs to t^{top}, past the "
                                 f"window top t^{hi}; --t-window {top} "
                                 "holds it")
    out = []
    for sol in reversed(kept):
        vec = [[{} for _ in range(r)] for _ in range(depth)]
        for (idx, m), x in sol.items():
            vec[idx // r][idx % r][m] = x
        if not _solves(tG, vec, params):
            raise WindowTooSmall("candidate solution fails the "
                                 "full-window equations")
        out.append(LogSolution(vec, rcls))
    return out


def _combine(terms):
    """sum c mem over the (mem, c) pairs, zero entries dropped."""
    out = {}
    for mem, c in terms:
        for key, x in mem.items():
            out[key] = out[key] + x * c if key in out else x * c
    return {key: x for key, x in out.items() if not x.is_zero()}


def _solves(tG, vec, params):
    """Whether the solution with coefficients vec[d][i] = {n: x} solves
    D v_d + tG v_d + (d+1) v_{d+1} = 0 in the window, with the verdict of
    LaurentElement arithmetic: as a LaurentElement does, a coefficient
    zero at precision is dropped, bound and all, from tG v_d (_apply), D
    v_i, (d+1) v_{d+1,i} and each sum these join.  Dropping acts per
    exponent, as the window does, so the window is read once, at the end."""
    lo, hi = params.window_lo, params.window_hi
    for d, vd in enumerate(vec):
        for i, acc in enumerate(_apply(tG, vd)):
            acc = _plus(acc, {n: c * n for n, c in vd[i].items() if n})
            if d + 1 < len(vec):
                acc = _plus(acc, {n: c * (d + 1)
                                  for n, c in vec[d + 1][i].items()})
            if any(lo <= n <= hi for n in acc):
                return False
    return True


def _apply(M, v):
    """M v on coefficient dicts v_j = {n: x}, with no window: as in
    LaurentElement arithmetic, a coefficient zero at precision is dropped
    from each product M_ij v_j (j ascending) and each partial sum."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in M:
        acc = {}
        for j, x in nz:
            prod = {}
            for e1, c1 in row[j].coeffs.items():
                for e2, c2 in x.items():
                    e = e1 + e2
                    prod[e] = prod[e] + c1 * c2 if e in prod else c1 * c2
            acc = _plus(acc, prod)
        out.append(acc)
    return out


def _plus(a, b):
    """a + b on {n: x} without zeros at precision, b's dropped first."""
    if not b:
        return a
    out = dict(a)
    for n, x in b.items():
        if not x.is_zero():
            out[n] = out[n] + x if n in out else x
    return {n: x for n, x in out.items() if not x.is_zero()}


def horizontal_sections(m: PhiNablaModule, cap=None):
    """K-basis of ker(nabla) with window-supported entries: the log
    solutions of depth 1.  The window of m.params is the only bound;
    `cap`, the former solve-window cap, is accepted and has no effect."""
    return [s.section(m.params) for s in _solve_nabla(m, 1, 1)]


def _solution_coordinates(bases, targets, params, conflict):
    """M_ij, the constant x_j[i] with sum_i x_j[i] basis_i = target_j, or
    DiagnosticConflict(conflict) if a target leaves the span: x_j[i] is
    target_j at the pivot of the reduced basis_i (_solve_class), and
    target_j - sum_i x_j[i] basis_i must vanish at precision.  Vectors are
    flat dicts {(d, i, n): x} (_coefficients, _frobenius_image)."""
    zero = PadicNumber.zero(params)
    pivots = [max(b) for b in bases]
    cols = []
    for t in targets:
        rest = dict(t)
        x = [rest.get(key, zero) for key in pivots]
        for b, c in zip(bases, x):
            if not c.is_zero():
                for key, y in b.items():
                    rest[key] = rest[key] - c * y if key in rest else -(c * y)
        if any(not y.is_zero() for y in rest.values()):
            raise DiagnosticConflict(conflict)
        # a zero x_j[i] also reads as rest / basis_i where basis_i has terms
        cols.append([c if not c.is_zero() else PadicNumber.zero(params, max(
            [c.abs_prec] + [rest[key].abs_prec - y.v for key, y in b.items()
                            if key in rest])) for b, c in zip(bases, x)])
    return [list(row) for row in zip(*cols)]


def _coefficients(sol: LogSolution):
    """{(d, i, n): coefficient of t^n in entry i of log degree d}."""
    return {(d, i, n): c for d, vd in enumerate(sol.vec)
            for i, x in enumerate(vd) for n, c in x.items()}


def _frobenius_image(m: PhiNablaModule, sol: LogSolution):
    """phi of sum_d v_d (log t)^d, A sigma(v_d) p^d at log degree d since
    phi(log t) = p log t, formed exactly (_apply): its terms {(d, i, n): x}.
    WindowTooSmall if it runs past the window, by a term outside it or by
    a tail of A in a column where v_d has a term."""
    params, p, terms = m.params, m.params.p, {}
    for d, vd in enumerate(sol.vec):
        scale = PadicNumber.from_rational(params, p ** d)
        for i, x in enumerate(_apply(m.A, [{p * n: c.sigma() for n, c in
                                            x.items()} for x in vd])):
            terms.update(((d, i, n), y) for n, c in x.items()
                         if not (y := c * scale if d else c).is_zero())
    if any(not params.window_lo <= n <= params.window_hi
           for _, _, n in terms) or any(
            vd[j] for row in m.A for j, a in enumerate(row) if a.has_tail()
            for vd in sol.vec):
        raise WindowTooSmall("induced Frobenius: an image runs past the "
                             "window; its coordinates cannot be read")
    return terms


# -- constant part and unipotence -------------------------------------------

class ConstantSubmodule:
    def __init__(self, basis: list, frobenius: list | None, rank: int):
        self.basis = basis          # horizontal sections spanning it
        self.frobenius = frobenius  # induced phi over K (PadicNumber entries)
        self.rank = rank


def largest_constant_submodule(m: PhiNablaModule):
    """Span of ker(nabla) with the induced (constant) Frobenius: column j
    is phi(b_j), None without Frobenius or sections.  WindowTooSmall if
    phi(b_j) runs past the window, as in unipotent_filtration."""
    sols = _solve_nabla(m, 1, 1)
    frob = None
    if m.has_frobenius and sols:
        frob = _solution_coordinates(
            [_coefficients(s) for s in sols],
            [_frobenius_image(m, s) for s in sols], m.params,
            "phi does not stabilise ker(nabla) at precision")
    return ConstantSubmodule([s.section(m.params) for s in sols],
                             frob, len(sols))


class UnipotentFiltration:
    """The flag of log degrees d_j of the log solutions Z_j, sorted by log
    degree, then residue class; unipotent when there are rank of them.

    Then `phi` (None without a Frobenius) and `N` hold, over K, the
    solution coordinates of the Frobenius image and of the log derivative:
    column j is the image of Z_j.  The gauge columns (-1)^(d_j) v_0(Z_j)
    make the module constant: since D v_0 + t G v_0 = -v_1 and A sigma(v_0)
    = v_0(phi Z), the gauged module has A'_ij = (-1)^(d_i + d_j) Phi_ij and
    t G'_ij = -(-1)^(d_i + d_j) N_ij.  The gauge and the gauged module are
    built when read, and are None unless unipotent."""

    def __init__(self, module: PhiNablaModule, solutions: list,
                 phi: list | None = None, N: list | None = None):
        self.module = module
        self.solutions = solutions  # log basis, by log degree and class
        self.unipotent = len(solutions) == module.rank
        self.phi, self.N = phi, N
        degrees = [s.log_degree for s in solutions]
        self.block_sizes = ([degrees.count(d) for d in range(
            max(degrees, default=-1) + 1)] if self.unipotent else None)
        self.level = len(self.block_sizes) if self.unipotent else None

    def _signed(self, M, exponent, negate):
        """(-1)^(negate + d_i + d_j) M_ij t^exponent."""
        odd = [s.log_degree % 2 for s in self.solutions]
        return [[LaurentElement(self.module.params, {exponent: -c if (
            negate + odd[i] + odd[j]) % 2 else c})
            for j, c in enumerate(row)] for i, row in enumerate(M)]

    @property
    def gauge(self) -> GaugeChange | None:
        if self.unipotent:
            v0 = [s.section(self.module.params) for s in self.solutions]
            return GaugeChange([[-x if s.log_degree % 2 else x
                                 for x, s in zip(row, self.solutions)]
                                for row in zip(*v0)])

    @property
    def gauged_module(self) -> PhiNablaModule | None:
        if self.unipotent:
            m = self.module
            A = None if self.phi is None else self._signed(self.phi, 0, 0)
            return PhiNablaModule(m.params, m.rank, A,
                                  self._signed(self.N, -1, 1), m.label)


def unipotent_filtration(m: PhiNablaModule) -> UnipotentFiltration:
    """Flag with constant graded pieces, or NOT_UNIPOTENT: the flag of log
    degrees of the log solutions at e = 1."""
    return _log_filtration(m, 1)


def _log_filtration(m: PhiNablaModule, e: int,
                    residue=None) -> UnipotentFiltration:
    """The filtration read off the log solutions at cover degree e, given
    _residue(m) when the caller has read it (see _solve_nabla); Phi and N
    are read when there are rank solutions.  WindowTooSmall if an image
    runs past the window, DiagnosticConflict if one leaves the span."""
    sols = sorted(_solve_nabla(m, None, e, residue),
                  key=lambda s: (s.log_degree, s.residue_class))
    if len(sols) != m.rank:
        return UnipotentFiltration(m, sols)
    bases = [_coefficients(s) for s in sols]
    phi = None
    if m.has_frobenius:
        phi = _solution_coordinates(
            bases, [_frobenius_image(m, s) for s in sols], m.params,
            "constant submodule not phi-stable at precision")
    # the log derivative of sum_d v_d (log t)^d: d v_d at log degree d - 1
    N = _solution_coordinates(
        bases, [{(d - 1, i, n): y for (d, i, n), x in b.items()
                 if d and not (y := x * d).is_zero()} for b in bases],
        m.params, "log derivative leaves the solution span at precision")
    return UnipotentFiltration(m, sols, phi, N)


# -- residue exponents ------------------------------------------------------

class ResidueReport:
    """The residue read of a connection: t G, its residue R = (t G)|_{t=0}
    over Q, the rational eigenvalues of R sorted, with multiplicity, and the
    factor of det(T I - R) they leave (None when it splits over Q).  The
    Jordan structure of R is read when asked (`largest_blocks`)."""

    def __init__(self, tG: list, matrix: list, exponents: list,
                 unresolved_factor: list | None):
        self.tG = tG
        self.matrix = matrix        # residue matrix over Q (Fractions)
        self.exponents = exponents  # recognised rational eigenvalues
        # charpoly factor without rational roots
        self.unresolved_factor = unresolved_factor

    @cached_property
    def largest_blocks(self) -> dict:
        """_jordan_blocks of R at its rational eigenvalues, read once."""
        return _jordan_blocks(self.matrix, self.exponents)

    @property
    def semisimple(self) -> bool:
        """R splits over Q with 1x1 Jordan blocks."""
        return self.unresolved_factor is None and all(
            k == 1 for k in self.largest_blocks.values())


def _jordan_blocks(R, eigenvalues):
    """{lambda: the largest Jordan block of R at lambda} over the distinct
    eigenvalues given: the least k with rank (R - lambda)^k = rank (R -
    lambda)^(k+1), read over the integers as the ranks of the powers of
    Y - s lambda, R = Y / s (``linalg._scaled``)."""
    Y, s = linalg._scaled(R)
    r, out = len(R), {}
    for lam in sorted(set(eigenvalues)):
        # lambda is an eigenvalue of Y / s, so s lambda, a rational root
        # of the monic integer det(T I - Y), is an integer
        shift = (s * lam).numerator
        M = [[Y[i][j] - (shift if i == j else 0) for j in range(r)]
             for i in range(r)]
        k, power, rk = 1, M, linalg.rank(M)
        while rk > (nxt := linalg.rank(
                power := linalg.mat_mul(power, M, 0))):
            k, rk = k + 1, nxt
        out[lam] = k
    return out


def _rational_matrix(M, error_cls, what):
    """M over Q by rational recognition of its PadicNumber or constant
    LaurentElement entries; error_cls names the entry that fails."""
    out = []
    for row in M:
        orow = []
        for x in row:
            if isinstance(x, LaurentElement):
                if not x.is_constant():
                    raise error_cls(f"{what} is not constant")
                x = x.coefficient(0)
            try:
                orow.append(x.to_fraction())
            except ValueError:
                raise error_cls(f"{what} fails rational recognition at "
                                "precision") from None
        out.append(orow)
    return out


def _residue(m: PhiNablaModule) -> ResidueReport:
    """The residue read of m (ResidueReport); IrregularSingularity unless t G
    is a power series."""
    m._require(connection=True)
    tG = [[g.shift(1) for g in row] for row in m.G]
    for row in tG:
        for x in row:
            if x.min_exponent() is not None and x.min_exponent() < 0:
                raise IrregularSingularity(
                    "connection has a pole of order > 1 at t = 0")
            if x.tail_neg:
                raise IrregularSingularity("negative tail in t*G")
    R = _rational_matrix([[x.coefficient(0) for x in row] for row in tG],
                         DiagnosticConflict, "residue matrix")
    # det(T I - R) = sum c_i T^i / s^(n-i), c_i those of Y = s R
    Y, s = linalg._scaled(R)
    n = len(Y)
    roots, remaining = _rational_roots(
        [Fraction(c, s ** (n - i))
         for i, c in enumerate(linalg.charpoly(Y, one=1))])
    return ResidueReport(tG, R, sorted(roots), remaining)


def residue_exponents(m: PhiNablaModule) -> ResidueReport:
    """The residue read of m: the eigenvalues of R = (t G)|_{t=0}."""
    return _residue(m)


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
    obj = {
        "params": {"p": m.params.p, "precision": m.params.N,
                   "t_window": list(m.params.t_window), "a": m.params.a},
        "rank": m.rank,
        "label": m.label,
    }
    if m.params.modulus is not None:
        obj["params"]["modulus"] = list(m.params.modulus)
    if m.has_frobenius:
        obj["frobenius"] = [[x.to_json() for x in row] for row in m.A]
    if m.has_connection:
        obj["connection"] = [[x.to_json() for x in row] for row in m.G]
    return obj


def _ring_from_json(pr) -> RingParams:
    """The ring of a JSON "params" object; its ring_mode must be "laurent"."""
    if not isinstance(pr, dict):
        raise TypeError('"params" must be a JSON object')
    if pr.get("ring_mode", "laurent") != "laurent":
        raise ValueError(f'params.ring_mode = {pr["ring_mode"]!r}: only '
                         '"laurent" (the Laurent window model) is supported')
    return RingParams(pr["p"], pr.get("precision", 20),
                      tuple(pr.get("t_window", (32, 32))), pr.get("a", 1),
                      tuple(pr["modulus"]) if pr.get("modulus") else None)


def module_from_json(obj: dict, params: RingParams | None = None
                     ) -> PhiNablaModule:
    """The module of ``obj``, over ``params`` when given, else over the
    ring of ``obj["params"]``, which is read and checked whenever there."""
    rank = obj["rank"]
    if type(rank) is not int:
        raise TypeError(f'"rank" = {rank!r} is not an integer')
    if params is None or "params" in obj:
        ring = _ring_from_json(obj["params"])
        params = params or ring
    conv = lambda M: [[LaurentElement.from_json(params, x) for x in row]
                      for row in M]
    A = conv(obj["frobenius"]) if "frobenius" in obj else None
    G = conv(obj["connection"]) if "connection" in obj else None
    return PhiNablaModule(params, rank, A, G, obj.get("label", ""))
