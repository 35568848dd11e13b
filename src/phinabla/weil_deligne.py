"""Weil-Deligne representations with exact rational matrices.

Everything here is plain linear algebra over Q: a Frobenius lift Phi, a
nilpotent monodromy operator N with Phi N Phi^-1 = q^(+-1) N, an optional
cyclic (tame) inertia generator, the monodromy filtration, and the weight
machinery (purity, quasi-purity, trace-table compatibility of families).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from . import linalg
from .linalg import (_derivative, _fractions, _poly_gcd, _pseudo_divmod,
                     _trim)
from .errors import IrrationalTrace, NonInvertible, NotNilpotent, NotWeil
from .padic import _is_prime


class FrobeniusKind(enum.Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"


def _prime_power(q: int):
    """(p, f) with q = p^f, or ValueError."""
    if isinstance(q, int) and q >= 2:
        for f in range(q.bit_length() - 1, 0, -1):
            p = _int_root(q, f)
            if p ** f == q and _is_prime(p):
                return p, f
    raise ValueError(f"q = {q!r} is not a prime power")


def _int_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class WeilDeligneRep:
    """(Phi, N, inertia) on Q^dim; invariants checked at construction."""

    def __init__(self, q: int, phi, N=None, inertia_order: int = 1,
                 inertia_matrix=None,
                 frobenius_kind: FrobeniusKind = FrobeniusKind.GEOMETRIC,
                 label: str = ""):
        self.q = q
        self.p, self.f = _prime_power(q)
        self.phi = _fractions(phi)
        self.dim = len(self.phi)
        self.N = (_fractions(N) if N is not None
                  else linalg.zeros(self.dim, self.dim))
        self.frobenius_kind = frobenius_kind
        self.inertia_order = inertia_order
        self.inertia_matrix = (_fractions(inertia_matrix)
                               if inertia_matrix is not None else None)
        self.label = label
        self._validate()

    def _validate(self):
        """Shapes first; then the checks over the integers, on Phi = Y / s,
        N = Z / t and the inertia generator T = U / u (``linalg._scaled``),
        read here once and kept for the readers of the rep.  Only T^n = I
        is checked over Q: the powers of T of finite order stay small,
        while U^n grows as u^n."""
        for name, M in (("phi", self.phi), ("N", self.N),
                        ("inertia_matrix", self.inertia_matrix)):
            if M is not None:
                _check_shape(M, name, self.dim, self.dim)
        self.phi_scaled = linalg._scaled(self.phi)
        self.N_scaled = linalg._scaled(self.N)
        self.inertia_scaled = (linalg._scaled(self.inertia_matrix)
                               if self.inertia_matrix is not None else None)
        Y, Z = self.phi_scaled[0], self.N_scaled[0]
        if linalg.rank(Y) < self.dim:
            raise NonInvertible("Phi is singular")
        power = Z       # Z^(2^s), 2^s >= dim, vanishes iff Z^dim does
        for _ in range((self.dim - 1).bit_length()):
            power = linalg.mat_mul(power, power, 0)
        if any(x for row in power for x in row):
            raise NotNilpotent("N is not nilpotent")
        # Phi N Phi^-1 = q^eps N times Phi on the right: q Phi N = N Phi
        # (geometric, eps = -1) or Phi N = q N Phi (arithmetic), that is
        # q Y Z = Z Y or Y Z = q Z Y, the scales s t cancelling
        lhs = linalg.mat_mul(Y, Z, 0)
        rhs = linalg.mat_mul(Z, Y, 0)
        if self.frobenius_kind is FrobeniusKind.GEOMETRIC:
            lhs = linalg.mat_scale(lhs, self.q)
        else:
            rhs = linalg.mat_scale(rhs, self.q)
        if lhs != rhs:
            raise ValueError("Phi N Phi^-1 != q^eps N for the stated "
                             "convention")
        if self.inertia_matrix is not None:
            if linalg.mat_pow(self.inertia_matrix, self.inertia_order) != \
                    linalg.identity(self.dim):
                raise ValueError("inertia generator order mismatch")
            # T N = N T is U Z = Z U for T = U / u
            U = self.inertia_scaled[0]
            if linalg.mat_mul(U, Z, 0) != linalg.mat_mul(Z, U, 0):
                raise ValueError("inertia does not commute with N")

    def __repr__(self):
        return (f"WeilDeligneRep(q={self.q}, dim={self.dim}, "
                f"inertia_order={self.inertia_order}, "
                f"{self.frobenius_kind.value})")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        obj = {
            "q": self.q,
            "dim": self.dim,
            "phi": [[str(x) for x in row] for row in self.phi],
            "N": [[str(x) for x in row] for row in self.N],
            "inertia": {"order": self.inertia_order,
                        "matrix": ([[str(x) for x in row]
                                    for row in self.inertia_matrix]
                                   if self.inertia_matrix else None)},
            "convention": self.frobenius_kind.value,
        }
        if self.label:
            obj["label"] = self.label
        return obj

    @classmethod
    def from_json(cls, obj):
        """Read what ``to_json`` writes.  Malformed input raises TypeError
        or ValueError; a singular Phi stays the domain error NonInvertible.
        """
        if not isinstance(obj, dict):
            raise TypeError("must be a JSON object")
        for key in ("q", "phi"):
            if key not in obj:
                raise ValueError(f'missing "{key}"')
        inertia = obj.get("inertia") or {}
        if not isinstance(inertia, dict):
            raise TypeError('"inertia" must be a JSON object')
        order = inertia.get("order", 1)
        if type(order) is not int or order < 1:
            raise ValueError(f'"inertia.order" = {order!r} is not a '
                             "positive integer")
        conv = obj.get("convention", "geometric")
        if conv not in ("geometric", "arithmetic"):
            raise ValueError(f"unknown convention {conv!r}")
        phi = _matrix_from_json(obj["phi"], "phi")
        return cls(obj["q"], phi,
                   _matrix_from_json(obj.get("N"), "N", len(phi)), order,
                   _matrix_from_json(inertia.get("matrix"),
                                     "inertia.matrix", len(phi)),
                   FrobeniusKind(conv), obj.get("label", ""))


def _matrix_from_json(M, name, dim=None):
    """A dim x dim Fraction matrix (square of any size when dim is None)
    from rows of integers or rational strings; None stays None."""
    if M is None:
        return None
    n = len(M) if dim is None and isinstance(M, list) else dim
    try:
        return _json_matrix(M, name, n, n, lambda x: Fraction(str(x)))
    except ZeroDivisionError:
        raise ValueError(f'"{name}" has an entry with a zero '
                         "denominator") from None


def _json_matrix(M, name, rows, cols, entry):
    """[[entry(x) for x in row] for row in M] for a rows x cols list of
    lists M; TypeError or ValueError naming the member otherwise."""
    if not (isinstance(M, list) and all(isinstance(r, list) for r in M)):
        raise TypeError(f'"{name}" must be a list of rows')
    _check_shape(M, name, rows, cols)
    return [[entry(x) for x in row] for row in M]


def _check_shape(M, name, rows, cols):
    """ValueError naming the matrix unless M has rows rows of cols
    entries each."""
    if len(M) != rows or any(len(row) != cols for row in M):
        raise ValueError(f'"{name}" must be a {rows} x {cols} matrix')


def special_rep(q: int, kind=FrobeniusKind.GEOMETRIC,
                label: str = "sp(2)") -> WeilDeligneRep:
    """The two-dimensional special representation: Phi = diag(1, q) for
    geometric Frobenius, its inverse for arithmetic, N = E_12."""
    c = Fraction(q) if kind is FrobeniusKind.GEOMETRIC else Fraction(1, q)
    phi = [[Fraction(1), Fraction(0)], [Fraction(0), c]]
    N = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    return WeilDeligneRep(q, phi, N, frobenius_kind=kind, label=label)


def twist(rep: WeilDeligneRep, n: int) -> WeilDeligneRep:
    """Tate twist: Phi scaled by q^-n; geometric weights shift by -2n."""
    c = Fraction(1, rep.q) ** n
    return WeilDeligneRep(rep.q, linalg.mat_scale(rep.phi, c), rep.N,
                          rep.inertia_order, rep.inertia_matrix,
                          rep.frobenius_kind,
                          f"{rep.label}({n})" if rep.label else "")


# ---------------------------------------------------------------------------
# monodromy filtration

class MonodromyFiltration:
    def __init__(self, s: int, bases: dict, dim: int):
        self.s = s              # indices run over [-s, s]
        self.bases = bases      # k -> list of basis vectors of M_k
        self.dim = dim

    def basis(self, k):
        if k < -self.s:
            return []
        if k > self.s:
            return self.bases[self.s]
        return self.bases[k]

    def rank(self, k):
        return len(self.basis(k))

    def graded_rank(self, k):
        return self.rank(k) - self.rank(k - 1)


def monodromy_filtration(N) -> MonodromyFiltration:
    """The unique filtration with N M_k in M_{k-2} and
    N^k : Gr_k ~ Gr_{-k} (Deligne, Weil II 1.6): M_k is spanned by the
    Jordan chain vectors of index <= k (``_jordan_chains``, built one
    block length at a time from runs v, Nv, ... of N read as an integer
    matrix, ``linalg._scaled``).  Its bases, Fraction rref rows for k in
    [-s, s], all come from one ``linalg.span_bases`` pass over the chains'
    flag in index order, each chain vector reduced once; they are built
    here for the callers of the filtration, while trace tables and
    quasi-purity read the chain vectors.

    The chains certify the result: when each ends in ker N and their d
    vectors span Q^d (``len(bases[s]) == d``), they are a Jordan basis.
    Then the M_k increase with k, N moves each chain vector from index k
    to k - 2 (or to 0 at the end of its chain), and N^k maps the index-k
    vectors one-to-one onto the index -k ones, so every axiom holds and s
    is the longest length - 1.
    """
    d = len(N)
    _check_shape(N, "N", d, d)
    s, flag = _jordan_chains(linalg._scaled(N)[0])
    bases = dict(enumerate(linalg.span_bases(flag), start=-s))
    if len(bases[s]) != d:
        raise AssertionError("Jordan chains do not form a basis")
    return MonodromyFiltration(s, bases, d)


def _jordan_chains(N):
    """(s, flag) for an integer nilpotent N, flag[s + k] the chain vectors
    of index k: N^j v has index l - 1 - 2j in the chain of head v and
    length l.  Chains are built one length at a time, longest first, in an
    N-stable W, at first Q^d.  Each basis vector b of W is run through N
    (b, Nb, ... to its last non-zero vector; at first b = e_j, and N e_j
    is read as column j of N); l is the longest run.  The runs of length
    l whose ends are independent of those before them (``_pivot_columns``,
    on the ends read at their pivot coordinates, one ``linalg._echelon``) are
    the chains of length l; W becomes the complement of their span, the v
    in W with N^j v zero at those coordinates for j < l (one
    ``linalg._integer_kernel``, in primitive integer vectors).  Runs of
    length 1 are chains.  Callers read a rational N as an integer matrix
    (``linalg._scaled``; a rep keeps that form as ``N_scaled``).
    ``monodromy_filtration`` takes its rref bases from the flag in one
    ``linalg.span_bases`` pass, ``_graded_phi`` reads Phi in it; each
    checks the span.  NotNilpotent for a run longer than d; AssertionError
    unless there are d vectors and each chain ends in ker N."""
    d = len(N)
    basis, images, chains = linalg.identity(d, 1), linalg.transpose(N), []
    while basis:
        runs = [[b] for b in basis]
        for run, v in zip(runs, images):
            while any(v):
                if len(run) == d:
                    raise NotNilpotent("monodromy filtration needs a "
                                       "nilpotent input")
                run.append(v)
                v = linalg.mat_vec(N, v, zero=0)
        l = max(map(len, runs))
        if l == 1:
            chains += runs
            break
        top = [run for run in runs if len(run) == l]
        coords = sorted(linalg._echelon([run[-1] for run in top], d)[0])
        chains += [top[c] for c in linalg._pivot_columns(
            [[run[-1][r] for r in coords] for run in top])]
        if len(basis) == len(coords) * l:       # the chains fill W
            break
        cols = linalg.transpose(basis)
        basis = [linalg._primitive(linalg.mat_vec(cols, c, zero=0))
                 for c in linalg._integer_kernel(
                     [[run[j][r] if j < len(run) else 0 for run in runs]
                      for r in coords for j in range(l)])]
        images = [linalg.mat_vec(N, b, zero=0) for b in basis]
    s = max(map(len, chains), default=1) - 1
    flag = [[] for _ in range(2 * s + 1)]
    for chain in chains:
        for j, v in enumerate(chain):
            flag[s + len(chain) - 1 - 2 * j].append(v)
    if (sum(map(len, chains)) != d
            or any(any(linalg.mat_vec(N, chain[-1], zero=0))
                   for chain in chains)):
        raise AssertionError("Jordan chains do not form a basis")
    return s, flag


def _graded(Z, s, flag):
    """[(Y_k, s_k)]: the matrix Z / s (Z an integer matrix, s a positive
    integer, as ``linalg._scaled`` gives) is Y_k / s_k, Y_k an integer
    matrix and s_k a positive integer, on V_k / V_(k-1), V_k the span of
    flag[0] + ... + flag[k] (V_-1 = 0), in the primitive integer multiples
    of the vectors of flag[k] outside the span of those before them.  One
    ``linalg._echelon`` of [vectors | images] on the vectors' columns, the
    rational insertion step, picks that adapted basis (its pivots, as many
    as the sizes of the Y_k add up to) and gives every coordinate as a
    ratio of pivot-row entries.  None unless Z keeps every V_k: a
    remainder left is an image off the span."""
    vectors = [linalg._primitive(v) for vs in flag for v in vs]
    owner = [k for k, vs in enumerate(flag) for _ in vs]
    n = len(vectors)
    rows, rest = linalg._echelon(linalg.transpose(vectors + [
        linalg.mat_vec(Z, v, zero=0) for v in vectors]), n)
    pivots = sorted(rows)
    R, r = [rows[c] for c in pivots], len(pivots)
    # an image off their span, or with a coordinate on a later piece
    if rest or any(owner[pivots[i]] > owner[j - n] for i in range(r)
                   for j in R[i] if j >= n):
        return None
    out = []
    for k in range(len(flag)):
        rows = [i for i in range(r) if owner[pivots[i]] == k]
        L = math.lcm(*(R[i][pivots[i]] for i in rows))
        out.append(([[R[i].get(n + pivots[j], 0) * (L // R[i][pivots[i]])
                      for j in rows] for i in rows], L * s))
    return out


# ---------------------------------------------------------------------------
# weights

def weight_of_eigenvalue(alpha, q: int,
                         frobenius_kind=FrobeniusKind.GEOMETRIC) -> Fraction:
    """Weight w with |iota(alpha)| = q^(w/2) for every embedding iota.

    ``alpha`` is a rational number, read as the root of T - alpha, or a
    list of rational polynomial coefficients (low-to-high) whose roots are
    the conjugates of alpha.  Exact in every degree: each root is placed
    by exact root counts on the circles |alpha|^2 = p^k
    (``_root_weights``), not by numerics.  Raises NotWeil for a zero root
    and when embeddings have different absolute values.
    """
    p, f = _prime_power(q)
    if isinstance(alpha, (int, Fraction)):
        alpha = [-alpha, 1]
    coeffs = _trim([Fraction(x) for x in alpha])
    if len(coeffs) < 2:
        raise NotWeil("constant polynomial has no roots")
    weights = _root_weights(coeffs, p, f)
    if len(weights) != 1:
        raise NotWeil("embeddings have different absolute values")
    w = weights[0]
    return w if frobenius_kind is FrobeniusKind.GEOMETRIC else -w


def _root_weights(coeffs, p: int, f: int) -> list:
    """Distinct weights k/f, |alpha|^2 = p^k, of the roots of a non-constant
    rational polynomial (low-to-high); NotWeil unless every root has one.

    The polynomial is read as its primitive integer multiple.  Only
    distinct roots matter, so the square-free part is read, circle by
    circle (``_circles``), whatever its degree; a root 0 has no weight.
    """
    poly = linalg._primitive(coeffs)
    square_free = _pseudo_divmod(poly, _poly_gcd(poly, _derivative(poly)))[0]
    if not square_free[0]:
        raise NotWeil("zero eigenvalue")
    return [Fraction(k, f) for k in _circles(square_free, p)]


def _circles(poly, p: int) -> list:
    """The k for which a root of ``poly`` lies on |T|^2 = p^k.

    ``poly`` is a square-free integer polynomial without root 0.  The
    circles allowed by the root bounds are counted exactly by
    ``_on_circle``, nearest k0 = 2 log|a_0 / a_n| / (n log p) first (for
    roots of one weight k0 is that weight, so one count places them all),
    until every root is placed; a root still unaccounted for lies on no
    such circle: NotWeil.  Floating point only orders the circles.
    """
    n = len(poly) - 1
    k0 = 2 * (math.log(abs(poly[0])) - math.log(abs(poly[n]))) / (
        n * math.log(p))
    lo, hi = _circle_range(poly, p)
    found, placed = [], 0
    for k in sorted(range(lo, hi + 1), key=lambda k: (abs(k - k0), k)):
        if placed == n:
            break
        count = _on_circle(poly, Fraction(p) ** k)
        if count:
            found.append(k)
            placed += count
    if placed < n:
        raise NotWeil("an eigenvalue has |alpha|^2 that is not an "
                      f"integral power of p = {p}")
    return sorted(found)


def _on_circle(poly, c: Fraction) -> int:
    """Number of roots of ``poly`` (a square-free integer polynomial) with
    |alpha|^2 = c, for c = u/v > 0.

    The roots are scaled by v: P(T) = v^n poly(T/v) has integer
    coefficients, and its roots beta = v alpha lie on |beta|^2 = C = uv
    exactly when alpha lies on the circle.  A root on that circle has
    conj(beta) = C/beta, so it is a root of g = gcd(P, T^n P(C/T)), whose
    roots are closed under beta -> C/beta.  The fixed points +-sqrt(C) lie
    on the circle; those that divide g are counted and divided out, each
    alone when sqrt(C) is an integer, else both at once as T^2 - C.  What
    is left is g(T) = T^m G(T + C/T): a real root x of G with x^2 < 4C
    gives a conjugate pair on the circle, one with x^2 > 4C two real roots
    off it, a non-real x two non-real roots off it.  Hence the count
    2 (real roots of G) - (real roots of g), plus the fixed points.
    """
    n = len(poly) - 1
    u, v = c.numerator, c.denominator
    C = u * v
    P = [a * v ** (n - i) for i, a in enumerate(poly)]
    g = _poly_gcd(P, [P[n - i] * C ** (n - i) for i in range(n + 1)])
    count = 0
    root = math.isqrt(C)
    fixed = [[-root, 1], [root, 1]] if root * root == C else [[-C, 0, 1]]
    for factor in fixed:
        quotient, rem = _pseudo_divmod(g, factor)
        if not rem:
            g, count = quotient, count + len(factor) - 1
    real_roots = lambda h: linalg._sturm_count(linalg._sturm_chain(h))
    return count + 2 * real_roots(_fold(g, C)) - real_roots(g)


def _fold(h, C: int):
    """G with h(T) = T^m G(T + C/T), for an integer polynomial h of degree
    2m whose roots are closed under beta -> C/beta, C a positive integer
    (uv in ``_on_circle``): G has integer coefficients."""
    h = list(h)
    m = (len(h) - 1) // 2
    G = [0] * (m + 1)
    for k in range(m, -1, -1):
        a = G[k] = h[m + k]
        if a:
            # subtract a T^m (T + C/T)^k
            for i in range(k + 1):
                h[m + 2 * i - k] -= a * math.comb(k, i) * C ** (k - i)
    if any(h):
        raise AssertionError("divisor is not closed under beta -> C/beta")
    return G


def _circle_range(poly, p: int):
    """k range holding every |alpha|^2 = p^k of a root of ``poly`` (an
    integer polynomial without root 0), from Fujiwara's bound on the roots
    and on their inverses, widened by one on each side."""
    def log_bound(a):
        n = len(a) - 1
        lead = math.log(abs(a[n]))
        return math.log(2) + max((math.log(abs(x)) - lead) / (n - i)
                                 for i, x in enumerate(a[:-1]) if x)

    hi = log_bound(poly)
    lo = -log_bound(poly[::-1])
    logp = math.log(p)
    return math.floor(2 * lo / logp) - 1, math.ceil(2 * hi / logp) + 1


class GradedReport:
    def __init__(self, index: int, rank: int, weights: list,
                 expected: Fraction | None, pure: bool,
                 failure: str | None = None):
        self.index = index
        self.rank = rank
        self.weights = weights      # distinct weights found on this piece
        self.expected = expected
        self.pure = pure
        self.failure = failure


class PurityReport:
    def __init__(self, pure: bool, weight: Fraction | None,
                 graded: list | None = None, failure: str | None = None):
        self.pure = pure
        self.weight = weight
        self.graded = [] if graded is None else graded
        self.failure = failure


def _weights_of(M, q, kind, s=1):
    """Distinct weights of the eigenvalues of M / s (M rational, s a
    positive integer), [] for a 0 x 0 M.  The Berkowitz of M in its own
    entries gives det(T - M) = sum c_i T^i; sum c_i s^i T^i has the roots
    of M / s, and integer coefficients when M is an integer matrix."""
    if not M:
        return []
    p, f = _prime_power(q)
    weights = _root_weights([c * s ** i for i, c in
                             enumerate(linalg.charpoly(M, one=1))], p, f)
    return weights if kind is FrobeniusKind.GEOMETRIC else \
        sorted(-w for w in weights)


def purity_check(rep: WeilDeligneRep, i) -> PurityReport:
    """All Phi-eigenvalues of weight i (convention-adjusted), read from
    the integer Berkowitz of Phi = Y / s (the rep's ``phi_scaled``); a rep
    of dimension 0 is pure."""
    i = Fraction(i)
    Y, s = rep.phi_scaled
    try:
        weights = _weights_of(Y, rep.q, rep.frobenius_kind, s)
    except NotWeil as exc:
        return PurityReport(False, None, failure=str(exc))
    if weights in ([], [i]):
        return PurityReport(True, i)
    return PurityReport(False, i, failure=f"weights found: {weights}")


def quasi_purity_check(rep: WeilDeligneRep, i) -> PurityReport:
    """Each monodromy-graded piece Gr_k pure of weight i + k, read from the
    integer Berkowitz of Phi on Gr_k (``_graded_phi``)."""
    i = Fraction(i)
    graded = []
    for k, Y, s in _graded_phi(rep):
        try:
            weights = _weights_of(Y, rep.q, rep.frobenius_kind, s)
            failure = None if weights == [i + k] else "wrong weight"
        except NotWeil as exc:
            weights, failure = [], str(exc)
        graded.append(GradedReport(k, len(Y), weights, i + k,
                                   failure is None, failure))
    return PurityReport(all(g.pure for g in graded), i, graded)


def _graded_phi(rep: WeilDeligneRep) -> list:
    """[(k, Y_k, s_k)] for the non-zero pieces Gr_k of the monodromy
    filtration, Phi being Y_k / s_k on Gr_k (``_graded``) in the index-k
    Jordan chain vectors (``_jordan_chains``), an adapted basis; no rref
    basis is built.  Phi and N are read in the integer forms the rep keeps
    (``phi_scaled``, ``N_scaled``).  AssertionError unless the chains span
    Q^d, checked first; then IrrationalTrace if Phi does not respect the
    filtration."""
    s, flag = _jordan_chains(rep.N_scaled[0])
    pieces = _graded(*rep.phi_scaled, flag)
    if rep.dim != (sum(len(Y) for Y, _ in pieces) if pieces is not None
                   else linalg.rank([v for vs in flag for v in vs])):
        raise AssertionError("Jordan chains do not form a basis")
    if pieces is None:
        raise IrrationalTrace("Phi does not respect the monodromy "
                              "filtration")
    return [(k, Y, t) for k, (Y, t) in enumerate(pieces, start=-s) if Y]


# ---------------------------------------------------------------------------
# family compatibility

class FamilyReport:
    def __init__(self, compatible: bool, tables: list,
                 witness: tuple | None, depth: int):
        self.compatible = compatible
        self.tables = tables        # one {key: Fraction} per member
        self.witness = witness      # (member index, key, value, reference)
        self.depth = depth          # largest n read on any graded piece


def trace_table(rep: WeilDeligneRep, n_max: int) -> dict:
    """(k, n) -> Tr(Phi^n | Gr_k^M) for n <= max(n_max, dim Gr_k), where
    the traces fix the characteristic polynomial of Phi on Gr_k (Newton's
    identities), plus inertia traces when present.  Phi on Gr_k, and the
    inertia generator, are read as Y / s over the integers (``_graded``,
    the rep's ``inertia_scaled``)."""
    table = {}
    for k, Y, s in _graded_phi(rep):
        _add_traces(table, k, Y, s, max(n_max, len(Y)))
    if rep.inertia_order > 1 and rep.inertia_matrix is not None:
        Y, s = rep.inertia_scaled
        _add_traces(table, "inertia", Y, s, rep.inertia_order - 1)
    return table


def _add_traces(table, key, Y, s, n_max):
    """table[key, n] = Tr (Y / s)^n = Tr Y^n / s^n for n = 1..n_max, Y an
    integer matrix: Newton's identities in integers, a_i being the
    coefficient of T^(d-i) in det(T I - Y) (0 for i > d)."""
    a = linalg.charpoly(Y, one=1)[::-1] + [0] * n_max
    tr = [0]
    for n in range(1, n_max + 1):
        tr.append(-n * a[n] - sum(a[i] * tr[n - i] for i in range(1, n)))
        table[key, n] = Fraction(tr[n], s ** n)


def compatibility_family(reps, n_max: int = 6) -> FamilyReport:
    """COMPATIBLE iff every member has the inertia order of the first and
    the identical trace table, each graded piece read deep enough to fix
    its characteristic polynomial.  The order is compared on its own, as
    a member may state it without an inertia matrix."""
    tables = [trace_table(r, n_max) for r in reps]
    depth = max([n_max] + [key[1] for tab in tables for key in tab
                           if key[0] != "inertia"])
    for idx, rep in enumerate(reps[1:], start=1):
        if rep.inertia_order != reps[0].inertia_order:
            return FamilyReport(False, tables,
                                (idx, ("inertia", "order"),
                                 rep.inertia_order, reps[0].inertia_order),
                                depth)
    ref = tables[0] if tables else {}
    for idx, tab in enumerate(tables[1:], start=1):
        keys = sorted(set(ref) | set(tab), key=str)
        for key in keys:
            a, b = ref.get(key), tab.get(key)
            if a != b:
                return FamilyReport(False, tables, (idx, key, b, a), depth)
    return FamilyReport(True, tables, None, depth)
