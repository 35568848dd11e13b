"""Independent brute-force oracles.

Deliberately simple algorithms, implemented separately from the main
kernel so that agreement is evidence: exhaustive point counting, direct
transcription of the monodromy axioms, a Fraction-arithmetic coefficient
recurrence for horizontal sections, and weight certification from scratch.
Nothing here consults the p-adic layers beyond reading exact coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import NotWeil, SingularCurve, Uncertifiable


# ---------------------------------------------------------------------------
# tiny self-contained Fraction linear algebra (kept separate from linalg.py
# on purpose: the oracle must not share code paths with what it checks)

def _rref(rows):
    R = [[Fraction(x) for x in row] for row in rows]
    nr = len(R)
    nc = len(R[0]) if nr else 0
    piv = []
    r = 0
    for c in range(nc):
        hit = next((i for i in range(r, nr) if R[i][c] != 0), None)
        if hit is None:
            continue
        R[r], R[hit] = R[hit], R[r]
        lead = R[r][c]
        R[r] = [x / lead if x else x for x in R[r]]
        for i in range(nr):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y if y else x for x, y in zip(R[i], R[r])]
        piv.append(c)
        r += 1
    return R, piv


def _rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(_rref(rows)[1])


def _in_span(v, vectors):
    if not vectors:
        return all(x == 0 for x in v)
    return _rank(list(vectors)) == _rank(list(vectors) + [v])


def _matvec(M, v):
    return [sum((a * x for a, x in zip(row, v) if a and x), Fraction(0))
            for row in M]


def _matpow(M, k):
    n = len(M)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [[sum((out[i][l] * M[l][j] for l in range(n)), Fraction(0))
                for j in range(n)] for i in range(n)]
    return out


def _det(M):
    R = [[Fraction(x) for x in row] for row in M]
    n = len(R)
    det = Fraction(1)
    for c in range(n):
        hit = next((i for i in range(c, n) if R[i][c] != 0), None)
        if hit is None:
            return Fraction(0)
        if hit != c:
            R[c], R[hit] = R[hit], R[c]
            det = -det
        det *= R[c][c]
        inv = 1 / R[c][c]
        for i in range(c + 1, n):
            if R[i][c] != 0:
                f = R[i][c] * inv
                R[i] = [x - f * y for x, y in zip(R[i], R[c])]
    return det


# ---------------------------------------------------------------------------
# point counting

class CurveCount:
    def __init__(self, q: int, coeffs: tuple, count: int, trace: int,
                 charpoly: tuple):
        assert trace * trace <= 4 * q, "Hasse bound violated - counting bug"
        self.q = q
        self.coeffs = coeffs        # (a1, a2, a3, a4, a6)
        self.count = count
        self.trace = trace          # a = q + 1 - #E(F_q)
        # (1, -a, q) for T^2 - aT + q, low-to-high reversed
        self.charpoly = charpoly


def _discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def count_points_weierstrass(q: int, coeffs) -> CurveCount:
    """Exhaustive count of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    over the prime field F_q."""
    if q > 10 ** 4:
        raise ValueError("q too large for exhaustive counting")
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            raise ValueError(f"q = {q} must be prime")
    a1, a2, a3, a4, a6 = [c % q for c in coeffs]
    if _discriminant(a1, a2, a3, a4, a6) % q == 0:
        raise SingularCurve(f"discriminant vanishes mod {q}")
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
        b = (a1 * x + a3) % q
        for y in range(q):
            if (y * y + b * y - rhs) % q == 0:
                count += 1
    a = q + 1 - count
    return CurveCount(q, (a1, a2, a3, a4, a6), count, a, (q, -a, 1))


# ---------------------------------------------------------------------------
# monodromy axioms, transcribed directly

def verify_monodromy_axioms(N, filtration) -> tuple:
    """(ok, witness).  `filtration` maps k -> basis list; indices outside
    the mapping are read as the nearest extreme (0 below, V above)."""
    N = [[Fraction(x) for x in row] for row in N]
    d = len(N)
    keys = sorted(filtration)
    full_keys = range(keys[0] - 2, keys[-1] + 2)

    def basis(k):
        if k < keys[0]:
            return []
        if k > keys[-1]:
            return list(filtration[keys[-1]])
        return list(filtration[k])

    for k in full_keys:
        for v in basis(k - 1):
            if not _in_span(v, basis(k)):
                return False, ("not increasing", k)
        for v in basis(k):
            if not _in_span(_matvec(N, v), basis(k - 2)):
                return False, ("N M_k not in M_{k-2}", k)
    if len(basis(keys[-1])) != d or _rank(basis(keys[-1])) != d:
        return False, ("top is not everything", keys[-1])
    # graded-piece bijectivity of N^k: Gr_k -> Gr_{-k}
    def graded_rank(k):
        return _rank(basis(k)) - _rank(basis(k - 1))

    top = max(abs(keys[0]), abs(keys[-1])) + 1
    for k in range(1, top + 1):
        gk, gmk = graded_rank(k), graded_rank(-k)
        if gk != gmk:
            return False, ("graded ranks differ", k)
        if gk == 0:
            continue
        Nk = _matpow(N, k)
        # N^k must map M_k onto M_{-k} modulo M_{-k-1}: check rank of
        # images joined with M_{-k-1}
        # surjectivity onto Gr_{-k}; injectivity follows since the graded
        # ranks agree and N^k(M_{k-1}) lands in M_{-k-1} by the first axiom
        img = [_matvec(Nk, v) for v in basis(k)]
        lower = basis(-k - 1)
        if _rank(lower + img) - _rank(lower) != gk:
            return False, ("N^k not bijective on graded piece", k)
    return True, None


def brute_force_filtrations(N, candidates_from=None):
    """All filtrations satisfying the axioms, drawn from sums of
    kernel/image subspaces - exhaustive uniqueness check at small dim."""
    N = [[Fraction(x) for x in row] for row in N]
    d = len(N)
    # candidate subspaces: spans of unions of ker N^a 'intersect' im N^b,
    # realized as all sums of the basic pieces
    pieces = []
    powers = [_matpow(N, k) for k in range(d + 2)]

    def kernel(M):
        R, piv = _rref(M)
        nc = len(M[0]) if M else 0
        free = [c for c in range(nc) if c not in piv]
        out = []
        for fc in free:
            v = [Fraction(0)] * nc
            v[fc] = Fraction(1)
            for r, pc in enumerate(piv):
                v[pc] = -R[r][fc]
            out.append(v)
        return out

    def colspace(M):
        cols = [list(col) for col in zip(*M)]
        R, piv = _rref(cols) if cols else ([], [])
        return [R[i] for i in range(len(piv))]

    def intersect(B1, B2):
        if not B1 or not B2:
            return []
        rows = [list(r1) + [-x for x in r2]
                for r1, r2 in zip(zip(*B1), zip(*B2))]
        out = []
        for v in kernel(rows):
            a = v[:len(B1)]
            w = [sum(ai * B1[i][j] for i, ai in enumerate(a))
                 for j in range(d)]
            if any(w):
                out.append(w)
        R, piv = _rref(out) if out else ([], [])
        return [R[i] for i in range(len(piv))]

    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for a in range(d + 2):
        for b in range(d + 1):
            ka = kernel(powers[a]) if a else []
            ib = colspace(powers[b]) if b else eye
            pieces.append(intersect(ka, ib) if a else ib)
    # all subspaces generated as sums of pieces, deduplicated by rref
    seen = {(): []}
    subs = [[]]
    for piece in pieces:
        new = []
        for s in subs:
            cand = s + piece
            R, piv = _rref(cand) if cand else ([], [])
            key = tuple(tuple(R[i]) for i in range(len(piv)))
            if key not in seen:
                seen[key] = [list(R[i]) for i in range(len(piv))]
                new.append(seen[key])
        subs.extend(new)
    subspaces = list(seen.values())

    results = []
    # search increasing chains indexed on [-d, d]
    def contains(big, small):
        return all(_in_span(v, big) for v in small)

    # depth-first over assignments M_k for k = -d .. d, pruning with the
    # exact axiom N M_k <= M_{k-2} as the chain grows (no completion of a
    # pruned chain could satisfy it, so exhaustiveness is preserved)
    def rec(k, chain):
        if k > d:
            if _rank(chain[-1]) == d:
                fil = {i - d: chain[i] for i in range(len(chain))}
                ok, _w = verify_monodromy_axioms(N, fil)
                if ok:
                    results.append(fil)
            return
        prev = chain[-1] if chain else []
        below = chain[-2] if len(chain) >= 2 else []
        for S in subspaces:
            if not contains(S, prev):
                continue
            if not all(_in_span(_matvec(N, v), below) for v in S):
                continue
            rec(k + 1, chain + [S])

    rec(-d, [])
    # dedupe by the rank sequence and actual spans
    unique = []
    for fil in results:
        if not any(all(_rank(fil[k] + g[k]) == _rank(fil[k]) == _rank(g[k])
                       for k in fil) for g in unique):
            unique.append(fil)
    return unique


# ---------------------------------------------------------------------------
# ODE recurrence

class ODEReport:
    def __init__(self, solutions: list, obstruction_exponents: list):
        self.solutions = solutions  # dict exponent -> Fraction vector
        # rational roots of det(x I + R)
        self.obstruction_exponents = obstruction_exponents


def ode_recurrence_solutions(tG_coeffs, rank, window) -> ODEReport:
    """Horizontal sections by pure Fraction recurrence.

    ``tG_coeffs`` maps integer exponents k to rank x rank Fraction
    matrices, the coefficients of t*G; ``window`` = (lo, hi) exponent
    range searched.  Solves the coefficient equations of (D + tG)v = 0
    and separately reports the exponents at which the residue matrix
    obstructs the recurrence (rational roots of det(xI + R))."""
    from .errors import IrregularSingularity

    lo, hi = window
    if any(k < 0 for k in tG_coeffs):
        raise IrregularSingularity("t*G has a pole: irregular singularity")
    R0 = tG_coeffs.get(0, [[Fraction(0)] * rank for _ in range(rank)])

    # det(x I + R0) by Lagrange interpolation at rank+1 points
    pts = []
    for x in range(rank + 1):
        M = [[R0[i][j] + (x if i == j else 0) for j in range(rank)]
             for i in range(rank)]
        pts.append((Fraction(x), _det(M)))
    dpoly = _interpolate(pts)
    obstructions = _rational_poly_roots(dpoly)

    exps = list(range(lo, hi + 1))
    pos = {n: i for i, n in enumerate(exps)}
    ncols = rank * len(exps)
    rows = []
    maxk = max(tG_coeffs, default=0)
    for i in range(rank):
        for mexp in range(lo, hi + maxk + 1):
            row = [Fraction(0)] * ncols
            used = False
            if mexp in pos:
                row[i * len(exps) + pos[mexp]] += mexp
                used = mexp != 0
            for k, B in tG_coeffs.items():
                n = mexp - k
                if n in pos:
                    for j in range(rank):
                        if B[i][j]:
                            row[j * len(exps) + pos[n]] += B[i][j]
                            used = True
            if used or (mexp in pos):
                rows.append(row)
    R, piv = _rref(rows)
    free = [c for c in range(ncols) if c not in piv]
    sols = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):
            v[pc] = -R[r][fc]
        sol = {}
        for n in exps:
            vec = [v[j * len(exps) + pos[n]] for j in range(rank)]
            if any(vec):
                sol[n] = vec
        sols.append(sol)
    return ODEReport(sols, obstructions)


def _interpolate(points):
    """Lagrange interpolation; coefficients low-to-high."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _yj) in enumerate(points):
            if j == i:
                continue
            basis = _polymul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    return coeffs


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rational_poly_roots(coeffs):
    """All rational roots, with multiplicity, low-to-high coefficients."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    poly = [int(c * den) for c in cs]
    roots = []
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]

    def divisors(n):
        n = abs(n)
        out = set()
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                out.update((d, n // d))
        return sorted(out)

    progress = True
    while progress and len(poly) > 1:
        progress = False
        for num in divisors(poly[0]):
            for dd in divisors(poly[-1]):
                for s in (1, -1):
                    r = Fraction(s * num, dd)
                    acc = Fraction(0)
                    for c in reversed(poly):
                        acc = acc * r + c
                    if acc == 0:
                        roots.append(r)
                        q = [Fraction(0)] * (len(poly) - 1)
                        carry = Fraction(0)
                        for i in range(len(poly) - 1, 0, -1):
                            carry = Fraction(poly[i]) + carry * r
                            q[i - 1] = carry
                        den = 1
                        for c in q:
                            den = den * c.denominator // gcd(
                                den, c.denominator)
                        poly = [int(c * den) for c in q]
                        progress = True
                        break
                if progress:
                    break
            if progress:
                break
    return sorted(roots)


# ---------------------------------------------------------------------------
# algebraic weights

def algebraic_weight(poly, q: int):
    """Weights of all roots of an integer/rational polynomial, one entry
    per root (with multiplicity), relative to q.  Exact for degree <= 2;
    interval-certified numerics above."""
    coeffs = [Fraction(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 0:
        raise ValueError("need a nonconstant polynomial")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError("q must be a prime power")

    def modsq_weight(c):
        if c <= 0:
            raise NotWeil("modulus squared not positive")
        num, den = c.numerator, c.denominator
        k = 0
        while num % p == 0:
            num //= p
            k += 1
        while den % p == 0:
            den //= p
            k -= 1
        if num != 1 or den != 1:
            raise NotWeil(f"{c} is not a power of p")
        return Fraction(k, f)

    # strip rational roots first
    rational = _rational_poly_roots(coeffs)
    weights = []
    rem = coeffs
    for r in rational:
        if r == 0:
            raise NotWeil("zero root")
        weights.append(modsq_weight(r * r))
        # deflate
        n = len(rem) - 1
        qt = [Fraction(0)] * n
        carry = Fraction(0)
        for i in range(n, 0, -1):
            carry = rem[i] + carry * r
            qt[i - 1] = carry
        rem = qt
    deg = len(rem) - 1
    if deg == 0:
        return sorted(weights)
    if deg == 2:
        b = rem[1] / rem[2]
        c = rem[0] / rem[2]
        disc = b * b - 4 * c
        if disc < 0:
            w = modsq_weight(c)
        elif b == 0:
            w = modsq_weight(-c)
        else:
            raise NotWeil("real embeddings of unequal size")
        return sorted(weights + [w, w])
    # numeric with certification
    import mpmath
    with mpmath.workdps(50):
        roots, err = mpmath.polyroots(
            [mpmath.mpf(c.numerator) / c.denominator for c in reversed(rem)],
            maxsteps=100, extraprec=100, error=True)
        # adjacent weights lie (log q) / (2f) apart on log|alpha|, so a
        # root is at most half that from its nearest weight; off by a
        # quarter of that half, it is decidedly off, whatever its size
        margin = mpmath.log(q) / (16 * f)
        uncertain = False
        for root in roots:
            mod = abs(root)
            w2 = 2 * mpmath.log(mod) / mpmath.log(q)
            w = Fraction(round(float(w2 * f)), f)
            target = mpmath.mpf(q) ** (mpmath.mpf(w.numerator)
                                       / (2 * w.denominator))
            if abs(mod - target) <= err + mpmath.mpf("1e-30"):
                weights.append(w)
            elif abs(mpmath.log(mod / target)) < margin:
                uncertain = True
            else:
                raise NotWeil("root modulus is not q^(w/2)")
        if uncertain:
            raise Uncertifiable("interval overlaps decision boundary")
    return sorted(weights)
