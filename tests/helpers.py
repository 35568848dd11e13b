"""Checks and builders shared by several test modules."""

import math
import random
from fractions import Fraction

from phinabla import linalg
from phinabla.errors import NotWeil
from phinabla.modules import GaugeChange, lmat_identity, lmat_mul
from phinabla.series import LaurentElement
from phinabla.weil_deligne import WeilDeligneRep


def count_calls(monkeypatch, module, name, run):
    """Calls of ``module.name`` made by run()."""
    calls = 0
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    run()
    return calls


def laurent_bits(x):
    """Every coefficient as (exponent, v, unit, abs_prec), and the tails."""
    return (sorted((e, c.v, c.unit, c.abs_prec) for e, c in x.coeffs.items()),
            x.tail_pos, x.tail_neg)


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


def field_solve(rows, rhs, zero):
    """Solutions x_j of (rows) x_j = rhs[j] over PadicNumber, one per
    right-hand side column, from one sparse p-adic elimination of
    [rows | rhs] (``linalg._eliminate``), or None if one is inconsistent;
    unknowns without a pivot are ``zero``: the p-adic reference for
    coordinates read off a reduced basis."""
    ncols = len(rows[0]) if rows else 0
    R, pivots = linalg._eliminate(
        [dict(enumerate(list(row) + [b[i] for b in rhs]))
         for i, row in enumerate(rows)], ncols)
    if any(not x.is_zero() for row in R[len(pivots):] for x in row.values()):
        return None
    out = []
    for j in range(ncols, ncols + len(rhs)):
        x = [zero] * ncols
        for row, pc in zip(R, pivots):
            x[pc] = row.get(j, zero)
        out.append(x)
    return out


def product_semisimple(R, roots, remaining):
    """Whether R is semisimple, read as the vanishing of the product of the
    R - lambda over its distinct rational eigenvalues when they are all
    of them: the reference for ``ResidueReport.semisimple``."""
    if remaining is not None:
        return False
    r = len(R)
    prod = linalg.identity(r)
    for lam in set(roots):
        prod = linalg.mat_mul(prod, [[R[i][j] - (lam if i == j else 0)
                                      for j in range(r)] for i in range(r)])
    return all(x == 0 for row in prod for x in row)


def integer_log_depths(R, roots, e):
    """The Levelt depth of each class mod e, the largest Jordan block of R
    at each distinct integer eigenvalue read by the ranks of the powers of
    R - lambda alone: the reference for ``modules._log_depths``."""
    r = len(R)
    depths = [0] * e
    for lam in {x for x in roots if x.denominator == 1}:
        M = [[R[i][j] - (lam if i == j else 0) for j in range(r)]
             for i in range(r)]
        k, power, rk = 1, M, linalg.rank(M)
        while rk > (nxt := linalg.rank(power := linalg.mat_mul(power, M))):
            k, rk = k + 1, nxt
        depths[int(-lam) % e] += k
    return [min(d, r) for d in depths]


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


def dense_lmat_mul(A, B):
    """A B over LaurentElement with every product formed and added, exact
    zeros included: the reference for ``linalg.mat_mul`` and ``mat_vec`` on
    Laurent matrices."""
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



def log_derivative(comps, params):
    """d/d(log t) of sum_d v_d (log t)^d, as Laurent vectors by log degree:
    degree d picks up (d+1) v_{d+1}."""
    depth = len(comps)
    out = []
    for d in range(depth):
        if d + 1 < depth:
            out.append(tuple(x.scale(d + 1) for x in comps[d + 1]))
        else:
            out.append(tuple(LaurentElement.zero(params) for _ in comps[d]))
    return out


def laurent_components(sol, params):
    """The v_d of a log solution as tuples of LaurentElement over params,
    by log degree."""
    return [tuple(LaurentElement(params, x) for x in vd) for vd in sol.vec]


def laurent_coefficients(comps):
    """{(d, i, n): coefficient of t^n in entry i of log degree d} of Laurent
    vectors given by log degree."""
    return {(d, i, n): c for d, vec in enumerate(comps)
            for i, x in enumerate(vec) for n, c in x.coeffs.items()}


def laurent_frobenius_image(m, comps):
    """phi applied to sum_d v_d (log t)^d in LaurentElement arithmetic: A
    sigma(v_d) p^d at log degree d, as Laurent vectors.  sigma(v) and A
    sigma(v) are formed in a window widened to the exponents of A plus p
    times those of v, then cut back to the window, where a term past it is
    a tail: the reference for ``modules._frobenius_image``."""
    params, p = m.params, m.params.p
    exps_a = [e for row in m.A for a in row for e in a.coeffs]
    exps_v = [e for vd in comps for x in vd for e in x.coeffs]
    lo = min(exps_a, default=0) + p * min(exps_v, default=0)
    hi = max(exps_a, default=0) + p * max(exps_v, default=0)
    wide = params._replace(t_window=(max(params.t_window[0], -lo),
                                     max(params.t_window[1], hi)))
    A = [[a.rebase(wide) for a in row] for row in m.A]
    zero = LaurentElement.zero(wide)
    out = []
    for d, vd in enumerate(comps):
        vec = linalg.mat_vec(A, [x.rebase(wide).sigma() for x in vd], zero)
        out.append(tuple(x.scale(p ** d).rebase(params) if d
                         else x.rebase(params) for x in vec))
    return out


def laurent_satisfies(tG, comps) -> bool:
    """Whether sum_d v_d (log t)^d solves D v_d + tG v_d + (d+1) v_{d+1} = 0
    at every log degree, in LaurentElement arithmetic (tG without truncated
    entries): the reference for ``modules._solves``."""
    zero = LaurentElement.zero(tG[0][0].params)
    for d, vd in enumerate(comps):
        for i, tGv in enumerate(linalg.mat_vec(tG, vd, zero)):
            acc = vd[i].D() + tGv
            if d + 1 < len(comps):
                acc = acc + comps[d + 1][i].scale(d + 1)
            if not acc.is_zero():
                return False
    return True

# -- Fraction polynomial reference -------------------------------------------
# Circle counts, Sturm chains and rational roots computed over Fraction, with
# monic remainders: the reference for the integer remainder sequences of
# ``linalg`` and ``weil_deligne``.  Polynomials are coefficient lists,
# low-to-high, without trailing zeros.

def _fraction_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _fraction_derivative(a):
    return [i * a[i] for i in range(1, len(a))]


def _fraction_evaluate(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def fraction_poly_divmod(a, b):
    """Quotient and remainder of a by a non-zero b."""
    a = list(a)
    db = len(b) - 1
    quotient = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        coef = a[i + db] / b[-1]
        quotient[i] = coef
        if coef:
            for j in range(db):
                a[i + j] -= coef * b[j]
    return quotient, _fraction_trim(a[:db])


def _fraction_monic(a):
    lead = a[-1]
    return [x / lead for x in a]


def fraction_poly_gcd(a, b):
    """Monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, fraction_poly_divmod(a, b)[1]
        if b:
            b = _fraction_monic(b)
    return _fraction_monic(a)


def fraction_sturm_chain(a):
    """Sturm chain of the square-free part of a polynomial, [] when it is
    constant."""
    if len(a) < 2:
        return []
    chain = [a, _fraction_derivative(a)]
    while len(chain[-1]) > 1:
        rem = fraction_poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return [fraction_poly_divmod(P, chain[-1])[0] for P in chain]
        chain.append([-x for x in rem])
    return chain


def fraction_sturm_count(chain, lo=None, hi=None):
    """Number of distinct real roots in (lo, hi], None for -+infinity."""
    def variations(x, minus):
        if x is None:
            signs = [(P[-1] > 0) == (not minus or len(P) % 2 == 1)
                     for P in chain]
        else:
            signs = [v > 0 for v in (_fraction_evaluate(P, x) for P in chain)
                     if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(lo, True) - variations(hi, False)


def fraction_rational_roots(coeffs):
    """(rational roots with multiplicity, remaining factor or None) of a
    Fraction polynomial, by Sturm bisection of the monic integer
    polynomial in y = L x."""
    den = math.lcm(*(c.denominator for c in coeffs))
    poly = [int(c * den) for c in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    roots = []
    while poly and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]

    candidates = []
    if len(poly) > 1:
        n = len(poly) - 1
        monic = [Fraction(c, poly[-1]) for c in poly]
        L = math.lcm(*(c.denominator for c in monic))
        g = [c * L ** (n - i) for i, c in enumerate(monic)]
        chain = [[int(x * math.lcm(*(y.denominator for y in P))) for x in P]
                 for P in fraction_sturm_chain(g)]
        bound = 1 + int(max(abs(c) for c in g[:-1]))
        todo = [(-bound, bound)]
        while todo:
            lo, hi = todo.pop()
            if not fraction_sturm_count(chain, lo, hi):
                continue
            if hi - lo > 1:
                todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
            elif _fraction_evaluate(g, hi) == 0:
                candidates.append(Fraction(hi, L))

    for r in candidates:
        while len(poly) > 1 and _fraction_evaluate(poly, r) == 0:
            roots.append(r)
            poly = [int(c) for c in
                    fraction_poly_divmod(poly, [-r, Fraction(1)])[0]]
    remaining = [Fraction(c) for c in poly] if len(poly) > 1 else None
    return roots, remaining


def fraction_root_weights(coeffs, p, f):
    """Distinct weights k/f, |alpha|^2 = p^k, of the roots of a non-constant
    rational polynomial; NotWeil unless every root has one."""
    poly = _fraction_monic(coeffs)
    square_free = fraction_poly_divmod(
        poly, fraction_poly_gcd(poly, _fraction_derivative(poly)))[0]
    if not square_free[0]:
        raise NotWeil("zero eigenvalue")
    return [Fraction(k, f) for k in _fraction_circles(square_free, p)]


def _fraction_circles(poly, p):
    n = len(poly) - 1
    a0 = abs(poly[0])
    k0 = 2 * (math.log(a0.numerator) - math.log(a0.denominator)) / (
        n * math.log(p))
    lo, hi = _fraction_circle_range(poly, p)
    found, placed = [], 0
    for k in sorted(range(lo, hi + 1), key=lambda k: (abs(k - k0), k)):
        if placed == n:
            break
        count = fraction_on_circle(poly, Fraction(p) ** k)
        if count:
            found.append(k)
            placed += count
    if placed < n:
        raise NotWeil("an eigenvalue has |alpha|^2 that is not an "
                      f"integral power of p = {p}")
    return sorted(found)


def fraction_on_circle(poly, c):
    """Number of roots of ``poly`` (monic, square-free) with
    |alpha|^2 = c: the fixed points +-sqrt(c) of alpha -> c/alpha, plus
    2 (real roots of G) - (real roots of g), g = T^m G(T + c/T) the gcd of
    poly with T^n poly(c/T) less those fixed points."""
    n = len(poly) - 1
    g = fraction_poly_gcd(poly, [poly[n - i] * c ** (n - i)
                                 for i in range(n + 1)])
    count = 0
    root = Fraction(math.isqrt(c.numerator), math.isqrt(c.denominator))
    fixed = [[-root, 1], [root, 1]] if root * root == c else [[-c, 0, 1]]
    for factor in fixed:
        quotient, rem = fraction_poly_divmod(g, factor)
        if not rem:
            g, count = quotient, count + len(factor) - 1
    real_roots = lambda h: fraction_sturm_count(fraction_sturm_chain(h))
    return count + 2 * real_roots(_fraction_fold(g, c)) - real_roots(g)


def _fraction_fold(h, c):
    h = list(h)
    m = (len(h) - 1) // 2
    G = [Fraction(0)] * (m + 1)
    for k in range(m, -1, -1):
        a = G[k] = h[m + k]
        if a:
            for i in range(k + 1):
                h[m + 2 * i - k] -= a * math.comb(k, i) * c ** (k - i)
    if any(h):
        raise AssertionError("divisor is not closed under alpha -> c/alpha")
    return G


def _fraction_circle_range(poly, p):
    def log_bound(a):
        n = len(a) - 1
        return math.log(2) + max(
            (math.log(abs(x.numerator)) - math.log(x.denominator)) / (n - i)
            for i, x in enumerate(a[:-1]) if x)

    hi = log_bound(poly)
    lo = -log_bound(_fraction_monic(poly[::-1]))
    logp = math.log(p)
    return math.floor(2 * lo / logp) - 1, math.ceil(2 * hi / logp) + 1
