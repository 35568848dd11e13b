"""Small exact linear algebra kernels.

Matrices are lists of rows: rational ones (Fraction or int entries) for the
Weil-Deligne layer, PadicNumber ones for the nabla solver, LaurentElement
ones for the modules.  ``identity``, ``mat_mul``, ``mat_vec`` and
``charpoly`` need only ring +, * and a truth value, so they serve every
entry type: an exact zero, with no term and no tail, is falsy and skipped,
and a PadicNumber is always truthy (a zero at precision keeps the abs_prec
a product must see).  ``charpoly`` divides by nothing; every determinant,
inverse and trace table of the package is read from it.

Exact elimination has two sparse Gauss-Jordan loops, one per coefficient
type.  Rational rows (int or Fraction entries) go through one
fraction-free insertion step, ``_insert``, as in Bareiss (1968) with gcd
steps: each vector, as its primitive integer multiple, is reduced against
the pivot rows with ``_combine``, the row update (p/g) row - (f/g) pivot
row, g = gcd(p, f), divided by its content; its first entry before
``ncols``, if any, becomes a pivot and is cleared from the other pivot
rows.  The pivot rows are primitive multiples of the rows of the unique
reduced row echelon form, and every rational view reads only what that
form fixes: ``_echelon`` runs the step over one matrix, and ``rank``,
``_pivot_columns`` and ``_completion`` read its pivot columns,
``_integer_kernel`` and its view ``nullspace`` ratios of pivot-row
entries, ``solve`` and ``mat_inv`` each pivot row over its pivot (Fraction
entries even for int input), and a non-zero remainder is only tested for.
The flag pass ``span_bases`` inserts blocks of vectors in order, giving
the rref after each block; ``span_basis`` and ``column_space`` are its
one-block views, and ``weil_deligne.monodromy_filtration`` reads
every M_k from one pass over the Jordan chains' flag.  ``weil_deligne``'s
Jordan chains read their ends' pivot coordinates with ``_echelon``, pick
heads with ``_pivot_columns`` and complements with ``_integer_kernel``,
and ``_graded`` reads Phi on the graded pieces from one ``_echelon``.
``_scaled`` reads a rational matrix as an integer one over the lcm of its
denominators.  PadicNumber rows go through ``_eliminate``, which takes
them as ``{col: element}`` dicts, pivots each column on the entry of
smallest valuation and divides by it.  ``field_kernel`` is its view on a
dense matrix and returns each kernel vector in the same sparse form: the
entries the elimination fixes, an absent entry being an exact zero.
``modules._solve_class`` runs ``_eliminate`` once on its dict rows
[tails | coordinates] at the window top, reading the solutions whose
tails vanish and their reduced basis from the same elimination.  The
systems it solves are mostly sparse: zero input entries count as absent,
as in LaurentElement, and non-zero p-adic entries never carry less
precision than a dense elimination with the same pivots gives.

Polynomials are integer coefficient lists and every remainder sequence
(gcds, square-free parts, Sturm chains, the rational roots of
``_rational_roots``) runs through one sign-preserving pseudo-division,
``_pseudo_divmod``, over Z[T].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# matrices over a ring

def identity(n, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(A, B, zero=Fraction(0)):
    """A B, skipping zero entries; every sum starts from ``zero``, so
    int matrices with ``zero=0`` give an int product."""
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for l in range(k):
            a = Ai[l]
            if a:
                row = out[i]
                for j, b in enumerate(B[l]):
                    if b:
                        row[j] += a * b
    return out


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def mat_vec(A, v, zero=Fraction(0)):
    """A v, skipping zero entries; every sum starts from ``zero``."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in A:
        acc = zero
        for j, x in nz:
            a = row[j]
            if a:
                acc += a * x
        out.append(acc)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_pow(A, k):
    """A^k for k >= 0 by repeated squaring; A^0 is the identity.  No
    product with the identity, no square past the top bit of k."""
    out, base = None, A
    while k:
        if k & 1:
            out = _fractions(base) if out is None else mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return identity(len(A)) if out is None else out


def rank(A):
    if not A or not A[0]:
        return 0
    return len(_echelon(A, len(A[0]))[0])


def nullspace(A):
    """Basis of the right kernel (list of column vectors as lists): the
    ``_integer_kernel`` vectors over their free entry, the last non-zero."""
    return [[Fraction(x, lead) for x in v] for v in _integer_kernel(A)
            for lead in [next(x for x in reversed(v) if x)]]


def _integer_kernel(A):
    """The primitive integer multiples of the ``nullspace`` vectors, read
    off the fraction-free pivot rows of one ``_echelon``: for a free column, L
    there and -x (L // p) at the pivot column of each row with pivot p and
    entry x in it, L the lcm of those p, then divided by the gcd."""
    if not A:
        return []
    ncols = len(A[0])
    R = _echelon(A, ncols)[0]
    basis = []
    for fc in sorted(set(range(ncols)) - R.keys()):
        rows = [(pc, row[pc], row[fc]) for pc, row in R.items()
                if fc in row]
        L = lcm(*(p for _, p, _ in rows))
        v = [0] * ncols
        v[fc] = L
        for pc, p, x in rows:
            v[pc] = -x * (L // p)
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def column_space(A):
    """Basis of the column space, as a list of column vectors."""
    return span_basis(transpose(A))


def span_basis(vectors):
    """Reduce a spanning set to a basis, the rows of its rref: the one-block
    case of ``span_bases``."""
    return span_bases([vectors])[0]


def span_bases(blocks):
    """The rref bases of the spans of blocks[0], blocks[0] + blocks[1], ...
    (lists of rational vectors of one length), one per block, from one
    fraction-free Gauss-Jordan pass in flag order: each block is inserted
    (``_insert``) into the pivot rows of the blocks before it, so each
    vector is reduced once.  After each block the pivot rows, in pivot
    order and divided by their pivots, are the reduced row echelon form of
    the span so far.  Only the rows the block added or changed are
    converted to Fractions; a block that adds no pivot row gives the basis
    before it again.
    """
    rows, reduced, bases, basis = {}, {}, [], []
    zero = Fraction(0)
    for block in blocks:
        ncols = len(block[0]) if block else 0
        touched = _insert(rows, block, ncols)[0]
        for pc in touched:
            prow, row = rows[pc], [zero] * ncols
            p = prow[pc]
            for j, x in prow.items():
                row[j] = Fraction(x, p)
            reduced[pc] = row
        if touched:
            basis = [reduced[c] for c in sorted(rows)]
        bases.append(basis)
    return bases


def solve(A, rhs):
    """Solutions x_j of A x_j = rhs[j], one per right-hand side column, from
    one elimination of [A | rhs]; None if one of them is inconsistent.
    Unknowns without a pivot are set to 0."""
    ncols = len(A[0]) if A else 0
    R, rest = _echelon([list(row) + [b[i] for b in rhs]
                        for i, row in enumerate(A)], ncols)
    if rest:                    # a remainder left is 0 = b
        return None
    out = []
    for j in range(ncols, ncols + len(rhs)):
        x = [Fraction(0)] * ncols
        for pc, row in R.items():
            x[pc] = Fraction(row.get(j, 0), row[pc])
        out.append(x)
    return out


def _pivot_columns(vectors):
    """Pivot columns of the matrix with columns ``vectors``: the positions
    of the vectors outside the span of the ones before them (one
    ``_echelon`` of its rows)."""
    return sorted(_echelon(transpose(vectors), len(vectors))[0])


def _completion(known, cand):
    """The vectors of ``cand`` outside the span of ``known`` and of the
    candidates before them, in order (one elimination of [known | cand])."""
    n = len(known)
    return [cand[c - n] for c in _pivot_columns(list(known) + list(cand))
            if c >= n]


def _scaled(mat):
    """(Y, s) with mat = Y / s: s the lcm of the denominators of the
    rational matrix mat (1 when it has none), Y = s mat an integer
    matrix."""
    s = lcm(*{x.denominator for row in mat for x in row})
    if s == 1:
        return [[x.numerator for x in row] for row in mat], 1
    return [[x.numerator * (s // x.denominator) for x in row]
            for row in mat], s


def _primitive(v):
    """The primitive integer multiple of a rational vector: scaled by the
    lcm of its denominators, then divided by the gcd of its entries (the
    zero vector stays zero)."""
    try:
        g = gcd(*v)                     # int entries
    except TypeError:                   # Fraction entries
        den = lcm(*[x.denominator for x in v])
        v = [x.numerator * (den // x.denominator) for x in v]
        g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def mat_inv(A):
    cols = solve(A, identity(len(A)))
    return None if cols is None else transpose(cols)


def charpoly(A, one=Fraction(1)):
    """det(T*I - A), low-to-high, over any commutative ring (Fraction by
    default) by Berkowitz's recursion (1984): ring +, * and negation only,
    O(n^4), no product with a falsy factor (an exact zero, with no term
    and no tail, is falsy).  The leading block [[A_k, c], [r, a]] of size
    k + 1 multiplies the polynomial of A_k by the Toeplitz matrix of 1, -a,
    -r c, -r A_k c, ..., -r A_k^(k-1) c."""
    zero = one - one

    def dot(u, v, acc=None):
        for x, y in zip(u, v):
            if x and y:
                acc = x * y if acc is None else acc + x * y
        return zero if acc is None else acc

    chi = []    # coefficients of T^0 .. T^(k-1); the leading 1 is implicit
    for k in range(len(A)):
        x = [r[k] for r in A[:k]]
        t = [zero - A[k][k]]    # zero - a, not -a: Fractions for int input
        for j in range(k):
            x = [dot(r, x) for r in A[:k]] if j else x
            t.append(zero - dot(A[k], x))
        chi = [dot(t, chi[m:], t[k - m] + chi[m - 1] if m else t[k])
               for m in range(k + 1)]
    return chi + [one]


# Polynomials over Z are integer coefficient lists, low-to-high, without
# trailing zeros; [] is the zero polynomial.  Only their roots and signs are
# read, so every remainder and quotient is kept as its primitive positive
# multiple (``_pseudo_divmod``): the primitive remainder sequences of Collins
# (1967), with no Fraction arithmetic.

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _derivative(a):
    return [i * a[i] for i in range(1, len(a))]


def _pseudo_divmod(a, b):
    """Sign-preserving pseudo-division of integer polynomials, b != 0:
    (q, r), positive multiples of the quotient and remainder of a by b over
    Q, each divided by its content.  Each step multiplies by |lc(b)| / g,
    g the gcd of lc(b) and the coefficient it cancels.  r = [] exactly
    when b divides a, and q is then a / b times a positive rational."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = []
    while len(r) > db:
        lead = r.pop()
        g = gcd(lead, lb)
        m, f = abs(lb) // g, (lead if lb > 0 else -lead) // g
        if m > 1:
            r = [m * x for x in r]
            q = [m * x for x in q]
        if f:
            shift = len(r) - db
            for j in range(db):
                r[shift + j] -= f * b[j]
        q.append(f)
    return _primitive(q[::-1]), _primitive(_trim(r))


def _poly_gcd(a, b):
    """Primitive gcd, up to sign, of integer polynomials not both zero."""
    while b:
        a, b = b, _pseudo_divmod(a, b)[1]
    return _primitive(a)


def _evaluate(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sturm_chain(a):
    """Sturm chain of the square-free part of an integer polynomial, []
    when it is constant: the chain of a and a' divided through by
    gcd(a, a'), so that no two neighbours vanish together, not even at a
    multiple root.  Each member is a positive multiple of the one over Q,
    so the sign variations are the same."""
    if len(a) < 2:
        return []
    chain = [a, _derivative(a)]
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return [_pseudo_divmod(P, chain[-1])[0] for P in chain]
        chain.append([-x for x in rem])
    return chain


def _sturm_count(chain, lo=None, hi=None):
    """Number of distinct real roots in (lo, hi] of the polynomial with
    Sturm chain ``chain``, None standing for -infinity and +infinity (zero
    values are skipped, so an endpoint may be a root)."""
    def variations(x, minus):
        if x is None:
            signs = [(P[-1] > 0) == (not minus or len(P) % 2 == 1)
                     for P in chain]
        else:
            signs = [v > 0 for v in (_evaluate(P, x) for P in chain) if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(lo, True) - variations(hi, False)


def _rational_roots(coeffs):
    """Rational roots (with multiplicity) of a Fraction polynomial given
    low-to-high; returns (roots, remaining factor), the factor with integer
    coefficients and None when it is constant.

    The polynomial is scaled to integers a_i, and y = L x (L the lcm of
    the denominators of a_i / a_n) gives the monic integer polynomial
    a_i L^(n-i) / a_n, whose rational roots are integers: its real roots
    are isolated inside the Cauchy bound by Sturm bisection down to width
    1 and the integers among them tested.  Each root r = u/v found is
    divided out as vT - u, and the quotient rescaled to the leading
    coefficient of the dividend, which keeps the factor the integral
    a / (T - r).
    """
    den = lcm(*(c.denominator for c in coeffs))
    poly = _trim([c.numerator * (den // c.denominator) for c in coeffs])
    roots = []
    while poly and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]

    candidates = []
    if len(poly) > 1:
        n, lead = len(poly) - 1, poly[-1]
        L = lcm(*(lead // gcd(c, lead) for c in poly))
        g = [c * L ** (n - i) // lead for i, c in enumerate(poly)]
        chain = _sturm_chain(g)
        bound = 1 + max(abs(c) for c in g[:-1])
        todo = [(-bound, bound)]
        while todo:
            lo, hi = todo.pop()
            if not _sturm_count(chain, lo, hi):
                continue
            if hi - lo > 1:
                todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
            elif _evaluate(g, hi) == 0:
                candidates.append(Fraction(hi, L))

    for r in candidates:
        while len(poly) > 1:
            quotient, rem = _pseudo_divmod(poly, [-r.numerator,
                                                  r.denominator])
            if rem:
                break
            roots.append(r)
            poly = [c * (poly[-1] // quotient[-1]) for c in quotient]
    remaining = [Fraction(c) for c in poly] if len(poly) > 1 else None
    return roots, remaining


# ---------------------------------------------------------------------------
# exact elimination

def _fractions(A):
    """Fresh row lists of Fractions; Fraction entries are kept as they are
    (immutable, so sharing them is safe), others converted."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in A]


def _echelon(vectors, ncols):
    """(rows, rest): the fraction-free Gauss-Jordan elimination of rational
    ``vectors`` on their first ``ncols`` entries, one ``_insert`` into no
    pivot rows.  ``rows`` maps each pivot column to its pivot row, a
    primitive integer dict; ``rest`` is whether a non-zero remainder, a
    vector of the span zero on those entries, was dropped."""
    rows = {}
    return rows, _insert(rows, vectors, ncols)[1]


def _insert(rows, vectors, ncols):
    """Insert rational vectors into the pivot rows ``rows`` ({pivot column:
    integer row dict}, zeros dropped), the one rational elimination step.

    Each vector, as its primitive integer multiple, is reduced with
    ``_combine`` against the pivot row of each pivot where it has an entry;
    a pivot row is zero at the other pivots, so these entries are all it
    meets.  The first entry before ``ncols`` of what is left becomes a
    pivot, and its column is cleared from the other pivot rows with
    ``_combine`` again; a non-zero remainder with no entry there is
    dropped.  When none was dropped, the pivot rows are primitive multiples
    of the rows of the reduced row echelon form, unique whatever the order
    of insertion.  Returns the pivot columns of the rows added or changed,
    and whether a non-zero remainder was dropped.
    """
    touched, rest = set(), False
    for v in vectors:
        w = {c: x for c, x in enumerate(_primitive(v)) if x}
        for c in rows.keys() & w.keys():
            prow = rows[c]
            w = _combine(w, prow, prow[c], w[c])
        if not w:
            continue
        c = min(w)
        if c >= ncols:
            rest = True
            continue
        for pc, prow in rows.items():
            f = prow.get(c)
            if f:
                rows[pc] = _combine(prow, w, w[c], f)
                touched.add(pc)
        rows[c] = w
        touched.add(c)
    return touched, rest


def _combine(row, prow, p, f):
    """(p/g) row - (f/g) prow over integer dicts, g = gcd(p, f), divided by
    its content, zeros dropped: the entry f opposite the pivot p cancels."""
    g = gcd(p, f)
    a, b = p // g, f // g
    out = row if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _eliminate(rows, ncols):
    """Sparse Gauss-Jordan elimination of PadicNumber rows, given as
    ``{col: element}`` dicts, on the columns below ``ncols``.

    Input entries zero at precision count as absent.  The pivot in each
    column has the smallest valuation, the p-adically largest, so that a
    division loses the fewest digits; the first row in current order wins
    ties.  The pivot row is divided by its pivot and f times it subtracted
    from a row with entry f.  An entry that cancels to zero stays, with
    its precision bound, so later updates cannot claim digits the inputs
    do not determine; it is never a pivot.  The eliminated entry in a
    pivot column is zero by construction and is removed.  Returns the
    reduced rows (pivot rows first, in pivot order) and the pivot columns.
    """
    R = [{c: x for c, x in row.items() if not x.is_zero()} for row in rows]
    nrows = len(R)
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, nrows):
            x = R[i].get(c)
            if x is None or x.is_zero():
                continue
            k = x.valuation()
            if best is None or k < best_key:
                best, best_key = i, k
        if best is None:
            continue
        R[r], R[best] = R[best], R[r]
        inv = R[r][c].inverse()
        prow = R[r] = {j: x * inv for j, x in R[r].items()}
        for i, row in enumerate(R):
            f = row.get(c)
            if i == r or f is None or f.is_zero():
                continue
            del row[c]
            for j, y in prow.items():
                if j != c:
                    x = row.get(j)
                    row[j] = -(f * y) if x is None else x - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def field_kernel(rows, one):
    """Right-kernel basis for a matrix of PadicNumber entries, the view of
    the p-adic loop ``_eliminate``.

    Pivots have minimal valuation.  Elimination is sparse: the dense rows
    are compacted once, zero-at-precision entries counting as absent, as
    in LaurentElement, and only the entries a row operation reaches are
    stored and updated.  Each basis vector is a ``{col: x}`` dict:
    ``one`` at its free column and minus that column's entry in each pivot
    row holding it; an absent entry is an exact zero.  Non-zero entries
    carry at least the precision a dense elimination with the same pivots
    gives.
    """
    ncols = len(rows[0]) if rows else 0
    R, pivots = _eliminate([dict(enumerate(row)) for row in rows], ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {fc: one}
        for row, pc in zip(R, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis
