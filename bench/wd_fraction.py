"""Workload wd_fraction: the Weil-Deligne layer over Fraction, in process.

It uses linalg differently from extract_scaling: dense Fraction ``rref``
rather than the p-adic ``field_kernel``, so a merged elimination routine
that helps one and costs the other shows up on one of the two.  It also
runs the eigen-weights warm, beside cli_corpus running them cold.

The seed draws the nilpotent matrices, the Weil polynomials
T^2 - aT + q (a^2 < 4q), the twists and the basis changes; the sizes are
fixed, so every seed asks for comparable work.  Filtrations are checked
with ``oracles.verify_monodromy_axioms``, weights with
``oracles.algebraic_weight``, trace tables with the identity
sum_k Tr(Phi^n | Gr_k) = Tr(Phi^n), and family verdicts against how the
family was built.
"""

from __future__ import annotations

from fractions import Fraction

from harness import Op

Q = 5
NILPOTENT_DIMS = (2, 3, 4, 5, 6) * 6
JORDAN_SIZES = (8, 12)
QUARTIC = (Q * Q, 0, 0, 0, 1)       # T^4 + q^2: irreducible, weight 1
TRACE_DEPTH = 6
FAMILY_SIZE = 3


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(b)
    return out


def _companion(coeffs):
    """Companion matrix of the monic polynomial with low-to-high coeffs."""
    d = len(coeffs) - 1
    M = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = Fraction(1)
    for i in range(d):
        M[i][d - 1] = -Fraction(coeffs[i])
    return M


def _twisted(coeffs, n):
    """Polynomial whose roots are q^-n times those of ``coeffs``."""
    d = len(coeffs) - 1
    c = Fraction(1, Q) ** n
    return tuple(Fraction(x) * c ** (d - i) for i, x in enumerate(coeffs))


def _weil_quadratic(rng):
    a = rng.choice([a for a in range(-4, 5) if a * a < 4 * Q])
    return (Q, -a, 1)


def _unimodular(rng, n):
    """Product of a unit lower and a unit upper triangular integer matrix."""
    L, U = _identity(n), _identity(n)
    for i in range(n):
        for j in range(i):
            L[i][j] = Fraction(rng.randint(-2, 2))
            U[j][i] = Fraction(rng.randint(-2, 2))
    return _mul(L, U)


def _oracle_weights(factors):
    from phinabla import oracles
    out = []
    for f in factors:
        out += oracles.algebraic_weight(list(f), Q)
    return sorted(set(out))


def _filtration_ok(N):
    def check(fil):
        from phinabla import oracles
        ok, _witness = oracles.verify_monodromy_axioms(
            N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
        return ok
    return check


def _jordan_ok(N, d):
    axioms = _filtration_ok(N)

    def check(fil):
        # one Jordan block: Gr_k has rank 1 for k = -(d-1), -(d-3), ..., d-1
        expected = {k: int(abs(k) < d and (k - d + 1) % 2 == 0)
                    for k in range(-d, d + 1)}
        return (fil.s == d - 1 and axioms(fil)
                and all(fil.graded_rank(k) == r for k, r in expected.items()))
    return check


def _purity_ok(factors, i):
    weights = _oracle_weights(factors)

    def check(report):
        if weights == [i]:
            return report.pure and report.weight == i
        return (not report.pure
                and report.failure == f"weights found: {weights}")
    return check


def _quasi_purity_ok(factors, i):
    """Frobenius C (x) diag(1, q) with N = I (x) E_12: Gr_-1 carries the
    roots of the factors, Gr_1 those roots times q."""
    base = _oracle_weights(factors)
    expected = [(-1, base), (1, [w + 2 for w in base])]

    def check(report):
        got = [(g.index, g.weights) for g in report.graded]
        pure = all(ws == [i + k] for k, ws in expected)
        return got == expected and report.pure is pure
    return check


def _trace_table_ok(rep):
    def check(table):
        power = _identity(rep.dim)
        for n in range(1, TRACE_DEPTH + 1):
            power = _mul(power, rep.phi)
            total = sum(v for (k, m), v in table.items()
                        if k != "inertia" and m == n)
            if total != sum(power[i][i] for i in range(rep.dim)):
                return False
        return True
    return check


def build(seed):
    import random

    from phinabla import weil_deligne as wd
    from phinabla.linalg import mat_inv
    from phinabla.weil_deligne import WeilDeligneRep

    rng = random.Random(seed)
    ops = []

    # filtration: random strictly upper-triangular nilpotents, Jordan blocks
    for idx, d in enumerate(NILPOTENT_DIMS):
        N = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
              for j in range(d)] for i in range(d)]
        ops.append(Op(f"monodromy_filtration[random{idx}:d={d}]",
                      "filtration", lambda N=N: wd.monodromy_filtration(N),
                      _filtration_ok(N)))
    for d in JORDAN_SIZES:
        N = [[Fraction(int(j == i + 1)) for j in range(d)] for i in range(d)]
        ops.append(Op(f"monodromy_filtration[J{d}]", "filtration",
                      lambda N=N: wd.monodromy_filtration(N),
                      _jordan_ok(N, d)))

    # weights: products of Weil quadratics, twists, one irreducible quartic
    purity_cases = []
    for count in (1, 2, 3, 1, 2, 3):
        factors = [_weil_quadratic(rng) for _ in range(count)]
        purity_cases.append(factors)
    for count in (2, 3):
        factors = [_weil_quadratic(rng) for _ in range(count)]
        k = rng.randrange(count)
        factors[k] = _twisted(factors[k], rng.choice((1, -1)))
        purity_cases.append(factors)
    purity_cases.append([QUARTIC])
    purity_cases.append([QUARTIC, _weil_quadratic(rng)])
    for idx, factors in enumerate(purity_cases):
        rep = WeilDeligneRep(Q, _block_diag([_companion(f) for f in factors]))
        deg = sum(len(f) - 1 for f in factors)
        tag = ":quartic" if QUARTIC in factors else ""
        ops.append(Op(f"purity_check[{idx}:deg={deg}{tag}]",
                      "weights", lambda rep=rep: wd.purity_check(rep, 1),
                      _purity_ok(factors, 1)))
    sp_phi = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(Q)]]
    sp_N = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    for idx, count in enumerate((1, 2, 1, 2)):
        factors = [_weil_quadratic(rng) for _ in range(count)]
        if idx == 3:
            factors[0] = _twisted(factors[0], 1)
        C = _block_diag([_companion(f) for f in factors])
        n = len(C)
        phi = [[a * b for a in ra for b in rb] for ra in C for rb in sp_phi]
        N = [[a * b for a in ra for b in rb]
             for ra in _identity(n) for rb in sp_N]
        rep = WeilDeligneRep(Q, phi, N)
        ops.append(Op(f"quasi_purity_check[{idx}:dim={2 * n}]", "weights",
                      lambda rep=rep: wd.quasi_purity_check(rep, 2),
                      _quasi_purity_ok(factors, 2)))

    # family: trace tables and compatibility of conjugated members
    for idx, count in enumerate((1, 2, 2)):
        factors = [_weil_quadratic(rng) for _ in range(count)]
        base = WeilDeligneRep(
            Q, _block_diag([sp_phi] + [_companion(f) for f in factors]),
            _block_diag([sp_N] + [[[0] * 2] * 2] * count))
        ops.append(Op(f"trace_table[{idx}:dim={base.dim}]", "family",
                      lambda rep=base: wd.trace_table(rep, TRACE_DEPTH),
                      _trace_table_ok(base)))
        members = []
        for _ in range(FAMILY_SIZE):
            P = _unimodular(rng, base.dim)
            Pi = mat_inv(P)
            members.append(WeilDeligneRep(
                Q, _mul(Pi, _mul(base.phi, P)), _mul(Pi, _mul(base.N, P))))
        ops.append(Op(f"compatibility_family[{idx}:compatible]", "family",
                      lambda reps=members: wd.compatibility_family(
                          reps, TRACE_DEPTH),
                      lambda r: r.compatible and r.witness is None))
        odd = rng.randrange(1, FAMILY_SIZE)
        broken = list(members)
        broken[odd] = wd.twist(members[odd], 1)
        ops.append(Op(f"compatibility_family[{idx}:member{odd}_twisted]",
                      "family",
                      lambda reps=broken: wd.compatibility_family(
                          reps, TRACE_DEPTH),
                      lambda r, odd=odd: (not r.compatible
                                          and r.witness[0] == odd)))
    return ops


def warmup(ops):
    """The first operation of each stage, plus the quartic (mpmath)."""
    seen = set()
    for op in ops:
        if op.stage not in seen or "quartic" in op.name:
            seen.add(op.stage)
            op.run()


def named_metrics(ops, medians, stages, p50, p90):
    def n(stage):
        return sum(op.stage == stage for op in ops)
    return [
        ("filtration_s", stages["filtration"], "s",
         f"sum of {n('filtration')} monodromy_filtration medians"),
        ("weights_s", stages["weights"], "s",
         f"sum of {n('weights')} purity/quasi-purity medians"),
        ("family_s", stages["family"], "s",
         f"sum of {n('family')} trace-table/compatibility medians"),
    ]
