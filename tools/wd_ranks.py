"""Wall time of the monodromy filtration and of trace tables as size grows.

For each dimension d it times ``monodromy_filtration`` on the Jordan block
J_d, on the random nilpotent ``tests/helpers.random_nilpotent`` drawn
from ``random.Random(d)`` (strictly upper triangular with entries in
[-2, 2], conjugated by a unipotent integer shear, so dense) and on the
d // 2 blocks J_2 conjugated by the unimodular L U (as below) drawn from
``random.Random(d)``; ``weil_deligne._jordan_chains`` alone on the random
nilpotent read as an integer matrix (``chains_s``: ``random_s`` less this
is the filtration's rref bases and checks); and ``purity_check`` (weight
1) on the
block-diagonal companion matrix of d // 2 Weil quadratics T^2 - aT + 5
(a^2 < 20) drawn from ``random.Random(d)``, whose eigen-weights are all
1.  For k = 2, 3, 4 it times ``trace_table`` (depth 6) on Sp(2)^(x k)
(``tests/helpers.sp2_power``), and ``trace_table`` and
``quasi_purity_check`` (weight k) on Sp(2)^(x k) conjugated by the
unimodular L U drawn from ``random.Random(k)`` (unitriangular factors,
entries in [-2, 2]), whose Phi has large entries, as family members do.
Run from the root of a checkout:

    PYTHONPATH=src:tests python3 tools/wd_ranks.py [D ...] [--repeat R]

with d = 6, 12, 18, 24 by default.  It prints one JSON object per d and
per k: the best of R wall times in seconds, and whether the output is
right (J_d: one graded piece of rank 1
at each index of d - 1, d - 3, ..., 1 - d; random: the filtration reaches
all of V; blocks: graded pieces of rank d // 2 at 1 and -1 and none
elsewhere; purity: pure; trace tables: sum_k Tr(Phi^n | Gr_k) = Tr(Phi^n)
for every n, and the conjugate's table equal to the plain one;
quasi-purity: pure).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from helpers import random_nilpotent, sp2_power
from phinabla import linalg
from phinabla.weil_deligne import (WeilDeligneRep, _jordan_chains,
                                   monodromy_filtration, purity_check,
                                   quasi_purity_check, trace_table)

DEPTH = 6
POWERS = (2, 3, 4)
Q = 5


def best_time(fn, repeat):
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def jordan(d):
    return [[Fraction(int(j == i + 1)) for j in range(d)] for i in range(d)]


def jordan_ok(fil, d):
    return fil.s == d - 1 and all(
        fil.graded_rank(k) == int(abs(k) < d and (k - d + 1) % 2 == 0)
        for k in range(-d, d + 1))


def weil_companions(d, rng):
    """Phi block diagonal with the companion matrices of d // 2 Weil
    quadratics T^2 - aT + Q, a^2 < 4Q: every eigenvalue has weight 1."""
    n = d // 2 * 2
    phi = [[Fraction(0)] * n for _ in range(n)]
    for i in range(0, n, 2):
        a = rng.choice([a for a in range(-4, 5) if a * a < 4 * Q])
        phi[i][i + 1], phi[i + 1][i], phi[i + 1][i + 1] = (
            Fraction(-Q), Fraction(1), Fraction(a))
    return WeilDeligneRep(Q, phi)


def shear(d, rng):
    """M -> P^-1 M P for P = L U, L and U unitriangular with entries in
    [-2, 2]: determinant 1, dense images with large entries."""
    L = [[Fraction(int(i == j) if j >= i else rng.randint(-2, 2))
          for j in range(d)] for i in range(d)]
    U = linalg.transpose([[Fraction(int(i == j) if j >= i
                                    else rng.randint(-2, 2))
                           for j in range(d)] for i in range(d)])
    P = linalg.mat_mul(L, U)
    Pi = linalg.mat_inv(P)
    return lambda M: linalg.mat_mul(Pi, linalg.mat_mul(M, P))


def conjugated(rep, rng):
    """rep in the basis of the columns of the ``shear``'s L U."""
    conj = shear(rep.dim, rng)
    return WeilDeligneRep(rep.q, conj(rep.phi), conj(rep.N))


def blocks(d):
    """The d // 2 blocks J_2, sheared by the L U drawn from
    ``random.Random(d)``."""
    n = d // 2 * 2
    return shear(n, random.Random(d))(
        [[Fraction(int(j == i + 1 and i % 2 == 0)) for j in range(n)]
         for i in range(n)])


def blocks_ok(fil, d):
    return fil.s == 1 and all(fil.graded_rank(k) == (d // 2 if abs(k) == 1
                                                     else 0)
                              for k in range(-2, 3))


def traces_ok(rep, table):
    power = linalg.identity(rep.dim)
    for n in range(1, DEPTH + 1):
        power = linalg.mat_mul(power, rep.phi)
        total = sum(v for (k, m), v in table.items() if m == n)
        if total != sum(power[i][i] for i in range(rep.dim)):
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dims", nargs="*", type=int, default=[6, 12, 18, 24])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for d in args.dims:
        J = jordan(d)
        N = random_nilpotent(random.Random(d), d)
        jordan_s, fil_j = best_time(lambda: monodromy_filtration(J),
                                    args.repeat)
        random_s, fil_r = best_time(lambda: monodromy_filtration(N),
                                    args.repeat)
        Z = linalg._scaled(N)[0]
        chains_s, _ = best_time(lambda: _jordan_chains(Z), args.repeat)
        B = blocks(d)
        blocks_s, fil_b = best_time(lambda: monodromy_filtration(B),
                                    args.repeat)
        weil = weil_companions(d, random.Random(d))
        purity_s, purity = best_time(lambda: purity_check(weil, 1),
                                     args.repeat)
        print(json.dumps({"d": d, "jordan_s": round(jordan_s, 4),
                          "random_s": round(random_s, 4),
                          "chains_s": round(chains_s, 4),
                          "blocks_s": round(blocks_s, 4),
                          "purity_s": round(purity_s, 5),
                          "jordan_ok": jordan_ok(fil_j, d),
                          "random_ok": fil_r.rank(fil_r.s) == d,
                          "blocks_ok": blocks_ok(fil_b, d),
                          "pure": purity.pure}))
    for k in POWERS:
        rep = sp2_power(k)
        other = conjugated(rep, random.Random(k))
        table_s, table = best_time(lambda: trace_table(rep, DEPTH),
                                   args.repeat)
        conj_s, conj_table = best_time(lambda: trace_table(other, DEPTH),
                                       args.repeat)
        purity_s, purity = best_time(lambda: quasi_purity_check(other, k),
                                     args.repeat)
        print(json.dumps({"sp2_power": k, "dim": rep.dim,
                          "trace_table_s": round(table_s, 4),
                          "conj_trace_table_s": round(conj_s, 4),
                          "conj_quasi_purity_s": round(purity_s, 4),
                          "traces_ok": traces_ok(rep, table)
                          and conj_table == table,
                          "quasi_pure": purity.pure}))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: stop; the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
