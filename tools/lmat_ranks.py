"""Wall time of the Laurent determinant, inverse, unipotent filtration and
Weil-Deligne extraction.

The matrices are the dense U*L ones of ``tests/helpers.dense_unit_matrix``
(determinant 1, inverse a Laurent polynomial matrix), the ones the rank-8
budget of ``tests/test_modules.py`` runs.  The filtrations and extractions
are those of the k-fold tensor powers of the Kummer-Tate module, of rank
2^k and level k + 1.  Run from the root of a checkout:

    PYTHONPATH=src:tests python3 tools/lmat_ranks.py [RANK ...] [--repeat K]
        [--max-power KMAX]

It prints one JSON object per rank: the best of K wall times of
``lmat_det`` and ``lmat_inverse`` in seconds, and whether det = 1 and
M * inverse(M) = I hold.  Then one per tensor power k = 1 .. KMAX (5 by
default, rank 32; 6 reaches rank 64): the best of K wall times of
``unipotent_filtration`` and of ``wd_extract``, timed in alternation within
each round so that a drift of the host's speed falls on both, the ratio of
the two bests, the level found and the sorted log degrees of the
extraction's log basis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from helpers import dense_unit_matrix
from phinabla.corpus import kummer_tate
from phinabla.extraction import wd_extract
from phinabla.modules import (lmat_det, lmat_identity, lmat_inverse,
                              lmat_mul, tensor, unipotent_filtration)
from phinabla.padic import RingParams


def best_time(fn, repeat):
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ranks", nargs="*", type=int, default=[6, 7, 8])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--max-power", type=int, default=5,
                        metavar="KMAX")
    args = parser.parse_args()
    params = RingParams(5, 20, (32, 32))
    for n in args.ranks:
        M = dense_unit_matrix(params, n)
        det_s, det = best_time(lambda: lmat_det(M), args.repeat)
        inv_s, inv = best_time(lambda: lmat_inverse(M), args.repeat)
        eye = lmat_identity(params, n)
        exact = all(x.congruent(y) and not x.has_tail()
                    for ra, rb in zip(lmat_mul(M, inv), eye)
                    for x, y in zip(ra, rb))
        print(json.dumps({"rank": n, "det_s": round(det_s, 4),
                          "inverse_s": round(inv_s, 4),
                          "det_is_one": det.congruent(1)
                          and not det.has_tail(),
                          "inverse_exact": exact}))
    for k in range(1, args.max_power + 1):
        m = kummer_tate(params)
        for _ in range(k - 1):
            m = tensor(m, kummer_tate(params))
        fil_s = wd_s = None
        for _ in range(args.repeat):
            round_fil, fil = best_time(lambda: unipotent_filtration(m), 1)
            round_wd, (_, trace) = best_time(lambda: wd_extract(m), 1)
            fil_s = round_fil if fil_s is None else min(fil_s, round_fil)
            wd_s = round_wd if wd_s is None else min(wd_s, round_wd)
        print(json.dumps({"tensor_power": k, "rank": m.rank,
                          "filtration_s": round(fil_s, 4),
                          "wd_extract_s": round(wd_s, 4),
                          "wd_over_filtration": round(wd_s / fil_s, 3),
                          "level": fil.level,
                          "log_degrees": sorted(trace.log_degrees)}))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: stop; the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
