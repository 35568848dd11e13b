"""Layer microbenchmarks: PadicNumber at N in {20, 200} and LaurentElement
at N = 20 on the window [-32, 32], with seeded operands.  Each figure is
the median over REPEATS timings of a batch, in microseconds per call."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 7
BATCH = 200
WINDOW = 32


def _per_call_us(fn, args):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - start) / len(args) * 1e6)
    return statistics.median(samples)


def _rational(rng, p):
    while True:
        num = rng.randint(1, 10 ** 6) * rng.choice((1, -1))
        den = rng.randint(1, 10 ** 6)
        if num % p and den % p:
            return Fraction(num, den)


def padic(seed, p=5):
    from phinabla.padic import PadicNumber, RingParams

    rng = random.Random(seed)
    out = {}
    for N in (20, 200):
        params = RingParams(p, N, (WINDOW, WINDOW))
        xs = [PadicNumber.from_rational(
                  params, _rational(rng, p) * p ** rng.randint(-2, 2))
              for _ in range(BATCH + 1)]
        pairs = list(zip(xs, xs[1:]))
        out[f"padic.mul_N{N}_us"] = _per_call_us(lambda x, y: x * y, pairs)
        out[f"padic.inverse_N{N}_us"] = _per_call_us(
            lambda x: x.inverse(), [(x,) for x in xs])
        if N == 20:
            out["padic.add_N20_us"] = _per_call_us(lambda x, y: x + y, pairs)
    return out


def series(seed, p=5, terms=12):
    from phinabla.padic import RingParams
    from phinabla.series import LaurentElement

    rng = random.Random(seed)
    params = RingParams(p, 20, (WINDOW, WINDOW))

    def element():
        exps = sorted(rng.sample(range(1, 2 * terms), terms - 1))
        return LaurentElement.from_terms(
            params, [(0, _rational(rng, p))]
            + [(e, _rational(rng, p)) for e in exps])

    xs = [element() for _ in range(21)]
    pairs = list(zip(xs, xs[1:]))
    return {
        "series.mul_us": _per_call_us(lambda x, y: x * y, pairs),
        "series.sigma_us": _per_call_us(lambda x: x.sigma(),
                                        [(x,) for x in xs]),
        "series.inverse_us": _per_call_us(lambda x: x.inverse(),
                                          [(x,) for x in xs[:5]]),
    }
