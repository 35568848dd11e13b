"""In-process A/B timing of this checkout's phinabla against another
revision's, on inputs like those of the extract_scaling workload.

``git archive REV src/phinabla`` is unpacked into a temporary directory and
imported as the package ``phinabla_base`` beside this checkout's
``phinabla``, in one interpreter.  Each side builds its inputs from its own
``corpus``: ``wd_extract`` of the half twist, Kummer-Tate (kt), kt plus the
good elliptic H^1 and kt (x) kt, the last three under fixed shear gauges
of the shapes the workload gauges with seeded coefficients; the Tate
datum's reduction type, rank profile, weight filtration and weight flags;
the open Tate curve's excision filtration; and ``wd_extract`` of the tensor
powers kt^(x k) for k = 3 .. 5 (ranks 8, 16, 32).  Each of the 60 rounds
calls every operation once per side, one call at a time, and which side
goes first alternates per operation and per round, so a drift of the
host's speed falls on both.  Each side's outputs are checked after a
warm-up call: the extractions' trace tables (depth 4) must agree.  Nothing
under ``bench/`` is read.  Run from the root of a checkout:

    PYTHONPATH=src python3 tools/ab_inprocess.py REV

It prints one line per operation: the median wall seconds of REV and of
this checkout over the rounds, their ratio (this / REV) and the rounds
this checkout won; then the sums of the medians, with the rounds whose
total this checkout won.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction

BASE = "phinabla_base"
ROUNDS = 60
MAX_POWER = 5
TRACE_DEPTH = 4
# (row, column, t-exponent, coefficient) of each shear U = I + c t^k E_row,col
GAUGES = {
    "kt": ((1, 0, 1, Fraction(2, 3)),),
    "kt+h1": ((0, 3, 1, Fraction(-7, 4)),),
    "kt*kt": ((0, 2, 0, Fraction(3, 2)), (1, 3, 1, Fraction(-1, 6))),
}


def load_base(rev, tmp):
    """Import REV's src/phinabla, unpacked under tmp, as BASE."""
    blob = subprocess.run(["git", "archive", rev, "src/phinabla"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tmp)
    path = os.path.join(tmp, "src", "phinabla")
    spec = importlib.util.spec_from_file_location(
        BASE, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASE] = package
    spec.loader.exec_module(package)


def build(name):
    """{operation name: (call, check or None)} over package ``name``."""
    def sub(module):
        return importlib.import_module(f"{name}.{module}")

    corpus, modules, series = sub("corpus"), sub("modules"), sub("series")
    diagnostics, extraction = sub("diagnostics"), sub("extraction")
    weil_deligne = sub("weil_deligne")

    def gauged(m, shape):
        U = modules.lmat_identity(m.params, m.rank)
        for i, j, k, c in shape:
            U[i][j] = series.LaurentElement.monomial(m.params, k, c)
        return modules.GaugeChange(U).apply(m)

    kt = corpus.kummer_tate()
    inputs = {"half_twist": corpus.half_twist(), "kt": kt,
              "kt+h1": modules.direct_sum(kt, corpus.good_elliptic_h1()),
              "kt*kt": modules.tensor(kt, kt)}
    for key, shape in GAUGES.items():
        inputs[key] = gauged(inputs[key], shape)
    power = inputs["kt*kt"]
    for k in range(3, MAX_POWER + 1):
        power = modules.tensor(power, kt)
        inputs[f"kt^{k}"] = power

    def traces(rep):
        return weil_deligne.trace_table(rep, TRACE_DEPTH)

    ops = {f"wd_extract[{key}]": (lambda m=m: extraction.wd_extract(m)[0],
                                  traces)
           for key, m in inputs.items()}
    datum, curve = corpus.tate_abelian_datum(), corpus.open_tate_curve()
    for fn in ("reduction_type", "rank_profile",
               "semistable_weight_filtration", "wd_weight_filtration_flags"):
        ops[fn] = (lambda fn=getattr(diagnostics, fn): fn(datum), None)
    ops["excision_weight_filtration"] = (
        lambda: diagnostics.excision_weight_filtration(curve), None)
    return ops


def clock(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev = sys.argv[1]
    sys.dont_write_bytecode = True
    # REV's modules may import lazily, so its files stay until the end
    with tempfile.TemporaryDirectory() as tmp:
        load_base(rev, tmp)
        compare(rev, [build(BASE), build("phinabla")])


def compare(rev, sides):
    for name, (base, check) in sides[0].items():
        if check is not None and check(base()) != check(sides[1][name][0]()):
            sys.exit(f"{name}: the two sides' outputs differ")
    times = {name: ([], []) for name in sides[0]}
    for r in range(ROUNDS):
        for i, name in enumerate(times):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for side in order:
                times[name][side].append(clock(sides[side][name][0]))
    rows = list(times.items())
    totals = tuple([sum(ts[side][r] for _, ts in rows)
                    for r in range(ROUNDS)] for side in (0, 1))
    print(f"{'operation':34} {rev[:12]:>12} {'this':>12} "
          f"{'ratio':>7} {'wins':>7}")
    for name, (base, head) in rows + [("sum of medians", totals)]:
        if name == "sum of medians":
            mb = sum(statistics.median(ts[0]) for _, ts in rows)
            mh = sum(statistics.median(ts[1]) for _, ts in rows)
        else:
            mb, mh = statistics.median(base), statistics.median(head)
        wins = sum(h < b for b, h in zip(base, head))
        print(f"{name:34} {mb:12.6f} {mh:12.6f} {mh / mb:7.3f} "
              f"{wins:3d}/{len(base)}")


if __name__ == "__main__":
    main()
