"""sha256 digests of what extraction and the unipotent filtration return:
one over the values, one over the p-adic precisions, and one over the
filtration's shape alone.

The inputs are those of the extract_scaling benchmark workload for seeds
0 .. 39 (the half twist, Kummer-Tate, Kummer-Tate plus a good elliptic H^1
and Kummer-Tate squared, the last three under the seed's shear gauges, as
``bench/extract_scaling.build`` makes them), its Tate curve datum, and the
tensor powers of the Kummer-Tate module of rank 2 .. 32.  Per input the
values digest reads, as rationals, Phi, N and the inertia matrix of
``wd_extract``, the trace table to depth 4, the log degrees and residue
classes of the log basis, the induced Frobenius of the largest constant
submodule and every coefficient of the unipotent filtration's gauged
module; a refusal is read as its class and message.  The precision digest
reads the abs_prec of the same constant-submodule and gauged-module
coefficients.  The shape digest reads the filtration's (unipotent, level,
block_sizes), or its refusal, and no gauged coefficient: two checkouts
whose filtrations gauge to different bases but agree on every flag print
the same shape digest.  Importing ``extract_scaling`` writes no bytecode
into ``bench/``.  Run from the root of a checkout:

    PYTHONPATH=src:bench python3 tools/extract_digest.py [--seeds N]
        [--dump FILE]

Two checkouts that print the same values digest return the same outputs on
these inputs.  ``--dump`` also writes one JSON line per input (its name,
values, precisions and shape), so two checkouts can be compared input by
input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

sys.dont_write_bytecode = True

from extract_scaling import GAUGE_SHAPES, TRACE_DEPTH, _gauged
from phinabla import corpus
from phinabla.errors import PhinablaError
from phinabla.extraction import wd_extract
from phinabla.modules import (direct_sum, largest_constant_submodule, tensor,
                              unipotent_filtration)
from phinabla.weil_deligne import trace_table


def inputs(seeds):
    """(name, module) pairs, seeded inputs in the order build() gauges them."""
    for seed in range(seeds):
        rng = random.Random(seed)
        kt = corpus.kummer_tate()
        mods = {"half_twist": corpus.half_twist(), "kt": kt,
                "kt+h1": direct_sum(kt, corpus.good_elliptic_h1()),
                "kt*kt": tensor(kt, kt)}
        for key, shape in GAUGE_SHAPES.items():
            mods[key] = _gauged(mods[key], shape, rng)
        yield from ((f"{key}@{seed}", m) for key, m in mods.items())
    yield "tate", corpus.tate_abelian_datum().module
    m = corpus.kummer_tate()
    for k in range(1, 6):
        yield f"kt^{k}", m
        m = tensor(m, corpus.kummer_tate())


def _rational(c):
    try:
        return str(c.to_fraction())
    except ValueError:
        return f"p^{c.v}*{c.unit}+O(p^{c.abs_prec})"


def _laurent(x):
    return ([(n, _rational(c)) for n, c in sorted(x.coeffs.items())],
            x.tail_pos, x.tail_neg)


def _attempt(fn):
    try:
        return fn(), None
    except PhinablaError as exc:
        return None, [type(exc).__name__, str(exc)]


def record(m):
    """(values, precisions, shape) of one input."""
    values, precs = {}, {}
    out, values["wd_extract"] = _attempt(lambda: wd_extract(m))
    if out is not None:
        rep, trace = out
        values["wd_extract"] = {
            "phi": [[str(x) for x in row] for row in rep.phi],
            "N": [[str(x) for x in row] for row in rep.N],
            "inertia": [rep.inertia_order, rep.inertia_matrix and [
                [str(x) for x in row] for row in rep.inertia_matrix]],
            "traces": sorted((str(k), str(v)) for k, v in
                             trace_table(rep, TRACE_DEPTH).items()),
            "log_degrees": trace.log_degrees,
            "residue_classes": trace.residue_classes}
    cs, values["constant"] = _attempt(lambda: largest_constant_submodule(m))
    if cs is not None and cs.frobenius is not None:
        values["constant"] = [[_rational(c) for c in row]
                              for row in cs.frobenius]
        precs["constant"] = [[c.abs_prec for c in row]
                             for row in cs.frobenius]
    fil, values["filtration"] = _attempt(lambda: unipotent_filtration(m))
    shape = values["filtration"] or [fil.unipotent, fil.level,
                                     fil.block_sizes]
    if fil is not None and fil.unipotent:
        g = fil.gauged_module
        mats = {"A": g.A, "G": g.G}
        values["filtration"] = {
            "level": fil.level, "block_sizes": fil.block_sizes,
            **{key: M and [[_laurent(x) for x in row] for row in M]
               for key, M in mats.items()}}
        precs["filtration"] = {
            key: M and [[[(n, c.abs_prec) for n, c in sorted(x.coeffs.items())]
                         for x in row] for row in M]
            for key, M in mats.items()}
    elif fil is not None:
        values["filtration"] = "not unipotent"
    return values, precs, shape


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--dump", metavar="FILE")
    args = parser.parse_args()
    values, precs, shapes = (hashlib.sha256() for _ in range(3))
    dump = open(args.dump, "w") if args.dump else None
    try:
        for name, m in inputs(args.seeds):
            v, pr, sh = record(m)
            values.update(json.dumps([name, v]).encode())
            precs.update(json.dumps([name, pr]).encode())
            shapes.update(json.dumps([name, sh]).encode())
            if dump:
                dump.write(json.dumps({"input": name, "values": v,
                                       "precisions": pr, "shape": sh})
                           + "\n")
    finally:
        if dump:
            dump.close()
    print(json.dumps({"values_sha256": values.hexdigest(),
                      "precisions_sha256": precs.hexdigest(),
                      "shape_sha256": shapes.hexdigest()}))


if __name__ == "__main__":
    main()
