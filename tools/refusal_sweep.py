"""One sha256 digest over what the extraction, the unipotent filtration,
the largest constant submodule, the residue exponents, the horizontal
sections and the ``wd`` and ``analyze`` commands return, or the refusal each raises, over a grid of small modules.

The grid is module x p x window x precision x shear:

- modules: Kummer-Tate, its tensor square, Kummer-Tate plus the trivial
  module, the half twist, a good elliptic H^1, and the half twist plus
  Kummer-Tate;
- p in {3, 5, 7}; t-windows 32, 8, 12 and (2, 16); precisions 1, 2, 4, 20;
- unsheared, and under ``helpers.random_shear_gauge`` seeds 0 .. 3 at
  lowest exponent -2 and 0.

Each input runs through ``wd_extract``, ``unipotent_filtration``,
``largest_constant_submodule``, ``residue_exponents`` (its exponents,
semisimplicity and unresolved factor) and ``horizontal_sections``.  At the symmetric windows, the only ones the
command line can set, it is also written as JSON and run in-process through
``cli wd`` and ``cli analyze`` with the matching ``--precision`` and
``--t-window``.  A record reads every returned value as a rational with its
abs_prec, and a refusal as its class and message.  The script writes no
bytecode.  Run from the root of a checkout:

    PYTHONPATH=src:tests python3 tools/refusal_sweep.py [--dump FILE]

``--dump`` also writes one JSON line per call, so two checkouts can be
compared call by call.  The whole grid takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile

sys.dont_write_bytecode = True

from helpers import random_shear_gauge
from phinabla import cli, corpus
from phinabla.extraction import wd_extract
from phinabla.modules import (PhiNablaModule, direct_sum,
                              horizontal_sections,
                              largest_constant_submodule, module_to_json,
                              residue_exponents, tensor,
                              unipotent_filtration)
from phinabla.padic import RingParams

MODULES = {
    "kt": corpus.kummer_tate,
    "kt*kt": lambda prm: tensor(corpus.kummer_tate(prm),
                                corpus.kummer_tate(prm)),
    "kt+1": lambda prm: direct_sum(corpus.kummer_tate(prm),
                                   PhiNablaModule.from_rational_matrices(
                                       prm, frobenius=[[1]],
                                       connection=[[0]])),
    "half_twist": corpus.half_twist,
    "h1": corpus.good_elliptic_h1,
    "half_twist+kt": lambda prm: direct_sum(corpus.half_twist(prm),
                                            corpus.kummer_tate(prm)),
}
PRIMES = (3, 5, 7)
WINDOWS = ((32, 32), (8, 8), (12, 12), (2, 16))
PRECISIONS = (1, 2, 4, 20)
SHEARS = (None,) + tuple(itertools.product(range(4), (-2, 0)))


def _padic(c):
    try:
        value = str(c.to_fraction())
    except ValueError:
        value = f"p^{c.v}*{c.unit}"
    return [value, c.abs_prec]


def _laurent(x):
    return [[n, _padic(c)] for n, c in sorted(x.coeffs.items())] + [
        x.tail_pos, x.tail_neg]


def _matrix(M, read):
    return M and [[read(x) for x in row] for row in M]


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a refusal, or a fault, is the record
        return [type(exc).__name__, str(exc)]


def _extraction(m):
    rep, trace = wd_extract(m)
    return {"rep": rep.to_json(), "cover_degree": trace.cover_degree,
            "log_degrees": trace.log_degrees,
            "residue_classes": trace.residue_classes}


def _filtration(m):
    fil = unipotent_filtration(m)
    out = {"unipotent": fil.unipotent, "level": fil.level,
           "block_sizes": fil.block_sizes,
           "solutions": [[s.log_degree, s.residue_class]
                         for s in fil.solutions]}
    if fil.unipotent:
        out.update(phi=_matrix(fil.phi, _padic), N=_matrix(fil.N, _padic),
                   gauge=_matrix(fil.gauge.U, _laurent))
    return out


def _constant(m):
    cs = largest_constant_submodule(m)
    return {"rank": cs.rank,
            "basis": [[_laurent(x) for x in b] for b in cs.basis],
            "frobenius": _matrix(cs.frobenius, _padic)}


def _residue(m):
    rr = residue_exponents(m)
    factor = rr.unresolved_factor
    return {"exponents": [str(x) for x in rr.exponents],
            "semisimple": rr.semisimple,
            "unresolved_factor": factor and [str(x) for x in factor]}


def _sections(m):
    return [[_laurent(x) for x in v] for v in horizontal_sections(m)]


def _command(path, name, precision, window):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--precision", str(precision), "--t-window",
                         str(window), name, path])
    # the input line names the file when the module has no label
    return [code, out.getvalue().replace(path, "module.json"),
            err.getvalue()]


def records(folder):
    """(key, result) per call, in grid order."""
    path = os.path.join(folder, "module.json")
    for name, p, window, precision, shear in itertools.product(
            MODULES, PRIMES, WINDOWS, PRECISIONS, SHEARS):
        params = RingParams(p, precision, window)
        key = {"module": name, "p": p, "window": list(window),
               "precision": precision, "shear": shear and list(shear)}

        def build():
            m = MODULES[name](params)
            if shear is None:
                return m
            seed, lowest = shear
            return random_shear_gauge(random.Random(seed), params, m.rank,
                                      lowest=lowest).apply(m)

        m = _attempt(build)
        if not isinstance(m, PhiNablaModule):
            yield dict(key, call="build"), m
            continue
        yield dict(key, call="wd_extract"), _attempt(lambda: _extraction(m))
        yield (dict(key, call="unipotent_filtration"),
               _attempt(lambda: _filtration(m)))
        yield (dict(key, call="largest_constant_submodule"),
               _attempt(lambda: _constant(m)))
        yield (dict(key, call="residue_exponents"),
               _attempt(lambda: _residue(m)))
        yield (dict(key, call="horizontal_sections"),
               _attempt(lambda: _sections(m)))
        if window[0] == window[1]:
            with open(path, "w") as fh:
                json.dump(module_to_json(m), fh)
            for command in ("wd", "analyze"):
                yield (dict(key, call=f"cli {command}"),
                       _attempt(lambda: _command(path, command, precision,
                                                 window[0])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE")
    args = parser.parse_args()
    digest = hashlib.sha256()
    dump = open(args.dump, "w") if args.dump else None
    try:
        with tempfile.TemporaryDirectory() as folder:
            for key, result in records(folder):
                line = json.dumps({**key, "result": result}, sort_keys=True)
                digest.update(line.encode() + b"\n")
                if dump:
                    dump.write(line + "\n")
    finally:
        if dump:
            dump.close()
    print(json.dumps({"sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
