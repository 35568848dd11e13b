"""Command-line interface.

Subcommands: analyze | wd | reduction | excision | compat | selftest.
Exit codes: 0 ok, 1 a failed selftest check, 2 input/parse error, 3 domain
error; domain errors also emit a machine-readable JSON object on stderr.
Output is deterministic: no timestamps, sorted keys, fixed ordering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, linalg
from .errors import PhinablaError
from .padic import RingParams
from .modules import (_ring_from_json, check_compatibility,
                      module_from_json, residue_exponents,
                      unipotent_filtration)
from .weil_deligne import (FrobeniusKind, WeilDeligneRep,
                           compatibility_family, quasi_purity_check,
                           _weights_of)
from .extraction import wd_extract
from .diagnostics import (_reduction, abelian_datum_from_json,
                          excision_weight_filtration, open_curve_from_json,
                          reduction_type)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="phinabla",
        description="exact (phi, nabla)-module computations")
    p.add_argument("--version", action="version",
                   version=f"phinabla {__version__}")
    p.add_argument("--precision", type=int, default=20,
                   help="p-adic working precision N (default 20)")
    p.add_argument("--t-window", type=int, default=32, dest="t_window",
                   help="Laurent exponent window M (default 32)")
    p.add_argument("--convention", choices=["geometric", "arithmetic"],
                   default="geometric")
    p.add_argument("--mmax", type=int, default=24,
                   help="largest allowed tame cover degree (default 24)")
    p.add_argument("--nmax", type=int, default=6,
                   help="trace table depth for compat (default 6); "
                        "each graded piece is read at least to its "
                        "dimension")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_path in (("analyze", True), ("wd", True),
                             ("reduction", True), ("excision", True),
                             ("compat", True), ("selftest", False)):
        sp = sub.add_parser(name)
        if needs_path:
            sp.add_argument("path")
        if name == "analyze":
            sp.add_argument("--weight", type=int, default=1,
                            help="target weight for quasi-purity "
                                 "(default 1)")
    return p


def _kind(args):
    return (FrobeniusKind.GEOMETRIC if args.convention == "geometric"
            else FrobeniusKind.ARITHMETIC)


# JSON paths each subcommand reads without a default
_REQUIRED = {
    "analyze": ("params.p", "rank"),
    "wd": ("params.p", "rank"),
    "reduction": ("module.params.p", "module.rank"),
    # the other modules of an open curve share the ring of h1_compact
    "excision": ("h1_compact.params.p", "h1_compact.rank",
                 "h0_boundary_twisted.rank", "h2_compact.rank",
                 "boundary_map"),
    "compat": ("members",),
}


def _load_json(args):
    """The input file of a subcommand, with every path it needs."""
    try:
        with open(args.path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "parse", "detail": str(exc)}),
              file=sys.stderr)
        raise SystemExit(2)
    for path in _REQUIRED[args.command]:
        node, keys = obj, path.split(".")
        for depth, key in enumerate(keys):
            if not isinstance(node, dict):
                where = ".".join(keys[:depth])
                raise TypeError(f'"{where}" must be a JSON object' if where
                                else "input must be a JSON object")
            if key not in node:
                raise ValueError(f'missing "{path}"')
            node = node[key]
    return obj


def _params_from(obj, args):
    """The file's ring, checked whole, at the flags' precision and window."""
    ring = _ring_from_json(obj["params"])
    return RingParams(ring.p, args.precision, (args.t_window, args.t_window),
                      ring.a, ring.modulus)


def _banner(args, params=None):
    lines = [f"phinabla {__version__}"]
    if params is not None:
        lines.append(f"ring: p={params.p} precision={params.N} "
                     f"window=[{params.window_lo},{params.window_hi}] "
                     "mode=laurent")
    eps = ("Phi N Phi^-1 = N / q" if args.convention == "geometric"
           else "Phi N Phi^-1 = q N")
    lines.append(f"convention: {args.convention} ({eps})")
    return lines


def _emit(args, text_lines, json_obj):
    try:
        print(json.dumps(json_obj, sort_keys=True, indent=2) if args.as_json
              else "\n".join(text_lines), flush=True)
    except BrokenPipeError:
        # reader gone: keep the exit code; the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_analyze(args) -> int:
    obj = _load_json(args)
    params = _params_from(obj, args)
    m = module_from_json(obj, params)
    report = {"input": m.label or args.path, "precision": params.N,
              "t_window": args.t_window, "convention": args.convention,
              "version": __version__}
    lines = _banner(args, params)
    lines.append(f"input: {m.label or args.path}")

    both = m.has_frobenius and m.has_connection
    if both:
        comp = check_compatibility(m)
        report["compatible"] = comp.compatible
        lines.append("compatibility: "
                     + ("OK (residual = 0)" if comp.compatible else
                        f"FAIL (min residual valuation "
                        f"{comp.max_residual_valuation})"))
        rep, trace = wd_extract(m, args.mmax, _kind(args))
    if m.has_connection:
        rr = residue_exponents(m)
        report["residue_exponents"] = [str(x) for x in rr.exponents]
        report["residue_semisimple"] = rr.semisimple
        lines.append("residue exponents: "
                     + ", ".join(str(x) for x in rr.exponents)
                     + f" (semisimple: {'yes' if rr.semisimple else 'no'})")
        if all(x.denominator == 1 for x in rr.exponents):
            # cover degree 1: the extraction has read the filtration of m
            fil = trace.filtration if both else unipotent_filtration(m)
            level = fil.level if fil.unipotent else None
            report["unipotent"] = fil.unipotent
            report["unipotence_level"] = level
            lines.append("unipotence level: "
                         + (str(level) if fil.unipotent else
                            "NOT_UNIPOTENT"))
    if both:
        Y, s = rep.phi_scaled
        weights = _weights_of(Y, rep.q, rep.frobenius_kind, s)
        n_rank = linalg.rank(rep.N)
        report["wd"] = {"dim": rep.dim, "N_rank": n_rank,
                        "inertia_order": rep.inertia_order,
                        "phi_weights": [str(w) for w in weights],
                        "cover_degree": trace.cover_degree}
        lines.append(f"WD: dim={rep.dim} N-rank={n_rank} "
                     f"inertia order={rep.inertia_order} "
                     f"weights={{{', '.join(str(w) for w in weights)}}}")
        qp = quasi_purity_check(rep, args.weight)
        report["quasi_pure"] = qp.pure
        report["weight"] = args.weight
        lines.append(f"quasi-purity at weight {args.weight}: "
                     + ("PASS" if qp.pure else "FAIL"))
    _emit(args, lines, report)
    return 0


def cmd_wd(args) -> int:
    obj = _load_json(args)
    params = _params_from(obj, args)
    m = module_from_json(obj, params)
    rep, trace = wd_extract(m, args.mmax, _kind(args))
    out = rep.to_json()
    lines = _banner(args, params)
    lines.append(f"input: {m.label or args.path}")
    lines.append("exponents: " + (", ".join(
        str(x) for x in residue_exponents(m).exponents) or "(none)"))
    lines.append(f"cover degree e = {trace.cover_degree}")
    lines.append(f"log degrees: {trace.log_degrees}")
    lines.append(f"residue classes: {trace.residue_classes}")
    lines.append("result: " + json.dumps(out, sort_keys=True))
    _emit(args, lines, out)
    return 0


def cmd_reduction(args) -> int:
    obj = _load_json(args)
    params = _params_from(obj["module"], args)
    datum = abelian_datum_from_json(obj, params)
    red = _reduction(datum)
    report = {"verdict": red.verdict.value, "convention": args.convention,
              "version": __version__}
    lines = _banner(args, params)
    lines.append(f"input: {datum.module.label or args.path}")
    lines.append(f"verdict: {red.verdict.value}")
    profile = red.profile
    if profile is None:
        # the profile needs the pairing once D(A) has horizontal sections
        lines.append("ranks: unavailable (no pairing)")
    else:
        report["ranks"] = {"n": profile.n, "mu": profile.mu,
                          "alpha": profile.alpha, "lambda": profile.lam}
        lines.append(f"ranks: n={profile.n} mu={profile.mu} "
                     f"alpha={profile.alpha} lambda={profile.lam}")
    _emit(args, lines, report)
    return 0


def cmd_excision(args) -> int:
    obj = _load_json(args)
    params = _params_from(obj["h1_compact"], args)
    datum = open_curve_from_json(obj, params)
    rep = excision_weight_filtration(datum, args.mmax)
    report = {
        "verdict": "OK" if rep.ok else "FAIL",
        "convention": rep.convention,
        "graded": [
            {"index": 1, "rank": rep.gr1_rank,
             "quasi_pure": rep.ok},
            {"index": 2, "rank": rep.gr2_rank,
             "weights": [str(w) for w in rep.gr2_weights],
             # an impure Gr_2 raised PurityFailure in the filtration
             "pure": True},
        ],
        "version": __version__,
    }
    lines = _banner(args, params)
    lines.append(f"Gr_1: rank {rep.gr1_rank}, quasi-pure of weight 1: "
                 + ("PASS" if rep.ok else "FAIL"))
    lines.append(f"Gr_2: rank {rep.gr2_rank}"
                 + (f", weights {{{', '.join(str(w) for w in rep.gr2_weights)}}}"
                    if rep.gr2_rank else " (empty)"))
    lines.append("verdict: " + ("OK" if rep.ok else "FAIL"))
    _emit(args, lines, report)
    return 0


def cmd_compat(args) -> int:
    obj = _load_json(args)
    if not isinstance(obj["members"], list):
        raise TypeError('"members" must be a list')
    members = []
    for i, member in enumerate(obj["members"]):
        try:
            members.append(WeilDeligneRep.from_json(member))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"members[{i}]: {exc}") from None
    fam = compatibility_family(members, args.nmax)
    report = {"verdict": "COMPATIBLE" if fam.compatible else "INCOMPATIBLE",
              "members": len(members), "nmax": fam.depth,
              "version": __version__}
    lines = _banner(args)
    lines.append(f"members: {len(members)}, depth n <= {fam.depth}")
    if fam.compatible:
        lines.append("verdict: COMPATIBLE")
    else:
        idx, key, got, ref = fam.witness
        report["witness"] = {"member": idx, "entry": str(key),
                             "value": str(got), "reference": str(ref)}
        lines.append(f"verdict: INCOMPATIBLE at member {idx}, entry {key}: "
                     f"{got} != {ref}")
    _emit(args, lines, report)
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks(args):
    """Yield (name, callable) pairs; a callable raises on failure."""
    from . import corpus, oracles
    from .modules import horizontal_sections
    from .weil_deligne import monodromy_filtration, weight_of_eigenvalue

    def sections_vs_recurrence():
        for builder in (corpus.kummer_tate, corpus.constant_trivial,
                        corpus.half_twist):
            m = builder()
            tg = {}
            for i in range(m.rank):
                for j in range(m.rank):
                    for k, c in m.G[i][j].shift(1).coeffs.items():
                        tg.setdefault(k, [[Fraction(0)] * m.rank
                                          for _ in range(m.rank)])
                        tg[k][i][j] = c.to_fraction()
            rep = oracles.ode_recurrence_solutions(tg, m.rank, (-8, 8))
            try:
                sections = horizontal_sections(m)
            except PhinablaError:
                sections = []
            assert len(rep.solutions) == len(sections), \
                f"{m.label}: {len(rep.solutions)} != {len(sections)}"

    def filtration_axioms():
        import random
        rng = random.Random(7)
        for _ in range(25):
            d = rng.randint(1, 5)
            N = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                  for j in range(d)] for i in range(d)]
            fil = monodromy_filtration(N)
            ok, witness = oracles.verify_monodromy_axioms(
                N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
            assert ok, f"axioms fail: {witness}"

    def weights_agree():
        from .errors import NotWeil
        cases = [([-2, 1], 2), ([2, 0, 1], 2), ([5, -2, 1], 5),
                 ([3, -4, 1], 3), ([4, -4, 4, -2, 1], 2)]
        for poly, q in cases:
            expected = sorted(set(oracles.algebraic_weight(poly, q)))
            if len(expected) == 1:
                assert weight_of_eigenvalue(poly, q) == expected[0], \
                    (poly, q)
            else:
                # mixed weights: the single-weight detector must refuse
                try:
                    weight_of_eigenvalue(poly, q)
                except NotWeil:
                    pass
                else:
                    raise AssertionError(f"mixed weights accepted: {poly}")

    def point_count_purity():
        from .weil_deligne import purity_check
        for p, coeffs in ((2, (0, 0, 1, 0, 0)), (5, (0, 0, 0, 1, 0)),
                          (7, (0, 0, 0, 1, 0))):
            cc = oracles.count_points_weierstrass(p, coeffs)
            prm = corpus.ring(p=p, precision=args.precision,
                              window=args.t_window)
            m = corpus.good_elliptic_h1(prm, a=cc.trace)
            rep, _ = wd_extract(m)
            assert purity_check(rep, 1).pure, f"p={p}"

    def precision_stability():
        lo = _corpus_invariants(args.precision, args.t_window)
        hi = _corpus_invariants(2 * args.precision, 2 * args.t_window)
        assert lo == hi, f"{lo} != {hi}"

    return [
        ("horizontal sections vs ODE recurrence", sections_vs_recurrence),
        ("monodromy filtration axioms (25 random)", filtration_axioms),
        ("weight detection vs algebraic_weight", weights_agree),
        ("point-count purity at p in {2,5,7}", point_count_purity),
        ("precision stability (N,M) vs (2N,2M)", precision_stability),
    ]


def _corpus_invariants(precision, window):
    from . import corpus
    from .weil_deligne import quasi_purity_check

    prm = corpus.ring(precision=precision, window=window)
    out = {}
    m = corpus.kummer_tate(prm)
    rep, trace = wd_extract(m)
    out["kt"] = (rep.dim, linalg.rank(rep.N), rep.inertia_order,
                 trace.cover_degree, quasi_purity_check(rep, 1).pure)
    half = corpus.half_twist(prm)
    rep2, tr2 = wd_extract(half)
    out["half"] = (rep2.dim, rep2.inertia_order, tr2.cover_degree)
    tate = _reduction(corpus.tate_abelian_datum(prm))
    out["tate_reduction"] = tate.verdict.value
    out["tate_ranks"] = (tate.profile.mu, tate.profile.alpha,
                         tate.profile.lam)
    good = corpus.good_elliptic_datum(prm)
    out["good_reduction"] = reduction_type(good).value
    bad = corpus.bad_reduction_datum(prm)
    out["bad_reduction"] = reduction_type(bad).value
    oc = corpus.open_tate_curve(prm)
    exc = excision_weight_filtration(oc)
    out["excision"] = (exc.ok, exc.gr1_rank, exc.gr2_rank)
    return out


def cmd_selftest(args) -> int:
    from . import corpus
    # a bad --precision or --t-window is an input error, not a failed check
    corpus.ring(precision=args.precision, window=args.t_window)
    lines = _banner(args)
    results = []
    failed = 0
    for name, check in _selftest_checks(args):
        try:
            check()
            results.append({"check": name, "status": "PASS"})
            lines.append(f"PASS  {name}")
        except Exception as exc:  # report, do not abort the table
            failed += 1
            results.append({"check": name, "status": "FAIL",
                            "detail": str(exc)})
            lines.append(f"FAIL  {name}: {exc}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(args, lines, {"results": results, "failed": failed,
                        "version": __version__})
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": cmd_analyze, "wd": cmd_wd,
                "reduction": cmd_reduction, "excision": cmd_excision,
                "compat": cmd_compat, "selftest": cmd_selftest}
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except PhinablaError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
