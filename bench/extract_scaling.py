"""Workload extract_scaling: module-to-WD extraction and the diagnostics, in
process, as rank grows from 1 to 4.

Nearly all of its time is in padic, series, linalg.field_kernel, modules,
extraction and diagnostics; almost none is in the weil_deligne weights.
The seed picks the coefficients of power-series shear gauges (exponents
>= 0) applied to the rank-2 and rank-4 inputs before solving; the shapes of
the gauges are fixed, so every seed asks for comparable work.  Each
extraction is checked by comparing its trace table with that of a
representation built by hand from the ungauged input's known WD data.
"""

from __future__ import annotations

from fractions import Fraction

from harness import Op, rank

TRACE_DEPTH = 4
RESONANCE_DEFECT = ("horizontal_sections misses the section t^12 of "
                    "G = -12/t: the solve window is capped to [-10, 10]")

# (row, column, t-exponent) of each shear U = I + c t^k E_row,col
GAUGE_SHAPES = {
    "kt": ((1, 0, 1),),
    "kt+h1": ((0, 3, 1),),
    "kt*kt": ((0, 2, 0), (1, 3, 1)),
}


def _unit_coefficient(rng, p):
    while True:
        num, den = rng.randint(1, 12), rng.randint(1, 12)
        if num % p and den % p:
            return Fraction(rng.choice((1, -1)) * num, den)


def _gauged(m, shape, rng):
    from phinabla.modules import GaugeChange, lmat_identity
    from phinabla.series import LaurentElement

    U = lmat_identity(m.params, m.rank)
    for i, j, k in shape:
        U[i][j] = LaurentElement.monomial(
            m.params, k, _unit_coefficient(rng, m.params.p))
    return GaugeChange(U).apply(m)


def _kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def _block_diag(A, B):
    n, m = len(A), len(B)
    return ([list(r) + [0] * m for r in A]
            + [[0] * n + list(r) for r in B])


def references(q=5):
    """Hand-built WD data of the ungauged inputs (geometric Frobenius)."""
    from phinabla.weil_deligne import WeilDeligneRep

    I2 = [[1, 0], [0, 1]]
    sp_phi, sp_N = [[1, 0], [0, q]], [[0, 1], [0, 0]]
    good_phi = [[0, -q], [1, 2]]          # companion of T^2 - 2T + q
    zero2 = [[0, 0], [0, 0]]
    tensor_N = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(_kron(sp_N, I2), _kron(I2, sp_N))]
    return {
        "half_twist": WeilDeligneRep(q, [[1]], [[0]], 2, [[-1]]),
        "kt": WeilDeligneRep(q, sp_phi, sp_N),
        "kt+h1": WeilDeligneRep(q, _block_diag(sp_phi, good_phi),
                                _block_diag(sp_N, zero2)),
        "kt*kt": WeilDeligneRep(q, _kron(sp_phi, sp_phi), tensor_N),
    }


def _same_traces(ref_table):
    def check(out):
        from phinabla import weil_deligne
        rep, _trace = out
        return weil_deligne.trace_table(rep, TRACE_DEPTH) == ref_table
    return check


def _spans_equal(a, b):
    return rank(a) == rank(b) == rank(list(a) + list(b))


def _flags_match_monodromy(out):
    """WD(W_k) = M_{k+1} for the Tate curve, with the expected ranks."""
    flags, fil, rep = out
    ranks = {k: len(v) for k, v in flags.items()}
    return (ranks == {-2: 1, -1: 1, 0: 2}
            and all(_spans_equal(flags[k], fil.basis(k + 1))
                    for k in flags))


def _is_t12(sections):
    if len(sections) != 1 or len(sections[0]) != 1:
        return False
    return sorted(sections[0][0].coeffs) == [12]


def build(seed):
    import random

    from phinabla import (corpus, diagnostics, extraction, modules,
                          weil_deligne)
    from phinabla.modules import PhiNablaModule, direct_sum, tensor

    rng = random.Random(seed)
    kt = corpus.kummer_tate()
    inputs = {
        "half_twist": corpus.half_twist(),
        "kt": kt,
        "kt+h1": direct_sum(kt, corpus.good_elliptic_h1()),
        "kt*kt": tensor(kt, kt),
    }
    for key, shape in GAUGE_SHAPES.items():
        inputs[key] = _gauged(inputs[key], shape, rng)
    tables = {key: weil_deligne.trace_table(rep, TRACE_DEPTH)
              for key, rep in references().items()}
    stages = {"half_twist": "r2", "kt": "r2", "kt+h1": "r4", "kt*kt": "r4"}
    ops = [Op(f"wd_extract[{key}]", stages[key],
              lambda m=m: extraction.wd_extract(m), _same_traces(tables[key]))
           for key, m in inputs.items()]

    datum = corpus.tate_abelian_datum()
    open_curve = corpus.open_tate_curve()
    ops += [
        Op("reduction_type", "diagnose",
           lambda: diagnostics.reduction_type(datum),
           lambda v: v is diagnostics.ReductionType.SEMISTABLE_NOT_GOOD),
        Op("rank_profile", "diagnose",
           lambda: diagnostics.rank_profile(datum),
           lambda r: (r.n, r.mu, r.alpha, r.lam) == (1, 1, 0, 0)),
        Op("semistable_weight_filtration", "diagnose",
           lambda: diagnostics.semistable_weight_filtration(datum),
           lambda w: (w.ranks == {-2: 1, -1: 1, 0: 2}
                      and [(g.index, g.rank, g.weights, g.pure)
                           for g in w.graded]
                      == [(-2, 1, [-2], True), (0, 1, [0], True)])),
        Op("wd_weight_filtration_flags", "diagnose",
           lambda: diagnostics.wd_weight_filtration_flags(datum),
           _flags_match_monodromy),
        Op("excision_weight_filtration", "diagnose",
           lambda: diagnostics.excision_weight_filtration(open_curve),
           lambda r: (r.ok, r.gr1_rank, r.gr2_rank, r.gr2_weights)
           == (True, 2, 1, [2])),
    ]
    resonant = PhiNablaModule.from_rational_matrices(
        corpus.ring(), connection=[[{-1: -12}]], label="resonance_t12")
    ops.append(Op("horizontal_sections[G=-12/t]", "probe",
                  lambda: modules.horizontal_sections(resonant), _is_t12,
                  RESONANCE_DEFECT))
    return ops


WARMUP = ("wd_extract[half_twist]", "reduction_type",
          "semistable_weight_filtration", "horizontal_sections[G=-12/t]")


def warmup(ops):
    """The cheap operations that reach every lazy import and code path."""
    for op in ops:
        if op.name in WARMUP:
            op.run()


def named_metrics(ops, medians, stages, p50, p90):
    def n(stage):
        return sum(op.stage == stage for op in ops)
    return [
        ("extract_r2_s", stages["r2"], "s",
         f"sum of {n('r2')} rank<=2 wd_extract medians"),
        ("extract_r4_s", stages["r4"], "s",
         f"sum of {n('r4')} rank-4 wd_extract medians"),
        ("diagnose_s", stages["diagnose"], "s",
         f"sum of {n('diagnose')} diagnostics medians"),
    ]
