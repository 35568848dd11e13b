"""Acceptance gate: nine end-to-end criteria with runtime bounds.

Every numeric claim here is exact (Fraction arithmetic throughout); the
only tolerances are wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from phinabla import corpus, linalg
from phinabla.cli import main as cli_main
from phinabla.diagnostics import (ReductionType, excision_weight_filtration,
                                  rank_profile, reduction_type,
                                  wd_weight_filtration_flags)
from phinabla.errors import NotTame
from phinabla.extraction import wd_extract
from phinabla.modules import (PhiNablaModule, check_compatibility,
                              horizontal_sections, kummer_pullback,
                              lmat_is_zero)
from phinabla.oracles import (brute_force_filtrations,
                              count_points_weierstrass,
                              verify_monodromy_axioms, _rank)
from phinabla.weil_deligne import (WeilDeligneRep, compatibility_family,
                                   monodromy_filtration, purity_check,
                                   quasi_purity_check)

from helpers import random_shear_gauge, same_space


F = Fraction
P = corpus.ring()


def random_nilpotent(rng, d):
    N = [[F(rng.randint(-2, 2)) if j > i else F(0) for j in range(d)]
         for i in range(d)]
    U = [[F(1) if i == j else F(rng.randint(-1, 1)) if j > i else F(0)
          for j in range(d)] for i in range(d)]
    Ui = linalg.mat_inv(U)
    return linalg.mat_mul(Ui, linalg.mat_mul(N, U))


# -- criterion 1: exact compatibility under random gauges --------------------

def test_c1_kummer_tate_gauge_orbit():
    start = time.perf_counter()
    rng = random.Random(2026)
    wide = corpus.ring(window=64)
    m = corpus.kummer_tate(wide)
    rep = check_compatibility(m)
    assert rep.compatible and lmat_is_zero(rep.residual)
    for _ in range(10):
        g = random_shear_gauge(rng, wide, 2)
        moved = g.apply(m)
        rep = check_compatibility(moved)
        assert rep.compatible, "gauge broke compatibility"
        assert lmat_is_zero(rep.residual), "residual is not exactly zero"
    assert time.perf_counter() - start < 1.0


# -- criterion 2: monodromy filtration axioms and uniqueness -----------------

def test_c2_filtration_axioms_200_random():
    start = time.perf_counter()
    rng = random.Random(41)
    for _ in range(200):
        d = rng.randint(1, 6)
        N = random_nilpotent(rng, d)
        fil = monodromy_filtration(N)
        ok, witness = verify_monodromy_axioms(
            N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
        assert ok, witness
    assert time.perf_counter() - start < 10.0


def test_c2_filtration_uniqueness_small_dims():
    start = time.perf_counter()
    # one nilpotent per Jordan type up to dimension 4, exhaustively
    def jordan(blocks):
        d = sum(blocks)
        N = [[F(0)] * d for _ in range(d)]
        pos = 0
        for b in blocks:
            for i in range(b - 1):
                N[pos + i][pos + i + 1] = F(1)
            pos += b
        return N

    types = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
             (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for blocks in types:
        N = jordan(blocks)
        found = brute_force_filtrations(N)
        assert len(found) == 1, f"non-unique for Jordan type {blocks}"
        fil = monodromy_filtration(N)
        got = found[0]
        for k in range(-fil.s, fil.s + 1):
            assert _rank(got[k]) == fil.rank(k), (blocks, k)
    assert time.perf_counter() - start < 10.0


# -- criterion 3: quasi-purity and point-count purity ------------------------

def test_c3_kt_quasi_pure_graded_weights():
    rep, _ = wd_extract(corpus.kummer_tate(P))
    assert not purity_check(rep, 1).pure
    qp = quasi_purity_check(rep, 1)
    assert qp.pure
    assert {g.index: g.weights for g in qp.graded} == {-1: [F(0)],
                                                       1: [F(2)]}


def test_c3_purity_from_point_counts():
    cases = ((2, (0, 0, 1, 0, 0)), (5, (0, 0, 0, 1, 0)),
             (7, (0, 0, 0, 1, 0)), (7, (0, 0, 0, 1, 1)))
    for p, coeffs in cases:
        cc = count_points_weierstrass(p, coeffs)
        # alpha * conj(alpha) = p: the constant term of T^2 - aT + p
        assert cc.charpoly == (p, -cc.trace, 1)
        prm = corpus.ring(p=p)
        m = corpus.good_elliptic_h1(prm, a=cc.trace)
        rep, _ = wd_extract(m)
        assert all(x == 0 for row in rep.N for x in row)
        chi = linalg.charpoly(rep.phi)
        assert list(chi) == [F(p), F(-cc.trace), F(1)], (p, coeffs)
        assert purity_check(rep, 1).pure, (p, coeffs)


# -- criterion 4: reduction types and rank identities ------------------------

def test_c4_reduction_trio_and_ranks():
    trio = ((corpus.good_elliptic_datum(P), ReductionType.GOOD, (0, 1, 0)),
            (corpus.tate_abelian_datum(P),
             ReductionType.SEMISTABLE_NOT_GOOD, (1, 0, 0)),
            (corpus.bad_reduction_datum(P),
             ReductionType.NOT_SEMISTABLE, (0, 0, 1)))
    for datum, verdict, (mu, alpha, lam) in trio:
        assert reduction_type(datum) is verdict
        prof = rank_profile(datum)
        assert (prof.mu, prof.alpha, prof.lam) == (mu, alpha, lam)
        assert datum.module.rank == 2 * prof.n
        rk_f = len(horizontal_sections(datum.module))
        assert rk_f == prof.mu + 2 * prof.alpha
        assert prof.n == prof.mu + prof.alpha + prof.lam


# -- criterion 5: weight filtration vs monodromy filtration ------------------

def test_c5_wd_of_weight_filtration_is_shifted_monodromy():
    flags, fil, rep = wd_weight_filtration_flags(
        corpus.tate_abelian_datum(P))
    assert set(flags) == {-2, -1, 0}
    for k in sorted(flags):
        assert same_space(flags[k], fil.basis(k + 1)), k
    # and the comparison is non-degenerate: the three flags are distinct
    assert len(flags[-2]) == 1
    assert len(flags[-1]) == 1
    assert len(flags[0]) == 2


# -- criterion 6: excision ---------------------------------------------------

def test_c6_excision():
    rep = excision_weight_filtration(corpus.open_tate_curve(P))
    assert rep.ok
    assert rep.gr1_rank == 2 and rep.gr1_report.pure
    assert rep.gr2_rank == 1 and rep.gr2_weights == [F(2)]
    proper = excision_weight_filtration(corpus.proper_tate_curve(P))
    assert proper.ok and proper.gr2_rank == 0


# -- criterion 7: compatible families ----------------------------------------

def test_c7_family_compatibility_and_witness():
    rep, _ = wd_extract(corpus.kummer_tate(P))
    ell = corpus.ell_adic_sp2(5)
    fam = compatibility_family([rep, ell], 6)
    assert fam.compatible
    unram = WeilDeligneRep(5, [[F(1), F(0)], [F(0), F(5)]])
    bad = compatibility_family([rep, ell, unram], 6)
    assert not bad.compatible
    idx, key, got, ref = bad.witness
    assert idx == 2
    k, n = key
    assert isinstance(n, int) and 1 <= n <= 6


# -- criterion 8: tame covers ------------------------------------------------

def test_c8_half_exponent_trivialized_by_degree_two_cover():
    m = corpus.half_twist(P)
    assert horizontal_sections(m) == []
    pulled = kummer_pullback(m, 2)
    assert len(horizontal_sections(pulled)) == 1
    rep, trace = wd_extract(m)
    assert trace.cover_degree == 2
    assert rep.inertia_order == 2
    assert rep.inertia_matrix == [[F(-1)]]
    assert rep.N == [[F(0)]]


def test_c8_wild_exponent_refused():
    with pytest.raises(NotTame):
        wd_extract(corpus.wild_module(P))


# -- criterion 9: precision robustness ---------------------------------------

def invariant_snapshot(precision, window):
    prm = corpus.ring(precision=precision, window=window)
    out = {}
    rep, trace = wd_extract(corpus.kummer_tate(prm))
    out["kt_phi"] = rep.phi
    out["kt_N"] = rep.N
    out["kt_cover"] = trace.cover_degree
    rep2, tr2 = wd_extract(corpus.half_twist(prm))
    out["half"] = (rep2.inertia_order, tr2.cover_degree, rep2.N)
    out["tate"] = reduction_type(corpus.tate_abelian_datum(prm)).value
    prof = rank_profile(corpus.tate_abelian_datum(prm))
    out["tate_ranks"] = (prof.mu, prof.alpha, prof.lam)
    out["good"] = reduction_type(corpus.good_elliptic_datum(prm)).value
    out["bad"] = reduction_type(corpus.bad_reduction_datum(prm)).value
    exc = excision_weight_filtration(corpus.open_tate_curve(prm))
    out["excision"] = (exc.ok, exc.gr1_rank, exc.gr2_rank,
                       [str(w) for w in exc.gr2_weights])
    return out


def test_c9_precision_robustness_and_selftest(capsys):
    start = time.perf_counter()
    lo = invariant_snapshot(20, 32)
    hi = invariant_snapshot(40, 64)
    assert lo == hi
    code = cli_main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 checks passed" in out
    assert time.perf_counter() - start < 60.0
