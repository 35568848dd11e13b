"""Diagnostics: rank profiles, reduction types, weight filtrations,
excision, ell-independence."""

import pathlib
from fractions import Fraction

import pytest

from phinabla import cli, corpus, linalg, modules
from phinabla.diagnostics import (AbelianVarietyDatum, OpenCurveDatum,
                                  ReductionType, _restricted,
                                  check_weight_monodromy,
                                  ell_independence_check,
                                  excision_weight_filtration, rank_profile,
                                  reduction_type,
                                  semistable_weight_filtration,
                                  wd_weight_filtration_flags)
from phinabla.errors import (DiagnosticConflict, InconsistentRanks,
                             MissingPairing, NotEquivariant, PurityFailure)
from phinabla.extraction import wd_extract
from phinabla.modules import PhiNablaModule, dual, tensor
from phinabla.series import LaurentElement
from phinabla.weil_deligne import GradedReport, WeilDeligneRep, special_rep

from helpers import count_calls, same_space


P = corpus.ring()
F = Fraction


# -- rank profiles ----------------------------------------------------------

def test_tate_profile():
    prof = rank_profile(corpus.tate_abelian_datum(P))
    assert (prof.mu, prof.alpha, prof.lam) == (1, 0, 0)


def test_good_profile():
    prof = rank_profile(corpus.good_elliptic_datum(P))
    assert (prof.mu, prof.alpha, prof.lam) == (0, 1, 0)


def test_bad_profile_needs_no_pairing():
    prof = rank_profile(corpus.bad_reduction_datum(P))
    assert (prof.mu, prof.alpha, prof.lam) == (0, 0, 1)


def test_missing_pairing_raises():
    m = corpus.tate_abelian_datum(P).module
    with pytest.raises(MissingPairing):
        rank_profile(AbelianVarietyDatum(m))
    with pytest.raises(MissingPairing, match="W_-2 requires the Weil"):
        semistable_weight_filtration(AbelianVarietyDatum(m))


def test_odd_rank_rejected():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1]], connection=[[0]])
    with pytest.raises(InconsistentRanks):
        AbelianVarietyDatum(m)


def test_rank_identities():
    for builder in (corpus.tate_abelian_datum, corpus.good_elliptic_datum):
        d = builder(P)
        prof = rank_profile(d)
        from phinabla.modules import horizontal_sections
        rk_f = len(horizontal_sections(d.module))
        assert d.module.rank == 2 * prof.n
        assert rk_f == prof.mu + 2 * prof.alpha


def test_profile_agrees_with_dual_datum(monkeypatch):
    d = corpus.tate_abelian_datum(P)
    # the dual abelian variety of the Tate curve is itself: given as a
    # module of its own, it is solved on its own and gives the same profile
    copy = corpus.tate_abelian_datum(P).module
    separate = AbelianVarietyDatum(d.module, copy, d.pairing)
    profiles = []
    for datum, solves in ((d, 1), (separate, 2)):
        assert count_calls(monkeypatch, modules, "_solve_class",
                           lambda: profiles.append(rank_profile(datum))) \
            == solves
    assert profiles[0] == profiles[1]
    assert (profiles[0].n, profiles[0].mu, profiles[0].alpha,
            profiles[0].lam) == (1, 1, 0, 0)


def test_pairing_axioms_are_enforced():
    m = corpus.good_elliptic_datum(P).module
    bad_pairing = [[LaurentElement.one(P), LaurentElement.zero(P)],
                   [LaurentElement.zero(P), LaurentElement.one(P)]]
    with pytest.raises(MissingPairing):
        AbelianVarietyDatum(m, pairing=bad_pairing)
    # a pairing of another size is not perfect, the empty one included
    with pytest.raises(MissingPairing, match="not perfect"):
        AbelianVarietyDatum(m, pairing=[])
    with pytest.raises(MissingPairing, match="not perfect"):
        AbelianVarietyDatum(m, pairing=[[LaurentElement.one(P)]])


def test_pairing_off_the_connection_is_refused():
    # the Tate pairing against a Frobenius-free dual whose connection is
    # G + 1: d/dt P = G^T P + P G, so the right side is off by P
    datum = corpus.tate_abelian_datum(P)
    m, one = datum.module, LaurentElement.one(P)
    G = [[x + one if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(m.G)]
    with pytest.raises(MissingPairing, match="pairing is not horizontal"):
        AbelianVarietyDatum(m, dual_module=PhiNablaModule(P, 2, None, G),
                            pairing=datum.pairing)


def test_rank_zero_datum_is_good():
    # the empty pairing of a rank-0 module is perfect; it was refused
    m = PhiNablaModule(P, 0, [], [], "")
    datum = AbelianVarietyDatum(m, pairing=[])
    assert reduction_type(datum) is ReductionType.GOOD
    prof = rank_profile(datum)
    assert (prof.n, prof.mu, prof.alpha, prof.lam) == (0, 0, 0, 0)
    assert semistable_weight_filtration(datum).ranks == {-2: 0, -1: 0, 0: 0}


# -- reduction types --------------------------------------------------------

def test_reduction_verdicts():
    assert reduction_type(corpus.good_elliptic_datum(P)) \
        is ReductionType.GOOD
    assert reduction_type(corpus.tate_abelian_datum(P)) \
        is ReductionType.SEMISTABLE_NOT_GOOD
    assert reduction_type(corpus.bad_reduction_datum(P)) \
        is ReductionType.NOT_SEMISTABLE


# -- weight filtration ------------------------------------------------------

def test_tate_weight_filtration():
    wf = semistable_weight_filtration(corpus.tate_abelian_datum(P))
    assert wf.ranks == {-2: 1, -1: 1, 0: 2}
    # the pieces are weil_deligne's graded reports, as in a purity check
    assert all(type(g) is GradedReport for g in wf.graded)
    assert [(g.index, g.rank, g.weights, g.expected, g.pure, g.failure)
            for g in wf.graded] == [(-2, 1, [F(-2)], -2, True, None),
                                    (0, 1, [F(0)], 0, True, None)]


def test_weight_filtration_needs_semistability():
    with pytest.raises(DiagnosticConflict,
                       match="weight filtration needs semistability"):
        semistable_weight_filtration(corpus.bad_reduction_datum(P))


def test_good_weight_filtration():
    wf = semistable_weight_filtration(corpus.good_elliptic_datum(P))
    assert wf.ranks == {-2: 0, -1: 2, 0: 2}
    graded = {g.index: (g.rank, g.weights) for g in wf.graded}
    assert graded == {-1: (2, [F(-1)])}


def test_weight_filtration_purity_failure():
    # Frobenius diag(1,1) with the KT connection: Gr_-2 would need
    # weight -2 but carries weight 0
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[F(1, 5), 0], [0, 1]],
        connection=[[0, {-1: 1}], [0, 0]])
    datum = AbelianVarietyDatum(m, pairing=corpus.symplectic_pairing(P))
    # sanity: this is the honest Tate datum, so no failure here
    semistable_weight_filtration(datum)
    wrong = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[F(1, 5), 0], [0, 1]],
        connection=[[0, 0], [0, 0]])
    datum2 = AbelianVarietyDatum(wrong,
                                 pairing=corpus.symplectic_pairing(P))
    with pytest.raises(PurityFailure):
        semistable_weight_filtration(datum2)


def test_restriction_needs_a_phi_invariant_subspace():
    # phi e_1 = e_1 + e_2 leaves span(e_1); span(e_2) is kept, and phi is
    # 5 on it and 1 on the quotient
    phi = [[F(1), F(0)], [F(1), F(5)]]
    with pytest.raises(DiagnosticConflict,
                       match="subspace is not phi-invariant"):
        _restricted(phi, [[[F(1), F(0)]]])
    pieces = _restricted(phi, [[[F(0), F(1, 3)]], linalg.identity(2)])
    assert [[[F(y, s) for y in row] for row in Y] for Y, s in pieces] == \
        [[[5]], [[1]]]


def _gauged_tate():
    """The Tate datum in the basis e'_j = sum U_ij e_i, U = [[1, 0], [u, 1]]
    with u = t - 3t^2/2; its section of D^f is not constant there."""
    d = corpus.tate_abelian_datum(P)
    one, zero = LaurentElement.one(P), LaurentElement.zero(P)
    u = LaurentElement.from_terms(P, [(1, F(1)), (2, F(-3, 2))])
    U = [[one, zero], [u, one]]
    pairing = modules.lmat_mul(linalg.transpose(U),
                               modules.lmat_mul(d.pairing, U))
    return AbelianVarietyDatum(modules.GaugeChange(U).apply(d.module),
                               pairing=pairing)


def test_wd_filtration_matches_monodromy_shifted():
    for datum, constant in ((corpus.tate_abelian_datum(P), True),
                            (_gauged_tate(), False)):
        section, = semistable_weight_filtration(datum).sections
        assert all(x.is_constant() for x in section) is constant
        flags, fil, _rep = wd_weight_filtration_flags(datum)
        for k in (-2, -1, 0):
            assert same_space(flags[k], fil.basis(k + 1)), k


# -- each solve once per call ----------------------------------------------

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("run, solves", [
    # the log basis of the unipotent filtration, whose log-degree-0
    # solutions are the sections of D(A) and, the datum being self-dual,
    # those of its dual
    pytest.param(lambda: semistable_weight_filtration(
        corpus.tate_abelian_datum(P)), 1, id="weight-filtration"),
    # the same: the representation is read off that filtration
    pytest.param(lambda: wd_weight_filtration_flags(
        corpus.tate_abelian_datum(P)), 1, id="wd-flags"),
    # the extraction's filtration gives the unipotence level
    pytest.param(lambda: cli.main(
        ["analyze", str(CORPUS / "kummer_tate.json")]), 1,
        id="cli-analyze-kt"),
    pytest.param(lambda: cli.main(
        ["analyze", str(CORPUS / "good_elliptic_h1.json")]), 1,
        id="cli-analyze-h1"),
    pytest.param(lambda: cli.main(
        ["reduction", str(CORPUS / "tate_abelian.json")]), 1,
        id="cli-tate"),
    # GOOD and self-dual: the sections of D(A) serve for the dual
    pytest.param(lambda: cli.main(
        ["reduction", str(CORPUS / "good_elliptic.json")]), 1,
        id="cli-good"),
    # no section: the dual is not solved
    pytest.param(lambda: cli.main(
        ["reduction", str(CORPUS / "bad_reduction.json")]), 1,
        id="cli-bad"),
    # the selftest's precision-stability record: kummer_tate and half_twist
    # extractions, one reduction record per datum and the excision
    pytest.param(lambda: cli._corpus_invariants(20, 32), 7,
                 id="selftest-invariants"),
])
def test_each_solve_runs_once(run, solves, monkeypatch, capsys):
    # per-class calls of the one nabla solver
    assert count_calls(monkeypatch, modules, "_solve_class", run) == solves


@pytest.mark.parametrize("run", [
    pytest.param(lambda: wd_extract(tensor(corpus.kummer_tate(P),
                                           corpus.kummer_tate(P))),
                 id="wd-kt*kt"),
    pytest.param(lambda: semistable_weight_filtration(
        corpus.tate_abelian_datum(P)), id="weight-filtration"),
    pytest.param(lambda: wd_weight_filtration_flags(
        corpus.tate_abelian_datum(P)), id="wd-flags"),
    pytest.param(lambda: cli.main(
        ["analyze", str(CORPUS / "kummer_tate.json")]), id="cli-analyze-kt"),
    pytest.param(lambda: cli.main(
        ["reduction", str(CORPUS / "tate_abelian.json")]), id="cli-tate"),
])
def test_answers_build_no_gauge(run, monkeypatch, capsys):
    # Phi and N are read off the filtration's solution coordinates; its
    # gauge and constant gauged module are built only for a caller that
    # reads them
    assert count_calls(monkeypatch, modules, "GaugeChange", run) == 0


def test_analyze_reads_frobenius_once_per_solution(monkeypatch, capsys):
    # one image per log solution of Kummer-Tate, in the extraction's read
    assert count_calls(monkeypatch, modules, "_frobenius_image",
                       lambda: cli.main(
                           ["analyze", str(CORPUS / "kummer_tate.json")])) \
        == 2


def test_two_answers_on_one_datum_read_its_residue_once(monkeypatch):
    # the verdict and the weight filtration each solve the datum's module;
    # the module keeps the residue record the first solve read
    d = corpus.tate_abelian_datum(P)
    assert count_calls(monkeypatch, modules, "_residue", lambda: (
        reduction_type(d), semistable_weight_filtration(d))) == 1


def test_frobenius_on_d_f_is_read_once(monkeypatch):
    # one image per log solution, in the filtration; phi on D^f is its
    # first diagonal block, not a second pass over the sections
    assert count_calls(monkeypatch, modules, "_frobenius_image",
                       lambda: semistable_weight_filtration(
                           corpus.tate_abelian_datum(P))) == 2


# -- weight monodromy -------------------------------------------------------

def test_wmc_kt():
    assert check_weight_monodromy(corpus.kummer_tate(P), 1).pure


def test_wmc_good_h1():
    assert check_weight_monodromy(corpus.good_elliptic_h1(P), 1).pure


def test_wmc_failure_detected():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 1]], connection=[[0, 0], [0, 0]])
    assert not check_weight_monodromy(m, 1).pure


# -- excision ---------------------------------------------------------------

def test_open_tate_curve_excision():
    rep = excision_weight_filtration(corpus.open_tate_curve(P))
    assert rep.ok
    assert rep.gr1_rank == 2
    assert rep.gr2_rank == 1
    assert rep.gr2_weights == [F(2)]


def test_proper_curve_degenerates():
    rep = excision_weight_filtration(corpus.proper_tate_curve(P))
    assert rep.ok
    assert rep.gr2_rank == 0


def test_injective_boundary_kills_gr2():
    oc = corpus.open_tate_curve(P)
    h0_single = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[5]], connection=[[0]])
    datum = OpenCurveDatum(oc.h1_compact, h0_single, oc.h2_compact,
                           [[LaurentElement.one(P)]])
    rep = excision_weight_filtration(datum)
    assert rep.gr2_rank == 0 and rep.ok


def test_non_equivariant_boundary_rejected():
    oc = corpus.open_tate_curve(P)
    bad = [[LaurentElement.monomial(P, 1), LaurentElement.one(P)]]
    datum = OpenCurveDatum(oc.h1_compact, oc.h0_boundary_twisted,
                           oc.h2_compact, bad)
    with pytest.raises(NotEquivariant):
        excision_weight_filtration(datum)


def test_boundary_map_off_the_connection_rejected():
    # H^2 with connection 1/t: the boundary map commutes with phi but
    # d/dt F + G F = F / t is not F G = 0
    oc = corpus.open_tate_curve(P)
    h2 = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[5]], connection=[[{-1: 1}]])
    datum = OpenCurveDatum(oc.h1_compact, oc.h0_boundary_twisted, h2,
                           oc.boundary_map)
    with pytest.raises(NotEquivariant,
                       match="boundary map is not nabla-equivariant"):
        excision_weight_filtration(datum)


def test_gr2_of_weight_four_is_impure():
    # H^0(D)(-1) with Frobenius p^2 and a zero boundary map: all of it is
    # Gr_2, of weight 4
    oc = corpus.open_tate_curve(P)
    h0 = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[25]], connection=[[0]])
    datum = OpenCurveDatum(oc.h1_compact, h0, oc.h2_compact,
                           [[LaurentElement.zero(P)]])
    with pytest.raises(PurityFailure, match="Gr_2 weights .*, expected 2"):
        excision_weight_filtration(datum)


def test_boundary_into_rank_zero_h2_keeps_all_of_h0():
    # H^2 of rank 0: the boundary map is empty and Gr_2 is all of H^0(D)(-1)
    oc = corpus.open_tate_curve(P)
    h0 = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[5]], connection=[[0]])
    datum = OpenCurveDatum(oc.h1_compact, h0, PhiNablaModule(P, 0, [], [], ""),
                           [])
    rep = excision_weight_filtration(datum)
    assert rep.ok
    assert (rep.gr1_rank, rep.gr2_rank, rep.gr2_weights) == (2, 1, [F(2)])


# -- ell-independence -------------------------------------------------------

def test_family_with_ell_adic_member():
    from phinabla.extraction import wd_extract
    rep, _ = wd_extract(corpus.kummer_tate(P))
    fam = ell_independence_check(rep, [corpus.ell_adic_sp2(5)], 6)
    assert fam.compatible


def test_family_detects_mismatch():
    from phinabla.extraction import wd_extract
    rep, _ = wd_extract(corpus.kummer_tate(P))
    unram = WeilDeligneRep(5, [[1, 0], [0, 5]])
    fam = ell_independence_check(rep, [unram], 6)
    assert not fam.compatible
    assert fam.witness is not None


def test_singleton_family():
    assert ell_independence_check(special_rep(5), [], 6).compatible
