"""The (phi, nabla)-module layer."""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phinabla import cli, corpus, linalg, modules
from phinabla.corpus import tate_abelian_datum
from phinabla.diagnostics import (AbelianVarietyDatum, ReductionType,
                                  rank_profile, reduction_type)
from phinabla.extraction import log_solution_basis, wd_extract
from phinabla.errors import (DiagnosticConflict, IrregularSingularity,
                             MissingStructure, NonInvertible, PhinablaError,
                             WildCover, WindowTooSmall)
from phinabla.modules import (GaugeChange, PhiNablaModule,
                              check_compatibility,
                              direct_sum, dual, horizontal_sections,
                              kummer_pullback, largest_constant_submodule,
                              lmat_add, lmat_ddt, lmat_det, lmat_identity,
                              lmat_inverse, lmat_is_zero, lmat_mul,
                              lmat_sigma, module_from_json,
                              module_to_json, residue_exponents, tate_twist,
                              tensor, unipotent_filtration)
from phinabla.oracles import ode_recurrence_solutions
from phinabla.padic import PadicNumber, RingParams
from phinabla.series import LaurentElement

from helpers import (count_calls, dense_unit_matrix, integer_log_depths,
                     laurent_bits, laurent_coefficients, laurent_components,
                     laurent_frobenius_image, laurent_satisfies,
                     product_semisimple, random_shear_gauge)


P = RingParams(5, 20, (32, 32))
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def kt():
    return PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 5]], connection=[[0, {-1: 1}], [0, 0]],
        label="KT")


def trivial():
    return PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1]], connection=[[0]], label="1")


def test_kummer_tate_is_compatible():
    rep = check_compatibility(kt())
    assert rep.compatible
    assert lmat_is_zero(rep.residual)


def test_incompatible_pair_has_explicit_residual():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 1]], connection=[[0, {-1: 1}], [0, 0]])
    rep = check_compatibility(m)
    assert not rep.compatible
    # residual (1,2) entry is (1 - p) t^-1
    entry = rep.residual[0][1]
    assert entry.coefficient(-1).to_fraction() == 1 - 5


def test_compatibility_needs_both_structures():
    m = PhiNablaModule.from_rational_matrices(P, frobenius=[[1]])
    with pytest.raises(MissingStructure):
        check_compatibility(m)


def test_gauge_preserves_compatibility():
    # upper shear with a series entry: constant unit determinant
    U = [[LaurentElement.one(P),
          LaurentElement.from_terms(P, [(2, 3), (5, Fraction(1, 2))])],
         [LaurentElement.zero(P), LaurentElement.one(P)]]
    g = GaugeChange(U)
    m2 = g.apply(kt())
    assert check_compatibility(m2).compatible


def test_gauge_roundtrip():
    U = [[LaurentElement.one(P), LaurentElement.monomial(P, 1, 2)],
         [LaurentElement.zero(P), LaurentElement.one(P)]]
    g = GaugeChange(U)
    m = kt()
    back = g.inverse().apply(g.apply(m))
    for i in range(2):
        for j in range(2):
            assert back.A[i][j].congruent(m.A[i][j])
            assert back.G[i][j].congruent(m.G[i][j])


def test_lmat_inverse_exact_for_unit_det():
    for params in (P, RingParams(5, 20, (32, 32), a=2, modulus=(2, 0, 1))):
        U = [[LaurentElement.one(params),
              LaurentElement.monomial(params, -1, 7)],
             [LaurentElement.zero(params),
              LaurentElement.monomial(params, 0, 2)]]
        cases = [U] + [dense_unit_matrix(params, n) for n in range(1, 9)]
        for M in cases:
            n = len(M)
            start = time.perf_counter()
            det = lmat_det(M)
            Mi = lmat_inverse(M)
            elapsed = time.perf_counter() - start
            assert det.congruent(2 if M is U else 1) and not det.has_tail()
            prod = lmat_mul(M, Mi)
            eye = lmat_identity(params, n)
            assert all(prod[i][j].congruent(eye[i][j])
                       and not prod[i][j].has_tail()
                       for i in range(n) for j in range(n))
        # the budget is for rank 8, the last case
        assert elapsed < 5.0


def test_lmat_det_exact_when_intermediate_products_leave_the_window():
    # three shears at window 3: the characteristic polynomial multiplies
    # entries up to t^-6 and t^9, which the determinant 1 never needs; read
    # inside the window alone it came out as 1 - 16 t^2 + O(t^big)
    params = RingParams(5, 20, (3, 3))
    U = lmat_identity(params, 3)
    for i, j, e, c in [(0, 1, -2, 1), (0, 2, 3, 2), (2, 0, -2, 2)]:
        E = lmat_identity(params, 3)
        E[i][j] = LaurentElement.monomial(params, e, c)
        U = lmat_mul(U, E)
    det = lmat_det(U)
    assert det.congruent(1) and not det.has_tail()
    # adj_21 = -2 t^-4 leaves the window; the first row stays exact
    Ui = lmat_inverse(U)
    assert Ui[2][1].tail_neg and Ui[2][1].is_zero()
    expected = [LaurentElement.one(params),
                LaurentElement.monomial(params, -2, -1),
                LaurentElement.monomial(params, 3, -2)]
    assert all(x.congruent(y) and not x.has_tail()
               for x, y in zip(Ui[0], expected))
    # det = t^2: adj_02 = t^4 lies beyond the window, det^-1 adj_02 = t^2
    # inside it
    t2 = LaurentElement.monomial(params, 2)
    zero, one = LaurentElement.zero(params), LaurentElement.one(params)
    V = [[t2, t2, zero], [zero, one, t2], [zero, zero, one]]
    det = lmat_det(V)
    assert det.congruent(t2) and not det.has_tail()
    expected = [[LaurentElement.monomial(params, -2), -one, t2],
                [zero, one, -t2], [zero, zero, one]]
    assert all(x.congruent(y) and not x.has_tail()
               for rx, ry in zip(lmat_inverse(V), expected)
               for x, y in zip(rx, ry))


def test_tensor_and_dual_keep_compatibility():
    m = kt()
    assert check_compatibility(tensor(m, m)).compatible
    assert check_compatibility(dual(m)).compatible
    assert check_compatibility(tate_twist(m, 1)).compatible
    assert check_compatibility(direct_sum(m, trivial())).compatible


def test_dual_frobenius_is_inverse_transpose():
    m = kt()
    d = dual(m)
    assert d.A[1][1].coefficient(0).to_fraction() == Fraction(1, 5)


def test_horizontal_sections_of_kt():
    secs = horizontal_sections(kt())
    assert len(secs) == 1
    v = secs[0]
    assert v[0].is_constant() and not v[0].is_zero()
    assert v[1].is_zero()


def test_horizontal_sections_constant_module():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[2, 0], [0, 3]], connection=[[0, 0], [0, 0]])
    assert len(horizontal_sections(m)) == 2


def test_no_sections_for_fractional_exponent():
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: Fraction(1, 2)}]])
    assert horizontal_sections(m) == []


def test_constant_submodule_frobenius():
    cs = largest_constant_submodule(kt())
    assert cs.rank == 1
    assert cs.frobenius[0][0].to_fraction() == 1


def test_unipotent_filtration_kt():
    fil = unipotent_filtration(kt())
    assert fil.unipotent
    assert fil.level == 2
    assert fil.block_sizes == [1, 1]
    # gauged connection is strictly block-upper-triangular
    g = fil.gauged_module
    assert g.G[0][0].is_zero() and g.G[1][0].is_zero() and g.G[1][1].is_zero()


def test_unipotent_filtration_constant():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 5]], connection=[[0, 0], [0, 0]])
    fil = unipotent_filtration(m)
    assert fil.unipotent and fil.level == 1


@pytest.mark.parametrize("module, calls", [
    # the residue polynomial of the one log solve; the gauge is read off
    # the log basis, with no Laurent determinant or inverse
    pytest.param(kt, 1, id="kt"),
    pytest.param(lambda: tensor(kt(), kt()), 1, id="kt*kt"),
])
def test_each_determinant_runs_once_per_step(module, calls, monkeypatch):
    m = module()
    assert count_calls(monkeypatch, linalg, "charpoly",
                       lambda: unipotent_filtration(m)) == calls


def _randomly_sheared(module, seed):
    gauge = random_shear_gauge(random.Random(seed), P, module.rank, lowest=0)
    return gauge.apply(module)


def _monomial_quotient():
    # the section t^-3 e_2 of the quotient by e_1; A and G are not
    # compatible
    return PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 1], [0, {12: 5}]],
        connection=[[0, {2: 1}], [0, {-1: 3}]])


def _block_of(fil):
    """The filtration block of each basis index."""
    return [b for b, k in enumerate(fil.block_sizes) for _ in range(k)]


@pytest.mark.parametrize("module", [
    pytest.param(kt, id="kt"),
    pytest.param(lambda: tensor(kt(), kt()), id="kt*kt"),
    pytest.param(lambda: tensor(tensor(kt(), kt()), kt()), id="kt*kt*kt"),
    pytest.param(lambda: tate_abelian_datum(P).module, id="tate"),
] + [pytest.param(lambda seed=seed, f=f: _randomly_sheared(f(), seed),
                  id=f"{name}-shear{seed}")
     for name, f in (("kt", kt), ("kt*kt", lambda: tensor(kt(), kt())))
     for seed in range(4)])
def test_gauged_module_is_the_gauge_applied(module):
    # the gauged module is constant, t G a nilpotent strictly block upper
    # triangular along the filtration, and compatible; the gauge applied
    # by its inverse agrees with it wherever that leaves no tail (on
    # kt-shear0 it leaves tails where the closed form is exact)
    m = module()
    fil = unipotent_filtration(m)
    assert fil.unipotent
    g = fil.gauged_module
    tG = [[x.shift(1) for x in row] for row in g.G]
    assert all(x.is_constant() and not x.has_tail()
               for M in (tG, g.A) for row in M for x in row)
    block = _block_of(fil)
    assert all(tG[i][j].is_zero() for i in range(m.rank)
               for j in range(m.rank) if block[i] >= block[j])
    assert check_compatibility(g).compatible
    applied = fil.gauge.apply(m)
    for got, ref in ((g.A, applied.A), (g.G, applied.G)):
        for row, ref_row in zip(got, ref):
            for x, y in zip(row, ref_row):
                assert y.has_tail() or x.congruent(y)


def test_incompatible_module_is_not_phi_stable():
    # phi of a log solution of an incompatible module need not be one
    m = _monomial_quotient()
    assert not check_compatibility(m).compatible
    with pytest.raises(DiagnosticConflict, match="constant submodule "
                       "not phi-stable at precision"):
        unipotent_filtration(m)


def test_incompatible_module_is_refused_alike(capsys, tmp_path):
    # the extraction refuses it with the filtration's conflict, in the
    # library and on the command line, as analyze does
    m = _monomial_quotient()
    with pytest.raises(DiagnosticConflict, match="^constant submodule not "
                       "phi-stable at precision$"):
        wd_extract(m)
    path = tmp_path / "monomial_quotient.json"
    path.write_text(json.dumps(modules.module_to_json(m)))
    for command in ("wd", "analyze"):
        assert cli.main([command, str(path)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "DiagnosticConflict",
            "detail": "constant submodule not phi-stable at precision"}


def test_log_solution_basis_reads_no_frobenius(monkeypatch):
    # the log basis of the incompatible module is read with its Frobenius
    # dropped: rank solutions, one solve of its one residue class and no
    # image of phi; the extraction reads phi and refuses
    m = _monomial_quotient()
    basis = []
    assert count_calls(monkeypatch, modules, "_frobenius_image",
                       lambda: basis.append(log_solution_basis(m))) == 0
    assert len(basis[0].solutions) == m.rank
    assert count_calls(monkeypatch, modules, "_solve_class",
                       lambda: log_solution_basis(m)) == 1
    with pytest.raises(DiagnosticConflict, match="^constant submodule not "
                       "phi-stable at precision$"):
        wd_extract(m)


@pytest.mark.parametrize("read", [
    pytest.param(lambda: wd_extract(tensor(kt(), kt())), id="wd_extract"),
    pytest.param(lambda: largest_constant_submodule(tensor(kt(), kt())),
                 id="largest_constant_submodule")])
def test_frobenius_images_build_no_laurent_series(read, monkeypatch):
    # phi of a log solution is formed on its coefficients: no Laurent
    # sigma is taken
    assert count_calls(monkeypatch, LaurentElement, "sigma", read) == 0


def test_frobenius_image_past_the_window_is_refused():
    # h1 under shear seed 23: A is truncated, and phi of a solution runs
    # past the window
    m = _randomly_sheared(corpus.good_elliptic_h1(P), 23)
    assert any(a.has_tail() for row in m.A for a in row)
    with pytest.raises(WindowTooSmall, match="^induced Frobenius: an image "
                       "runs past the window"):
        unipotent_filtration(m)
    # at window 8: G = -3/t has the section t^3, which A = 1 sends to t^15,
    # a term past the window top; G = 0 has the section 1, which A = t^9,
    # only a tail in the window, meets.  The constant submodule reads phi
    # of the same section and refuses alike
    params = RingParams(5, 20, (8, 8))
    for frobenius, connection in (([[1]], [[{-1: -3}]]),
                                  ([[{9: 1}]], [[0]])):
        m = PhiNablaModule.from_rational_matrices(
            params, frobenius=frobenius, connection=connection)
        for read in (unipotent_filtration, largest_constant_submodule):
            with pytest.raises(WindowTooSmall, match="^induced Frobenius: "
                               "an image runs past the window"):
                read(m)


def test_sheared_h1_at_precision_1_fails_the_full_window_equations():
    # a reduced solution of the sheared H^1 solves the window's blocks but
    # not the full-window equations at one digit
    params = RingParams(3, 1, (32, 32))
    m = random_shear_gauge(random.Random(0), params, 2, lowest=0).apply(
        corpus.good_elliptic_h1(params))
    with pytest.raises(WindowTooSmall, match="^candidate solution fails "
                       "the full-window equations$"):
        wd_extract(m)


def test_sheared_h1_at_precision_1_and_window_8_keeps_its_sections():
    # two sections at precision >= 2; at one digit the solver finds both
    # or refuses, and never answers that there are none
    for precision in (2, 1):
        params = RingParams(3, precision, (8, 8))
        m = random_shear_gauge(random.Random(0), params, 2, lowest=0).apply(
            corpus.good_elliptic_h1(params))
        try:
            sections = horizontal_sections(m)
        except PhinablaError:
            assert precision == 1
            continue
        assert len(sections) == 2


@pytest.mark.parametrize("window", [(32, 32), (12, 12), (2, 16)])
def test_sections_are_the_log_degree_0_solutions_digit_for_digit(window):
    # kt (x) kt under shear seed 1 at p = 3: the horizontal sections and
    # the log-degree-0 solutions of the full log solve agree in every
    # digit and bound; a kernel entry known only to p^N standing in for
    # an exact zero costs the sections two digits here
    params = RingParams(3, 20, window)
    kt2 = tensor(corpus.kummer_tate(params), corpus.kummer_tate(params))
    m = random_shear_gauge(random.Random(1), params, 4, lowest=0).apply(kt2)
    want = [s.section(params) for s in modules._solve_nabla(m, None, 1)
            if not s.log_degree]

    def bits(sections):
        return [[laurent_bits(x) for x in v] for v in sections]

    assert want and bits(horizontal_sections(m)) == bits(want)


@pytest.mark.parametrize("precision", [1, 2, 4])
def test_solution_check_matches_the_laurent_reference(precision,
                                                      monkeypatch):
    # every candidate of every log basis in the sweep gets the verdict of
    # the Laurent equations, where zeros at precision drop between steps
    verdicts = []
    solves = modules._solves

    def checked(tG, vec, params):
        got = solves(tG, vec, params)
        comps = [tuple(LaurentElement(params, v) for v in vd) for vd in vec]
        verdicts.append((got, laurent_satisfies(tG, comps)))
        return got

    monkeypatch.setattr(modules, "_solves", checked)
    builders = dict(_SWEEP, h1=corpus.good_elliptic_h1,
                    half_twist=corpus.half_twist)
    for name, build in builders.items():
        for p, window in itertools.product((3, 5), ((32, 32), (8, 8))):
            params = RingParams(p, precision, window)
            m = build(params)
            for seed, lowest in itertools.product(range(4), (0, -2)):
                g = random_shear_gauge(random.Random(seed), params, m.rank,
                                       lowest=lowest)
                for mod, e in itertools.product((m, g.apply(m)), (1, 2)):
                    try:
                        modules._solve_nabla(kummer_pullback(mod, e),
                                             None, e)
                    except PhinablaError:
                        pass
    assert [x for x in verdicts if x[0] != x[1]] == []
    assert len(verdicts) > 500 and any(not x for x, _ in verdicts)

@pytest.mark.parametrize("precision", [1, 2, 20])
def test_frobenius_image_matches_the_laurent_reference(precision):
    # phi of every solution of every log basis in the sweep: where the
    # Laurent image, formed in a widened window, has no tail, the exact
    # image has its coefficients, digits included, and runs nowhere past
    # the window; where the exact image is refused as running past, the
    # Laurent one has a tail
    bits = lambda img: {key: (c.v, c.unit, c.abs_prec)
                        for key, c in img.items()}
    builders = dict(_SWEEP, h1=corpus.good_elliptic_h1,
                    half_twist=corpus.half_twist)
    counts = {"exact": 0, "past": 0}
    for name, build in builders.items():
        for p, window in itertools.product((3, 5),
                                           ((32, 32), (8, 8), (2, 16))):
            params = RingParams(p, precision, window)
            m = build(params)
            shears = [None] + list(itertools.product(range(4), (0, -2)))
            for shear, e in itertools.product(shears, (1, 2)):
                try:
                    mod = m if shear is None else random_shear_gauge(
                        random.Random(shear[0]), params, m.rank,
                        lowest=shear[1]).apply(m)
                    pulled = kummer_pullback(mod, e)
                    sols = modules._solve_nabla(pulled, None, e)
                except PhinablaError:
                    continue
                for sol in sols:
                    try:
                        img = modules._frobenius_image(pulled, sol)
                    except WindowTooSmall:
                        img = None
                    past = img is None
                    ref = laurent_frobenius_image(
                        pulled, laurent_components(sol, params))
                    tail = any(x.has_tail() for v in ref for x in v)
                    if not tail:
                        assert not past
                        assert bits(img) == bits(
                            laurent_coefficients(ref))
                        counts["exact"] += 1
                    if past:
                        assert tail
                        counts["past"] += 1
    assert counts["exact"] > 100 and counts["past"] > 0, counts


def test_solution_check_drops_a_cancelled_partial_sum():
    # row 0 at t^1: 1 - (1 + O(5)) cancels to a zero bound by 5^1, which
    # LaurentElement drops before 4 and then D v_0 = 1 join it, so the
    # residual 5 stands; summed whole it would read 0 + O(5) and pass
    params = RingParams(5, 20, (0, 8))
    c = lambda x: PadicNumber.from_rational(params, x)
    low_one = PadicNumber(params, 0, 1, 1)
    zero = LaurentElement.zero(params)
    tG = [[LaurentElement(params, {0: c(1)}),
           LaurentElement(params, {1: c(-1)}),
           LaurentElement(params, {1: c(1)})]] + [[zero] * 3] * 2
    vec = [[{1: c(1)}, {0: low_one}, {0: c(4)}]]
    comps = [tuple(LaurentElement(params, v) for v in vd) for vd in vec]
    assert modules._solves(tG, vec, params) is False
    assert laurent_satisfies(tG, comps) is False

@pytest.mark.parametrize("frobenius, block", [
    # block 1: phi(e_1) = e_1 + e_2 leaves the constant line of e_1
    ([[1, 0], [1, 5]], 1),
    # block 2: the first line is phi-stable, phi of the log-degree-1
    # solution leaves the span
    ([[1, 0, 0], [0, 1, 0], [0, 1, 5]], 2),
])
def test_constant_submodule_not_phi_stable(frobenius, block):
    r = len(frobenius)
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=frobenius,
        connection=[[{-1: 1} if j == i + 1 else 0 for j in range(r)]
                    for i in range(r)])
    with pytest.raises(DiagnosticConflict, match="constant submodule "
                       "not phi-stable at precision"):
        unipotent_filtration(m)
    # the first solution phi moves out of the span is in the named block
    sols = sorted(modules._solve_nabla(m, None, 1),
                  key=lambda s: s.log_degree)
    bases = [modules._coefficients(s) for s in sols]

    def leaves(s):
        try:
            modules._solution_coordinates(
                bases, [modules._frobenius_image(m, s)], P, "leaves")
        except DiagnosticConflict:
            return True
        return False

    assert [s.log_degree + 1 for s in sols if leaves(s)][0] == block


@pytest.mark.parametrize("name, seed", [
    ("kt", seed) for seed in (34, 35, 42, 48, 50, 56, 59)] + [
    ("kt*kt", seed) for seed in (4, 8, 15)])
def test_sheared_filtration_keeps_its_shape(name, seed):
    m = {"kt": kt, "kt*kt": lambda: tensor(kt(), kt())}[name]()
    sheared = _randomly_sheared(m, seed)
    ref, fil = unipotent_filtration(m), unipotent_filtration(sheared)
    assert fil.unipotent
    assert (fil.level, fil.block_sizes) == (ref.level, ref.block_sizes)
    assert reduction_type(AbelianVarietyDatum(sheared)) is \
        ReductionType.SEMISTABLE_NOT_GOOD


def _kt_over(params):
    return PhiNablaModule.from_rational_matrices(
        params, frobenius=[[1, 0], [0, params.p]],
        connection=[[0, {-1: 1}], [0, 0]])


def _trivial_over(params):
    return PhiNablaModule.from_rational_matrices(
        params, frobenius=[[1]], connection=[[0]])


_SWEEP = {
    "kt": _kt_over,
    "kt*kt": lambda prm: tensor(_kt_over(prm), _kt_over(prm)),
    "kt+1": lambda prm: direct_sum(_kt_over(prm), _trivial_over(prm)),
    "tate": lambda prm: tate_abelian_datum(prm).module,
}


def _assert_exact_gauge(m):
    """The filtration's gauge U is an exact basis change: A sigma(U) = U A'
    and G U + dU/dt = U G', formed in a window that holds every product,
    with no tail, and U U^-1 = I to the last digit with no tail."""
    fil = unipotent_filtration(m)
    assert fil.unipotent
    wide = m.params._replace(t_window=(8 * m.params.p * 32,) * 2)
    U, A, G, A1, G1 = (
        [[x.rebase(wide) for x in row] for row in M]
        for M in (fil.gauge.U, m.A, m.G, fil.gauged_module.A,
                  fil.gauged_module.G))
    for lhs, rhs in ((lmat_mul(A, lmat_sigma(U)), lmat_mul(U, A1)),
                     (lmat_add(lmat_mul(G, U), lmat_ddt(U)),
                      lmat_mul(U, G1))):
        for x, y in zip(itertools.chain(*lhs), itertools.chain(*rhs)):
            assert x.congruent(y) and not (x.has_tail() or y.has_tail())
    for i, row in enumerate(lmat_mul(fil.gauge.U, lmat_inverse(fil.gauge.U))):
        for j, x in enumerate(row):
            assert x.congruent(1 if i == j else 0) and not x.has_tail()


# The two tests below are named for the completed bases of the iterated
# quotient gauges, which the log-basis gauge replaced; they check that gauge
# over the same sweep.
@pytest.mark.parametrize("window", [(32, 32), (0, 32), (8, 8), (2, 16)])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", list(_SWEEP))
def test_completed_basis_inverse_is_exact(name, p, window):
    m = _SWEEP[name](RingParams(p, 20, window))
    if window == (0, 32):       # the 1/t of G lies below the window
        with pytest.raises(WindowTooSmall,
                           match="^connection matrix truncated"):
            unipotent_filtration(m)
        return
    _assert_exact_gauge(m)


def _filtration_bits(fil):
    """Everything a filtration holds, p-adic precisions included."""
    bits = lambda M: [[laurent_bits(x) for x in row] for row in M]
    return ([(s.residue_class, [[laurent_bits(x) for x in v] for v in
                                laurent_components(s, fil.module.params)])
             for s in fil.solutions], fil.unipotent, fil.level,
            fil.block_sizes, bits(fil.gauge.U), bits(fil.gauged_module.A),
            bits(fil.gauged_module.G))


@pytest.mark.parametrize("window", [(32, 32), (0, 32), (8, 8), (2, 16)])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", list(_SWEEP))
def test_extraction_reads_the_unipotent_filtration(name, p, window):
    # at e = 1 the extraction's filtration is unipotent_filtration(m)
    m = _SWEEP[name](RingParams(p, 20, window))
    if window == (0, 32):       # the 1/t of G lies below the window
        with pytest.raises(WindowTooSmall,
                           match="^connection matrix truncated"):
            wd_extract(m)
        return
    trace = wd_extract(m)[1]
    assert trace.cover_degree == 1
    fil = unipotent_filtration(m)
    assert _filtration_bits(trace.filtration) == _filtration_bits(fil)
    # the gauged module is Phi and N signed by (-1)^(d_i + d_j), N at t^-1
    # with one more sign, in value and precision wherever it has a term
    odd = [s.log_degree % 2 for s in fil.solutions]
    g = fil.gauged_module
    for M, G, exponent, negate in ((fil.phi, g.A, 0, 0),
                                   (fil.N, g.G, -1, 1)):
        for i, j in itertools.product(range(m.rank), repeat=2):
            c, x = M[i][j], G[i][j]
            if c.is_zero():
                assert x.is_zero()
                continue
            y = x.coefficient(exponent)
            assert list(x.coeffs) == [exponent] and not x.has_tail()
            assert y.congruent(-c if (negate + odd[i] + odd[j]) % 2 else c)
            assert y.abs_prec == c.abs_prec


@pytest.mark.parametrize("window", [(32, 32), (8, 8), (2, 16)])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_half_twist_reads_its_filtration_at_e_2(p, window):
    # one pure solution, s^-1, of class 1 after t = s^2; at (2, 16)
    # sigma(s^-1) = s^-p lies below the window, but phi(s^-1) does not
    rep, trace = wd_extract(corpus.half_twist(RingParams(p, 20, window)))
    assert (trace.cover_degree, trace.log_degrees, trace.residue_classes,
            trace.filtration.block_sizes) == (2, [0], [1], [1])
    ref = wd_extract(corpus.half_twist(RingParams(p, 20, (32, 32))))[0]
    assert (rep.phi, rep.N, rep.inertia_order) == (ref.phi, ref.N,
                                                   ref.inertia_order)


@pytest.mark.parametrize("name, p, seed", itertools.product(
    ("kt*kt", "kt+1"), (3, 5, 7), (0, 6)))
def test_sheared_completed_basis_inverse_is_exact(name, p, seed):
    # sheared solutions fill every entry of the gauge
    prm = RingParams(p, 20, (32, 32))
    m = _SWEEP[name](prm)
    m = random_shear_gauge(random.Random(seed), prm, m.rank,
                           lowest=0).apply(m)
    if any(a.has_tail() for row in m.A for a in row):
        # the shear truncates A, so phi of a solution cannot be read
        with pytest.raises(WindowTooSmall, match="^induced Frobenius: an "
                           "image runs past the window"):
            unipotent_filtration(m)
        return
    _assert_exact_gauge(m)


def test_not_unipotent():
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: Fraction(1, 2)}]])
    fil = unipotent_filtration(m)
    assert not fil.unipotent


def test_residue_exponents_kt():
    rr = residue_exponents(kt())
    assert rr.exponents == [0, 0]
    assert not rr.semisimple  # the residue is E_12, nilpotent nonzero


def test_residue_exponents_half():
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: Fraction(1, 2)}]])
    rr = residue_exponents(m)
    assert rr.exponents == [Fraction(1, 2)]
    assert rr.semisimple


def test_second_order_pole_is_irregular():
    m = PhiNablaModule.from_rational_matrices(P, connection=[[{-2: 1}]])
    with pytest.raises(IrregularSingularity):
        residue_exponents(m)


def test_negative_tail_is_irregular():
    # t^-40 leaves the window (32, 32): no term is left, only its tail
    m = PhiNablaModule(P, 1, None, [[LaurentElement.monomial(P, -40)]])
    with pytest.raises(IrregularSingularity, match=r"negative tail in t\*G"):
        residue_exponents(m)


def test_kummer_pullback_needs_a_positive_degree():
    with pytest.raises(ValueError, match="cover degree must be positive"):
        kummer_pullback(kt(), 0)


def test_lmat_inverse_refuses_a_zero_determinant():
    with pytest.raises(NonInvertible, match="not a unit"):
        lmat_inverse([[LaurentElement.zero(P)]])


def test_rank_zero_matrices_are_invertible():
    # the 0 x 0 matrix is its own inverse: dual and gauge changes of a
    # rank-0 module raised NonInvertible
    m = PhiNablaModule(P, 0, [], [], "")
    assert lmat_inverse([]) == []
    assert dual(m).rank == 0
    assert GaugeChange([]).apply(m).rank == 0


def test_kummer_pullback_scales_exponents():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[{2: 1}]], connection=[[{-1: Fraction(1, 2)}]])
    pb = kummer_pullback(m, 2)
    assert check_compatibility(pb).compatible
    assert pb.A[0][0].min_exponent() == 4
    assert residue_exponents(pb).exponents == [1]


def test_kummer_pullback_wild_degree():
    with pytest.raises(WildCover):
        kummer_pullback(kt(), 5)


def test_kummer_pullback_degree_one_is_identity():
    m = kt()
    assert kummer_pullback(m, 1) is m


def test_json_roundtrip():
    m = kt()
    back = module_from_json(module_to_json(m))
    assert back.rank == 2
    assert back.label == "KT"
    assert check_compatibility(back).compatible
    for i in range(2):
        for j in range(2):
            assert back.A[i][j].congruent(m.A[i][j].rebase(back.params))


def _entries_json(M):
    return [[x.to_json() for x in row] for row in M]


def _datum_json(datum):
    obj = {"module": module_to_json(datum.module)}
    if datum.pairing is not None:
        obj["pairing"] = _entries_json(datum.pairing)
    return obj


def _curve_json(curve):
    return {"h1_compact": module_to_json(curve.h1_compact),
            "h0_boundary_twisted": module_to_json(curve.h0_boundary_twisted),
            "h2_compact": module_to_json(curve.h2_compact),
            "boundary_map": _entries_json(curve.boundary_map)}


CORPUS_BUILDERS = {
    "kummer_tate": lambda: module_to_json(corpus.kummer_tate()),
    "constant_trivial": lambda: module_to_json(corpus.constant_trivial()),
    "good_elliptic_h1": lambda: module_to_json(corpus.good_elliptic_h1()),
    "half_twist": lambda: module_to_json(corpus.half_twist()),
    "wild": lambda: module_to_json(corpus.wild_module()),
    "tate_abelian": lambda: _datum_json(corpus.tate_abelian_datum()),
    "good_elliptic": lambda: _datum_json(corpus.good_elliptic_datum()),
    "bad_reduction": lambda: _datum_json(corpus.bad_reduction_datum()),
    "open_tate_curve": lambda: _curve_json(corpus.open_tate_curve()),
    "proper_tate_curve": lambda: _curve_json(corpus.proper_tate_curve()),
    "family_tate": lambda: {"members": [rep.to_json()
                                        for rep in corpus.family_tate()]},
}


def _without_ring_mode(node):
    """node with "ring_mode" dropped from every "params" object in it."""
    if isinstance(node, list):
        return [_without_ring_mode(x) for x in node]
    if not isinstance(node, dict):
        return node
    out = {k: _without_ring_mode(v) for k, v in node.items()}
    if isinstance(out.get("params"), dict):
        out["params"].pop("ring_mode", None)
    return out


def test_every_corpus_file_has_a_builder():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) \
        == sorted(CORPUS_BUILDERS)


@pytest.mark.parametrize("stem", sorted(CORPUS_BUILDERS))
def test_corpus_file_equals_its_builder(stem):
    # the files write params.ring_mode, which module_to_json leaves out
    on_disk = json.loads((CORPUS / f"{stem}.json").read_text())
    built = json.loads(json.dumps(CORPUS_BUILDERS[stem]()))
    assert _without_ring_mode(on_disk) == built


def test_residue_exponents_repeated():
    # diag(1/2, 1/2, 1): the characteristic polynomial has a double root
    diag = [Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: diag[i]} if i == j else {} for j in range(3)]
                       for i in range(3)])
    rr = residue_exponents(m)
    assert sorted(rr.exponents) == diag
    assert rr.semisimple and rr.unresolved_factor is None


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_jordan_reads_match_the_references(data):
    # Jordan blocks at rational eigenvalues, with or without a pair of
    # irrational ones (T^2 - 2), conjugated by a unimodular integer matrix:
    # semisimple is the product reference, the Levelt depths the integer
    # rank-of-powers reference, and both the structure drawn
    blocks = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 3]),
                  st.integers(1, 3)), min_size=1, max_size=3).filter(
        lambda bs: sum(size for _, _, size in bs) <= 6))
    irrational = data.draw(st.booleans())
    diagonal = [(Fraction(a, d), i + 1 < size)
                for a, d, size in blocks for i in range(size)]
    r = len(diagonal) + 2 * irrational
    J = [[Fraction(0)] * r for _ in range(r)]
    for i, (lam, above) in enumerate(diagonal):
        J[i][i] = lam
        if above:
            J[i][i + 1] = Fraction(1)
    if irrational:
        J[r - 2][r - 1], J[r - 1][r - 2] = Fraction(2), Fraction(1)
    U = linalg.identity(r)
    for i, j, c in data.draw(st.lists(st.tuples(
            st.integers(0, r - 1), st.integers(0, r - 1),
            st.integers(-2, 2)), max_size=4)):
        if i != j:
            U = linalg.mat_mul(U, [[Fraction(int(a == b) + c * (
                (a, b) == (i, j))) for b in range(r)] for a in range(r)])
    R = linalg.mat_mul(U, linalg.mat_mul(J, linalg.mat_inv(U)))
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: x} if x else 0 for x in row] for row in R])
    rr = residue_exponents(m)
    assert rr.matrix == R
    assert rr.exponents == sorted(lam for lam, _ in diagonal)
    assert (rr.unresolved_factor is not None) == irrational
    largest = {}
    for a, d, size in blocks:
        lam = Fraction(a, d)
        largest[lam] = max(largest.get(lam, 0), size)
    assert rr.largest_blocks == largest
    assert rr.semisimple == product_semisimple(
        R, rr.exponents, rr.unresolved_factor)
    assert rr.semisimple == (not irrational and set(largest.values())
                             == {1})
    for e in (1, 2, 3, 4):
        assert modules._log_depths(rr, e) == integer_log_depths(
            R, rr.exponents, e)


@pytest.mark.parametrize("read", [
    pytest.param(lambda: horizontal_sections(kt()), id="horizontal_sections"),
    pytest.param(lambda: largest_constant_submodule(kt()),
                 id="largest_constant_submodule"),
    pytest.param(lambda: rank_profile(tate_abelian_datum(P)),
                 id="rank_profile")])
def test_depth_one_reads_no_jordan_structure(read, monkeypatch):
    # the depth-1 solve needs the residue's eigenvalues, not its blocks
    assert count_calls(monkeypatch, modules, "_jordan_blocks", read) == 0


def test_residue_record_reads_its_jordan_structure_once(monkeypatch):
    # the extraction reads the blocks once for its log depths; the record
    # keeps them, so semisimple read twice (as analyze does) reads them once
    assert count_calls(monkeypatch, modules, "_jordan_blocks",
                       lambda: wd_extract(kt())) == 1
    rr = residue_exponents(kt())
    assert count_calls(monkeypatch, modules, "_jordan_blocks",
                       lambda: (rr.semisimple, rr.semisimple)) == 1
    assert rr.largest_blocks == {0: 2}


# -- the resonance-driven solver --------------------------------------------

def _scalar(c, window=32):
    return PhiNablaModule.from_rational_matrices(
        RingParams(5, 20, (window, window)),
        connection=[[{-1: c}]])


def _exponents(sections):
    """Each section as ((exponent, coefficient), ...) per entry."""
    return [tuple(tuple(sorted((n, c.to_fraction())
                               for n, c in x.coeffs.items())) for x in v)
            for v in sections]


@pytest.mark.parametrize("c, window", [(-12, 32), (-9, 32), (-11, 32),
                                       (-11, 64), (-10, 32), (-10, 64)])
def test_resonant_section_beyond_ten(c, window):
    # D t^n = n t^n, so G = c/t has the section t^-c
    assert _exponents(horizontal_sections(_scalar(c, window))) == \
        [(((-c, 1),),)]


@pytest.mark.parametrize("window", [8, 16, 32, 64])
def test_scalar_window_sweep(window):
    for c in range(-13, 14):
        expected = [(((-c, 1),),)] if -window <= -c <= window else []
        assert _exponents(horizontal_sections(_scalar(c, window))) == \
            expected, c


def _sheared(m, shape):
    params = m.params
    U = lmat_identity(params, m.rank)
    for i, j, k, c in shape:
        U[i][j] = LaurentElement.monomial(params, k, c)
    return GaugeChange(U).apply(m)


def _gauged_inputs(window):
    params = RingParams(5, 20, (window, window))
    kt_w = PhiNablaModule.from_rational_matrices(
        params, frobenius=[[1, 0], [0, 5]],
        connection=[[0, {-1: 1}], [0, 0]])
    h1 = PhiNablaModule.from_rational_matrices(
        params, frobenius=[[0, -5], [1, 2]], connection=[[0, 0], [0, 0]])
    return {
        "kt": _sheared(kt_w, [(1, 0, 1, Fraction(-7, 3))]),
        "kt t^3": _sheared(kt_w, [(0, 1, 3, Fraction(2, 3))]),
        "kt+h1": _sheared(direct_sum(kt_w, h1), [(0, 3, 1, Fraction(5, 4)),
                                                 (2, 1, 2, -3)]),
    }


def test_gauged_sections_do_not_depend_on_window():
    def solved(window):
        out = {}
        for name, m in _gauged_inputs(window).items():
            out[name] = (_exponents(horizontal_sections(m)),
                         [(s.residue_class,
                           [_exponents([v])[0]
                            for v in laurent_components(s, m.params)])
                          for s in log_solution_basis(m).solutions])
        return out

    ref = solved(8)
    assert [len(ref[k][0]) for k in ("kt", "kt t^3", "kt+h1")] == [1, 1, 3]
    for window in (11, 16, 32, 64):
        assert solved(window) == ref, window


def test_section_past_the_window_top_names_the_window():
    # diag(-30/t, 0) sheared by t^5: the section (t^30, -3 t^35), scaled
    # to 1 at its last coordinate
    for window, expected in ((32, None),
                             (40, [((), ((0, 1),)),
                                   (((30, Fraction(-1, 3)),), ((35, 1),))])):
        params = RingParams(5, 20, (window, window))
        m = PhiNablaModule.from_rational_matrices(
            params, connection=[[{-1: -30}, 0], [0, 0]])
        g = _sheared(m, [(1, 0, 5, 3)])
        if expected is None:
            with pytest.raises(WindowTooSmall, match="t-window 35"):
                horizontal_sections(g)
        else:
            assert _exponents(horizontal_sections(g)) == expected


def test_irregular_connection_is_refused():
    m = PhiNablaModule.from_rational_matrices(P, connection=[[{-2: 1}]])
    with pytest.raises(IrregularSingularity):
        horizontal_sections(m)


def test_non_terminating_solution_is_not_a_section():
    # G = 1: the solution exp(-t) never ends, so no window holds it
    m = PhiNablaModule.from_rational_matrices(P, connection=[[{0: 1}]])
    assert horizontal_sections(m) == []


def test_unipotent_filtration_of_a_monomial_section():
    # G = -3/t: the section t^3 is a unit of the Laurent ring
    fil = unipotent_filtration(_scalar(-3))
    assert fil.unipotent and fil.level == 1
    assert fil.gauged_module.G[0][0].is_zero()


@st.composite
def regular_connections(draw):
    """t G as {k: rank x rank Fraction matrix}: an integer upper
    triangular residue (so resonances occur) and terms up to t^2."""
    rank = draw(st.integers(1, 3))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    tg = {0: [[Fraction(draw(st.integers(-4, 4))) if i == j else
               (draw(small) if j > i else Fraction(0))
               for j in range(rank)] for i in range(rank)]}
    for k in range(1, draw(st.integers(0, 2)) + 1):
        tg[k] = [[draw(st.just(Fraction(0)) | small) for _ in range(rank)]
                 for _ in range(rank)]
    return rank, tg, draw(st.integers(2, 6))


def _as_module(rank, tg, window):
    params = RingParams(5, 60, (window, window))
    G = [[{k - 1: tg[k][i][j] for k in tg if tg[k][i][j]}
          for j in range(rank)] for i in range(rank)]
    return PhiNablaModule.from_rational_matrices(params, connection=G)


def _oracle_vectors(rank, tg, lo, hi):
    sols = ode_recurrence_solutions(tg, rank, (lo, hi)).solutions
    return [tuple(tuple(sorted((n, vec[j]) for n, vec in s.items()
                               if vec[j])) for j in range(rank))
            for s in sols]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(regular_connections())
def test_sections_match_the_ode_recurrence_oracle(problem):
    rank, tg, window = problem
    try:
        sections = horizontal_sections(_as_module(rank, tg, window))
    except WindowTooSmall:
        # only when a solution starts inside the window and ends past it,
        # within the one more window width the solver follows
        top = 3 * window + max(tg)
        both = len(_oracle_vectors(rank, tg, -window, top))
        beyond = len(_oracle_vectors(rank, tg, window + 1, top))
        inside = len(_oracle_vectors(rank, tg, -window, window))
        assert both - beyond > inside
        return
    # both are the reduced basis of the same coefficient system
    assert _exponents(sections) == _oracle_vectors(rank, tg, -window,
                                                   window)


def test_oracle_shares_no_code_with_the_solver():
    import ast
    import phinabla.oracles as oracles
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names}
    assert not any(name and name.split(".")[-1] in ("modules", "linalg")
                   for name in imported), imported


@st.composite
def json_modules(draw):
    """A module over Q_5 (a = 1) or its unramified quadratic extension
    (a = 2, x^2 + 2), rank 1..3, each of Frobenius and connection present
    or not, sparse Laurent entries with exponents in the window and
    coefficients of either sign, 5 in their denominators included."""
    a, modulus = draw(st.sampled_from([(1, None), (2, (2, 0, 1))]))
    window = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    params = RingParams(5, 20, window, a, modulus)
    coeff = st.fractions(-60, 60, max_denominator=30)

    def entry():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            e = draw(st.integers(-window[0], window[1]))
            terms[e] = PadicNumber.from_poly(
                params, [draw(coeff) for _ in range(a)])
        return LaurentElement.from_terms(params, list(terms.items()))

    rank = draw(st.integers(1, 3))
    matrix = lambda: [[entry() for _ in range(rank)] for _ in range(rank)]
    A = matrix() if draw(st.booleans()) else None
    G = matrix() if draw(st.booleans()) else None
    return PhiNablaModule(params, rank, A, G, draw(st.sampled_from(
        ["", "KT", "H^1(E)"])))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(json_modules())
def test_json_roundtrip_random_modules(m):
    text = json.dumps(module_to_json(m))
    back = module_from_json(json.loads(text))
    assert (back.params, back.rank, back.label) == (m.params, m.rank,
                                                    m.label)
    for M, N in ((m.A, back.A), (m.G, back.G)):
        assert (M is None) == (N is None)
        for row_m, row_b in zip(M or [], N or []):
            for x, y in zip(row_m, row_b):
                assert x.congruent(y)
    assert json.dumps(module_to_json(back)) == text


@pytest.mark.parametrize("a, modulus", [(1, None), (2, (2, 0, 1))])
def test_json_roundtrip_unramified(a, modulus):
    # x^2 + 2 is irreducible mod 5; the generator makes units that are not
    # rational, so the JSON carries their coordinates
    params = RingParams(5, 20, (8, 8), a, modulus)
    g = PadicNumber.from_poly(params, [Fraction(1, 3), 2])
    zero, one = LaurentElement.zero(params), LaurentElement.one(params)
    m = PhiNablaModule(params, 2,
                       [[LaurentElement(params, {0: g}), zero], [zero, one]],
                       [[zero, LaurentElement(params, {-1: g, 2: g})],
                        [zero, zero]], "unramified")
    back = module_from_json(json.loads(json.dumps(module_to_json(m))))
    assert back.params == params
    for M, N in ((m.A, back.A), (m.G, back.G)):
        for row_m, row_b in zip(M, N):
            for x, y in zip(row_m, row_b):
                assert x.congruent(y)
