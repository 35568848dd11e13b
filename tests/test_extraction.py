"""Extraction: log solutions, normal form, WD functor properties."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from phinabla import corpus, linalg, modules
from phinabla.errors import (DiagnosticConflict, IrregularSingularity,
                             NotLevelTwo, NotTame, PhinablaError,
                             WindowTooSmall)
from phinabla.extraction import (key2_normal_form, log_solution_basis,
                                 wd_extract, wd_of_cohomology)
from phinabla.modules import (GaugeChange, PhiNablaModule, _coefficients,
                              _frobenius_image, _log_depths, _residue,
                              _solution_coordinates,
                              _solve_nabla, check_compatibility, direct_sum,
                              kummer_pullback, tate_twist, tensor)
from phinabla.padic import PadicNumber, RingParams
from phinabla.series import LaurentElement
from phinabla.weil_deligne import (WeilDeligneRep, compatibility_family,
                                   purity_check, quasi_purity_check,
                                   trace_table)

from helpers import (count_calls, field_solve, laurent_coefficients,
                     laurent_components, log_derivative, random_shear_gauge,
                     sp2_power)


P = corpus.ring()
F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_log_solution_basis_of_kt():
    basis = log_solution_basis(corpus.kummer_tate(P))
    assert len(basis.solutions) == 2
    assert sorted(s.log_degree for s in basis.solutions) == [0, 1]


def test_log_solution_basis_constant_module():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[2, 0], [0, 3]], connection=[[0, 0], [0, 0]])
    basis = log_solution_basis(m)
    assert all(s.log_degree == 0 for s in basis.solutions)


# -- the log depth: the residue's Jordan blocks ------------------------------

def _connection(params, tG):
    """The module with connection matrix tG / t, tG given by its t-terms."""
    return PhiNablaModule.from_rational_matrices(
        params, connection=[[{k - 1: c for k, c in x.items()} for x in row]
                            for row in tG])


def _residue_depths(m, e=1):
    return _log_depths(_residue(m), e)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_jordan_block_needs_its_full_depth(r):
    # tG = J_r: one solution of each log degree 0 .. r - 1
    m = _connection(P, [[{0: 1} if j == i + 1 else {} for j in range(r)]
                        for i in range(r)])
    assert _residue_depths(m) == [r]
    degrees = sorted(s.log_degree for s in log_solution_basis(m).solutions)
    assert degrees == list(range(r))
    if r > 1:
        assert len(_solve_nabla(m, r - 1, 1)) == r - 1


def test_resonant_pair_needs_a_log():
    # tG = [[0, t], [0, 1]]: R = diag(0, 1) has 1x1 blocks at the
    # resonances 0 and -1, and the second solution is -log t e_1 + e_2 / t
    m = _connection(P, [[{}, {1: 1}], [{}, {0: 1}]])
    assert _residue_depths(m) == [2]
    assert sorted(s.log_degree for s in log_solution_basis(m).solutions) \
        == [0, 1]
    assert len(_solve_nabla(m, 1, 1)) == 1
    # with the resonance at -3, the window from t^-1 cannot hold it
    with pytest.raises(WindowTooSmall, match="found 1 log solutions at log "
                       "depth 2, expected 2"):
        log_solution_basis(_connection(RingParams(5, 20, (1, 8)),
                                       [[{}, {3: 1}], [{}, {0: 3}]]))


def test_two_residue_classes_solve_at_their_own_depths():
    # after t = s^2 the Kummer-Tate block has exponent 0 (a 2x2 block, class
    # 0) and the half twist exponent -1 (class 1)
    m = direct_sum(corpus.half_twist(P), corpus.kummer_tate(P))
    pulled = kummer_pullback(m, 2)
    assert _residue_depths(pulled, 2) == [2, 1]
    sols = log_solution_basis(pulled, 2).solutions
    assert [(s.residue_class, s.log_degree) for s in sols] \
        == [(0, 0), (1, 0), (0, 1)]
    rep, trace = wd_extract(m)
    assert rep.inertia_matrix == [[F(1), 0, 0], [0, F(-1), 0], [0, 0, F(1)]]
    assert trace.log_degrees == [0, 0, 1]
    assert trace_table(rep, 4) == trace_table(
        WeilDeligneRep(5, [[1, 0, 0], [0, 1, 0], [0, 0, 5]],
                       [[0, 0, 1], [0, 0, 0], [0, 0, 0]], 2,
                       [[1, 0, 0], [0, -1, 0], [0, 0, 1]]), 4)


def _trimmed(sol):
    vec = list(sol.vec)
    while len(vec) > 1 and not any(vec[-1]):
        vec.pop()
    return (sol.residue_class, sol.log_degree,
            [[sorted((n, c.v, c.unit, c.abs_prec) for n, c in x.items())
              for x in vd] for vd in vec])


def _outcome(solve):
    try:
        return [_trimmed(s) for s in solve()]
    except PhinablaError as ex:
        return type(ex), re.sub(r" at log depth [\d/]+", "", str(ex))


def _rank_depth_basis(m, e):
    """The log basis solved at log depth m.rank in every class."""
    sols = _solve_nabla(m, m.rank, e)
    if len(sols) != m.rank:
        raise WindowTooSmall(
            f"found {len(sols)} log solutions, expected {m.rank}")
    return sorted(sols, key=lambda s: (s.log_degree, s.residue_class))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_jordan_depth_matches_the_rank_depth(data):
    # constant Jordan blocks at resonant exponents, t^1 / t^2 terms above
    # the diagonal or a shear gauge below it; e = 2 draws half-integer
    # exponents and solves the pullback in both classes
    e = data.draw(st.sampled_from([1, 2]))
    window = data.draw(st.sampled_from([3, 8, 32]))
    params = corpus.ring(window=window)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    r = sum(sizes)
    tG = [[{} for _ in range(r)] for _ in range(r)]
    start = 0
    for size in sizes:
        lam = F(data.draw(st.integers(-2 * e, 2 * e)), e)
        for i in range(start, start + size):
            tG[i][i][0] = lam
            if i + 1 < start + size:
                tG[i][i + 1][0] = F(1)
        start += size
    for i in range(r):
        for j in range(i + 1, r):
            for k in data.draw(st.sets(st.integers(1, 2), max_size=2)):
                tG[i][j][k] = F(data.draw(st.integers(-3, 3)))
    m = _connection(params, tG)
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2 ** 16))
        m = random_shear_gauge(random.Random(seed), params, r,
                               lowest=0).apply(m)
    try:
        pulled = kummer_pullback(m, e)
        depths = _residue_depths(pulled, e)
    except PhinablaError:
        return
    assert all(0 <= d <= r for d in depths)
    assert _outcome(lambda: log_solution_basis(pulled, e).solutions) \
        == _outcome(lambda: _rank_depth_basis(pulled, e))


def test_wd_extract_reads_the_residue_once(monkeypatch):
    # e = 1 reads m once; e = 2 reads m and its pullback
    def reads(m):
        return count_calls(monkeypatch, modules, "_residue",
                           lambda: wd_extract(m))
    assert reads(corpus.kummer_tate(P)) == 1
    assert reads(corpus.half_twist(P)) == 2


def test_kt_extracts_to_sp2_exactly():
    rep, trace = wd_extract(corpus.kummer_tate(P))
    assert rep.phi == [[F(1), F(0)], [F(0), F(5)]]
    assert rep.N == [[F(0), F(1)], [F(0), F(0)]]
    assert rep.inertia_order == 1
    assert trace.cover_degree == 1


def test_unramified_kt_extracts_the_linear_frobenius():
    # over a = 2 the solution-space action of the p-power Frobenius is read
    # first; its square is the linear Frobenius of q = 25
    params = RingParams(5, 20, (32, 32), a=2, modulus=(2, 0, 1))
    rep, _ = wd_extract(corpus.kummer_tate(params))
    assert rep.q == 25
    assert rep.phi == [[F(1), F(0)], [F(0), F(25)]]
    assert rep.N == [[F(0), F(1)], [F(0), F(0)]]


def test_constant_module_extracts_frobenius_at_zero():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[0, -5], [1, 2]], connection=[[0, 0], [0, 0]])
    rep, _ = wd_extract(m)
    assert all(x == 0 for row in rep.N for x in row)
    assert sorted(linfold(rep.phi)) == sorted(linfold([[0, -5], [1, 2]]))


def linfold(M):
    """Charpoly coefficients: basis-independent comparison helper."""
    from phinabla import linalg
    return linalg.charpoly([[F(x) for x in row] for row in M])


def test_half_twist_inertia_of_order_two():
    rep, trace = wd_extract(corpus.half_twist(P))
    assert rep.dim == 1
    assert trace.cover_degree == 2
    assert rep.inertia_order == 2
    assert rep.inertia_matrix == [[F(-1)]]
    assert rep.N == [[F(0)]]


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
def test_truncated_frobenius_raises_window_too_small(window):
    # A = t^2 leaves the window at 1, A = s^4 after t = s^2 at 2 and 3: a
    # truncated term is never read as zero, which made Phi singular.  At 4,
    # sigma(s^-1) = s^-5 lies below the window but the image A sigma(v) =
    # s^-1 does not: it is formed exactly, and Phi is read as at 5
    m = corpus.half_twist(corpus.ring(window=window))
    if window <= 3:
        with pytest.raises(WindowTooSmall):
            wd_extract(m)
    else:
        assert wd_extract(m)[0].phi == [[F(1)]]


def test_wild_exponent_raises_not_tame():
    with pytest.raises(NotTame):
        wd_extract(corpus.wild_module(P))


def test_mmax_cutoff():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[{2: 1}]], connection=[[{-1: Fraction(1, 2)}]])
    with pytest.raises(NotTame):
        wd_extract(m, m_max=1)


@pytest.mark.parametrize("connection, detail", [
    ([[0, {-1: 2}], [{-1: 1}, 0]],
     "residue exponents are not all rational"),
    ([[{-1: Fraction(1, 2)}, 0], [0, {-1: Fraction(1, 3)}]],
     "cover degree 6 exceeds m_max = 5"),
], ids=["irrational-exponents", "cover-degree-past-m_max"])
def test_untame_residue_is_refused(connection, detail):
    # residue eigenvalues +-sqrt 2; exponents 1/2 and 1/3 each within m_max
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 1]], connection=connection)
    with pytest.raises(NotTame, match=detail):
        wd_extract(m, m_max=5)


@pytest.mark.parametrize("m_max", [0, -1])
def test_mmax_below_one_is_refused(m_max):
    with pytest.raises(ValueError, match="m_max must be >= 1"):
        wd_extract(corpus.kummer_tate(P), m_max)


def test_truncated_connection_is_refused_before_the_residue_is_read():
    # the 1/t of Kummer-Tate lies below the window (0, 8): a truncation,
    # not a pole of t G, for wd_extract as for the log basis
    m = PhiNablaModule.from_rational_matrices(
        RingParams(5, 20, (0, 8)), frobenius=[[1, 0], [0, 5]],
        connection=[[0, {-1: 1}], [0, 0]])
    for run in (wd_extract, log_solution_basis):
        with pytest.raises(WindowTooSmall,
                           match="^connection matrix truncated"):
            run(m)


def test_double_pole_is_irregular():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1]], connection=[[{-2: 1}]])
    with pytest.raises(IrregularSingularity, match="pole of order > 1"):
        wd_extract(m)


# -- solution coordinates: read at the reduced basis's pivots ---------------

def _eliminated_coordinates(basis, targets, params):
    """The coordinates by one p-adic elimination over every coordinate
    (d, i, n) of the basis and the targets, flat coefficient dicts: the
    reference for _solution_coordinates, which reads them at the basis's
    pivots."""
    zero = PadicNumber.zero(params)
    coords = sorted({key for v in basis + targets for key in v})
    rows = [[b.get(key, zero) for b in basis] for key in coords]
    rhs = [[t.get(key, zero) for key in coords] for t in targets]
    return field_solve(rows, rhs, zero)


def _read_coordinates(basis, targets, params):
    """_solution_coordinates on the coefficient dicts of Laurent vectors."""
    return _solution_coordinates(basis, [laurent_coefficients(t)
                                         for t in targets], params, "leaves")


def _assert_same_coordinates(basis, targets, params):
    # the pivot reads are the elimination's values, none with fewer digits;
    # the basis and targets are flat coefficient dicts, and column j of the
    # read is the coordinates of target j
    got = _solution_coordinates(basis, targets, params, "leaves")
    want = _eliminated_coordinates(basis, targets, params)
    assert want is not None
    assert len(got) == len(basis) and all(len(row) == len(targets)
                                          for row in got)
    for xs, ys in zip(zip(*got), want):
        assert all(x.congruent(y) and x.abs_prec >= y.abs_prec
                   for x, y in zip(xs, ys))


def _coordinate_cases():
    wide = corpus.ring(window=64)
    kt = corpus.kummer_tate(wide)
    modules_ = {"kt": kt, "kt*kt": tensor(kt, kt),
                "kt+h1": direct_sum(kt, corpus.good_elliptic_h1(wide)),
                "half_twist": corpus.half_twist(wide)}
    for name, m in modules_.items():
        yield pytest.param(m, id=name)
        for seed in (1, 2):
            g = random_shear_gauge(random.Random(seed), wide, m.rank,
                                   lowest=0)
            yield pytest.param(g.apply(m), id=f"{name}-shear{seed}")


@pytest.mark.parametrize("m", _coordinate_cases())
def test_pivot_coordinates_match_the_elimination(m):
    e = 2 if m.label == "half_twist" else 1
    pulled = kummer_pullback(m, e)
    params = m.params
    fil = log_solution_basis(pulled, e)
    basis = [_coefficients(s) for s in fil.solutions]
    comps = [laurent_components(s, params) for s in fil.solutions]
    rng = random.Random(len(basis))

    def combination():
        coeffs = [PadicNumber.from_rational(
            params, F(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in comps]
        depth = max(map(len, comps))
        return [tuple(sum((b[d][i].scale(c) for b, c in zip(comps, coeffs)
                           if d < len(b)), LaurentElement.zero(params))
                      for i in range(m.rank)) for d in range(depth)]

    inside = ([_frobenius_image(pulled, s) for s in fil.solutions]
              + [laurent_coefficients(v) for v in (
                  [log_derivative(b, params) for b in comps]
                  + [combination() for _ in range(3)])])
    _assert_same_coordinates(basis, inside, params)
    # the filtration's N, read on the solutions' coefficients, is the
    # reading of the Laurent log derivative, digits included
    N = _read_coordinates(
        basis, [log_derivative(b, params) for b in comps], params)
    bits = lambda M: [[(x.v, x.unit, x.abs_prec) for x in row] for row in M]
    assert bits(fil.N) == bits(N)
    # a basis element plus a monomial off the support of the basis
    support = {n for b in comps for x in b[0] for n in x.coeffs}
    n = next(n for n in range(params.window_hi, 0, -1) if n not in support)
    for b in comps:
        off = [tuple(x + LaurentElement.monomial(params, n)
                     if (d, i) == (0, 0) else x for i, x in enumerate(v))
               for d, v in enumerate(b)]
        with pytest.raises(DiagnosticConflict, match="^leaves$"):
            _read_coordinates(basis, [off], params)
        assert _eliminated_coordinates(
            basis, [laurent_coefficients(off)], params) is None


def test_constant_frobenius_coordinates_match_the_elimination():
    # phi of kt (x) kt (x) kt on its horizontal sections is diag(1, 5, 5):
    # a zero coordinate is read off the other terms of its section too,
    # where the image carries the extra digit of p
    kt = corpus.kummer_tate(P)
    m = tensor(tensor(kt, kt), kt)
    sols = _solve_nabla(m, 1, 1)
    _assert_same_coordinates([_coefficients(s) for s in sols],
                             [_frobenius_image(m, s) for s in sols],
                             m.params)


def test_rank_preservation():
    for builder in (corpus.kummer_tate, corpus.constant_trivial,
                    corpus.half_twist):
        m = builder(P)
        rep, _ = wd_extract(m)
        assert rep.dim == m.rank


def test_direct_sum_additivity():
    m1 = corpus.kummer_tate(P)
    m2 = corpus.constant_trivial(P)
    rep, _ = wd_extract(direct_sum(m1, m2))
    r1, _ = wd_extract(m1)
    assert rep.dim == 3
    # trace tables of the summand embed: graded Gr_k traces add
    assert quasi_purity_check(rep, 1).pure is False  # mixed weights 0 vs 1


def test_twist_commutes_with_extraction():
    m = corpus.kummer_tate(P)
    from phinabla.weil_deligne import twist
    rep_a, _ = wd_extract(tate_twist(m, 1))
    rep_b = twist(wd_extract(m)[0], 1)
    assert compatibility_family([rep_a, rep_b], 5).compatible


def test_gauge_invariance_via_trace_tables():
    m = corpus.kummer_tate(P)
    U = [[LaurentElement.one(P),
          LaurentElement.from_terms(P, [(1, 1), (4, F(2, 3))])],
         [LaurentElement.zero(P), LaurentElement.one(P)]]
    scrambled = GaugeChange(U).apply(m)
    assert check_compatibility(scrambled).compatible
    rep_a, _ = wd_extract(m)
    rep_b, _ = wd_extract(scrambled)
    assert compatibility_family([rep_a, rep_b], 6).compatible


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["kt", "kt+h1"]), st.integers(0, 2 ** 32))
# products A sigma(v) of these gauges run past the window and cancel
@example("kt", 148)
@example("kt", 20917)
def test_trace_tables_are_invariant_under_random_shear_gauges(which, seed):
    # gauging runs the Cayley-Hamilton inverse, the tables Newton's
    # identities on each graded piece
    wide = corpus.ring(window=64)
    m = corpus.kummer_tate(wide)
    if which == "kt+h1":
        m = direct_sum(m, corpus.good_elliptic_h1(wide))
    g = random_shear_gauge(random.Random(seed), wide, m.rank, lowest=0)
    expected = trace_table(wd_extract(m)[0], 6)
    assert trace_table(wd_extract(g.apply(m))[0], 6) == expected


def test_residue_that_fails_recognition_is_refused():
    # at precision 4 an entry of this gauge's residue has no small
    # rational representative
    params = RingParams(5, 4, (32, 32))
    m = direct_sum(corpus.half_twist(params), corpus.kummer_tate(params))
    g = random_shear_gauge(random.Random(1), params, 3, lowest=0)
    with pytest.raises(DiagnosticConflict, match="residue matrix fails "
                       "rational recognition at precision"):
        wd_extract(g.apply(m))


def test_rank_eight_tensor_cube_of_kt():
    kt = corpus.kummer_tate(P)
    rep, _ = wd_extract(tensor(kt, tensor(kt, kt)))
    assert rep.dim == 8
    assert trace_table(rep, 4) == trace_table(sp2_power(3), 4)


def test_rank_sixteen_tensor_power_of_kt():
    import time
    kt = corpus.kummer_tate(P)
    m = tensor(tensor(kt, kt), tensor(kt, kt))
    start = time.perf_counter()
    rep, trace = wd_extract(m)
    assert time.perf_counter() - start < 3.0
    assert rep.dim == 16
    # the Kronecker sum of four N0 has Jordan type (5, 3, 3, 3, 1, 1)
    assert sorted(trace.log_degrees) == [0] * 6 + [1] * 4 + [2] * 4 + [3, 4]
    assert trace_table(rep, 4) == trace_table(sp2_power(4), 4)


def test_nilpotency_index_bounded_by_level():
    from phinabla import linalg
    rep, _ = wd_extract(corpus.kummer_tate(P))
    N2 = linalg.mat_mul(rep.N, rep.N)
    assert all(x == 0 for row in N2 for x in row)


def test_n_zero_iff_full_horizontal_basis():
    rep, _ = wd_extract(corpus.constant_trivial(P))
    assert all(x == 0 for row in rep.N for x in row)
    rep2, _ = wd_extract(corpus.kummer_tate(P))
    assert any(x != 0 for row in rep2.N for x in row)


def test_wd_of_cohomology_tags():
    rep, _ = wd_of_cohomology(corpus.kummer_tate(P), 1)
    assert rep.label.startswith("H^1_p")
    assert quasi_purity_check(rep, 1).pure


def test_wd_of_cohomology_trivial_h0():
    rep, _ = wd_of_cohomology(corpus.constant_trivial(P), 0)
    assert purity_check(rep, 0).pure


def test_wd_of_cohomology_twisted():
    m = tate_twist(corpus.kummer_tate(P), -1)
    rep, _ = wd_of_cohomology(m, 1)
    assert quasi_purity_check(rep, 3).pure  # weights shifted by +2


@pytest.mark.parametrize("n", [0, 1])
def test_wd_of_cohomology_reads_bottom_zero_window(n):
    # a window with bottom 0 truncates K[[t]]: it reads the same Phi and N
    # as the symmetric window
    reps = []
    for window in ((0, 16), (16, 16)):
        m = tate_twist(corpus.constant_trivial(RingParams(5, 20, window)), n)
        reps.append(wd_of_cohomology(m, 0)[0])
    assert reps[0].phi == reps[1].phi == [[F(1, 5 ** n)]]
    assert reps[0].N == reps[1].N == [[0]]


# -- normal form ------------------------------------------------------------

def test_normal_form_constant_module():
    m = PhiNablaModule.from_rational_matrices(
        P, frobenius=[[1, 0], [0, 5]], connection=[[0, 0], [0, 0]])
    nf = key2_normal_form(m)
    assert nf.g_block == []
    assert len(nf.e_block) + len(nf.f_block) == 2


def test_normal_form_kt():
    nf = key2_normal_form(corpus.kummer_tate(P))
    assert nf.e_block == [0]
    assert nf.f_block == []
    assert nf.g_block == [1]
    assert nf.constants == [[F(1)]]


def test_normal_form_scrambled_kt():
    m = corpus.kummer_tate(P)
    U = [[LaurentElement.one(P), LaurentElement.monomial(P, 2, 3)],
         [LaurentElement.zero(P), LaurentElement.one(P)]]
    scrambled = GaugeChange(U).apply(m)
    nf = key2_normal_form(scrambled)
    # verify via the gauge: t*G of the gauged module has constant entries
    # in the g-columns of the e-rows and zeros elsewhere
    gauged = nf.gauge.apply(scrambled)
    tg = gauged.G[0][1].shift(1)
    assert tg.is_constant()
    assert tg.coefficient(0).to_fraction() == nf.constants[0][0]
    assert gauged.G[0][0].is_zero()
    assert gauged.G[1][0].is_zero()
    assert gauged.G[1][1].is_zero()


def test_normal_form_rotates_the_image_of_c_first(monkeypatch):
    # trivial + KT: k1 = 2 horizontal solutions, k2 = 1 at level 2, and C
    # of rank 1 < k1, so the first block is rotated to put C's image first
    m = direct_sum(corpus.constant_trivial(P), corpus.kummer_tate(P))
    nfs = []
    assert count_calls(monkeypatch, linalg, "column_space",
                       lambda: nfs.append(key2_normal_form(m))) == 1
    nf, = nfs
    assert (nf.e_block, nf.f_block, nf.g_block) == ([0], [1], [2])
    assert nf.constants == [[F(1)], [F(0)]]
    gauged = nf.gauge.apply(m)
    tG = [[g.shift(1) for g in row] for row in gauged.G]
    assert all(x.is_constant() for M in (tG, gauged.A) for row in M
               for x in row)
    for j in nf.e_block + nf.f_block:
        assert all(tG[i][j].is_zero() for i in range(m.rank))
    for k, j in enumerate(nf.g_block):
        assert [tG[i][j].coefficient(0).to_fraction()
                for i in range(m.rank)] == [
            nf.constants[i][k] if i in nf.e_block else 0
            for i in range(m.rank)]


def test_normal_form_rejects_level_three():
    # rank 3 with a full principal nilpotent residue: level 3
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[0, {-1: 1}, 0], [0, 0, {-1: 1}], [0, 0, 0]])
    with pytest.raises(NotLevelTwo):
        key2_normal_form(m)


def test_normal_form_rejects_a_module_that_is_not_unipotent():
    # t G = t: the only formal solution is exp(-t), not a log polynomial
    m = PhiNablaModule.from_rational_matrices(P, connection=[[1]])
    with pytest.raises(NotLevelTwo, match="module is not unipotent"):
        key2_normal_form(m)


# What tools/extract_digest.py prints.  A change that alters what the
# extraction or the unipotent filtration returns on purpose updates these
# and says why.
DIGESTS = {
    "values_sha256":
        "7e4508b5405177d580d5c1dfaa0f2d5e1bdecc5d35ea5db2221b51c5bc327a04",
    "precisions_sha256":
        "b5730350ba23e0ab18a698244fc5f5419bd2de441344ab886efcd6e93687e85c",
    "shape_sha256":
        "08127b3fc21ea5cb6b7daa2f497e2e61ee3db577e35f96859d009a4d8791d480",
}


def test_extract_digests_are_unchanged():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    run = subprocess.run([sys.executable, "tools/extract_digest.py"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == DIGESTS
