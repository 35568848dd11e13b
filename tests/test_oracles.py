"""Independent oracles: point counting, axiom transcription, brute-force
filtrations, ODE recurrence, weight certification."""

import random
from fractions import Fraction

import pytest

from phinabla import linalg
from phinabla.errors import NotWeil, SingularCurve, Uncertifiable
from phinabla.oracles import (algebraic_weight, brute_force_filtrations,
                              count_points_weierstrass,
                              ode_recurrence_solutions,
                              verify_monodromy_axioms)
from phinabla.weil_deligne import monodromy_filtration


F = Fraction


# -- point counting ---------------------------------------------------------

def test_count_f2_supersingular():
    # y^2 + y = x^3 over F_2: a = 0, 3 affine + infinity
    c = count_points_weierstrass(2, (0, 0, 1, 0, 0))
    assert c.count == 3
    assert c.trace == 0
    assert c.charpoly == (2, 0, 1)


def test_count_f5():
    c = count_points_weierstrass(5, (0, 0, 0, 1, 0))  # y^2 = x^3 + x
    assert c.trace == 2
    assert c.count == 4


def test_count_f7_pair():
    assert count_points_weierstrass(7, (0, 0, 0, 1, 0)).trace == 0
    assert count_points_weierstrass(7, (0, 0, 0, 1, 1)).trace == 3


def test_hasse_bound_on_sweep():
    for a4 in range(1, 7):
        for a6 in range(7):
            try:
                c = count_points_weierstrass(7, (0, 0, 0, a4, a6))
            except SingularCurve:
                continue
            assert c.trace * c.trace <= 28


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        count_points_weierstrass(5, (0, 0, 0, 0, 0))  # y^2 = x^3


def test_composite_q_rejected():
    with pytest.raises(ValueError):
        count_points_weierstrass(9, (0, 0, 0, 1, 1))


# -- axiom transcription ----------------------------------------------------

def test_axioms_accept_correct_filtration():
    N = [[F(0), F(1)], [F(0), F(0)]]
    fil = {-1: [[F(1), F(0)]], 0: [[F(1), F(0)]],
           1: [[F(1), F(0)], [F(0), F(1)]]}
    ok, witness = verify_monodromy_axioms(N, fil)
    assert ok and witness is None


def test_axioms_reject_shifted_filtration():
    N = [[F(0), F(1)], [F(0), F(0)]]
    bad = {-1: [], 0: [[F(1), F(0)]],
           1: [[F(1), F(0)], [F(0), F(1)]]}
    ok, witness = verify_monodromy_axioms(N, bad)
    assert not ok
    assert witness is not None


def test_axioms_reject_wrong_kernel_line():
    N = [[F(0), F(1)], [F(0), F(0)]]
    bad = {-1: [[F(0), F(1)]], 0: [[F(0), F(1)]],
           1: [[F(1), F(0)], [F(0), F(1)]]}
    ok, _ = verify_monodromy_axioms(N, bad)
    assert not ok


def test_axioms_match_kernel_filtration_j3():
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    fil = monodromy_filtration(N)
    ok, witness = verify_monodromy_axioms(
        N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
    assert ok, witness


def test_axioms_random_conjugates():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(2, 5)
        N = [[F(rng.randint(-2, 2)) if j > i else F(0)
              for j in range(d)] for i in range(d)]
        U = [[F(1) if i == j else F(rng.randint(-1, 1)) if j > i else F(0)
              for j in range(d)] for i in range(d)]
        Ui = linalg.mat_inv(U)
        Nc = linalg.mat_mul(Ui, linalg.mat_mul(N, U))
        fil = monodromy_filtration(Nc)
        ok, witness = verify_monodromy_axioms(
            Nc, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
        assert ok, witness


# -- brute-force uniqueness -------------------------------------------------

def test_unique_filtration_e12():
    N = [[F(0), F(1)], [F(0), F(0)]]
    found = brute_force_filtrations(N)
    assert len(found) == 1
    fil = monodromy_filtration(N)
    from phinabla.oracles import _rank
    got = found[0]
    for k in range(-1, 2):
        assert _rank(got[k]) == fil.rank(k)


def test_unique_filtration_zero_operator():
    found = brute_force_filtrations([[F(0)]])
    assert len(found) == 1


def test_unique_filtration_j3():
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    assert len(brute_force_filtrations(N)) == 1


def test_unique_filtration_mixed_blocks():
    # J_2 + J_1: s = 1 with a nontrivial Gr_0
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]]
    assert len(brute_force_filtrations(N)) == 1


# -- ODE recurrence ---------------------------------------------------------

def test_recurrence_matches_kt():
    tG = {0: [[F(0), F(1)], [F(0), F(0)]]}
    rep = ode_recurrence_solutions(tG, 2, (-6, 6))
    assert len(rep.solutions) == 1
    sol = rep.solutions[0]
    assert set(sol) == {0}
    assert sol[0][1] == 0 and sol[0][0] != 0
    assert rep.obstruction_exponents == [F(0), F(0)]


def test_recurrence_zero_connection():
    tG = {}
    rep = ode_recurrence_solutions(tG, 2, (-4, 4))
    assert len(rep.solutions) == 2
    assert rep.obstruction_exponents == [F(0), F(0)]


def test_recurrence_half_exponent_has_no_solutions():
    tG = {0: [[F(1, 2)]]}
    rep = ode_recurrence_solutions(tG, 1, (-6, 6))
    assert rep.solutions == []
    assert rep.obstruction_exponents == [F(-1, 2)]


def test_recurrence_integer_exponent_shifts_solution():
    # (D - 3)v = 0 has solution t^3
    tG = {0: [[F(-3)]]}
    rep = ode_recurrence_solutions(tG, 1, (-6, 6))
    assert len(rep.solutions) == 1
    assert set(rep.solutions[0]) == {3}
    assert rep.obstruction_exponents == [F(3)]


def test_recurrence_rejects_non_terminating_series():
    # D v + t v = 0 has only v = exp(-t), which never terminates; the
    # oracle demands exact termination inside the window, so no solutions
    tG = {1: [[F(1)]]}
    rep = ode_recurrence_solutions(tG, 1, (0, 8))
    assert rep.solutions == []


def test_recurrence_polynomial_solutions():
    # D v1 = 0, D v2 = t v1: solutions (a, b + a t)
    tG = {1: [[F(0), F(0)], [F(-1), F(0)]]}
    rep = ode_recurrence_solutions(tG, 2, (0, 6))
    assert len(rep.solutions) == 2
    joined = {}
    for sol in rep.solutions:
        for n, vec in sol.items():
            joined.setdefault(n, []).append(vec)
    assert set(joined) <= {0, 1}
    # the t-coefficient is forced into the second component
    for vec in joined.get(1, []):
        assert vec[0] == 0


def test_recurrence_rejects_pole():
    from phinabla.errors import IrregularSingularity
    with pytest.raises(IrregularSingularity):
        ode_recurrence_solutions({-1: [[F(1)]]}, 1, (-4, 4))


# -- algebraic weights ------------------------------------------------------

def test_weight_rational_roots():
    # (T - 1)(T - 5): weights 0 and 2 over q = 5
    assert algebraic_weight([5, -6, 1], 5) == [F(0), F(2)]


def test_weight_supersingular():
    assert algebraic_weight([2, 0, 1], 2) == [F(1), F(1)]


def test_weight_ordinary_quadratic():
    assert algebraic_weight([5, -2, 1], 5) == [F(1), F(1)]


def test_weight_quartic_numeric():
    got = algebraic_weight([4, -4, 4, -2, 1], 2)
    assert got == [F(1)] * 4


def test_weight_mixed_list():
    # (T - 1)(T^2 + 2) over q = 2: weights 0, 1, 1
    assert algebraic_weight([-2, 2, -1, 1], 2) == [F(0), F(1), F(1)]


def test_weight_not_weil():
    with pytest.raises(NotWeil):
        algebraic_weight([-1, -2, 1], 2)  # roots 1 +- sqrt(2)
    with pytest.raises(NotWeil):
        algebraic_weight([-3, 1], 5)  # root 3 is not a power of 5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_weight_margin_is_scale_free(q, n):
    # T^3 - T - 1 has roots of moduli 1.325 and 0.869, and twisted by q^n
    # (roots times q^n) the same verdict: the margin is on log|alpha|
    c = F(q) ** n
    with pytest.raises(NotWeil):
        algebraic_weight([-c ** 3, -c ** 2, 0, 1], q)


def test_weight_zero_root_rejected():
    with pytest.raises(NotWeil):
        algebraic_weight([0, 1], 5)


def test_weight_prime_power_q():
    # q = 4: root 2 has weight 1
    assert algebraic_weight([-2, 1], 4) == [F(1)]
