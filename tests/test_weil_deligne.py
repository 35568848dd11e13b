"""Weil-Deligne layer: filtration, weights, purity, families."""

import random
from fractions import Fraction

import mpmath
import pytest

from phinabla import linalg, oracles
from phinabla.errors import NotNilpotent, NotWeil
from phinabla.weil_deligne import (FrobeniusKind, WeilDeligneRep,
                                   compatibility_family,
                                   monodromy_filtration, purity_check,
                                   quasi_purity_check, special_rep,
                                   trace_table, twist, weight_of_eigenvalue)


F = Fraction


def random_nilpotent(rng, d):
    """Strictly upper triangular, conjugated by a random shear."""
    N = [[F(rng.randint(-2, 2)) if j > i else F(0) for j in range(d)]
         for i in range(d)]
    U = [[F(1) if i == j else F(rng.randint(-1, 1)) if j > i else F(0)
          for j in range(d)] for i in range(d)]
    Ui = linalg.mat_inv(U)
    return linalg.mat_mul(Ui, linalg.mat_mul(N, U))


# -- monodromy filtration ---------------------------------------------------

def test_zero_operator_trivial_filtration():
    fil = monodromy_filtration([[F(0)]])
    assert fil.s == 0
    assert fil.rank(0) == 1
    assert fil.rank(-1) == 0


def test_e12_filtration_matches_hand_computation():
    fil = monodromy_filtration([[F(0), F(1)], [F(0), F(0)]])
    assert fil.s == 1
    assert fil.basis(-1) == [[F(1), F(0)]]
    assert fil.basis(0) == [[F(1), F(0)]]
    assert fil.rank(1) == 2


def test_non_nilpotent_rejected():
    with pytest.raises(NotNilpotent):
        monodromy_filtration([[F(1)]])


def test_filtration_conjugation_covariance():
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]]
    U = [[F(1), F(2), F(0)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]]
    Ui = linalg.mat_inv(U)
    Nc = linalg.mat_mul(Ui, linalg.mat_mul(N, U))
    fil = monodromy_filtration(N)
    filc = monodromy_filtration(Nc)
    for k in range(-fil.s, fil.s + 1):
        moved = [linalg.mat_vec(Ui, v) for v in fil.basis(k)]
        assert linalg.same_space(moved, filc.basis(k))


def test_random_nilpotents_satisfy_axioms():
    from phinabla.oracles import verify_monodromy_axioms
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 6)
        N = random_nilpotent(rng, d)
        fil = monodromy_filtration(N)
        ok, witness = verify_monodromy_axioms(
            N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
        assert ok, witness


# -- weights ----------------------------------------------------------------

def test_weight_of_q_is_two():
    assert weight_of_eigenvalue(5, 5) == 2
    assert weight_of_eigenvalue(1, 5) == 0
    assert weight_of_eigenvalue(F(1, 5), 5) == -2


def test_weight_of_supersingular_quadratic():
    # roots of T^2 + 2 over q = 2 have |a| = sqrt(2)
    assert weight_of_eigenvalue([2, 0, 1], 2) == 1


def test_weight_of_ordinary_quadratic():
    assert weight_of_eigenvalue([5, -2, 1], 5) == 1


def test_non_weil_real_quadratic():
    with pytest.raises(NotWeil):
        weight_of_eigenvalue([-1, -2, 1], 2)  # 1 +- sqrt(2)


def test_non_weil_rational():
    with pytest.raises(NotWeil):
        weight_of_eigenvalue(3, 5)


def test_arithmetic_convention_negates():
    assert weight_of_eigenvalue(5, 5, FrobeniusKind.ARITHMETIC) == -2


def test_weight_of_prime_power_q():
    # q = 4 = 2^2: alpha = 2 has |2| = 4^(1/2), weight 1
    assert weight_of_eigenvalue(2, 4) == 1


def test_numeric_weight_degree_four():
    # (T^2 + 2)(T^2 - 2T + 2): all roots of modulus sqrt(2)
    assert weight_of_eigenvalue([4, -4, 4, -2, 1], 2) == 1


# -- representations and purity ---------------------------------------------

def test_constructor_enforces_equivariance():
    # Phi = diag(q, 1) with N = E_12 gives the wrong scalar
    with pytest.raises(ValueError):
        WeilDeligneRep(5, [[5, 0], [0, 1]], [[0, 1], [0, 0]])


def test_constructor_enforces_nilpotence():
    with pytest.raises(NotNilpotent):
        WeilDeligneRep(5, [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_sp2_not_pure_but_quasi_pure():
    rep = special_rep(5)
    assert not purity_check(rep, 1).pure
    qp = quasi_purity_check(rep, 1)
    assert qp.pure
    found = {g.index: g.weights for g in qp.graded}
    assert found == {-1: [F(0)], 1: [F(2)]}


def test_trivial_rep_pure_weight_zero():
    rep = WeilDeligneRep(5, [[F(1)]])
    assert purity_check(rep, 0).pure


def test_purity_implies_quasi_purity_when_n_zero():
    rep = WeilDeligneRep(5, [[0, -5], [1, 2]])
    assert purity_check(rep, 1).pure
    assert quasi_purity_check(rep, 1).pure


def test_twist_shifts_weights():
    rep = WeilDeligneRep(5, [[F(1)]])
    assert purity_check(twist(rep, 1), -2).pure
    assert purity_check(twist(twist(rep, 1), -1), 0).pure


def test_twist_shifts_quasi_purity_on_sp2():
    rep = special_rep(5)
    assert quasi_purity_check(twist(rep, 1), -1).pure


def test_inertia_validation():
    T = [[F(-1)]]
    rep = WeilDeligneRep(4, [[F(2)]], inertia_order=2, inertia_matrix=T)
    assert rep.inertia_order == 2
    with pytest.raises(ValueError):
        WeilDeligneRep(4, [[F(2)]], inertia_order=3, inertia_matrix=T)


# -- families ---------------------------------------------------------------

def test_identical_family_compatible():
    fam = compatibility_family([special_rep(5), special_rep(5)], 6)
    assert fam.compatible


def test_sp2_vs_unramified_incompatible():
    unram = WeilDeligneRep(5, [[1, 0], [0, 5]])
    fam = compatibility_family([special_rep(5), unram], 6)
    assert not fam.compatible
    idx, key, _got, _ref = fam.witness
    assert idx == 1


def test_trace_table_shape():
    tab = trace_table(special_rep(5), 3)
    assert tab[(-1, 1)] == 1
    assert tab[(1, 2)] == 25
    assert (0, 1) not in tab


def test_trace_table_conjugation_invariance():
    rep = special_rep(5)
    U = [[F(1), F(3)], [F(0), F(1)]]
    Ui = linalg.mat_inv(U)
    conj = lambda M: linalg.mat_mul(Ui, linalg.mat_mul(M, U))
    other = WeilDeligneRep(5, conj(rep.phi), conj(rep.N))
    assert trace_table(rep, 5) == trace_table(other, 5)


def test_singleton_family_compatible():
    assert compatibility_family([special_rep(7)], 6).compatible


def test_json_roundtrip():
    rep = special_rep(5)
    back = WeilDeligneRep.from_json(rep.to_json())
    assert back.phi == rep.phi
    assert back.N == rep.N
    assert back.frobenius_kind is rep.frobenius_kind


@pytest.mark.parametrize("weigh", [weight_of_eigenvalue,
                                   oracles.algebraic_weight])
def test_numeric_weights_keep_mpmath_precision(weigh):
    # T^4 + 25 has no rational root, so both take the numeric path
    before = mpmath.mp.dps
    weigh([25, 0, 0, 0, 1], 5)
    assert mpmath.mp.dps == before
