"""The (phi, nabla)-module layer."""

from fractions import Fraction

import pytest

from phinabla.errors import (IrregularSingularity, MissingStructure,
                             WildCover)
from phinabla.modules import (GaugeChange, PhiNablaModule,
                              check_compatibility, direct_sum, dual,
                              horizontal_sections, kummer_pullback,
                              largest_constant_submodule, lmat_identity,
                              lmat_inverse, lmat_is_zero, lmat_mul,
                              module_from_json, module_to_json,
                              residue_exponents, tate_twist, tensor,
                              unipotent_filtration)
from phinabla.padic import RingMode, RingParams
from phinabla.series import LaurentElement


P = RingParams(5, 20, (32, 32), RingMode.LAURENT)


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
    U = [[LaurentElement.one(P), LaurentElement.monomial(P, -1, 7)],
         [LaurentElement.zero(P), LaurentElement.monomial(P, 0, 2)]]
    Ui = lmat_inverse(U)
    prod = lmat_mul(U, Ui)
    eye = lmat_identity(P, 2)
    for i in range(2):
        for j in range(2):
            assert prod[i][j].congruent(eye[i][j])


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


def test_residue_exponents_repeated():
    # diag(1/2, 1/2, 1): the characteristic polynomial has a double root
    diag = [Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    m = PhiNablaModule.from_rational_matrices(
        P, connection=[[{-1: diag[i]} if i == j else {} for j in range(3)]
                       for i in range(3)])
    rr = residue_exponents(m)
    assert sorted(rr.exponents) == diag
    assert rr.semisimple and rr.unresolved_factor is None
