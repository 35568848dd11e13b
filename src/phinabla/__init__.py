"""Exact (phi, nabla)-module computations over truncated Robba-type rings,
with Weil-Deligne extraction and reduction-type diagnostics."""

__version__ = "0.1.0"

from .errors import PhinablaError
from .padic import PadicNumber, RingParams
from .series import LaurentElement
from .modules import (CompatibilityReport, GaugeChange, PhiNablaModule,
                      check_compatibility, direct_sum, dual,
                      horizontal_sections, kummer_pullback,
                      largest_constant_submodule, module_from_json,
                      module_to_json, residue_exponents, tate_twist, tensor,
                      unipotent_filtration)
from .weil_deligne import (FrobeniusKind, MonodromyFiltration,
                           WeilDeligneRep, compatibility_family,
                           monodromy_filtration, purity_check,
                           quasi_purity_check, special_rep, trace_table,
                           twist, weight_of_eigenvalue)
from .extraction import (key2_normal_form, log_solution_basis, wd_extract,
                         wd_of_cohomology)
from .diagnostics import (AbelianVarietyDatum, OpenCurveDatum, RankProfile,
                          ReductionType, check_weight_monodromy,
                          ell_independence_check, excision_weight_filtration,
                          rank_profile, reduction_type,
                          semistable_weight_filtration)

__all__ = [
    "AbelianVarietyDatum", "CompatibilityReport", "FrobeniusKind",
    "GaugeChange", "LaurentElement", "MonodromyFiltration", "OpenCurveDatum",
    "PadicNumber", "PhinablaError",
    "PhiNablaModule", "RankProfile", "ReductionType", "RingParams",
    "WeilDeligneRep", "check_compatibility",
    "check_weight_monodromy", "compatibility_family", "direct_sum", "dual",
    "ell_independence_check", "excision_weight_filtration",
    "horizontal_sections", "key2_normal_form", "kummer_pullback",
    "largest_constant_submodule", "log_solution_basis", "module_from_json",
    "module_to_json", "monodromy_filtration", "purity_check",
    "quasi_purity_check", "rank_profile", "reduction_type",
    "residue_exponents", "semistable_weight_filtration", "special_rep",
    "tate_twist", "tensor", "trace_table", "twist", "unipotent_filtration",
    "wd_extract", "wd_of_cohomology", "weight_of_eigenvalue",
]
