"""Exact perturbative primitive forms for weighted-homogeneous
singularities: Milnor-basis analysis, Brieskorn-lattice reduction,
oscillator matrices, the primitive form solved order by order in u,
moduli of opposite filtrations, and Saito's higher residue pairing K of
any analyzed singularity or of the P^1 mirror, read off the Brieskorn
reduction."""

from .mpoly import MPoly, TruncationMismatch, WeightSystem
from .singularity import (K, DegeneratePairing, EulerIdentityViolated,
                          NonIsolatedSingularity, P1MirrorData,
                          SingularityData, analyze, orthogonalize_basis,
                          pairing_univariate, validate)
from .brieskorn import ReducedClass, ReductionGuardError, reduce_class
from .unfolding import (GradingViolation, InvalidOverride,
                        OppositeFiltration, UnfoldingData, UnfoldRingElem,
                        build_unfolding, exp_series, oscillator_matrices)
from .primitive import (PrimitiveForm, primitive_form, verify_class_equal,
                        verify_primitive)
from .moduli import ModuliReport, dimension_D, moduli_report, y_constraints

__all__ = [
    "MPoly", "TruncationMismatch", "WeightSystem", "SingularityData",
    "P1MirrorData",
    "analyze", "validate", "orthogonalize_basis",
    "EulerIdentityViolated", "NonIsolatedSingularity", "DegeneratePairing",
    "ReducedClass", "ReductionGuardError", "reduce_class",
    "UnfoldRingElem", "exp_series",
    "UnfoldingData", "OppositeFiltration", "GradingViolation",
    "InvalidOverride",
    "build_unfolding", "oscillator_matrices",
    "PrimitiveForm", "primitive_form", "verify_primitive",
    "verify_class_equal",
    "ModuliReport", "dimension_D", "moduli_report", "y_constraints",
    "K", "pairing_univariate",
]
