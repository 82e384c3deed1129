"""Verification toolkit for rotation-symmetric and comb-based bosonic codes.

Exact rational-of-pi phase arithmetic where the math is exact, explicit
tolerances where truncation makes it approximate.
"""

from .errors import (
    CVCodeError,
    DegenerateSpectrum,
    IncompleteFamily,
    InvalidDimension,
    NonOrthonormalCodewords,
    NonRationalPhase,
    NotSemiUnitary,
    UnitMismatch,
    UnknownLabel,
    ZeroProjection,
)
from .phases import as_fraction, mod2, phase_to_complex
from .fock import (
    FockOperator,
    FockVector,
    adjoint,
    apply_operator,
    approx_ideal_rot_codeword,
    coherent_state,
    crot,
    diagonal_phase_operator,
    diagonal_value_operator,
    fock_operator,
    identity,
    inner,
    rot_codeword_from_primitive,
    rot_logical_op,
    rot_primitive_validity,
    u_invariant_projector,
)
from .combs import (
    CombState,
    CombUnit,
    TwoModeComb,
    bridge_unit,
    comb_equal_up_to_phase,
    finite_comb,
    gkp_apply,
    gkp_codeword,
    periodic_comb,
    product_comb,
    trans_primitive_validity,
    trans_projector_apply,
)
from .isometries import (
    Alg1Result,
    BlockOperator,
    PartialIsometryRep,
    SpectrumSpec,
    alg1_pipeline,
    alg1_report,
    canonical_partial_isometry,
    cyclic_structure,
    iota_embed,
    kappa_extract,
    unitary_from_family,
    validate_spectrum_family,
)
from .bridge import (
    bridge_gate_table,
    map_error_generators,
    omega_map_translation,
    upsilon_apply,
    upsilon_project,
)
from .verify import (
    DetectabilityReport,
    LogicalActionResult,
    convergence_scan,
    detectability_check,
    gkp_exact_suite,
    logical_action,
    stabilizer_check,
)

__version__ = "0.1.0"
