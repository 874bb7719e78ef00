"""Entanglement-assisted stabilizer codes from additive codes over
chain rings Z_{p^b} and Galois rings GR(p^b, m).

The pipeline: hyperbolically decompose an additive code under the trace
symplectic pairing, append entanglement coordinates until the result is
chi-self-orthogonal, and read off the ((n, K, D; c)) parameters.  A
brute-force Pauli-matrix verifier checks small instances exactly.
"""

from .codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    chi_dual_level,
    code_intersection,
    is_chi_self_orthogonal,
    is_free,
    iterate_codewords,
    min_symplectic_distance,
    puncture,
    same_module,
    symplectic_product,
    symplectic_weight,
)
from .decompose import (
    HyperbolicDecomposition,
    hyperbolic_decompose,
    rho_profile,
    verify_prop_count,
)
from .errors import EaqringError
from .extension import (
    EaqeccParams,
    SelfOrthogonalExtension,
    SymplecticSubset,
    build_extension,
    build_minimal_extension,
    construct_symplectic_subset,
    eaqecc_params,
    minimum_entanglement_degree,
    verify_quasi_symplectic,
)
from .galois import (
    GaloisRingSpec,
    RingElement,
    char_exponent,
    frobenius,
    gen_trace,
    make_ring,
    phi_contract,
    phi_expand,
    teichmuller_decompose,
)
from .pauli import (
    PauliOperator,
    StabilizerGroup,
    build_stabilizer,
    compose,
    pauli_matrix,
    projector_dimension,
    psi_map,
    undetectable_error_search,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveCode",
    "EaqeccParams",
    "EaqringError",
    "GaloisRingSpec",
    "HyperbolicDecomposition",
    "PauliOperator",
    "RingElement",
    "SelfOrthogonalExtension",
    "StabilizerGroup",
    "SymplecticSubset",
    "SymplecticVector",
    "build_extension",
    "build_minimal_extension",
    "build_stabilizer",
    "cardinality",
    "char_exponent",
    "chi_dual_level",
    "code_intersection",
    "compose",
    "construct_symplectic_subset",
    "eaqecc_params",
    "frobenius",
    "gen_trace",
    "hyperbolic_decompose",
    "is_chi_self_orthogonal",
    "is_free",
    "iterate_codewords",
    "make_ring",
    "min_symplectic_distance",
    "minimum_entanglement_degree",
    "pauli_matrix",
    "phi_contract",
    "phi_expand",
    "projector_dimension",
    "psi_map",
    "puncture",
    "rho_profile",
    "same_module",
    "symplectic_product",
    "symplectic_weight",
    "teichmuller_decompose",
    "undetectable_error_search",
    "verify_prop_count",
    "verify_quasi_symplectic",
]
