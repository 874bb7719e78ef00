"""Entanglement-assisted stabilizer codes from additive codes over
chain rings Z_{p^b} and Galois rings GR(p^b, m).

The pipeline: hyperbolically decompose an additive code under the trace
symplectic pairing, append entanglement coordinates until the result is
chi-self-orthogonal, and read off the ((n, K, D; c)) parameters.  A
brute-force Pauli-matrix verifier checks small instances exactly; its names
are loaded from ``pauli`` on first use, so importing the package or running
any other command does not load it.
"""

from .codes import (
    AdditiveCode,
    SymplecticVector,
    cardinality,
    chi_dual_level,
    code_intersection,
    is_chi_self_orthogonal,
    is_free,
    min_symplectic_distance,
    symplectic_product,
)
from .decompose import HyperbolicDecomposition, hyperbolic_decompose
from .errors import EaqringError
from .extension import (
    EaqeccParams,
    construct_symplectic_subset,
    eaqecc_params,
    minimum_entanglement_degree,
)
from .galois import (
    GaloisRingSpec,
    RingElement,
    gen_trace,
    make_ring,
    phi_contract,
    phi_expand,
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
    "StabilizerGroup",
    "SymplecticVector",
    "build_stabilizer",
    "cardinality",
    "chi_dual_level",
    "code_intersection",
    "construct_symplectic_subset",
    "eaqecc_params",
    "gen_trace",
    "hyperbolic_decompose",
    "is_chi_self_orthogonal",
    "is_free",
    "make_ring",
    "min_symplectic_distance",
    "minimum_entanglement_degree",
    "pauli_matrix",
    "phi_contract",
    "phi_expand",
    "projector_dimension",
    "symplectic_product",
    "undetectable_error_search",
]

_VERIFIER_NAMES = {"PauliOperator", "StabilizerGroup", "build_stabilizer", "pauli_matrix",
                   "projector_dimension", "undetectable_error_search"}


def __getattr__(name: str):
    """The verifier's names, read off ``pauli`` once something asks for them."""
    if name in _VERIFIER_NAMES:
        from . import pauli
        return getattr(pauli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
