"""Entanglement measures on multi-qubit states and verification of the
tightened one-to-group monogamy/polygamy bounds against prior bounds."""

from .bounds import (BoundFamily, BoundParams, BoundReport, Chain,
                     ConditionReport, bound_family, check_conditions,
                     coefficient_K, extract_mu_l, measure_chain, prior_rhs,
                     resolve_params, rhs_assemble, verify)
from .errors import (CapabilityError, ContractError, DimensionError,
                     DomainError, ParameterError)
from .measures import (MeasureKind, MeasureValue, assisted_estimate,
                       concurrence_pure, concurrence_two_qubit, eof, f_eof,
                       g_tsallis, negativity, renyi, tsallis)
from .states import (AMP_CAP, DIM_CAP, DensityMatrix, PureState, SchmidtParams,
                     bell, example1_params, ghz, load_state, random_pure,
                     save_state, schmidt3, seed_path, w_state)

__all__ = [
    # bounds
    "BoundFamily", "BoundParams", "BoundReport", "Chain", "ConditionReport",
    "bound_family", "check_conditions", "coefficient_K", "extract_mu_l",
    "measure_chain", "prior_rhs", "resolve_params", "rhs_assemble", "verify",
    # errors
    "CapabilityError", "ContractError", "DimensionError", "DomainError",
    "ParameterError",
    # measures
    "MeasureKind", "MeasureValue", "assisted_estimate", "concurrence_pure",
    "concurrence_two_qubit", "eof", "f_eof", "g_tsallis", "negativity", "renyi",
    "tsallis",
    # states
    "AMP_CAP", "DIM_CAP", "DensityMatrix", "PureState", "SchmidtParams", "bell",
    "example1_params", "ghz", "load_state", "random_pure", "save_state", "schmidt3",
    "seed_path", "w_state",
]

__version__ = "0.1.0"
