"""Entanglement measures on multi-qubit states and verification of the
tightened one-to-group monogamy/polygamy bounds against prior bounds."""

from .bounds import BoundParams, bound_family, coefficient_K, verify
from .errors import (CapabilityError, ContractError, DimensionError,
                     DomainError, ParameterError)
from .measures import (MeasureKind, MeasureValue, concurrence_pure,
                       concurrence_two_qubit, eof, f_eof, g_tsallis, negativity,
                       renyi, tsallis)
from .states import (DensityMatrix, PureState, SchmidtParams, bell,
                     example1_params, ghz, load_state, random_pure, save_state,
                     schmidt3, seed_path, w_state)

__all__ = [
    # bounds
    "BoundParams", "bound_family", "coefficient_K", "verify",
    # errors
    "CapabilityError", "ContractError", "DimensionError", "DomainError",
    "ParameterError",
    # measures
    "MeasureKind", "MeasureValue", "concurrence_pure", "concurrence_two_qubit", "eof",
    "f_eof", "g_tsallis", "negativity", "renyi", "tsallis",
    # states
    "DensityMatrix", "PureState", "SchmidtParams", "bell", "example1_params", "ghz",
    "load_state", "random_pure", "save_state", "schmidt3", "seed_path", "w_state",
]

__version__ = "0.1.0"
