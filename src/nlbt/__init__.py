"""Nonlinear balanced truncation for control-affine polynomial systems.

Pipeline: energy-function series -> input-normal/output-diagonal transform ->
singular-value-function scaling -> balancing transformation -> explicit
balanced realization -> reduced-order model by truncation.  A Newton-iteration
evaluator of the same realization serves as an independent cross-check.
"""

from .energy import (
    EnergyFunction,
    hjb_residual,
    solve_controllability_energy,
    solve_observability_energy,
)
from .errors import (
    BalancingError,
    ContractViolation,
    HypothesisViolation,
    NewtonDivergence,
    ResonanceError,
    ResourceRefusal,
)
from .inod import InodResult, SqSingularValueFns, compute_inod_transform, linear_balancing
from .kron import (
    ControlAffineSystem,
    PolyMap,
    compose,
    polymap_from_monomials,
)
from .pipeline import BalancedPipeline, balance
from .realization import (
    BalancingTransform,
    ReducedOrderModel,
    build_rom,
    inverse_transform_coeffs,
    truncate_transform,
)
from .serialization import (
    load_balance,
    load_rom,
    load_system,
    save_balance,
    save_rom,
    save_system,
)
from .sim import Trajectory, integrate, l2_error, signal, simulate_system

__version__ = "0.1.0"

__all__ = [
    "BalancedPipeline",
    "BalancingError",
    "BalancingTransform",
    "ContractViolation",
    "ControlAffineSystem",
    "EnergyFunction",
    "HypothesisViolation",
    "InodResult",
    "NewtonDivergence",
    "PolyMap",
    "ReducedOrderModel",
    "ResonanceError",
    "ResourceRefusal",
    "SqSingularValueFns",
    "Trajectory",
    "balance",
    "build_rom",
    "compose",
    "compute_inod_transform",
    "hjb_residual",
    "integrate",
    "inverse_transform_coeffs",
    "l2_error",
    "linear_balancing",
    "load_balance",
    "load_rom",
    "load_system",
    "polymap_from_monomials",
    "save_balance",
    "save_rom",
    "save_system",
    "signal",
    "simulate_system",
    "solve_controllability_energy",
    "solve_observability_energy",
    "truncate_transform",
]
