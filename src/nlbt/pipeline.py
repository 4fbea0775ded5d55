"""End-to-end balancing pipeline: energies, transform, scaling, realization."""

import numpy as np

from .energy import solve_controllability_energy, solve_observability_energy
from .inod import compute_inod_transform
from .realization import (
    BalancedRealization,
    balanced_system,
    build_rom,
    inverse_transform_coeffs,
)
from .scaling import assemble_scaling_coeffs, compose_balancing, scaling_series_for

__all__ = ["BalancedPipeline", "balance"]


class BalancedPipeline:
    """All artifacts of one balancing run of a fixed transform degree."""

    def __init__(self, sys, d_transf, Ec, Eo, inod, scaling_map, Tbar, Tbar1_inv, P):
        self.sys = sys
        self.d_transf = d_transf
        self.Ec = Ec
        self.Eo = Eo
        self.inod = inod
        self.scaling_map = scaling_map
        self.Tbar = Tbar
        self.Tbar1_inv = Tbar1_inv
        self.P = P

    @property
    def hankel(self):
        return self.inod.hankel

    @property
    def sq_sv(self):
        return self.inod.sq_sv

    @property
    def sigma_condition(self):
        return float(self.hankel[0] / self.hankel[-1])

    def realize(self, d_rom=None, g_degree=None, threads=1):
        """Explicit balanced realization to degree ``d_rom`` (default ``d_transf``)."""
        d = self.d_transf if d_rom is None else d_rom
        bal_sys = balanced_system(
            self.sys, self.Tbar, self.Tbar1_inv, d, g_degree=g_degree, threads=threads
        )
        return BalancedRealization(bal_sys, self.Tbar, self.P, self.hankel)

    def reduce(self, r, d_rom=None, x0=None, g_degree=None, threads=1):
        """Order-r ROM (balance-then-truncate)."""
        return build_rom(self.realize(d_rom, g_degree=g_degree, threads=threads), r, x0=x0)


def balance(sys, d_transf):
    """Run the balancing pipeline on a control-affine polynomial system.

    Computes degree-(d_transf+1) energies, the input-normal/output-diagonal
    transform, the scaling series, the composed balancing transformation, and
    its series inverse.  Raises :class:`~nlbt.errors.HypothesisViolation` when
    the linearization fails the theory's hypotheses.
    """
    if d_transf < 1:
        raise ValueError("transform degree must be at least 1")
    d_energy = d_transf + 1
    Ec = solve_controllability_energy(sys, d_energy)
    Eo = solve_observability_energy(sys, d_energy)
    inod = compute_inod_transform(Ec, Eo, d_transf)
    A_series = scaling_series_for(inod.sq_sv, d_transf)
    scaling_map = assemble_scaling_coeffs(A_series, sys.n, d_transf)
    Tbar = compose_balancing(inod.transform, scaling_map, d_transf)
    # Tbar_1 = T_1 diag(A_1); invert via the known factors
    Tbar1_inv = (1.0 / A_series[:, 1])[:, None] * inod.t1_inverse
    P = inverse_transform_coeffs(Tbar, Tbar1_inv, d_transf)
    return BalancedPipeline(
        sys, d_transf, Ec, Eo, inod, scaling_map, Tbar, Tbar1_inv, P
    )
