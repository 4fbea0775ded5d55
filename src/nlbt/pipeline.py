"""End-to-end balancing pipeline: energies, transform, scaling, realization."""

import time
from functools import cached_property

from .energy import solve_controllability_energy, solve_observability_energy
from .inod import compute_inod_transform
from .realization import BalancingTransform, build_rom, inverse_transform_coeffs
from .scaling import assemble_scaling_coeffs, compose_balancing, scaling_series_for

__all__ = ["BalancedPipeline", "balance"]


class BalancedPipeline(BalancingTransform):
    """All artifacts of one balancing run of a fixed transform degree.

    :func:`balance` also sets ``stage_s``, the wall seconds of its three
    stages: ``"energy"`` (both energies), ``"inod"`` (the
    input-normal/output-diagonal transform and its contract check) and
    ``"balance"`` (scaling and composition).  The series inverse ``P`` is
    derived data, built on first access and timed in no stage.
    """

    def __init__(self, sys, d_transf, Ec, Eo, inod, scaling_map, Tbar, Tbar1_inv):
        super().__init__(sys, d_transf, inod.hankel, inod.sq_sv, Ec, Eo, Tbar, Tbar1_inv)
        self.inod = inod
        self.scaling_map = scaling_map

    @cached_property
    def P(self):
        """Series inverse of ``Tbar`` to degree ``d_transf``: ``P(Tbar(z)) = z + O(|z|^(d+1))``."""
        return inverse_transform_coeffs(self.Tbar, self.Tbar1_inv, self.d_transf)

    def realize(self, d_rom=None, g_degree=None):
        """Full balanced realization: the order-n :class:`~nlbt.realization.ReducedOrderModel`.

        Drift and output run to degree ``d_rom`` (default ``d_transf``), the
        input map to ``g_degree`` (default ``d_rom - 1``).
        """
        return self.reduce(self.sys.n, d_rom, g_degree=g_degree)

    def reduce(self, r, d_rom=None, x0=None, g_degree=None):
        """Order-r ROM (balance-then-truncate), built on retained columns only."""
        d = self.d_transf if d_rom is None else d_rom
        return build_rom(self, r, d, x0=x0, g_degree=g_degree)


def balance(sys, d_transf):
    """Run the balancing pipeline on a control-affine polynomial system.

    Computes degree-(d_transf+1) energies, the input-normal/output-diagonal
    transform, the scaling series and the composed balancing transformation,
    and records the stage times as ``stage_s``.  Raises
    :class:`~nlbt.errors.HypothesisViolation` when the linearization fails
    the theory's hypotheses.
    """
    if d_transf < 1:
        raise ValueError("transform degree must be at least 1")
    d_energy = d_transf + 1
    t0 = time.perf_counter()
    Ec = solve_controllability_energy(sys, d_energy)
    Eo = solve_observability_energy(sys, d_energy)
    t1 = time.perf_counter()
    inod = compute_inod_transform(Ec, Eo, d_transf)
    t2 = time.perf_counter()
    A_series = scaling_series_for(inod.sq_sv, d_transf)
    scaling_map = assemble_scaling_coeffs(A_series, sys.n, d_transf)
    Tbar = compose_balancing(inod.transform, scaling_map, d_transf)
    # Tbar_1 = T_1 diag(A_1); invert via the known factors
    Tbar1_inv = (1.0 / A_series[:, 1])[:, None] * inod.t1_inverse
    t3 = time.perf_counter()
    pl = BalancedPipeline(sys, d_transf, Ec, Eo, inod, scaling_map, Tbar, Tbar1_inv)
    pl.stage_s = {"energy": t1 - t0, "inod": t2 - t1, "balance": t3 - t2}
    return pl
