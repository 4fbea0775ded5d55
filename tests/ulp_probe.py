"""The 1-ulp probe: how far rounding alone moves an output.

Every f/g/h coefficient of a system is multiplied by ``1 + 2.2e-16 N(0, 1)``
(one draw per coefficient and seed), and the outputs of interest are
recomputed on each perturbed copy.  Their spread is the rounding floor of
each output: a code change that moves an output by a small multiple of it
moves rounding, not the result.
"""

import numpy as np

from nlbt.kron import ControlAffineSystem, PolyMap

EPS = 2.2e-16


def perturbed(sys, seed, rel=EPS):
    """Copy of ``sys`` with every f/g/h coefficient multiplied by ``1 + rel N(0, 1)``."""
    rng = np.random.default_rng(seed)

    def jitter(M):
        return PolyMap(
            {k: W * (1.0 + rel * rng.standard_normal(W.shape)) for k, W in M.terms.items()},
            M.base_dim, M.rows,
        )

    return ControlAffineSystem(jitter(sys.f), [jitter(gc) for gc in sys.g], jitter(sys.h))


def relative_spread(samples):
    """Largest entrywise range of equally shaped arrays, relative to their largest magnitude."""
    S = np.stack([np.asarray(s, dtype=float) for s in samples])
    top = np.abs(S).max()
    return float(np.ptp(S, axis=0).max() / top) if top > 0 else 0.0


def ulp_floor(sys, outputs, seeds=(0, 1, 2)):
    """Relative spread of each output over the perturbed copies of ``sys``.

    ``outputs(sys)`` returns ``{name: array}``; the result is ``{name:
    spread}`` with the spread of :func:`relative_spread`.
    """
    runs = [outputs(perturbed(sys, seed)) for seed in seeds]
    return {name: relative_spread([r[name] for r in runs]) for name in runs[0]}
