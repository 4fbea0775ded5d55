"""Curved-manifold reduction of a 3-state quintic model.

Truncating the least important balanced state projects the dynamics onto a
curved 2D manifold.  The same reduction with a linear transformation projects
onto a flat subspace and misses both the initial condition and part of the
output.  Reproduces the reduced models and error comparison, including the
white-noise manifold-adherence check.

Run:  python demos/03_manifold_reduction_3d.py
"""

import numpy as np

from nlbt import balance
from nlbt.models import three_dim_illustrative
from nlbt.sim import simulate_system, white_noise, zero_signal


def discrete_l2(a, b, channel=0):
    return float(np.sqrt(np.sum((a.y[:, channel] - b.y[:, channel]) ** 2)))


def main():
    sys = three_dim_illustrative(exact=True)
    x0 = np.array([-1.0, -2.0, -4.0])
    horizon, samples = (0.0, 10.0), 101  # dt = 0.1

    cubic = balance(sys, d_transf=3)
    linear = balance(sys, d_transf=1)
    print("Hankel singular values:", cubic.hankel)

    rom_nl = cubic.reduce(2, d_rom=3, x0=x0)
    rom_lin = linear.reduce(2, d_rom=5, x0=x0)
    print("manifold ROM initial condition:", rom_nl.x_r0)
    print("subspace ROM initial condition:", rom_lin.x_r0)

    fom = simulate_system(sys, x0, zero_signal(), horizon, n_samples=samples)
    tr_nl = simulate_system(rom_nl.sys, rom_nl.x_r0, zero_signal(), horizon, n_samples=samples)
    tr_lin = simulate_system(rom_lin.sys, rom_lin.x_r0, zero_signal(), horizon, n_samples=samples)
    print(f"output error, manifold ROM: {discrete_l2(fom, tr_nl):.3f}")
    print(f"output error, subspace ROM: {discrete_l2(fom, tr_lin):.3f}")

    # white-noise response stays near the manifold x = T_r([z1, z2])
    noisy = simulate_system(sys, np.zeros(3), white_noise(0.3, seed=0, hold_dt=0.05),
                            (0.0, 10.0), n_samples=201, rel_tol=1e-6, abs_tol=1e-8)
    dist = []
    for x in noisy.x:
        zbar = rom_nl.P(x)
        dist.append(np.linalg.norm(rom_nl.lift(zbar) - x))
    spread = np.linalg.norm(noisy.x, axis=1).max()
    print(f"white-noise manifold adherence: max distance {max(dist):.3e} "
          f"(state magnitude up to {spread:.3f})")
    fom.to_csv("three_dim_fom.csv")
    tr_nl.to_csv("three_dim_rom_manifold.csv")
    tr_lin.to_csv("three_dim_rom_subspace.csv")
    print("wrote three_dim_{fom,rom_manifold,rom_subspace}.csv")


if __name__ == "__main__":
    main()
