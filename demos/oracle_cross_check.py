"""Cross check of the spectral propagator against a grid solver.

Runs the same scattering scenario through the semi-analytic spectral
evolution and through an independent finite-difference solver (fourth-order
unitary time stepping by the (2,2) Pade approximant of exp(-i H dt), one
banded LU solve per step), then reports the relative L2 distance between the two wave
functions at a few sample times.  Uses a moderate-bandwidth packet on a
short flight so the run finishes in well under a minute.

Run:  python3 demos/oracle_cross_check.py
Exits 1 when the fields differ by L2_rel >= 1e-3 at any sample time.
"""

import sys
import time
from types import SimpleNamespace

import numpy as np

from mstwell import (
    PacketSpec,
    PotentialSpec,
    compare,
    evolve,
    evolve_grid,
    grid_for_scenario,
)

PACKET = PacketSpec(e_perp_tilde=100.0, sigma_tilde=0.3, x_i_tilde=-6.0)
POTENTIAL = PotentialSpec(u_tilde=10.0, delta_tilde=40.0)
TIMES = [0.1, 0.2]


def main():
    t0 = time.time()
    grid = grid_for_scenario(PACKET, POTENTIAL, TIMES[-1],
                             dx_refine=2.0, dt_refine=2.0)
    print(f"grid: x in [{grid.x_min:g}, {grid.x_max:g}], "
          f"dx={grid.dx:.3g}, dt={grid.dt:.3g}")
    oracle = evolve_grid(PACKET, POTENTIAL, grid, TIMES)
    print(f"grid solve: {time.time() - t0:.1f}s, "
          f"{oracle.time_steps} steps, norm drift {oracle.norm_drift:.2e}")

    stride = max(1, oracle.x_grid.size // 801)
    x_sub = oracle.x_grid[::stride]
    sub = SimpleNamespace(x_grid=x_sub, t_grid=oracle.t_grid,
                          psi=oracle.psi[:, ::stride])
    t1 = time.time()
    spectral = evolve(PACKET, POTENTIAL, x_sub, np.asarray(TIMES))
    print(f"spectral solve on {x_sub.size} points: {time.time() - t1:.1f}s")

    failed = False
    for i, tv in enumerate(TIMES):
        l2 = compare(sub, spectral, "L2_rel", time_index=i)
        linf = compare(sub, spectral, "Linf_rel", time_index=i)
        ok = l2 < 1e-3  # a NaN distance fails too
        failed |= not ok
        print(f"t={tv:.2f}  L2_rel={l2:.3e}  Linf_rel={linf:.3e}  [{'ok' if ok else 'FAIL'}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
