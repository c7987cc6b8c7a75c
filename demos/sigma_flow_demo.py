"""Gradient flow of the Grassmannian sigma-model energy on a lattice.

Reflection-valued fields R(x) carry the Dirichlet-type energy
(1/4) integral Tr(dR dR), discretized on nearest-neighbour links as
(vol/4) sum_links Tr((R_{s+e} - R_s)^2) / h_e^2; descending it by per-site
unitary conjugation keeps R^2 = I exact at every step.  The fixture is the
monopole blade restricted to an equatorial theta band with pinned boundary
rows, whose Dirichlet data pull on their neighbours, and a periodic phi axis.
"""

import numpy as np

from bladegauge.dynamics import (blade_lattice_from_field, sigma_flow,
                                 sigma_lattice_energy)
from bladegauge.em import monopole_blade
from bladegauge.fields import Grid

G = 0.5
CELLS = (10, 16)          # theta x phi
THETA_BAND = (0.35, 0.65)  # fractions of pi
STEPS = 400
ETA = 2e-3


def main():
    blade = monopole_blade(G)
    grid = Grid(lo=(THETA_BAND[0] * np.pi, 0.0),
                hi=(THETA_BAND[1] * np.pi, 2 * np.pi), cells=CELLS)
    lat = blade_lattice_from_field(
        blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
        periodic=(False, True), frozen_boundary_axes=(0,))

    print("=" * 60)
    print(f"monopole band, g = {G}, lattice {CELLS[0]} x {CELLS[1]},"
          f" theta in [{THETA_BAND[0]}, {THETA_BAND[1]}] pi")
    print(f"initial energy            {sigma_lattice_energy(lat):.6f}")
    print(f"initial reflection defect {lat.reflection_defect():.2e}")
    print("-" * 60)

    final, trace = sigma_flow(lat, steps=STEPS, eta=ETA)
    marks = [0, 1, 2, 5, 10, 20, 50, 100, 200, 400]
    print(f"{'step':>6s} {'energy':>12s} {'drop':>12s}")
    for m in marks:
        if m < len(trace):
            print(f"{m:6d} {trace[m]:12.6f} {trace[0] - trace[m]:12.6f}")
    print("-" * 60)
    monotone = all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(trace, trace[1:]))
    print(f"monotone non-increasing   {monotone}")
    print(f"final reflection defect   {final.reflection_defect():.2e}")
    print("boundary rows pinned, interior relaxed; R^2 = I never drifted.")


if __name__ == "__main__":
    main()
