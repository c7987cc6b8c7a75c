"""Electromagnetic plane wave in the rotating-blade representation.

A_mu = n_mu sin(k.x) is carried by the two-component frame with
alpha = n.x, beta = -n.x, rho = k.x/2 - pi/4.  The demo checks the frame
equation, then contrasts three (k, n) choices:

  1. null transverse      -> solves Maxwell and the frame-variation equation
  2. spacelike k, null n  -> fails Maxwell, solves the frame-variation
                             equation because (k.k)(n.n) = (k.n)^2
  3. condition violated   -> fails both

Case 2 is the point: varying the action through the frame admits more
solutions than varying it through the potential.
"""

import numpy as np

from bladegauge.dynamics import modified_eom_residual, ym_residual
from bladegauge.em import (em_frame, em_potential_residual, plane_wave_mod_condition,
                           plane_wave_params, plane_wave_potential)
from bladegauge.fields import MINKOWSKI4
from bladegauge.linalg import max_abs

CASES = [
    ("null transverse (Maxwell)", [1.0, 0, 0, 1.0], [0, 1.0, 0, 0]),
    ("spacelike k, null n (modified only)", [0, 1.0, 0, 0], [1.0, 0, 1.0, 0]),
    ("condition violated", [0, 1.0, 0, 0], [1.0, 0, 2.0, 0]),
]
POINTS = [np.array([0.3, -0.2, 0.7, 0.1]), np.array([-0.5, 0.4, 0.0, 0.9])]


def main():
    st = MINKOWSKI4
    for label, k, n in CASES:
        k = np.asarray(k, dtype=float)
        n = np.asarray(n, dtype=float)
        params = plane_wave_params(st, k, n)
        a = plane_wave_potential(st, k, n)
        v = em_frame(params)
        print("=" * 68)
        print(f"{label}: k = {k}, n = {n}")
        print(f"  k.k = {st.dot(k, k):+.3f}   k.n = {st.dot(k, n):+.3f}   "
              f"n.n = {st.dot(n, n):+.3f}")
        cond = plane_wave_mod_condition(st, k, n)
        print(f"  (k.k)(n.n) - (k.n)^2 = {cond:+.3f}"
              f"  ->  modified EOM should {'hold' if abs(cond) < 1e-12 else 'fail'}")

        veq = max(em_potential_residual(params, a, mu, x)
                  for x in POINTS for mu in range(4))
        maxwell = max(max_abs(ym_residual(a, nu, x))
                      for x in POINTS for nu in range(4))
        modified = max(max_abs(modified_eom_residual(v, x)) for x in POINTS)
        print(f"  frame equation residual      {veq:.2e}")
        print(f"  Maxwell residual d^mu F      {maxwell:.2e}")
        print(f"  frame-variation EOM residual {modified:.2e}")
    print("=" * 68)
    print("case 2 fails Maxwell yet solves the frame-variation equation:")
    print("the blade formulation of the action is less restrictive.")


if __name__ == "__main__":
    main()
