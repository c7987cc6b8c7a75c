"""Walk through the rotating-blade identities on a random smooth frame.

Constructs V(x) = exp(i H(x)) V0 with an exact analytic derivative, builds the
blade R, shape operator S, and curvature Omega, and prints every identity that
makes the blade variables work:

  R^2 = I,  R = R^dag,  tr R = 2n - N
  R S = -S R            (the shape operator exchanges the blade and its complement)
  dR + i[S, R] = 0      (the blade is covariantly constant)
  dS_nu - dS_mu = -2i[S_mu, S_nu]
  Omega = -i[D, D] = -i[S, S] = -(i/4)[dR, dR] = -i[dP, dP]
  F = V^dag Omega V, and everything invariant under V -> V u^dag
"""

import numpy as np

from bladegauge.blade import (Frame, blade_curvature, blade_from_frame,
                              extract_potential, four_way, random_gauge_map,
                              random_smooth_frame, shape_identity_residual,
                              shape_operator)
from bladegauge.fields import MINKOWSKI4
from bladegauge.gauge import field_strength
from bladegauge.linalg import dagger, max_abs

N, n = 4, 2
SEED = 11
POINT = np.array([0.3, -0.2, 0.5, 0.1])


def main():
    st = MINKOWSKI4
    v = random_smooth_frame(st, N, n, seed=SEED)
    blade = blade_from_frame(v)
    s = shape_operator(blade)
    omega = blade_curvature(blade)
    x = POINT

    print("=" * 64)
    print(f"random smooth frame, N = {N}, n = {n}, seed = {SEED}")
    print(f"evaluation point x = {x}")
    print("=" * 64)

    r = blade.at(x)
    print(f"|V^dag V - I|            = {max_abs(dagger(v.at(x)) @ v.at(x) - np.eye(n)):.2e}")
    print(f"|R^2 - I|                = {max_abs(r @ r - np.eye(N)):.2e}")
    print(f"|R - R^dag|              = {max_abs(r - dagger(r)):.2e}")
    print(f"|tr R - (2n - N)|        = {abs(np.trace(r).real - (2 * n - N)):.2e}")

    for mu in (0, 2):
        sv = s.at(x, mu)
        print(f"|R S_{mu} + S_{mu} R|          = {max_abs(r @ sv + sv @ r):.2e}")
        dr = blade.R.d(x, mu)
        print(f"|dR_{mu} + i[S_{mu}, R]|        = {max_abs(dr + 1j * (sv @ r - r @ sv)):.2e}")

    print(f"|dS - dS + 2i[S, S]|     = "
          f"{max_abs(shape_identity_residual(s, 0, 2, x)):.2e}")

    vals, disc = four_way(blade, x, 0, 2)
    print("-" * 64)
    print("four expressions for Omega_02 (first entry shown):")
    for name, m in vals.items():
        print(f"  {name:22s} {m[0, 0]:+.10f}")
    print(f"max pairwise discrepancy = {disc:.2e}")

    print("-" * 64)
    a = extract_potential(v)
    fs = field_strength(a)
    gap = max_abs(fs.at(x, 0, 2) - dagger(v.at(x)) @ omega.at(x, 0, 2) @ v.at(x))
    print(f"|F - V^dag Omega V|      = {gap:.2e}")

    u = random_gauge_map(st, n, seed=SEED + 1)
    v2 = Frame(st, N, n, v.V @ u.f.dagger())
    blade2 = blade_from_frame(v2)
    s2 = shape_operator(blade2)
    print(f"|R - R'| after V -> Vu^dag   = {max_abs(r - blade2.at(x)):.2e}")
    print(f"|S - S'| after V -> Vu^dag   = {max_abs(s.at(x, 1) - s2.at(x, 1)):.2e}")
    print("the gauge has been eliminated: the blade never felt u(x)")


if __name__ == "__main__":
    main()
