"""Frames for abelian potentials from Darboux pairs.

Any U(1) potential is locally A = sum_k pi_k d phi_k.  One pair fits in a
two-component frame; the fixture A = x0 dx1 + x2 dx3 has F ^ F != 0, needs
rank r = 1, and hence a four-component frame N = 2(r+1).  The demo measures
the rank from wedge powers, builds the frames, and scans the defining residual
V^dag dV - iA over the domain box.
"""

import numpy as np

from bladegauge.blade import extract_potential
from bladegauge.darboux import (darboux_data, darboux_frame, darboux_one_form,
                                darboux_potential, frame_residual_report,
                                verify_rank)
from bladegauge.fields import MINKOWSKI4, exterior_d, form_values, wedge

FIXTURES = [
    ("single pair: A = sin(x0 - x3) dx1", [("sin(x0 - x3)", "x1")]),
    ("two pairs:   A = x0 dx1 + x2 dx3", [("x0", "x1"), ("x2", "x3")]),
]
BOX = dict(lo=[-0.8] * 4, hi=[0.8] * 4)


def main():
    st = MINKOWSKI4
    for label, pairs in FIXTURES:
        data = darboux_data(st, pairs, **BOX)
        print("=" * 66)
        print(label)
        rank = verify_rank(data)
        print(f"measured rank from A ^ (dA)^r: {rank}  "
              f"(pairs - 1 = {data.r})  ->  N = {data.N}")

        da = exterior_d(darboux_one_form(data))
        x = np.array([0.3, 0.2, 0.4, 0.1])
        ff = wedge(form_values(da, x), form_values(da, x))
        ffmax = max(abs(c) for c in ff.values()) if ff else 0.0
        print(f"|F ^ F| at a sample point = {ffmax:.3f}  "
              f"({'non-decomposable' if ffmax > 1e-10 else 'decomposable'})")

        rep = frame_residual_report(data)
        print(f"max |V^dag dV - iA| over {rep['points_checked']} samples: "
              f"{rep['max_residual']:.2e}")
        if rep["near_singular_points"]:
            print(f"near-singular points skipped: {rep['near_singular_points']}")

        v = darboux_frame(data)
        a_frame = extract_potential(v)
        a_decl = darboux_potential(data)
        print("componentwise at the sample point:")
        for mu in range(4):
            got = a_frame.at(x, mu)[0, 0].real
            want = a_decl.at(x, mu)[0, 0].real
            print(f"  A_{mu}: frame {got:+.6f}   declared {want:+.6f}")


if __name__ == "__main__":
    main()
