"""Why the flatness ratio alone is not enough to call a point set a plane.

Builds two clouds: a clean noisy rectangle, and the same rectangle with a
compact protrusion in one quadrant sized so the overall eigenvalue ratio
still looks flat. The quarter-split test tells them apart.
"""

import numpy as np

from voxplane import determine_plane, gen_false_positive_slab, gen_plane
from voxplane.plane_test import FLATNESS_RATIO_MAX, QUARTER_RATIO_BOUND, flatness_test

print(f"flatness threshold: ratio < {FLATNESS_RATIO_MAX}")
print(f"quarter thickness bound: within x{QUARTER_RATIO_BOUND} of pooled\n")


def describe(name, cloud):
    decision = determine_plane(cloud.points)
    eig = decision.eig
    lam = eig.eigenvalues
    print(f"{name}: {cloud.points.shape[0]} points")
    print(f"  eigenvalues: {lam[0]:.3g} >= {lam[1]:.3g} >= {lam[2]:.3g}")
    print(f"  flatness ratio {lam[2] / lam[0]:.5f} -> "
          f"{'flat' if flatness_test(eig) else 'not flat'}")
    if decision.quarter_min_eigenvalues is not None:
        ratios = lam[2] / decision.quarter_min_eigenvalues
        marks = ["" if 1 / QUARTER_RATIO_BOUND < r < QUARTER_RATIO_BOUND else "!"
                 for r in ratios]
        print(f"  pooled/quarter thickness ratios (! outside x{QUARTER_RATIO_BOUND}): "
              + " ".join(f"{r:.2f}{m}" for r, m in zip(ratios, marks)))
    verdict = "PLANE" if decision.is_plane else f"REJECTED ({decision.reject_reason.value})"
    print(f"  verdict: {verdict}\n")


clean = gen_plane(np.array([0.0, 0.0, 1.0]), 0.0, (1.0, 1.0), 400.0, 0.005, seed=0)
describe("clean slab", clean)

tricky = gen_false_positive_slab(seed=0)
describe("slab with protrusion", tricky)
