"""Why the flatness ratio alone is not enough to call a point set a plane.

Builds two clouds: a clean noisy rectangle, and the same rectangle with a
compact protrusion in one quadrant sized so the overall eigenvalue ratio
still looks flat. The quarter-split test tells them apart.
"""

import numpy as np

from voxplane import (
    PlaneTestParams,
    determine_plane,
    flatness_test,
    gen_false_positive_slab,
    gen_plane,
)

params = PlaneTestParams()
print(f"flatness threshold: ratio < {params.flatness_ratio_max}")
print(f"quarter thickness bound: within x{params.quarter_ratio_bound} of pooled\n")


def describe(name, cloud):
    decision = determine_plane(cloud.points, params)
    eig = decision.eig
    lam = eig.eigenvalues
    print(f"{name}: {cloud.points.shape[0]} points")
    print(f"  eigenvalues: {lam[0]:.3g} >= {lam[1]:.3g} >= {lam[2]:.3g}")
    print(f"  flatness ratio {lam[2] / lam[0]:.5f} -> "
          f"{'flat' if flatness_test(eig, params.flatness_ratio_max) else 'not flat'}")
    if decision.quarter_min_eigenvalues is not None:
        ratios = lam[2] / decision.quarter_min_eigenvalues
        print(f"  pooled/quarter thickness ratios: "
              + " ".join(f"{r:.2f}" for r in ratios))
    verdict = "PLANE" if decision.is_plane else f"REJECTED ({decision.reject_reason.value})"
    print(f"  verdict: {verdict}\n")


clean = gen_plane(np.array([0.0, 0.0, 1.0]), 0.0, (1.0, 1.0), 400.0, 0.005, seed=0)
describe("clean slab", clean)

tricky = gen_false_positive_slab(seed=0)
describe("slab with protrusion", tricky)
