"""Limiting spectra of sample covariance matrices for discrete population bulks.

Walks through the first stage of the pipeline: solve the spectral
fixed-point equation on a dense grid, locate the support, and integrate
moments of the limiting eigenvalue distribution.
"""
import numpy as np

import specdetect as sd

# --- the classic single-atom bulk -------------------------------------
H = sd.AtomicMeasure.point_mass(1.0)
gamma = 0.5

support = sd.support_intervals(H, gamma)
print("single-atom bulk, gamma = 1/2")
print(f"  support intervals : {[tuple(round(e, 6) for e in iv) for iv in support.intervals]}")
print(f"  closed form       : {((1 - np.sqrt(gamma))**2, (1 + np.sqrt(gamma))**2)}")
print(f"  spike threshold   : {support.upper_pt_threshold:.6f}  (= 1 + sqrt(gamma))")

curve = sd.stieltjes_grid(H, gamma, points_per_interval=500)
print(f"  grid points       : {curve.grid.size}, dropped: {len(curve.dropped)}")
print(f"  m1, m2, m4        : "
      f"{sd.esd_moment(curve, 1):.5f}, "
      f"{sd.esd_moment(curve, 2):.5f}, "
      f"{sd.esd_moment(curve, 4):.5f}")
print(f"  exact m2, m4      : {1 + gamma:.5f}, {(1 + gamma) * (1 + 5 * gamma + gamma**2):.5f}")

# --- a two-atom bulk: the number of components depends on gamma -------
H2 = sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
for g in (0.1, 0.5):
    sup = sd.support_intervals(H2, g)
    print(f"\nbulk (1, 3)/2 at gamma = {g}: {len(sup.intervals)} component(s)")
    for lo, hi in sup.intervals:
        print(f"  [{lo:.4f}, {hi:.4f}]")

# density is recovered from the imaginary part of the transform
curve2 = sd.stieltjes_grid(H2, 0.1, points_per_interval=400)
mass = sd.esd_expectation(curve2, lambda x: np.ones_like(x), f_at_zero=0.0)
print(f"\ndensity of the two-component bulk integrates to {mass:.5f}")

# export for plotting elsewhere
from specdetect.io import write_csv

write_csv("limiting_spectrum_demo.csv",
          ["x", "re_v", "im_v", "re_vp", "im_vp", "in_support"], curve2.to_rows())
print("wrote limiting_spectrum_demo.csv")
