"""How a spike perturbation moves mass in the limiting spectrum.

The first-order response of the eigenvalue distribution to mixing a
spike into the bulk is a signed measure: below the detection threshold
it redistributes mass *within* the bulk (zero total, singular at the
edges); above it, a point mass escapes to the sample-spike location.
"""
import numpy as np

import specdetect as sd

H = sd.AtomicMeasure.point_mass(1.0)
gamma = 0.5
curve = sd.stieltjes_grid(H, gamma, points_per_interval=600)
threshold = curve.support.upper_pt_threshold
print(f"bulk support {tuple(round(e, 4) for e in curve.support.intervals[0])}, "
      f"spike threshold {threshold:.4f}\n")

for t in (1.6, 3.0):
    G = sd.AtomicMeasure.point_mass(t)
    cdf = sd.weak_derivative_cdf(G, curve)
    kind = "subcritical" if t < threshold else "supercritical"
    print(f"spike t = {t} ({kind})")
    print(f"  density at left edge  {cdf.density[0]:+9.3f}")
    print(f"  density at right edge {cdf.density[-1]:+9.3f}")
    print(f"  total mass            {cdf.total_mass:+.2e}")
    if cdf.point_masses:
        loc, w = cdf.point_masses[0]
        psi = sd.spike_forward_map(H, gamma, t)
        print(f"  escaped point mass    {w:.3f} at {loc:.4f} (sample spike {psi:.4f})")
        # independent cross-check from the transform near the real axis:
        # the residue -Re(i*eps*s(x + i*eps)) at the point mass
        eps = 1e-7
        residue = -(1j * eps * sd.weak_derivative_st_at(G, curve, complex(loc, eps))).real
        print(f"  residue estimate      {residue:.6f}")
    print()

# linearity: perturbing toward a mixture responds like the mixture of responses
P, Q = sd.AtomicMeasure.point_mass(1.2), sd.AtomicMeasure.point_mass(1.5)
M = sd.AtomicMeasure.mixture([(0.3, P), (0.7, Q)])
cm = sd.weak_derivative_cdf(M, curve)
cp = sd.weak_derivative_cdf(P, curve)
cq = sd.weak_derivative_cdf(Q, curve)
dev = np.max(np.abs(cm.cdf - 0.3 * cp.cdf - 0.7 * cq.cdf))
print(f"linearity in the spike distribution: max deviation {dev:.1e}")

from specdetect.io import write_csv

cdf16 = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(1.6), curve)
write_csv("perturbation_demo.csv", ["x", "density", "cdf"], cdf16.to_rows())
print("wrote perturbation_demo.csv")
