"""Classical identity/sphericity tests as spectral statistics, and their power.

Every catalog test reduces to an equivalent test function; evaluating
them in the same mean/variance machinery ranks their detection power
against the optimal statistic for the same alternative.  The
scale-invariant variant shows the cost of not knowing the noise level.
"""
import numpy as np

import specdetect as sd

H = sd.AtomicMeasure.point_mass(1.0)
gamma = 0.5
curve = sd.stieltjes_grid(H, gamma, points_per_interval=600)
K = sd.assemble_diagreg(curve)
G1 = sd.AtomicMeasure.point_mass(1.6)
delta = sd.delta_diff(H, G1, curve)

print("catalog entries:", ", ".join(sd.catalog_ids()))

model = sd.SpikedModel(H=H, G0=H, G1=G1, gamma=gamma)
_, best = sd.optimal_lss(model, sd.AlgoConfig(), curve=curve)
print(f"\npredicted power against a spike at 1.6 (level 5%)")
print(f"  {'optimal statistic':24s} {best.power:.4f}")
for test_id in ("lrt-identity", "mauchly", "john-sphericity", "ledoit-wolf", "nagao"):
    phi = sd.equivalent_lss(test_id, curve)
    rep = sd.lss_moments(curve, K, phi, delta, h=1)
    print(f"  {test_id:24s} {rep.power:.4f}")

# the sphericity LRT and the identity LRT coincide at unit noise level
lrt = sd.equivalent_lss("lrt-identity", curve)
mau = sd.equivalent_lss("mauchly", curve)
print(f"\nsphericity LRT vs identity LRT at unit mean: "
      f"max difference {np.max(np.abs(lrt.values - mau.values)):.1e}")

# scale-invariant optimum: efficacy shrinks by the correlation with the
# identity direction
phi_s, rep_s = sd.optimal_ls3(model, sd.AlgoConfig(), curve=curve)
print(f"\nscale-invariant statistic: efficacy {rep_s.efficacy:.4f} "
      f"vs unconstrained {best.efficacy:.4f}")

# original finite-sample statistics on simulated eigenvalues
eigs = sd.sample_eigenvalues(np.ones(200), 400, seed=42)
print("\noriginal statistics at p=200, n=400 under the null:")
for test_id in ("lrt-identity", "john-sphericity", "fisher-2010"):
    val = sd.evaluate_statistic(test_id, eigs, n=400)
    print(f"  {test_id:24s} {val:.4f}")
