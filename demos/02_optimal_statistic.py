"""Building the best linear spectral statistic below and above the transition.

Below the spike threshold the statistic solves a first-kind integral
equation; for the white-noise bulk it must reproduce the known
likelihood-ratio statistic -log(z(t) - x).  Above the threshold it
degenerates to a narrow bump at the escaped sample eigenvalue.
"""
import numpy as np

import specdetect as sd

H = sd.AtomicMeasure.point_mass(1.0)
gamma = 0.5
cfg = sd.AlgoConfig()

# --- subcritical spike: smooth solve, checked against the closed form --
t = 1.6
model = sd.SpikedModel(H=H, G0=H, G1=sd.AtomicMeasure.point_mass(t), gamma=gamma)
phi, report = sd.optimal_lss(model, cfg)
print(f"spike t = {t}: regime = {report.regime}")
print(f"  mean shift {report.mu:.4f}, sd {report.sigma:.4f}, "
      f"efficacy {report.efficacy:.4f}, predicted power {report.power:.4f}")

mask = np.array([s == "in-support" for s in phi.segments])
xs = phi.grid[mask]
z = sd.omh_z(t, gamma)
reference = -np.log(z - xs)

def normalized(v):
    v = v - v[0]
    return v / np.max(np.abs(v))

mad = np.mean(np.abs(normalized(phi.values[mask]) - normalized(reference)))
print(f"  mean absolute deviation from -log(z(t) - x): {mad:.2e}")

# --- supercritical spike: bump at the sample location ------------------
model3 = sd.SpikedModel(H=H, G0=H, G1=sd.AtomicMeasure.point_mass(3.0), gamma=gamma, n=500)
phi3, report3 = sd.optimal_lss(model3, cfg)
psi = sd.spike_forward_map(H, gamma, 3.0)
print(f"\nspike t = 3: regime = {report3.regime}, sample spike at {psi}")
print(f"  phi on the bulk: {phi3(1.5):.1f}, at the spike: {phi3(psi):.1f}, beyond: {phi3(6.0):.1f}")

# --- the mixture rule: statistics combine linearly ---------------------
Ga, Gb = sd.AtomicMeasure.point_mass(1.2), sd.AtomicMeasure.point_mass(1.5)
mix = sd.AtomicMeasure.mixture([(0.5, Ga), (0.5, Gb)])
phi_a, _ = sd.optimal_lss(sd.SpikedModel(H=H, G0=H, G1=Ga, gamma=gamma), cfg)
phi_b, _ = sd.optimal_lss(sd.SpikedModel(H=H, G0=H, G1=Gb, gamma=gamma), cfg)
phi_m, _ = sd.optimal_lss(sd.SpikedModel(H=H, G0=H, G1=mix, gamma=gamma), cfg)
dev = np.mean(np.abs(normalized(0.5 * phi_a.values + 0.5 * phi_b.values)
                     - normalized(phi_m.values)))
print(f"\nmixture alternative vs average of statistics: deviation {dev:.2e}")

from specdetect.io import write_csv

write_csv("optimal_statistic_demo.csv", ["x", "phi", "segment"], phi.normalized().to_rows())
print("wrote optimal_statistic_demo.csv")
