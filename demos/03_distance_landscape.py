"""Distance landscape: characteristic values and plot-ready histograms.

Shows how the two dissimilarity metrics spread over a historical database:
the prescription-distance histogram spikes at zero (shared prescriptions),
the feature-distance histogram spikes at multiples of 1/5 (categorical
mismatch counts). Writes one CSV per metric into demos/out/.

Usage:
  python demos/03_distance_landscape.py
"""

from pathlib import Path

import numpy as np

from rxcheck import build_historical_db, pairwise_histograms
from rxcheck.distance import write_histogram_csv
from rxcheck.records import TreatmentRecord

rng = np.random.default_rng(42)

ENERGIES = ("x06", "x10", "x15")
ICD10S = ("C34.10", "C34.90", "C15.9")

records = []
for k in range(150):
    fx = int(rng.choice((5, 10, 10, 20, 30)))  # repeated prescriptions dominate
    records.append(TreatmentRecord.create(
        f"h{k:03d}", fx, int(rng.choice((200, 250, 300))), "3D",
        energy=str(rng.choice(ENERGIES)),
        intent=str(rng.choice(("curative", "palliative"))),
        icd10=str(rng.choice(ICD10S)),
        morphology=None if rng.random() < 0.3 else str(rng.choice(("80463", "81406"))),
        age_at_tx=int(rng.integers(35, 90)),
    ))

db = build_historical_db(records)
theta, tau = db.theta, db.tau
print(f"S={db.size}  theta={theta:.4f}  tau={tau:.4f}")
print(f"incomparable pairs skipped from tau: {db.incomparable_pairs}")

rx_hist, feature_hist = pairwise_histograms(db, bin_width=0.05)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
write_histogram_csv(out / "hist_rx_3D.csv", rx_hist)
write_histogram_csv(out / "hist_feature_3D.csv", feature_hist)
print(f"wrote {out / 'hist_rx_3D.csv'} and {out / 'hist_feature_3D.csv'}")

print("\nprescription-distance mass (text render):")
for low, high, mass in rx_hist.rows():
    if mass > 0.005:
        print(f"  [{low:4.2f},{high:4.2f})  {'#' * int(round(mass * 80))} {mass:.3f}")

print("\nfeature-distance mass (spikes at k/5 from categorical mismatches):")
for low, high, mass in feature_hist.rows():
    if mass > 0.005:
        print(f"  [{low:4.2f},{high:4.2f})  {'#' * int(round(mass * 80))} {mass:.3f}")
