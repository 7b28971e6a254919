"""Training and evaluation on a separable synthetic cohort.

Plants six (prescription, feature-profile) clusters, forges a labeled
training set (simulated anomalies + held-out normals), searches the
(a, b, mu, nu) space, then scores the trained detector on fresh
out-of-sample records and prints the report-bundle metrics.

Usage:
  python demos/05_train_and_evaluate.py
"""

from rxcheck import (
    LabeledPrediction,
    SearchSpace,
    build_historical_db,
    confusion,
    detect,
    generate_sa_set,
    macro_metrics,
    search_parameters,
    split_holdout,
)
from rxcheck.records import TreatmentRecord
from rxcheck.seeding import substream
from rxcheck.simulate import KIND_FEATURE, KIND_RX_SWAP, swap_leading_digits

SEED = 5
rng = substream(SEED, "cohort")

CLUSTERS = [
    ((4, 1250), "x06", "curative", "C34.10", 35),
    ((5, 1000), "x10", "palliative", "C34.90", 45),
    ((6, 1500), "x15", "curative", "C15.9", 55),
    ((7, 1750), "mixed photon", "palliative", "C78.1", 65),
    ((8, 1100), "x06", "curative", "C34.30", 75),
    ((9, 1900), "x15", "palliative", "R91.1", 60),
]


def sample(cluster, tag, index):
    rx, energy, intent, icd10, age = CLUSTERS[cluster]
    return TreatmentRecord.create(
        f"{tag}{cluster}-{index:03d}", rx[0], rx[1], "3D",
        energy=energy, intent=intent, icd10=icd10,
        age_at_tx=age + int(rng.integers(-4, 5)))


cohort = [sample(c, "c", i) for c in range(6) for i in range(60)]
reference, pool = split_holdout(cohort, 20, substream(SEED, "split"))
reference_db = build_historical_db(reference)
print(f"reference S={reference_db.size}, holdout pool {len(pool)}, "
      f"theta={reference_db.theta:.3f}, tau={reference_db.tau:.3f}")

sa_set = generate_sa_set(
    reference_db, {KIND_RX_SWAP: 10, KIND_FEATURE: 10},
    threshold=1, rng=substream(SEED, "forge"))
print(f"forged {len(sa_set)} simulated anomalies for the positive class")

space = SearchSpace(budget=60, runs_per_point=20, strategy="adaptive")
outcome = search_parameters(space, reference_db, pool, sa_set, seed=SEED)
best = outcome.best.params
print(f"\nbest mean f1 {outcome.best.f1_mean:.3f} +/- {outcome.best.f1_std:.3f} "
      f"after {len(outcome.trace)} evaluations")
print(f"  a={best.a:.3f} b={best.b:.3f} mu={best.mu:.4f} nu={best.nu:.4f}")
m, n = best.group_sizes(reference_db.size)
print(f"  thresholds t_Rx={best.a * reference_db.theta:.3f} "
      f"t_F={best.b * reference_db.tau:.3f}; group sizes m={m} n={n}")

# Fresh out-of-sample set: 10 unseen normals + 10 unseen anomalies.
oos_normals = [sample(int(rng.integers(6)), "x", i) for i in range(10)]
oos_anomalies = [swap_leading_digits(sample(int(rng.integers(6)), "y", i))[0]
                 for i in range(10)]

predictions = []
for truth, batch in ((0, oos_normals), (1, oos_anomalies)):
    for record in batch:
        verdict = detect(record, reference_db, best)
        predictions.append(
            LabeledPrediction(record.record_id, truth, int(verdict.flagged), "model"))

cm = confusion(predictions)
metrics = macro_metrics(cm)
print(f"\nout-of-sample confusion: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
print(f"macro precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
      f"f1={metrics.f1:.3f} accuracy={metrics.accuracy:.3f}")
