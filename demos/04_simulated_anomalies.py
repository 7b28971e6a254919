"""Simulated-anomaly synthesis with conditional-rarity evidence.

Forges the two anomaly families from a toy historical set and prints the
historical counts that justify each one: digit-swapped prescriptions and
feature mutations that contradict the prescription's history.

Usage:
  python demos/04_simulated_anomalies.py
"""

import numpy as np

from rxcheck import build_historical_db, generate_sa_set
from rxcheck.records import TreatmentRecord
from rxcheck.simulate import KIND_FEATURE, KIND_RX_SWAP

rng = np.random.default_rng(7)


def cohort(technique, patterns):
    records = []
    for p, (rx, energy, intent, icd10, age) in enumerate(patterns):
        for k in range(25):
            records.append(TreatmentRecord.create(
                f"{technique}-{p}-{k:02d}", rx[0], rx[1], technique,
                energy=energy, intent=intent, icd10=icd10,
                age_at_tx=age + int(rng.integers(-6, 7)),
            ))
    return build_historical_db(records)


db_3d = cohort("3D", [
    ((5, 400), "mixed photon", "palliative", "C34.90", 76),
    ((10, 300), "x15", "palliative", "C78.1", 74),
    ((25, 200), "x06", "curative", "C34.10", 60),
])

anomalies = generate_sa_set(
    db_3d,
    {KIND_RX_SWAP: 3, KIND_FEATURE: 3},
    threshold=1,
    rng=np.random.default_rng(11),
)

for sa in anomalies:
    print(f"\n{sa.mutation.kind}  (base {sa.base_record_id})")
    for change in sa.mutation.changes:
        print(f"  {change.field}: {change.old} -> {change.new}")
    for evidence in sa.rarity_evidence:
        print(f"  historical count | {evidence.condition}: {evidence.count}")

swaps = sum(sa.mutation.kind == KIND_RX_SWAP for sa in anomalies)
print(f"\n{len(anomalies)} anomalies total ({swaps} digit swaps); "
      "every conditional count is at or below the rarity threshold of 1")
