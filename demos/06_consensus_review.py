"""Multi-rater consensus: best case, worst case, and overlap regions.

Simulates a review panel of three raters over 47 cases (17 anomalies,
30 normals), consolidates them under the best-case rule (consensus correct
if any rater was correct) and the worst-case rule (incorrect if any rater
was wrong), and writes the full report bundle to demos/out/review/.

Usage:
  python demos/06_consensus_review.py
"""

from pathlib import Path

import numpy as np

from rxcheck.evaluate import (
    LabeledPrediction,
    confusion,
    consensus_analysis,
    emit_report,
    macro_metrics,
)

rng = np.random.default_rng(3)
truths = [1] * 17 + [0] * 30

raters = {}
for name, accuracy in (("md1", 0.85), ("md2", 0.70), ("md3", 0.78), ("model", 0.83)):
    raters[name] = [
        LabeledPrediction(f"case{i:02d}", t,
                          t if rng.random() < accuracy else 1 - t, name)
        for i, t in enumerate(truths)
    ]

panel = {k: v for k, v in raters.items() if k != "model"}
best, worst, overlap = consensus_analysis(panel)

cms = {name: confusion(preds) for name, preds in raters.items()}
cms["consensus-best"] = confusion(best)
cms["consensus-worst"] = confusion(worst)

print(f"{'source':<16} {'accuracy':>8} {'macro f1':>9} {'misses':>7}")
for name in ("md1", "md2", "md3", "model", "consensus-best", "consensus-worst"):
    cm = cms[name]
    metrics = macro_metrics(cm)
    print(f"{name:<16} {metrics.accuracy:>8.3f} {metrics.f1:>9.3f} {cm.fn + cm.fp:>7}")

print("\noverlap regions (rater flag sets vs the ground-truth anomaly set):")
for region, count in overlap.items():
    print(f"  {region:<24} {count}")

out = Path(__file__).parent / "out" / "review"
written = emit_report(cms, out, venn=overlap)
print(f"\nwrote {len(written)} report files to {out}")
