"""Cohort ingestion: messy export in, per-technique reference sets out.

Walks the preprocessing pipeline on a deliberately dirty CSV: label variants
that need normalization, an unsupported technique, a rare energy, an
off-whitelist diagnosis, a dose inconsistency, a re-plan with its initial
course, a zero-fraction prescription, and an implausible age.

Usage:
  python demos/02_cohort_ingestion.py
"""

import io
from collections import Counter

from rxcheck import CohortConfig, build_historical_db, filter_cohort
from rxcheck.ingest import RULE_REPLAN, RULE_REPLAN_INITIAL, normalize_dataset, parse_dataset

RAW = """\
record_id,fractions,dose_per_fraction,total_dose,accumulated_dose,technique,energy,intent,icd10,morphology,age_at_tx
P01/1,5,1000,5000,5000,sbrt,x06fff,Curative,C34.10,81406,67
P02/1,5,1000,5000,5000,SBRT,6XFFF,Palliative,R91.1,,71
P03/1,4,1200,4800,4800,SBRT,x06FFF,curative,C34.12,,61
P04/1,4,1200,4800,4800,SBRT,x06FFF,curative,C34.30,87203,49
P05/1,5,1000,5000,5000,SBRT,x06FFF,curative,C34.10,81406,58
P06/1,5,1000,5000,5000,SBRT,x06FFF,curative,C34.10,81406,64
P07/1,1,800,800,800,Brachytherapy,x06,curative,C34.10,,55
P08/1,10,300,3000,3000,3D,x06FFF,palliative,C78.1,,74
P09/1,10,300,3000,3000,SBRT,x06FFF,curative,C61,,66
P10/1,5,1000,5200,5200,SBRT,x06FFF,curative,C34.10,,63
P11/1,30,200,6000,6000,SBRT,x06FFF,curative,C34.10,81406,59
P11/2,5,1000,5000,11000,SBRT,x06FFF,curative,C34.10,81406,59
P12/1,5,1000,5000,5000,SBRT,x06FFF,curative,C34.10,81406,66
P13/1,0,1000,0,0,SBRT,x06FFF,curative,C34.10,,62
P14/1,5,1000,5000,5000,SBRT,x06FFF,curative,C34.10,,500
oops,five,1000,5000,5000,SBRT,x06FFF,curative,C34.10,,60
"""

records, diagnostics = parse_dataset(io.StringIO(RAW))
print(f"parsed {len(records)} records, {len(diagnostics)} rejected rows")
for d in diagnostics:
    print(f"  row {d.row}: {d.reason}")

config = CohortConfig()
normalized, unmapped = normalize_dataset(records, config.label_mappings)
print(f"\nnormalized labels; unmapped occurrences: {dict(unmapped) or 'none'}")
print("  e.g.", records[0].energy, "->", normalized[0].energy,
      "and", records[0].technique, "->", normalized[0].technique)

kept, exclusions = filter_cohort(normalized, config)
print(f"\ncohort filter kept {sum(map(len, kept.values()))}, excluded {len(exclusions)}:")
for record_id, rule, detail in exclusions:
    print(f"  {record_id:>6}  {rule:<24} {detail}")
rules = Counter(rule for _, rule, _ in exclusions)
replans = rules[RULE_REPLAN] + rules[RULE_REPLAN_INITIAL]
print(f"re-plan share of input: {replans / len(normalized):.1%}")

db = build_historical_db(kept["SBRT"])
print(f"\nSBRT reference set: S={db.size}, theta={db.theta:.3f}, tau={db.tau:.3f}")
print("prescription index:", dict(sorted(db.rx_index.items())))
