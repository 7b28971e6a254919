"""Independent brute-force reference implementations used to cross-check the
library. Plain Python loops and sorts only; no shared code paths with the
package internals beyond the record and prediction dataclasses, the
feature schema's names and kinds, validate_record and the exclusion rule
names."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import replace

from rxcheck.evaluate import LabeledPrediction
from rxcheck.ingest import (
    RULE_DIAGNOSIS,
    RULE_DOSE,
    RULE_ENERGY,
    RULE_REPLAN,
    RULE_REPLAN_INITIAL,
    RULE_TECHNIQUE,
)
from rxcheck.records import (
    CSV_COLUMNS,
    MODELED_TECHNIQUES,
    NUMERIC,
    FeatureSchema,
    Prescription,
    TreatmentRecord,
    default_schema,
    validate_record,
)


def oracle_schema(records):
    """default_schema with each numeric range and categorical vocabulary
    fixed from records, one feature at a time."""
    bound = []
    for spec in default_schema().features:
        values = [getattr(r, spec.name) for r in records]
        values = [v for v in values if v is not None]
        if spec.kind == NUMERIC:
            rng = (float(min(values)), float(max(values))) if values else (0.0, 0.0)
            bound.append(replace(spec, value_range=rng))
        else:
            bound.append(replace(spec, vocabulary=tuple(sorted({str(v) for v in values}))))
    return FeatureSchema(tuple(bound))


def oracle_scale(value, lo, hi):
    width = hi - lo
    if width <= 0:
        return 0.0
    return (value - lo) / width


def oracle_degenerate_lines(references):
    """The command line's stderr line for each prescription dimension that
    is constant over a reference set (technique: records), sorted."""
    lines = []
    for technique, records in references.items():
        for name in ("fractions", "dose_per_fraction"):
            values = {getattr(r.prescription, name) for r in records}
            if len(values) == 1:
                lines.append(f"rxcheck: {technique}: degenerate prescription dimension {name}: "
                             "it contributes 0 to every prescription distance")
    return sorted(lines)


def oracle_rho(p1, p2, f_lo, f_hi, d_lo, d_hi):
    df = oracle_scale(p1.fractions, f_lo, f_hi) - oracle_scale(p2.fractions, f_lo, f_hi)
    dd = oracle_scale(p1.dose_per_fraction, d_lo, d_hi) - oracle_scale(
        p2.dose_per_fraction, d_lo, d_hi
    )
    return math.sqrt(df * df + dd * dd)


def oracle_gower(r1, r2, schema):
    """Returns None for an incomparable pair."""
    num = 0.0
    den = 0.0
    for spec in schema.features:
        a = getattr(r1, spec.name)
        b = getattr(r2, spec.name)
        if a is None or b is None:
            continue
        if spec.kind == NUMERIC:
            lo, hi = spec.value_range
            width = hi - lo
            if width <= 0:
                c = 0.0 if a == b else 1.0
            else:
                c = min(abs(float(a) - float(b)) / width, 1.0)
        else:
            c = 0.0 if a == b else 1.0
        num += c
        den += 1.0
    if den == 0.0:
        return None
    return num / den


def _scaler_bounds(records):
    fs = [r.prescription.fractions for r in records]
    ds = [r.prescription.dose_per_fraction for r in records]
    return min(fs), max(fs), min(ds), max(ds)


def _ranked(query, records, schema):
    """(rho, gower-or-inf, index) for each reference record, in query order."""
    f_lo, f_hi, d_lo, d_hi = _scaler_bounds(records)
    ranked = []
    for idx, record in enumerate(records):
        rho = oracle_rho(query.prescription, record.prescription, f_lo, f_hi, d_lo, d_hi)
        g = oracle_gower(query, record, schema)
        ranked.append((rho, math.inf if g is None else g, idx, g))
    return ranked


def oracle_closest_m(query, records, schema, m):
    ranked = sorted(_ranked(query, records, schema), key=lambda t: (t[0], t[1], t[2]))
    take = ranked[:m]
    return sum(t[0] for t in take) / m, [t[2] for t in take]


def oracle_closest_n(query, records, schema, n):
    ranked = sorted(_ranked(query, records, schema), key=lambda t: (t[0], t[1], t[2]))
    comparable = [t for t in ranked if t[3] is not None]
    take = comparable[:n]
    if len(take) < n:
        return None, []
    return sum(t[3] for t in take) / n, [t[2] for t in take]


def oracle_theta_tau(records, schema):
    """Means over ordered pairs j != k; tau averages comparable pairs only."""
    f_lo, f_hi, d_lo, d_hi = _scaler_bounds(records)
    size = len(records)
    rho_sum = 0.0
    g_sum = 0.0
    comparable = 0
    for j in range(size):
        for k in range(size):
            if j == k:
                continue
            rho_sum += oracle_rho(
                records[j].prescription, records[k].prescription, f_lo, f_hi, d_lo, d_hi
            )
            g = oracle_gower(records[j], records[k], schema)
            if g is not None:
                g_sum += g
                comparable += 1
    theta = rho_sum / (size * (size - 1))
    tau = g_sum / comparable if comparable else None
    return theta, tau


def oracle_confusion(predictions):
    tp = fp = fn = tn = 0
    for p in predictions:
        if p.truth == 1 and p.prediction == 1:
            tp += 1
        elif p.truth == 0 and p.prediction == 1:
            fp += 1
        elif p.truth == 1 and p.prediction == 0:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def oracle_consensus(raters):
    """(best, worst, regions) of raters (name -> LabeledPredictions over one
    record set), from plain sets: the best case errs on the records every
    rater got wrong, the worst case on those any rater got wrong, and a
    record's region names the raters that flagged it (sorted), then 'truth'
    for an anomaly, or 'none'."""
    sources = sorted(raters)
    truth = {p.record_id: p.truth for predictions in raters.values() for p in predictions}
    wrong = [{p.record_id for p in raters[s] if p.prediction != p.truth} for s in sources]
    flagged = [{p.record_id for p in raters[s] if p.prediction == 1} for s in sources]
    everyone_wrong, anyone_wrong = set.intersection(*wrong), set.union(*wrong)
    best, worst, regions = [], [], Counter()
    for record_id in sorted(truth):
        t = truth[record_id]
        best.append(LabeledPrediction(record_id, t, 1 - t if record_id in everyone_wrong else t, "consensus-best"))
        worst.append(LabeledPrediction(record_id, t, 1 - t if record_id in anyone_wrong else t, "consensus-worst"))
        names = [s for s, ids in zip(sources, flagged) if record_id in ids] + (["truth"] if t == 1 else [])
        regions["&".join(names) or "none"] += 1
    return best, worst, dict(sorted(regions.items()))


def close(a, b, tol=1e-12):
    """Relative comparison with an absolute floor for zeros."""
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# ---------------------------------------------------------------------------
# Cohort front end: the row-at-a-time parse, normalize and filter that the
# cached stages in rxcheck.ingest and rxcheck.records must reproduce exactly.
# ---------------------------------------------------------------------------

def _oracle_missing(cell):
    return cell is None or cell.strip() in ("", "-")


def _oracle_record_from_row(row):
    for column in CSV_COLUMNS[:6]:
        if _oracle_missing(row.get(column)):
            raise ValueError(f"missing required value: {column}")
    age_cell = row.get("age_at_tx")
    return TreatmentRecord(
        record_id=row["record_id"].strip(),
        prescription=Prescription(
            fractions=int(row["fractions"]),
            dose_per_fraction=int(row["dose_per_fraction"]),
            total_dose=int(row["total_dose"]),
            accumulated_dose=int(row["accumulated_dose"]),
        ),
        technique=row["technique"].strip(),
        energy=None if _oracle_missing(row.get("energy")) else row["energy"].strip(),
        intent=None if _oracle_missing(row.get("intent")) else row["intent"].strip(),
        icd10=None if _oracle_missing(row.get("icd10")) else row["icd10"].strip(),
        morphology=None if _oracle_missing(row.get("morphology")) else row["morphology"].strip(),
        age_at_tx=None if _oracle_missing(age_cell) else int(age_cell),
    )


def oracle_parse(path):
    """(records, [(row number, reason)]) of a CSV file, through
    csv.DictReader; raises ValueError for a header without a required
    column."""
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise ValueError("empty input: no header row")
        missing = [column for column in CSV_COLUMNS[:6] if column not in header]
        if missing:
            raise ValueError(f"header missing required columns: {', '.join(missing)}")
        records = []
        diagnostics = []
        for number, row in enumerate(reader, start=1):
            try:
                records.append(_oracle_record_from_row(row))
            except (ValueError, TypeError) as exc:
                diagnostics.append((number, str(exc)))
        return records, diagnostics


_MAPPABLE_FIELDS = ("technique", "energy", "intent", "icd10", "morphology")


def oracle_normalize(records, mappings):
    """(normalized records, Counter of unmapped (field, label))."""
    unmapped = Counter()
    normalized = []
    for record in records:
        updates = {}
        for field_name in _MAPPABLE_FIELDS:
            value = getattr(record, field_name)
            if value is None:
                continue
            table = mappings.get(field_name)
            if table is None:
                continue
            if value in table:
                mapped = table[value]
                if mapped != value:
                    updates[field_name] = mapped
            elif value not in table.values():
                unmapped[(field_name, value)] += 1
        normalized.append(replace(record, **updates) if updates else record)
    return normalized, unmapped


def oracle_filter(records, config):
    """(kept records by technique, [(record_id, rule, detail)]) under a
    CohortConfig, matching every re-plan against every record of its
    subject. The last rule is validate_record itself."""
    replan_ids, initial_ids = _oracle_replan_and_initial_ids(records, config)

    kept = {t: [] for t in MODELED_TECHNIQUES}
    exclusions = []
    for record in records:
        rule = _oracle_exclusion_rule(record, config, replan_ids, initial_ids)
        if rule is None:
            kept[record.technique].append(record)
        else:
            exclusions.append((record.record_id, rule[0], rule[1]))
    return kept, exclusions


def _oracle_exclusion_rule(record, config, replan_ids, initial_ids):
    p = record.prescription
    if record.technique not in MODELED_TECHNIQUES:
        return RULE_TECHNIQUE, f"technique={record.technique}"
    whitelist = config.energy_whitelist.get(record.technique, frozenset())
    if record.energy is None or record.energy not in whitelist:
        return RULE_ENERGY, f"energy={record.energy} for {record.technique}"
    if record.icd10 is None or record.icd10 not in config.icd10_whitelist:
        return RULE_DIAGNOSIS, f"icd10={record.icd10}"
    if p.total_dose != p.fractions * p.dose_per_fraction:
        return RULE_DOSE, (
            f"total_dose={p.total_dose} != {p.fractions} x {p.dose_per_fraction}"
        )
    if record.record_id in replan_ids:
        if p.accumulated_dose == p.total_dose:
            return RULE_REPLAN, "record_id shared with a re-plan / cone-down"
        return RULE_REPLAN, (
            f"accumulated_dose={p.accumulated_dose} != total_dose={p.total_dose}"
        )
    if record.record_id in initial_ids:
        return RULE_REPLAN_INITIAL, "initial plan of a re-plan / cone-down"
    violations = validate_record(record)
    if violations:
        return violations[0].kind, violations[0].detail
    return None


def _oracle_replan_and_initial_ids(records, config):
    replans = [r for r in records if r.prescription.accumulated_dose != r.prescription.total_dose]
    replan_ids = {r.record_id for r in replans}
    by_subject = {}
    for r in records:
        by_subject.setdefault(r.record_id.split(config.subject_delimiter, 1)[0], []).append(r)
    initial_ids = set()
    for replan in replans:
        prior = replan.prescription.accumulated_dose - replan.prescription.total_dose
        subject = replan.record_id.split(config.subject_delimiter, 1)[0]
        for candidate in by_subject.get(subject, []):
            if candidate.record_id == replan.record_id:
                continue
            cp = candidate.prescription
            if cp.accumulated_dose == cp.total_dose and cp.accumulated_dose == prior:
                initial_ids.add(candidate.record_id)
    return replan_ids, initial_ids
