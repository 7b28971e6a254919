"""Seeded generator of clinically shaped raw exports for the benchmark.

Each technique has a handful of common regimens, drawn with Zipf weights,
plus a tail of rare prescriptions. Every regimen owns a narrow feature
profile (one intent, two energies, a few diagnoses and morphologies, an age
centre), so a mutated feature value is conditionally rare and rarity-verified
anomaly synthesis converges quickly. Intent, morphology and age go missing at
15%. Raw exports also carry label variants that need normalizing, rows for
every cohort exclusion rule and malformed rows that only the parser rejects.

The generator depends on nothing but numpy: the program under test sees only
the CSV files written here. The benchmark runs it as a child process,

  python3 perfbench/gen.py {check,train,ingest-hist} SEED DIRECTORY

so that the memory it takes stays out of the benchmark's peak RSS. It writes
the workload's CSV files into DIRECTORY and prints a JSON summary.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMNS = (
    "record_id", "fractions", "dose_per_fraction", "total_dose", "accumulated_dose",
    "technique", "energy", "intent", "icd10", "morphology", "age_at_tx",
)

MISSING_RATE = 0.15
TAIL_SHARE = 0.05
ZIPF_EXPONENT = 1.2


@dataclass(frozen=True)
class Regimen:
    fractions: int
    dose: int
    intent: str
    energies: tuple[str, ...]
    icd10s: tuple[str, ...]
    morphologies: tuple[str, ...]
    age: int


# Common regimens per technique, most frequent first. No regimen is the
# leading-digit swap of another, so a swapped prescription stays rare.
REGIMENS = {
    "3D": (
        Regimen(10, 300, "palliative", ("x06", "x10"), ("C78.00", "C77.1", "C34.90"), ("80003", "81403"), 68),
        Regimen(30, 200, "curative", ("x06", "x15"), ("C34.10", "C34.30", "C34.2"), ("80703", "81403"), 64),
        Regimen(5, 400, "palliative", ("x06", "mixed photon"), ("C78.01", "C34.92"), ("80463", "80003"), 71),
        Regimen(1, 800, "palliative", ("x10", "x06"), ("C78.1", "C78.2"), ("80003",), 74),
        Regimen(28, 180, "curative", ("x15", "mixed mode"), ("C15.5", "C15.4", "C15.3"), ("80703",), 63),
        Regimen(15, 250, "palliative", ("x10", "mixed photon"), ("C34.12", "C77.1"), ("81403", "80413"), 69),
        Regimen(33, 180, "curative", ("x06", "x10"), ("C34.80", "C33"), ("80463",), 61),
        Regimen(35, 200, "curative", ("mixed mode", "x15"), ("C38.4", "C45.0"), ("90503",), 66),
    ),
    "IMRT": (
        Regimen(30, 200, "curative", ("x06", "x10"), ("C34.10", "C34.30", "C34.90"), ("80703", "81403"), 65),
        Regimen(33, 200, "curative", ("x06FFF", "x06"), ("C34.12", "C34.31"), ("81403", "80463"), 62),
        Regimen(28, 180, "curative", ("x10", "x10FFF"), ("C15.5", "C15.9"), ("80703", "81403"), 64),
        Regimen(35, 200, "curative", ("x06", "x15"), ("C34.32", "C34.80"), ("80463",), 60),
        Regimen(15, 300, "palliative", ("x06FFF", "mixed photon"), ("C78.00", "C77.1"), ("80003",), 70),
        Regimen(37, 190, "curative", ("x10FFF", "x06"), ("C37", "C38.1"), ("85803",), 57),
    ),
    "SBRT": (
        Regimen(5, 1000, "curative", ("x06FFF", "x10"), ("C34.10", "C34.30"), ("81403", "80703"), 72),
        Regimen(3, 1800, "curative", ("x06FFF", "x06"), ("C34.12", "R91.1"), ("81403",), 74),
        Regimen(4, 1200, "curative", ("x10", "x06FFF"), ("C34.31", "C34.90"), ("80463", "80703"), 70),
        Regimen(8, 750, "curative", ("x06", "x15"), ("C34.32", "C78.01"), ("80703",), 73),
        Regimen(5, 1200, "palliative", ("x06FFF", "mixed photon"), ("C78.00", "C78.02"), ("80003",), 69),
        Regimen(1, 3400, "curative", ("x10", "x06FFF"), ("C34.91", "D15.0"), ("81403",), 76),
    ),
}

# Rare-prescription tail: (fractions range, dose-per-fraction range, step).
TAIL = {"3D": ((1, 40), (150, 800), 10), "IMRT": ((5, 45), (150, 700), 10), "SBRT": ((1, 8), (600, 3000), 50)}

# Prescriptions outside every regimen and tail: forged boundary breakers.
BEYOND = {"3D": ((45, 450), (60, 300)), "IMRT": ((60, 300), (2, 1600)), "SBRT": ((15, 2500), (12, 3500))}

# Raw label variants that normalization maps back to the canonical label.
TECHNIQUE_LABELS = {"3D": ("3D", "3D-CRT", "3d"), "IMRT": ("IMRT", "VMAT", "imrt"), "SBRT": ("SBRT", "sbrt", "SBRT")}
ENERGY_LABELS = {
    "x06": ("x06", "6X", "x6", "X06"), "x06FFF": ("x06FFF", "6XFFF", "x6fff"),
    "x10": ("x10", "10X", "X10"), "x10FFF": ("x10FFF", "10XFFF"), "x15": ("x15", "15X"),
    "mixed photon": ("mixed photon", "Mix Photon"), "mixed mode": ("mixed mode", "Mix Mode"),
}
INTENT_LABELS = {"curative": ("curative", "Curative", "CURATIVE"), "palliative": ("palliative", "Palliative")}

EXCLUDED_TECHNIQUES = ("IMPT", "2D", "Brachy", "impt", "Brachytherapy")
OFF_WHITELIST_ENERGY = {"3D": ("x06FFF", "x10FFF"), "IMRT": ("mixed mode",), "SBRT": ("mixed mode", "x10FFF")}
OFF_WHITELIST_ICD10 = ("C50.9", "C61", "C71.9", "C18.7", "C20", "C53.9", "C64.9", "C25.9")

# Shares of the rows excluded by each cohort rule (re-plans come in pairs).
EXCLUSION_MIX = (("technique", 0.28), ("energy", 0.14), ("icd10", 0.40), ("dose", 0.06), ("replan", 0.12))


def zipf_weights(count: int) -> list[float]:
    weights = [1.0 / k ** ZIPF_EXPONENT for k in range(1, count + 1)]
    return [w / sum(weights) for w in weights]


def swap_leading_digits(fractions: int, dose: int) -> tuple[int, int] | None:
    """The digit-swap forgery, reimplemented so the generator stays
    independent of the program; None when the leading digits are equal."""
    f, d = str(fractions), str(dose)
    if f[0] == d[0]:
        return None
    return int(d[0] + f[1:]), int(f[0] + d[1:])


ZIPF = {technique: zipf_weights(len(regimens)) for technique, regimens in REGIMENS.items()}


class Generator:
    """Draws rows for one workload; the same seed gives the same rows."""

    def __init__(self, seed: int, stream: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, stream))])
        self.next_subject = 0

    def pick(self, values):
        return values[int(self.rng.random() * len(values))]

    def weighted(self, values, weights):
        cumulative = list(itertools.accumulate(weights))
        index = bisect.bisect_right(cumulative, self.rng.random() * cumulative[-1])
        return values[min(index, len(values) - 1)]

    def maybe(self, value):
        return None if self.rng.random() < MISSING_RATE else value

    def subject(self) -> str:
        self.next_subject += 1
        return f"P{self.next_subject:07d}"

    def regimen(self, technique: str) -> Regimen:
        return self.weighted(REGIMENS[technique], ZIPF[technique])

    def tail_rx(self, technique: str) -> tuple[int, int]:
        (f_lo, f_hi), (d_lo, d_hi), step = TAIL[technique]
        common = {(r.fractions, r.dose) for r in REGIMENS[technique]}
        while True:
            rx = (int(self.rng.integers(f_lo, f_hi + 1)),
                  step * int(self.rng.integers(d_lo // step, d_hi // step + 1)))
            if rx not in common:
                return rx

    def normal(self, technique: str, labels: bool = True) -> dict:
        """One admissible record: a regimen (or a tail prescription) with the
        regimen's feature profile."""
        reg = self.regimen(technique)
        fractions, dose = (reg.fractions, reg.dose)
        if self.rng.random() < TAIL_SHARE:
            fractions, dose = self.tail_rx(technique)
        energy = self.pick(reg.energies)
        age = min(max(round(reg.age + 9 * self.rng.standard_normal()), 25), 95)
        row = {
            "record_id": f"{self.subject()}/1",
            "fractions": fractions,
            "dose_per_fraction": dose,
            "total_dose": fractions * dose,
            "accumulated_dose": fractions * dose,
            "technique": technique,
            "energy": energy,
            "intent": self.maybe(reg.intent),
            "icd10": self.pick(reg.icd10s),
            "morphology": self.maybe(self.pick(reg.morphologies)),
            "age_at_tx": self.maybe(age),
        }
        return self.relabel(row) if labels else row

    def relabel(self, row: dict) -> dict:
        """Replace canonical labels with raw variants some of the time."""
        if row["technique"] in TECHNIQUE_LABELS and self.rng.random() < 0.3:
            row["technique"] = self.pick(TECHNIQUE_LABELS[row["technique"]])
        if row["energy"] in ENERGY_LABELS and self.rng.random() < 0.4:
            row["energy"] = self.pick(ENERGY_LABELS[row["energy"]])
        if row["intent"] in INTENT_LABELS and self.rng.random() < 0.5:
            row["intent"] = self.pick(INTENT_LABELS[row["intent"]])
        return row

    def excluded(self, rule: str, technique: str) -> list[dict]:
        """Rows that the named cohort rule removes (two rows for a re-plan)."""
        row = self.normal(technique, labels=False)
        if rule == "technique":
            row["technique"] = self.pick(EXCLUDED_TECHNIQUES)
        elif rule == "energy":
            row["energy"] = self.pick(OFF_WHITELIST_ENERGY[technique] + (None,))
        elif rule == "icd10":
            row["icd10"] = self.pick(OFF_WHITELIST_ICD10 + (None,))
        elif rule == "dose":
            row["total_dose"] += int(self.rng.integers(1, 5)) * row["dose_per_fraction"]
            row["accumulated_dose"] = row["total_dose"]
        else:
            subject = row["record_id"].split("/")[0]
            replan = self.normal(technique, labels=False)
            replan["record_id"] = f"{subject}/2"
            replan["accumulated_dose"] = row["total_dose"] + replan["total_dose"]
            return [self.relabel(row), self.relabel(replan)]
        return [self.relabel(row)]

    def forged(self, kind: str, technique: str) -> dict:
        """A normal record turned into an anomaly of the given kind."""
        while True:
            row = self.normal(technique, labels=False)
            if kind == "swap":
                swapped = swap_leading_digits(row["fractions"], row["dose_per_fraction"])
                if swapped is None:
                    continue
                row["fractions"], row["dose_per_fraction"] = swapped
            elif kind == "beyond":
                row["fractions"], row["dose_per_fraction"] = self.pick(BEYOND[technique])
            else:
                rx = (row["fractions"], row["dose_per_fraction"])
                reg = next((r for r in REGIMENS[technique] if (r.fractions, r.dose) == rx), None)
                if reg is None:
                    continue
                foreign = sorted({c for r in REGIMENS[technique] for c in r.icd10s} - set(reg.icd10s))
                row["icd10"] = self.pick(foreign)
                if self.rng.random() < 0.5:
                    row["age_at_tx"] = int(self.rng.integers(5, 20))
            row["total_dose"] = row["accumulated_dose"] = row["fractions"] * row["dose_per_fraction"]
            return self.relabel(row)

    def malformed(self, technique: str) -> dict | list:
        """A row the parser must reject with a diagnostic."""
        row = self.normal(technique)
        kind = int(self.rng.integers(5))
        if kind == 0:
            row["fractions"] = "ten"
        elif kind == 1:
            row["dose_per_fraction"] = None
        elif kind == 2:
            row["age_at_tx"] = "sixty"
        elif kind == 3:
            row["total_dose"] = f"{row['total_dose']}O"
        else:
            return [row["record_id"], row["fractions"], row["dose_per_fraction"]]
        return row

    def export(self, admitted: dict[str, int], excluded: int, malformed: int) -> list:
        """A raw export in shuffled order: `admitted` rows per technique that
        pass the cohort rules, about `excluded` rows that do not, and
        `malformed` rows that do not parse."""
        techniques = tuple(admitted)
        tech_weights = [admitted[t] for t in techniques]
        rows = [self.normal(t) for t, count in admitted.items() for _ in range(count)]
        rules, shares = zip(*EXCLUSION_MIX)
        while excluded > 0:
            rule = self.weighted(rules, shares)
            batch = self.excluded(rule, self.weighted(techniques, tech_weights))
            rows.extend(batch)
            excluded -= len(batch)
        for _ in range(malformed):
            rows.append(self.malformed(self.weighted(techniques, tech_weights)))
        order = self.rng.permutation(len(rows))
        return [rows[k] for k in order]


def write_rows(path: Path, rows: list) -> int:
    """Write raw rows (dicts, or short lists for truncated rows); empty cells
    mean missing. Returns the number of data rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow(["" if row[c] is None else row[c] for c in COLUMNS])
            else:
                writer.writerow(row)
    return len(rows)


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

CHECK_ADMITTED = {"3D": 6000, "IMRT": 3000, "SBRT": 1000}
CHECK_EXCLUDED = 1000
CHECK_BATCH = 1500
CHECK_ALL_MISSING = 8           # about 0.5% of the batch
CHECK_FORGED = 150              # about 10% of the batch

TRAIN_ADMITTED = {"3D": 2000, "IMRT": 1500}
TRAIN_EXCLUDED = 350
TRAIN_MALFORMED = 4

INGEST_ADMITTED = {"3D": 2000, "IMRT": 2000, "SBRT": 2000}
INGEST_EXCLUDED = 93900
INGEST_MALFORMED = 100          # 0.1% of 100k rows


def check_inputs(seed: int) -> tuple[list, list, dict[str, str]]:
    """History export, batch of new records and the kind of each batch record
    (normal, swap, feature, beyond, all-missing)."""
    gen = Generator(seed, "check")
    history = gen.export(CHECK_ADMITTED, CHECK_EXCLUDED, malformed=0)
    # Fixed technique and kind composition, so that only the records drawn
    # vary with the seed, not how many of each there are.
    techniques = ("3D",) * 6 + ("IMRT",) * 3 + ("SBRT",)
    forged_kinds = ("swap", "feature", "feature", "swap", "beyond")
    batch, kinds = [], {}
    for index in range(CHECK_BATCH):
        technique = techniques[index % len(techniques)]
        if index < CHECK_ALL_MISSING:
            kind, row = "all-missing", gen.normal(technique, labels=False)
            reg = REGIMENS[technique][0]
            row.update(fractions=reg.fractions, dose_per_fraction=reg.dose,
                       total_dose=reg.fractions * reg.dose, accumulated_dose=reg.fractions * reg.dose,
                       energy=None, intent=None, icd10=None, morphology=None, age_at_tx=None)
        elif index < CHECK_ALL_MISSING + CHECK_FORGED:
            kind = forged_kinds[index % len(forged_kinds)]
            row = gen.forged(kind, technique)
        else:
            kind, row = "normal", gen.normal(technique)
        row["record_id"] = f"N{index:05d}"
        batch.append(row)
        kinds[row["record_id"]] = kind
    order = gen.rng.permutation(len(batch))
    return history, [batch[k] for k in order], kinds


def train_inputs(seed: int) -> list:
    gen = Generator(seed, "train")
    return gen.export(TRAIN_ADMITTED, TRAIN_EXCLUDED, TRAIN_MALFORMED)


def ingest_inputs(seed: int) -> list:
    gen = Generator(seed, "ingest-hist")
    return gen.export(INGEST_ADMITTED, INGEST_EXCLUDED, INGEST_MALFORMED)


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """The workload's input CSVs in `directory`; returns their row counts
    (and, for check, the kind of each batch record)."""
    if workload == "check":
        history, batch, kinds = check_inputs(seed)
        return {
            "history.csv": write_rows(directory / "history.csv", history),
            "batch.csv": write_rows(directory / "batch.csv", batch),
            "kinds": kinds,
        }
    rows = train_inputs(seed) if workload == "train" else ingest_inputs(seed)
    return {"export.csv": write_rows(directory / "export.csv", rows)}


if __name__ == "__main__":
    name, seed_arg, out = sys.argv[1:]
    print(json.dumps(write_inputs(name, int(seed_arg), Path(out))))
