from __future__ import annotations

import io
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis reports a failing example through a module that imports libcst,
# whose mypy_extensions dependency warns on import. Under the "error" warning
# filter that warning would abort the whole session, so import it once here.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from rxcheck.ingest import build_historical_db
from rxcheck.records import TreatmentRecord, default_schema, write_records_csv

ENERGIES = ("x06", "x06FFF", "x10", "x15", "mixed photon")
INTENTS = ("curative", "palliative")
ICD10S = ("C34.10", "C34.90", "C15.9", "C78.1", "C34.30", "R91.1")
MORPHOLOGIES = ("80463", "81406", "87203", "80703")


def rec(record_id, fractions, dose, technique="3D", **kwargs):
    return TreatmentRecord.create(record_id, fractions, dose, technique, **kwargs)


def records_csv_text(records) -> str:
    """The canonical CSV text of records, as write_records_csv writes it."""
    buffer = io.StringIO()
    write_records_csv(buffer, records)
    return buffer.getvalue()


def random_record(rng: np.random.Generator, index: int, technique="3D", missing_rate=0.15):
    """A random record; categorical fields (and age) go missing at the given rate."""

    def maybe(value):
        return None if rng.random() < missing_rate else value

    return TreatmentRecord.create(
        f"r{index:04d}",
        int(rng.integers(1, 41)),
        int(rng.integers(1, 30)) * 100,
        technique,
        energy=maybe(str(rng.choice(ENERGIES))),
        intent=maybe(str(rng.choice(INTENTS))),
        icd10=maybe(str(rng.choice(ICD10S))),
        morphology=maybe(str(rng.choice(MORPHOLOGIES))),
        age_at_tx=maybe(int(rng.integers(20, 95))),
    )


def random_db(rng: np.random.Generator, size: int, technique="3D", missing_rate=0.15):
    records = [random_record(rng, i, technique, missing_rate) for i in range(size)]
    return build_historical_db(records)


@pytest.fixture
def schema():
    return default_schema()


@pytest.fixture
def small_db():
    """Three feature profiles over two prescriptions; no missing values."""
    records = []
    profiles = [
        ((10, 200), "x06", "curative", "C34.10", "80463", 60),
        ((10, 200), "x15", "palliative", "C34.90", "81406", 70),
        ((20, 300), "x10", "curative", "C15.9", "87203", 50),
    ]
    for p, (rx, energy, intent, icd10, morphology, age) in enumerate(profiles):
        for k in range(4):
            records.append(
                rec(
                    f"p{p}-{k}",
                    rx[0],
                    rx[1],
                    energy=energy,
                    intent=intent,
                    icd10=icd10,
                    morphology=morphology,
                    age_at_tx=age + k,
                )
            )
    return build_historical_db(records)
