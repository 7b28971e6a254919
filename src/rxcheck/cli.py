"""Command-line surface: ingest, train, check, simulate, evaluate, hist.

Exit codes: 0 success (check: all pass), 2 at least one flagged verdict,
1 operational error, 64 usage error, 66 missing input file.

check writes one verdict per record. A record with too few comparable
reference records or a number too large for a float, or of a technique
with no reference set, no trained parameters or no boundaries in the
--boundaries preset, gets a "rxcheck: record <id>: <reason>" line on stderr
instead, the batch goes on, and the exit code is 1.

train skips a technique with at least 2 kept records that cannot be split
into reference and holdout, built or given its simulated anomalies, with a
"rxcheck: train[<T>]: skipped: <reason>" line on stderr; params.json still
holds the other techniques and the exit code is 1. With no technique
trained it is a usage error. simulate skips a technique the same way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .detector import (
    NonFiniteVerdict,
    detect,
    load_params_json,
    params_for_technique,
    verdict_json,
    write_params_json,
)
from .distance import (
    IncomparablePair,
    InsufficientData,
    InsufficientNeighbors,
    RxDistanceOverflow,
    pairwise_histograms,
    write_histogram_csv,
)
from .evaluate import (
    BEST_CASE,
    WORST_CASE,
    confusion,
    consensus_analysis,
    emit_report,
    macro_metrics,
    read_predictions_csv,
)
from .ingest import (
    EXCLUSION_COLUMNS,
    CohortConfig,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)
from .ranges import (
    Boundaries,
    Quantile,
    UnsupportedTechnique,
    derive_boundaries,
    load_boundaries,
)
from .records import (
    MODELED_TECHNIQUES,
    TreatmentRecord,
    json_object,
    read_json,
    text_stream,
    write_csv,
    write_json,
    write_records_csv,
)
from .seeding import substream
from .simulate import KIND_FEATURE, KIND_RX_SWAP, GenerationExhausted, generate_sa_set, write_sa_set
from .train import SearchSpace, search_parameters, split_holdout, write_trace_csv

EX_OK = 0
EX_ERROR = 1
EX_FLAGGED = 2
EX_USAGE = 64
EX_NOINPUT = 66

DEFAULT_SA_COUNTS = {KIND_RX_SWAP: 10, KIND_FEATURE: 10}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# The keys of a run config (--config) and the type of each value. A value
# that is set there fills the setting of the same name when its flag is not
# given; cohort_config has no flag.
RUN_CONFIG_KEYS = {"historical": str, "cohort_config": str, "boundaries": str, "params": str, "out": str, "seed": int}


def _merge_run_config(args) -> None:
    """Give each run-config key that its flag left unset (None) on args the
    value --config sets; a key that is absent or null there stays None,
    except the seed, which is then 0. A payload that is not an object, an
    unknown key, a path that is not a string or a seed that is not an
    integer raises ValueError naming the file and the key."""
    config = {}
    if args.config is not None:
        config = json_object(args.config, read_json(args.config), RUN_CONFIG_KEYS, expected="a JSON object")
    for key, kind in RUN_CONFIG_KEYS.items():
        value = config.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            wanted = "an integer" if kind is int else "a string"
            raise ValueError(f"{args.config}: key {key!r}: expected {wanted}, got {value!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.seed is None:
        args.seed = 0


def _checked(convert, ok, requirement: str):
    """An argparse type: convert the text, then require ok(value), so an
    out-of-range value is a usage error before any input is read."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: ..."
    return parse


def build_parser() -> _Parser:
    at_least_1 = _checked(int, lambda v: v >= 1, "at least 1")
    at_least_0 = _checked(int, lambda v: v >= 0, "at least 0")
    finite_positive = _checked(float, lambda v: 0 < v < float("inf"), "finite and positive")
    parser = _Parser(prog="rxcheck", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rxcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the options its handler reads.
    def common(p, technique=True):
        p.add_argument("--config", help="run-config JSON with default paths")
        p.add_argument("--out", help="output directory (or set in --config)")
        if technique:
            p.add_argument("--technique", choices=MODELED_TECHNIQUES, default=None)

    p = sub.add_parser("ingest", help="filter a raw export and build reference databases")
    p.add_argument("--input", required=True, help="raw records CSV")
    common(p)

    p = sub.add_parser("train", help="optimize detector parameters per technique")
    p.add_argument("--input", required=True, help="historical records CSV")
    p.add_argument("--budget", type=at_least_1, default=100, help="search evaluations")
    p.add_argument("--runs", type=at_least_1, default=50, help="objective runs per point")
    p.add_argument("--strategy", choices=("grid", "random", "adaptive"), default="adaptive")
    p.add_argument("--sn", type=at_least_0, default=20, help="holdout pool size")
    p.add_argument("--rarity-threshold", type=at_least_0, default=1)
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    common(p)

    p = sub.add_parser("check", help="emit a verdict for each input record")
    p.add_argument("--input", required=True, help="records CSV to check")
    p.add_argument("--historical", help="historical records CSV (or set in --config)")
    p.add_argument("--params", help="trained parameters JSON (or set in --config)")
    boundaries = p.add_mutually_exclusive_group()
    boundaries.add_argument("--boundaries", help="explicit boundaries preset JSON; omitted = no range check")
    boundaries.add_argument(
        "--quantile-boundaries",
        metavar="LOW,HIGH",
        help="derive boundaries as empirical quantiles of the reference set "
             "instead of an explicit preset",
    )
    common(p)

    p = sub.add_parser("simulate", help="forge simulated anomalies from a historical set")
    p.add_argument("--input", required=True, help="historical records CSV")
    p.add_argument("--rarity-threshold", type=at_least_0, default=1)
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    common(p)

    p = sub.add_parser("evaluate", help="score labeled predictions and write a report bundle")
    p.add_argument("--input", required=True, help="predictions CSV (record_id,truth,prediction,source)")
    common(p, technique=False)

    p = sub.add_parser("hist", help="export pairwise-distance histograms")
    p.add_argument("--input", required=True, help="historical records CSV")
    p.add_argument("--bin-width", type=finite_positive, default=0.05)
    common(p)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"rxcheck: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        _merge_run_config(args)
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        print(f"rxcheck: missing file: {exc.filename or exc}", file=sys.stderr)
        return EX_NOINPUT
    except UsageError as exc:
        print(f"rxcheck: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # operational failures map to exit 1
        print(f"rxcheck: error: {exc}", file=sys.stderr)
        return EX_ERROR


def main() -> None:
    sys.exit(run())


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    """The output directory from --out or the config's out, created."""
    if args.out is None:
        raise UsageError(f"{args.command} needs --out (or a config with one)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cohort(args) -> CohortConfig:
    if args.cohort_config:
        return CohortConfig.from_json(args.cohort_config)
    return CohortConfig()


def _load_new_records(input_path: str, cohort: CohortConfig):
    records, diagnostics = parse_dataset(input_path)
    normalized, unmapped = normalize_dataset(records, cohort.label_mappings)
    return normalized, diagnostics, unmapped


def _read_cohort(input_path: str, cohort: CohortConfig):
    normalized, diagnostics, unmapped = _load_new_records(input_path, cohort)
    kept, exclusions = filter_cohort(normalized, cohort)
    return kept, exclusions, diagnostics, unmapped


def _eligible(kept, technique: str | None) -> dict:
    """The techniques (or the one asked for) with at least 2 kept records."""
    return {
        tech: rows
        for tech, rows in kept.items()
        if len(rows) >= 2 and technique in (None, tech)
    }


def _build_dbs(kept, technique: str | None) -> dict:
    return {tech: build_historical_db(rows) for tech, rows in _eligible(kept, technique).items()}


def _forge(db, args) -> list:
    """The simulated anomalies train and simulate forge from db."""
    return generate_sa_set(
        db, DEFAULT_SA_COUNTS, threshold=args.rarity_threshold, rng=substream(args.seed, f"forge:{db.technique}")
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    cohort = _load_cohort(args)
    out = _out_dir(args)
    kept, exclusions, diagnostics, unmapped = _read_cohort(args.input, cohort)
    dbs = _build_dbs(kept, args.technique)

    write_csv(out / "exclusions.csv", EXCLUSION_COLUMNS, exclusions)
    meta = {}
    for tech, db in sorted(dbs.items()):
        write_records_csv(out / f"db_{tech}.csv", db.records)
        meta[tech] = {
            "size": db.size,
            "theta": db.theta,
            "tau": db.tau,
            "rx_scaler": {
                "f_min": db.rx_scaler.f_min,
                "f_max": db.rx_scaler.f_max,
                "d_min": db.rx_scaler.d_min,
                "d_max": db.rx_scaler.d_max,
            },
        }
    write_json(out / "db_meta.json", meta)
    print(
        f"ingest: kept {sum(len(v) for v in kept.values())} records, "
        f"excluded {len(exclusions)}, parse diagnostics {len(diagnostics)}, "
        f"unmapped labels {sum(unmapped.values())}"
    )
    return EX_OK


def _cmd_train(args) -> int:
    cohort = _load_cohort(args)
    out = _out_dir(args)
    kept, _, _, _ = _read_cohort(args.input, cohort)

    space = SearchSpace(budget=args.budget, runs_per_point=args.runs, strategy=args.strategy)
    params_by_technique = {}
    skipped = 0
    for tech, rows in sorted(_eligible(kept, args.technique).items()):
        try:
            reference, pool = split_holdout(rows, args.sn, substream(args.seed, f"split:{tech}"))
            reference_db = build_historical_db(reference)
            sa_set = _forge(reference_db, args)
        except (InsufficientData, IncomparablePair, GenerationExhausted) as exc:
            print(f"rxcheck: train[{tech}]: skipped: {exc}", file=sys.stderr)
            skipped += 1
            continue
        outcome = search_parameters(space, reference_db, pool, sa_set, seed=args.seed)
        params_by_technique[tech] = outcome.best_params
        write_trace_csv(out / f"trace_{tech}.csv", outcome)
        write_sa_set(out / f"sa_{tech}.csv", out / f"sa_{tech}.json", sa_set)
        print(
            f"train[{tech}]: best f1 {outcome.best_f1_mean:.3f} "
            f"+/- {outcome.best_f1_std:.3f} at a={outcome.best_params.a:.3f} "
            f"b={outcome.best_params.b:.3f} mu={outcome.best_params.mu:.4f} "
            f"nu={outcome.best_params.nu:.4f}"
        )
    if not params_by_technique:
        raise UsageError("no technique had enough records to train on")
    write_params_json(out / "params.json", params_by_technique)
    return EX_ERROR if skipped else EX_OK


def _cmd_check(args) -> int:
    cohort = _load_cohort(args)
    if args.historical is None:
        raise UsageError("check needs --historical (or a config with one)")
    if args.params is None:
        raise UsageError("check needs --params (or a config with one)")
    quantile = _parse_quantile(args.quantile_boundaries) if args.quantile_boundaries else None
    # A config's boundaries are read even when --quantile-boundaries replaces them.
    boundaries = load_boundaries(args.boundaries) if args.boundaries else None
    params_by_technique = load_params_json(args.params)
    dbs = _build_dbs(_read_cohort(args.historical, cohort)[0], args.technique)
    if quantile is not None:
        merged = {}
        for db in dbs.values():
            merged.update(derive_boundaries(db, quantile).by_technique)
        boundaries = Boundaries(by_technique=merged, check_bed=True)

    records, diagnostics, _ = _load_new_records(args.input, cohort)
    if args.technique is not None:
        records = [r for r in records if r.technique == args.technique]
    for diagnostic in diagnostics:
        print(f"rxcheck: row {diagnostic.row}: {diagnostic.reason}", file=sys.stderr)

    lines = []
    errored = flagged = False
    for record in records:
        try:
            db = dbs.get(record.technique)
            if db is None:
                raise UnsupportedTechnique(
                    f"no reference database for technique {record.technique!r}"
                )
            params = params_for_technique(params_by_technique, record.technique)
            verdict = detect(record, db, params, boundaries)
            lines.append(verdict_json(verdict))
        except (UnsupportedTechnique, InsufficientNeighbors, NonFiniteVerdict, OverflowError) as exc:
            # args[0], not str(exc): UnsupportedTechnique is a KeyError,
            # whose str() quotes the message.
            reason = _too_large(record, exc) if isinstance(exc, OverflowError) else exc.args[0]
            print(f"rxcheck: record {record.record_id}: {reason}", file=sys.stderr)
            errored = True
        else:
            flagged = flagged or verdict.flagged

    with text_stream(sys.stdout if args.out is None else _out_dir(args) / "verdicts.jsonl", "w") as handle:
        handle.writelines(lines)
    if errored:
        return EX_ERROR
    return EX_FLAGGED if flagged else EX_OK


def _too_large(record: TreatmentRecord, exc: OverflowError) -> str:
    """Name what overflows a float: a number of record itself (a cell the
    parser kept, or the fractions x dose_per_fraction product, its total
    dose), or else the step that raised exc: the prescription distance,
    whose scaled squares overflow, or BED in the range check."""
    p = record.prescription
    for name, value in (("fractions", p.fractions), ("dose_per_fraction", p.dose_per_fraction),
                        ("age_at_tx", record.age_at_tx)):
        if value is not None and abs(value) > sys.float_info.max:
            return f"{name}: {len(str(abs(value)))}-digit integer overflows a float"
    if abs(p.fractions * p.dose_per_fraction) > sys.float_info.max:
        return "fractions x dose_per_fraction: product overflows a float"
    if isinstance(exc, RxDistanceOverflow):
        return "fractions, dose_per_fraction: prescription distance overflows a float"
    return "fractions, dose_per_fraction: BED overflows a float"


def _parse_quantile(text: str) -> Quantile:
    try:
        low, high = (float(q) for q in text.split(","))
    except ValueError:
        raise UsageError("--quantile-boundaries expects LOW,HIGH") from None
    try:
        return Quantile(low, high)
    except ValueError as exc:
        raise UsageError(f"--quantile-boundaries: {exc}") from None


def _cmd_simulate(args) -> int:
    cohort = _load_cohort(args)
    out = _out_dir(args)
    dbs = _build_dbs(_read_cohort(args.input, cohort)[0], args.technique)
    if not dbs:
        raise UsageError("no technique had enough records to simulate from")
    skipped = 0
    for tech, db in sorted(dbs.items()):
        try:
            sa_set = _forge(db, args)
        except GenerationExhausted as exc:
            print(f"rxcheck: simulate[{tech}]: skipped: {exc}", file=sys.stderr)
            skipped += 1
            continue
        write_sa_set(out / f"sa_{tech}.csv", out / f"sa_{tech}.json", sa_set)
        print(f"simulate[{tech}]: wrote {len(sa_set)} anomalies")
    return EX_ERROR if skipped else EX_OK


def _cmd_evaluate(args) -> int:
    out = _out_dir(args)
    raters = read_predictions_csv(args.input)
    cms = {source: confusion(preds) for source, preds in raters.items()}
    metrics = {source: macro_metrics(cm) for source, cm in cms.items()}
    venn = None
    if len(raters) >= 2:
        best, venn = consensus_analysis(raters, BEST_CASE)
        worst, _ = consensus_analysis(raters, WORST_CASE)
        for consolidated in (best, worst):
            source = consolidated[0].source
            cms[source] = confusion(consolidated)
            metrics[source] = macro_metrics(cms[source])
    written = emit_report(cms, metrics, out, venn=venn)
    print(f"evaluate: wrote {len(written)} files to {out}")
    return EX_OK


def _cmd_hist(args) -> int:
    cohort = _load_cohort(args)
    out = _out_dir(args)
    dbs = _build_dbs(_read_cohort(args.input, cohort)[0], args.technique)
    if not dbs:
        raise UsageError("no technique had enough records for histograms")
    for tech, db in sorted(dbs.items()):
        rx_hist, feature_hist = pairwise_histograms(db, args.bin_width)
        write_histogram_csv(out / f"hist_rx_{tech}.csv", rx_hist)
        write_histogram_csv(out / f"hist_feature_{tech}.csv", feature_hist)
        print(f"hist[{tech}]: wrote 2 histograms")
    return EX_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "hist": _cmd_hist,
}


if __name__ == "__main__":
    main()
