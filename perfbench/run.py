"""Benchmark entry point for rxcheck.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload {check,train,ingest-hist} --seed N \
      --seconds S --trace {0,1}

The program is imported from ./src of the checkout, never from an installed
copy; without it the run exits non-zero before measuring anything. Inputs
are generated from --seed under ./.bench_work, which is removed at the end
except for ./.bench_work/results, where each run leaves its report (and, for
a traced run, its spans).

--trace 0 measures the end-to-end metrics with tracing off: the workload
repeats (a set-up, then its timed operations) until S seconds have passed
and at least MIN_REPEATS times, while hostspeed.HostSpeed corrects every
timed interval for the host's changing speed; setup_s is the median set-up.
Then the outputs are checked. --trace 1 runs the workload's
command once untraced, once traced and once untraced again, and reports the
per-layer metrics of the traced run plus the tracing overhead (traced minus
mean untraced wall time); S is not used.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics. The line before it is the run report: run stamp, the workload's
metrics under their own names with sample counts, output digests and status
counts. A failed output check prints the result with "correct": false and
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    if not (SRC / "rxcheck" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rxcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rxcheck

    if Path(rxcheck.__file__).resolve().parent != (SRC / "rxcheck").resolve():
        raise SystemExit(f"perfbench: imported rxcheck from {rxcheck.__file__}, not {SRC}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rxcheck").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_level_cache() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def stamp() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
    }


def end_to_end(workload, seconds: float) -> tuple[dict, dict, object]:
    from hostspeed import HostSpeed

    repeats = 0
    with HostSpeed() as speed:
        start = time.perf_counter()
        while repeats < MIN_REPEATS or time.perf_counter() - start < seconds:
            workload.repeat()
            repeats += 1
    m = workload.result(speed)
    values = {
        "setup_s": statistics.median(m.setup_s),
        "items_per_s": m.items_per_s,
        "latency_p50_ms": m.p50_ms,
        "latency_p99_ms": m.p99_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = {
        "repeats": repeats,
        "host_speed": speed.summary(),
        "setup_samples_s": m.setup_s,
        "latency_samples": m.latency_samples,
        "named": m.named,
        "failed_share": m.failed / m.attempted,
        "outputs": m.outputs,
    }
    return metrics, report, m


def traced(workload, spans_path: Path) -> tuple[dict, dict, tuple[int, int]]:
    from tracer import Tracer, per_layer_metrics

    tracer = Tracer()
    untraced = []
    start = time.perf_counter()
    workload.command()
    untraced.append(time.perf_counter() - start)
    tracer.install()
    try:
        start = time.perf_counter()
        counts = workload.command(tracer.operation)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    traced_setup_s = getattr(workload, "last_setup_s", None)
    start = time.perf_counter()
    workload.command()
    untraced.append(time.perf_counter() - start)
    overhead = traced_s - statistics.mean(untraced)
    metrics = per_layer_metrics(tracer, workload.expected_layers, overhead)
    tracer.write_csv(spans_path)
    report = {
        "traced_s": traced_s,
        "untraced_s": untraced,
        "layers": tracer.layer_totals(),
        "spans_csv": str(spans_path.relative_to(ROOT)),
    }
    if traced_setup_s is not None:
        report["traced_setup_s"] = traced_setup_s
    return metrics, report, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "train", "ingest-hist"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, OutputCheckFailed

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "stamp": stamp()}
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            metrics, extra, (attempted, failed) = traced(workload, results / f"{tag}-spans.csv")
        else:
            metrics, extra, m = end_to_end(workload, args.seconds)
            attempted, failed = m.attempted, m.failed
        report.update(extra)
        result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    except OutputCheckFailed as exc:
        report["output_check_failed"] = str(exc)
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
