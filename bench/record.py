"""Record the benchmark's end-to-end numbers in a BENCH_<n>.json file.

Usage, from the root of a source checkout:

  python3 bench/record.py N --checkout NAME=DIR [--checkout NAME=DIR ...]
      [--seeds 41-50]

For each workload of BENCHMARK.json and each seed, the script runs
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds as a child
process from the root of each checkout, one run at a time, and reads the
run's report from that checkout's .bench_work/results. The checkout that
runs first moves on by one from each seed to the next, so that runs of the
same seed meet the host in a similar state. After a workload's untraced
runs, each checkout makes one `perfbench/run.py --trace 1` run of it on each
of the first TRACED_SEEDS seeds, in the same alternating order, for the
per-layer metrics of BENCHMARK.json. After the workload runs, each checkout
runs its own `python -m pytest -q -m bench` BENCH_TEST_RUNS times, as a
child process, and the checkout that runs first moves on by one from each
round to the next.

BENCH_<N>.json, written at the root of this checkout, holds for each
checkout its run stamp (git SHA, SHA-256 of src/rxcheck, Python, numpy,
nproc, CPU) and, for each workload, the median and quartiles of the five
end-to-end metrics over the seeds with every run's value, every run's
failed share and host-speed kernel median (perfbench/hostspeed.py's
kernel_median_ms, a clock for the host's state during the run), the output
digests each run reported, by seed, and the
median of each per-layer metric over its traced runs with every run's
value, beside the traced seeds; and for each checkout, each of its
pytest -m bench runs' exit code, pass and fail counts and each benchmark's
median time in seconds, a failing run recorded as it is, beside each
benchmark's median over those runs. The stamp
of a checkout whose src/rxcheck differs from its HEAD commit names that
commit as "uncommitted on <sha>". Two checkouts stamped with one commit
must hold the same sources: the script stops when the second of them is
stamped, after its first run. Where a run reports digests per command
(train), the file keeps those of the first MIN_REPEATS commands, which every
run makes, so that runs of one seed compare however many commands they fit
in their time.

Only the standard library is used; the program is imported only by the
child processes, from each checkout's own src.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import MIN_REPEATS  # noqa: E402 - the benchmark's own minimum

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# One traced run's per-layer numbers are noisy: a layer whose code did not
# change can read 0.04 s in one run and 0.066 s in the next.
TRACED_SEEDS = 3
# One pytest -m bench run's medians are noisy too: one benchmark's median
# can move by 1.8x between two runs of the same code.
BENCH_TEST_RUNS = 3


def seed_list(text: str) -> list[int]:
    """'41-50' or '5,7,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def checkout(text: str) -> tuple[str, Path]:
    name, sep, directory = text.partition("=")
    path = Path(directory).resolve()
    if not sep or not name or not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"expected NAME=DIR of a checkout with perfbench/run.py, got {text!r}")
    return name, path


def run_once(directory: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py --trace <trace>` run in directory; its report."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=directory, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench/record.py: {workload} seed {seed} trace {trace} in {directory} exited "
                         f"{done.returncode}:\n{done.stderr or done.stdout}")
    return json.loads((directory / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def run_bench_tests(directory: Path) -> dict:
    """One `python -m pytest -q -m bench` run in directory: its exit code,
    its pass and fail counts (errors count as failures) and each
    benchmark's median in seconds, by test id."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "benchmarks.json"
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-m", "bench", f"--benchmark-json={path}"],
                              cwd=directory, capture_output=True, text=True)
        benchmarks = json.loads(path.read_text())["benchmarks"] if path.is_file() else []
    lines = done.stdout.strip().splitlines()
    counts = {"passed": 0, "failed": 0}
    for number, outcome in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts["passed" if outcome == "passed" else "failed"] += int(number)
    return {"exit_code": done.returncode, **counts,
            "median_s": {entry["fullname"]: entry["stats"]["median"] for entry in benchmarks}}


def bench_tests_summary(runs: list[dict]) -> dict:
    """One checkout's run_bench_tests results, each run as it came, and each
    benchmark's median over the runs that timed it."""
    medians: dict[str, list[float]] = {}
    for run in runs:
        for test, seconds in run["median_s"].items():
            medians.setdefault(test, []).append(seconds)
    return {"median_s": {test: statistics.median(values) for test, values in medians.items()}, "runs": runs}


def commit_stamp(directory: Path, stamp: dict) -> dict:
    """stamp, with git_sha "uncommitted on <sha>" when the rxcheck sources
    in directory differ from its HEAD commit (the run stamps HEAD's SHA)."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src/rxcheck"],
                          cwd=directory, capture_output=True, text=True)
    if done.returncode == 0 and done.stdout.strip():
        return {**stamp, "git_sha": f"uncommitted on {stamp['git_sha']}"}
    return stamp


def output_digests(outputs: dict) -> dict:
    """A report's SHA-256 entries, a per-command list cut to its first
    MIN_REPEATS commands."""
    return {
        key: value[:MIN_REPEATS] if isinstance(value, list) else value
        for key, value in outputs.items() if "sha256" in key
    }


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def per_layer(by_seed: dict) -> dict:
    """The traced seeds, and each per-layer metric's median over the traced
    reports by_seed[seed] with every run's value, in seed order."""
    runs = [by_seed[seed] for seed in sorted(by_seed)]
    metrics = {}
    for metric, entry in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][metric]["value"] for run in runs]
        metrics[metric] = {"unit": entry["unit"], "median": statistics.median(values), "runs": values}
    return {"seeds": sorted(by_seed), "metrics": metrics}


def check_stamps(stamps: dict) -> None:
    """Exit unless the checkouts whose stamps name one commit hold the same
    sources; two checkouts outside git are both stamped "unknown"."""
    by_sha: dict[str, tuple[str, str]] = {}
    for name, stamp in stamps.items():
        other, source = by_sha.setdefault(stamp["git_sha"], (name, stamp["source_sha256"]))
        if source != stamp["source_sha256"]:
            raise SystemExit(f"bench/record.py: {other!r} and {name!r} are both stamped {stamp['git_sha']} "
                             "but hold different sources")


def bench_file(number: int, seeds: list[int], stamps: dict, reports: dict, traced: dict, bench_tests: dict) -> dict:
    """The BENCH file's content from stamps[checkout],
    reports[checkout][workload][seed], the traced runs' reports
    traced[checkout][workload][seed] and each checkout's bench_tests_summary
    bench_tests[checkout], the checkouts in the order they ran
    first. Two checkouts whose stamps name one commit must hold the same
    sources."""
    check_stamps(stamps)
    bench = {
        "number": number,
        "command": f"perfbench/run.py --trace 0 --seconds {BENCHMARK['run_seconds']}",
        "traced_command": "perfbench/run.py --trace 1",
        "bench_tests_command": "python -m pytest -q -m bench",
        "seeds": seeds,
        "first_run_order": list(reports),
        "checkouts": {},
    }
    for name, by_workload in reports.items():
        workloads = {}
        for workload, by_seed in by_workload.items():
            runs = [by_seed[seed] for seed in seeds]
            metrics = {}
            for metric, entry in runs[0]["result"]["metrics"].items():
                metrics[metric] = {"unit": entry["unit"],
                                   **summary([run["result"]["metrics"][metric]["value"] for run in runs])}
            workloads[workload] = {
                "metrics": metrics,
                "failed_share": [run["failed_share"] for run in runs],
                "host_speed_kernel_median_ms": [run["host_speed"]["kernel_median_ms"] for run in runs],
                "digests": {str(seed): output_digests(by_seed[seed]["outputs"]) for seed in seeds},
                "per_layer": per_layer(traced[name][workload]),
            }
        bench["checkouts"][name] = {"stamp": stamps[name], "workloads": workloads, "bench_tests": bench_tests[name]}
    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int)
    parser.add_argument("--checkout", type=checkout, action="append", dest="checkouts", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("41-50"))
    args = parser.parse_args(argv)
    checkouts = dict(args.checkouts)
    if len(checkouts) != len(args.checkouts):
        parser.error("checkout names must differ")

    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    stamps: dict[str, dict] = {}
    reports = {name: {workload: {} for workload in workloads} for name in checkouts}
    traced = {name: {workload: {} for workload in workloads} for name in checkouts}
    names = list(checkouts)

    def turn_order(turn: int) -> list[str]:
        return names[turn % len(names):] + names[:turn % len(names)]

    def measured(name: str, workload: str, seed: int, trace: int) -> dict:
        report = run_once(checkouts[name], workload, seed, trace)
        # The source must not change while its checkout is measured.
        if name not in stamps:
            stamps[name] = commit_stamp(checkouts[name], report["stamp"])
            check_stamps(stamps)
        if report["stamp"]["source_sha256"] != stamps[name]["source_sha256"]:
            raise SystemExit(f"bench/record.py: the sources of {name!r} changed during the recording")
        return report

    for workload in workloads:
        for turn, seed in enumerate(args.seeds):
            for name in turn_order(turn):
                report = reports[name][workload][seed] = measured(name, workload, seed, 0)
                value = report["result"]["metrics"]["items_per_s"]["value"]
                print(f"{workload} seed {seed} {name}: items_per_s {value:.1f}", file=sys.stderr, flush=True)
        for turn, seed in enumerate(args.seeds[:TRACED_SEEDS]):
            for name in turn_order(turn):
                traced[name][workload][seed] = measured(name, workload, seed, 1)
                print(f"{workload} seed {seed} {name}: traced", file=sys.stderr, flush=True)
    bench_runs: dict[str, list[dict]] = {name: [] for name in names}
    for turn in range(BENCH_TEST_RUNS):
        for name in turn_order(turn):
            bench_runs[name].append(run_bench_tests(checkouts[name]))
            print(f"pytest -m bench {name} run {turn + 1}: exit code {bench_runs[name][-1]['exit_code']}",
                  file=sys.stderr, flush=True)
    bench_tests = {name: bench_tests_summary(runs) for name, runs in bench_runs.items()}
    bench = bench_file(args.number, args.seeds, stamps, reports, traced, bench_tests)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
