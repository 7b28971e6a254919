"""Golden outputs: the SHA-256 of every output of the command line on fixed
inputs, so that a change which should keep the bytes can show that it does.

Usage, from the root of a source checkout:

  python tests/golden.py            compare with tests/golden.json
  python tests/golden.py --write    regenerate tests/golden.json

The inputs are the seed-5 exports of perfbench/gen.py, run as a child
process and read as they are, plus a params file and a predictions file
that this script writes. Each command runs as `python -m rxcheck.cli` from
the checkout's src, in a temporary working directory and with relative
paths only, so no digest holds a temporary path. A command's record holds
its argv and the SHA-256 of its stdout, its stderr and each file it wrote
under its output directory, and its exit code.

The exports and the trained parameters come from numpy's generator
streams, so the digests hold for the numpy version the file names: after
a numpy upgrade, regenerate the file and say which digests moved.
tests/test_golden.py compares the groups of GROUPS with the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
SEED = 5
# Commands of one group run two at a time, each in its own output directory.
WORKERS = 2

# check's parameters for every technique, those of the benchmark's check workload.
PARAMS = {tech: {"a": 1.0, "b": 0.6, "mu": 0.02, "nu": 0.02} for tech in ("3D", "IMRT", "SBRT")}

TRAIN = (
    ("adaptive-100", ["--strategy", "adaptive", "--seed", "100"]),
    ("adaptive-101", ["--strategy", "adaptive", "--seed", "101"]),
    ("grid-16", ["--strategy", "grid", "--budget", "16"]),
    ("grid-100", ["--strategy", "grid", "--budget", "100"]),
    ("random-7", ["--strategy", "random", "--seed", "7"]),
)

# Each group: the perfbench/gen.py workload whose export it reads (None for
# none) and its commands by name, each an argv for rxcheck and its output
# directory (None when it writes only to stdout).
GROUPS = {
    "check": ("check", {
        "ingest": (["ingest", "--input", "history.csv", "--out", "ingest"], "ingest"),
        "hist": (["hist", "--input", "history.csv", "--out", "hist"], "hist"),
        "check": (["check", "--input", "batch.csv", "--historical", "history.csv", "--params", "params.json"], None),
        "check-quantile": (["check", "--input", "batch.csv", "--historical", "history.csv", "--params",
                            "params.json", "--quantile-boundaries", "0.005,0.995"], None),
    }),
    "train": ("train", {
        "ingest": (["ingest", "--input", "export.csv", "--out", "ingest"], "ingest"),
        "hist": (["hist", "--input", "export.csv", "--out", "hist"], "hist"),
        **{f"train-{name}": (["train", "--input", "export.csv", "--out", name, *flags], name) for name, flags in TRAIN},
        "simulate": (["simulate", "--input", "export.csv", "--out", "simulate", "--seed", "3"], "simulate"),
    }),
    "evaluate": (None, {
        "evaluate": (["evaluate", "--input", "predictions.csv", "--out", "evaluate"], "evaluate"),
    }),
    "ingest-hist": ("ingest-hist", {
        "ingest": (["ingest", "--input", "export.csv", "--out", "ingest"], "ingest"),
        "hist": (["hist", "--input", "export.csv", "--out", "hist"], "hist"),
    }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def predictions_csv() -> str:
    """Four raters over 60 records, the rows of one record apart: each
    rater misses some positives and flags some negatives, at its own
    period."""
    lines = ["record_id,truth,prediction,source"]
    for rater, period in (("md1", 5), ("md2", 7), ("md3", 11), ("model", 4)):
        for k in range(60):
            truth = int(k % 3 == 0)
            lines.append(f"r{k:02d},{truth},{truth ^ int(k % period == 1)},{rater}")
    return "\n".join(lines) + "\n"


def write_inputs(workload: str | None, directory: Path) -> dict:
    """The group's input files in directory; the SHA-256 of each by name."""
    if workload is not None:
        subprocess.run([sys.executable, "perfbench/gen.py", workload, str(SEED), str(directory)],
                       cwd=ROOT, check=True, capture_output=True)
    (directory / "params.json").write_text(json.dumps(PARAMS, indent=2, sort_keys=True) + "\n")
    (directory / "predictions.csv").write_text(predictions_csv())
    return {path.name: sha256(path.read_bytes()) for path in sorted(directory.iterdir())}


def run_command(argv: list[str], out: str | None, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "rxcheck.cli", *argv], cwd=cwd, env=env, capture_output=True)
    files = {}
    if out is not None and (cwd / out).is_dir():
        files = {path.relative_to(cwd / out).as_posix(): sha256(path.read_bytes())
                 for path in sorted((cwd / out).rglob("*")) if path.is_file()}
    return {"argv": argv, "exit": done.returncode, "stdout": sha256(done.stdout),
            "stderr": sha256(done.stderr), "files": files}


def run_group(name: str) -> dict:
    """The group's input digests and the record of each of its commands."""
    workload, commands = GROUPS[name]
    with tempfile.TemporaryDirectory() as scratch:
        cwd = Path(scratch)
        inputs = write_inputs(workload, cwd)
        with ThreadPoolExecutor(WORKERS) as pool:
            records = pool.map(lambda command: run_command(*command, cwd), commands.values())
            return {"inputs": inputs, "commands": dict(zip(commands, records))}


def differences(expected: dict, actual: dict, where: str = "") -> list[str]:
    """The paths at which two records differ, as "group/command/key"."""
    if not (isinstance(expected, dict) and isinstance(actual, dict)):
        return [] if expected == actual else [where]
    found = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{where}/{key}" if where else key
        if key not in expected or key not in actual:
            found.append(path + (" (new)" if key not in expected else " (missing)"))
        else:
            found += differences(expected[key], actual[key], path)
    return found


def mismatch_message(golden: dict, name: str, actual: dict) -> str | None:
    """None when group name matches golden, else what differs, with both
    numpy versions when the running one is not the file's."""
    found = differences(golden["groups"][name], actual, name)
    if not found:
        return None
    message = f"golden outputs differ at: {', '.join(found)}"
    if golden["numpy"] != numpy.__version__:
        message += (f"; tests/golden.json was made with numpy {golden['numpy']}, this run has numpy "
                    f"{numpy.__version__}, and the digests depend on its generator streams")
    return message


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden.json")
    args = parser.parse_args(argv)
    groups = {name: run_group(name) for name in GROUPS}
    if args.write:
        GOLDEN.write_text(json.dumps({"numpy": numpy.__version__, "seed": SEED, "groups": groups},
                                     indent=1, sort_keys=True) + "\n")
        print(GOLDEN)
        return 0
    golden = json.loads(GOLDEN.read_text())
    messages = [message for name in GROUPS if (message := mismatch_message(golden, name, groups[name]))]
    print("\n".join(messages) or "golden outputs match", file=sys.stderr if messages else sys.stdout)
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
