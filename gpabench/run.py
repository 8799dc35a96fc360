#!/usr/bin/env python3
"""The GPA pipeline benchmark.

Run from the root of a checkout of the repository::

    python3 gpabench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0
    python3 gpabench/run.py --workload all --seed 1

Workloads: ``sweep_cold``, ``sweep_warm``, ``whole_gpu_hierarchy``,
``service_closed_loop`` and ``service_open_loop`` (see
``gpabench/README.md``).  Each run prints every
metric by name with its unit, checks every output against
``gpabench/expected_digests.json``, and ends with one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Spans of a traced run and a record of every run (seed,
host fingerprint, calibration time, all numbers) are written under
``.gpabench/`` in the checkout.

``--record-digests`` recomputes the expected digests from the current
program and rewrites the digest file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".gpabench"

WORKLOADS = (
    "sweep_cold", "sweep_warm", "whole_gpu_hierarchy", "service_closed_loop",
    "service_open_loop",
)
SERVICE_WORKLOADS = ("service_closed_loop", "service_open_loop")
#: Process starts timed for ``setup_s`` on the inline workloads.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="work budget of one run, in seconds at the speed of "
                             "the commit that defined the benchmark")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.record_digests or args.setup_probe):
        parser.error("one of --workload or --record-digests is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, _frame):
    # Unwind through every `finally`, so daemons this run started stop too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"gpabench: no program source under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_probe:
        return setup_probe(args.setup_probe, Path(args.workdir))
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


# ----------------------------------------------------------------------
def setup_probe(workload: str, workdir: Path) -> int:
    """Child side of a ``setup_s`` sample: import, build the registry and
    the requests, open the session, then say ready."""
    from gpab import inline, mix

    mix.build_requests(inline.workload_keys(workload))
    inline.build_session(workload, workdir / "probe-cache")
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, workdir: Path):
    """``(scaled, raw)`` start-up times of ``SETUP_PROBES`` fresh processes."""
    from gpab.host import scaled_starts

    def start() -> float:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
             "--workdir", str(workdir)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=str(ROOT),
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
        finally:
            child.stdout.close()
            child.wait()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe of {workload} failed ({child.returncode})")
        return elapsed

    return scaled_starts(start, SETUP_PROBES)


def run_one(args) -> int:
    from gpab import host, inline, service
    from gpab.report import Outcome, add_time, render
    from gpab.spans import SpanRecorder
    from gpab.stats import median

    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorder = SpanRecorder() if args.trace else None
    trace = bool(args.trace)
    outcome = Outcome(args.workload)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host.fingerprint(),
    }
    try:
        if args.workload in SERVICE_WORKLOADS:
            service.run(ROOT, outcome, args.seed, args.seconds, trace, workdir, recorder)
        else:
            scaled, raw = measure_setup(args.workload, workdir)
            inline.run(outcome, args.seed, args.seconds, trace, workdir, recorder)
            add_time(outcome, "setup_s", median(scaled), median(raw))
            outcome.note(f"setup_s is the median of {len(scaled)} process starts")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = render(outcome, trace, record)
    record.update(
        metrics=outcome.metrics, layers=outcome.layers, notes=outcome.notes,
        mismatches=outcome.mismatches, attempted=outcome.attempted, failed=outcome.failed,
        calibration_samples_s=outcome.speed.samples, speed_factor=outcome.speed.factor,
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    with open(STATE / "runs" / f"{stem}.json", "w") as stream:
        json.dump(record, stream, indent=1, sort_keys=True)
    if recorder is not None:
        (STATE / "spans").mkdir(parents=True, exist_ok=True)
        recorder.write(STATE / "spans" / f"{stem}.jsonl")
    print("\n".join(lines), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line
    merges their results under ``<workload>.<metric>`` names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0:
            print(f"gpabench: {workload} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def record_digests() -> int:
    """Recompute every expected digest from the current program.

    Sweep requests are run cold and then again from the warm cache; the
    two results must agree byte for byte, since the workloads check both
    against the same digest.
    """
    from gpab import check, inline, mix

    workdir = STATE / "work" / f"record-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    digests = {}
    try:
        for workload in ("sweep_cold", "whole_gpu_hierarchy"):
            keys = inline.workload_keys(workload)
            requests = mix.build_requests(keys)
            session = inline.build_session(workload, workdir / "cache")
            for key in keys:
                result = session.advise(requests[key])
                if not result.ok:
                    print(f"gpabench: {key} failed:\n{result.error}", file=sys.stderr)
                    return 1
                data = check.canonical_bytes(result)
                if workload == "sweep_cold" and check.canonical_bytes(
                        session.advise(requests[key])) != data:
                    print(f"gpabench: {key}: cache replay differs from the cold run",
                          file=sys.stderr)
                    return 1
                digests[key] = check.digest(data)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(check.EXPECTED_PATH, "w") as stream:
        json.dump({
            "about": "sha256 of each result's canonical bytes, timing fields removed; "
                     "written by run.py --record-digests",
            "digests": digests,
        }, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"recorded {len(digests)} digests in {check.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
