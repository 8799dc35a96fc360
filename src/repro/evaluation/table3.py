"""Table 3: achieved vs. estimated speedups for every benchmark/optimization pair.

For each row the harness

1. advises the baseline kernel on the simulated V100 (the *estimated*
   speedup is the matched optimizer's estimate; its rank among the
   applicable suggestions is also recorded);
2. advises the hand-optimized variant of the same kernel (the code change
   the paper applied) and computes the *achieved* speedup as the ratio of
   estimated kernel cycles;
3. reports the estimate error ``|estimated - achieved| / achieved``.

Both variants of every case run as one batch through an
:class:`~repro.api.session.AdvisingSession`, and each row comes from
:func:`~repro.evaluation.metrics.case_outcome`, the computation the fleet
runner shares.  Absolute times are simulator cycles, not the paper's
microseconds; only the speedups and their ordering are meaningful for
comparison.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api.request import request_for_case
from repro.api.result import error_summary
from repro.api.session import AdvisingSession, ProgressCallback
from repro.evaluation.metrics import case_outcome, table3_aggregate
from repro.workloads.base import BenchmarkCase
from repro.workloads.registry import all_cases

#: The two profiles every row compares.
VARIANTS = ("baseline", "optimized")


@dataclass
class Table3Row:
    """One row of the reproduced Table 3."""

    case: BenchmarkCase
    baseline_cycles: float
    optimized_cycles: float
    achieved_speedup: float
    estimated_speedup: float
    error: float
    #: Rank of the expected optimizer among the applicable advice (1 = top).
    optimizer_rank: Optional[int]
    total_samples: int

    @classmethod
    def from_outcome(cls, case: BenchmarkCase, outcome: dict) -> "Table3Row":
        """The row of a :func:`~repro.evaluation.metrics.case_outcome` dict."""
        fields = {key: value for key, value in outcome.items() if key != "case_id"}
        return cls(case=case, **fields)

    @property
    def name(self) -> str:
        return self.case.name

    @property
    def optimization(self) -> str:
        return self.case.optimization


@dataclass
class Table3Result:
    """All rows plus the aggregate statistics the paper reports."""

    rows: List[Table3Row] = field(default_factory=list)
    #: Cases that failed during the sweep, as (case_id, traceback) pairs;
    #: one bad case never kills the whole table.
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def aggregate(self) -> dict:
        return table3_aggregate(vars(row) for row in self.rows)

    @property
    def geomean_achieved(self) -> float:
        return self.aggregate["geomean_achieved"]

    @property
    def geomean_estimated(self) -> float:
        return self.aggregate["geomean_estimated"]

    @property
    def geomean_error(self) -> float:
        return self.aggregate["geomean_error"]

    @property
    def mean_error(self) -> float:
        return self.aggregate["mean_error"]


def evaluate_case(
    case: BenchmarkCase, session: Optional[AdvisingSession] = None
) -> Table3Row:
    """Evaluate one Table 3 row inline (advise baseline, advise optimized).

    Raises :class:`~repro.api.result.AdvisingError` if either variant fails.
    """
    session = session if session is not None else AdvisingSession()
    baseline, optimized = (
        session.advise(request_for_case(case, variant, arch_flag=session.arch_flag))
        for variant in VARIANTS
    )
    return Table3Row.from_outcome(case, case_outcome(case, baseline, optimized))


def evaluate_table3(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    session: Optional[AdvisingSession] = None,
    progress: Optional[ProgressCallback] = None,
) -> Table3Result:
    """Evaluate every Table 3 row (or the supplied subset).

    Each case contributes a baseline and an optimized request, and the
    whole batch runs through ``session.advise_many``: the session's
    ``jobs`` fans registry cases across worker processes, its cache replays
    previously simulated profiles, and its architecture, sample period,
    simulation scope and memory model configure every profile.  Per-case
    failures, including an ad-hoc case whose setup raises, land in
    :attr:`Table3Result.failures` instead of aborting the sweep.
    """
    session = session if session is not None else AdvisingSession()
    case_list = list(cases) if cases is not None else all_cases()
    setup_errors = {}
    requests = []
    for position, case in enumerate(case_list):
        try:
            pair = [
                request_for_case(case, variant, arch_flag=session.arch_flag)
                for variant in VARIANTS
            ]
        except Exception:
            setup_errors[position] = traceback.format_exc()
            continue
        requests.extend(pair)
    results = iter(session.advise_many(requests, progress=progress))
    table = Table3Result()
    for position, case in enumerate(case_list):
        if position in setup_errors:
            table.failures.append((case.case_id, setup_errors[position]))
            continue
        baseline, optimized = next(results), next(results)
        if baseline.ok and optimized.ok:
            outcome = case_outcome(case, baseline, optimized)
            table.rows.append(Table3Row.from_outcome(case, outcome))
        else:
            table.failures.append((case.case_id, baseline.error or optimized.error))
    return table


def format_table3(result: Table3Result, include_paper: bool = True) -> str:
    """Render the reproduced Table 3 as aligned text."""
    header = (
        f"{'Application':24s} {'Kernel':28s} {'Optimization':30s} "
        f"{'Original':>12s} {'Achieved':>9s} {'Estimated':>10s} {'Error':>7s} {'Rank':>5s}"
    )
    if include_paper:
        header += f"  {'Paper A.':>9s} {'Paper E.':>9s}"
    lines = [header, "-" * len(header)]
    for row in result.rows:
        line = (
            f"{row.case.name:24s} {row.case.kernel:28s} {row.case.optimization:30s} "
            f"{row.baseline_cycles:10.0f}cy {row.achieved_speedup:8.2f}x "
            f"{row.estimated_speedup:9.2f}x {row.error * 100:6.1f}% "
            f"{row.optimizer_rank if row.optimizer_rank is not None else '-':>5}"
        )
        if include_paper:
            line += (
                f"  {row.case.paper_achieved_speedup:8.2f}x "
                f"{row.case.paper_estimated_speedup:8.2f}x"
            )
        lines.append(line)
    lines.append("-" * len(header))
    # The aggregate row is the geometric mean throughout — including the
    # error column, which once printed the arithmetic mean under this label.
    lines.append(
        f"{'geomean':24s} {'':28s} {'':30s} {'':>12s} "
        f"{result.geomean_achieved:8.2f}x {result.geomean_estimated:9.2f}x "
        f"{result.geomean_error * 100:6.1f}%"
    )
    if result.failures:
        lines.append("")
        lines.append(
            f"{len(result.failures)} case(s) FAILED and are excluded from the "
            f"rows and aggregates above:"
        )
        for case_id, error in result.failures:
            lines.append(f"  {case_id}: {error_summary(error)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command-line entry point (the nightly sweep's engine)
# ----------------------------------------------------------------------
def table3_payload(result: Table3Result, config: dict) -> dict:
    """A JSON document of the reproduced table (the nightly artifact)."""
    return {
        "kind": "table3",
        "config": config,
        "rows": [
            {
                "case": row.case.case_id,
                "application": row.case.name,
                "kernel": row.case.kernel,
                "optimization": row.case.optimization,
                "baseline_cycles": row.baseline_cycles,
                "optimized_cycles": row.optimized_cycles,
                "achieved_speedup": row.achieved_speedup,
                "estimated_speedup": row.estimated_speedup,
                "error": row.error,
                "optimizer_rank": row.optimizer_rank,
                "total_samples": row.total_samples,
                "paper_achieved_speedup": row.case.paper_achieved_speedup,
                "paper_estimated_speedup": row.case.paper_estimated_speedup,
            }
            for row in result.rows
        ],
        "failures": [
            {"case": case_id, "error": error}
            for case_id, error in result.failures
        ],
        "geomean_achieved": result.geomean_achieved,
        "geomean_estimated": result.geomean_estimated,
        "geomean_error": result.geomean_error,
        "mean_error": result.mean_error,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.evaluation.table3``: sweep the registry, write the table.

    Exits non-zero when anything went wrong, and distinguishes *results*
    from *infrastructure* (see :mod:`repro.evaluation.exitcodes`): cases
    that failed evaluation exit 3 — the sweep ran, the data is red — while
    an exception out of the harness itself exits 1, telling CI the leg is
    retryable rather than the numbers bad.
    """
    import argparse
    import json
    import sys
    from pathlib import Path

    from repro.evaluation.exitcodes import (
        EXIT_CASES_FAILED,
        EXIT_INFRA,
        EXIT_OK,
    )

    from repro.sampling.memory import MEMORY_MODELS
    from repro.sampling.profiler import SIMULATION_SCOPES

    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.table3",
        description="Reproduce Table 3 over the full benchmark registry.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--arch", default="sm_70", dest="arch_flag",
                        help="architecture model (default sm_70)")
    parser.add_argument("--sample-period", type=int, default=8)
    parser.add_argument("--scope", default="single_wave", choices=SIMULATION_SCOPES,
                        dest="simulation_scope", metavar="SCOPE")
    parser.add_argument("--memory-model", default="flat", choices=MEMORY_MODELS,
                        dest="memory_model", metavar="MODEL")
    parser.add_argument("--cache-dir", default=None, metavar="PATH")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="only evaluate the first N registry cases")
    parser.add_argument("--text", default="-", metavar="PATH",
                        help="where to write the rendered table ('-' = stdout)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the table as a JSON document")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.sample_period <= 0:
        parser.error("--sample-period must be positive")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")

    cases = all_cases()
    if args.limit is not None:
        cases = cases[: args.limit]

    def progress(event) -> None:
        if event.status == "start":
            return
        status = "ok" if event.status == "done" else "FAILED"
        print(f"  {event.step:55s} {status} ({event.duration:.2f}s)",
              file=sys.stderr, flush=True)

    try:
        session = AdvisingSession(
            architecture=args.arch_flag,
            sample_period=args.sample_period,
            cache=args.cache_dir,
            jobs=args.jobs,
            simulation_scope=args.simulation_scope,
            memory_model=args.memory_model,
        )
        result = evaluate_table3(cases, session=session, progress=progress)
    except Exception:
        traceback.print_exc()
        print("sweep harness failed before producing a table; retry the run",
              file=sys.stderr)
        return EXIT_INFRA
    rendered = format_table3(result)
    if args.text == "-":
        print(rendered)
    else:
        Path(args.text).write_text(rendered + "\n")
    if args.json is not None:
        config = {
            "arch_flag": args.arch_flag,
            "sample_period": args.sample_period,
            "simulation_scope": args.simulation_scope,
            "memory_model": args.memory_model,
            "cases": len(cases),
            "jobs": args.jobs,
        }
        Path(args.json).write_text(
            json.dumps(table3_payload(result, config), indent=2) + "\n"
        )
    if result.failures:
        print(f"{len(result.failures)} case(s) failed", file=sys.stderr)
        return EXIT_CASES_FAILED
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
