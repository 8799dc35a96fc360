"""Folding shard checkpoints into the canonical sweep artifact.

The merge step is a pure function of (plan, checkpoint entries): it
gathers every unit's record, groups them per configuration, and emits one
deterministic JSON document — per-configuration rows, the Table 3
aggregates (:func:`~repro.evaluation.metrics.table3_aggregate`, which
:class:`~repro.evaluation.table3.Table3Result` also uses), deterministic
throughput surrogates (simulated samples and kernel cycles; wall-clock
numbers live in the checkpoints and the CI logs, never here) and the
failure ledger.

Three properties are load-bearing and tested:

* **order independence** — checkpoints may be supplied in any order;
* **fixed point** — merging the same inputs twice yields identical bytes
  (:func:`artifact_json` is canonical: sorted keys, fixed indentation,
  trailing newline);
* **shard independence** — the artifact states nothing about how the sweep
  was partitioned (no plan id, no shard count, no durations), so a 2-shard
  sweep, an unsharded sweep, and a killed-and-resumed sweep of the same
  surface all produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.evaluation.fleet.checkpoint import (
    ShardCheckpoint,
    UnitRecord,
    load_checkpoint,
)
from repro.evaluation.fleet.plan import EvaluationPlan, FleetError
from repro.api.result import error_summary
from repro.evaluation.metrics import table3_aggregate

#: Version of the sweep-artifact wire form.
SWEEP_SCHEMA_VERSION = 1

#: The per-case outcome fields copied into artifact rows, in order.  All
#: deterministic; anything timing-shaped stays out by design.
_ROW_FIELDS = (
    "baseline_cycles",
    "optimized_cycles",
    "achieved_speedup",
    "estimated_speedup",
    "error",
    "optimizer_rank",
    "total_samples",
)


@dataclass
class MergeOutcome:
    """The folded artifact plus everything the CLI needs for its verdict."""

    artifact: dict
    #: (case_id, config_key) pairs the checkpoints did not cover.
    missing: List[Tuple[str, str]] = field(default_factory=list)
    #: Total case failures across every configuration.
    failures: int = 0
    #: Reasons checkpoints were ignored while collecting (unusable files).
    notes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing


def collect_checkpoints(
    directory: Union[str, Path], plan: EvaluationPlan
) -> Tuple[List[ShardCheckpoint], List[str]]:
    """Load every shard's checkpoint for ``plan`` from ``directory``.

    Unusable files surface as notes (and their shard contributes nothing);
    completeness is judged later, per unit, by :func:`merge_checkpoints`.
    """
    checkpoints: List[ShardCheckpoint] = []
    notes: List[str] = []
    for shard in range(plan.num_shards):
        checkpoint, reason = load_checkpoint(directory, plan.plan_id, shard)
        if reason:
            notes.append(reason)
        checkpoints.append(checkpoint)
    return checkpoints, notes


def merge_checkpoints(
    plan: EvaluationPlan,
    checkpoints: Sequence[ShardCheckpoint],
    notes: Sequence[str] = (),
) -> MergeOutcome:
    """Fold shard checkpoints into the canonical sweep artifact.

    Checkpoints written for a different plan are rejected outright (an
    infrastructure error: the caller mixed sweeps).  Entries for units the
    plan does not contain are dropped silently — they can only appear when
    a checkpoint file was hand-copied around, and keeping them would make
    the artifact depend on junk.
    """
    for checkpoint in checkpoints:
        if checkpoint.plan_id != plan.plan_id:
            raise FleetError(
                f"checkpoint for shard {checkpoint.shard} belongs to plan "
                f"{checkpoint.plan_id!r}, not {plan.plan_id!r}"
            )

    units = plan.unit_by_fingerprint()
    # Sorted by shard, so duplicate fingerprints (impossible via the
    # runner, possible via copied files) resolve identically regardless of
    # the order the caller supplied the checkpoints in.
    entries: Dict[str, UnitRecord] = {}
    for checkpoint in sorted(checkpoints, key=lambda item: item.shard):
        for fingerprint, record in checkpoint.entries.items():
            if fingerprint in units and fingerprint not in entries:
                entries[fingerprint] = record

    outcome = MergeOutcome(artifact={}, notes=list(notes))
    unit_index = {
        (unit.case_id, unit.config.key): unit for unit in plan.units()
    }
    configurations = []
    for config in plan.configurations:
        rows = []
        failures = []
        for case_id in plan.case_ids:
            unit = unit_index[(case_id, config.key)]
            record = entries.get(unit.fingerprint)
            if record is None:
                outcome.missing.append((case_id, config.key))
                continue
            if record.ok:
                row = {"case": case_id}
                row.update(
                    {name: (record.outcome or {}).get(name) for name in _ROW_FIELDS}
                )
                rows.append(row)
            else:
                failures.append(
                    {"case": case_id, "error": error_summary(record.error)}
                )
        configurations.append(
            {
                "config": config.to_dict(),
                "key": config.key,
                "rows": rows,
                "failures": failures,
                "cases_ok": len(rows),
                "cases_failed": len(failures),
                **table3_aggregate(rows),
                "total_samples": sum(row["total_samples"] or 0 for row in rows),
                "total_baseline_cycles": sum(
                    row["baseline_cycles"] or 0.0 for row in rows
                ),
            }
        )
        outcome.failures += len(configurations[-1]["failures"])

    outcome.artifact = {
        "kind": "fleet_sweep",
        "schema_version": SWEEP_SCHEMA_VERSION,
        "cases": list(plan.case_ids),
        "units": len(units),
        "complete": not outcome.missing,
        "missing": [
            {"case": case_id, "config": config_key}
            for case_id, config_key in sorted(outcome.missing)
        ],
        "failures_total": outcome.failures,
        "configurations": configurations,
    }
    return outcome


def artifact_json(artifact: dict) -> str:
    """The artifact's canonical bytes (sorted keys, 2-indent, newline)."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def load_artifact(path: Union[str, Path]) -> dict:
    """Reload a sweep artifact, validating its envelope."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FleetError(f"cannot read sweep artifact {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "fleet_sweep":
        raise FleetError(f"{path} is not a fleet_sweep artifact")
    if payload.get("schema_version") != SWEEP_SCHEMA_VERSION:
        raise FleetError(
            f"{path} has sweep schema {payload.get('schema_version')!r} "
            f"(this build speaks {SWEEP_SCHEMA_VERSION})"
        )
    return payload


__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "MergeOutcome",
    "artifact_json",
    "collect_checkpoints",
    "load_artifact",
    "merge_checkpoints",
]
