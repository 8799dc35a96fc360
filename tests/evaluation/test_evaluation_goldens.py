"""Byte-level goldens for the paper's evaluation harnesses.

Each entry pins the sha256 of one harness output at the default
configuration (sm_70, sample period 8, ``single_wave``, ``flat``):

* ``table3`` — the canonical JSON of :func:`table3_payload` over all 26
  registry cases (the worker count is not part of the document);
* ``figure7`` — the :func:`format_figure7` text over the Rodinia cases;
* ``fleet`` — :func:`artifact_json` of a one-shard, three-case fleet
  sweep, run and merged end to end.

Table 3 and the fleet compute the same per-case outcome and the same
aggregates, so a change to either computation, or to how the harnesses
drive the advising session, that moves a single byte fails here.  The
digests must never be regenerated to make a change pass.
"""

import hashlib
import json

import pytest

from repro.evaluation.figure7 import evaluate_figure7, format_figure7
from repro.evaluation.fleet.merge import (
    artifact_json,
    collect_checkpoints,
    merge_checkpoints,
)
from repro.evaluation.fleet.plan import build_plan
from repro.evaluation.fleet.runner import ShardRunner
from repro.evaluation.table3 import evaluate_table3, table3_payload

pytestmark = pytest.mark.xdist_group("evaluation_goldens")

GOLDEN_DIGESTS = {
    "table3": "897a9e76c8bed79fbc5f950c25fc0811ef0a181f5e4c93802d488cde512ed8ac",
    "figure7": "7a17b048c18dcbc9ad9e0f98eb8cde4579b20e734c2645a8d4e6519da1ac2ddd",
    "fleet": "55d7f9ecddd8d037cd70c13584666dadb8b6811386415d163fb4615dfb4d1aee",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_table3_payload_digest():
    result = evaluate_table3()
    assert not result.failures
    config = {
        "arch_flag": "sm_70",
        "sample_period": 8,
        "simulation_scope": "single_wave",
        "memory_model": "flat",
        "cases": len(result.rows),
    }
    payload = json.dumps(table3_payload(result, config), indent=2, sort_keys=True)
    assert len(result.rows) == 26
    assert sha256(payload) == GOLDEN_DIGESTS["table3"]


def test_figure7_text_digest():
    assert sha256(format_figure7(evaluate_figure7())) == GOLDEN_DIGESTS["figure7"]


def test_fleet_artifact_digest(tmp_path):
    plan = build_plan(num_shards=1, limit=3)
    summary = ShardRunner(plan, 0, tmp_path).run()
    assert summary.complete and not summary.failed
    checkpoints, notes = collect_checkpoints(tmp_path, plan)
    outcome = merge_checkpoints(plan, checkpoints, notes)
    assert outcome.complete and outcome.failures == 0
    assert sha256(artifact_json(outcome.artifact)) == GOLDEN_DIGESTS["fleet"]
