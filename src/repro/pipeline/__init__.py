"""The staged advising pipeline.

Advising is two stages — *profile* (simulate a kernel launch and collect
PC samples) and *analyze* (blame, match, estimate) — kept explicit so they
can be cached, skipped, or fanned out independently:

* :mod:`repro.pipeline.stages` — :class:`ProfileStage` and
  :class:`AnalyzeStage`, the typed units the advising session composes;
* :mod:`repro.pipeline.cache` — an on-disk profile cache keyed by a digest
  of (binary, kernel, launch config, workload, architecture, sample
  period), so re-running a sweep skips simulation entirely.

Batches of requests, inline or across a process pool, run through
:class:`~repro.api.session.AdvisingSession`.
"""

from repro.pipeline.cache import ProfileCache, profile_cache_key
from repro.pipeline.stages import (
    AnalyzeRequest,
    AnalyzeStage,
    ProfileRequest,
    ProfileStage,
    retarget,
)

__all__ = [
    "AnalyzeRequest",
    "AnalyzeStage",
    "ProfileCache",
    "ProfileRequest",
    "ProfileStage",
    "profile_cache_key",
    "retarget",
]
