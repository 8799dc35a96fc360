"""The generated inputs: requests, sweep orders and arrival schedules.

Everything here is a pure function of the workload seed, so one seed always
yields the same requests in the same order at the same times.  The program
under test only ever sees the requests.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

#: Sample period of every request (the repo's Table 3 default).
SAMPLE_PERIOD = 8
VARIANTS = ("baseline", "optimized")

#: ``whole_gpu_hierarchy``: (case, grid blocks).  Both kernels run on the
#: 13-SM Kepler model with the grid cut to 1.25 waves (one full wave and a
#: quarter-full tail wave), so one request takes well under a second on a
#: 2020s x86 core instead of the 10-15 s the full V100 grids take.
GPU_ARCH = "sm_35"
GPU_CASES = (
    ("rodinia/hotspot:strength_reduction", 98),
    ("rodinia/heartwall:loop_unrolling", 33),
)


def sweep_keys() -> List[str]:
    """``case@variant`` for every registry case, in registry order."""
    from repro.workloads.registry import case_names

    return [f"{name}@{variant}" for name in case_names() for variant in VARIANTS]


def sweep_request(key: str):
    from repro import request_for_case

    name, variant = key.rsplit("@", 1)
    return request_for_case(
        name, variant=variant, sample_period=SAMPLE_PERIOD,
        simulation_scope="single_wave", memory_model="flat",
    )


def gpu_keys() -> List[str]:
    return [f"gpu:{name}" for name, _ in GPU_CASES]


def gpu_request(key: str):
    """The trimmed whole-GPU, memory-hierarchy request of one case."""
    from repro import AdvisingRequest
    from repro.workloads.registry import case_by_name

    name = key.split(":", 1)[1]
    grid_blocks = dict(GPU_CASES)[name]
    setup = case_by_name(name).build_baseline()
    return AdvisingRequest(
        source="binary", cubin=setup.cubin, kernel=setup.kernel,
        config=dataclasses.replace(setup.config, grid_blocks=grid_blocks),
        workload=setup.workload, arch_flag=GPU_ARCH,
        sample_period=SAMPLE_PERIOD, simulation_scope="whole_gpu",
        memory_model="hierarchy", label=key,
    )


def build_requests(keys: List[str]) -> Dict[str, object]:
    return {
        key: gpu_request(key) if key.startswith("gpu:") else sweep_request(key)
        for key in keys
    }


# ----------------------------------------------------------------------
def pass_order(keys: List[str], seed: int, workload: str, index: int) -> List[str]:
    """The seed-shuffled order of one closed-loop pass."""
    order = list(keys)
    random.Random(f"{workload}:{seed}:pass{index}").shuffle(order)
    return order


def arrivals(keys: List[str], seed: int, step: str, rate: float,
             rounds: int) -> List[Tuple[float, str]]:
    """A Poisson schedule of ``rounds`` x ``keys`` at ``rate`` per second.

    Each round sends every key once in a fresh shuffled order, so every
    step sees the same mix of cheap and expensive requests; keys repeat
    across rounds, and a repeat that arrives while its twin is still in
    flight coalesces.  The exponential gaps are scaled so the schedule
    spans exactly ``count / rate`` seconds: arrival times vary with the
    seed, the offered rate does not.  Returns ``(due offset in seconds,
    key)`` pairs.
    """
    rng = random.Random(f"service:{seed}:{step}")
    order = []
    for _ in range(rounds):
        shuffled = list(keys)
        rng.shuffle(shuffled)
        order.extend(shuffled)
    gaps = [rng.expovariate(rate) for _ in order]
    scale = len(order) / rate / sum(gaps)
    schedule = []
    due = 0.0
    for gap, key in zip(gaps, order):
        due += gap * scale
        schedule.append((due, key))
    return schedule
