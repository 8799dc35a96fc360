"""Byte-level goldens for the wire form of every simulated result.

Each entry pins the sha256 of one :class:`~repro.api.result.AdvisingResult`
wire form (``to_dict()`` as sorted-key JSON, with the wall-clock
``duration`` zeroed) at sample period 8:

* all 26 registry cases under ``single_wave`` on both memory models;
* the three smallest whole-GPU grids (16/40/50 blocks, grid-limited
  launches that still reach the tail-wave and cross-SM paths) under
  ``whole_gpu`` on both memory models.

The wire form carries the profile (kernel and wave cycles, per-instruction
stall and issue counts, memory-hierarchy counters) and the full report, so
any change to the SM simulator, the memory model or the whole-GPU engine
that moves a single simulated cycle fails here.  The digests were recorded
while the repository still had two simulator cores, which agreed on every
entry; they must never be regenerated to make a change pass.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.workloads.registry import case_names

pytestmark = pytest.mark.xdist_group("wire_goldens")

MEMORY_MODELS = ("flat", "hierarchy")

#: Whole-GPU cases: the three smallest grids, from distinct suites.
WHOLE_GPU_CASES = (
    "PeleC:block_increase",
    "rodinia/particlefilter:block_increase",
    "rodinia/streamcluster:block_increase",
)

GOLDEN_DIGESTS = {
    "single_wave/flat/ExaTENSOR:memory_transaction_reduction":
        "3804f76013453726a84300d29407576beca8a543108311725625251cd34d349c",
    "single_wave/flat/ExaTENSOR:strength_reduction":
        "c4b0438000f278cc0f4f9fc3cea541feacf26ab7c0d901285a0c00aed9da36f5",
    "single_wave/flat/Minimod:code_reorder":
        "6a96bf76caa9b4537bb05d7c11ebff82af4115b4d6d0473679dbc16c4c41f365",
    "single_wave/flat/Minimod:fast_math":
        "4fb0941682b46c2a757e42f0c594115dc1d8138f9099cd8366f9f5ce24483008",
    "single_wave/flat/PeleC:block_increase":
        "e0c7396596e92a47f5dc47adb0068d620f57f083bd34bc8f28a859f5e138dc6e",
    "single_wave/flat/Quicksilver:function_inlining":
        "6157a7e929576746579d35efea5d4307c0a42f29f25012a228ed42503dfce217",
    "single_wave/flat/Quicksilver:register_reuse":
        "572a593d07ae594bc909585c9ce880239517abc4a7f542957fcec721721eb73e",
    "single_wave/flat/rodinia/b+tree:code_reorder":
        "8d82b69a36dcc0b44dbef66e11d10b9fab126b13dda3f3b53d40d88cbff3271d",
    "single_wave/flat/rodinia/backprop:strength_reduction":
        "4006994458d9d18289ae33042753f0b8178c9d795402872c6a1104fae7b77563",
    "single_wave/flat/rodinia/backprop:warp_balance":
        "419070f54a0693d998358d5f5502460f9d4236a95fe46aafcdf39e0dd556018b",
    "single_wave/flat/rodinia/bfs:loop_unrolling":
        "70da2fd9fb931f5c0bd1f09a500bb3dae4f8934c083b22d6ce5d465b53cf2de2",
    "single_wave/flat/rodinia/cfd:fast_math":
        "f8933194e79f05810b5fb6ea0ea0978a07e048b37258cc06d0884cf5972425ee",
    "single_wave/flat/rodinia/gaussian:thread_increase":
        "ac2b6ed2731a64acd7eb805aa665321272064edb8be619089b236e8677aee4a8",
    "single_wave/flat/rodinia/heartwall:loop_unrolling":
        "968aba5a850415da6f51ed7c25828d1c51a312d3031019bcf1da25b3d33cad01",
    "single_wave/flat/rodinia/hotspot:strength_reduction":
        "0330fef0232006c33c4d5c2ff945b4151c14954e33dbc08b431eadbc5cabe53e",
    "single_wave/flat/rodinia/huffman:warp_balance":
        "315b55aec9d1963342ae09275b2d0e08a98ca36f04bbce0bbf1f1f3a4cd28a8f",
    "single_wave/flat/rodinia/kmeans:loop_unrolling":
        "fd9cf14b5478d4c0fddfdb9888117d0be665e79af08eaef481da52d647d660d4",
    "single_wave/flat/rodinia/lavaMD:loop_unrolling":
        "a7323057260fae9d28b07a7c37a57a04afa4afbf7c6a5edbb3e5e2dc568bcdb9",
    "single_wave/flat/rodinia/lud:code_reorder":
        "be2b1e995931a6cf675489229bfc95e4509c6b896588658592fcdbcda13fda3d",
    "single_wave/flat/rodinia/myocyte:fast_math":
        "83092fc2010c563201b7dca001661cceb022d47b5ccba2112a8eec7c26ec67b2",
    "single_wave/flat/rodinia/myocyte:function_splitting":
        "731878d4b48a6b9fbf449a5b42f882ce869a34872413104b30e552720354497b",
    "single_wave/flat/rodinia/nw:warp_balance":
        "7ee505687c1824dfc130b95efc814bde83e59983e803521bb6e4cee59212cbb4",
    "single_wave/flat/rodinia/particlefilter:block_increase":
        "ceaeae0d378f33b86526f0160fdb56f6dab9e3725e48344ceadbafe486839eaa",
    "single_wave/flat/rodinia/pathfinder:code_reorder":
        "35f3ea7010cb48ae0567c05bdff9193712bab08fdd262869fda47be2b9f2556a",
    "single_wave/flat/rodinia/sradv1:warp_balance":
        "fc758e1caae73dd038a027be64d4af3bf8a6c282c1bcf92c4a92c20a39cb20d1",
    "single_wave/flat/rodinia/streamcluster:block_increase":
        "3f05243e54360df55cc218a496abfe1d6325359a0257e74bf90b6d7a466054c2",
    "single_wave/hierarchy/ExaTENSOR:memory_transaction_reduction":
        "60fc4e1b5bb971acb5581a86523e1e0f226eab3be7493517fd9adc2c74510c9c",
    "single_wave/hierarchy/ExaTENSOR:strength_reduction":
        "c2c71b76bdcf2535e5237b63afaf3f0d2daa7581d8397ee3e4ca17b412cf1297",
    "single_wave/hierarchy/Minimod:code_reorder":
        "7e5875ae2eb25410bc61a7823701ec9bdd106e8032ae6cadecfdf5e9eb1b6485",
    "single_wave/hierarchy/Minimod:fast_math":
        "470f2cfb6a9a7ef3bbcc2297154997ae789d400a8d6d9296d7da1d17927fcaf0",
    "single_wave/hierarchy/PeleC:block_increase":
        "9d9152d83bf2c1d6dd3070eda1b9ebdab60fd6aa67425b298e6d3b9eb7309eaa",
    "single_wave/hierarchy/Quicksilver:function_inlining":
        "f243890212da04aa64d95249854bcd40cd061cbf9731706e2b2c876f6aa0d936",
    "single_wave/hierarchy/Quicksilver:register_reuse":
        "0a9b9e6f49c3f45686a33942b14f9fd89665f6f25e68c608d6f35fe117212df6",
    "single_wave/hierarchy/rodinia/b+tree:code_reorder":
        "32e4bbc7c9ebe5ec45b2d755e73e4daaa1da1cfc18ec61a5496b760ada9c590d",
    "single_wave/hierarchy/rodinia/backprop:strength_reduction":
        "ff1074a94051f160df3168ada02e8aa9c4d4bce5fbcfe84f51e3d090d339d958",
    "single_wave/hierarchy/rodinia/backprop:warp_balance":
        "73a05e85bac7dd935f2b95b91979bb23dc8268becbe4eec3609faf3ab14828ea",
    "single_wave/hierarchy/rodinia/bfs:loop_unrolling":
        "246ab2f9b982bf04ac4d758b40a123efd6d439aa49bc7ea4c5ff2fe31770a236",
    "single_wave/hierarchy/rodinia/cfd:fast_math":
        "0320a9ac5ab6f11715943e6fb21e312758fd89a1935efc160fc33682dc6e10d9",
    "single_wave/hierarchy/rodinia/gaussian:thread_increase":
        "2cb1db2a14378ab3c360d0cf2139e486bd9db7d6fd92ae8a253348c92384353e",
    "single_wave/hierarchy/rodinia/heartwall:loop_unrolling":
        "214735e50f8c85f41bac47749b70a37fc64155b4a57a73fee6ea288b1950b9fe",
    "single_wave/hierarchy/rodinia/hotspot:strength_reduction":
        "fd51587b28b2d3f4cd1f439a2a24c7f295653b49e00d2bdd9cd6d177120637f3",
    "single_wave/hierarchy/rodinia/huffman:warp_balance":
        "6f5a9d7d4da36ac3db92e60c6fe5b2c056830ec85bbc3b62c5108585e12dd6f2",
    "single_wave/hierarchy/rodinia/kmeans:loop_unrolling":
        "87aae6ff8ac007770d00e26d8578ed5868110076381c7b4f41a05211b8833a4e",
    "single_wave/hierarchy/rodinia/lavaMD:loop_unrolling":
        "902938b87ee268ca7ab95d60e87bb490bf5303efb2575dad44aecae934cd2ce6",
    "single_wave/hierarchy/rodinia/lud:code_reorder":
        "0fe3d0e33167ebc357dbd626df9ae33e6456f7f24160069c92341b4a1f27f421",
    "single_wave/hierarchy/rodinia/myocyte:fast_math":
        "ade1d62aa3152637b57e15aa19490b1a4ee6e5e7d5e3e9a1e679a9c542779154",
    "single_wave/hierarchy/rodinia/myocyte:function_splitting":
        "0c0be1107e4845ea925c381272a7bd69efe265666e7a84c7093063b26a72dc21",
    "single_wave/hierarchy/rodinia/nw:warp_balance":
        "6f13870d076cc832b94834708404c122f9507a05ef5f315f7196b4379a657463",
    "single_wave/hierarchy/rodinia/particlefilter:block_increase":
        "c32d8fe230f4333cb05608dc2f41d47446747f394aa8da9401890ae927e3bd4a",
    "single_wave/hierarchy/rodinia/pathfinder:code_reorder":
        "71c119f9a08ae363b912ba7acf26e090cf3c1db6957f17835f8a31df37e53215",
    "single_wave/hierarchy/rodinia/sradv1:warp_balance":
        "f2f9f4cd869207590195a0595228a6718ee723de31b4b8efbe4c92165d91d6c0",
    "single_wave/hierarchy/rodinia/streamcluster:block_increase":
        "27a4ea0e03106d3109321e217782cdd6312d03e2f38ccf054658b7e69bb49aaa",
    "whole_gpu/flat/PeleC:block_increase":
        "725302905a066f949c10a782c824ec6773aeb862aa73ddd0de54205b736c1af3",
    "whole_gpu/flat/rodinia/particlefilter:block_increase":
        "8dc33a70c56cc8d51f830d76ac1d15461c479ec0f6e8e98040354d1f094a48a7",
    "whole_gpu/flat/rodinia/streamcluster:block_increase":
        "9ec66cc92be4d4c7059ec3ec2f986c1a3fb937ba3875a14f0bbbc6cd6c5e2582",
    "whole_gpu/hierarchy/PeleC:block_increase":
        "1671ccab21ec9e76ababfb9d65c4bf38453593e7cbe963c6f179a7f61767952a",
    "whole_gpu/hierarchy/rodinia/particlefilter:block_increase":
        "3498f68ba902fa1d3eba95612c32ac198bdacb019cf09dc5a9939cbeb1358e03",
    "whole_gpu/hierarchy/rodinia/streamcluster:block_increase":
        "72b6ee09b50329f13dfd6c48d3969fd0499388837a7a98d473670df93430a421",
}

_SESSIONS = {}


def wire_digest(scope: str, memory_model: str, case_id: str) -> str:
    """sha256 of one case's wire form with ``duration`` zeroed."""
    session = _SESSIONS.get((scope, memory_model))
    if session is None:
        session = AdvisingSession(
            sample_period=8, simulation_scope=scope, memory_model=memory_model
        )
        _SESSIONS[(scope, memory_model)] = session
    payload = session.advise(request_for_case(case_id)).to_dict()
    assert not payload.get("error"), payload.get("error")
    payload["duration"] = 0.0
    data = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def test_goldens_cover_every_combination():
    expected = {
        f"single_wave/{model}/{name}" for model in MEMORY_MODELS for name in case_names()
    } | {
        f"whole_gpu/{model}/{name}" for model in MEMORY_MODELS for name in WHOLE_GPU_CASES
    }
    assert set(GOLDEN_DIGESTS) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_wire_form_matches_golden(key):
    scope, memory_model, case_id = key.split("/", 2)
    assert wire_digest(scope, memory_model, case_id) == GOLDEN_DIGESTS[key]


# ----------------------------------------------------------------------
# The package runs on the standard library alone
# ----------------------------------------------------------------------
def _python(script: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter on this source tree."""
    source = Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(source)),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_hierarchy_request_matches_its_golden_without_numpy():
    key = "single_wave/hierarchy/rodinia/hotspot:strength_reduction"
    digest = _python("""
        import hashlib, json, sys
        sys.modules["numpy"] = None  # any `import numpy` now fails

        from repro.api.request import request_for_case
        from repro.api.session import AdvisingSession

        session = AdvisingSession(sample_period=8, memory_model="hierarchy")
        payload = session.advise(
            request_for_case("rodinia/hotspot:strength_reduction")
        ).to_dict()
        assert not payload.get("error"), payload.get("error")
        payload["duration"] = 0.0
        data = json.dumps(payload, sort_keys=True)
        print(hashlib.sha256(data.encode("utf-8")).hexdigest())
    """)
    assert digest == GOLDEN_DIGESTS[key]


def test_importing_repro_does_not_import_numpy():
    assert _python("import sys, repro; print('numpy' in sys.modules)") == "False"
