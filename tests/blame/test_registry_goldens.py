"""Byte-level goldens for the blame output of every registry case.

Each entry pins the sha256 of one :class:`~repro.advisor.report.AdviceReport`
serialized canonically (``to_dict()`` as sorted-key compact JSON), for all
26 registry cases in both the baseline and the optimized variant, simulated
``single_wave`` on the ``flat`` memory model at sample period 8.  The report
carries the full blame tree (dependency graph, pruning statistics and
Equation 1 attribution), so any change to slicing, pruning or apportioning
that moves a single byte fails here.  The digests were recorded before the
blame layer was indexed and must never be regenerated to make a change pass.
"""

import hashlib
import json

import pytest

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.workloads.registry import case_names

pytestmark = pytest.mark.xdist_group("registry_goldens")

VARIANTS = ("baseline", "optimized")

GOLDEN_DIGESTS = {
    "ExaTENSOR:memory_transaction_reduction@baseline":
        "7b4243354ad3ab41e3e487ca94968055ee4e56ee689e4959fee782612d877c02",
    "ExaTENSOR:memory_transaction_reduction@optimized":
        "2cb23321add3b62bfae4d1b3a299fb1d457978c1828457f971d5108e2b419361",
    "ExaTENSOR:strength_reduction@baseline":
        "8575194f6e12ff37aa91c8d42402b141237af1ac1034ed64408c21abee2ac857",
    "ExaTENSOR:strength_reduction@optimized":
        "7b4243354ad3ab41e3e487ca94968055ee4e56ee689e4959fee782612d877c02",
    "Minimod:code_reorder@baseline":
        "a099f7f92974bb62d0a7c7a54d6b0e1a31aef48e5a5291244d09cea18ff504da",
    "Minimod:code_reorder@optimized":
        "b7e552900505cab0f8e3e827def7e6664bcd3e2edc78b6bf1c12150690e5b71c",
    "Minimod:fast_math@baseline":
        "07868b72342738783ecb54a8d3dde516f08bb18e3781c3ba9431e4c45e1ad894",
    "Minimod:fast_math@optimized":
        "a099f7f92974bb62d0a7c7a54d6b0e1a31aef48e5a5291244d09cea18ff504da",
    "PeleC:block_increase@baseline":
        "a535c1532ad50b50a0a6af2b0800a1343f16419e49aeeaa2cf3fefc773ec93af",
    "PeleC:block_increase@optimized":
        "90b997aedabd587cd4668afb88264d01096693cdea06757f1fdf90052a45e764",
    "Quicksilver:function_inlining@baseline":
        "fa73053b08c91fe59036873c0e0d05b7018557eeb0f32cc51e9e66f44db2043f",
    "Quicksilver:function_inlining@optimized":
        "8207257391e1fa8cf47f003497eebbe7fe75e051e605eefaa042c71ae4773c9b",
    "Quicksilver:register_reuse@baseline":
        "fa73053b08c91fe59036873c0e0d05b7018557eeb0f32cc51e9e66f44db2043f",
    "Quicksilver:register_reuse@optimized":
        "201aaa3501b134d79b0ff5214b0f14e818295140355f4901dc5d0c0db12f65f6",
    "rodinia/b+tree:code_reorder@baseline":
        "8a6b84db017ccfc0e460389b0f1c92ab6c6c62a5dbba985d1b34077531c8ca1a",
    "rodinia/b+tree:code_reorder@optimized":
        "ac32dcdee8cf223c4ad7176e99847a2e27f43f96da13854c7105ce3eb19e4c77",
    "rodinia/backprop:strength_reduction@baseline":
        "841e1ab73292b765dcdb6c6379505a8f05eda56b23b412f989627f6e545fe0ae",
    "rodinia/backprop:strength_reduction@optimized":
        "f5afce42d46d73da7a3725f9ca0d5d44f396a3cf36e0742f041b09039b563fc0",
    "rodinia/backprop:warp_balance@baseline":
        "841e1ab73292b765dcdb6c6379505a8f05eda56b23b412f989627f6e545fe0ae",
    "rodinia/backprop:warp_balance@optimized":
        "6579875bf7f07df9337df60535022ed7b8d4ab9a4097bb467e5fb045ebcf4587",
    "rodinia/bfs:loop_unrolling@baseline":
        "ca5f50f88de586a507a674eaaacfb9cc74ebe9e6edb1d1e257a03b4e11eb1898",
    "rodinia/bfs:loop_unrolling@optimized":
        "de2be0711e0352458bd1cd74d3fff84b90ea7afd3d0a658de6cb3b19a7895fb6",
    "rodinia/cfd:fast_math@baseline":
        "311596a45fc5d437e9e8f14d7ed9e820c089aabfec625f48b3b72ca199697d9a",
    "rodinia/cfd:fast_math@optimized":
        "2bfee7dc613b8a477057475be5f714b197d34fb82fe91f2f55797f3f850ba5ec",
    "rodinia/gaussian:thread_increase@baseline":
        "6518eb3d5d39d1b2f815d4aa596ddfb01a29085f8b1b0d46e6f174b55afcd715",
    "rodinia/gaussian:thread_increase@optimized":
        "13134881a83eeb8cc0a6b346c065b0c488544f59b648766051277efbc5d4321d",
    "rodinia/heartwall:loop_unrolling@baseline":
        "94507ef0876efa73324aad06f867ea7ac64543a4ac766c8a7e355eb3bee5b50b",
    "rodinia/heartwall:loop_unrolling@optimized":
        "46480b51ab852888a8b6be7277d8d7eb5643112d37cbe8598f4e2de2626e20ed",
    "rodinia/hotspot:strength_reduction@baseline":
        "afecbd20c6ace63f10481949ee6a5ff0298712bee14486cc775ac333e68c8174",
    "rodinia/hotspot:strength_reduction@optimized":
        "6001beb10e055fb45ca4f377f157be6c9e59e16ce8055ffe3d13dbf13893a9be",
    "rodinia/huffman:warp_balance@baseline":
        "1489a67355f6d4bd0009970a25292a0f711f894091fbfc0ac8d5f0721351fc49",
    "rodinia/huffman:warp_balance@optimized":
        "0a5206a5b6dfa9c1c1ee1681f55ca3f018aa92889725c63e7ef4cd7eaa44a0ca",
    "rodinia/kmeans:loop_unrolling@baseline":
        "0520b337e88116f29e6d18c3928f99f95284c7239f9215680890a3379bb95aa3",
    "rodinia/kmeans:loop_unrolling@optimized":
        "4677b759dd1afc1184502f39ce5f58ca48b5687e9d51e96c2ce010b4a9ddd1af",
    "rodinia/lavaMD:loop_unrolling@baseline":
        "dcbec1e36c13d19838bd4784b2172191d4b10c6959bca29519dfc47b28f8ea4a",
    "rodinia/lavaMD:loop_unrolling@optimized":
        "f65fb57e5caac65ff9f2b835e2d0cc19e0d6c5b54d897efc3704a2400cb9271c",
    "rodinia/lud:code_reorder@baseline":
        "7a4cb35c9ae10308f8f682e54455f01f0096ee57be882d17e8f067d0d18fd19e",
    "rodinia/lud:code_reorder@optimized":
        "66aea9f9ea74ed3ee11e3ffbfda96b46b34f0fe7c47c4560bd2ab7a3cad2681c",
    "rodinia/myocyte:fast_math@baseline":
        "bd40822666cb8c4a63b499a1fabd12a14eba2d1d013b8e6d449f38e637e49d6c",
    "rodinia/myocyte:fast_math@optimized":
        "9db63f8e60bd1f4d8f47667d155d5eec8021fd68226ed204b6fec7ec39c7432c",
    "rodinia/myocyte:function_splitting@baseline":
        "bd40822666cb8c4a63b499a1fabd12a14eba2d1d013b8e6d449f38e637e49d6c",
    "rodinia/myocyte:function_splitting@optimized":
        "21ba8693a1209e5e186d694a193e55858fb637ed22d44c7b30c4d87a29e7d6f7",
    "rodinia/nw:warp_balance@baseline":
        "9833ef40bd6674334a8123fb300c7f0574b4040ae33f7184ddadcf1d9a8dad4d",
    "rodinia/nw:warp_balance@optimized":
        "071efb673d5a346b8c817f984a3ed806f48ab9cf9bef9cb1bf4f35a14f028251",
    "rodinia/particlefilter:block_increase@baseline":
        "7a73387a715756a0152c418902a84466810e0a065a0c4797dbf42475ec3b543f",
    "rodinia/particlefilter:block_increase@optimized":
        "c52d601ba99ed15170012f5a92e2b6e88324334dbba2c6eed1d08f732f4313d7",
    "rodinia/pathfinder:code_reorder@baseline":
        "deb67a0a3c9dff79b58c8d331428ec937d6944e613bfa4044c694017cf471c56",
    "rodinia/pathfinder:code_reorder@optimized":
        "837033f0a76b4cdd14ef1774a45897f34799baedb8e3afe902d33214402faf7d",
    "rodinia/sradv1:warp_balance@baseline":
        "7959447e1653bcd3faada82ec7c7bc7d331d35ec86030569a10688435350847a",
    "rodinia/sradv1:warp_balance@optimized":
        "b961815aabf527d602e076da7d7d0f1a0584c8eec2cdcd7c75246acfcf394276",
    "rodinia/streamcluster:block_increase@baseline":
        "cb28fd5dce512d8bff1b0c3a794b78beb10d0ca95ded6d77cfe1941831e29f9a",
    "rodinia/streamcluster:block_increase@optimized":
        "3c0d794dcc6dcd516b34bc14a2e3e0d16093a150ae4686429cc9c6985e35a69c",
}


def canonical_digest(report) -> str:
    data = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def registry_digests():
    """``case@variant`` -> digest of its report, computed once per module."""
    session = AdvisingSession(
        sample_period=8, simulation_scope="single_wave", memory_model="flat"
    )
    keys = [f"{name}@{variant}" for name in case_names() for variant in VARIANTS]
    requests = [
        request_for_case(key.rsplit("@", 1)[0], variant=key.rsplit("@", 1)[1])
        for key in keys
    ]
    digests = {}
    for key, result in zip(keys, session.advise_many(requests)):
        assert result.ok, f"{key}: {result.error}"
        digests[key] = canonical_digest(result.report)
    return digests


def test_goldens_cover_every_registry_case():
    expected = {f"{name}@{variant}" for name in case_names() for variant in VARIANTS}
    assert set(GOLDEN_DIGESTS) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_report_bytes_match_golden(key, registry_digests):
    assert registry_digests[key] == GOLDEN_DIGESTS[key]
