"""Pinned sha256 digests of certification reports.

Each digest covers ``certify(preset, default_region(preset, count=2000,
seed=0))`` serialized exactly as ``eulercert certify`` prints it.  They were
recorded before sampling moved to counter-based blocks and profile values
to compiled evaluators, so a speed-up that changes a single byte of any
report fails here.  A change that alters reports on purpose records new
digests and says why.
"""

import hashlib
import json

import pytest

from eulercert.catalog import TransformSpec, apply_transform, preset, preset_ids
from eulercert.verification import certify, default_region

REPORT_SHA256 = {
    "ex_2_5": "2699224216f0df3ff1e18def42da25120ced7d6a898063980ffdbf4cbcfeffd4",
    "ex_2_6": "d6f5e6b283fe521f2e6de49336fda3751d59995b467b9431a3db0538ca306dfa",
    "ex_3_2": "bfb080150ccab860d5b856f978c19cf10f9943f31c07a9806935deec53887a2b",
    "ex_3_10": "88dee2542af9749779edb340b6b3d5bccdd7602129a8c39766f69d69678f51d3",
    "ex_3_4_smooth": "57797e2b6b74befa2e1f8fd2ba1abff78b883df476631b2309687ad8808c70c2",
    "ex_3_4_singular": "e8025ad5fa2e6b7f07ed7063bb3b86d942469de964ed53f27f45d0edd3f23ff3",
    "ex_5_1_const": "b74644ec17d25499e562a45c250c488c94f0b84dac3f7dd39c30a73a85f50959",
    "ex_5_1_blowup": "095b7d84b75e3f5e6b042a2310ef522108d00154ae1b686913b673df265ebfa8",
    "ex_6_1": "bafcde76f53ab3001d01f96dddea13ec2bb9e69f15ebeaadd89624253d0d2968",
}


def test_every_preset_is_pinned():
    assert sorted(REPORT_SHA256) == sorted(preset_ids())


@pytest.mark.parametrize("pid", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(pid):
    sol = preset(pid)
    report = certify(sol, default_region(sol, count=2000, seed=0))
    data = (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == REPORT_SHA256[pid]


def _boosted(sol, *C):
    return apply_transform(sol, TransformSpec.boost(C))


# Paths no preset takes: a shifted half-space, a three-column boost, a boost
# of the half-space followed by a rescale, and a planar boost off the axes.
# Recorded before the point offsets and row sums moved to column folds.
OFF_PRESET = {
    "ex_6_1_x0": lambda: preset("ex_6_1", {"x0": [0.3, -0.2, 0.1]}),
    "ex_5_1_blowup_boosted": lambda: _boosted(preset("ex_5_1_blowup"), 0.4, -0.7, 0.25),
    "ex_6_1_boosted_rescaled": lambda: apply_transform(
        _boosted(preset("ex_6_1"), 0.2, -0.1, 0.3), TransformSpec.rescale(1.5, 2.0)),
    "ex_2_5_boosted": lambda: _boosted(preset("ex_2_5"), 0.7, -1.3),
}

OFF_PRESET_SHA256 = {
    "ex_6_1_x0": "4f9e72961271515b51cd209b35aad4049e2ce083301b223c5ad6ddd53fc68d40",
    "ex_5_1_blowup_boosted": "0831cf36d2a69c6925994f3ea7da5f0695ffa7597e9e78ae279a21f2bac214cf",
    "ex_6_1_boosted_rescaled": "29234376687cea0b80474a82067a8d0aff3c636bd54208a6e2b3e2062b58e682",
    "ex_2_5_boosted": "9a79d54d0fd0689a4cc45b5bf7aa2c2d26036090c4e3692d0cb9c0cd2e6d93c1",
}


@pytest.mark.parametrize("case", sorted(OFF_PRESET_SHA256))
def test_off_preset_report_bytes_unchanged(case):
    sol = OFF_PRESET[case]()
    report = certify(sol, default_region(sol, count=2000, seed=0))
    data = (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == OFF_PRESET_SHA256[case]
