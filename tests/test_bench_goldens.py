"""The benchmark's golden report digests, checked at its own sample count.

``perfbench/goldens.json`` holds the sha256 of every preset's certification
report at 10^4 samples for seeds 0-29, as ``eulercert certify`` prints it.
The benchmark counts a report that misses its golden as a failed operation;
checking seeds 0 and 1 here makes a changed byte fail the test suite too.
This file only reads the goldens.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eulercert.catalog import preset, preset_ids
from eulercert.verification import certify, default_region

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
SAMPLES = 10_000


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())["certify_presets"]


def test_goldens_cover_every_preset(goldens):
    for seed in ("0", "1"):
        assert sorted(goldens[seed]) == sorted(preset_ids())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pid", preset_ids())
def test_report_matches_the_bench_golden(goldens, pid, seed):
    sol = preset(pid)
    report = certify(sol, default_region(sol, count=SAMPLES, seed=seed))
    data = (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == goldens[str(seed)][pid]
