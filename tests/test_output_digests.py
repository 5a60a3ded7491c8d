"""Pinned sha256 digests of outputs that go through the transform, the
finite-difference stencils and the phase-field jets.

Certify reports (count 2000, seed 0) of transformed vortices and of twin
waves with c3 other than 1, and the stdout of the probe and grid-dump
commands.  The digests were recorded before those three mechanisms were
merged into one each, so a refactor that moves a single rounding step
fails here.  The NA and 3D grid dumps were recorded before grid-dump
formatted its finite rows with one format string per row.  The `list`
output and the spec documents exported for the nine presets were recorded
before the constructors recorded their own spec parameters.  The `blowup`
outputs (the sup fit of three presets, at K = 6 and 48, and of ex_2_6
rescaled by lam = 2, tau = 0.5 from a spec file) were recorded before the
sup fit evaluated its sample times in slices on one shared radial grid.  A
change that alters these outputs on purpose records new digests and says
why.
"""

import hashlib
import json

import pytest

from eulercert.catalog import TransformSpec, apply_transform, preset, twin_wave
from eulercert.cli import main, solution_spec_for_preset
from eulercert.verification import certify, default_region

TRANSFORMS = {
    "boost": [TransformSpec.boost((1.0, 2.0))],
    "rotation": [TransformSpec.rotation(0.7)],
    "rescale": [TransformSpec.rescale(2.0, 3.0)],
    "chain": [TransformSpec.boost((1.0, 2.0)), TransformSpec.rotation(0.7),
              TransformSpec.rescale(2.0, 3.0)],
}

WAVES = {
    "bump_sine": lambda: twin_wave("1/(1+x^2)^2 + sin(x)", 0.3, -0.2, 0.5),
    "rational": lambda: twin_wave("x/(1+x^2)", 1.0, 0.5, -1.7),
}

CLI = {
    "probe_affine": ["probe", "--mode", "affine", "--v1", "sin(x)", "--v2", "1/(1+x^2)",
                     "--c1", "0.3"],
    "probe_twinwave": ["probe", "--mode", "twinwave", "--u1", "1/(1+x^2)", "--u2", "x^2",
                       "--c3", "0.5"],
    "grid_dump_ex_3_2": ["grid-dump", "ex_3_2", "--nx", "16", "--nt", "2"],
    # NA cells inside the exclusion around the vortex core
    "grid_dump_ex_2_6_na": ["grid-dump", "ex_2_6", "--box", "-1", "1", "-1", "1",
                            "--nx", "9", "--nt", "2"],
    "grid_dump_ex_6_1_3d": ["grid-dump", "ex_6_1", "--nx", "6", "--nt", "2"],
    "list_table": ["list"],
    "list_json": ["list", "--format", "json"],
    "blowup_ex_2_6": ["blowup", "ex_2_6"],
    "blowup_ex_2_6_K6": ["blowup", "ex_2_6", "--K", "6"],
    "blowup_ex_5_1_blowup": ["blowup", "ex_5_1_blowup"],
    "blowup_ex_6_1": ["blowup", "ex_6_1"],
    "blowup_ex_2_6_rescaled": ["blowup", "ex_2_6_rescaled.json"],
}

# spec documents, written to a file whose path replaces their name in a CLI argv
SPEC_FILES = {
    "ex_2_6_rescaled.json": {"format_version": 1, "family": "preset", "preset": "ex_2_6",
                             "transforms": [{"kind": "rescale", "lam": 2.0, "tau": 0.5}]},
}

TRANSFORMED_SHA256 = {
    "ex_2_5/boost": "dd25f5e6a52c16455586e224ad427f6771d63a2f9a20525818708bbd16235219",
    "ex_2_5/rotation": "9d5465aa45247fa861435ebda6deff8a0298dc21315d57203655db0dc5ebfde5",
    "ex_2_5/rescale": "fa4ac709dc14563e1832d4744e3581825bf2dc4db1c41455f5c217de3d342c02",
    "ex_2_5/chain": "552df9f2c14f88456ee9316814d4fe2689c8417fc738a65c1be473bc4b913fa8",
    "ex_3_2/boost": "98f9a8198be2ac178e251238be4c40b83fb3cf18404d4da2c99c796ec06d30fc",
    "ex_3_2/rotation": "6968b31241725310357b780ccf1946a3f012eb8752e8b895d3bb7e99a43b6d06",
    "ex_3_2/rescale": "dfc901af0fca563a3dafebcf0bb68d59a8a41379b764c507ff429ab3d517caa0",
    "ex_3_2/chain": "352534f2d1aef53908c4bead3a644553a12ba7342b2ef32b4ba9ec159b41cc03",
}

WAVE_SHA256 = {
    "bump_sine": "bfd2af105c2689ac793b9a58ffefc83815b6eb1a4f784b65fcc853cfb8f94c0b",
    "rational": "9dd0955084e223900ca507fd1e2cd6f7151e8a4a7f698391cee6473a83f7f8bd",
}

CLI_SHA256 = {
    "probe_affine": "a5458ecdc2d87fd5cdf2df926d5587d58dcef348ae504971ae1730b49afa48b2",
    "probe_twinwave": "2ed091533fc1eb1c4393cb891e0e70b3a1389777017f2e32ee901654706028b1",
    "grid_dump_ex_3_2": "d893f57aad81b8fed4b233a0d95c29e91f3e59f4e26932345b5a3caa700fee84",
    "grid_dump_ex_2_6_na": "f4dd0e688a8752d6eea701f2aaa4093f2de746f2fb522558b37bd3a1455e360f",
    "grid_dump_ex_6_1_3d": "3bfc46cc4b6cb318b23d4dd52d7998f7186588d66d5d1384bafb91067c418116",
    "list_table": "834d17ab999f93c3f80f2e38848a71c2b877a5d7cbba67b2ad52462a413ac197",
    "list_json": "586443104045ea5e2bf6f07cc209ed98dced2f261c64ed8e2ee973ff99c4c54c",
    "blowup_ex_2_6": "e3f3a1ad2edeb2cfb83b5940b979ae2b29dba444d742235d833d01e010760a41",
    "blowup_ex_2_6_K6": "1354d262b458dcb419c464f99b959c12ed9b6b1f656808035d3a63a1b74dd76b",
    "blowup_ex_5_1_blowup": "92482c8cddb955bba1b487171990495a73bee3eca2890ee769f0681740b9fef2",
    "blowup_ex_6_1": "a64fd0a7708697ef3f502bc9f89228e2936febb4ceb451c76ae6e264c87355bf",
    "blowup_ex_2_6_rescaled": "344da82b1930703b91239d9b8975f5bdf512e85b1ee0aac534f0e9db795334eb",
}

# json.dumps(solution_spec_for_preset(pid))
SPEC_SHA256 = {
    "ex_2_5": "5e9fffa0f1c8946b11ff184546868f2c387d19162b3cf0ba8d97d00135d994c8",
    "ex_2_6": "bd2c1887447750414885aa83510e645b528d02a98924fc69c5f23ed2308dea4f",
    "ex_3_2": "0eaa1cb4c1eb6d3384391cd42fececb01bc6146a6f654680af7fd5542069691a",
    "ex_3_10": "40c5d0afcd46f451bd2b72248671cdc25f50d916943637249549f10ce653fc48",
    "ex_3_4_smooth": "206a88c21ae63181784e63dd3482791c87ebd8a0eb628d8c2f6215f315ab618d",
    "ex_3_4_singular": "c93325e9c7b40c88337eda285b21c8bc98778a210719914160a39223b1d45e9f",
    "ex_5_1_const": "7ea55d0ed5bd35743d78513c668baa44eb92df7ef5c5e840c7b70c52f5adc202",
    "ex_5_1_blowup": "6aeedf7d8ccab230fab398b27d0b4b5e3c9d406c23fede90da943bbb67ca7435",
    "ex_6_1": "cc8112641cec123a8613fc16873fcfa4cbe529df6ff365143a8ca83a3eda9544",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _report_sha(sol) -> str:
    report = certify(sol, default_region(sol, count=2000, seed=0))
    return _sha(json.dumps(report.to_dict(), indent=2) + "\n")


def _transformed(key):
    pid, kind = key.split("/")
    sol = preset(pid)
    for tr in TRANSFORMS[kind]:
        sol = apply_transform(sol, tr)
    return sol


@pytest.mark.parametrize("key", sorted(TRANSFORMED_SHA256))
def test_transformed_report_unchanged(key):
    assert _report_sha(_transformed(key)) == TRANSFORMED_SHA256[key]


@pytest.mark.parametrize("key", sorted(WAVE_SHA256))
def test_twin_wave_report_unchanged(key):
    assert _report_sha(WAVES[key]()) == WAVE_SHA256[key]


@pytest.mark.parametrize("key", sorted(CLI_SHA256))
def test_cli_stdout_unchanged(key, capsys, tmp_path):
    for name, doc in SPEC_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main([str(tmp_path / a) if a in SPEC_FILES else a for a in CLI[key]]) == 0
    assert _sha(capsys.readouterr().out) == CLI_SHA256[key]


@pytest.mark.parametrize("pid", sorted(SPEC_SHA256))
def test_exported_spec_unchanged(pid):
    assert _sha(json.dumps(solution_spec_for_preset(pid))) == SPEC_SHA256[pid]
