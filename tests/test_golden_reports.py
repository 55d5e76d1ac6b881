"""Report bytes pinned across commits: ``evaluate`` on the fixture baselines.

The digests were recorded before the evaluator was rewritten to rank each
class once, so they tie every later evaluator to the same bytes, not only to
itself (acceptance 8 checks repeat runs of one build).
"""

from __future__ import annotations

import hashlib

import pytest

from kickcast.cli import main

from conftest import FIXTURE_DIR

#: ``baseline --seed 42`` arguments per kind, and the sha256 of the report in
#: each format.
GOLDEN = {
    "oracle": (
        ["--noise-std", "1.0", "--drop-prob", "0.1"],
        {
            "json": "8f000a59cb0f7a634079064293f61553a8591c837632cba34979f3c70fef375a",
            "csv": "8e38f0c772ddc609d6e06f3fac3f2c0eff1955a0a6444e777ab6f9ab04486319",
            "md": "d231003e039f12ef880aa6bea1e6db745b1c56969afca7bf82f05c73a0003eff",
        },
    ),
    "prior": (
        [],
        {
            "json": "bd049a10d334c9410bbbf2aa6d3196549307056dfade177590a38c02c2e6ffb0",
            "csv": "e54d729cb1329883930e957cc571b1d1b35735e4b3b2041f88e55534462e539c",
            "md": "6c2e2b0d15e13ae29fbdba5e5c3d802965e42c353f5157051a97ea8836c7aacd",
        },
    ),
    "random": (
        [],
        {
            "json": "b4533efacdb66372c6cc4667927ddd9148a009b235e2c4fd115f34f1b2751b0d",
            "csv": "9ba65dd5b517173703c0293aec141952eb2e373a8de86cb25d8185483cbd169b",
            "md": "c876f43345499fd5b6a93c5d9322bbf1474202c32ae58898ef36ba7670ed0348",
        },
    ),
}


@pytest.fixture(scope="module")
def clips_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "clips.json"
    assert main(["prepare", str(FIXTURE_DIR), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_report_digests(kind, clips_path):
    extra, digests = GOLDEN[kind]
    preds = clips_path.parent / f"{kind}.json"
    argv = ["baseline", str(FIXTURE_DIR), "--kind", kind, "--seed", "42", *extra]
    assert main([*argv, "--out", str(preds)]) == 0
    for fmt, want in digests.items():
        report = clips_path.parent / f"{kind}.report.{fmt}"
        evaluate = ["evaluate", "--gt", str(clips_path), "--pred", str(preds)]
        assert main([*evaluate, "--format", fmt, "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want, (kind, fmt)
