"""Canonical output bytes pinned across commits.

The report digests were recorded before the evaluator was rewritten to rank
each class once; the ``prepare``, ``targets``, ``baseline`` and
``loss-check`` digests were recorded before the readers were folded into
one strictly typed path, the multi-variant ``loss-check`` digest before the
losses shared one binary cross-entropy and one class-weight lookup, and the
dense ``evaluate`` digest before ``Prediction`` became a tuple and ranking
dropped its key function.  So they tie every later build to the same bytes,
not only to itself (acceptance 8 checks repeat runs of one build).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import asdict

import pytest

from kickcast.annotations import CLASS_INDEX
from kickcast.cli import main
from kickcast.config import BenchConfig
from kickcast.fileio import (
    config_to_doc,
    dump_json,
    read_eval_clips,
    targets_to_doc,
    write_predictions,
)
from kickcast.losses import SlotOutput
from kickcast.metrics import decode_predictions
from kickcast.targets import HEADS, HeadVariant, assign_for_variant
from kickcast.windowing import make_train_clips, segmentation_targets

from conftest import FIXTURE_DIR

#: ``baseline --seed 42`` arguments per kind, the sha256 of its predictions
#: file, and the sha256 of the report in each format.
GOLDEN = {
    "oracle": (
        ["--noise-std", "1.0", "--drop-prob", "0.1"],
        "0f5be5c17ab2c515d6e4ceb9959a373fc6f83a0a8677c7a3dd741ea2466616e1",
        {
            "json": "8f000a59cb0f7a634079064293f61553a8591c837632cba34979f3c70fef375a",
            "csv": "8e38f0c772ddc609d6e06f3fac3f2c0eff1955a0a6444e777ab6f9ab04486319",
            "md": "d231003e039f12ef880aa6bea1e6db745b1c56969afca7bf82f05c73a0003eff",
        },
    ),
    "prior": (
        [],
        "54810452fa6034ee56f5eb844165d21f6639ad6ed537d4fb1575d47c4063f3ff",
        {
            "json": "bd049a10d334c9410bbbf2aa6d3196549307056dfade177590a38c02c2e6ffb0",
            "csv": "e54d729cb1329883930e957cc571b1d1b35735e4b3b2041f88e55534462e539c",
            "md": "6c2e2b0d15e13ae29fbdba5e5c3d802965e42c353f5157051a97ea8836c7aacd",
        },
    ),
    "random": (
        [],
        "7f860480b6737366a723391a334db8a109cf52ca40388ec8adb9e42288f80a6b",
        {
            "json": "b4533efacdb66372c6cc4667927ddd9148a009b235e2c4fd115f34f1b2751b0d",
            "csv": "9ba65dd5b517173703c0293aec141952eb2e373a8de86cb25d8185483cbd169b",
            "md": "c876f43345499fd5b6a93c5d9322bbf1474202c32ae58898ef36ba7670ed0348",
        },
    ),
}

#: sha256 of ``prepare --ta T`` on the fixture annotations, by T.
PREPARE = {
    "5": "2f03d0a446c8e48754d5d167af924a06047f74e55e7b85dc43418485de3a4c27",
    "10": "3e9b5496c9f0103d7d784210b30d3f24b46b8a1aa0ebcafa0617728af323ed45",
}

#: sha256 of ``targets --variant V --ta T --split train`` on the fixture
#: annotations, by (V, T).  The train split alone keeps the suite fast.
TARGETS = {
    ("q-act", "5"): "6b30f38ec105535ffca9e1013c937f67815746afdbfb1fcc3b9b1e5611ce58db",
    ("q-act", "10"): "5ab4cde05022560b2c1fab9c26f94b5e0514e13a4b24a97a412297b9598bebb3",
    ("q-eos", "5"): "7a9a1313acf33b959836eeffa052c7f6e6305014272751fb1376c77b11a8e4dc",
    ("q-eos", "10"): "f0b2ca9c89fd71beae252782f04c9b53345e27dc7f931fa252471e87759fdfd8",
    ("q-bckg", "5"): "193c79d2727a075c957aad0a2798b5236bedb4dac822ed2956b073a622d8f660",
    ("q-bckg", "10"): "f87de17fb618bd4c0df7ba779caee4bcb1e99219c6ea7b9bba6ee059b70a3801",
    ("q-bce", "5"): "eb2e462157ea3455b5787579cfeb3e3d5455e4b38e7fd7430518fedfe8b83808",
    ("q-bce", "10"): "f42426b0aebc6e732555473bbe33c0cc2cb5f2c7275a439b958f3dd7311eb8e6",
    ("anchors", "5"): "097fd74629819f39c944beef2d86105c74fc61970e166960bb5fb52cd0113fed",
    ("anchors", "10"): "f1533b0115d6c5b05b87e9cf84ad30c202514c537d8352c2ed08fd2c72e32621",
}

#: (command line after the annotation directory, sha256 of the file it writes).
FILES = [(["prepare", "--ta", ta], want) for ta, want in PREPARE.items()] + [
    (["targets", "--variant", variant, "--ta", ta, "--split", "train"], want)
    for (variant, ta), want in TARGETS.items()
]

#: sha256 of the ``loss-check`` report on the ``check_file`` fixture.
LOSS_REPORT = "a987ba71ad3716643bbcfa3b4cfca6735a5a847abd3cc89449792a5ad53b1de4"

#: sha256 of the ``loss-check`` report on :func:`multi_variant_loss_doc`.
MULTI_VARIANT_LOSS_REPORT = "952b28636d07d2725ef95cdf0f1f765e739bd916811022d3c22221ed70a59b2f"

#: sha256 of the ``evaluate`` json report on :func:`dense_slot_outputs` decoded
#: over the fixture test clips.
DENSE_REPORT = "ae8533a1751a578635675f1abe500ef7770baaa6e00e466f1a73d5f8ca87cb36"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def clips_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "clips.json"
    assert main(["prepare", str(FIXTURE_DIR), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_report_digests(kind, clips_path):
    extra, predictions, digests = GOLDEN[kind]
    preds = clips_path.parent / f"{kind}.json"
    argv = ["baseline", str(FIXTURE_DIR), "--kind", kind, "--seed", "42", *extra]
    assert main([*argv, "--out", str(preds)]) == 0
    assert sha256(preds) == predictions, kind
    for fmt, want in digests.items():
        report = clips_path.parent / f"{kind}.report.{fmt}"
        evaluate = ["evaluate", "--gt", str(clips_path), "--pred", str(preds)]
        assert main([*evaluate, "--format", fmt, "--out", str(report)]) == 0
        assert sha256(report) == want, (kind, fmt)


@pytest.mark.parametrize("args, want", FILES, ids=[" ".join(args) for args, _ in FILES])
def test_output_digests(args, want, tmp_path):
    command, *options = args
    out = tmp_path / "out.json"
    assert main([command, str(FIXTURE_DIR), *options, "--out", str(out)]) == 0
    assert sha256(out) == want


def test_loss_check_digest(check_file):
    out = check_file.parent / "loss.report.json"
    assert main(["loss-check", str(check_file), "--out", str(out)]) == 0
    assert sha256(out) == LOSS_REPORT


def _distribution(rng: random.Random, n: int) -> list[float]:
    raw = [rng.random() + 0.01 for _ in range(n)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def multi_variant_loss_doc(corpus) -> dict:
    """Two train clips per head variant, with class weights and segmentation.

    Slot targets come from ``assign_for_variant`` (so only 0/1 actionness and
    multi-hot targets); outputs and frame distributions from a seeded RNG.
    """
    cfg = BenchConfig()
    rng = random.Random(7)
    clips = [
        clip
        for game in corpus
        if game.split == "train"
        for clip in make_train_clips(game, cfg)
        if clip.future_actions
    ][::97]
    records = []
    for variant, clip in zip(list(HeadVariant) * 2, clips):
        width = cfg.num_classes + HEADS[variant].sentinel
        outputs = [
            SlotOutput(rng.random(), tuple(_distribution(rng, width)), -5.0 * rng.random())
            for _ in range(cfg.queries)
        ]
        assignment = assign_for_variant(variant, clip.future_actions, cfg, outputs)
        grid = segmentation_targets(clip, cfg)
        targets = targets_to_doc([(clip.clip_id, assignment)], cfg, variant)["clips"][0]
        records.append(
            {
                "id": f"{variant.value}/{clip.clip_id}",
                "variant": variant.value,
                "outputs": [asdict(o) for o in outputs],
                "slots": targets["slots"],
                "truncated": targets["truncated"],
                "segmentation": {
                    "frame_dists": [_distribution(rng, cfg.num_classes + 1) for _ in grid.labels],
                    "labels": list(grid.labels),
                },
            }
        )
    return {
        "format": "kickcast-loss-check",
        "version": 1,
        "config": config_to_doc(cfg),
        "weights": [0.5 + 0.25 * c for c in range(cfg.num_classes)],
        "clips": records,
    }


def test_multi_variant_loss_check_digest(corpus, tmp_path):
    doc = multi_variant_loss_doc(corpus)
    variants = {clip["variant"] for clip in doc["clips"]}
    assert variants == {v.value for v in HeadVariant}
    check = tmp_path / "check.json"
    check.write_text(dump_json(doc))
    out = tmp_path / "loss.report.json"
    assert main(["loss-check", str(check), "--out", str(out)]) == 0
    assert sha256(out) == MULTI_VARIANT_LOSS_REPORT


def dense_slot_outputs(rng: random.Random, clip, cfg: BenchConfig) -> list[SlotOutput]:
    """q-act outputs for one clip on coarse grids, so that confidences and times tie.

    Slot i leans towards the clip's i-th action, if any, at its time rounded
    to 0.5 s; the other slots are spread over the window.  Some slots of a
    whole window decode clamped to its end.
    """
    C = cfg.num_classes
    window = clip.window_len_s
    outs = []
    for i in range(cfg.queries):
        if i < len(clip.gt_actions):
            action = clip.gt_actions[i]
            hot = CLASS_INDEX[action.label]
            time_s = min(max(round(2 * action.offset_s) / 2, 0.5), 0.9 * window)
        else:
            hot = rng.randrange(C)
            time_s = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)) * window
        probs = [0.05] * C
        probs[hot] = 0.55
        if rng.random() < 0.25:
            probs = [0.1] * C
        time_raw = math.log(time_s / cfg.anticipation_s)
        if not clip.partial and rng.random() < 0.125:
            time_raw = 0.5
        outs.append(SlotOutput(rng.choice((0.25, 0.5, 1.0)), tuple(probs), time_raw))
    return outs


def test_dense_report_digest(tmp_path):
    clips_path = tmp_path / "clips.json"
    assert main(["prepare", str(FIXTURE_DIR), "--split", "test", "--out", str(clips_path)]) == 0
    clips, cfg = read_eval_clips(clips_path)
    rng = random.Random(23)
    preds = [
        p
        for clip in clips
        for p in decode_predictions(
            clip.clip_id, dense_slot_outputs(rng, clip, cfg), HeadVariant.Q_ACT, cfg
        )
    ]
    assert len(preds) == len(clips) * cfg.queries * cfg.num_classes
    assert any(p.time_clamped for p in preds)
    preds_path = tmp_path / "preds.json"
    write_predictions(preds_path, preds)
    report = tmp_path / "report.json"
    evaluate = ["evaluate", "--gt", str(clips_path), "--pred", str(preds_path)]
    assert main([*evaluate, "--format", "json", "--out", str(report)]) == 0
    assert sha256(report) == DENSE_REPORT
