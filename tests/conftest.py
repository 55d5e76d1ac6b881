from __future__ import annotations

from pathlib import Path

import pytest

from kickcast.annotations import GameAnnotations, filter_classes, parse_annotations
from kickcast.config import BenchConfig
from kickcast.fileio import config_to_doc, dump_json
from kickcast.windowing import EvalClip, make_eval_clips

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "fixtures" / "annotations"
SCHEMA_DIR = REPO_ROOT / "schemas"


@pytest.fixture(scope="session")
def fixture_paths() -> list[Path]:
    paths = sorted(FIXTURE_DIR.glob("*.json"))
    assert len(paths) == 3, "expected the three shipped fixture games"
    return paths


@pytest.fixture(scope="session")
def raw_corpus(fixture_paths: list[Path]) -> list[GameAnnotations]:
    return [parse_annotations(p) for p in fixture_paths]


@pytest.fixture(scope="session")
def corpus(raw_corpus: list[GameAnnotations]) -> list[GameAnnotations]:
    return [filter_classes(g) for g in raw_corpus]


@pytest.fixture(scope="session")
def cfg() -> BenchConfig:
    return BenchConfig()


@pytest.fixture(scope="session")
def eval_clips(corpus: list[GameAnnotations], cfg: BenchConfig) -> list[EvalClip]:
    return [clip for game in corpus for clip in make_eval_clips(game, cfg)]


def loss_check_doc() -> dict:
    """A one-clip loss-check document: q-act, every slot an unpaired negative."""
    cfg = BenchConfig()
    C = cfg.num_classes
    return {
        "format": "kickcast-loss-check",
        "version": 1,
        "config": config_to_doc(cfg),
        "clips": [
            {
                "id": "demo",
                "variant": "q-act",
                "outputs": [
                    {"actionness": 0.5, "class_probs": [0.1] * C, "time_raw": -1.0}
                ]
                * cfg.queries,
                "slots": [
                    {
                        "gt_index": None,
                        "actionness": 0.0,
                        "class_index": None,
                        "class_multihot": None,
                        "time": None,
                    }
                ]
                * cfg.queries,
            }
        ],
    }


@pytest.fixture()
def check_file(tmp_path: Path) -> Path:
    path = tmp_path / "check.json"
    path.write_text(dump_json(loss_check_doc()))
    return path
