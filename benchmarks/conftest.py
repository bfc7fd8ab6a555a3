"""Shared fixtures for the benchmark harness.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper (see DESIGN.md §4 for the experiment index).  Datasets are built
once per session; each benchmark writes the regenerated series to
``<results_dir>/<experiment>.txt`` so the numbers survive the
pytest-benchmark timing table, and the perf benchmarks write their
``BENCH_PR<n>.json`` reports into ``bench_dir``.

Artifact gate: only with ``REPRO_BENCH_WRITE=1`` do those directories
point at the committed ``benchmarks/results/`` and the repo root.
Otherwise both are pytest tmp dirs, so a plain test run leaves the
checkout untouched; every schema check still runs on the tmp copies.

Scale knob: set ``REPRO_BENCH_SCALE=paper`` to run the TUS-like lake at
published scale (slow — intended for a full reproduction run, not CI).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro.bench.injection import remove_homographs
from repro.bench.synthetic import generate_sb
from repro.bench.tus import TUSConfig, generate_tus

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def sb():
    return generate_sb()


@pytest.fixture(scope="session")
def tus():
    if bench_scale() == "paper":
        return generate_tus(TUSConfig.paper())
    return generate_tus()


@pytest.fixture(scope="session")
def tus_clean(tus):
    """TUS-I base: the TUS-like lake with all homographs removed."""
    lake, groups = remove_homographs(tus)
    return lake, groups


def writes_artifacts() -> bool:
    """Whether this run may rewrite the committed benchmark artifacts."""
    return os.environ.get("REPRO_BENCH_WRITE") == "1"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Where :func:`write_result` files go (see the artifact gate)."""
    if not writes_artifacts():
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory) -> Path:
    """Where the ``BENCH_PR<n>.json`` reports go (see the artifact gate).

    The tmp dir starts with copies of the committed reports, so
    section merges and read-backs see what they would at the root.
    """
    if writes_artifacts():
        return REPO_ROOT
    directory = tmp_path_factory.mktemp("bench")
    for report in REPO_ROOT.glob("BENCH_*.json"):
        shutil.copy(report, directory / report.name)
    return directory


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's regenerated series."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
