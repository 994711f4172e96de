"""Benchmark configuration: results directory and report helpers."""

import json
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Write (and echo) a paper-artifact report file."""

    def write(name: str, text: str) -> None:
        path = results_dir / name
        path.write_text(text)
        sys.stdout.write(f"\n===== {name} =====\n{text}\n")

    return write


@pytest.fixture
def report_json(results_dir):
    """Write (and echo) a machine-readable JSON artifact."""

    def write(name: str, payload) -> None:
        path = results_dir / name
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n")
        sys.stdout.write(f"\n===== {name} =====\n{text}\n")

    return write
