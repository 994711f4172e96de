"""Every checked-in artifact a test or a CI step reads is really checked in.

``benchmarks/results/`` used to be git-ignored wholesale, with the pinned
artifacts force-added one by one; two that the docs called "checked in"
never were, so a clean clone failed twelve validator tests and two CI
steps.  This pins the rule: a ``benchmarks/results/`` path named in
``tests/scripts/`` or ``.github/workflows/ci.yml`` is visible to
``git ls-files``, unless the CI job that reads it also writes it.
"""

import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
RESULTS = "benchmarks/results"

#: Written by an earlier step of the same CI job (``bench_obs.py``'s
#: overhead test), then validated and uploaded: scratch, not pinned.
WRITTEN_BY_ITS_CI_JOB = {f"{RESULTS}/telemetry_overhead.json"}


def tracked_files():
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=REPO, capture_output=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return set(listing.stdout.decode().split("\0"))


def named_artifacts():
    named = set()
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    named.update(re.findall(rf"{RESULTS}/[\w.-]+", workflow))
    for test_file in (REPO / "tests" / "scripts").glob("*.py"):
        source = test_file.read_text()
        named.update(
            f"{RESULTS}/{name}" for name in re.findall(r'RESULTS / "([\w.-]+)"', source)
        )
    return named - WRITTEN_BY_ITS_CI_JOB


def test_the_scan_finds_the_known_artifacts():
    # Guard the guard: an empty scan would pass the check below vacuously.
    assert {f"{RESULTS}/fleet.json", f"{RESULTS}/scenarios.json"} <= named_artifacts()


def test_named_artifacts_are_tracked():
    missing = sorted(named_artifacts() - tracked_files())
    assert not missing, (
        "named as checked-in artifacts but not tracked by git "
        f"(is .gitignore hiding them?): {missing}"
    )


def test_make_clean_spares_tracked_artifacts():
    clean = (REPO / "Makefile").read_text().split("\nclean:")[1]
    assert not re.search(rf"rm\b.*{RESULTS}", clean), (
        "`make clean` must not rm the directory that holds tracked artifacts"
    )
