"""cosmolint over this repository, with the CI lint job's arguments.

The lint job runs ``python -m repro.lint src benchmarks examples`` cold,
then warm from the cache, then once more as SARIF; these tests hold what
those runs must show.
"""

import json
import re
from pathlib import Path

import pytest

from repro.lint import validate_sarif
from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[2]
PATHS = ["src", "benchmarks", "examples"]


@pytest.fixture
def at_repo_root(monkeypatch):
    # The checked-in baseline and the reported paths are root-relative.
    monkeypatch.chdir(REPO)


def test_warm_repo_run_is_byte_identical_and_cache_served(at_repo_root, tmp_path,
                                                          capsys):
    argv = ["--cache", str(tmp_path / "cache.json"), "--cache-stats", *PATHS]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    stats = re.search(r"cosmolint cache: (\d+) hit\(s\), (\d+) miss\(es\)", warm.err)
    assert stats is not None
    hits, misses = map(int, stats.groups())
    assert hits > 0
    assert misses == 0


def test_repo_sarif_report_validates(at_repo_root, capsys):
    assert main(["--sarif", "--no-cache", *PATHS]) == 0
    log = validate_sarif(json.loads(capsys.readouterr().out))
    assert log["runs"][0]["properties"]["filesChecked"] > 0
