"""CLI artifacts on the shipped configs, byte for byte against recorded copies.

``tests/data/<config>.<format>`` is what

    python -m netpublic.cli --config configs/<config>.json --out <path> --format <format>

wrote when it was recorded: JSON for every config, and CSV, the format the
shipped sweep configs ask for, for the two sweeps.  A change that should not move any answer must
leave every byte in place; a change that moves an answer on purpose
re-records the copy in the same commit and says which answer moved and why.

The k = 0.994 row of ``log_sweep.json`` is a known wrong answer: the
Independent profile it reports is not a Nash equilibrium (ROADMAP item 1,
structural best responses cannot see the deviation).  It is recorded as the
program gives it today, and the exact certificate of item 1 will re-record it.
"""

from pathlib import Path

import pytest

from netpublic import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def _artifact(name: str, fmt: str, tmp_path) -> bytes:
    out = tmp_path / f"{name}.{fmt}"
    config = ROOT / "configs" / f"{name}.json"
    assert cli.main(["--config", str(config), "--out", str(out), "--format", fmt]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", ["concave_sweep", "log_sweep", "subsidy_star"])
def test_cli_artifact_matches_recorded_copy(name, tmp_path):
    assert _artifact(name, "json", tmp_path) == (DATA / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["concave_sweep", "log_sweep"])
def test_cli_csv_artifact_matches_recorded_copy(name, tmp_path):
    assert _artifact(name, "csv", tmp_path) == (DATA / f"{name}.csv").read_bytes()
