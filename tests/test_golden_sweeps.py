"""The README "Experiments" sweeps, pinned byte for byte.

Each case runs one `maxacc sweep` in-process through `cli.run_command` and
compares its exit code, stdout, stderr and `--json` bundle (without
`provenance.timestamp`) with `tests/golden/sweeps.json`. The finite chains
run short (4 trials, horizon 20), so the whole file takes a few seconds. A
change that moves a flag, a CSV byte or an exit code on these commands shows
up here as a deliberate edit of the golden file, which this module rewrites
when run as a script:

    PYTHONPATH=src python tests/test_golden_sweeps.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from maxacc import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "sweeps.json"

SHORT = ["--trials", "4", "--horizon", "20", "--burn-in", "2", "--seed", "7"]
# Case name -> (model, sweep flags). The first six are the README loop; the
# last sweeps threestate at its default f = indicator:0.
CASES = {
    "twostate": ("twostate", ["--f", "indicator:1", *SHORT]),
    "threestate": ("threestate", ["--f", "0,1,-1", *SHORT]),
    "constant_obs": ("constant_obs", ["--f", "indicator:0", *SHORT]),
    "ks_example": ("ks_example", []),
    "ks_minimum_phase": ("ks_minimum_phase", []),
    "ks_boundary_zero": ("ks_boundary_zero", []),
    "threestate_default_f": ("threestate", SHORT),
}


def sweep(model: str, flags: list[str]) -> dict:
    """Exit code, stdout, stderr and bundle of one in-process `maxacc sweep`."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = Path(tmp) / "bundle.json"
        argv = ["sweep", "--model", str(ROOT / "models" / f"{model}.json"), *flags,
                "--json", str(bundle_path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_command(argv)
        bundle = json.loads(bundle_path.read_text())
    del bundle["provenance"]["timestamp"]
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "bundle": bundle}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_sweep_matches_golden(name, golden):
    got = sweep(*CASES[name])
    want = golden[name]
    for key in ("exit", "stdout", "stderr", "bundle"):
        assert got[key] == want[key], f"{name}: {key} differs from {GOLDEN.name}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: sweep(*case) for name, case in CASES.items()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
