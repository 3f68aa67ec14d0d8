"""Byte-for-byte regression test of the CLI's outputs against committed goldens.

Each case runs one `dpbandits` command at a small horizon and compares every
file it writes (and its stdout, where that is the product) with the copy
under tests/golden/.  Any change to an output byte, an eta value or a policy
label fails here.  After a deliberate output change, rewrite the goldens with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from dpbandits.cli import main

GOLDEN = Path(__file__).parent / "golden"

_RUN = ("--runs", "2", "--workers", "1")
_RUN_FILES = ("per_run.csv", "aggregate.csv", "privacy.csv", "summary.txt")

#: case name -> (argv, files the command writes under --out, keep stdout)
CASES = {
    "paper-fig3": (["run", "--preset", "paper-fig3", "--T", "2000", *_RUN], _RUN_FILES, False),
    "paper-fig4": (["run", "--preset", "paper-fig4", "--T", "2000", *_RUN], _RUN_FILES, False),
    # paper-fig5 pre-pulls b=2000 per arm, so T must be at least 2001 * 5
    "paper-fig5": (["run", "--preset", "paper-fig5", "--T", "12000", *_RUN], _RUN_FILES, False),
    "all-policies": (
        ["run", "--policies", "dp-ts-ucb,m-ts-gaussian,ts-gaussian,ucb1",
         "--alpha", "0,1", "--T", "2000", *_RUN],
        _RUN_FILES,
        False,
    ),
    # K=12 dp-ts-ucb: at alpha 0.5 and 1 the live sets shrink from all twelve
    # arms to few or none and grow again as epochs close
    "dp-ts-ucb-k12": (
        ["run", "--policies", "dp-ts-ucb", "--alpha", "0,0.5,1", "--T", "3000",
         "--means", "0.9,0.85,0.8,0.75,0.7,0.65,0.6,0.55,0.5,0.45,0.4,0.35", *_RUN],
        _RUN_FILES,
        False,
    ),
    "privacy": (
        ["privacy", "--policies", "dp-ts-ucb,ts-gaussian,m-ts-gaussian,ucb1",
         "--alpha", "0,0.5,1", "--T", "100000"],
        ("privacy.csv",),
        True,
    ),
    "verify": (["verify", "--trials", "10000"], (), True),
}


def _produce(case: str, out: Path) -> dict[str, bytes]:
    """Run one case into `out`; returns its output files (and stdout) by name."""
    argv, files, keep_stdout = CASES[case]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*argv, "--out", str(out)] if files else argv)
    assert code == 0, f"{case}: exit code {code}"
    produced = {name: (out / name).read_bytes() for name in files}
    if keep_stdout:
        produced["stdout.txt"] = buffer.getvalue().encode()
    return produced


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_goldens_byte_for_byte(case, tmp_path):
    produced = _produce(case, tmp_path)
    for name, data in produced.items():
        expected = (GOLDEN / case / name).read_bytes()
        assert data == expected, f"{case}/{name} differs from its golden"


def _regenerate() -> None:
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            produced = _produce(case, Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for name, data in produced.items():
            (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
