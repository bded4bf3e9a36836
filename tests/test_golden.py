"""Byte-identity of every canonical output.

Runs each ``configs/*.cfg`` in process (the two rate studies also with
``--gate``, which adds keys to ``summary.txt``) plus ``selftest``, and
compares the SHA-256 of every output file with ``golden_digests.json``.
A mismatch means a change altered what the tool writes.  After a deliberate
output change, re-record with ``python tests/test_golden.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mvsde.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments (without ``--out``)."""
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        kind = path.stem.split("_", 1)[0]
        cases[path.stem] = [kind, "--config", str(path)]
    for name in ("rate_mf_ou", "rate_osgood"):
        cases[f"{name}+gate"] = [*cases[name], "--gate"]
    cases["selftest"] = ["selftest"]
    return cases


CASES = _cases()


def _digests(argv: list[str], out: Path) -> dict[str, str]:
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, tmp_path, capsys):
    expected = json.loads(DIGESTS.read_text())[case]
    assert _digests(CASES[case], tmp_path / "out") == expected


def test_every_canonical_config_is_covered():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = {case: _digests(argv, Path(tmp) / case) for case, argv in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
