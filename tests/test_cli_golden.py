"""Every benchmarked CLI call, in process, against the golden capture.

Each id in bench/golden/exit_codes.json is <subcommand>.<stem>.<mode>; mode
is text, json (--json) or precision500 (--precision 500 --t-window 64).
The exit code, stdout and stderr must match the capture byte for byte.
The capture is read, never written.
"""

import json
import pathlib

import pytest

from phinabla.cli import main


ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"
MODES = {"text": [], "json": ["--json"],
         "precision500": ["--precision", "500", "--t-window", "64"]}
CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("cid", sorted(CODES))
def test_cli_matches_golden(cid, capsys, monkeypatch):
    sub, stem, mode = cid.split(".")
    # the capture ran from the repository root with relative paths, which
    # unlabelled inputs echo back
    monkeypatch.chdir(ROOT)
    code = main(MODES[mode] + [sub, f"corpus/{stem}.json"])
    out, err = capsys.readouterr()
    expected_err = GOLDEN / f"{cid}.stderr"
    assert code == CODES[cid]
    assert out.encode() == (GOLDEN / f"{cid}.stdout").read_bytes()
    assert err.encode() == (expected_err.read_bytes()
                            if expected_err.exists() else b"")
