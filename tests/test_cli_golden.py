"""Every benchmarked CLI call, in process, against the golden capture.

Each id in bench/golden/exit_codes.json is <subcommand>.<stem>.<mode>; mode
is text, json (--json) or precision500 (--precision 500 --t-window 64).
The exit code, stdout and stderr must match the capture byte for byte.
The capture is read, never written.  The analyze and wd calls also pin how
often each reads a residue and the Jordan structure of its matrix R.
"""

import json
import pathlib

import pytest

from phinabla import extraction, modules
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


# (_residue, _jordan_blocks) calls: one residue record per module, the
# input and, at cover degree 2, its pullback.  analyze reads the record of
# its input from the extraction, and R's Jordan structure once per record
# it asks of it: the input's semisimplicity and, through the log depths,
# the pullback's.  The wild refusals stop before any Jordan structure.
STAGES = {"half_twist": {"analyze": (2, 2), "wd": (2, 1)},
          "wild": {"analyze": (1, 0), "wd": (1, 0)}}


@pytest.mark.parametrize("cid", sorted(
    c for c in CODES if c.split(".")[0] in ("analyze", "wd")))
def test_golden_call_reads_each_residue_once(cid, capsys, monkeypatch):
    sub, stem, mode = cid.split(".")
    counts = {"_residue": 0, "_jordan_blocks": 0}
    for module, name in ((modules, "_residue"), (extraction, "_residue"),
                         (modules, "_jordan_blocks")):
        def counted(*args, fn=getattr(module, name), name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    monkeypatch.chdir(ROOT)
    assert main(MODES[mode] + [sub, f"corpus/{stem}.json"]) == CODES[cid]
    capsys.readouterr()
    assert (counts["_residue"], counts["_jordan_blocks"]) == STAGES.get(
        stem, {}).get(sub, (1, 1))
