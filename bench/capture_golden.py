"""Capture the golden CLI outputs that cli_corpus compares against.

Run from the repository root:  python3 bench/capture_golden.py

Every call of ``cli_corpus.calls()`` runs in a cold process; its stdout (and
stderr, when the call is a domain error) is written to ``bench/golden/``
with the exit code in ``exit_codes.json``.  The accepted calls must exit 0
and the wild.json calls 3, or nothing is written.

The precision probe is not captured: its expected output is the default
``wd corpus/kummer_tate.json`` text with the ring line naming the probe's
precision and window, since the exact results must not depend on them.
"""

from __future__ import annotations

import json
import sys

from cli_corpus import GOLDEN, PRECISION_PROBE, calls
from harness import run_child

DEFAULT_RING = b"ring: p=5 precision=20 window=[-32,32] mode=laurent"
PROBE_RING = b"ring: p=5 precision=500 window=[-64,64] mode=laurent"


def main():
    captured = {}
    for cid, argv, _defect in calls():
        if cid == PRECISION_PROBE:
            continue
        proc = run_child(["-m", "phinabla.cli", *argv])
        want = 3 if ".wild." in cid else 0
        if proc.returncode != want:
            sys.exit(f"{cid}: exit {proc.returncode}, expected {want}\n"
                     + proc.stderr.decode(errors="replace"))
        captured[cid] = proc
    base = captured["wd.kummer_tate.text"].stdout
    if base.count(DEFAULT_RING) != 1:
        sys.exit("unexpected ring line in wd.kummer_tate.text")
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for cid, proc in captured.items():
        (GOLDEN / f"{cid}.stdout").write_bytes(proc.stdout)
        if proc.stderr:
            (GOLDEN / f"{cid}.stderr").write_bytes(proc.stderr)
        codes[cid] = proc.returncode
    (GOLDEN / f"{PRECISION_PROBE}.stdout").write_bytes(
        base.replace(DEFAULT_RING, PROBE_RING))
    codes[PRECISION_PROBE] = 0
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} expected outputs to {GOLDEN}")


if __name__ == "__main__":
    main()
