"""Workload cli_corpus: one cold ``python -m phinabla.cli`` process per call.

This is what a user pays per answer: interpreter start, imports (including
the lazy sympy import on the first eigen-weight) and one computation.  The
calls are every (subcommand, corpus file) pair the CLI accepts, in text and
``--json``, the two ``wild.json`` domain errors, and one probe of the known
``--precision 500`` defect.  Each call's exit code, stdout and stderr are
compared byte for byte with the golden capture in ``golden/``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from harness import Op, run_child

GOLDEN = Path(__file__).resolve().parent / "golden"

ACCEPTED = {
    "analyze": ("constant_trivial", "good_elliptic_h1", "half_twist",
                "kummer_tate"),
    "wd": ("constant_trivial", "good_elliptic_h1", "half_twist",
           "kummer_tate"),
    "reduction": ("bad_reduction", "good_elliptic", "tate_abelian"),
    "excision": ("open_tate_curve", "proper_tate_curve"),
    "compat": ("family_tate",),
}
DOMAIN_ERRORS = ("analyze", "wd")     # on corpus/wild.json, exit 3
PRECISION_PROBE = "wd.kummer_tate.precision500"
PRECISION_DEFECT = ("--precision 500 exits 1 with an OverflowError "
                    "traceback (PadicNumber.to_fraction takes a float "
                    "square root)")


def calls():
    """(id, argv, defect) for every call of one pass."""
    out = []
    for sub, stems in ACCEPTED.items():
        for stem in stems:
            path = f"corpus/{stem}.json"
            out.append((f"{sub}.{stem}.text", [sub, path], None))
            out.append((f"{sub}.{stem}.json", ["--json", sub, path], None))
    for sub in DOMAIN_ERRORS:
        out.append((f"{sub}.wild.text", [sub, "corpus/wild.json"], None))
    out.append((PRECISION_PROBE,
                ["--precision", "500", "--t-window", "64", "wd",
                 "corpus/kummer_tate.json"], PRECISION_DEFECT))
    return out


def expected_outputs():
    """id -> (exit code, stdout bytes, stderr bytes) from the capture."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out = {}
    for cid, _argv, _defect in calls():
        err = GOLDEN / f"{cid}.stderr"
        out[cid] = (codes[cid], (GOLDEN / f"{cid}.stdout").read_bytes(),
                    err.read_bytes() if err.exists() else b"")
    return out


def _cold(argv):
    proc = run_child(["-m", "phinabla.cli", *argv])
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    """The same call through ``phinabla.cli.main`` in this process; used by
    the traced run, whose spans must come from this process."""
    from phinabla import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def build(seed, in_process=False, expected=None):
    expected = expected_outputs() if expected is None else expected
    runner = _in_process if in_process else _cold
    ops = []
    for cid, argv, defect in calls():
        want = expected[cid]
        ops.append(Op(cid, cid.split(".")[0],
                      lambda argv=argv: runner(argv),
                      lambda got, want=want: tuple(got) == want, defect))
    return ops


def warmup(ops, in_process=False):
    if in_process:
        for sub in ("analyze", "reduction", "excision", "compat"):
            op = next(o for o in ops if o.stage == sub)
            op.run()
    else:
        run_child(["-m", "phinabla.cli", "--version"])


def named_metrics(ops, medians, stages, p50, p90):
    n = len(medians)
    return [("cli_p50_s", p50, "s", f"median of {n} per-call medians"),
            ("cli_p90_s", p90, "s", f"90th percentile of {n}")]
