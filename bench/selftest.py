"""Self-test of the benchmark itself.

Run from the repository root:  python3 bench/selftest.py

1. On each workload, a tampered expected value turns a passing operation
   into a failed one, so failed_frac rises.
2. Each workload, untraced and traced, prints a result line of the
   required shape carrying every metric named in BENCHMARK.json with the
   unit named there.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness
from harness import ROOT
from run import WORKLOADS, import_program, load_spec


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def failed_frac(ops, names):
    tally = harness.Tally()
    harness.run_pass([op for op in ops if op.name in names], tally)
    return tally.failed / tally.attempted


def tamper_cli_corpus():
    import cli_corpus

    target = "wd.kummer_tate.json"
    names = (target, "compat.family_tate.text")
    expected = cli_corpus.expected_outputs()
    code, out, err = expected[target]
    tampered = dict(expected)
    tampered[target] = (code, out.replace(b'"5"', b'"7"'), err)
    clean = failed_frac(cli_corpus.build(0, True), names)
    dirty = failed_frac(cli_corpus.build(0, True, tampered), names)
    check(clean == 0 and dirty == 0.5,
          f"cli_corpus: tampered golden stdout raises failed_frac "
          f"{clean} -> {dirty}")


def tamper_extract_scaling():
    import extract_scaling
    from phinabla.weil_deligne import twist

    names = ("wd_extract[half_twist]", "wd_extract[kt]")
    clean = failed_frac(extract_scaling.build(0), names)
    original = extract_scaling.references

    def tampered_refs(q=5):
        refs = original(q)
        refs["kt"] = twist(refs["kt"], 1)
        return refs

    extract_scaling.references = tampered_refs
    try:
        dirty = failed_frac(extract_scaling.build(0), names)
    finally:
        extract_scaling.references = original
    check(clean == 0 and dirty == 0.5,
          f"extract_scaling: tampered reference trace table raises "
          f"failed_frac {clean} -> {dirty}")


def tamper_wd_fraction():
    import wd_fraction

    ops = wd_fraction.build(0)
    names = [op.name for op in ops if op.stage == "weights"]
    clean = failed_frac(ops, names)
    original = wd_fraction._oracle_weights
    wd_fraction._oracle_weights = lambda factors: [
        w + 1 for w in original(factors)]
    try:
        dirty = failed_frac(wd_fraction.build(0), names)
    finally:
        wd_fraction._oracle_weights = original
    check(clean == 0 and dirty == 1,
          f"wd_fraction: tampered oracle weights raise failed_frac "
          f"{clean} -> {dirty}")


def emitted_metrics(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            check(proc.returncode == 0,
                  f"{workload} --trace {trace} exits 0")
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"]
                  and result["attempted"] >= 1 and result["correct"]
                  and got == units
                  and all(isinstance(m["value"], (int, float))
                          for m in result["metrics"].values()),
                  f"{workload} --trace {trace} emits all {len(units)} "
                  f"{section} metrics with their units")


def main():
    spec, _units = load_spec()
    import_program()
    os.chdir(ROOT)
    tamper_cli_corpus()
    tamper_extract_scaling()
    tamper_wd_fraction()
    emitted_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
