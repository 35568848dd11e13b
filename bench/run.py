"""phinabla benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and each workload module for why):
cli_corpus, extract_scaling, wd_fraction.  Each is a closed loop of one
client in one process with no threads; the seed generates the inputs.

--trace 0 measures the end-to-end metrics: after set-up (cold import in a
fresh interpreter, input build, warm-up; done SETUP_REPEATS times and the
median reported) it runs whole passes over the workload's operations for
--seconds, timing each operation and checking its output outside the
timed region.  Each operation's time is its median across the passes;
op_geomean_s is their geometric mean, op_p90_s their 90th percentile and
pass_s their sum.  These timings are in reference seconds (see harness): wall
time scaled by the host's speed measured around each operation; the wall
times are printed too.

--trace 1 measures the per-layer metrics: one untraced pass, one traced
pass (spans written to .bench_out/), the layer microbenchmarks and two
cold-interpreter timings.  cli_corpus runs its calls in process here,
since spans can only be recorded in this process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An operation that probes a named known
defect may fail without making the run incorrect; it still counts in
failed.  Lines before it name the workload's own metrics and the machine.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

import harness
from harness import ROOT, SRC

WORKLOADS = ("cli_corpus", "extract_scaling", "wd_fraction")
CLI_IMPORT = ("import time; t = time.perf_counter(); import phinabla.cli; "
              "print(time.perf_counter() - t)")
FIRST_WEIGHTS = (
    "import time; from phinabla.weil_deligne import purity_check, "
    "special_rep; rep = special_rep(5); t = time.perf_counter(); "
    "purity_check(rep, 0); print(time.perf_counter() - t)")
CHILD_REPEATS = 3


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def import_program():
    """Import phinabla from this checkout's src/, never from elsewhere."""
    if not (SRC / "phinabla" / "__init__.py").is_file():
        fail(f"no phinabla sources under {SRC}")
    if not (ROOT / "corpus").is_dir():
        fail(f"no corpus directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    import phinabla
    if not Path(phinabla.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"phinabla imported from {phinabla.__file__}, not {SRC}")


def workload_hooks(module, seed, in_process):
    if module.__name__ == "cli_corpus":
        return (lambda: module.build(seed, in_process),
                lambda ops: module.warmup(ops, in_process))
    return lambda: module.build(seed), module.warmup


def pin_to_one_cpu():
    """Keep this process and the CLI children it starts on one CPU, the
    one the calibration runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_median(code):
    return statistics.median(harness.child_seconds(code)
                             for _ in range(CHILD_REPEATS))


def untraced(module, args):
    cold = module.__name__ == "cli_corpus"
    probe = harness.SpeedProbe(in_op=not cold)
    ops, setup_s, wall_setup_s = harness.timed_setup(
        *workload_hooks(module, args.seed, in_process=False), probe)
    tally = harness.measure(ops, args.seconds, random.Random(args.seed),
                            probe)
    medians = harness.op_medians(tally.times)
    wall = harness.op_medians(tally.wall)
    print(f"wall time: pass {sum(wall.values()):.6g} s, setup "
          f"{wall_setup_s:.6g} s; calibration median "
          f"{statistics.median(probe.samples) * 1e3:.4g} ms over "
          f"{len(probe.samples)} samples, reference "
          f"{harness.CALIBRATION_REF_S * 1e3:g} ms")
    times = list(medians.values())
    p50 = harness.percentile(times, 50)
    p90 = harness.percentile(times, 90)
    stages = harness.stage_seconds(ops, medians)
    rss = harness.peak_rss_mb(children=cold)
    named = module.named_metrics(ops, medians, stages, p50, p90) + [
        ("failed_frac", tally.failed / tally.attempted, "1",
         f"{tally.failed} of {tally.attempted} operations"),
        ("setup_s", setup_s, "s",
         f"median of {harness.SETUP_REPEATS} set-ups"),
        ("peak_rss_mb", rss, "MB",
         "largest CLI child" if cold else "this process"),
    ]
    print(f"passes: {tally.passes}, operations per pass: {len(ops)}")
    for name, value, unit, note in named:
        print(f"{name} = {value:.6g} {unit}  ({note})")
    metrics = {"op_geomean_s": harness.geomean(times), "op_p90_s": p90,
               "pass_s": sum(times),
               "setup_s": setup_s, "peak_rss_mb": rss}
    return tally, metrics


def traced(module, args):
    from microbench import padic, series
    from tracer import Tracer

    probe = harness.SpeedProbe(in_op=False)
    ops, _setup_s, _wall_s = harness.timed_setup(
        *workload_hooks(module, args.seed, in_process=True), probe)
    tally = harness.Tally()
    untraced_s = harness.run_pass(ops, tally, probe=probe)
    tracer = Tracer()
    traced_s = harness.run_pass(ops, tally, tracer, probe)
    metrics = tracer.layer_metrics()
    metrics.update(padic(args.seed))
    metrics.update(series(args.seed))
    metrics["cli.import_s"] = child_median(CLI_IMPORT)
    metrics["weil_deligne.first_weights_s"] = child_median(FIRST_WEIGHTS)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    origin = min((s[2] for s in tracer.spans), default=0.0)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "fields": ["op", "span", "start_s", "end_s", "parent"],
        "spans": [[op, key, start - origin, end - origin, parent]
                  for op, key, start, end, parent in tracer.spans]}))
    print(f"untraced pass {untraced_s:.6g} s, traced pass {traced_s:.6g} s "
          f"(reference seconds), "
          f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec, units = load_spec()
    import_program()
    os.chdir(ROOT)
    pin_to_one_cpu()
    module = importlib.import_module(args.workload)
    print("machine:", json.dumps(harness.machine_info(), sort_keys=True))
    tally, metrics = (traced if args.trace else untraced)(module, args)
    for (name, defect, detail), count in Counter(tally.failures).items():
        note = f"  [known defect: {defect}]" if defect else ""
        print(f"FAILED {name} x{count}: {detail}{note}")
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        raise SystemExit(f"metric set differs from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")
    harness.emit(not tally.unexpected_failures, tally,
                 {name: metrics[name] for name in wanted}, units)


if __name__ == "__main__":
    main()
