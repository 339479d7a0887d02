#!/usr/bin/env python3
"""Stability harness, smoke check and comparison for propeller_bench.

Usually invoked through run.sh, which builds the binary first:

  run.sh --check
      Every workload in BENCHMARK.json, scaled down (--smoke, ~2 s of
      measurement), end-to-end and traced.  Fails when a run fails or a
      metric BENCHMARK.json names is missing.

  run.sh --repeat N [--seed S | --seed-sweep] [--trace 0|1] [--out FILE]
      N runs of every workload in BENCHMARK.json at its run_seconds,
      alternating the workload order between rounds.  Prints median and
      quartiles per metric, and the spread
      (q3 - q1) / median against the metric's bound.  With one seed the
      simulated-time metrics must be bit-identical across repeats; with
      --seed-sweep round i uses seed i.  --out appends every run as one
      JSON line.

  harness.py --compare BASE.jsonl CHANGE.jsonl
      Per workload and end-to-end metric: both medians, and whether the
      change is worse than the base by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# End-to-end metrics computed from simulated time: deterministic per seed.
SIM_METRICS = ("search_p50_ms", "search_p99_ms", "update_mean_ms")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "exit": proc.returncode, "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def check(binary):
    spec = load_spec()
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = run_once(binary, w["name"], 1, 2, trace, smoke=True)
            res = run["result"] or {}
            missing = [m["name"] for m in spec[key]
                       if m["name"] not in res.get("metrics", {})]
            ok = run["exit"] == 0 and res.get("correct") is True and not missing
            print(f"{w['name']:12s} trace={trace} exit={run['exit']} "
                  f"correct={res.get('correct')} attempted={res.get('attempted')} "
                  f"failed={res.get('failed')} missing={missing or '-'} "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append((w["name"], trace, run["stderr"]))
    for name, trace, err in failures:
        print(f"--- {name} trace={trace} stderr ---\n{err}", file=sys.stderr)
    return 1 if failures else 0


def repeat(binary, args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    runs = {n: [] for n in names}
    out = open(args.out, "a") if args.out else None
    for i in range(args.repeat):
        seed = i + 1 if args.seed_sweep else args.seed
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            run = run_once(binary, name, seed, seconds, args.trace)
            res = run["result"]
            status = "ok" if run["exit"] == 0 and res and res["correct"] else "FAIL"
            print(f"round {i + 1} {name} seed {seed}: {status}", flush=True)
            if out:
                out.write(json.dumps(run) + "\n")
                out.flush()
            runs[name].append(run)
    bad = False
    for name in names:
        good = [r["result"] for r in runs[name]
                if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        bad |= len(good) != len(runs[name])
        print(f"\n{name}: {len(good)}/{len(runs[name])} runs correct")
        if len(good) < 2:
            continue
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in good]
            q1, med, q3, rel = spread(vals)
            line = (f"  {m['name']:34s} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {100 * rel:6.2f}%")
            if "bound" in m:
                line += f"  bound {100 * m['bound']:.1f}%"
                if m["name"] != "setup_s" and rel > m["bound"] / 3:
                    line += "  SPREAD > bound/3"
            print(line)
            if not args.seed_sweep and m["name"] in SIM_METRICS and len(set(vals)) > 1:
                print(f"  {m['name']}: NOT bit-identical across repeats of seed {args.seed}")
                bad = True
    return 1 if bad else 0


def compare(base_path, change_path):
    spec = load_spec()

    def read(path):
        by = {}
        with open(path) as f:
            for line in f:
                run = json.loads(line)
                res = run["result"]
                if run["trace"] == 0 and run["exit"] == 0 and res and res["correct"]:
                    by.setdefault(run["workload"], []).append(res["metrics"])
        return by

    base, change = read(base_path), read(change_path)
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in change:
            print(f"{name}: missing runs")
            worse = True
            continue
        print(name)
        for m in spec["end_to_end"]:
            b = statistics.median(r[m["name"]]["value"] for r in base[name])
            c = statistics.median(r[m["name"]]["value"] for r in change[name])
            delta = (c - b) / b if b else 0.0
            regressed = delta > m["bound"] if m["better"] == "lower" else -delta > m["bound"]
            worse |= regressed
            print(f"  {m['name']:16s} base {b:<12.6g} change {c:<12.6g} "
                  f"{100 * delta:+7.2f}%  bound {100 * m['bound']:.1f}%"
                  f"{'  REGRESSION' if regressed else ''}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--binary")
    p.add_argument("--check", action="store_true")
    p.add_argument("--repeat", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seed-sweep", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.binary:
        p.error("--binary is required (run through run.sh)")
    if args.check:
        return check(args.binary)
    if args.repeat:
        return repeat(args.binary, args)
    p.error("one of --check, --repeat or --compare is required")


if __name__ == "__main__":
    sys.exit(main())
