#!/usr/bin/env python3
"""Runs the end-to-end benchmark on every workload and records the results.

From the repository root:

    python3 e2ebench/collect.py --runs 10 --sets 2 --out e2ebench/results.json

For each workload it makes --runs untraced runs, each with its own seed,
and one traced run on the first seed. It writes, per workload: the "why",
the median, quartiles and spread (interquartile range over median) of
every end-to-end metric and every latency figure, the traced run's
per-layer table with the end-to-end metrics each layer metric should move,
its per-span self times, and the tracing overhead (traced value minus
untraced median). Every run's machine record is kept. --sets repeats all
of it on fresh seeds and records how far each later set's end-to-end
medians moved from the first set's, against the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def bench(args):
    out = subprocess.run(["bash", "e2ebench/run.sh"] + args, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"e2ebench {' '.join(args)} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    return lines


def run_once(workload, seed, seconds, trace):
    lines = bench(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    record = next(json.loads(l[4:]) for l in lines if l.startswith("run "))
    notes = [l for l in lines if l.startswith(("invalid run:", "check failed:"))]
    summary = json.loads(lines[-1])
    # "info <name> <value> <unit>": figures printed without a bound.
    summary["info"] = {f[1]: {"value": float(f[2]), "unit": f[3]} for f in (l.split() for l in lines if l.startswith("info "))}
    # "self <span> <total> ms over <n> spans": traced self times.
    summary["self"] = {f[1]: {"total_ms": float(f[2]), "spans": int(f[5])} for f in (l.split() for l in lines if l.startswith("self "))}
    return record, summary, notes


def collect_set(catalog, bounds, wanted, first_seed, runs, seconds):
    out = {}
    for w in catalog["workloads"]:
        if wanted and w["name"] not in wanted:
            continue
        values, records, notes = {}, [], []
        for i in range(runs):
            seed = first_seed + i
            record, summary, n = run_once(w["name"], seed, seconds, 0)
            records.append(record)
            notes += [f"seed {seed}: {x}" for x in n]
            for k, v in list(summary["metrics"].items()) + list(summary["info"].items()):
                values.setdefault(k, []).append(v["value"])
            print(f"{w['name']} seed {seed}: correct={summary['correct']} failed={summary['failed']}", file=sys.stderr)
        e2e, latency = {}, {}
        for m in catalog["end_to_end"] + catalog["latencies"]:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            entry = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            if m["name"] in bounds:
                entry["bound"] = bounds[m["name"]]
                e2e[m["name"]] = entry
            else:
                latency[m["name"]] = entry
            print(f"  {m['name']:26s} median {med:12.5g} {m['unit']:6s} spread {spread:6.3f} (bound {bounds.get(m['name'])})", file=sys.stderr)
        record, summary, n = run_once(w["name"], first_seed, seconds, 1)
        records.append(record)
        notes += [f"traced seed {first_seed}: {x}" for x in n]
        layers = {}
        for m in catalog["per_layer"]:
            entry = {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for key in ("should_move", "most_work", "little_work"):
                if key in m:
                    entry[key] = m[key]
            layers[m["name"]] = entry
        overhead = {m["name"]: layers["traced." + m["name"]]["value"] - e2e[m["name"]]["median"]
                    for m in catalog["end_to_end"]}
        overhead.update({m["name"]: layers[m["name"]]["value"] - latency[m["name"]]["median"]
                         for m in catalog["latencies"]})
        out[w["name"]] = {"why": w["why"], "end_to_end": e2e, "latencies": latency,
                          "per_layer": layers, "self_times": summary["self"],
                          "tracing_overhead": overhead, "notes": notes, "runs": records}
    return out


def agreement(catalog, sets):
    """How far each later set's median moved from the first set's, in the
    worse direction, against the metric's bound."""
    better = {m["name"]: m["better"] for m in catalog["end_to_end"]}
    out = {}
    for w, first in sets[0]["workloads"].items():
        out[w] = {}
        for name, m in first["end_to_end"].items():
            base = m["median"]
            out[w][name] = []
            for s in sets[1:]:
                later = s["workloads"][w]["end_to_end"][name]["median"]
                worse = (later - base) / base if better[name] == "lower" else (base - later) / base
                out[w][name].append({"first": base, "later": later, "worse_by": worse,
                                     "bound": m["bound"], "within": worse <= m["bound"]})
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=0, help="window length (default: run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, help="sets of --runs runs, each on fresh seeds")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    catalog = json.loads(bench(["--catalog"])[-1])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    opts.seconds = opts.seconds or spec["run_seconds"]
    wanted = [w for w in opts.workloads.split(",") if w]
    report = {"seconds": opts.seconds, "runs": opts.runs, "sets": []}
    for k in range(opts.sets):
        first = opts.first_seed + k * opts.runs
        report["sets"].append({"first_seed": first,
                               "workloads": collect_set(catalog, bounds, wanted, first, opts.runs, opts.seconds)})
    if len(report["sets"]) > 1:
        report["agreement"] = agreement(catalog, report["sets"])
    text = json.dumps(report, indent=1)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
