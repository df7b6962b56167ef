#!/usr/bin/env python3
"""Summarize benchmark result rows and compare summaries.

    python3 perfbench/compare.py summarize <results.jsonl>... > summary.json
    python3 perfbench/compare.py diff <old summary.json> <new summary.json>

Rows are the lines the perfbench binary appends to <build>/results/results.jsonl.
A summary holds, per workload and metric, the median and quartiles over the
rows (statistics.quantiles, n=4) plus the host fingerprint they share.
`diff` refuses (exit 2) to compare summaries whose host fingerprints differ,
and exits 1 when a metric got worse than its BENCHMARK.json bound.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths):
    hosts, sources, values, units = set(), set(), {}, {}
    for path in paths:
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                info, result = row["info"], row["result"]
                if info["smoke"]:
                    continue
                hosts.add(json.dumps(info["fingerprint"]["host"], sort_keys=True))
                sources.add(json.dumps(info["fingerprint"]["source"], sort_keys=True))
                kind = "per_layer" if info["trace"] else "end_to_end"
                for name, metric in result["metrics"].items():
                    key = (info["workload"], kind, name)
                    values.setdefault(key, []).append(metric["value"])
                    units[key] = metric["unit"]
    if len(hosts) != 1:
        sys.exit(f"compare: rows span {len(hosts)} host fingerprints; summarize each apart")
    summary = {"host": json.loads(hosts.pop()),
               "source": [json.loads(s) for s in sorted(sources)], "workloads": {}}
    for (workload, kind, name), vals in sorted(values.items()):
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        entry = {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals),
                 "unit": units[(workload, kind, name)]}
        summary["workloads"].setdefault(workload, {}).setdefault(kind, {})[name] = entry
    return summary


def diff(old, new):
    if old["host"] != new["host"]:
        print("compare: host fingerprints differ; these results must not be compared",
              file=sys.stderr)
        print(json.dumps({"old": old["host"], "new": new["host"]}, indent=2), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    worse = 0
    for workload, kinds in sorted(new["workloads"].items()):
        for name, entry in kinds.get("end_to_end", {}).items():
            base = old["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if base is None or name not in spec or base["median"] == 0:
                continue
            change = entry["median"] / base["median"] - 1.0
            loss = change if spec[name]["better"] == "lower" else -change
            flag = "WORSE" if loss > spec[name]["bound"] else ""
            worse += bool(flag)
            print(f"{workload:22s} {name:15s} {base['median']:14.6g} -> {entry['median']:14.6g}"
                  f" {change:+8.2%} {flag}")
    return 1 if worse else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "summarize":
        json.dump(summarize(argv[1:]), sys.stdout, indent=1)
        print()
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        with open(argv[1]) as a, open(argv[2]) as b:
            return diff(json.load(a), json.load(b))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
