#!/usr/bin/env python3
"""GMDF repository benchmark.

    python3 perfbench/run.py --workload query_tcp|debug_tcp|campaign \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the GMDF library from src/ plus the benchmark binary)
into .bench_build/ with CMake, runs one workload, and prints as the last
line of stdout one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, computed here from the Chrome
trace-event file the traced run writes (span self times) and the layer
counts the binary reports. Exits non-zero when the program is missing,
the build fails, or any output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gmdf_perfbench"
WORKLOADS = ("query_tcp", "debug_tcp", "campaign")

END_TO_END_UNITS = {
    "latency_p50_us": "us",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

EXECUTE_VERBS = ("info", "query_state", "query_signal", "break_list", "session_list",
                 "run", "step", "resume", "render", "trace", "rewind")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "perfbench" / "CMakeLists.txt").is_file():
        die(f"no GMDF sources to build under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not BINARY.is_file():
        die("build failed")


def span_stats(trace_path):
    """Per span name: total duration, self time and every duration, in us.

    A span's self time is its duration minus the part its direct child
    spans on the same thread cover (RAII spans on one thread nest)."""
    with open(trace_path) as f:
        doc = json.load(f)
    by_tid = defaultdict(list)
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "X":
            by_tid[ev["tid"]].append(ev)
    total = defaultdict(float)
    self_time = defaultdict(float)
    durations = defaultdict(list)
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        child = [0.0] * len(events)
        stack = []  # (end, index) of open spans
        for i, ev in enumerate(events):
            start = ev["ts"]
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack:
                child[stack[-1][1]] += ev["dur"]
            stack.append((start + ev["dur"], i))
        for i, ev in enumerate(events):
            total[ev["name"]] += ev["dur"]
            self_time[ev["name"]] += ev["dur"] - child[i]
            durations[ev["name"]].append(ev["dur"])
    return total, self_time, durations


def layer_metrics(workload, layer, trace_path):
    """Per-call costs are medians over the replayed calls (a stalled call
    moves them little); per-request, per-command and per-pair costs are
    totals divided by counts, so they add up."""
    total, self_time, durations = span_stats(trace_path)

    def c(name):
        return float(layer.get(name, 0.0))

    def div(a, b):
        return a / b if b else 0.0

    def median_us(span):
        return statistics.median(durations[span]) if durations[span] else 0.0

    m = {}
    m["net.loop_us_per_req"] = (div(total["net.poll_once"], c("net.requests")), "us")
    m["net.poll_calls_per_req"] = (div(len(durations["net.poll_once"]), c("net.requests")),
                                   "count")
    m["net.bytes_per_req"] = (div(c("net.bytes"), c("net.requests_total")), "B")
    m["net.codec_ns_per_req"] = (median_us("net.codec") * 1e3, "ns")
    # Client-observed time the server was not busy on: syscalls, wake-ups
    # and queueing behind the other connections.
    residue = total["client.op"] - total["net.poll_once"]
    m["net.residue_us_per_req"] = (div(residue, c("net.requests")), "us")
    m["proto.parse_ns_per_req"] = (median_us("proto.parse") * 1e3, "ns")
    m["proto.format_ns_per_req"] = (median_us("proto.format") * 1e3, "ns")
    for verb in EXECUTE_VERBS:
        m[f"hub.execute_us.{verb}"] = (median_us(f"hub.execute:{verb}"), "us")
    per_replay = div(c("obs.requests"), len(durations["obs.replay_on"]))
    obs_delta = median_us("obs.replay_on") - median_us("obs.replay_off")
    m["obs.overhead_ns_per_req"] = (div(obs_delta * 1e3, per_replay), "ns")
    m["hub.pump_us_per_sim_ms"] = (div(total["hub.pump"], c("hub.sim_ms")), "us/ms")
    m["hub.slices_per_op"] = (div(c("hub.slices"), c("hub.ops")), "count")
    m["hub.steals_per_op"] = (div(c("hub.steals"), c("hub.ops")), "count")
    m["rt.run_us_per_sim_ms"] = (div(total["rt.run_for"], c("rt.sim_ms")), "us/ms")
    m["rt.uart_bytes_per_sim_ms"] = (div(c("rt.uart_bytes"), c("rt.sim_ms")), "B/ms")
    m["link.encode_ns_per_cmd"] = (div(total["link.encode"] * 1e3, c("link.cmds")), "ns")
    m["link.decode_ns_per_cmd"] = (div(total["link.decode"] * 1e3, c("link.cmds")), "ns")
    m["link.cmds_per_op"] = (c("link.cmds_per_op"), "count")
    m["core.ingest_ns_per_cmd"] = (div(total["core.ingest"] * 1e3, c("link.cmds")), "ns")
    m["replay.capture_us"] = (median_us("replay.capture"), "us")
    m["replay.snapshot_bytes"] = (div(c("replay.snapshot_bytes"), c("replay.captures")), "B")
    m["replay.rewind_us"] = (median_us("replay.rewind"), "us")
    pairs = c("campaign.pairs")
    m["replay.bisect_us_per_pair"] = (div(total["replay.bisect"], pairs), "us")
    m["replay.bisect_probes_per_pair"] = (div(c("bisect.probes"), pairs), "count")
    m["replay.diff_us_per_pair"] = (div(total["replay.diff"], pairs), "us")
    m["campaign.generate_us_per_pair"] = (median_us("campaign.generate"), "us")
    m["campaign.make_us_per_pair"] = (div(total["campaign.make"], pairs), "us")
    m["tail.latency_p90_us"] = (c("tail.latency_p90_us"), "us")
    m["tail.latency_p99_us"] = (c("tail.latency_p99_us"), "us")
    m["tail.samples"] = (c("tail.samples"), "count")
    # End-to-end time of the traced ops that no layer span accounts for.
    if workload == "campaign":
        unattributed = div(self_time["campaign.batch"], total["campaign.batch"])
    else:
        unattributed = div(residue, total["client.op"])
    m["budget.unattributed_pct"] = (100.0 * unattributed, "%")
    overhead = div(c("traced.p50_us") - c("untraced.p50_us"), c("untraced.p50_us"))
    m["budget.trace_overhead_pct"] = (100.0 * overhead, "%")
    return m


def source_digest():
    """Hash of the sources the binary is built from."""
    h = hashlib.sha256()
    files = [p for base in (ROOT / "src", ROOT / "perfbench")
             for p in sorted(base.rglob("*")) if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt")]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_across_runs(workload, seed, per_op, correct):
    """Per-op counts of one (workload, seed) must repeat in every run of
    the same sources. The first correct run with counts sets them."""
    path = (ROOT / ".bench_build" / "perfbench-counts" / source_digest() /
            f"{workload}-seed{seed}.json")
    if path.is_file():
        with open(path) as f:
            previous = json.load(f)
        if previous != per_op:
            return f"per-op counts drifted from an earlier run: {previous} -> {per_op}"
        return None
    if not correct or not per_op:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(per_op, f, sort_keys=True)
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("benchmark binary timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"benchmark binary printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    correct = bool(raw["correct"]) and proc.returncode == 0
    drift = check_counts_across_runs(args.workload, args.seed, raw["per_op"], correct)
    if drift:
        print(f"FAIL: {drift}", file=sys.stderr)
        correct = False

    if args.trace:
        trace_path = Path(raw["trace"])
        metrics = layer_metrics(args.workload, raw["layer"], trace_path)
        print(f"trace: {trace_path.relative_to(ROOT)} (Chrome trace-event JSON)")
        if raw["layer"].get("trace.dropped", 0) > 0:
            print(f"FAIL: the span rings dropped {raw['layer']['trace.dropped']:.0f} spans",
                  file=sys.stderr)
            correct = False
    else:
        metrics = {name: (raw["metrics"][name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
