#!/usr/bin/env python3
"""The repository benchmark: one command that builds the measuring program,
runs a named workload of the serial engine, checks its outputs and prints
every metric by name and unit.

    python3 perfbench/run.py --workload static_range --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (measured with tracing off);
--trace 1 additionally makes the traced run, the audit-derived and the
layer-isolation measurements and prints the per-layer metrics instead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. NOTES.md describes workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "asf_perfbench")

WORKLOADS = ("static_range", "churn_range", "knn_lossy")
# The oracle must find no violation on these in the audit run.
ZERO_VIOLATION_WORKLOADS = ("static_range", "churn_range")
# Maintenance is charged per physical message on the multi-query workload.
PHYSICAL_MAINTENANCE_WORKLOADS = ("churn_range",)
# These change what the engine or its old harnesses do behind the
# benchmark's back (ASF_DISPATCH silently overrides the `auto` policy).
FORBIDDEN_ENV = ("ASF_DISPATCH", "REPRO_SCALE", "REPRO_JOBS")
# Every measuring process must have ended this long after the start.
TIME_LIMIT_S = 170

END_TO_END = {
    "updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "maint_msgs_per_kupd": "msgs/kupd",
}

PER_LAYER = {
    "stream.floor_updates_per_s": "1/s",
    "engine.gap": "ratio",
    "engine.construct_s": "s",
    "engine.deploy_s": "s",
    "engine.churn_expand_s": "s",
    "engine.run_s": "s",
    "engine.handler_s": "s",
    "engine.handler_ns_per_upd": "ns",
    "engine.non_update_s": "s",
    "engine.assembly_s": "s",
    "engine.queries": "count",
    "engine.peak_live": "count",
    "engine.sharing_saving_frac": "ratio",
    "filter.dispatch_s": "s",
    "filter.index_rebuild_s": "s",
    "filter.scan_dispatches": "count",
    "filter.index_dispatches": "count",
    "filter.index_rebuilds": "count",
    "filter.max_stream_rebuilds": "count",
    "filter.crossings_per_upd": "ratio",
    "filter.lifecycle_us": "us",
    "protocol.select_holders_us": "us",
    "protocol.updates_reported": "count",
    "protocol.probes": "count",
    "protocol.deploys": "count",
    "protocol.reinits": "count",
    "net.flush_s": "s",
    "net.wire_msgs": "count",
    "net.crossings": "count",
    "net.lost_frac": "ratio",
    "net.deploy_retx": "count",
    "net.probe_retx": "count",
    "net.probe_failovers": "count",
    "net.staleness_mean": "simtime",
    "net.in_flight_at_end": "count",
    "storage.spill_io_s": "s",
    "storage.records": "count",
    "storage.spilled_bytes": "bytes",
    "storage.resident_bytes": "bytes",
    "tolerance.oracle_checks": "count",
    "tolerance.viol_frac": "ratio",
    "obs.other_frac": "ratio",
    "obs.trace_overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------- building

def build():
    """Configures (once) and builds the measuring program in Release."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "asf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def measure(mode, workload, seed, scale, *extra, deadline=None):
    """Runs one mode of the measuring program; returns its parsed output."""
    cmd = [BINARY, mode, "--workload=" + workload, "--seed=%d" % seed,
           "--scale=%r" % scale, *extra]
    timeout = None if deadline is None else deadline - time.monotonic()
    if timeout is not None and timeout <= 0:
        raise BenchError("out of time before %s" % mode)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out" % mode) from exc
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (mode, proc.returncode, proc.stderr.strip()))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["provenance"].get("build_type") != "Release":
        raise BenchError("refusing a non-Release build")
    return out


# --------------------------------------------------------------- checks

def net_conserved(net):
    """The NetStats crossing-conservation invariant (net/network_model.h)."""
    return net["crossings"] == (
        net["delivered_crossings"] + net["dropped_loss"] +
        net["dropped_partition"] + net["dropped_retired"] +
        net["in_flight_crossings_at_end"])


def check_outputs(workload, timed, audit, trace=None):
    """Checks every run's outputs against the first timed run of the same
    replica. Each run (timed, audit, traced) is one op; returns
    (attempted, list of failure descriptions)."""
    references = {}
    failures = []

    def matches(label, replica, run):
        reference = references.setdefault(replica, run)
        for part in ("totals", "net"):
            if run[part] != reference[part]:
                diff = sorted(k for k in run[part]
                              if run[part][k] != reference[part].get(k))
                failures.append("%s: %s differ from replica %d's first "
                                "timed run in %s" % (label, part, replica,
                                                     diff))
                return False
        return True

    for i, entry in enumerate(timed["iterations"]):
        label = "timed iteration %d" % i
        run = entry["run"]
        if not matches(label, entry["replica"], run):
            continue
        if run["totals"]["updates_generated"] == 0:
            failures.append(label + ": no updates generated")
        elif workload == "knn_lossy" and not net_conserved(run["net"]):
            failures.append(label + ": crossing conservation violated")
    attempted = len(timed["iterations"]) + 1

    if matches("audit", 0, audit["run"]):
        if audit["oracle_checks"] == 0:
            failures.append("audit: the oracle made no checks")
        elif (workload in ZERO_VIOLATION_WORKLOADS and
              audit["oracle_violations"] != 0):
            failures.append("audit: %d oracle violations" %
                            audit["oracle_violations"])

    if trace is not None:
        attempted += 2
        run = trace["run"]
        if (matches("traced run", 0, run) and trace["stream_updates"] <
                run["totals"]["updates_generated"]):
            failures.append("traced run: the timed source saw fewer updates "
                            "than the engine counted")
        matches("profiled run", 0, trace["profiled_run"])
    return attempted, failures


# -------------------------------------------------------------- metrics

def replica_medians(timed):
    """{replica: (totals, median wall seconds of its timed runs)}."""
    runs = {}
    for entry in timed["iterations"]:
        runs.setdefault(entry["replica"], []).append(entry["run"])
    return {j: (rs[0]["totals"], statistics.median(r["total_s"] for r in rs))
            for j, rs in runs.items()}


def maintenance(workload, totals):
    if workload in PHYSICAL_MAINTENANCE_WORKLOADS:
        return totals["maint_physical"]
    return totals["maint_logical"]


def end_to_end_metrics(workload, timed):
    replicas = replica_medians(timed).values()
    updates = sum(totals["updates_generated"] for totals, _ in replicas)
    return {
        "updates_per_s": updates / sum(wall for _, wall in replicas),
        "setup_s": statistics.median(timed["setup_samples"]),
        "peak_rss_mb": timed["peak_rss_kib"] / 1024.0,
        "maint_msgs_per_kupd":
            1000.0 * sum(maintenance(workload, totals)
                         for totals, _ in replicas) / updates,
    }


def per_layer_metrics(timed, trace, audit, probe):
    it = trace["run"]
    totals, net, phases = it["totals"], it["net"], trace["phases"]
    floor = trace["floor_updates_per_s"]
    untraced_wall = replica_medians(timed)[0][1]
    untraced_ups = totals["updates_generated"] / untraced_wall
    stream_updates = trace["stream_updates"]
    # Time the stream generator and event kernel alone would need for this
    # run's value changes; what the run spent beyond it and the handler is
    # lifecycle, timer and delivery work (or, without those, the error of
    # the split).
    floor_s = stream_updates / floor
    crossings = net["crossings"]
    logical_updates = totals["maint_updates"]
    checks, violations = audit["oracle_checks"], audit["oracle_violations"]
    return {
        "stream.floor_updates_per_s": floor,
        "engine.gap": floor / untraced_ups,
        "engine.construct_s": it["construct_s"],
        "engine.deploy_s": it["deploy_s"],
        "engine.churn_expand_s": it["churn_expand_s"],
        "engine.run_s": it["run_s"],
        "engine.handler_s": trace["handler_s"],
        "engine.handler_ns_per_upd": 1e9 * trace["handler_s"] / stream_updates,
        "engine.non_update_s": it["run_s"] - trace["handler_s"] - floor_s,
        "engine.assembly_s": it["assembly_s"],
        "engine.queries": totals["queries"],
        "engine.peak_live": totals["peak_live"],
        "engine.sharing_saving_frac":
            1.0 - totals["physical_updates"] / logical_updates
            if logical_updates else 0.0,
        "filter.dispatch_s": phases["dispatch"],
        "filter.index_rebuild_s": phases["index_rebuild"],
        "filter.scan_dispatches": trace["dispatch"]["scan_dispatches"],
        "filter.index_dispatches": trace["dispatch"]["index_dispatches"],
        "filter.index_rebuilds": trace["dispatch"]["index_rebuilds"],
        "filter.max_stream_rebuilds":
            trace["dispatch"]["max_stream_rebuilds"],
        "filter.crossings_per_upd": crossings / totals["updates_generated"],
        "filter.lifecycle_us": probe["lifecycle_us"],
        "protocol.select_holders_us": probe["select_holders_us"],
        "protocol.updates_reported": totals["updates_reported"],
        "protocol.probes": totals["maint_probes"],
        "protocol.deploys": totals["maint_deploys"],
        "protocol.reinits": totals["reinits"],
        "net.flush_s": phases["net_flush"],
        "net.wire_msgs": net["update_messages"] + net["deploy_messages"],
        "net.crossings": crossings,
        "net.lost_frac":
            (net["dropped_loss"] + net["dropped_partition"]) / crossings
            if crossings else 0.0,
        "net.deploy_retx": net["deploy_retransmits"],
        "net.probe_retx": net["probe_retransmits"],
        "net.probe_failovers": net["probe_failovers"],
        "net.staleness_mean": net["staleness_mean"],
        "net.in_flight_at_end": net["in_flight_at_end"],
        "storage.spill_io_s": phases["spill_io"],
        "storage.records": trace["spill"]["records_spilled"],
        "storage.spilled_bytes": trace["spill"]["spilled_bytes"],
        "storage.resident_bytes": trace["spill"]["resident_bytes"],
        "tolerance.oracle_checks": checks,
        "tolerance.viol_frac": violations / checks if checks else 0.0,
        "obs.other_frac": phases["other"] / sum(phases.values()),
        "obs.trace_overhead":
            trace["profiled_run"]["total_s"] / untraced_wall,
    }


def chrome_trace(trace, probe):
    """The benchmark-side spans of the traced run and the probes, in the
    Chrome trace-event format (load in chrome://tracing or Perfetto)."""
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": 1e6 * s["start_s"], "dur": 1e6 * s["dur_s"]}
              for s in trace["spans"]]
    start = 0.0
    for name, dur in probe["probe_seconds"].items():
        events.append({"name": "probe." + name, "ph": "X", "pid": 1,
                       "tid": 2, "ts": 1e6 * start, "dur": 1e6 * dur})
        start += dur
    return {"traceEvents": events}


# ------------------------------------------------------------------ run

def run(args, deadline):
    """Runs one benchmark invocation; returns (result, extra outputs)."""
    spill_dir = os.path.join(ROOT, ".bench_build", "spill",
                             "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(spill_dir, exist_ok=True)
    try:
        spill = "--spill-dir=" + spill_dir
        common = (args.workload, args.seed, args.scale)
        timed_out = measure("timed", *common, "--seconds=%r" % args.seconds,
                            spill, deadline=deadline)
        timed = timed_out["result"]
        audit = measure("audit", *common, deadline=deadline)["result"]
        trace = probe = None
        if args.trace:
            trace = measure("trace", *common, spill,
                            deadline=deadline)["result"]
            probe = measure("probe", *common, deadline=deadline)["result"]
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    attempted, failures = check_outputs(args.workload, timed, audit, trace)
    if args.trace:
        metrics, units = per_layer_metrics(timed, trace, audit, probe), \
            PER_LAYER
    else:
        metrics, units = end_to_end_metrics(args.workload, timed), END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    provenance = dict(timed_out["provenance"])
    provenance["iterations"] = len(timed["iterations"])
    extra = {"failures": failures, "provenance": provenance}
    if trace is not None:
        extra["chrome_trace"] = chrome_trace(trace, probe)
    return result, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shortens the simulated horizon; the benchmark's own tests use it.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or not 0 < args.scale <= 1:
        parser.error("--seed and --seconds must be >= 0, --scale in (0, 1]")
    return args


def main(argv):
    args = parse_args(argv)
    bad_env = [name for name in FORBIDDEN_ENV if name in os.environ]
    if bad_env:
        log("perfbench: unset %s first" % ", ".join(bad_env))
        return 2
    try:
        build()
        result, extra = run(args, time.monotonic() + TIME_LIMIT_S)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        log("perfbench: %s" % exc)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    if "chrome_trace" in extra:
        with open(os.path.join(out_dir, tag + ".trace.json"), "w") as f:
            json.dump(extra.pop("chrome_trace"), f)
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(dict(extra, result=result), f, indent=1)

    print("perfbench %s seed %d trace %d" %
          (args.workload, args.seed, args.trace))
    print("provenance " + json.dumps(extra["provenance"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print("  %-30s %18.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in extra["failures"]:
        print("  FAILED " + failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
