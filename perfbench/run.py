#!/usr/bin/env python3
"""The repository benchmark: host cost and modelled service of the simulator.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

Workloads: devpoll-scan, idle-fleet, smp-sharded (see perfbench/README.md).

The first call builds perfbench/CMakeLists.txt (the simulator sources in
src/ plus two harness binaries) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. Each repetition is one process running one simulated world.

--trace 0 prints the end-to-end metrics. Host times are medians over every
repetition. The modelled metrics pool the first K repetitions, which use K
distinct sub-seeds derived from --seed. Repetitions continue, cycling over
the same sub-seeds, until --seconds have passed. A repeated sub-seed must
reproduce its digest exactly.

--trace 1 runs untraced/traced pairs on the same sub-seed and prints the
per-layer metrics. These are exact counters, host self time per layer, the
tracing overhead, and how much of the traced wall time the layers cover.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is non-zero when a correctness check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Distinct sub-seeds pooled into the modelled metrics, per workload. Chosen
# so the pooled p99 rests on >= 24k samples and stays steady across seeds.
POOL = {"devpoll-scan": 8, "idle-fleet": 12, "smp-sharded": 12}

LAYERS = ["sim", "kernel", "core", "net", "http", "servers", "load", "smp"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "host_cpu_s": "s",
    "peak_rss_mb": "MB",
    "reply_rate": "replies/s",
    "conn_median_ms": "ms",
    "conn_p99_ms": "ms",
}

# Exact counters and virtual times the harness reads from public stats.
EXACT_UNITS = {
    "sim.events": "count",
    "kernel.syscalls": "count",
    "kernel.busy_virtual_ms": "ms",
    "core.devpoll.interests_scanned": "count",
    "core.devpoll.driver_calls": "count",
    "core.devpoll.cached_ready_rechecks": "count",
    "core.epoll.events_delivered": "count",
    "core.wait_virtual_ms": "ms",
    "net.packets_delivered": "count",
    "net.interrupt_virtual_ms": "ms",
    "servers.loop_iterations": "count",
    "servers.accepts": "count",
    "servers.sweep_virtual_ms": "ms",
    "smp.context_switches": "count",
    "mem.fd_table_bytes": "bytes",
    "mem.conns_bytes": "bytes",
    "mem.interests_bytes": "bytes",
    "mem.ledger_bytes_per_conn": "bytes",
    "mem.rss_bytes_per_conn": "bytes",
}

PER_LAYER_UNITS = dict(EXACT_UNITS)
PER_LAYER_UNITS.update({
    "sim.ns_per_event": "ns",
    "kernel.charge_calls": "count",
    "kernel.fd_get_calls": "count",
    "sim.advance_calls": "count",
    "smp.host_sys_s": "s",
    "smp.voluntary_switches": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
})
for _layer in LAYERS:
    PER_LAYER_UNITS[_layer + ".self_ms"] = "ms"
    PER_LAYER_UNITS[_layer + ".calls"] = "count"

# Repetitions stop being started once this much time has passed, so a run
# always exits well inside the 180 s limit.
START_DEADLINE_S = 140.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(targets):
    """Configures (once) and builds the named harness binaries. Returns their
    directory."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line for line in f if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != BENCH_DIR:
            os.remove(cache)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out


def sub_seed(seed, index, pool):
    return seed * 64 + index % pool


def pin_to_one_cpu():
    """Runs a repetition on one host CPU. The SMP plane passes a baton between
    real threads and only the holder runs, so one CPU is all the process can
    use; left free, each handoff waited for an idle CPU to wake, and identical
    smp-sharded work took 2.4-11.5 s of wall time. Pinned, wall tracks CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})


def run_rep(bin_dir, binary, workload, seed, small, timeout):
    cmd = [os.path.join(bin_dir, binary), "--workload", workload, "--seed", str(seed)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, preexec_fn=pin_to_one_cpu)
    lines = proc.stdout.strip().splitlines()
    rep = json.loads(lines[-1]) if lines else None
    if rep is None:
        raise RuntimeError(f"{binary} printed no result (exit {proc.returncode}): {proc.stderr}")
    rep["exit_code"] = proc.returncode
    rep["stderr"] = proc.stderr.strip()
    return rep


def quantile(sorted_values, p):
    """Linear-interpolated p-th percentile (same rule as PercentileTracker)."""
    if not sorted_values:
        return float("nan")
    k = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)

    def rep(self, rep, label):
        self.expect(rep["exit_code"] == 0, f"{label}: exit code {rep['exit_code']} {rep['stderr']}")
        for name, ok in rep["checks"].items():
            self.expect(ok, f"{label}: check {name} failed")


def measure(args, bin_dir, trace):
    """Runs the repetitions; returns (metrics, attempted, failed, checks, info).
    attempted and failed count the requests of one repetition per sub-seed."""
    workload = args.workload
    pool = 2 if args.small else POOL[workload]
    checks = Checks()
    start = time.monotonic()
    reps = []        # untraced repetitions, in order
    traced = []      # (untraced, traced) pairs in trace mode
    digests = {}     # sub-seed -> digest
    index = 0
    while True:
        elapsed = time.monotonic() - start
        needed = index < (2 if trace else pool)
        if not needed and (elapsed >= args.seconds or elapsed >= START_DEADLINE_S):
            break
        seed = sub_seed(args.seed, index, pool)
        timeout = max(10.0, 175.0 - elapsed)
        rep = run_rep(bin_dir, "perfbench", workload, seed, args.small, timeout)
        checks.rep(rep, f"seed {seed}")
        if seed in digests:
            checks.expect(digests[seed] == rep["digest"],
                          f"seed {seed}: digest {rep['digest']} != {digests[seed]} on rerun")
        digests.setdefault(seed, rep["digest"])
        reps.append(rep)
        if trace:
            tr = run_rep(bin_dir, "perfbench_traced", workload, seed, args.small, timeout)
            checks.rep(tr, f"seed {seed} traced")
            checks.expect(tr["digest"] == rep["digest"],
                          f"seed {seed}: traced digest {tr['digest']} != {rep['digest']}")
            traced.append((rep, tr))
        index += 1

    distinct = reps[:pool]  # one repetition per sub-seed
    attempted = sum(r["model"]["attempted"] for r in distinct)
    failed = sum(r["model"]["errors"] + r["model"]["pending"] for r in distinct)
    host = lambda key: statistics.median(r["host"][key] for r in reps)
    info = {"reps": len(reps), "pool": len(distinct), "digests": digests}

    if not trace:
        samples = sorted(x for r in distinct for x in r["model"]["conn_ms"])
        window_ok = sum(r["model"]["window_ok"] for r in distinct)
        window_s = sum(r["model"]["window_s"] for r in distinct)
        metrics = {
            "setup_s": host("setup_s"),
            "wall_s": host("wall_s"),
            "host_cpu_s": host("host_cpu_s"),
            "peak_rss_mb": host("peak_rss_mb"),
            "reply_rate": window_ok / window_s,
            "conn_median_ms": quantile(samples, 50.0),
            "conn_p99_ms": quantile(samples, 99.0),
        }
        info["samples"] = len(samples)
        info["error_pct"] = 100.0 * failed / attempted if attempted else float("nan")
        return metrics, attempted, failed, checks, info

    metrics = {}
    for name in EXACT_UNITS:
        metrics[name] = statistics.median(r["layer"][name] for r in reps)
    metrics["sim.ns_per_event"] = statistics.median(
        r["host"]["wall_s"] * 1e9 / max(1.0, r["layer"]["sim.events"]) for r in reps)
    metrics["smp.host_sys_s"] = host("host_sys_s")
    metrics["smp.voluntary_switches"] = host("voluntary_switches")
    t_med = lambda f: statistics.median(f(tr["trace"]) for _, tr in traced)
    for layer in LAYERS:
        metrics[layer + ".self_ms"] = t_med(lambda t: t["layers"][layer]["self_ms"])
        metrics[layer + ".calls"] = t_med(lambda t: t["layers"][layer]["calls"])
    metrics["kernel.charge_calls"] = t_med(lambda t: t["boundaries"]["SimKernel::Charge"])
    metrics["kernel.fd_get_calls"] = t_med(lambda t: t["boundaries"]["FdTable::Get"])
    metrics["sim.advance_calls"] = t_med(lambda t: t["boundaries"]["Simulator::AdvanceTo"])
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
        tr["host"]["wall_s"] / rep["host"]["wall_s"] for rep, tr in traced) - 1.0)
    # Share of the traced wall time, net of the calibrated span cost, that the
    # layers' self times account for.
    metrics["trace.coverage_pct"] = t_med(
        lambda t: 100.0 * sum(t["layers"][l]["self_ms"] for l in LAYERS) /
        (t["window_ms"] - t["overhead_ms"]))

    # The traced run's boundary counts must match the untraced exact counters.
    for rep, tr in traced:
        b = tr["trace"]["boundaries"]
        layer = rep["layer"]
        checks.expect(b["DevPollDevice::IoctlDpPoll"] == layer["core.devpoll.polls"],
                      "traced IoctlDpPoll calls != devpoll.polls")
        checks.expect(b["EpollDevice::Wait"] == layer["core.epoll.waits"],
                      "traced EpollDevice::Wait calls != epoll.waits")
        checks.expect(tr["trace"]["dropped_spans"] == 0, "span stack overflowed")
    info["traced_pairs"] = len(traced)
    info["bench_self_ms"] = t_med(lambda t: t["layers"]["bench"]["self_ms"])
    return metrics, attempted, failed, checks, info


def print_summary(args, trace, metrics, units, attempted, failed, info):
    mode = "traced pairs" if trace else "repetitions"
    count = info.get("traced_pairs", info["reps"])
    print(f"== perfbench {args.workload} seed={args.seed}: {count} {mode}, "
          f"{info['pool']} distinct sub-seeds")
    print("   load: open-loop Poisson in virtual time; the generator is never late")
    for name, value in metrics.items():
        print(f"   {name:<36} {value:>18.6f} {units[name]}")
    if not trace:
        print(f"   conn_p99_ms over {info['samples']} samples "
              f"({int(info['samples'] * 0.01)} beyond it)")
        print(f"   error_pct {info['error_pct']:.4f} % ({failed} of {attempted} failed: "
              "timeout, refused, reset, no-port or pending)")
    else:
        print(f"   bench (unattributed) self_ms {info['bench_self_ms']:.3f}")
    for seed, digest in sorted(info["digests"].items()):
        print(f"   digest seed={seed} {digest}")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def self_check(bin_dir):
    """Runs every workload small, in both modes; every declared metric must be
    printed with its unit and be finite."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0, small=True)
            metrics, attempted, failed, checks, _ = measure(args, bin_dir, trace)
            units = END_TO_END_UNITS if trace == 0 else PER_LAYER_UNITS
            out = json.loads(result_line(not checks.failures, attempted, failed, metrics, units))
            problems += [f"{workload}: {p}" for p in checks.failures]
            for m in declared[key]:
                got = out["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{workload}: {m['name']} not printed")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
                elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {m['name']} = {got['value']} is not finite")
            extra = set(out["metrics"]) - {m["name"] for m in declared[key]}
            if extra:
                problems.append(f"{workload}: undeclared metrics {sorted(extra)}")
            print(f"self-check {workload} trace={trace}: {len(out['metrics'])} metrics")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(POOL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload small and validate the metric set")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    args.small = False

    # The traced binary is only built when it is needed, so a trace-0 run never
    # depends on the wrapped link.
    targets = ["perfbench"]
    if args.self_check or args.trace == 1:
        targets.append("perfbench_traced")
    try:
        bin_dir = build(targets)
    except (RuntimeError, OSError) as err:
        log(f"perfbench: {err}")
        return 1
    if args.self_check:
        return self_check(bin_dir)

    trace = args.trace == 1
    try:
        metrics, attempted, failed, checks, info = measure(args, bin_dir, trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print_summary(args, trace, metrics, units, attempted, failed, info)
    for failure in checks.failures:
        print("CHECK FAILED: " + failure)
    print(result_line(not checks.failures, attempted, failed, metrics, units))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
