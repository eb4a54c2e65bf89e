#!/usr/bin/env python3
"""The benchmark of record: host cost of `cable_sim ratio` runs.

    python3 perfbench/run.py --workload mcf --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. It builds an optimized copy of
the simulator out of tree (perfbench/CMakeLists.txt, build directory
.bench_build/perfbench), then:

  --trace 0  runs the workload as single-threaded `cable_sim ratio`
             processes, tracing off, for --seconds seconds, and reports
             the end-to-end metrics;
  --trace 1  runs the traced program (perf_trace, perfbench/trace_run.cc)
             for --seconds seconds after one untraced run, and reports
             the per-layer metrics, the tracing overhead and closure.

Every run checks its outputs (see README.md, "Correctness gate") and
prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the metric
table and why each workload exists.
"""

import argparse
import hashlib
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(BUILD, "runs")

# Memory ops per cable_sim process; the workload-shape guards below are
# calibrated at this length.
OPS = 1_000_000
# The default seed, and one held out: a claimed gain must also hold on
# HELD_OUT_SEED, which is not used while a change is written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# The in-repo fault smoke mix (tools/CMakeLists.txt, cli.fault_injection_smoke).
FAULT_MIX = ["--fault-rate", "1e-5", "--drop-sync-rate", "1e-3",
             "--meta-rate", "1e-4"]
SETUP_REPS = 25


def share(num, den):
    return num / den if den else 0.0


def mcf_shape(c, h):
    tpo = share(c["transfers"], OPS)
    self_share = share(c["self_threshold_hits"], c["responses"])
    ok = 0.27 <= tpo <= 0.31 and 0.64 <= self_share <= 0.75
    return ok, f"transfers/op {tpo:.4f} in [0.27, 0.31], " \
               f"self-threshold share {self_share:.4f} in [0.64, 0.75]"


def omnetpp_shape(c, h):
    per_resp = share(c["searches"], c["responses"])
    sigs = h.get("sigs_per_search", 0.0)
    ok = 0.75 <= per_resp <= 0.86 and 7.0 <= sigs <= 8.8
    return ok, f"searches/response {per_resp:.4f} in [0.75, 0.86], " \
               f"signatures/search {sigs:.3f} in [7.0, 8.8]"


def faults_shape(c, h):
    rt = c.get("retransmits", 0)
    dr = c.get("desync_recoveries", 0)
    return rt > 0 and dr > 0, \
        f"retransmits {rt} > 0, desync recoveries {dr} > 0"


WORKLOADS = {
    "mcf": {"bench": "mcf", "faults": False, "shape": mcf_shape},
    "omnetpp": {"bench": "omnetpp", "faults": False,
                "shape": omnetpp_shape},
    "mcf-faults": {"bench": "mcf", "faults": True, "shape": faults_shape},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def cache_var(cache, name):
    m = re.search(rf"^{re.escape(name)}:[A-Z]+=(.*)$", cache, re.M)
    return m.group(1).strip() if m else ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for f in sorted(files):
                if f.endswith((".h", ".cc", ".def", ".txt", ".py")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Builds cable_sim and perf_trace; returns (binaries, identity)."""
    for need in ("src/CMakeLists.txt", "tools/cable_sim.cc",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise RuntimeError(f"not a source checkout: {need} missing")
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as blog:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=blog, stderr=blog)
        subprocess.run(["cmake", "--build", BUILD, "-j", "3", "--target",
                        "cable_sim_cli", "perf_trace"],
                       check=True, stdout=blog, stderr=blog)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = cache_var(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_var(cache, "CMAKE_CXX_FLAGS"),
        cache_var(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}")]))
    if build_type not in ("Release", "RelWithDebInfo") or \
            not re.search(r"-O[23s]\b", flags):
        raise RuntimeError(f"refusing an unoptimized build: "
                           f"build type '{build_type}', flags '{flags}'")
    compiler = cache_var(cache, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    identity = {
        "commit": commit.stdout.strip() if commit.returncode == 0
        else "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "compiler": version[0] if version else compiler,
        "flags": flags,
        "build_type": build_type,
    }
    bins = {"cable_sim": os.path.join(BUILD, "cable_tools", "cable_sim"),
            "perf_trace": os.path.join(BUILD, "perf_trace")}
    return bins, identity


# --------------------------------------------------------------------------
# Running and parsing
# --------------------------------------------------------------------------

def run_timed(cmd, tag):
    """Runs @cmd to completion; returns (exit code, host s, maxrss KiB,
    stdout text). Host seconds are the process's CPU time, user plus
    system: for a single-threaded process that is its wall time less
    any time it waited for a CPU, which other tenants of a shared
    machine would otherwise add. Output goes through a file, never a
    pipe, so a large report cannot stall the child."""
    out_path = os.path.join(RUNS, tag + ".out")
    with open(out_path, "w") as out, \
            open(os.path.join(RUNS, tag + ".err"), "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss, text)


def protocol_stats(text):
    """The `--- protocol stats ---` dump: (dump text, counters, means)."""
    lines = text.split("--- protocol stats ---\n", 1)
    if len(lines) != 2:
        return "", {}, {}
    body = lines[1].split("TRACE ", 1)[0]
    counters, means = {}, {}
    for line in body.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            counters[parts[0]] = int(parts[1])
        m = re.match(r"\s+(\S+) n=\d+ .*mean=(\S+)", line)
        if m:
            means[m.group(1)] = float(m.group(2))
    return body, counters, means


def sim_cmd(bins, wl, seed, ops, extra=()):
    cmd = [bins["cable_sim"], "ratio", wl["bench"], "--scheme", "cable",
           "--timing", "--ops", str(ops), "--seed", str(seed), "--stats"]
    if wl["faults"]:
        cmd += FAULT_MIX + ["--fault-seed", str(seed)]
    return cmd + list(extra)


def ratios(c):
    bit = share(c["raw_bits"], c["wire_bits"])
    wire = (c["wire_bits"] + c.get("crc_overhead_bits", 0)
            + c.get("retrans_bits", 0) + c.get("recovery_bits", 0))
    return bit, share(c["raw_bits"], wire)


class Gate:
    """Counts runs attempted and failed, and keeps failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def run(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(why)
        return ok

    def check(self, ok, why):
        if not ok:
            self.reasons.append(why)
        return ok


def fits_another(start, done, seconds):
    """True when one more repetition, at the mean length of the @done
    so far, would still end inside the @seconds measuring window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure_setup(bins, wl, seed, gate):
    times = []
    for i in range(SETUP_REPS):
        rc, host_s, _, _ = run_timed(sim_cmd(bins, wl, seed, 1),
                                     f"setup{i}")
        if gate.run(rc == 0, f"setup run exited {rc}"):
            times.append(host_s)
    return statistics.median(times) if times else 0.0


# --------------------------------------------------------------------------
# The two modes
# --------------------------------------------------------------------------

def end_to_end(bins, wl, seed, seconds, gate):
    setup_s = measure_setup(bins, wl, seed, gate)

    # Warm-up process, outside the measured window: pages the binary in
    # and exports the full-precision IPC (--metrics-out, which also
    # turns on timing histograms, so it is never a timed run).
    metrics_path = os.path.join(RUNS, "warmup.json")
    rc, _, _, text = run_timed(
        sim_cmd(bins, wl, seed, OPS, ["--metrics-out", metrics_path]),
        "warmup")
    _, warm_counters, _ = protocol_stats(text)
    sim_ipc = 0.0
    if gate.run(rc == 0, f"warm-up run exited {rc}"):
        with open(metrics_path) as f:
            sim_ipc = json.load(f)["results"]["ipc"]

    # Timed processes. The modelled caches start empty in every one:
    # users pay that warm-up on every invocation, so it stays inside
    # the timed window.
    hosts, rss, reference = [], [], None
    start = time.perf_counter()
    while len(hosts) < 3 or fits_another(start, len(hosts), seconds):
        rc, host_s, maxrss, text = run_timed(sim_cmd(bins, wl, seed, OPS),
                                             f"timed{len(hosts)}")
        hosts.append(host_s)
        rss.append(maxrss)
        if reference is None:
            reference = text
        gate.run(rc == 0 and text == reference,
                 f"timed run {len(hosts)} exited {rc} or its output "
                 "differs from the first repetition")
    _, counters, means = protocol_stats(reference)
    gate.check(bool(counters), "no protocol stats in cable_sim output")
    gate.check(all(warm_counters.get(k) == v for k, v in counters.items()),
               "warm-up counters differ from the timed runs")
    ok, shape = wl["shape"](counters, means)
    gate.check(ok, f"workload shape drifted: {shape}")
    log(f"shape: {shape}")
    log("timing: caches start empty in every process; the cold-cache "
        "warm-up is inside the timed window, as users pay it")

    # The mean over the window's processes: on a shared machine it
    # moved less from run to run than their minimum or median did.
    sim_s = statistics.fmean(hosts) - setup_s
    bit_ratio, goodput = ratios(counters)
    log(f"processes: {len(hosts)} timed x {OPS} ops, host s "
        + " ".join(f"{h:.3f}" for h in hosts) + f", setup {setup_s:.4f}")
    return {
        "ns_per_transfer": (sim_s * 1e9 / counters["transfers"], "ns"),
        "ops_per_s": (OPS / sim_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
        "bit_ratio": (bit_ratio, "x"),
        "goodput_ratio": (goodput, "x"),
        "sim_ipc": (sim_ipc, "IPC"),
    }


LAYER_UNITS = {
    "sim.step_ns.p50": "ns", "sim.step_ns.p99": "ns",
    "sim.link_util": "frac", "sim.self_ns_per_op": "ns",
    "workload.ns_per_op": "ns", "cache.ns_per_op": "ns",
    "cache.llc_miss_per_op": "count",
    "core.fetch_ns.p50": "ns", "core.fetch_ns.p99": "ns",
    "core.writeback_ns.p50": "ns", "core.writeback_ns.p99": "ns",
    "core.sync_ns": "ns", "core.upgrades": "count",
    "core.remote_evictions": "count",
    "compress.encode_ns": "ns", "compress.decode_ns": "ns",
    "compress.frame_ns": "ns", "compress.unframe_ns": "ns",
    "compress.wire_bits_per_line": "bits",
    "compress.self_only_frac": "frac", "compress.raw_frac": "frac",
    "core.arq.retransmits": "count", "core.arq.raw_fallbacks": "count",
    "core.arq.desync_recoveries": "count",
    "core.arq.degraded_frac": "frac", "core.arq.recovery_step_ns": "ns",
    "trace.clock_ns": "ns", "trace.overhead_frac": "frac",
    "trace.closure_frac": "frac",
}
for _d, _n in (("core.search", "per_response"),
               ("core.wb_search", "per_writeback")):
    LAYER_UNITS.update({
        f"{_d}.sig_ns": "ns", f"{_d}.probe_ns": "ns",
        f"{_d}.score_ns": "ns", f"{_d}.{_n}": "count",
        f"{_d}.sigs_mean": "count", f"{_d}.ht_hits_mean": "count",
        f"{_d}.data_reads_mean": "count", f"{_d}.yield": "frac"})


def traced(bins, wl, seed, seconds, gate):
    # One untraced process: the baseline for the overhead and for the
    # check that tracing changed no simulated result.
    setup_s = measure_setup(bins, wl, seed, gate)
    rc, host_s, _, untraced = run_timed(sim_cmd(bins, wl, seed, OPS),
                                        "untraced")
    gate.run(rc == 0, f"untraced run exited {rc}")
    untraced_ns = (host_s - setup_s) * 1e9
    ref_dump, counters, means = protocol_stats(untraced)
    ok, shape = wl["shape"](counters, means)
    gate.check(ok, f"workload shape drifted: {shape}")
    log(f"shape: {shape}")
    ipc_line = re.search(r"^IPC\s+(\S+)", untraced, re.M)
    cycles_line = re.search(r"^cycles\s+(\d+)", untraced, re.M)

    cmd = [bins["perf_trace"], wl["bench"], str(OPS), str(seed)]
    if wl["faults"]:
        cmd += [FAULT_MIX[1], FAULT_MIX[3], FAULT_MIX[5], str(seed)]
    samples = []
    start = time.perf_counter()
    for rep in itertools.count():
        if rep and not fits_another(start, rep, seconds):
            break
        rc, _, _, text = run_timed(cmd, f"trace{rep}")
        dump, _, _ = protocol_stats(text)
        line = [ln for ln in text.splitlines() if ln.startswith("TRACE ")]
        if not gate.run(rc == 0 and line, f"perf_trace exited {rc}"):
            continue
        m = json.loads(line[-1][len("TRACE "):])
        same = (dump == ref_dump and ipc_line and cycles_line
                and f"{m['sim_ipc']:.4f}" == ipc_line.group(1)
                and int(m["cycles"]) == int(cycles_line.group(1)))
        gate.check(same, "traced run's simulated results differ from "
                         "the untraced run")
        # The replay must reproduce every wire frame where no fault
        # can corrupt the metadata it reads.
        gate.check(wl["faults"] or m["replay_mismatches"] == 0,
                   f"{m['replay_mismatches']:.0f} replayed frames "
                   "differ from the wire")
        m["trace.overhead_frac"] = m["trace.loop_ns"] / untraced_ns - 1.0
        samples.append(m)
    if not samples:
        return {}
    arq_counts = [samples[0][k] for k in ("core.arq.retransmits",
                                          "core.arq.desync_recoveries")]
    gate.check(wl["faults"] == all(v > 0 for v in arq_counts),
               f"ARQ counts {arq_counts} do not match the fault mix")
    log(f"traced processes: {len(samples)} (medians reported)")
    return {k: (statistics.median(s[k] for s in samples), unit)
            for k, unit in LAYER_UNITS.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # A terminated run still stops and reaps the process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bins, identity = build()
    except subprocess.CalledProcessError as e:
        log(f"perfbench: build failed: {e}; see {BUILD}/build.log")
        return 1
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    print("build " + json.dumps(identity, sort_keys=True), flush=True)

    wl = WORKLOADS[args.workload]
    gate = Gate()
    mode = traced if args.trace else end_to_end
    metrics = mode(bins, wl, args.seed, args.seconds, gate)
    correct = not gate.reasons and bool(metrics)
    for why in gate.reasons:
        log(f"perfbench: FAILED: {why}")
    result = {
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if correct else max(gate.failed, 1),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(BUILD, "last_result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "build": identity,
                   "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
