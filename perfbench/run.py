#!/usr/bin/env python3
"""DKG benchmark: builds perf_dkg from the repo sources, runs one workload
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repo root. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (BENCHMARK.json lists both).
Lines before it are a human-readable report stamped with the host.

The exit code is non-zero when the repo sources are missing, the build or
the run fails, a DKG's outputs disagree (safety violation), the traced
replay's transcript differs from the untraced run's, or an A/B knob or the
VerifyPool left its library default.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "perfbench-traces"
BINARY = BUILD / "perf_dkg"

WORKLOADS = ("dkg-full-ec256-n31", "dkg-hashed-modp-n25", "committee-burst-ec256-n7")
# Set-up-only processes run before and after the measured process; setup_s is
# the median of theirs and its own, so it samples the host at several times.
SETUP_BEFORE = 5
SETUP_AFTER = 5
DEADLINE_S = 175.0  # a run after the first build must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repo sources (CMakeLists.txt, src/) are not next to %s" % HERE.name)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perf_dkg", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("perf_dkg %s timed out" % " ".join(args))
    if proc.returncode != 0:
        fail("perf_dkg exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def mean(xs):
    return sum(xs) / len(xs)


def throughput(raw):
    """Good DKGs per second, summed over the workers: each worker's good
    DKGs over its own time in the loop, so a worker that finishes early and
    waits for the others adds no idle time to anyone's rate."""
    good = [0] * raw["workers"]
    for s in raw["untraced"]:
        good[s["worker"]] += s["ok"]
    return sum(g / w for g, w in zip(good, raw["worker_s"]))


def end_to_end(raw, setups, failed):
    u = raw["untraced"]
    walls = [s["wall_s"] for s in u]
    ticks = [s["ticks"] for s in u]
    out = {
        "dkg_s_p50": (statistics.median(walls), "s"),
        "dkg_per_s": (throughput(raw), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (1.0 - failed / len(u), "frac"),
        "wire_mb_per_dkg": (mean([s["bytes"] for s in u]) / 1e6, "MB"),
        "msgs_per_dkg": (mean([s["messages"] for s in u]), "count"),
        "sim_ticks_p50": (statistics.median(ticks), "ticks"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = {"dkg_s_p50": "N=%d DKGs" % len(u), "setup_s": "median of %d" % len(setups)}
    # The tail is the highest percentile with at least ten samples beyond it.
    # It stays out of the JSON result: only the burst has enough DKGs.
    p = stats.tail_percentile(len(u))
    for name, xs, unit in (("dkg_s", walls, "s"), ("sim_ticks", ticks, "ticks")):
        if p is None:
            notes[name + "_p90"] = "not reported: N=%d leaves fewer than %d beyond p90" % (
                len(xs), stats.MIN_BEYOND)
        else:
            notes["%s_p%g" % (name, p)] = "%.6g %s (N=%d, %d beyond)" % (
                stats.percentile(xs, p), unit, len(xs), stats.samples_beyond(len(xs), p))
    return out, notes


REPORTED_HANDLERS = ("vss.echo", "vss.ready", "vss.send", "vss.cc", "dkg.deal", "dkg.agree",
                     "dkg.timer")
# Messages of any other type still count as handler time, so sim.self excludes them.
HANDLER_LAYERS = REPORTED_HANDLERS + ("other.msg",)


def per_layer(raw):
    t = raw["traced"]
    u = raw["untraced"]
    n = len(t)

    def layer_mean(name, idx):
        return mean([s["layers"][name][idx] for s in t])

    out = {}
    for name in REPORTED_HANDLERS:
        out[name + "_ms"] = (layer_mean(name, 0), "ms")
        out[name + "_calls"] = (layer_mean(name, 1), "count")
    handler_ms = [sum(s["layers"][h][0] for h in HANDLER_LAYERS) for s in t]
    events = [sum(s["layers"][h][1] for h in HANDLER_LAYERS) for s in t]
    self_ms = [s["layers"]["sim.run"][0] - h for s, h in zip(t, handler_ms)]
    out["sim.self_ms"] = (mean(self_ms), "ms")
    out["sim.events"] = (mean(events), "count")
    out["engine.setup_ms"] = (layer_mean("engine.setup", 0), "ms")
    out["engine.audit_ms"] = (layer_mean("engine.audit", 0), "ms")
    busy = stats.Ratio(sum(s["wall_s"] for s in u), max(raw["worker_s"]) * raw["workers"])
    out["engine.worker_busy_frac"] = (busy.value, "frac")
    c = raw["crypto"]
    sig = stats.Ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"])
    point = stats.Ratio(c["point_memo_hits"], c["point_memo_hits"] + c["point_memo_misses"])
    out["crypto.sig_verifies"] = (c["cache_misses"] / n, "count")
    out["crypto.sig_cache_hit_ratio"] = (sig.value, "frac")
    out["crypto.sig_batch_items"] = (c["batch_items"] / n, "count")
    out["crypto.comb_builds"] = (c["comb_builds"] / n, "count")
    out["crypto.point_verifies"] = (c["point_memo_misses"] / n, "count")
    out["crypto.point_memo_hit_ratio"] = (point.value, "frac")
    traced_p50 = statistics.median([s["wall_s"] for s in t])
    untraced_p50 = statistics.median([s["wall_s"] for s in u])
    out["trace_overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "frac")
    notes = {
        "engine.worker_busy_frac": str(busy) + " worker-seconds",
        "crypto.sig_cache_hit_ratio": str(sig) + " lookups",
        "crypto.point_memo_hit_ratio": str(point) + " lookups",
        "trace_overhead_frac": "traced p50 %.6g s over untraced p50 %.6g s, N=%d" % (
            traced_p50, untraced_p50, n),
    }
    return out, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    host = "nproc=%d cpu=%r" % (os.cpu_count() or 0, cpu_model())

    def setup_runs(k):
        return [run_binary(["--workload", args.workload, "--setup-only"], deadline)["setup_s"]
                for _ in range(k)]

    # setup_s is an end-to-end metric; a traced run skips the extra processes.
    setups = [] if args.trace else setup_runs(SETUP_BEFORE)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--host", host]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        spans = TRACES / ("%s.csv" % args.workload)
        cmd += ["--spans", str(spans)]
    raw = run_binary(cmd, deadline)
    if not args.trace:
        setups += [raw["setup_s"]] + setup_runs(SETUP_AFTER)

    u, t = raw["untraced"], raw["traced"]
    safety_violations = sum(1 for s in t if s["completed"] and not s["consistent"])
    failed = sum(1 for su, st in zip(u, t)
                 if not (su["completed"] and su["ok"] and st["consistent"]))
    correct = (safety_violations == 0 and raw["transcript_mismatches"] == 0
               and raw["guard_violations"] == 0 and len(t) == len(u))

    if args.trace:
        metrics, notes = per_layer(raw)
    else:
        metrics, notes = end_to_end(raw, setups, failed)
    print("perfbench host: %s build=%s" % (host, raw["build_type"]))
    print("perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d" % (
        args.workload, args.seed, args.seconds, args.trace, raw["workers"]))
    print("  attempted=%d failed=%d (failed_frac %s) safety_violations=%d "
          "transcript_mismatches=%d" % (len(u), failed, stats.failure_fraction(failed, len(u)),
                                        safety_violations, raw["transcript_mismatches"]))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("  %-30s %14.6g %-6s%s" % (name, value, unit, "  " + note if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print("  %-30s %s" % (name, note))
    if args.trace:
        print("  spans written to %s" % spans.relative_to(ROOT))
    sys.stdout.flush()

    result = {
        "correct": correct,
        "attempted": len(u),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if not correct:
        fail("incorrect run: safety violations %d, transcript mismatches %d, guard violations %d"
             % (safety_violations, raw["transcript_mismatches"], raw["guard_violations"]), 1)


if __name__ == "__main__":
    main()
