#!/usr/bin/env python3
"""Repository benchmark: the cost of reproducing FlexVC paper figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call builds the
benchmark program (perfbench/perfbench.cpp, Release) into .bench_build/;
later calls only re-check the build. Each workload is a scenario suite run
through the simulator's public API exactly as flexnet_run runs it. With
--trace 0 the last line of stdout is one JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead (see README.md for what each one measures).

Every output is checked against references computed here, apart from the
simulator: the closed-form mean minimal hop count of the Dragonfly, a
link-latency floor on average latency, offered = accepted below
saturation, and the Fig. 6a throughput ordering. The program itself checks
that every round reproduces the first bit for bit. Any failed check or
deadlocked job makes the exit status non-zero.

--self-test checks the closed form against a BFS over the program's
Dragonfly adjacency at (2,4,2), (4,8,4) and (8,16,8).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DEADLINE_S = 170  # the program must finish this long after the build

# name -> suite, sweep workers, below-saturation load, how many set-ups to
# time (about a second of them, so that their median is steady), and the
# sim_domains of the traced run's last pass (0: no such pass).
WORKLOADS = {
    "fig6a_default": {
        "suite": "examples/suites/fig6a_uniform_min.json",
        "workers": 2,
        "unsaturated_load": 0.7,
        "setup_reps": 200,
        "traced_domains": 0,
    },
    "paper_scale": {
        "suite": "perfbench/suites/paper_scale.json",
        "workers": 1,
        "unsaturated_load": 0.6,
        "setup_reps": 40,
        "traced_domains": 2,
    },
    "flit_default": {
        "suite": "perfbench/suites/flit_default.json",
        "workers": 1,
        "unsaturated_load": 0.7,
        "setup_reps": 600,
        "traced_domains": 0,
    },
}

HOPS_TOLERANCE = 0.01  # relative, measured mean hops vs closed form
LOAD_TOLERANCE = 0.02  # relative, offered vs configured and accepted vs offered
FLEXVC_42_MIN_GAIN = 0.03  # FlexVC 4/2 max throughput over the baseline's
BASELINE_MIN_GROWTH = 0.05  # baseline max throughput, 256/1024 over 64/256
# The suite runs one seed per point, and a saturated point's maximum
# accepted load moves by up to about 1% with the seed. Gains smaller than
# that are below the figure's resolution: DAMQ over the baseline at
# 192/768 and 256/1024 (0.4-0.9% at seed 0), and the baseline from one
# capacity to the next above 128/512 (~2%). At --seed 11 DAMQ read 0.8531
# against the baseline's 0.8540 at 192/768; at --seed 67 the baseline read
# 0.8532 at 192/768 and 0.8517 at 256/1024. Those comparisons may therefore
# miss by this much before the check fails.
SEED_NOISE = 0.02


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- References, computed apart from the simulator -------------------------

def mean_min_hops(p, a, h):
    """Mean minimal-route hop count of a balanced Dragonfly(p, a, h) under
    uniform traffic, over ordered pairs of distinct nodes. Same-group pairs
    take one local hop; other-group pairs take the one global link between
    the groups plus a local hop at either end unless the end router owns
    that link (probability 1/a each)."""
    g = a * h + 1
    n = g * a * p
    return ((a - 1) * p + (g - 1) * a * p * (1 + 2 * (a - 1) / a)) / (n - 1)


def latency_floor(p, a, h, local_latency, global_latency):
    """Average latency lower bound: the link latencies of the same hop mix,
    with no pipeline, serialization or queueing."""
    g = a * h + 1
    n = g * a * p
    other_group = global_latency + 2 * (a - 1) / a * local_latency
    return ((a - 1) * p * local_latency
            + (g - 1) * a * p * other_group) / (n - 1)


# --- Build and invoke the program ------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a flexnet source checkout "
                         "(no CMakeLists.txt or src/)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "2"], check=True, stdout=out, stderr=out)


def host_ticks():
    """(steal, total) CPU ticks of the whole host from /proc/stat, or None.
    Steal is time the hypervisor ran something else on our virtual CPUs:
    the main source of run-to-run spread on a shared host."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def invoke(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to run the workload")
    # The library reads FLEXNET_* variables (scale, seeds, horizon, runtime
    # telemetry, fault injection); none of them may change a workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXNET_")}
    before = host_ticks()
    try:
        done = subprocess.run([str(BINARY), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench did not finish in {timeout:.0f}s") from e
    after = host_ticks()
    if before and after and after[1] > before[1]:
        log(f"host steal time during the run: "
            f"{(after[0] - before[0]) / (after[1] - before[1]):.1%}")
    if done.returncode != 0:
        raise BenchError(f"perfbench exited with status {done.returncode}")
    return json.loads(done.stdout)


# --- Checks ----------------------------------------------------------------

def check_rows(out, workload, problems):
    """Checks every aggregated row that did not deadlock; returns the number
    of jobs in deadlocked rows (the run's failed operations)."""
    p, a, h = out["df"]
    hops_ref = mean_min_hops(p, a, h)
    floor = latency_floor(p, a, h, out["local_latency"], out["global_latency"])
    horizon = out["seeds"] * (out["warmup"] + out["measure"])
    unsaturated = workload["unsaturated_load"]
    deadlocked = 0
    for row in out["rows"]:
        where = f"{row['label']} load={row['load']:g}"
        if row["deadlock"]:
            deadlocked += out["seeds"]
            log(f"{where}: deadlocked")
            continue
        if row["cycles"] != horizon:
            problems.append(f"{where}: ran {row['cycles']} of {horizon} cycles")
        if abs(row["hops"] - hops_ref) > HOPS_TOLERANCE * hops_ref:
            problems.append(f"{where}: mean hops {row['hops']:.4f}, closed "
                            f"form {hops_ref:.4f}")
        if row["latency"] < floor:
            problems.append(f"{where}: latency {row['latency']:.1f} below "
                            f"the link-latency floor {floor:.1f}")
        if abs(row["load"] - unsaturated) < 1e-9:
            if abs(row["offered"] - row["load"]) > LOAD_TOLERANCE * row["load"]:
                problems.append(f"{where}: offered {row['offered']:.4f}")
            if (abs(row["accepted"] - row["offered"])
                    > LOAD_TOLERANCE * row["offered"]):
                problems.append(f"{where}: accepted {row['accepted']:.4f} vs "
                                f"offered {row['offered']:.4f}")
    return deadlocked


def check_fig6a_ordering(rows, problems):
    """Fig. 6a: at every port capacity, DAMQ and every FlexVC series reach
    the baseline's maximum throughput and FlexVC 4/2 clearly exceeds it;
    the baseline's maximum grows with capacity. Comparisons below the
    suite's resolution allow SEED_NOISE."""
    best = {}
    for row in rows:
        if row["deadlock"]:
            continue
        series, capacity = row["label"].rsplit(" @", 1)
        key = (capacity, series)
        best[key] = max(best.get(key, 0.0), row["accepted"])
    capacities = sorted({c for c, _ in best}, key=lambda c: int(c.split("/")[0]))
    baselines = [best.get((c, "Baseline"), 0.0) for c in capacities]
    for capacity, baseline, previous in zip(capacities[1:], baselines[1:],
                                            baselines):
        if baseline < (1 - SEED_NOISE) * previous:
            problems.append(f"baseline max throughput {baseline:.4f} at "
                            f"@{capacity} falls below {previous:.4f}")
    if baselines[-1] < (1 + BASELINE_MIN_GROWTH) * baselines[0]:
        problems.append(f"baseline max throughput grows only from "
                        f"{baselines[0]:.4f} to {baselines[-1]:.4f}")
    for capacity, baseline in zip(capacities, baselines):
        for (c, series), value in best.items():
            if (c == capacity and series != "Baseline"
                    and value < (1 - SEED_NOISE) * baseline):
                problems.append(f"{series} @{capacity}: max throughput "
                                f"{value:.4f} below the baseline's {baseline:.4f}")
        gain = best.get((capacity, "FlexVC 4/2VCs"), 0.0)
        if gain < (1 + FLEXVC_42_MIN_GAIN) * baseline:
            problems.append(f"FlexVC 4/2VCs @{capacity}: max throughput "
                            f"{gain:.4f} not {FLEXVC_42_MIN_GAIN:.0%} above "
                            f"the baseline's {baseline:.4f}")


def runner_spans(trace_path, workers, wall):
    """Per-job durations from the runner's Chrome-trace job spans."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    jobs = [e["dur"] * 1e-6 for e in events
            if e.get("cat") == "job" and e.get("ph") == "X"]
    if not jobs:
        raise BenchError(f"no job spans in {trace_path}")
    return {
        "runner.job_s_p50": statistics.median(jobs),
        "runner.job_s_max": max(jobs),
        "runner.idle_s": max(0.0, workers * wall - sum(jobs)),
    }


# --- Modes -----------------------------------------------------------------

def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_units(section):
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def run_workload(name, seed, seconds, traced, deadline):
    workload = WORKLOADS[name]
    args = ["run", workload["suite"], "--jobs", str(workload["workers"]),
            "--seconds", str(seconds),
            "--setup-reps", str(workload["setup_reps"])]
    trace_path = BUILD / f"trace-{name}.json"
    if traced:
        args += ["--trace", str(trace_path)]
        if workload["traced_domains"]:
            args += ["--domains", str(workload["traced_domains"])]
    # The benchmark seed is the simulation's base seed (jobs derive theirs
    # from it), so the same --seed always simulates the same traffic.
    args.append(f"seed={seed + 1}")
    out = invoke(args, deadline)

    problems = []
    deadlocked = check_rows(out, workload, problems)
    if name == "fig6a_default":
        check_fig6a_ordering(out["rows"], problems)
    if not out["rounds_identical"]:
        problems.append("repeated runs of the grid disagree bit for bit")

    if traced:
        if not out["counters_match"]:
            problems.append("direct stepping and the runner counted differently")
        values = dict(out["layers"])
        values.update(runner_spans(trace_path, out["workers"],
                                   out["wall_traced_s"]))
        # Untraced, runner-traced and direct-stepping passes, plus the
        # parallel-domains pass where there is one.
        rounds = 3 + (1 if workload["traced_domains"] else 0)
        units = metric_units("per_layer")
    else:
        values = {"setup_s": out["setup_s"], "wall_s": out["wall_s"],
                  "cpu_s": out["cpu_s"],
                  "peak_rss_mb": out["peak_rss_kb"] / 1024.0}
        rounds = out["rounds"]
        units = metric_units("end_to_end")
        log("round wall seconds: " +
            " ".join(f"{w:.3f}" for w in out["round_wall_s"]))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    for problem in problems:
        log(problem)
    result = {
        "correct": not problems,
        "attempted": out["jobs"] * rounds,
        "failed": deadlocked * rounds,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems and deadlocked == 0 else 1


def self_test(deadline):
    out = invoke(["selftest"], deadline)
    ok = True
    for entry in out["bfs"]:
        p, a, h = entry["df"]
        ref = mean_min_hops(p, a, h)
        good = abs(entry["mean_hops"] - ref) <= 1e-9 * ref
        ok = ok and good
        print(f"Dragonfly({p},{a},{h}): BFS mean minimal hops "
              f"{entry['mean_hops']:.6f}, closed form {ref:.6f}: "
              f"{'ok' if good else 'MISMATCH'}")
    print(f"(2,4,2) link-latency floor: {latency_floor(2, 4, 2, 10, 100):.2f} "
          "cycles")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    try:
        build()
        # The build may take long on a fresh checkout; the run itself gets
        # the whole budget after it.
        deadline = time.monotonic() + DEADLINE_S
        if args.self_test:
            return self_test(deadline)
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        return run_workload(args.workload, args.seed, seconds,
                            args.trace == 1, deadline)
    except (BenchError, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
