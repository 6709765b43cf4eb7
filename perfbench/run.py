#!/usr/bin/env python3
"""Entry point of the OCGRA benchmark (see BENCHMARK.json at the root).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --spread [--runs 10] [--workload NAME ...]

The first form builds perfbench/ocgrabench.exe with dune into
.bench_build (the shared dune cache is disabled, so nothing is written
outside the checkout) and runs one workload; the last line of standard
output is the result JSON.  --self-test runs every workload at a tiny
size: every declared metric must be printed with its unit, work counts
must repeat at a fixed seed, and a planted wrong oracle value must fail
the run.  --spread runs each workload on several seeds and prints, per
end-to-end metric, the interquartile range as a share of the median
next to the metric's bound.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/ocgrabench.exe"
EXE = os.path.join(BUILD_DIR, "default", TARGET)

# Counts that must repeat exactly between two runs at the same seed.
WORK_COUNTS = [
    "sim_cycles", "sat.conflicts", "sat.propagations", "core.pathfinder.iterations",
    "sim.cycles", "svc.hits", "svc.iso_hits", "svc.repair_hits", "svc.misses",
    "svc.evictions", "svc.coalesced", "svc.demotions", "svc.rejections",
]


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache=disabled", TARGET]
    # the compiler's temporary files stay inside the checkout too
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except FileNotFoundError:
        sys.exit("run.py: dune is not installed")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: building %s failed (run from the root of a source checkout)" % TARGET)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    # git looks no higher than the checkout and reads no config outside it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_exe(args, capture, quiet=False):
    """Run the benchmark binary; the child is stopped with us."""
    proc = subprocess.Popen([EXE] + args + ["--commit", commit()],
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.DEVNULL if quiet else None, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        signal.signal(signal.SIGTERM, old)
    return proc.returncode, out


def result(out):
    return json.loads(out.strip().splitlines()[-1])


def declared():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def self_test():
    spec = declared()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def run(w, trace, *extra):
        args = ["--workload", w, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--scale", "tiny"] + list(extra)
        return run_exe(args, capture=True, quiet=bool(extra))

    for w in [x["name"] for x in spec["workloads"]]:
        for trace, want in ((0, e2e), (1, layer)):
            results = []
            for _ in range(2):
                code, out = run(w, trace)
                if code != 0:
                    problems.append("%s trace %d: exit %d" % (w, trace, code))
                    break
                r = result(out)
                if sorted(r) != ["attempted", "correct", "failed", "metrics"] or not r["correct"]:
                    problems.append("%s trace %d: bad result line %s" % (w, trace, r))
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != want:
                    problems.append("%s trace %d: metrics/units differ from BENCHMARK.json: %s"
                                    % (w, trace, sorted(set(got.items()) ^ set(want.items()))))
                results.append(r["metrics"])
            if len(results) == 2:
                for k in (["ii_sum"] if trace == 0 else WORK_COUNTS):
                    if results[0][k]["value"] != results[1][k]["value"]:
                        problems.append("%s: %s differs between two runs at one seed: %s vs %s"
                                        % (w, k, results[0][k]["value"], results[1][k]["value"]))
        code, _ = run(w, 0, "--plant-wrong-oracle")
        if code == 0:
            problems.append("%s: a planted wrong oracle value did not fail the run" % w)
        print("self-test %-12s %s" % (w, "ok" if not problems else "FAILED"), flush=True)
        if problems:
            break
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def spread(runs, workloads):
    spec = declared()
    names = workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in names:
        values = {}
        for seed in range(1, runs + 1):
            code, out = run_exe(["--workload", w, "--seed", str(seed), "--seconds",
                                 str(spec["run_seconds"]), "--trace", "0"], capture=True)
            if code != 0:
                print("%s seed %d: exit %d" % (w, seed, code))
                return 1
            for k, v in result(out)["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 else ("  above bound/3" if share < m["bound"]
                                                       else "  ABOVE BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print("%-12s %-18s median %-14.6g iqr/median %.4f  bound %.2f%s"
                  % (w, m["name"], med, share, m["bound"], flag), flush=True)
    print("worst spread as a share of its bound (setup_s excluded): %.3f" % worst)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    if not (a.self_test or a.spread) and (
            a.workload is None or len(a.workload) != 1 or a.seed is None
            or a.seconds is None or a.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_test:
        return self_test()
    if a.spread:
        return spread(a.runs, a.workload)
    seconds = ("%d" % a.seconds) if a.seconds == int(a.seconds) else repr(a.seconds)
    code, _ = run_exe(["--workload", a.workload[0], "--seed", str(a.seed), "--seconds", seconds,
                       "--trace", str(a.trace)], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
