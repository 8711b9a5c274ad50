#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result line.

    python3 perfbench/run.py --workload fleet-saga --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload mc-indep --plant   # planted-fault self-test

Run it from the root of a repository checkout.  It builds
perfbench/main.exe from source with dune, measures set-up cold in fresh
processes (the median of SETUP_SAMPLES), runs the workload's timed loop
in one more process, and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
The line before it is the environment fingerprint.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fleet-saga", "param-mutex", "dist-travel", "mc-indep"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SETUP_SAMPLES = 31
PHASE_SAMPLES = 3
DEADLINE_S = 175.0


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=880,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed", 3)


def child(mode, workload, seed, extra=(), timeout=60):
    p = subprocess.run(
        [EXE, mode, "--workload", workload, "--seed", str(seed), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("%s %s exited with %d" % (mode, workload, p.returncode), 4)
    return p.stdout.splitlines()


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except OSError:
        return "none"


def run_workload(workload, seed, seconds, trace, plant, spec, started):
    setups = [json.loads(child("setup", workload, seed)[-1]) for _ in range(SETUP_SAMPLES)]
    phases = []
    if trace:
        phases = [json.loads(child("phases", workload, seed)[-1]) for _ in range(PHASE_SAMPLES)]
    extra = ["--seconds", str(seconds), "--trace", str(trace)] + (["--plant"] if plant else [])
    budget = DEADLINE_S - (time.monotonic() - started)
    lines = child("run", workload, seed, extra, timeout=max(budget, 1.0))
    result = None
    ocaml = "unknown"
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("ocaml_version "):
            ocaml = line.split()[1]
        else:
            print(line)
    if result is None:
        die("no result from the run", 4)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    # The program reports the values it measured; units and the order come
    # from BENCHMARK.json.  A per-layer metric the workload never runs
    # reports 0; an end-to-end metric must be measured.
    measured = result["metrics"]
    if trace:
        for key in ("compile.ms", "compile.guard_size", "gtable.compile_ms"):
            measured[key] = med(phases, key)
        measured["lang.parse_ms"] = med(setups, "lang.parse_ms")
        wanted = spec["per_layer"]
    else:
        measured["setup_s"] = med(setups, "setup_s")
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            die("end-to-end metrics not measured: %s" % missing, 5)
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        die("metrics not in BENCHMARK.json: %s" % sorted(unknown), 5)
    result["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in wanted}
    return result, ocaml


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--plant", action="store_true",
                    help="plant a fault (fleet-saga: a duplicated token; mc-indep: a wrong guard)")
    args = ap.parse_args()
    for path in ("dune-project", "lib", os.path.join("perfbench", "main.ml"), "BENCHMARK.json"):
        if not os.path.exists(path):
            die("%s not found: run from the root of a repository checkout" % path)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "loadavg_start": list(os.getloadavg()),
    }
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in names:
        # The deadline counts from after the build: only a checkout's first
        # run builds, and that run may take longer.
        result, env["ocaml"] = run_workload(w, args.seed, seconds, args.trace, args.plant, spec,
                                            time.monotonic())
        results.append((w, result))
    env["loadavg_end"] = list(os.getloadavg())
    print("%-12s %-28s %18s  %s" % ("workload", "metric", "value", "unit"))
    for w, r in results:
        for name, v in r["metrics"].items():
            print("%-12s %-28s %18.6g  %s" % (w, name, v["value"], v["unit"]))
        if "failed_share" not in r["metrics"]:
            print("%-12s %-28s %18.6g  %s" % (w, "failed_share", r["failed"] / r["attempted"], "ratio"))
    print("env " + json.dumps(env, sort_keys=True))
    for w, r in results:
        print(json.dumps(r) if len(results) == 1 else w + " " + json.dumps(r))


if __name__ == "__main__":
    main()
