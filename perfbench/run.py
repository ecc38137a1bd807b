#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload steady|cold|live --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds perfbench/bench.exe with dune and runs one workload;
the last line of its standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --self-check runs one short traced
and one short untraced pass of every workload and fails unless each is
correct, reports exactly the metrics BENCHMARK.json names, and measured the
layers its workload exists to load.

Run artefacts (the runtime-events ring, span dumps) go to .perfbench/ at the
checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["steady", "cold", "live"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# runtime-events ring of 2^19 words per domain: the live workload's last
# backfill row emits a few hundred thousand GC events between two reads
RING_WSIZE = "e=19"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def check_checkout():
    for path in ["dune-project", os.path.join("lib", "serve"), os.path.join("perfbench", "dune")]:
        if not os.path.exists(path):
            fail("not at the root of a source checkout (missing %s)" % path)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    cmd = dune_cmd() + ["build", "--root", ".", "--display", "quiet", "perfbench/bench.exe"]
    try:
        # dune's own output goes to stderr: stdout ends with the JSON line
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def revision():
    """Source revision: the git commit when there is one, else a digest of
    the sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["lib", "perfbench"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(workload, seed, seconds, trace, echo=True):
    """Run the built benchmark once; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT_DIR
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    if trace:
        params = env.get("OCAMLRUNPARAM", "")
        env["OCAMLRUNPARAM"] = (params + "," if params else "") + RING_WSIZE
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", revision(),
           "--trace-out", os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


# Layers each workload exists to load: a pass that reports zero here
# measured nothing.
MUST_MEASURE = {
    "steady": ["convert.source_run_us", "convert.target_run_us", "serve.judge_us",
               "plan.lookup_us"],
    "cold": ["plan.compile_us", "convert.serve_pair_us", "plan.cache.misses",
             "serve.shadow.divergent"],
    "live": ["migrate.fault_in_us", "migrate.backfill_us_per_slot", "migrate.backfilled",
             "migrate.start_s"],
}


def self_check():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: sorted(m["name"] for m in spec["end_to_end"]),
            1: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    for w in WORKLOADS:
        for trace in (1, 0):
            code, lines = run(w, 1, 1, trace, echo=False)
            res = result_of(lines)
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d, no result line" % (tag, code))
                continue
            ms = res["metrics"]
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    tag, res["correct"], res["attempted"], res["failed"]))
            if sorted(ms) != want[trace]:
                problems.append("%s: metric names differ from BENCHMARK.json" % tag)
            for name in (MUST_MEASURE[w] if trace else ["throughput_rps", "service_p50_us"]):
                if not ms.get(name, {}).get("value", 0) > 0:
                    problems.append("%s: %s is not positive" % (tag, name))
            for line in lines:
                if "self-time closure" in line or "served traces equal" in line:
                    print("%s: %s" % (tag, line.strip()))
            print("%s: correct=%s attempted=%d" % (tag, res["correct"], res["attempted"]))
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    if problems:
        sys.exit(1)
    print("self-check passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    check_checkout()
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_check:
        self_check()
        return
    code, lines = run(a.workload, a.seed, a.seconds, a.trace)
    if code != 0 or result_of(lines) is None:
        fail("%s exited %d without a result line" % (a.workload, code))


if __name__ == "__main__":
    main()
