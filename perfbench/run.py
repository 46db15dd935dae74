#!/usr/bin/env python3
"""Socket-level serving benchmark for ttp_serve / ttp_router.

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
daemons and the benchmark binary ttp_perfbench into .bench_build/ (later runs rebuild
only what changed), then runs one workload: fresh daemons on ephemeral
ports, timed setups, a closed-loop measured phase, verification of every
reply. The last stdout line is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). "--workload all" runs the
four workloads one after another and ends with one line per workload and
metric instead. The exit status is not 0 when the build fails, a reply is
wrong, or a daemon counter check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("warm_hits", "cold_domains", "cold_sparse", "routed_restart")


def clean_env():
    """The environment for the build and ttp_perfbench: temporary files stay
    inside the checkout, and no TTP_* knob (tracing, fault injection,
    kernel pinning) leaks into what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TTP_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "ttp_perfbench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=clean_env()) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def source_id():
    """The git commit of the checkout, or "unknown" outside a git tree."""
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(clean_env(), GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def remove_work_dirs():
    if os.path.isdir(BUILD):
        for name in os.listdir(BUILD):
            if name.startswith("work-"):
                shutil.rmtree(os.path.join(BUILD, name), ignore_errors=True)


STOP = {"signal": None, "child": None}


def forward(signum, _frame):
    # ttp_perfbench kills and reaps its daemons on SIGTERM; its work
    # directory is removed once it has exited.
    STOP["signal"] = signum
    if STOP["child"] is not None:
        STOP["child"].send_signal(signal.SIGTERM)


def run_one(workload, args, commit):
    """Runs ttp_perfbench for one workload; returns (exit code, last line)."""
    remove_work_dirs()
    cmd = [os.path.join(BUILD, "ttp_perfbench"),
           "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--bin-dir=" + os.path.join(BUILD, "ttp", "src"),
           "--out-dir=" + BUILD, "--commit=" + commit]
    sys.stdout.flush()
    child = STOP["child"] = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=clean_env())
    if STOP["signal"] is not None:
        child.send_signal(signal.SIGTERM)
    last = ""
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            last = line
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        remove_work_dirs()
    sys.stdout.flush()
    return code, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)

    if not build():
        return 1
    if STOP["signal"] is not None:
        return 128 + STOP["signal"]
    commit = source_id()
    if args.workload != "all":
        return run_one(args.workload, args, commit)[0]
    results, worst = [], 0
    for workload in WORKLOADS:
        if STOP["signal"] is not None:
            break
        code, last = run_one(workload, args, commit)
        worst = worst or code
        results.append((workload, code, last))
    for workload, code, last in results:
        try:
            res = json.loads(last)
        except ValueError:
            print("%-15s exit=%d no result" % (workload, code))
            continue
        for name, m in sorted(res["metrics"].items()):
            print("%-15s %-26s %14.6g %-6s correct=%s" % (
                workload, name, m["value"], m["unit"], res["correct"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
