#!/usr/bin/env python3
"""Layer-ladder benchmark: builds the benchmark, runs it and reports the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench on
first use, runs its self-tests, then
  --trace 0: one untraced run; the last stdout line carries the end-to-end
             metrics named in BENCHMARK.json;
  --trace 1: an untraced run with the per-layer probes for half the time and a
             traced run (spans, MPI_* wrappers, XMPI_TRACE attribution) for the
             other half; the last line carries the per-layer metrics.
Every metric is printed by name with its unit and sample count, and the full
result, with the configuration stamp, is written to
.bench_build/results/<workload>-seed<seed>-trace<t>.json.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
RUN_TIMEOUT_S = 170
# Metrics the traced run is authoritative for; everything else per-layer
# comes from the untraced run, which tracing does not perturb.
TRACED_PREFIXES = ("kamping.self_share", "apps.compute_share", "mpi_calls", "attr.")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_env():
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "xmpi", "include", "xmpi", "mpi.h")):
        fail("xmpi sources not found; run from the root of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=tool_env(),
                                timeout=880).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}")


def run_binary(name, args):
    cmd = [os.path.join(BUILD, name)] + args
    proc = subprocess.run(cmd, env=tool_env(), timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{name} exited with code {proc.returncode}")
    return proc


def run_mode(binary, workload, seed, seconds, mode, tag, spans=False):
    out = os.path.join(RESULTS, f"{workload}-seed{seed}-{tag}.raw.json")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--mode", mode, "--out", out]
    if spans:
        args += ["--spans", os.path.join(RESULTS, f"{workload}-seed{seed}-spans.csv")]
    run_binary(binary, args)
    with open(out) as f:
        return json.load(f)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):  # e.g. an exported checkout
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found; run from the root of the repository")
    with open(bench_json) as f:
        spec = json.load(f)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    run_binary("perfbench_selftest", [])

    if a.trace == 0:
        res = run_mode("perfbench_layers", a.workload, a.seed, a.seconds, "e2e", "e2e")
        metrics, meta = res["metrics"], res["meta"]
        attempted, failed = res["attempted"], res["failed"]
        wanted = spec["end_to_end"]
    else:
        half = a.seconds / 2
        plain = run_mode("perfbench_layers", a.workload, a.seed, half, "layers", "layers")
        traced = run_mode("perfbench_layers_traced", a.workload, a.seed, half, "traced",
                          "traced", spans=True)
        metrics = dict(plain["metrics"])
        for k, v in traced["metrics"].items():
            if k.startswith(TRACED_PREFIXES):
                metrics[k] = v
        base = plain["metrics"]["op_us.p50"]["value"]
        slow = traced["metrics"]["op_us.p50"]["value"]
        metrics["trace.overhead_pct"] = {"value": (slow / base - 1.0) * 100.0, "unit": "%",
                                         "n": traced["metrics"]["op_us.p50"]["n"]}
        meta = dict(plain["meta"])
        meta.update({k: v for k, v in traced["meta"].items() if k.startswith(("attr.", "trace."))})
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        wanted = spec["per_layer"]

    config = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": a.seed,
        "workload": a.workload,
        "run_seconds": a.seconds,
        "trace": a.trace,
    }
    config.update({k: v for k, v in meta.items() if k.startswith(("config.", "knob."))})

    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")
    for k in sorted(meta):
        if not k.startswith(("config.", "knob.")):
            print(f"{k:44s} {meta[k]}")
    for k in sorted(config):
        print(f"{'config ' + k:44s} {config[k]}")

    out = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": m["unit"]}
        elif name.startswith("mpi_calls."):  # a function this workload never calls
            out[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"metric {name} was not measured")
    result = {"correct": failed == 0, "attempted": max(1, attempted), "failed": failed,
              "metrics": out}
    with open(os.path.join(RESULTS, f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as f:
        json.dump({"result": result, "config": config, "metrics": metrics, "meta": meta}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
