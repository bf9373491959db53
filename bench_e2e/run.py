#!/usr/bin/env python3
"""End-to-end benchmark of the pam miner and the pam_serve service.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py --smoke

Builds the library, pam_gen, pam_serve and the benchmark's own pam_e2e in
Release under .bench_build/, generates the workload's inputs with pam_gen
from --seed, mines them with the independent oracle, then runs the
workload (pam_e2e mine / serve) and prints its metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes them, plus a chrome trace, to bench_e2e/out/. --smoke runs the
oracle test and every workload at a small scale in a few seconds.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, "bench_e2e", "out")
# Build parallelism; ranks per job (one thread each) and pam_e2e's client
# connections stay within it too.
NPROC = 4
RUN_TIMEOUT_S = 170
# Six request kinds, one per support level and dataset in a Latin square.
SERVE_KINDS = [("serial", 1), ("cd", 2), ("dd", 2), ("ddcomm", 2),
               ("idd", 2), ("hd", 2)]

# Quest generator parameters and mining thresholds of each workload. The
# generator seed is fixed: --seed reorders the transactions of that dataset
# (pam_e2e permute), which keeps the mining problem the same for every
# seed. Different generator seeds change the frequent-itemset count, and
# with it the work per job, by over 10% (README.md).
GEN_SEED = 1
WORKLOADS = {
    "mine-t10-lowsup": {
        "kind": "mine",
        "gen": {"transactions": 100000, "items": 1000, "avg-len": 10,
                "pattern-len": 4},
        "minsup": 100,  # 0.1% of 100K
        "minconf": 0.5,
        # (algorithm, ranks) of one round of jobs.
        "jobs": [("serial", 1), ("cd", 4), ("dd", 4), ("idd", 4), ("hd", 4)],
    },
    "serve-mixed": {
        "kind": "serve",
        "gen": {"transactions": 10000, "items": 1000, "avg-len": 10,
                "pattern-len": 4},
        "datasets": 6,
        "minsups": [60, 70, 80, 90, 100, 120],  # 0.6% .. 1.2% of 10K
        "minconf": 0.3,
        "repeats_per_round": 18,  # against 36 first requests: 1/3 repeats
        "repeat_distance": 8,
        "tenants": 4,
        "server": ["--ranks", "4", "--workers", "2", "--queue", "64",
                   "--cache-budget-mb", "1.2", "--result-cache",
                   "--result-cache-budget-mb", "0.1"],
    },
}
MIN_JOBS = 100


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"],
                  os.path.join(BUILD, "configure.log"), 300)
    run_quiet(["cmake", "--build", BUILD, "-j", str(NPROC)],
              os.path.join(BUILD, "build.log"), 850)


def tool(name):
    return os.path.join(BUILD, "pam_tools", name)


def generate(path, gen, gen_seed, seed, scale):
    """Quest data from the fixed generator seed, permuted by --seed."""
    if os.path.exists(path):
        return
    base = os.path.join(os.path.dirname(os.path.dirname(path)), "base",
                        "gen%d.bin" % gen_seed)
    if not os.path.exists(base):
        os.makedirs(os.path.dirname(base), exist_ok=True)
        cmd = [tool("pam_gen"), "--output", base + ".tmp",
               "--seed", str(gen_seed)]
        for key, value in gen.items():
            if key == "transactions":
                value = max(500, int(value * scale))
            cmd += ["--" + key, str(value)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
                       timeout=120)
        os.replace(base + ".tmp", base)
    subprocess.run([os.path.join(BUILD, "pam_e2e"), "permute", "--in", base,
                    "--out", path + ".tmp", "--seed", str(seed)],
                   check=True, cwd=ROOT, timeout=120)
    os.replace(path + ".tmp", path)


def oracle(path, datasets, minsups, minconf):
    """Oracle summaries of every (dataset, minsup) the workload mines."""
    if os.path.exists(path):
        return
    lines = []
    for name, db in datasets:
        out = subprocess.run(
            [os.path.join(BUILD, "pam_e2e"), "oracle", "--db", name + "=" + db,
             "--minsup", ",".join(str(m) for m in minsups),
             "--minconf", str(minconf)],
            check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=120).stdout
        lines.append(out)
    with open(path + ".tmp", "w") as f:
        f.write("".join(lines))
    os.replace(path + ".tmp", path)


def serve_round(spec, names):
    """One round of requests: every (dataset, minsup) key once, with the
    request kind from a Latin square, and repeats of a recent request
    spliced in. The round is the same for every --seed (the seed reorders
    each dataset's transactions): a seeded round changed the kind and
    cache-miss mix enough to move throughput by 20% between seeds."""
    rng = random.Random(0)
    keys = [(i, j) for i in range(len(names))
            for j in range(len(spec["minsups"]))]
    rng.shuffle(keys)
    count = len(keys) + spec["repeats_per_round"]
    repeat_at = set(rng.sample(range(1, count), spec["repeats_per_round"]))
    picks = []
    fresh = iter(keys)
    for i in range(count):
        if i in repeat_at:
            back = rng.randint(1, min(spec["repeat_distance"], len(picks)))
            picks.append(picks[-back])
        else:
            picks.append(next(fresh))
    lines = []
    for n, (i, j) in enumerate(picks):
        algorithm, ranks = SERVE_KINDS[(i + j) % len(SERVE_KINDS)]
        lines.append("tenant%d %s %d %s %d\n" % (
            n % spec["tenants"], names[i], spec["minsups"][j], algorithm,
            ranks))
    return lines


def run_workload(name, seed, seconds, trace, scale, min_jobs):
    spec = WORKLOADS[name]
    data_dir = os.path.join(BUILD, "data", "%s-x%g" % (name, scale),
                            "seed%d" % seed)
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    rng = random.Random(seed)
    minconf = spec["minconf"]
    out_prefix = os.path.join(OUT, "%s-seed%d" % (name, seed))

    if spec["kind"] == "mine":
        db = os.path.join(data_dir, "db.bin")
        generate(db, spec["gen"], GEN_SEED, seed, scale)
        minsup = max(2, int(spec["minsup"] * scale))
        oracle_path = os.path.join(data_dir, "oracle.txt")
        oracle(oracle_path, [("db", db)], [minsup], minconf)
        kinds = list(spec["jobs"])
        rng.shuffle(kinds)
        jobs = ",".join("%s:%d" % k for k in kinds)
        cmd = [os.path.join(BUILD, "pam_e2e"), "mine", "--db", db,
               "--oracle", oracle_path, "--minsup", str(minsup),
               "--minconf", str(minconf), "--jobs", jobs]
    else:
        names = ["d%d" % i for i in range(spec["datasets"])]
        datasets = []
        for i, dataset in enumerate(names):
            path = os.path.join(data_dir, dataset + ".bin")
            generate(path, spec["gen"], GEN_SEED + i, seed, scale)
            datasets.append((dataset, path))
        minsups = [max(2, int(m * scale)) for m in spec["minsups"]]
        spec = dict(spec, minsups=minsups)
        oracle_path = os.path.join(data_dir, "oracle.txt")
        oracle(oracle_path, datasets, minsups, minconf)
        requests = os.path.join(data_dir, "requests.txt")
        with open(requests, "w") as f:
            f.writelines(serve_round(spec, names))
        catalog = ",".join("%s=%s" % d for d in datasets)
        cmd = [os.path.join(BUILD, "pam_e2e"), "serve", "--requests", requests,
               "--oracle", oracle_path, "--minconf", str(minconf),
               "--datasets", catalog]
    cmd += ["--seconds", str(seconds), "--min-jobs", str(min_jobs),
            "--trace", str(trace), "--out-prefix", out_prefix]
    if spec["kind"] == "serve":
        cmd += ["--", tool("pam_serve"), "--datasets", catalog, "--listen",
                "--port", "0", "--allow-shutdown"] + spec["server"]

    t0 = time.monotonic_ns()
    cmd[2:2] = ["--t0-ns", str(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % name)
    finally:
        # Reap anything the run left in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for line in stdout.splitlines():
        if line.startswith("kind "):
            print(name + " " + line)
    if proc.returncode == 3:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        fail("%s exited with %d" % (name, proc.returncode))
    lines = [l for l in stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        fail("%s printed no result" % name)
    raw = json.loads(lines[-1][len("RESULT "):])
    metrics = {k: {"value": v[0], "unit": v[1]}
               for k, v in raw["metrics"].items()}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def report(name, result):
    for metric, m in result["metrics"].items():
        print("%s %s = %.6g %s" % (name, metric, m["value"], m["unit"]))
    print("%s attempted = %d, failed = %d, correct = %s" % (
        name, result["attempted"], result["failed"], result["correct"]))


def smoke():
    run_quiet([os.path.join(BUILD, "oracle_test"), BUILD],
              os.path.join(BUILD, "oracle_test.log"), 120)
    print("oracle_test: ok")
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 1, 1, trace, 0.05, 5)
            report(name, result)
            ok = ok and result["correct"] and result["failed"] == 0
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")
    build()
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          1.0, MIN_JOBS)
    report(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
