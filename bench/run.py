"""Certificate benchmark: time to certificate on one workload.

    python3 bench/run.py --workload forest --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout, with no installation: the package is
imported from src/.  The seed picks the windings and signs of the
workload's links (workloads.py); the program receives only the generated
config files.  One worker process runs at a time (worker.py), each a fresh
interpreter that sets up, runs a cold pass and then warm passes over the
workload's items and checks every output.  Workers are started while the
next one should still end within --seconds; each metric is the median over
the workers of the run, and warm_s over all their warm passes.  The times
are CPU times of the worker (README.md says why); its wall times go into
the run metadata.

With --trace 1 traced workers alternate with untraced ones, and the
per-layer metrics come from the traced ones; the spans of the last traced
worker are written to .bench_run/<workload>/trace.jsonl.

Standard output gets one line of run metadata ({"run": ...}) and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed, also when some
output was wrong (correct is then false); it is 2 when the package is
missing and 1 when a worker fails or has not ended MARGIN_S after
--seconds.  See README.md for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}
# a worker that has not ended this long after --seconds has hung
MARGIN_S = 60


class WorkerFailed(Exception):
    pass


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, check=True,
                                timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def spawn(args, traced, workdir, deadline):
    """Run one worker to completion; returns its result with setup_wall_s."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--workdir", workdir]
    # the program reads and ignores SHADOW_WLO_SEED; leave it unset
    env = {k: v for k, v in os.environ.items() if k != "SHADOW_WLO_SEED"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = out.pop("setup_done") - spawned
    return out


def summary(samples):
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples)}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Certificate benchmark: cold and warm time to "
                    "certificate on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="start workers until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shadow_wlo",
                                       "__init__.py")):
        print("error: src/shadow_wlo not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    wl.write_configs(args.workload, args.seed, wl.load_reference(),
                     os.path.join(workdir, "configs"))
    sha, dirty = git_state()
    load_before = os.getloadavg()
    start = time.monotonic()
    deadline = start + args.seconds + MARGIN_S
    plain, traced = [], []
    try:
        # start another round only if it should end within --seconds
        while not plain or (time.monotonic() - start) * (len(plain) + 1) \
                / len(plain) <= args.seconds:
            plain.append(spawn(args, False, workdir, deadline))
            if args.trace:
                traced.append(spawn(args, True, workdir, deadline))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    workers = plain + traced
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    samples = {name: [w[name] for w in plain] for name in END_TO_END}
    # every warm pass is a sample of its own
    samples["warm_s"] = [s for w in plain for s in w["warm_s"]]
    samples["setup_wall_s"] = [w["setup_wall_s"] for w in plain]
    samples["cold_wall_s"] = [w["cold_wall_s"] for w in plain]
    samples["warm_wall_s"] = [s for w in plain for s in w["warm_wall_s"]]
    spread = {name: summary(v) for name, v in samples.items()}
    if args.trace:
        names = traced[0]["layers"]
        spread.update({name: summary([w["layers"][name] for w in traced])
                       for name in names})
        cpu = [w["cold_s"] + sum(w["warm_s"]) for w in traced]
        base = [w["cold_s"] + sum(w["warm_s"]) for w in plain]
        spread["trace.overhead_ratio"] = summary(
            [statistics.median(cpu) / statistics.median(base) - 1.0])
        units = {name: layer_unit(name) for name in names}
        units["trace.overhead_ratio"] = "1"
        with open(os.path.join(workdir, "trace.jsonl"), "w",
                  encoding="ascii") as fh:
            for span in traced[-1]["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        units = END_TO_END

    for name in units:
        s = spread[name]
        print(f"{name:32s} {s['median']:14.6g} {units[name]:6s} "
              f"min {s['min']:.6g} max {s['max']:.6g} n={s['n']}",
              file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "variant": wl.variant(args.seed), "seconds": args.seconds,
        "trace": args.trace,
        "workers": len(plain), "traced_workers": len(traced),
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
        "versions": workers[0]["versions"],
        "loadavg_before": load_before, "loadavg_after": load_after,
        "fail_ratio": failed / attempted, "spread": spread,
        "samples": samples,
        "errors": errors[:20],
    }
    print(json.dumps({"run": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": spread[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
