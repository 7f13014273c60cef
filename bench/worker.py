"""One sample of a workload, taken in a fresh interpreter.

run.py starts this script once per sample.  It sets up (imports the
package from src/, builds the Lie data and parses the generated configs),
runs every item of the workload in a cold pass, with the package's lru
caches empty, and again in identical warm passes, and then checks every
output.  Its last line of standard output is one JSON object.  Every time
is taken twice.  setup_s, cold_s and warm_s are CPU times: user plus system
time of this process, its threads and any child processes it waited for.
The wall times are cold_wall_s, warm_wall_s and setup_done, a
time.monotonic() stamp from which run.py subtracts the stamp it took before
starting this process, which reads the same clock.

    python3 bench/worker.py --workload forest --seed 3 --trace 0 \
        --workdir .bench_run
"""

import argparse
import json
import os
import resource
import sys
import time

import tracer as tracing
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

NOISE = 1e-12       # |shadow ratio| at or below it is rounding noise
RATIO_TOL = 1e-9    # agreement with the frozen reference ratios


def setup(items, config_dir):
    """Import the package and parse every config; returns the modules."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from shadow_wlo import cli, complex, lie, statesum
    for item in items:
        if isinstance(item, wl.Cert):
            path = wl.config_path(config_dir, item)
            with open(path, encoding="utf-8") as fh:
                cli.parse_config(json.load(fh))
    return {"cli": cli, "complex": complex, "lie": lie, "statesum": statesum}


def run_item(mods, item, config_dir, report_path):
    if isinstance(item, wl.Cert):
        return mods["cli"].main(["run", wl.config_path(config_dir, item),
                                 "--out", report_path])
    if isinstance(item, wl.Kernel):
        cx = mods["complex"].build_standard_surface(
            item.genus, item.refinement, item.sites)
        return mods["complex"].kernel_check_B0(cx)
    return mods["cli"].main(["--selfcheck", "--out", report_path])


def cpu_seconds():
    """User plus system CPU time since this process started, including its
    threads and the child processes it has waited for."""
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(label, mods, items, tracer, census, workdir):
    """Run every item once; returns (CPU seconds, wall seconds, outcomes).

    An outcome is (item, returned value, report path, census slice).
    """
    config_dir = os.path.join(workdir, "configs")
    outcomes = []
    start, cpu_start = time.perf_counter(), cpu_seconds()
    with tracer.span(f"pass.{label}"):
        for item in items:
            report = os.path.join(workdir, "reports",
                                  f"{label}-{item.name}.json")
            mark = len(census)
            with tracer.span(f"item.{item.name}"):
                value = run_item(mods, item, config_dir, report)
            outcomes.append((item, value, report, (mark, len(census))))
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu_start
    return cpu, wall, [(item, value, report, census[a:b])
                     for item, value, report, (a, b) in outcomes]


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Gate:
    """The correctness checks of every item attempt."""

    def __init__(self, lie_mod, reference, var):
        self.lie = lie_mod
        self.reference = reference
        self.var = var
        self._expected = {}

    def expected_terms(self, kind, series, k, colors):
        """|P/kQ| * prod |supp_i| for holonomy sums, L^(m+1) for shadow."""
        key = (kind, series, k, colors)
        if key not in self._expected:
            lie = self.lie.lie_data(series)
            if kind == "wlo":
                n = len(self.lie.lattice_points_in_scaled_box(lie, k))
                for color in colors:
                    n *= len(self.lie.weight_multiplicities(lie, color))
            else:
                n = len(self.lie.level_labels(lie, k)) ** (len(colors) + 1)
            self._expected[key] = n
        return self._expected[key]

    def check(self, item, value, report_bytes, calls, cold_bytes):
        """Error messages of one attempt; empty when it passes."""
        if isinstance(item, wl.Kernel):
            return [] if value is True else [f"kernel_check_B0 gave {value!r}"]
        errors = []
        if value != 0:
            errors.append(f"exit code {value}")
        if report_bytes is None:
            return errors + ["no report written"]
        if cold_bytes is not None and report_bytes != cold_bytes:
            errors.append("warm report bytes differ from the cold report")
        results = json.loads(report_bytes)["results"]
        if isinstance(item, wl.Selfcheck):
            failing = [name for name, row in results["selfcheck"].items()
                       if row["pass"] is not True]
            if failing:
                errors.append(f"selfcheck suites failed: {failing}")
            return errors
        return errors + self._check_cert(item, results["compare"], calls)

    def _check_cert(self, item, compare, calls):
        errors = []
        if compare["pass"] is not True or compare["tolerance"] != 1e-9:
            errors.append(f"comparison failed: rel_difference "
                          f"{compare['rel_difference']!r} at tolerance "
                          f"{compare['tolerance']!r}")
        kinds = [c[0] for c in calls]
        if kinds.count("wlo") != 2 or kinds.count("shadow") != 2:
            errors.append(f"expected two holonomy and two shadow sums, "
                          f"saw {kinds}")
        for kind, series, k, colors, total, _ in calls:
            want = self.expected_terms(kind, series, k, colors)
            if total != want:
                errors.append(f"{kind} terms_total {total}, expected {want}")
        ref = self.reference["items"][item.name][self.var]
        skipped = [c[5] for c in calls if c[0] == "wlo"]
        if skipped != ref["wlo_skipped"]:
            errors.append(f"terms_skipped_singular {skipped}, reference "
                          f"{ref['wlo_skipped']}")
        for key in ("wlo_ratio", "shadow_ratio"):
            got, want = complex(*compare[key]), complex(*ref[key])
            if abs(got - want) > RATIO_TOL * max(1.0, abs(want)):
                errors.append(f"{key} {got!r}, reference {want!r}")
        return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    items = wl.items(args.workload)
    config_dir = os.path.join(args.workdir, "configs")
    mods = setup(items, config_dir)
    setup_done, setup_s = time.monotonic(), cpu_seconds()

    tracer = tracing.Tracer(timed=bool(args.trace))
    census = []
    tracing.install_layers(tracer, mods, census)
    os.makedirs(os.path.join(args.workdir, "reports"), exist_ok=True)
    cold_s, cold_wall_s, cold = run_pass("cold", mods, items, tracer, census,
                                         args.workdir)
    warm = [run_pass(f"warm{i}", mods, items, tracer, census, args.workdir)
            for i in range(1, wl.WARM_PASSES[args.workload] + 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.restore()

    gate = Gate(mods["lie"], wl.load_reference(), wl.variant(args.seed))
    errors = []
    failed = 0
    noise_certs = 0
    for pos, (item, value, report, calls) in enumerate(cold):
        cold_bytes = read_bytes(report)
        attempts = [("cold", value, cold_bytes, calls, None)]
        for i, (_, _, outcomes) in enumerate(warm, start=1):
            _, wvalue, wreport, wcalls = outcomes[pos]
            attempts.append((f"warm{i}", wvalue, read_bytes(wreport), wcalls,
                             cold_bytes))
        for label, val, data, cs, base in attempts:
            found = gate.check(item, val, data, cs, base)
            failed += bool(found)
            errors += [f"{label} {item.name}: {e}" for e in found]
        if isinstance(item, wl.Cert) and cold_bytes is not None:
            compare = json.loads(cold_bytes)["results"]["compare"]
            noise_certs += abs(complex(*compare["shadow_ratio"])) <= NOISE

    import numpy
    import scipy
    out = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": [cpu for cpu, _, _ in warm],
        "setup_done": setup_done,
        "cold_wall_s": cold_wall_s,
        "warm_wall_s": [wall for _, wall, _ in warm],
        "peak_rss_mb": peak_rss_mb,
        "attempted": (1 + len(warm)) * len(items),
        "failed": failed,
        "errors": errors,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer, census, noise_certs)
        out["spans"] = tracer.span_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
