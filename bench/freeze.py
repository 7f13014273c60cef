"""Regenerate reference.json, the frozen inputs and results of every seed.

For every certificate it draws windings and signs from a generator seeded
with the certificate's name and keeps the first VARIANTS draws whose shadow
ratio exceeds NONZERO in absolute value; a draw whose ratio is rounding
noise certifies nothing and is skipped.  For each kept draw it records the
windings and signs, the terms_skipped_singular of both holonomy sums and
both ratios.  Run it only when the workloads change, from the repository
root, and review the diff:

    python3 bench/freeze.py
"""

import json
import os
import random
import shutil

import tracer as tracing
import worker
import workloads as wl

NONZERO = 1e-6
MAX_DRAWS = 1000


def freeze_cert(mods, cert, workdir):
    """The VARIANTS reference entries of one certificate."""
    config_dir = os.path.join(workdir, "configs")
    rng = random.Random(cert.name)
    entries = []
    for _ in range(MAX_DRAWS):
        drawn = wl.draw_ribbons(rng, cert)
        wl.write_config(cert, drawn, config_dir)
        tracer = tracing.Tracer(timed=False)
        census = []
        tracing.install_layers(tracer, mods, census)
        try:
            _, _, [(_, value, report, calls)] = worker.run_pass(
                "freeze", mods, [cert], tracer, census, workdir)
        finally:
            tracer.restore()
        if value != 0:
            raise SystemExit(f"{cert.name} {drawn}: exit code {value}")
        with open(report, encoding="ascii") as fh:
            compare = json.load(fh)["results"]["compare"]
        if abs(complex(*compare["shadow_ratio"])) <= NONZERO:
            continue
        entries.append({
            "ribbons": drawn,
            "wlo_skipped": [c[5] for c in calls if c[0] == "wlo"],
            "wlo_ratio": compare["wlo_ratio"],
            "shadow_ratio": compare["shadow_ratio"],
        })
        if len(entries) == wl.VARIANTS:
            return entries
    raise SystemExit(f"{cert.name}: fewer than {wl.VARIANTS} nonzero draws "
                     f"in {MAX_DRAWS}")


def main():
    workdir = os.path.join(os.path.dirname(wl.BENCH), ".bench_run", "freeze")
    os.makedirs(os.path.join(workdir, "reports"), exist_ok=True)
    certs = [item for workload in sorted(wl.WORKLOADS)
             for item in wl.items(workload) if isinstance(item, wl.Cert)]
    mods = worker.setup([], None)
    items = {}
    for cert in certs:
        items[cert.name] = freeze_cert(mods, cert, workdir)
        print(f"froze {cert.name}", flush=True)
    shutil.rmtree(workdir)
    write_reference({"variants": wl.VARIANTS, "nonzero": NONZERO,
                     "items": items})


def write_reference(reference):
    """reference.json with one line per draw, so that its diff reads well."""
    items = reference["items"]
    blocks = [f" {json.dumps(name)}: [\n"
              + ",\n".join(f"  {json.dumps(e, sort_keys=True)}"
                           for e in items[name]) + "\n ]"
              for name in sorted(items)]
    head = {k: v for k, v in reference.items() if k != "items"}
    with open(wl.REFERENCE, "w", encoding="ascii") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1]
                 + ', "items": {\n' + ",\n".join(blocks) + "\n}}\n")


if __name__ == "__main__":
    main()
