"""The benchmark's workloads and the seeded generation of their inputs.

A workload is a fixed list of items.  Forest shape, colors and level of
every link are fixed per workload, so the cost of a run does not depend on
the seed; the seed picks only each ribbon's winding and sign.  freeze.py
draws them (draw_ribbons) and keeps, per certificate, the first VARIANTS
draws whose ratio is nonzero, so that every certificate certifies a value
rather than two rounding-noise zeros.  The kept draws and their frozen
results are in reference.json; a seed uses draw seed mod VARIANTS.
"""

import json
import os
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH, "reference.json")

VARIANTS = 32
WINDINGS = (-2, -1, 0, 1, 2)
SIGNS = (1, -1)


@dataclass(frozen=True)
class Cert:
    """A certificate run through the command line: `run <config>`.

    ribbons lists (color, parent) per ribbon; the seed adds winding and sign.
    """

    name: str
    group: str
    level: int
    genus: int
    ribbons: tuple
    mode: str = "abstract"


@dataclass(frozen=True)
class Kernel:
    """kernel_check_B0 on a standard surface, which must return True."""

    name: str
    genus: int
    refinement: int
    sites: tuple = ()


@dataclass(frozen=True)
class Selfcheck:
    """The `--selfcheck` battery, every suite of which must pass."""

    name: str = "selfcheck"


WORKLOADS = {
    # the brute-force holonomy loop and the shadow coloring loop dominate
    "forest": (
        # 6,075 holonomy terms, 96% singular; 7,776 colorings
        Cert("forest_a2_k5_branching4", "su3", 5, 0,
             (((1, 0), 0), ((0, 1), 1), ((1, 0), 1), ((0, 1), 0))),
        # 59,049 colorings of a 4-ribbon chain
        Cert("forest_a1_k10_chain4", "su2", 10, 0,
             (((1,), 0), ((2,), 1), ((1,), 2), ((2,), 3))),
    ),
    # cold: building 450 Kac-Walton coefficients; warm: holonomy-bound
    "fusion": (
        Cert("fusion_a2_k7_g1_chain2", "su3", 7, 1,
             (((1, 0), 0), ((0, 1), 1))),
    ),
    # the only workload reaching complex, discrete, oscillatory and the
    # embedded validation; its state sums are tiny
    "structure": (
        Cert("structure_a1_k5_g0_chain2", "su2", 5, 0,
             (((1,), 0), ((2,), 1)), mode="embedded"),
        Cert("structure_a2_k5_g1_one", "su3", 5, 1,
             (((0, 1), 0),), mode="embedded"),
        Cert("structure_a1_k4_g1_chain2", "su2", 4, 1,
             (((1,), 0), ((1,), 1)), mode="embedded"),
        Kernel("kernel_g1_r3", 1, 3),
        Kernel("kernel_g0_r1_ring2", 0, 1, (2,)),
        Kernel("kernel_g1_r4", 1, 4),
        Selfcheck(),
    ),
}

# warm passes per worker, so that the warm passes take about as long as the
# cold one and a run gathers warm samples as fast as cold ones
WARM_PASSES = {"forest": 2, "fusion": 6, "structure": 1}


def items(workload):
    return WORKLOADS[workload]


def variant(seed):
    return seed % VARIANTS


def load_reference(path=REFERENCE):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def draw_ribbons(rng, cert):
    """One random [winding, sign] per ribbon of a certificate."""
    return [[rng.choice(WINDINGS), rng.choice(SIGNS)] for _ in cert.ribbons]


def make_config(cert, drawn):
    """The job config of one certificate with the drawn windings and signs."""
    ribbons = [{"color": list(color), "winding": winding, "sign": sign,
                "parent": parent}
               for (color, parent), (winding, sign) in zip(cert.ribbons,
                                                           drawn)]
    return {"group": cert.group, "level": cert.level, "genus": cert.genus,
            "mode": cert.mode, "ribbons": ribbons, "outputs": ["compare"]}


def config_path(directory, cert):
    return os.path.join(directory, f"{cert.name}.json")


def write_config(cert, drawn, directory):
    os.makedirs(directory, exist_ok=True)
    with open(config_path(directory, cert), "w", encoding="ascii") as fh:
        json.dump(make_config(cert, drawn), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_configs(workload, seed, reference, directory):
    """Write the config of every certificate of a workload for one seed."""
    for item in items(workload):
        if isinstance(item, Cert):
            entry = reference["items"][item.name][variant(seed)]
            write_config(item, entry["ribbons"], directory)
