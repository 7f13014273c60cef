"""Command line front end: job configs in, machine readable reports out.

A job config is a JSON object naming a group, a level, a surface and a
list of ribbons, plus the outputs it wants (holonomy state sum, shadow
state sum, the normalized comparison, the selfcheck battery).  The report
echoes the config, stores every complex value as a [re, im] pair and is
byte-identical across runs; wall-clock time goes to stderr so it cannot
perturb the bytes.  Mode "embedded" builds the link with embed_link, which
validates it once; every output then evaluates its nesting forest.  The
SHADOW_WLO_SEED environment variable is read and deliberately ignored:
nothing here is randomized.

An abstract run imports only what it executes.  The names only the
selfcheck uses (its kernels det_block, det_twisted_restricted and
epsilon_oracle, the constructors and closed forms its suites call, and
Fraction) are PEP 562 attributes of this module: the first read of any
of them, or the first suite that needs them, imports discrete,
oscillatory (linalg behind both) and fractions together and binds them
all here.  The three kernels must stay attributes of this module because
the benchmark's tracer wraps them here, and the suites look them up here
when they run, so a wrapper set before the first suite is the one they
reach.
"""

import json
import math
import os
import sys
import time
from importlib import import_module

from . import __version__
from .complex import build_standard_surface, hodge_star, kernel_check_B0
from .lie import _dual, ad_det_k, fusion_coefficient, level_labels, lie_data
from .statesum import (ColoredRibbon, RibbonLink, _forest, compare_theorem,
                       embed_link, face_chi, shadow_invariant,
                       step6_identities, wlo_unnormalized)

_GROUPS = {"a1": "A1", "su2": "A1", "su(2)": "A1",
           "a2": "A2", "su3": "A2", "su(3)": "A2"}
_OUTPUTS = ("wlo", "shadow", "compare", "selfcheck")


class ConfigError(Exception):
    """Invalid job config; path names the offending field."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _field(cfg, key, path, kind, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}{key}", "missing required field")
        return default
    value = cfg[key]
    if kind is int:
        # bool is an int subclass; a config saying true for a level is a bug
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}{key}", f"expected an integer, got "
                              f"{value!r}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{path}{key}",
                          f"expected {kind.__name__}, got {value!r}")
    return value


def parse_config(data):
    """Normalize a decoded config object, naming any bad field exactly."""
    if not isinstance(data, dict):
        raise ConfigError("$", "config must be a JSON object")
    unknown = set(data) - {"group", "level", "genus", "mode", "n",
                           "refinement", "ribbons", "outputs"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")

    group = _field(data, "group", "", str, required=True)
    series = _GROUPS.get(group.lower())
    if series is None:
        raise ConfigError("group", f"unknown group label {group!r}; known: "
                          + ", ".join(sorted(set(_GROUPS))))
    lie = lie_data(series)

    level = _field(data, "level", "", int, required=True)
    if level < 1:
        raise ConfigError("level", f"level must be >= 1, got {level}")
    genus = _field(data, "genus", "", int, default=0)
    if genus < 0:
        raise ConfigError("genus", f"genus must be >= 0, got {genus}")
    mode = _field(data, "mode", "", str, default="abstract")
    if mode not in ("abstract", "embedded"):
        raise ConfigError("mode", f"expected abstract or embedded, got "
                          f"{mode!r}")
    n = _field(data, "n", "", int, default=4)
    if n < 2:
        raise ConfigError("n", f"need at least 2 time slices, got {n}")
    refinement = _field(data, "refinement", "", int)
    if refinement is not None and refinement < 1:
        raise ConfigError("refinement", "refinement must be >= 1")

    raw_ribbons = data.get("ribbons", [])
    if not isinstance(raw_ribbons, list):
        raise ConfigError("ribbons", "expected a list")
    ribbons = []
    for i, rr in enumerate(raw_ribbons):
        path = f"ribbons[{i}]."
        if not isinstance(rr, dict):
            raise ConfigError(f"ribbons[{i}]", "expected an object")
        bad = set(rr) - {"color", "winding", "sign", "parent"}
        if bad:
            raise ConfigError(path + sorted(bad)[0], "unknown field")
        color = _field(rr, "color", path, list, required=True)
        if len(color) != lie.rank:
            raise ConfigError(path + "color",
                              f"{series} colors have {lie.rank} "
                              f"coordinates, got {len(color)}")
        for a, c in enumerate(color):
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ConfigError(f"{path}color[{a}]",
                                  f"expected a nonnegative integer, got "
                                  f"{c!r}")
        winding = _field(rr, "winding", path, int, required=True)
        sign = _field(rr, "sign", path, int, default=1)
        if sign not in (1, -1):
            raise ConfigError(path + "sign", f"expected 1 or -1, got {sign}")
        parent = _field(rr, "parent", path, int, default=0)
        if not 0 <= parent <= len(raw_ribbons):
            raise ConfigError(path + "parent",
                              f"parent must name the base face 0 or a "
                              f"ribbon face 1..{len(raw_ribbons)}, got "
                              f"{parent}")
        ribbons.append(ColoredRibbon(tuple(color), winding, sign, parent))
    try:
        _forest(RibbonLink(genus, tuple(ribbons)))
    except ValueError as exc:
        raise ConfigError("ribbons", str(exc))

    outputs = data.get("outputs", ["compare"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs", "expected a non-empty list")
    for i, o in enumerate(outputs):
        if o not in _OUTPUTS:
            raise ConfigError(f"outputs[{i}]",
                              f"unknown output {o!r}; known: "
                              + ", ".join(_OUTPUTS))

    return {
        "group": series,
        "level": level,
        "genus": genus,
        "mode": mode,
        "n": n,
        "refinement": refinement,
        "ribbons": [{"color": list(r.color), "winding": r.winding,
                     "sign": r.orientation, "parent": r.parent}
                    for r in ribbons],
        "outputs": list(dict.fromkeys(outputs)),
    }


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _build_link(cfg):
    ribbons = tuple(ColoredRibbon(tuple(r["color"]), r["winding"],
                                  r["sign"], r["parent"])
                    for r in cfg["ribbons"])
    link = RibbonLink(cfg["genus"], ribbons)
    if cfg["mode"] == "abstract":
        return link
    try:
        return embed_link(link, refinement=cfg["refinement"], n=cfg["n"])
    except ValueError as exc:
        raise ConfigError("ribbons", f"no standard embedding: {exc}")


def run_job(cfg, tolerance=1e-9):
    """Execute the outputs a config requests; returns (report, ok)."""
    lie = lie_data(cfg["group"])
    link = _build_link(cfg)
    cg = lie.dual_coxeter
    results = {}
    warnings = []
    ok = True

    def warn(field, message):
        warnings.append({"field": field, "message": message})

    for output in cfg["outputs"]:
        if output == "wlo":
            res = wlo_unnormalized(lie, cfg["level"], link)
            results["wlo"] = {
                "value": _pair(res.value),
                "terms_total": res.terms_total,
                "terms_skipped_singular": res.terms_skipped_singular,
                "flag": res.flag,
            }
            if res.flag:
                warn("level", f"level {cfg['level']} is below the dual "
                     f"Coxeter number {cg}: {res.flag}, value is zero")
        elif output == "shadow":
            res = shadow_invariant(lie, cfg["level"], link)
            results["shadow"] = {
                "value": _pair(res.value),
                "terms_total": res.terms_total,
                "flag": res.flag,
            }
            if res.flag:
                warn("level", f"level {cfg['level']} is below the dual "
                     f"Coxeter number {cg}: {res.flag}, value is zero")
        elif output == "compare":
            if cfg["level"] < cg:
                warn("level", f"level {cfg['level']} is below the dual "
                     f"Coxeter number {cg}: comparison skipped, results "
                     "zeroed")
                results["compare"] = {
                    "wlo_ratio": _pair(0), "shadow_ratio": _pair(0),
                    "abs_difference": 0.0, "rel_difference": 0.0,
                    "tolerance": tolerance, "pass": None,
                }
                continue
            rep = compare_theorem(lie, cfg["level"], link)
            passed = rep.rel_difference < tolerance
            ok = ok and passed
            results["compare"] = {
                "wlo_ratio": _pair(rep.wlo_ratio),
                "shadow_ratio": _pair(rep.shadow_ratio),
                "abs_difference": rep.abs_difference,
                "rel_difference": rep.rel_difference,
                "tolerance": tolerance,
                "pass": passed,
            }
        elif output == "selfcheck":
            table = selfcheck()
            results["selfcheck"] = table
            ok = ok and all(row["pass"] for row in table.values())

    report = {
        "version": __version__,
        "config": cfg,
        "results": results,
        "warnings": warnings,
    }
    return report, ok


# ---------------------------------------------------------------------------
# selfcheck battery

# the names only the selfcheck uses, by owning module (module docstring);
# the order moves where the benchmark worker's pending generation-1
# collection runs: loaded in this order by the tracer's install, it runs
# there rather than in a timed pass (CHANGES.md)
_SELFCHECK_NAMES = {
    "fractions": ("Fraction",),
    f"{__package__}.discrete": ("algebra_dim", "det_block",
                                "det_twisted_restricted"),
    f"{__package__}.oscillatory": ("OscGaussMeasure", "epsilon_oracle",
                                   "first_second_moments",
                                   "integrate_constant"),
}


def _load_selfcheck():
    """Bind every name of _SELFCHECK_NAMES here, keeping any already set."""
    names = globals()
    for module, attrs in _SELFCHECK_NAMES.items():
        owner = import_module(module)
        for attr in attrs:
            names.setdefault(attr, getattr(owner, attr))


def __getattr__(name):
    if any(name in attrs for attrs in _SELFCHECK_NAMES.values()):
        _load_selfcheck()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _suite_oscillatory():
    _load_selfcheck()
    mu = OscGaussMeasure.make_normalized([[1.0]])
    const = epsilon_oracle(mu, ())
    want = integrate_constant(mu)
    if abs(const - want) > 1e-3:
        return False, f"constant integral {const} vs closed form {want}"
    # eigenvalue signs +, -, -: the phase of det^(1/2)(iS) is e^(-i pi/4)
    S3 = [[0.2, 1.0, 0.3], [1.0, -0.4, 0.5], [0.3, 0.5, -1.1]]
    mu3 = OscGaussMeasure.make_normalized(S3, [0.3, -0.2, 0.1])
    const = epsilon_oracle(mu3, (), schedule=(0.15, 0.12, 0.1, 0.075, 0.05))
    want = integrate_constant(mu3)
    if abs(const - want) > 1e-3:
        return False, f"indefinite constant integral {const} vs closed " \
            f"form {want}"
    S = [[2.0, 1.0], [1.0, 2.0]]
    m = [0.5, -0.25]
    mu2 = OscGaussMeasure.make_normalized(S, m)
    # both parts of the second moment are nonzero: <v, S^(-1) w> = 1/2
    # and <v, m><w, m> = 3/16
    v = (1.0, 0.0)
    w = (1.0, 0.5)
    _, second = first_second_moments(mu2, v, w)
    num = epsilon_oracle(mu2, (v, w))
    if abs(num - second) > 1e-3:
        return False, f"second moment {num} vs closed form {second}"
    return True, "constant and second-moment closed forms match the " \
        "regularized integrals"


def _suite_twisted_determinants():
    _load_selfcheck()
    cases = [("A1", (Fraction(1, 3),)), ("A2", (Fraction(1, 3),
                                                Fraction(1, 7)))]
    for series, b in cases:
        lie = lie_data(series)
        adk = ad_det_k(lie, b)
        for variant, n in (("hat", 3), ("check", 3), ("bar", 4)):
            got = det_twisted_restricted(lie, variant, n, b)
            dim = algebra_dim(lie)
            if variant == "hat":
                sgn = -1.0 if (lie.rank % 2 and (n - 1) % 2) else 1.0
                want = sgn * float(n) ** (n * dim) * adk
            elif variant == "check":
                want = float(n) ** (n * dim) * adk
            else:
                want = (n / 2.0) ** (n * dim) * adk ** 2
            if abs(got - want) > 1e-8 * abs(want):
                return False, (f"{series} {variant} n={n}: {got} vs closed "
                               f"form {want}")
    return True, "restricted determinants match their closed forms for " \
        "all variants"


def _suite_block_determinant():
    _load_selfcheck()
    lie = lie_data("A1")
    B = {("m", i): (Fraction(2 + i, 7),) for i in range(3)}
    n = 2
    got = det_block(lie, B, n)
    want = 1.0
    for x in sorted(B):
        want *= det_twisted_restricted(lie, "hat", n, B[x])
        want *= det_twisted_restricted(lie, "check", n, B[x])
    if abs(got - want) > 1e-8 * abs(want):
        return False, f"block determinant {got} vs edge-pair product {want}"
    return True, "block determinant equals the product of forward and " \
        "backward restricted determinants"


def _suite_fusion_ring():
    # the first slot of the stored table enters through its weight system,
    # i.e. conjugated; the ring product is recovered by conjugating it
    for series, k in (("A1", 5), ("A2", 4)):
        lie = lie_data(series)
        labels = level_labels(lie, k)
        zero = tuple(0 for _ in range(lie.rank))
        prod = {(a, b, c): fusion_coefficient(lie, k, _dual(a), b, c)
                for a in labels for b in labels for c in labels}
        for a in labels:
            for b in labels:
                if prod[zero, a, b] != (a == b) or \
                        prod[a, zero, b] != (a == b):
                    return False, f"{series} k={k}: unit fails at {a},{b}"
                for c in labels:
                    if prod[a, b, c] != prod[b, a, c]:
                        return False, (f"{series} k={k}: commutativity "
                                       f"fails at {a},{b},{c}")
        # (a b) c and a (b c) as coefficient vectors over d; most products
        # vanish, so only the nonzero coefficients of a b and b c are summed
        vec = {(a, b): [prod[a, b, d] for d in labels]
               for a in labels for b in labels}
        terms = {ab: [(e, n) for e, n in zip(labels, row) if n]
                 for ab, row in vec.items()}
        zeros = [0] * len(labels)
        for a in labels:
            for b in labels:
                for c in labels:
                    lhs = rhs = zeros
                    for e, n in terms[a, b]:
                        lhs = [x + n * y for x, y in zip(lhs, vec[e, c])]
                    for e, n in terms[b, c]:
                        rhs = [x + n * y for x, y in zip(rhs, vec[a, e])]
                    if lhs != rhs:
                        d = next(d for d, x, y in zip(labels, lhs, rhs)
                                 if x != y)
                        return False, (f"{series} k={k}: associativity "
                                       f"fails at {a},{b},{c},{d}")
    return True, "fusion rings are unital, commutative and associative"


def _suite_euler_characteristics():
    for genus in (0, 1, 2):
        for parents in ((), (0,), (0, 1), (0, 1, 2), (0, 0), (0, 1, 1)):
            ribbons = tuple(ColoredRibbon((1,), 1, 1, p) for p in parents)
            link = RibbonLink(genus, ribbons)
            if sum(face_chi(link)) != 2 - 2 * genus:
                return False, f"genus {genus} parents {parents}"
    return True, "face characteristics sum to 2 - 2g on every forest"


def _suite_projected_kernel():
    for g, refinement, sites in ((0, 1, ()), (0, 1, (2,)), (1, 2, (1,))):
        if not kernel_check_B0(build_standard_surface(g, refinement, sites)):
            return False, f"genus {g} refinement {refinement} sites {sites}"
    return True, "projected coboundary kernels are exactly the constants"


def _suite_hodge_symmetry():
    cx = build_standard_surface(0, 1, ())
    edges = sorted(cx.edges)
    x = {e: float((i % 5) - 2) for i, e in enumerate(edges)}
    y = {e: float((i % 7) - 3) for i, e in enumerate(edges)}
    xp = {e: float((3 * i % 5) - 2) for i, e in enumerate(edges)}
    yp = {e: float((3 * i % 7) - 3) for i, e in enumerate(edges)}
    sx, sy = hodge_star(*hodge_star(x, y))
    if any(sx[e] != -x[e] for e in edges) or \
            any(sy[e] != -y[e] for e in edges):
        return False, "star applied twice is not minus the identity"

    def dot(a, b, c, d):
        return sum(a[e] * c[e] + b[e] * d[e] for e in edges)

    su = hodge_star(x, y)
    sv = hodge_star(xp, yp)
    lhs = dot(*su, xp, yp)
    rhs = dot(*sv, x, y)
    if abs(lhs + rhs) > 1e-12 * max(1.0, abs(lhs)):
        return False, f"star pairing is not antisymmetric: {lhs} vs {rhs}"
    return True, "star squares to minus one and its pairing is antisymmetric"


def _suite_step6_identities():
    lie = lie_data("A1")
    link = RibbonLink(0, (ColoredRibbon((2,), 1, 1),))
    step6_identities(lie, 4, link)
    return True, "every holonomy term matches its label determinant and " \
        "gleam phase"


def _suite_empty_label_paths():
    for series, k in (("A1", 1), ("A2", 2)):
        lie = lie_data(series)
        for genus in (0, 1):
            w = wlo_unnormalized(lie, k, RibbonLink(genus))
            s = shadow_invariant(lie, k, RibbonLink(genus))
            if w.flag != "empty label set" or s.flag != "empty label set":
                return False, f"{series} k={k} genus {genus}: missing flag"
            if w.value != 0 or s.value != 0:
                return False, f"{series} k={k} genus {genus}: nonzero value"
    return True, "levels below the dual Coxeter number report empty label " \
        "sets and zero values"


def selfcheck():
    """Run the invariant suites of every module; returns the pass table."""
    # build_standard_surface builds each surface once per process: the
    # suites share the genus-0 refinement-1 surface with each other, and
    # every surface with the embedded links and kernel checks of the process
    suites = [
        ("oscillatory_closed_forms", _suite_oscillatory),
        ("twisted_determinants", _suite_twisted_determinants),
        ("block_determinant", _suite_block_determinant),
        ("fusion_ring", _suite_fusion_ring),
        ("euler_characteristics", _suite_euler_characteristics),
        ("projected_kernel", _suite_projected_kernel),
        ("hodge_symmetry", _suite_hodge_symmetry),
        ("step6_identities", _suite_step6_identities),
        ("empty_label_paths", _suite_empty_label_paths),
    ]
    table = {}
    for name, fn in suites:
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        table[name] = {"pass": passed, "detail": detail}
    return table


# ---------------------------------------------------------------------------
# entry point


def _tolerance(text):
    """--tolerance: a finite number >= 0 (0 fails every comparison)."""
    try:
        value = float(text)
        ok = math.isfinite(value) and value >= 0
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    return value


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"
    if out_path:
        # str.encode needs no codec module, unlike a text file's encoding=
        with open(out_path, "wb") as fh:
            fh.write(text.encode("ascii"))
    else:
        sys.stdout.write(text)


def _parser():
    """The command line parser, built for each argv the fast path leaves."""
    import argparse

    def tolerance(text):
        try:
            return _tolerance(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    parser = argparse.ArgumentParser(
        prog="shadow-wlo",
        description="State sums for colored ribbon links: holonomy side, "
                    "shadow side, and their normalized comparison.",
        epilog="The SHADOW_WLO_SEED environment variable is read and "
               "ignored; every computation is deterministic.")
    parser.add_argument("config_pos", nargs="?", metavar="CONFIG",
                        help="path to a JSON job config")
    parser.add_argument("--config", dest="config_flag", metavar="PATH",
                        help="path to a JSON job config")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the invariant suite battery (standalone "
                             "or in addition to a config)")
    parser.add_argument("--tolerance", type=tolerance, default=1e-9,
                        help="relative tolerance for the comparison "
                             "(default 1e-9)")
    return parser


# long option of _parser() -> (its dest, whether it takes a value)
_OPTIONS = {"--config": ("config_flag", True), "--out": ("out", True),
            "--selfcheck": ("selfcheck", False),
            "--tolerance": ("tolerance", True)}


def _parse_args(argv):
    """The options and CONFIG of argv, as _parser() reads them.

    An argv made of exact names from _OPTIONS, their values and at most
    one CONFIG, with no other argument starting with '-' and a valid
    tolerance, is read here without importing argparse; every other argv,
    -h and usage errors included, goes to argparse.
    """
    args = {"config_pos": None, "config_flag": None, "out": None,
            "selfcheck": False, "tolerance": 1e-9}
    rest = iter(argv)
    try:
        for arg in rest:
            if arg in _OPTIONS:
                key, takes_value = _OPTIONS[arg]
                value = next(rest) if takes_value else True
                if takes_value and value[:1] == "-":
                    break
                if key == "tolerance":
                    value = _tolerance(value)
                args[key] = value
            elif arg[:1] != "-" and args["config_pos"] is None:
                args["config_pos"] = arg
            else:
                break
        else:
            return args
    except (StopIteration, ValueError):
        pass
    return vars(_parser().parse_args(argv))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        argv = argv[1:]
    args = _parse_args(argv)

    if os.environ.get("SHADOW_WLO_SEED") is not None:
        print("note: SHADOW_WLO_SEED is ignored; results are deterministic",
              file=sys.stderr)
    if args["config_pos"] and args["config_flag"] and \
            args["config_pos"] != args["config_flag"]:
        print("error: two different configs given", file=sys.stderr)
        return 2
    config_path = args["config_flag"] or args["config_pos"]
    if not config_path and not args["selfcheck"]:
        _parser().print_usage(sys.stderr)
        print("error: need a config file or --selfcheck", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as exc:
                print(f"error: config is not valid JSON: line {exc.lineno} "
                      f"column {exc.colno}: {exc.msg}", file=sys.stderr)
                return 2
            cfg = parse_config(data)
            if args["selfcheck"] and "selfcheck" not in cfg["outputs"]:
                cfg["outputs"].append("selfcheck")
            report, ok = run_job(cfg, tolerance=args["tolerance"])
        else:
            table = selfcheck()
            ok = all(row["pass"] for row in table.values())
            report = {
                "version": __version__,
                "config": None,
                "results": {"selfcheck": table},
                "warnings": [],
            }
    except ConfigError as exc:
        print(f"error: config field {exc.path}: {exc.message}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        # a state sum refusing a config it accepted, e.g. a normalization
        # that vanishes in floating point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    try:
        _emit(report, args["out"])
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"wall clock: {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
