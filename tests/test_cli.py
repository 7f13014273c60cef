"""End-to-end tests of the command line front end."""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from shadow_wlo import cli, oscillatory, statesum
from shadow_wlo import complex as complex_module
from shadow_wlo.lie import level_labels, lie_data
from shadow_wlo.complex import (build_standard_surface, hodge_star_signs,
                                kernel_check_B0)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_empty_sphere_report(capsys):
    code, out, err = run_main(["run", str(CONFIGS / "empty_sphere_su2_k4.json")],
                              capsys)
    assert code == 0
    report = json.loads(out)
    shadow = complex(*report["results"]["shadow"]["value"])
    assert abs(shadow - 4) <= 1e-12
    ratio = complex(*report["results"]["compare"]["wlo_ratio"])
    assert abs(ratio - 1) <= 1e-9
    assert report["results"]["compare"]["pass"] is True
    assert "wall clock" in err


def test_unknot_compare_passes(capsys):
    code, out, _ = run_main(["run", str(CONFIGS / "unknot_su2_k4.json")],
                            capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["compare"]["rel_difference"] < 1e-9
    assert report["results"]["wlo"]["terms_total"] > 0


def test_config_flag_equals_positional(capsys):
    cfg = str(CONFIGS / "empty_sphere_su2_k4.json")
    _, out_pos, _ = run_main(["run", cfg], capsys)
    _, out_flag, _ = run_main(["--config", cfg], capsys)
    assert out_pos == out_flag


def test_seed_env_read_and_ignored(tmp_path, capsys, monkeypatch):
    cfg = str(CONFIGS / "unknot_su2_k4.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.delenv("SHADOW_WLO_SEED", raising=False)
    run_main(["run", cfg, "--out", str(a)], capsys)
    monkeypatch.setenv("SHADOW_WLO_SEED", "12345")
    _, _, err = run_main(["run", cfg, "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert "ignored" in err


def test_out_file_keeps_stdout_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_main(["run", str(CONFIGS / "unknot_su2_k4.json"),
                                "--out", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    json.loads(out.read_text())


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code, stdout, err = run_main(["run", str(CONFIGS / "unknot_su2_k4.json"),
                                  "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write report: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_embedded_mode_config(capsys):
    code, out, _ = run_main(
        ["run", str(CONFIGS / "torus_unknot_su2_k5_embedded.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["mode"] == "embedded"
    assert report["results"]["compare"]["pass"] is True


def test_embedded_run_validates_once(capsys, monkeypatch):
    # embed_link validates the link it makes; the holonomy sums then read
    # its nesting forest and never rebuild the embedded face structure
    calls = {"faces": 0, "potential": 0}
    faces, potential = statesum._EmbeddedFaces, statesum._ribbon_potential

    def counted_faces(link):
        calls["faces"] += 1
        return faces(link)

    def counted_potential(*args):
        calls["potential"] += 1
        return potential(*args)

    monkeypatch.setattr(statesum, "_EmbeddedFaces", counted_faces)
    monkeypatch.setattr(statesum, "_ribbon_potential", counted_potential)
    code, _, _ = run_main(
        ["run", str(CONFIGS / "torus_unknot_su2_k5_embedded.json")], capsys)
    assert code == 0
    # one ribbon, whose potential only the validation solves
    assert calls == {"faces": 1, "potential": 1}


def test_threads_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(CONFIGS / "unknot_su2_k4.json"),
                  "--threads", "2"])
    assert exc.value.code == 2


def _exit(argv, capsys):
    """Exit code, stdout and stderr of main, whether it returns or exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_option_values_after_equals_sign(tmp_path, capsys):
    # the value after '=' is the option's even when it holds a space
    out = tmp_path / "a report.json"
    code, stdout, _ = _exit(["run", str(CONFIGS / "nested_pair_su3_k6.json"),
                             f"--out={out}", "--tolerance=0"], capsys)
    # a zero tolerance fails every comparison
    assert (code, stdout) == (1, "")
    compare = json.loads(out.read_text())["results"]["compare"]
    assert compare["tolerance"] == 0.0
    assert compare["pass"] is False


def test_options_read_by_unambiguous_prefix(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = _exit(["run", str(CONFIGS / "nested_pair_su3_k6.json"),
                             "--tol", "0", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert json.loads(out.read_text())["results"]["compare"]["tolerance"] \
        == 0.0
    code, stdout, _ = _exit(["--self", "--out", str(out)], capsys)
    assert (code, stdout) == (0, "")
    assert out.read_bytes() == (GOLDEN / "selfcheck_option.json").read_bytes()


@pytest.mark.parametrize("args,message", [
    (["--threads", "2"], "unrecognized arguments: --threads 2"),
    (["--out"], "argument --out: expected one argument"),
    (["--tolerance"], "argument --tolerance: expected one argument"),
    ([str(CONFIGS / "empty_sphere_su2_k4.json")],
     "unrecognized arguments: " + str(CONFIGS / "empty_sphere_su2_k4.json")),
    (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["extra", "--", "--out"], "unrecognized arguments: extra -- --out"),
])
def test_usage_errors_exit_2_with_the_usage_line(args, message, capsys):
    code, stdout, err = _exit(["run", str(CONFIGS / "unknot_su2_k4.json"),
                               *args], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: shadow-wlo ")
    assert err.endswith(f"\nshadow-wlo: error: {message}\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_option(flag, capsys):
    code, stdout, err = _exit([flag], capsys)
    assert (code, err) == (0, "")
    for name in ("CONFIG", "--config", "--out", "--selfcheck",
                 "--tolerance"):
        assert name in stdout


# the argv pieces the fast path reads; a second CONFIG is left to argparse
_PIECES = (("c.json",), ("--config", "c.json"), ("--out", "r.json"),
           ("--out", "a b.json"), ("--selfcheck",), ("--tolerance", "1e-3"),
           ("--tolerance", "0"))


def test_fast_path_reads_argv_as_argparse_does(monkeypatch):
    make_parser = cli._parser
    built = []

    def parser():
        built.append(True)
        return make_parser()

    def outcome(parse, argv):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code

    monkeypatch.setattr(cli, "_parser", parser)
    argvs = [[arg for piece in pieces for arg in piece]
             for count in range(4) for pieces in product(_PIECES,
                                                          repeat=count)]
    assert len(argvs) == 400
    for argv in argvs:
        built.clear()
        assert outcome(cli._parse_args, argv) == outcome(
            lambda a: vars(make_parser().parse_args(a)), argv), argv
        # only a second CONFIG leaves the fast path
        assert bool(built) == (argv.count("c.json")
                               - argv.count("--config") > 1), argv


def test_fast_path_options_are_the_parsers():
    # -h/--help is left to argparse
    actions = cli._parser()._actions
    assert {name for action in actions for name in action.option_strings} \
        == {"-h", "--help", *cli._OPTIONS}
    assert {name: (action.dest, action.nargs != 0)
            for action in actions for name in action.option_strings
            if action.dest != "help"} == cli._OPTIONS


def test_malformed_color_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "group": "su2", "level": 4,
        "ribbons": [{"color": [-1], "winding": 1}],
    }))
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "ribbons[0].color[0]" in err


def test_wrong_color_length_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "group": "su3", "level": 4,
        "ribbons": [{"color": [1], "winding": 0}],
    }))
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "ribbons[0].color" in err


def test_parent_cycle_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "group": "su2", "level": 4,
        "ribbons": [{"color": [1], "winding": 1, "parent": 2},
                    {"color": [1], "winding": 1, "parent": 1}],
    }))
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "parent" in err
    assert "ribbon 0" in err


def test_vanishing_normalization_exits_2(tmp_path, capsys):
    # at genus 5000 the empty-link holonomy sum underflows to 0.0; the
    # refusal is an error line and exit 2, not a traceback or a report
    cfg = tmp_path / "huge_genus.json"
    cfg.write_text(json.dumps({
        "group": "su2", "level": 5, "genus": 5000,
        "ribbons": [{"color": [1], "winding": 1}],
    }))
    code, out, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "normalization vanishes" in err
    assert "Traceback" not in err


def test_overflowing_face_factor_exits_2(tmp_path, capsys):
    # at genus 500 the smallest level-20 sine to the power chi = -998
    # overflows a float; the refusal names the face, exit 2, no report
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({
        "group": "su2", "level": 20, "genus": 500,
        "ribbons": [{"color": [1], "winding": 1}],
    }))
    code, out, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: face 0: ")
    assert "overflows a float" in err
    assert "Traceback" not in err


def test_unknown_group_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"group": "e8", "level": 4}))
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "group" in err


def test_unknown_output_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"group": "su2", "level": 4,
                               "outputs": ["plot"]}))
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "outputs[0]" in err


def test_invalid_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"group": "su2",\n  "level": }\n')
    code, _, err = run_main(["run", str(cfg)], capsys)
    assert code == 2
    assert "line 2" in err


def test_missing_config_exits_2(capsys):
    code, _, err = run_main([], capsys)
    assert code == 2
    assert "config" in err


def test_below_coxeter_warns_with_zero_results(tmp_path, capsys):
    cfg = tmp_path / "low.json"
    cfg.write_text(json.dumps({
        "group": "su3", "level": 2,
        "outputs": ["wlo", "shadow", "compare"],
    }))
    code, out, _ = run_main(["run", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["wlo"]["value"] == [0.0, 0.0]
    assert report["results"]["wlo"]["flag"] == "empty label set"
    assert report["results"]["shadow"]["value"] == [0.0, 0.0]
    assert report["results"]["compare"]["pass"] is None
    fields = {w["field"] for w in report["warnings"]}
    assert fields == {"level"}


def test_tight_tolerance_fails_comparison(capsys):
    code, out, _ = run_main(["run", str(CONFIGS / "nested_pair_su3_k6.json"),
                             "--tolerance", "0"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["compare"]["pass"] is False


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_non_finite_or_negative_tolerance_exits_2(value, capsys):
    # a report must stay JSON (no Infinity or NaN token), and a negative
    # tolerance would fail every comparison
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(CONFIGS / "unknot_su2_k4.json"),
                  "--tolerance", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance" in captured.err


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json"))
                         + ["selfcheck_option.json"])
def test_report_bytes_match_golden(name, tmp_path, capsys):
    """Each shipped config's report, and --selfcheck's, byte for byte.

    tests/golden/<config name> holds the report of `shadow-wlo run
    configs/<config name> --out ...`, and selfcheck_option.json that of
    `shadow-wlo --selfcheck --out ...`.  A change that means to move
    report bytes rewrites the file with that command and says so in
    CHANGES.md; a last-bit drift of any value fails here.
    """
    out = tmp_path / name
    args = (["--selfcheck"] if name == "selfcheck_option.json"
            else ["run", str(CONFIGS / name)])
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_selfcheck_standalone(capsys):
    code, out, _ = run_main(["--selfcheck"], capsys)
    assert code == 0
    table = json.loads(out)["results"]["selfcheck"]
    assert all(row["pass"] for row in table.values())
    # the battery covers every module family
    assert {"oscillatory_closed_forms", "twisted_determinants",
            "fusion_ring", "euler_characteristics", "hodge_symmetry",
            "step6_identities", "empty_label_paths"} <= set(table)


def test_selfcheck_config_output(capsys):
    code, out, _ = run_main(["run", str(CONFIGS / "selfcheck.json")], capsys)
    assert code == 0
    assert "selfcheck" in json.loads(out)["results"]


def test_selfcheck_added_to_run(capsys):
    code, out, _ = run_main(["run", str(CONFIGS / "empty_sphere_su2_k4.json"),
                             "--selfcheck"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert "compare" in results and "selfcheck" in results


def test_hodge_mutation_hook_fails_symmetry_suite(monkeypatch):
    monkeypatch.setitem(hodge_star_signs, "K2", 1)
    table = cli.selfcheck()
    assert table["hodge_symmetry"]["pass"] is False
    assert all(row["pass"] for name, row in table.items()
               if name != "hodge_symmetry")


_PHASE_DET = oscillatory.phase_det


def _signature_mod_4(S):
    # the signature phase from sum(signs) mod 4: right on the suite's
    # definite measures, a half-turn off for signs (+, -, -)
    det = _PHASE_DET(S)
    turn = cmath.exp(0.25j * math.pi * (sum(det.signs) % 4 - sum(det.signs)))
    return oscillatory.PhaseDet(det.value * turn, det.eigenvalues, det.signs)


def _conjugate_second_moment(mu, v, w):
    first, second = oscillatory.first_second_moments(mu, v, w)
    return first, second.conjugate()


def _constant_off_by_a_phase(mu):
    # one quarter-turn too many in the signature phase of det^(1/2)(iS)
    return oscillatory.integrate_constant(mu) * cmath.exp(0.25j * math.pi)


@pytest.mark.parametrize("module,name,mutant", [
    (cli, "first_second_moments", _conjugate_second_moment),
    (cli, "integrate_constant", _constant_off_by_a_phase),
    (oscillatory, "phase_det", _signature_mod_4),
])
def test_closed_form_mutation_fails_oscillatory_suite(monkeypatch, module,
                                                      name, mutant):
    monkeypatch.setattr(module, name, mutant)
    table = cli.selfcheck()
    assert table["oscillatory_closed_forms"]["pass"] is False
    assert all(row["pass"] for key, row in table.items()
               if key != "oscillatory_closed_forms")


_FUSION = cli.fusion_coefficient


@pytest.mark.parametrize("triple,law", [
    (((0,), (0,), (0,)), "unit"),
    (((1,), (2,), (1,)), "commutativity"),
    # symmetric in its first two slots, so only associativity can see it
    (((1,), (1,), (2,)), "associativity"),
])
def test_fusion_mutation_fails_fusion_ring_suite(monkeypatch, triple, law):
    def one_coefficient_off(lie, k, mu, nu, lam):
        n = _FUSION(lie, k, mu, nu, lam)
        return n + 1 if (lie.series, mu, nu, lam) == ("A1",) + triple else n

    monkeypatch.setattr(cli, "fusion_coefficient", one_coefficient_off)
    table = cli.selfcheck()
    assert table["fusion_ring"]["pass"] is False
    assert law in table["fusion_ring"]["detail"]
    assert all(row["pass"] for key, row in table.items()
               if key != "fusion_ring")


def _first_associativity_failure(series, k, coefficient):
    """The first (a, b, c, d) of the full quadruple scan, or None."""
    lie = lie_data(series)
    labels = level_labels(lie, k)
    prod = {(a, b, c): coefficient(lie, k, a[::-1], b, c)
            for a in labels for b in labels for c in labels}
    for a, b, c, d in product(labels, repeat=4):
        if sum(prod[a, b, e] * prod[e, c, d] for e in labels) != \
                sum(prod[b, c, e] * prod[a, e, d] for e in labels):
            return a, b, c, d
    return None


def test_associativity_reports_the_first_failing_quadruple(monkeypatch):
    # the suite sums only nonzero coefficients; on every symmetric
    # one-coefficient change it must name the quadruple a full scan finds
    labels = level_labels(lie_data("A1"), 5)
    compared = 0
    for a, b, c in product(labels, repeat=3):
        changed = {(a, b, c), (b, a, c)}

        def symmetric_change(lie, k, mu, nu, lam):
            n = _FUSION(lie, k, mu, nu, lam)
            return n + 1 if lie.series == "A1" and \
                (mu, nu, lam) in changed else n

        monkeypatch.setattr(cli, "fusion_coefficient", symmetric_change)
        passed, detail = cli._suite_fusion_ring()
        first = _first_associativity_failure("A1", 5, symmetric_change)
        if first is None:
            assert passed or "associativity" not in detail
        elif "associativity" in detail:
            assert detail.endswith("fails at " + ",".join(map(str, first)))
            compared += 1
    assert compared > 0


def _declared_console_script():
    """The `shadow-wlo` entry of `[project.scripts]` in the checkout."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["shadow-wlo"]


# What an installer's generated console script runs for an entry point.
LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "value = sys.argv.pop(1)\n"
    "sys.argv[0] = 'shadow-wlo'\n"
    "sys.exit(EntryPoint(name='shadow-wlo', value=value,"
    " group='console_scripts').load()())\n"
)


def _check_empty_sphere_run(argv, env=None):
    proc = subprocess.run(
        [*argv, "run", str(CONFIGS / "empty_sphere_su2_k4.json")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert abs(complex(*report["results"]["shadow"]["value"]) - 4) <= 1e-12


def test_console_script_installed():
    """The declared `shadow-wlo` console script runs a config end to end.

    The entry point is loaded from the checkout's pyproject.toml and run the
    way an installed script runs it, so the test needs no install; where a
    `shadow-wlo` script is on PATH, that script is checked as well.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    _check_empty_sphere_run(
        [sys.executable, "-c", LAUNCHER, _declared_console_script()], env)
    exe = shutil.which("shadow-wlo")
    if exe:
        _check_empty_sphere_run([exe])


def _fresh_interpreter(code, **env):
    """stdout of code run by a new interpreter on the checkout's src.

    env entries are set on top of the inherited environment.
    """
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), full.get("PYTHONPATH")]))
    full.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=full)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_neither_numpy_nor_scipy():
    out = _fresh_interpreter(
        "import importlib, pkgutil, sys\n"
        "import shadow_wlo\n"
        "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        "for mod in pkgutil.iter_modules(shadow_wlo.__path__):\n"
        "    importlib.import_module('shadow_wlo.' + mod.name)\n"
        "print('shadow_wlo.discrete' in sys.modules, 'numpy' in sys.modules,"
        " 'scipy' in sys.modules)\n")
    assert out == ["False", "False", "True", "False", "False"]


def test_selfcheck_runs_without_loading_numpy(tmp_path):
    out = tmp_path / "selfcheck.json"
    assert _fresh_interpreter(
        "import sys\n"
        "import shadow_wlo.cli\n"
        f"code = shadow_wlo.cli.main(['--selfcheck', '--out', {str(out)!r}])\n"
        "print(code, 'numpy' in sys.modules)\n") == ["0", "False"]
    assert out.read_bytes() == (GOLDEN / "selfcheck_option.json").read_bytes()


# A numpy whose import fails, placed first on the path: the program must not
# need numpy for a run or for the selfcheck.
NO_NUMPY = "raise ImportError('numpy is not installed')\n"


@pytest.mark.parametrize("args,golden", [
    (["run", str(CONFIGS / "nested_pair_su3_k6.json")],
     "nested_pair_su3_k6.json"),
    (["--selfcheck"], "selfcheck_option.json"),
])
def test_console_script_runs_without_numpy(tmp_path, args, golden):
    stub = tmp_path / "stub"
    (stub / "numpy").mkdir(parents=True)
    (stub / "numpy" / "__init__.py").write_text(NO_NUMPY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(stub), str(SRC), env.get("PYTHONPATH")]))
    check = subprocess.run([sys.executable, "-c", "import numpy"],
                           capture_output=True, text=True, timeout=120,
                           env=env)
    assert "numpy is not installed" in check.stderr
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, _declared_console_script(),
         *args, "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# (group, level, genus, ribbons as (color, parent)): the embedded
# certificates of a structure-shaped pass
_STRUCTURE_CERTS = (
    ("su2", 5, 0, (((1,), 0), ((2,), 1))),
    ("su3", 5, 1, (((0, 1), 0),)),
    ("su2", 4, 1, (((1,), 0), ((1,), 1))),
)


def _structure_pass(directory):
    """Three embedded certificates, three kernel checks, the selfcheck."""
    for i, (group, level, genus, ribbons) in enumerate(_STRUCTURE_CERTS):
        config = {"group": group, "level": level, "genus": genus,
                  "mode": "embedded", "outputs": ["compare"],
                  "ribbons": [{"color": list(color), "winding": 1,
                               "sign": 1, "parent": parent}
                              for color, parent in ribbons]}
        path = directory / f"cert{i}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out",
                         str(directory / "report.json")]) == 0
    for g, refinement, sites in ((1, 3, ()), (0, 1, (2,)), (1, 4, ())):
        assert kernel_check_B0(build_standard_surface(g, refinement, sites))
    return cli.selfcheck()


def test_selfcheck_builds_each_surface_once(monkeypatch):
    built = []
    construct = complex_module._standard_surface.__wrapped__

    def spy(g, refinement, sites):
        built.append((g, refinement, sites))
        return construct(g, refinement, sites)

    # an empty cache of the test's own, so that earlier tests' surfaces
    # do not count
    monkeypatch.setattr(complex_module, "_standard_surface",
                        lru_cache(maxsize=None)(spy))
    table = cli.selfcheck()
    # the genus-0 refinement-1 surface serves two suites
    assert sorted(built) == [(0, 1, ()), (0, 1, (2,)), (1, 2, (1,))]
    with open(GOLDEN / "selfcheck_option.json", encoding="ascii") as fh:
        assert table == json.load(fh)["results"]["selfcheck"]


def test_structure_pass_builds_each_surface_once(tmp_path, monkeypatch):
    built = []

    class Counted(complex_module.SurfaceComplex):
        def __init__(self, genus, *args):
            built.append(genus)
            super().__init__(genus, *args)

    monkeypatch.setattr(complex_module, "SurfaceComplex", Counted)
    # an empty cache of the test's own, so that earlier tests' surfaces
    # do not count
    monkeypatch.setattr(complex_module, "_standard_surface", lru_cache(
        maxsize=None)(complex_module._standard_surface.__wrapped__))
    with open(GOLDEN / "selfcheck_option.json", encoding="ascii") as fh:
        golden = json.load(fh)["results"]["selfcheck"]
    # nine surfaces on six argument sets: (0, 1, (2,)) serves a
    # certificate, a kernel check and the selfcheck, (1, 2, (1,)) a
    # certificate and the selfcheck
    assert _structure_pass(tmp_path) == golden
    assert len(built) == 6
    built.clear()
    assert _structure_pass(tmp_path) == golden
    assert built == []


def test_report_file_is_written_without_a_codec_import(tmp_path):
    # the report is ASCII by construction and goes out as bytes
    out = tmp_path / "unknot_su2_k4.json"
    argv = ["run", str(CONFIGS / out.name), "--out", str(out)]
    assert _fresh_interpreter(
        "import sys\n"
        "from shadow_wlo import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'encodings.ascii' in sys.modules)\n",
        PYTHONIOENCODING="utf-8") == ["0", "False"]
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_run_loads_neither_argparse_nor_locale(tmp_path):
    # the fast path reads these argvs without argparse and its gettext
    # and locale
    out = tmp_path / "unknot_su2_k4.json"
    selfcheck = tmp_path / "selfcheck_option.json"
    config = str(CONFIGS / out.name)
    argvs = [["run", config, "--out", str(out)],
             ["--selfcheck", "--out", str(selfcheck)],
             ["--config", config, "--tolerance", "1e-3",
              "--out", str(tmp_path / "tolerance.json")]]
    assert _fresh_interpreter(
        "import sys\n"
        "from shadow_wlo import cli\n"
        f"for argv in {argvs!r}:\n"
        "    code = cli.main(argv)\n"
        "    print(code, *(m in sys.modules\n"
        "                  for m in ('argparse', 'gettext', 'locale')))\n"
    ) == ["0", "False", "False", "False"] * 3
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
    assert selfcheck.read_bytes() == (GOLDEN / selfcheck.name).read_bytes()
    report = json.loads((tmp_path / "tolerance.json").read_text())
    assert report["results"]["compare"]["tolerance"] == 1e-3


def test_complex_values_are_pairs(capsys):
    _, out, _ = run_main(["run", str(CONFIGS / "nested_pair_su3_k6.json")],
                         capsys)
    report = json.loads(out)
    for key in ("wlo", "shadow"):
        val = report["results"][key]["value"]
        assert isinstance(val, list) and len(val) == 2
        assert all(isinstance(x, float) for x in val)


# Runs each argv of a JSON list through cli.main in this one process and
# prints, per call, the exit code, stdout and stderr, the timing line masked.
SEQUENCE = (
    "import contextlib, io, json, re, sys\n"
    "from shadow_wlo import cli\n"
    "calls = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        with contextlib.redirect_stderr(err):\n"
    "            try:\n"
    "                code = cli.main(argv)\n"
    "            except SystemExit as exc:\n"
    "                code = exc.code\n"
    "    calls.append([code, out.getvalue(),\n"
    "                  re.sub(r'wall clock: \\S+', 'wall clock: T',\n"
    "                         err.getvalue())])\n"
    "sys.__stdout__.write(json.dumps(calls))\n"
)


def test_parser_reused_within_a_process(tmp_path):
    """Three calls of main in one process, as each gives in a fresh one.

    An argparse parser is built only for an argv that the fast path leaves,
    here the rejected --tolerance, and it is never kept: each call reads
    its own argv, so that call, a run and --selfcheck after it keep their
    exit codes, their messages and report bytes (tests/golden/).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("COLUMNS", None)

    def calls(argvs):
        proc = subprocess.run(
            [sys.executable, "-c", SEQUENCE, json.dumps(argvs)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def argvs(side):
        return [["run", str(CONFIGS / "unknot_su2_k4.json"),
                 "--tolerance", "nan"],
                ["run", str(CONFIGS / "nested_pair_su3_k6.json"),
                 "--out", str(tmp_path / side / "nested_pair_su3_k6.json")],
                ["--selfcheck",
                 "--out", str(tmp_path / side / "selfcheck_option.json")]]

    (tmp_path / "one").mkdir()
    (tmp_path / "fresh").mkdir()
    together = calls(argvs("one"))
    apart = [calls([argv])[0] for argv in argvs("fresh")]
    assert together == apart
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert "--tolerance" in together[0][2]
    for name in ("nested_pair_su3_k6.json", "selfcheck_option.json"):
        golden = (GOLDEN / name).read_bytes()
        assert (tmp_path / "one" / name).read_bytes() == golden
        assert (tmp_path / "fresh" / name).read_bytes() == golden
