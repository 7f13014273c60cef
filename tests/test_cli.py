"""End-to-end tests of the command line front end."""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from shadow_wlo import cli, oscillatory, statesum
from shadow_wlo.complex import hodge_star_signs

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


def test_complex_values_are_pairs(capsys):
    _, out, _ = run_main(["run", str(CONFIGS / "nested_pair_su3_k6.json")],
                         capsys)
    report = json.loads(out)
    for key in ("wlo", "shadow"):
        val = report["results"][key]["value"]
        assert isinstance(val, list) and len(val) == 2
        assert all(isinstance(x, float) for x in val)
