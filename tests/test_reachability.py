"""Every function defined in src/ is entered by some run of the program.

A fresh interpreter records, under sys.setprofile, the code object of
every Python frame it enters while the CLI runs each config in configs/,
--selfcheck and the CLI's error paths.  Every function, method, closure
and lambda compiled from src/ is matched against that record by file,
first line and qualified name.  One that is never entered is code no run
reaches.  Comprehensions are parts of the function that holds them, and
module and class bodies run at import, so they are not counted.  Only
_ALLOWED may stay unreached, each for its reason, and an allowed function
that a run does reach fails the test too, so the list cannot go stale.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "shadow_wlo"
CONFIGS = ROOT / "configs"

# (file under src/shadow_wlo, qualified name) -> why no run enters it
_ALLOWED = {
    ("lie.py", "sine_product"):
        "bench/tracer.py LAYERS counts calls of statesum.sine_product, "
        "which statesum binds for the tracer alone",
    ("cli.py", "__getattr__"):
        "bench/tracer.py LAYERS reads det_block, det_twisted_restricted and "
        "epsilon_oracle on cli before any selfcheck binds them",
}

# the CLI's error paths, as (config or None, extra argv, exit code): an
# unknown field, a level below the dual Coxeter number with holonomy and
# shadow outputs, an argv without a config, and a value argparse refuses
_ERROR_RUNS = [
    ({"group": "su2", "level": 4, "bogus": 1}, [], 2),
    ({"group": "su2", "level": 1, "outputs": ["wlo", "shadow"]}, [], 0),
    (None, ["--tolerance", "1e-6"], 2),
    (None, ["--tolerance", "abc"], 2),
]

_RECORDER = """\
import json, sys
from pathlib import Path

entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

package = Path(sys.argv[1]).resolve()
argvs = json.loads(sys.argv[2])
sys.setprofile(record)
from shadow_wlo import cli
codes = []
for argv in argvs:
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
assert Path(cli.__file__).resolve().parent == package, cli.__file__
found = set()
for code in entered:
    path = Path(code.co_filename).resolve()
    if path.parent == package:
        found.add((path.name, code.co_firstlineno,
                   getattr(code, "co_qualname", code.co_name)))
print(json.dumps({"codes": codes, "entered": sorted(found)}))
"""


_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _defined():
    """(file, first line, qualified name) of every code object in src/,
    mapped to whether it is a function's."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            # Python 3.10 code objects have no co_qualname
            name = getattr(code, "co_qualname", code.co_name)
            found[path.name, code.co_firstlineno, name] = (
                bool(code.co_flags & inspect.CO_OPTIMIZED)
                and code.co_name not in _COMPREHENSIONS)
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return found


def _run_everything(tmp_path):
    """The code objects the runs enter; each run must exit as listed."""
    argvs, want = [], []
    for config in sorted(CONFIGS.glob("*.json")):
        argvs.append(["run", str(config), "--out",
                      str(tmp_path / config.name)])
        want.append(0)
    argvs.append(["--selfcheck", "--out", str(tmp_path / "selfcheck.out")])
    want.append(0)
    for i, (config, extra, code) in enumerate(_ERROR_RUNS):
        argv = ["run"]
        if config is not None:
            path = tmp_path / f"error{i}.json"
            path.write_text(json.dumps(config))
            argv += [str(path), "--out", str(tmp_path / f"error{i}.out")]
        argvs.append(argv + extra)
        want.append(code)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RECORDER, str(PACKAGE), json.dumps(argvs)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == want
    return {tuple(key) for key in result["entered"]}


def test_every_function_in_src_is_reached(tmp_path):
    compiled = _defined()
    entered = _run_everything(tmp_path)
    assert entered <= compiled.keys()
    defined = {key for key, is_function in compiled.items() if is_function}
    allowed = {(f, line, name) for f, line, name in defined
               if (f, name) in _ALLOWED}
    # each allowed name is one function of src/
    assert sorted((f, name) for f, _, name in allowed) == sorted(_ALLOWED)
    unreached = sorted(defined - entered - allowed)
    reached = sorted(allowed & entered)
    assert not (unreached or reached), "\n".join(
        [f"never entered: {f}:{line} {name}"
         for f, line, name in unreached]
        + [f"allowed but entered: {f}:{line} {name}"
           for f, line, name in reached])
