"""Tests of the certificate benchmark itself.

They run bench/run.py on each workload with --seconds 0, one worker each,
so they check the harness, its output schema and its correctness gate,
never timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_bench(*extra, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--seed", "5",
         "--seconds", "0", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["forest", "fusion", "structure"])
def test_run_passes_the_gate_and_emits_every_end_to_end_metric(workload):
    meta, result = run_bench("--workload", workload, "--trace", "0")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and meta["fail_ratio"] == 0
    assert result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["workers"] >= 1 and meta["nproc"] >= 1
    assert set(meta["versions"]) == {"python", "numpy", "scipy"}


def test_traced_run_emits_every_per_layer_metric_and_its_spans():
    # structure reaches every layer, so every time is nonzero on it
    _, result = run_bench("--workload", "structure", "--trace", "1")
    assert result["correct"] is True
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer")
    times = {n: m["value"] for n, m in result["metrics"].items()
             if m["unit"] == "s"}
    assert all(v > 0 for v in times.values()), times

    with open(os.path.join(ROOT, ".bench_run", "structure", "trace.jsonl"),
              encoding="ascii") as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        assert s["parent"] is None or s["parent"] in by_id
        children.setdefault(s["parent"], []).append(s)
    roots = children[None]
    assert sorted(s["name"] for s in roots) == ["pass.cold", "pass.warm1"]
    # self times and leaf times partition the passes
    self_s = sum(s["end"] - s["start"] - s["leaf_s"]
                 - sum(c["end"] - c["start"]
                       for c in children.get(s["id"], []))
                 for s in spans)
    leaf_s = sum(s["leaf_s"] for s in spans)
    wall = sum(s["end"] - s["start"] for s in roots)
    assert self_s + leaf_s == pytest.approx(wall, rel=1e-9)


def copy_bench(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)


def test_corrupted_reference_makes_the_gate_fail(tmp_path):
    copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text(encoding="ascii"))
    for entry in reference["items"]["fusion_a2_k7_g1_chain2"]:
        entry["shadow_ratio"][0] += 1e-6
    path.write_text(json.dumps(reference), encoding="ascii")
    meta, result = run_bench("--workload", "fusion", "--trace", "0",
                             cwd=str(tmp_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert meta["fail_ratio"] == 1.0
    assert any("shadow_ratio" in e for e in meta["errors"])


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench("--workload", "forest", "--trace", "0", cwd=str(tmp_path),
                     check=False)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_every_seed_certifies_a_nonzero_ratio():
    sys.path.insert(0, BENCH)
    try:
        import workloads as wl
    finally:
        sys.path.remove(BENCH)
    reference = wl.load_reference()
    certs = [item for items in wl.WORKLOADS.values() for item in items
             if isinstance(item, wl.Cert)]
    assert sorted(reference["items"]) == sorted(c.name for c in certs)
    for cert in certs:
        entries = reference["items"][cert.name]
        assert len(entries) == wl.VARIANTS
        for entry in entries:
            assert len(entry["ribbons"]) == len(cert.ribbons)
            assert abs(complex(*entry["shadow_ratio"])) > reference["nonzero"]
