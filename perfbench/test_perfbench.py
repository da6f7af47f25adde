"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tiny runs take a couple of minutes: each runs at least one round of
its workload, the reference corpus and the worked example.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

geu = run.load_package()
import check  # noqa: E402
import gen  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_benchmark_alone_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _first_with_chain(tmp_path):
    """A sweep problem with a produced chain, and its exit code and report."""
    for batch in gen.rounds("sweep_small", 7):
        for doc in batch:
            path = tmp_path / "p.json"
            path.write_text(json.dumps(doc))
            code, text = run.compute(geu.cli, path, ())
            if any(c.get("vectors") for c in json.loads(text)["chains"]):
                return doc, code, text


def _bump(value):
    return check.text(check.add(check.scalar(value), check.ONE))


def test_check_passes_program_output(tmp_path):
    doc, code, text = _first_with_chain(tmp_path)
    assert run.problem_failures(check, doc, code, text) == []


def test_check_catches_one_changed_chain_entry(tmp_path):
    doc, code, text = _first_with_chain(tmp_path)
    rep = json.loads(text)
    entry = next(c for c in rep["chains"] if c.get("vectors"))
    vector = entry["vectors"][-1]["vector"]
    vector[0] = _bump(vector[0])
    bad = run.problem_failures(check, doc, code, json.dumps(rep))
    assert any("M v_" in reason for reason in bad), bad


def test_check_catches_a_wrong_eigenvalue(tmp_path):
    doc, code, text = _first_with_chain(tmp_path)
    rep = json.loads(text)
    rep["f"]["monomial"][0] = _bump(rep["f"]["monomial"][0])
    assert run.problem_failures(check, doc, code, json.dumps(rep))


def test_corrupted_reports_count_as_failed_problems(tmp_path, monkeypatch):
    real = run.compute

    def corrupting(cli, path, args):
        code, text = real(cli, path, args)
        rep = json.loads(text)
        entry = next((c for c in rep["chains"] if c.get("vectors")), None)
        if entry is not None:
            # a bumped entry can leave v_1 in a larger eigenspace of M, so
            # it stays a valid chain; a zero v_1 never is
            vector = entry["vectors"][0]["vector"]
            vector[:] = ["0"] * len(vector)
        else:
            rep["f"]["moments"][-1] = _bump(rep["f"]["moments"][-1])
        return code, json.dumps(rep, indent=2, sort_keys=True)

    monkeypatch.setattr(run, "compute", corrupting)
    one = run.Run(geu, check, run.WORKLOADS["sweep_small"], tmp_path)
    one.timed_phase(gen.rounds("sweep_small", 5), 0.0)
    size = len(next(gen.rounds("sweep_small", 5)))
    assert len(one.times) == size
    assert [i for i, _ in one.failures] == list(range(size))


def test_reference_digest_catches_changed_coefficient(tmp_path):
    doc, code, text = _first_with_chain(tmp_path)
    rep = json.loads(text)
    want = check.fingerprint(rep)
    assert check.compare_fingerprint(check.fingerprint(rep), want) == []
    entry = next(c for c in rep["chains"] if c.get("vectors"))
    coeffs = entry["vectors"][-1]["coefficients"] or {"1,1": "0"}
    key = sorted(coeffs)[0]
    coeffs[key] = _bump(coeffs[key])
    entry["vectors"][-1]["coefficients"] = coeffs
    assert check.compare_fingerprint(check.fingerprint(rep), want)


def test_golden_check_catches_changed_worked_example():
    rep = geu.report.run_problem(geu.worked.worked_problem())
    rep = json.loads(json.dumps(rep))
    assert check.check_golden(rep, geu.worked.GOLDEN) == []
    rep["new_eigenvalues"][0]["value"] = "7"
    assert check.check_golden(rep, geu.worked.GOLDEN)
