import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import geu
from geu import problemfile
from geu.cli import main
from geu.errors import ParseError
from geu.fuzz import random_problem
from geu.model import JordanBlock, JordanSpec
from geu.problemfile import (
    encode_problem,
    parse_eigenvalue_arg,
    parse_problem,
)
from geu.scalars import GS_ZERO, encode_scalar, gs, parse_scalar
from geu.worked import worked_problem


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_geu_process(*argv, timeout=20):
    """`python -m geu argv...` in a child process, for exit codes and stderr
    exactly as a shell sees them."""
    src = Path(geu.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "geu", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def worked_doc():
    return encode_problem(worked_problem())


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(worked_doc()))
    return str(path)


def test_compute_worked(worked_file):
    code, out, _ = run_cli("compute", worked_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "PASS"
    assert rep["f"]["monomial"] == ["-3", "-2", "1"]
    assert {e["value"] for e in rep["new_eigenvalues"]} == {"3", "-1"}
    same = next(c for c in rep["chains"] if c["case"] == "same_block")
    assert same["vectors"][3]["coefficients"]["4,1"] == "176/27"
    other = next(c for c in rep["chains"] if c["case"] == "other_block")
    assert other["vectors"][1]["coefficients"]["2,1"] == "-5/9"
    distinct = next(
        c for c in rep["chains"] if c["case"] == "distinct_eigenvalue"
    )
    assert distinct["vectors"][1]["coefficients"]["2,1"] == "-1/4"


def test_compute_zero_b(tmp_path):
    doc = {
        "blocks": [{"eigenvalue": "2", "size": 3}],
        "b": ["0", "0", "0"],
        "source": {"block": 0, "rank": 2},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("compute", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "PASS"
    assert rep["bound"] == 0
    assert rep["f"]["monomial"] == ["4", "-4", "1"]  # (t-2)^2


def test_compute_parse_error(tmp_path):
    doc = worked_doc()
    doc["source"]["rank"] = 9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("compute", str(path))
    assert code == 2
    assert "source.rank" in err


def test_compute_output_file(worked_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli("compute", worked_file, "--output", str(out_path))
    assert code == 0 and out == ""
    rep = json.loads(out_path.read_text())
    assert rep["status"] == "PASS"


def test_compute_float_mode(worked_file):
    code, out, _ = run_cli("compute", worked_file, "--mode", "float")
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "PASS"
    assert rep["max_residual"] <= 1e-9 * max(rep["residual_scale"], 1.0)


def test_example_command():
    code, out, _ = run_cli("example")
    assert code == 0
    rep = json.loads(out)
    assert rep["golden"] == "PASS"


def test_report_round_trip(worked_file):
    _, out, _ = run_cli("compute", worked_file)
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep


def test_fuzz_determinism():
    code1, out1, _ = run_cli("fuzz", "--seed", "7", "--count", "25")
    code2, out2, _ = run_cli("fuzz", "--seed", "7", "--count", "25")
    assert out1 == out2
    assert code1 == code2 == 0
    assert "passes=25" in out1


def test_fuzz_empty():
    code, out, _ = run_cli("fuzz", "--seed", "1", "--count", "0")
    assert code == 0
    assert "passes=0" in out and "failures=[]" in out


def test_output_write_failure_exits_2(tmp_path):
    for target in (tmp_path / "absent" / "x.json", tmp_path):
        proc = run_geu_process("example", "--output", str(target))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {target}: ")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--n-max", "1"), ("--n-max", "0"), ("--count", "-3"),
])
def test_fuzz_rejects_empty_ranges(argv):
    proc = run_geu_process("fuzz", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: fuzz needs n_max >= 2")


def test_verify_command(tmp_path, worked):
    from geu import chains, oracle
    from geu.scalars import encode_scalar

    updated = oracle.apply_update(worked)
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(
        json.dumps([[encode_scalar(v) for v in row] for row in updated])
    )
    u = chains.same_block_chain(worked, 4)
    vec_path = tmp_path / "v.json"
    vec_path.write_text(
        json.dumps([[encode_scalar(x) for x in cv.vector] for cv in u])
    )
    code, out, _ = run_cli(
        "verify", "--matrix", str(matrix_path),
        "--eigenvalue", "2", "--vectors", str(vec_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_relation"] and doc["ranks"] == [1, 2, 3, 4]

    # reordered vectors must fail with an index
    vec_path.write_text(
        json.dumps(
            [[encode_scalar(x) for x in cv.vector] for cv in reversed(u)]
        )
    )
    code, out, _ = run_cli(
        "verify", "--matrix", str(matrix_path),
        "--eigenvalue", "2", "--vectors", str(vec_path),
    )
    assert code == 1
    assert json.loads(out)["failed_index"] is not None

    # an eigenvalue off the spectrum fails at the first vector
    vec_path.write_text(
        json.dumps([[encode_scalar(x) for x in u[0].vector]])
    )
    code, out, _ = run_cli(
        "verify", "--matrix", str(matrix_path),
        "--eigenvalue", "7", "--vectors", str(vec_path),
    )
    assert code == 1
    assert json.loads(out)["failed_index"] == 1


def test_parse_problem_errors():
    with pytest.raises(ParseError) as exc:
        parse_problem({"blocks": [], "b": [], "source": {}})
    assert "blocks" in str(exc.value)
    doc = worked_doc()
    doc["b"] = doc["b"][:-1]
    with pytest.raises(ParseError) as exc:
        parse_problem(doc)
    assert exc.value.field == "b"
    doc = worked_doc()
    doc["source"]["block"] = 5
    with pytest.raises(ParseError) as exc:
        parse_problem(doc)
    assert exc.value.field == "source.block"
    doc = worked_doc()
    doc["b"][0] = 0.5
    with pytest.raises(ParseError):
        parse_problem(doc)


def test_problem_encode_round_trip():
    p = worked_problem()
    q = parse_problem(encode_problem(p))
    assert q.spec == p.spec
    assert q.b == p.b
    assert q.source == p.source


def test_parse_eigenvalue_arg():
    assert parse_eigenvalue_arg("2") == gs(2)
    assert parse_eigenvalue_arg("1/2,-1/3") == gs("1/2", "-1/3")
    with pytest.raises(ParseError):
        parse_eigenvalue_arg("1,2,3")


def _verify_files(tmp_path, matrix, vectors):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(matrix))
    vec_path = tmp_path / "v.json"
    vec_path.write_text(json.dumps(vectors))
    return str(matrix_path), str(vec_path)


def test_unreadable_files(tmp_path):
    matrix_path, vec_path = _verify_files(tmp_path, [["2"]], [["1"]])
    missing = str(tmp_path / "absent.json")
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe[")
    for bad in (missing, str(undecodable)):
        for matrix, vectors in ((bad, vec_path), (matrix_path, bad)):
            code, out, err = run_cli(
                "verify", "--matrix", matrix, "--eigenvalue", "2",
                "--vectors", vectors,
            )
            assert code == 2 and out == ""
            assert bad in err
        code, out, err = run_cli("compute", bad)
        assert code == 2 and out == ""
        assert bad in err


def test_verify_vector_length(tmp_path):
    matrix = [["2", "1"], ["0", "2"]]
    for vectors in ([["1", "0", "0"]], [[]], [["1", "0"], ["1"]]):
        matrix_path, vec_path = _verify_files(tmp_path, matrix, vectors)
        code, out, err = run_cli(
            "verify", "--matrix", matrix_path, "--eigenvalue", "2",
            "--vectors", vec_path,
        )
        assert code == 2 and out == ""
        assert "expected 2" in err


def _one_block_doc(size=1, block=0, rank=1, eigenvalue="2", b=("1",)):
    return {
        "blocks": [{"eigenvalue": eigenvalue, "size": size}],
        "b": list(b),
        "source": {"block": block, "rank": rank},
    }


def test_parse_problem_rejects_booleans(tmp_path):
    for kwargs, field in (({"size": True}, "blocks[0].size"),
                          ({"block": False}, "source.block"),
                          ({"rank": True}, "source.rank"),
                          ({"eigenvalue": True}, "blocks[0].eigenvalue"),
                          ({"b": [False]}, "b[0]"),
                          ({"b": [{"re": "1", "im": True}]}, "b[0]")):
        with pytest.raises(ParseError) as exc:
            parse_problem(_one_block_doc(**kwargs))
        assert exc.value.field == field
    path = tmp_path / "p.json"
    for doc, field in ((_one_block_doc(size=True, rank=True),
                        "blocks[0].size"),
                       (_one_block_doc(size=2, eigenvalue=True,
                                       b=[True, False]),
                        "blocks[0].eigenvalue")):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("compute", str(path))
        assert code == 2 and out == ""
        assert field in err


def test_repeated_scalars_are_still_validated(tmp_path):
    # each bad value follows a valid parse of an equal text or number
    two = _one_block_doc(size=2, b=("1", "0"))
    cases = [
        (dict(two, similarity=[[1, True], [0, 1]]), "similarity[0][1]"),
        (dict(two, similarity=[["1", "0"], ["0", 1.0]]), "similarity[1][1]"),
        (dict(two, similarity=[["1", {"re": "1", "im": True}], ["0", "1"]]),
         "similarity[0][1]"),
        (dict(two, similarity=[[1, "0"], ["0", {"re": 1, "im": 0.5}]]),
         "similarity[1][1]"),
        (dict(two, similarity=[[{"re": "1"}, True], ["0", "1"]]),
         "similarity[0][1]"),
        (dict(two, similarity=[["1", "0"], ["1", True]]), "similarity[1][1]"),
        (dict(two, similarity=[["1", "0"], [1, 1.0]]), "similarity[1][1]"),
    ]
    for b, field in ((["1", 1, True], "b[2]"), ([1, 1, 1.0], "b[2]"),
                     (["1e300", "1e300", "1e4301"], "b[2]"),
                     (["1", "1e4301", "1e4301"], "b[1]"),
                     (["1000", 1000, "1_000"], "b[2]"),
                     (["1", "1", " 1 "], "b[2]")):
        cases.append((_one_block_doc(size=3, b=b), field))
    for doc, field in cases:
        with pytest.raises(ParseError) as exc:
            parse_problem(doc)
        assert exc.value.field == field
    # every zero of a parsed similarity and of b is the shared GS_ZERO
    doc = dict(_one_block_doc(size=3, b=["0", 0, {"re": "0", "im": "0"}]),
               similarity=[["1", "0", 0], ["0/3", "1", "-0"],
                           [{"re": "0"}, 0, 1]])
    problem = parse_problem(doc)
    zeros = [z for row in problem.spec.similarity for z in row if not z]
    zeros += [z for z in problem.b if not z]
    assert len(zeros) == 9 and all(z is GS_ZERO for z in zeros)
    matrix_path, vec_path = _verify_files(
        tmp_path, [["2", "0"], ["0", "2"]], [["1", "0"], ["1", True]])
    code, out, err = run_cli("verify", "--matrix", matrix_path,
                             "--eigenvalue", "2", "--vectors", vec_path)
    assert code == 2 and out == ""
    assert "vectors[1][1]" in err


def test_parse_problem_parses_each_distinct_scalar_once(monkeypatch):
    rng = random.Random(5)
    n = 60
    texts = ["1", "-1", "2", "1/3", 3]
    similarity = [
        ["1" if i == j else rng.choice(texts) if j > i and rng.random() < 0.05
         else "0" for j in range(n)]
        for i in range(n)
    ]
    similarity[0], similarity[1] = similarity[1], similarity[0]
    b = [rng.choice(["0", "0", "-2/7", 1]) for _ in range(n)]
    doc = {"blocks": [{"eigenvalue": "2", "size": 40},
                      {"eigenvalue": {"re": "0", "im": "1"}, "size": 20}],
           "similarity": similarity, "b": b,
           "source": {"block": 0, "rank": 3}}
    calls = []

    def counted(obj, field="value"):
        calls.append(field)
        return parse_scalar(obj, field)

    monkeypatch.setattr(problemfile, "parse_scalar", counted)
    problem = parse_problem(doc)
    distinct = {(type(v), v) for row in similarity for v in row}
    assert len(distinct) <= 10
    bound = (len(distinct) + len({(type(v), v) for v in b})
             + len(doc["blocks"]))
    assert len(calls) <= bound
    want = JordanSpec(
        tuple(JordanBlock(parse_scalar(raw["eigenvalue"]), raw["size"])
              for raw in doc["blocks"]),
        tuple(tuple(parse_scalar(v) for v in row) for row in similarity),
    )
    assert problem.spec == want
    assert problem.b == tuple(parse_scalar(v) for v in b)


def test_scalar_beyond_float_range(tmp_path):
    doc = {"blocks": [{"eigenvalue": "0", "size": 3}],
           "source": {"block": 0, "rank": 2}, "b": ["1e400", "3", "0"]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    for mode in ("exact", "float"):
        code, out, err = run_cli("compute", str(path), "--mode", mode)
        assert code == 2 and out == ""
        assert "beyond the range" in err
    # with rank 1 the update factor is linear and needs no floats
    doc["source"]["rank"] = 1
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("compute", str(path))
    assert code == 0 and json.loads(out)["status"] == "PASS"


def test_root_finding_is_time_bounded(tmp_path):
    # f = t^3 + t/D + 1: clearing denominators gives D t^3 + t + D, whose
    # divisor pairs a rational-root search would have to enumerate
    doc = {"blocks": [{"eigenvalue": "0", "size": 4}],
           "source": {"block": 0, "rank": 3},
           "b": ["-1", "-1/735134400", "0", "0"]}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    proc = run_geu_process("compute", str(path), timeout=20)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "PASS"
    assert rep["f"]["monomial"] == ["1", "1/735134400", "0", "1"]
    assert [e.get("numeric") for e in rep["new_eigenvalues"]] == [True] * 3


def test_exact_oracles_at_n24_are_time_bounded(tmp_path):
    # a 24x24 similarity problem whose update factor splits, so every oracle
    # runs: char poly, chain relations and ranks, and the Jordan structure
    problem = random_problem(random.Random(230), 24)
    assert problem.spec.n == 24 and problem.spec.similarity is not None
    path = tmp_path / "n24.json"
    path.write_text(json.dumps(encode_problem(problem)))
    proc = run_geu_process("compute", str(path), timeout=10)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "PASS"
    assert rep["oracle"]["char_poly_identity"]
    assert rep["oracle"]["jordan_structure"] is not None


# Run in a fresh interpreter: which modules `import geu.cli` loads, and
# whether NumPy is loaded after each command.  argv: the problem files
# m1, rejected, wide (m > 1), then the verify matrix and vectors.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import geu.cli
m1, rejected, wide, matrix, vectors = sys.argv[1:]
out = {"modules": sorted(m for m in sys.modules if m.startswith("geu.")),
       "steps": []}
for argv in (["compute", m1], ["compute", rejected],
             ["verify", "--matrix", matrix, "--eigenvalue", "2",
              "--vectors", vectors],
             ["compute", wide], ["compute", m1, "--mode", "float"]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = geu.cli.main(argv)
    out["steps"].append([code, text.getvalue(), "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_numpy_loads_only_when_a_call_computes_in_floats(tmp_path):
    m1 = _one_block_doc(size=3, rank=1, b=("1", "-1/2", "3"))
    m1["similarity"] = [["1", "2", "0"], ["0", "1", "0"], ["1", "0", "1"]]
    paths = []
    for name, doc in (("m1", m1), ("rejected", dict(m1, b=["1", "2"])),
                      ("wide", worked_doc())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    paths += _verify_files(tmp_path, [["2", "1"], ["0", "2"]],
                           [["1", "0"], ["0", "1"]])
    src = Path(geu.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *map(str, paths)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert set(got["modules"]) >= {
        f"geu.{name}" for name in (
            "problemfile", "model", "perturb", "poly", "chains", "oracle",
            "linalg", "floatmode", "report", "scalars", "fuzz", "worked",
            "errors")
    }
    codes, reports, numpy_loaded = zip(*(
        (code, json.loads(out) if out else None, numpy)
        for code, out, numpy in got["steps"]))
    m1_rep, bad_rep, verify_doc, wide_rep, float_rep = reports
    assert codes == (0, 2, 0, 0, 0) and bad_rep is None
    assert m1_rep["status"] == "PASS" and len(m1_rep["f"]["monomial"]) == 2
    assert verify_doc["ranks"] == [1, 2]
    assert wide_rep["status"] == "PASS" and float_rep["status"] == "PASS"
    # an exact m = 1 run, a rejected file and `geu verify` need no floats;
    # the float root finder (m > 1) and float mode load NumPy when they run
    assert numpy_loaded == (False, False, False, True, True)


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_json_exits_2(tmp_path, depth):
    nested = "[" * depth + "]" * depth
    problem = tmp_path / "problem.json"
    problem.write_text(
        '{"blocks": [{"eigenvalue": %s, "size": 1}], "b": ["1"], '
        '"source": {"block": 0, "rank": 1}}' % nested)
    matrix, vectors = _verify_files(tmp_path, [["2"]], [["1"]])
    Path(matrix).write_text("[[%s]]" % nested)
    for argv, path in ((("compute", str(problem)), problem),
                       (("verify", "--matrix", matrix, "--eigenvalue", "2",
                         "--vectors", vectors), matrix)):
        proc = run_geu_process(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"parse error: {path}: JSON nested too deeply\n"
