"""Reports on a fixed fuzz set match a recorded digest.

Exact reports are hashed byte for byte as sort_keys JSON, except the values
of numeric roots (`"numeric": true`), which are compared within 1e-9.  Float
reports contribute their status, cases, degeneracies and ranks.  After a
change that alters reports on purpose, rerun this file as a script to
re-record `report_digest.json`, and say why in CHANGES.md.
"""
import hashlib
import json
import random
from pathlib import Path

from geu.fuzz import random_problem
from geu.report import run_problem

RECORD = Path(__file__).with_name("report_digest.json")
SEED = 1309
COUNT = 300


def digest() -> dict:
    rng = random.Random(SEED)
    exact = hashlib.sha256()
    floats = hashlib.sha256()
    numeric = []
    for _ in range(COUNT):
        problem = random_problem(rng, 8)
        rep = run_problem(problem)
        for root in rep["new_eigenvalues"]:
            if root.get("numeric"):
                numeric.append(root.pop("value"))
        exact.update(json.dumps(rep, sort_keys=True).encode() + b"\n")
        frep = run_problem(problem, mode="float")
        summary = [frep["status"]] + [
            [c["case"], c["block"], "degenerate" in c, c.get("ranks")]
            for c in frep["chains"]
        ]
        floats.update(json.dumps(summary).encode() + b"\n")
    return {
        "seed": SEED,
        "count": COUNT,
        "exact_sha256": exact.hexdigest(),
        "float_sha256": floats.hexdigest(),
        "numeric_roots": numeric,
    }


def test_reports_match_record():
    want = json.loads(RECORD.read_text())
    got = digest()
    assert (got["seed"], got["count"]) == (want["seed"], want["count"])
    assert got["exact_sha256"] == want["exact_sha256"]
    assert got["float_sha256"] == want["float_sha256"]
    assert len(got["numeric_roots"]) == len(want["numeric_roots"])
    for z, w in zip(got["numeric_roots"], want["numeric_roots"]):
        assert abs(complex(*z) - complex(*w)) <= 1e-9 * max(1.0, abs(complex(*w)))


if __name__ == "__main__":
    RECORD.write_text(json.dumps(digest()) + "\n")
