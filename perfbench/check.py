"""Output checks that do not let the program grade itself.

Everything here is the benchmark's own arithmetic over pairs of ``Fraction``
(real, imaginary), read from the problem document and the emitted report
text.  Nothing is taken from ``geu.oracle``, ``geu.linalg`` or the report's
own verdicts, except that a report must also say ``"status": "PASS"``.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

# Bound on |f(z)| relative to sum |c_i| |z|^i for a numeric root z of f.
NUMERIC_ROOT_RTOL = 1e-6
# Distance allowed between a float eigenvalue and its recorded reference,
# relative to max(1, |reference|).
REFERENCE_RTOL = 1e-8


def scalar(obj) -> tuple[Fraction, Fraction]:
    """'p/q', an int or {'re': 'p/q', 'im': 'p/q'} as a (re, im) pair."""
    if isinstance(obj, dict):
        return Fraction(obj.get("re", "0")), Fraction(obj.get("im", "0"))
    return Fraction(obj), Fraction(0)


def text(z) -> object:
    """The problem-file encoding of a (re, im) pair."""
    if not z[1]:
        return str(z[0])
    return {"re": str(z[0]), "im": str(z[1])}


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (
        (a[0] * b[0] + a[1] * b[1]) / norm,
        (a[1] * b[0] - a[0] * b[1]) / norm,
    )


def conj(a):
    return (a[0], -a[1])


class Problem:
    """The matrices and vectors a problem document defines."""

    def __init__(self, doc: dict):
        self.blocks = [(scalar(b["eigenvalue"]), b["size"])
                       for b in doc["blocks"]]
        self.n = sum(size for _, size in self.blocks)
        self.offsets = []
        off = 0
        for _, size in self.blocks:
            self.offsets.append(off)
            off += size
        # parsed column by column: float mode only needs the source chain
        self.similarity = doc.get("similarity")
        self.b = [scalar(v) for v in doc["b"]]
        self.src = doc["source"]["block"]
        self.m = doc["source"]["rank"]
        self.lam = self.blocks[self.src][0]
        self.r = self.blocks[self.src][1]

    def chain(self, block: int, rank: int) -> list:
        """Rank-`rank` chain vector of a block: column of S, or unit vector."""
        k = self.offsets[block] + rank - 1
        if self.similarity is None:
            return [ONE if i == k else ZERO for i in range(self.n)]
        return [scalar(row[k]) for row in self.similarity]

    def moment(self, block: int, rank: int):
        acc = ZERO
        for bi, xi in zip(self.b, self.chain(block, rank)):
            if xi[0] or xi[1]:
                acc = add(acc, mul(conj(bi), xi))
        return acc

    def update_factor(self) -> list:
        """Monomial coefficients of (t-lam)^m - sum_{i<m} b*x_{i+1} (t-lam)^i."""
        shifted = [sub(ZERO, self.moment(self.src, i + 1))
                   for i in range(self.m)] + [ONE]
        out = [ZERO] * (self.m + 1)
        power = [ONE]  # (t - lam)^i, low degree first
        for c in shifted:
            for i, p in enumerate(power):
                out[i] = add(out[i], mul(c, p))
            power = [ZERO] + power
            for i in range(len(power) - 1):
                power[i] = sub(power[i], mul(self.lam, power[i + 1]))
        return out

    def updated_matrix(self) -> list:
        """M = S J S^-1 + x_m b*, entrywise."""
        n = self.n
        j_eigs = []
        starts = set(self.offsets)
        for eig, size in self.blocks:
            j_eigs.extend([eig] * size)
        if self.similarity is None:
            a = [[ZERO] * n for _ in range(n)]
            for k in range(n):
                a[k][k] = j_eigs[k]
                if k not in starts:
                    a[k - 1][k] = ONE
        else:
            s = [[scalar(v) for v in row] for row in self.similarity]
            # column k of S J is lam_k S e_k, plus S e_{k-1} inside a block
            sj = [[mul(row[k], j_eigs[k]) if k in starts
                   else add(mul(row[k], j_eigs[k]), row[k - 1])
                   for k in range(n)] for row in s]
            s_inv = inverse(s)
            a = mat_mul(sj, s_inv)
        x = self.chain(self.src, self.m)
        bc = [conj(v) for v in self.b]
        return [[add(a[i][k], mul(x[i], bc[k])) for k in range(n)]
                for i in range(n)]


def inverse(s: list) -> list:
    """Gauss-Jordan inverse of an invertible matrix."""
    n = len(s)
    rows = [list(r) + [ONE if i == k else ZERO for k in range(n)]
            for i, r in enumerate(s)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != ZERO)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [div(v, p) for v in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != ZERO:
                rows[r] = [sub(v, mul(f, w))
                           for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def mat_mul(a: list, b: list) -> list:
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if (x[0] or x[1]) and (y[0] or y[1]):
                    acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(a: list, v: list) -> list:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if (x[0] or x[1]) and (y[0] or y[1]):
                acc = add(acc, mul(x, y))
        out.append(acc)
    return out


def divide_root(coeffs: list, z):
    """(quotient, remainder) of coeffs (low degree first) by (t - z)."""
    high = list(reversed(coeffs))
    out = [high[0]]
    for c in high[1:]:
        out.append(add(c, mul(out[-1], z)))
    rem = out.pop()
    return list(reversed(out)), rem


def expected_cases(p: Problem) -> list:
    """(case, block, eigenvalue) of every chain the report must cover."""
    out = []
    if p.r - p.m >= 1:
        out.append(("same_block", p.src, p.lam))
    for i, (eig, _) in enumerate(p.blocks):
        if i == p.src:
            continue
        if eig == p.lam:
            out.append(("other_block", i, p.lam))
        else:
            out.append(("distinct_eigenvalue", i, eig))
    return out


def _numeric_root_ok(coeffs: list, z: complex) -> bool:
    cs = [complex(float(c[0]), float(c[1])) for c in coeffs]
    value = sum(c * z**i for i, c in enumerate(cs))
    scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(cs))
    return abs(value) <= NUMERIC_ROOT_RTOL * max(scale, 1.0)


def _check_factor(p: Problem, rep: dict, bad: list) -> list:
    """Compare the reported f with the document's; returns f's coefficients."""
    f = p.update_factor()
    if [scalar(c) for c in rep["f"]["monomial"]] != f:
        bad.append("update factor f differs from the document's moments")
    moments = [p.moment(p.src, j) for j in range(1, p.m + 1)]
    if [scalar(c) for c in rep["f"]["moments"]] != moments:
        bad.append("reported moments differ from b* x_j")
    return f


def check_exact(doc: dict, rep: dict) -> list[str]:
    """Reasons an exact-mode report is wrong; empty when it checks out."""
    bad = []
    if rep.get("status") != "PASS":
        bad.append(f"status {rep.get('status')!r}")
    p = Problem(doc)
    f = _check_factor(p, rep, bad)
    eigs = rep["new_eigenvalues"]
    if sum(e["multiplicity"] for e in eigs) != p.m:
        bad.append("new eigenvalue multiplicities do not sum to m")
    for e in eigs:
        if e.get("numeric"):
            if not _numeric_root_ok(f, complex(*e["value"])):
                bad.append(f"numeric eigenvalue {e['value']} is not a root")
            continue
        z = scalar(e["value"])
        rest = f
        for _ in range(e["multiplicity"]):
            rest, rem = divide_root(rest, z)
            if rem != ZERO:
                bad.append(f"{e['value']} is not a root of f with "
                           f"multiplicity {e['multiplicity']}")
                break
    want = expected_cases(p)
    got = [(c["case"], c["block"]) for c in rep["chains"]]
    if got != [(case, block) for case, block, _ in want]:
        bad.append(f"chain cases {got} != {[w[:2] for w in want]}")
        return bad
    m = p.updated_matrix()
    for (case, block, eig), entry in zip(want, rep["chains"]):
        vectors = entry.get("vectors")
        if vectors is None:
            continue  # degenerate: reported, not produced
        prev = [ZERO] * p.n
        for t, cv in enumerate(vectors, start=1):
            v = [scalar(x) for x in cv["vector"]]
            if cv["rank"] != t or scalar(cv["eigenvalue"]) != eig:
                bad.append(f"{case}[{block}] vector {t}: rank or eigenvalue")
                break
            if t == 1 and all(x == ZERO for x in v):
                bad.append(f"{case}[{block}]: v_1 is zero")
                break
            mv = mat_vec(m, v)
            if any(mv[i] != add(mul(eig, v[i]), prev[i]) for i in range(p.n)):
                bad.append(f"{case}[{block}]: M v_{t} != mu v_{t} + v_{t - 1}")
                break
            prev = v
    structure = rep["oracle"].get("jordan_structure")
    if structure is not None and sum(
        sum(e["block_sizes"]) for e in structure
    ) != p.n:
        bad.append("recovered Jordan structure does not cover n")
    return bad


def check_float(doc: dict, rep: dict) -> list[str]:
    """Reasons a float-mode report is wrong; empty when it checks out."""
    bad = []
    if rep.get("status") != "PASS":
        bad.append(f"status {rep.get('status')!r}")
    p = Problem(doc)
    f = p.update_factor()
    eigs = rep["new_eigenvalues"]
    if len(eigs) != p.m:
        bad.append(f"{len(eigs)} new eigenvalues, expected m = {p.m}")
    for re, im in eigs:
        if not _numeric_root_ok(f, complex(re, im)):
            bad.append(f"new eigenvalue {re}+{im}i is not a root of f")
    want = [(case, block) for case, block, _ in expected_cases(p)]
    got = [(c["case"], c["block"]) for c in rep["chains"]]
    if got != want:
        bad.append(f"chain cases {got} != {want}")
    return bad


def check_report(doc: dict, rep: dict) -> list[str]:
    if rep.get("mode") == "float":
        return check_float(doc, rep)
    return check_exact(doc, rep)


def fingerprint(rep: dict) -> dict:
    """Digest of the mathematical fields, plus the float values they omit.

    Prose such as degenerate reasons is left out, so rewording it does not
    count as a changed answer.  Float eigenvalues are compared within
    REFERENCE_RTOL instead of bit for bit.
    """
    numeric = []
    if rep["mode"] == "float":
        numeric = [list(z) for z in rep["new_eigenvalues"]]
        fields = {
            "chains": [[c["case"], c["block"], c.get("ranks")]
                       for c in rep["chains"]],
        }
    else:
        exact = []
        for e in rep["new_eigenvalues"]:
            if e.get("numeric"):
                numeric.append(list(e["value"]))
                exact.append(["numeric", e["multiplicity"]])
            else:
                exact.append([e["value"], e["multiplicity"]])
        fields = {
            "f": rep["f"],
            "new_eigenvalues": exact,
            "chains": [[c["case"], c["block"], c.get("vectors")]
                       for c in rep["chains"]],
            "jordan_structure": rep["oracle"].get("jordan_structure"),
        }
    text_ = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text_.encode()).hexdigest(),
        "numeric": numeric,
    }


def compare_fingerprint(got: dict, want: dict) -> list[str]:
    bad = []
    if got["digest"] != want["digest"]:
        bad.append("mathematical fields differ from the reference")
    if len(got["numeric"]) != len(want["numeric"]):
        bad.append("number of float eigenvalues differs from the reference")
        return bad
    for z, w in zip(got["numeric"], want["numeric"]):
        if abs(complex(*z) - complex(*w)) > REFERENCE_RTOL * max(
            1.0, abs(complex(*w))
        ):
            bad.append(f"float eigenvalue {z} differs from reference {w}")
    return bad


def documents_digest(docs: list[dict]) -> str:
    text_ = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text_.encode()).hexdigest()


def check_golden(rep: dict, golden: dict) -> list[str]:
    """Compare the worked-example report with ``geu.worked.GOLDEN``."""

    def enc(g):
        return text((g.re, g.im))

    bad = []
    if rep.get("status") != "PASS":
        bad.append("worked example status")
    if rep["f"]["monomial"] != [enc(c) for c in golden["f_monomial"]]:
        bad.append("worked example f")
    if rep["f"]["moments"] != [enc(c) for c in golden["moments"]]:
        bad.append("worked example moments")
    got = sorted(json.dumps(e["value"]) for e in rep["new_eigenvalues"])
    want = sorted(json.dumps(enc(v)) for v in golden["new_eigenvalues"])
    if got != want:
        bad.append("worked example new eigenvalues")
    tables = {c["case"]: c for c in rep["chains"] if "vectors" in c}
    for case, key in (("same_block", "same_block"),
                      ("other_block", "other_block"),
                      ("distinct_eigenvalue", "distinct")):
        if case not in tables:
            bad.append(f"worked example {case} chain missing")
            continue
        coeffs = tables[case]["vectors"][-1]["coefficients"]
        for (t, j), v in golden[key].items():
            if coeffs.get(f"{t},{j}") != enc(v):
                bad.append(f"worked example {case} coefficient {t},{j}")
    blocks = sorted(
        (json.dumps(e["eigenvalue"]), s)
        for e in rep["oracle"]["jordan_structure"] or []
        for s in e["block_sizes"]
    )
    if blocks != sorted((json.dumps(enc(eig)), s)
                        for eig, s in golden["structure"]):
        bad.append("worked example Jordan structure")
    return bad
