"""JSON problem/matrix/vector file parsing and encoding.

All scalars are exact: 'p/q' strings for rationals, {re, im} objects for
complex values.  Floats are rejected so golden outputs stay bit-exact.
A repeated scalar text (a 'p/q' string or a JSON integer) is parsed once per
document: similarities are mostly zeros drawn from a handful of texts.  Every
zero of a parsed vector or matrix is the shared GS_ZERO, which linalg.nonzeros
skips by identity.
"""
from __future__ import annotations

import json
from itertools import compress, count, repeat
from operator import is_

from . import linalg
from .errors import ParseError
from .linalg import Matrix, Vector
from .model import ChainLocator, JordanBlock, JordanSpec, validate_spec
from .perturb import PerturbationProblem
from .scalars import GS_ZERO, GaussScalar, encode_scalar, parse_scalar


def _require(cond: bool, message: str, field: str):
    if not cond:
        raise ParseError(f"{field}: {message}", field=field)


def _is_int(obj) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(obj, int) and not isinstance(obj, bool)


# Integers are memoized under (_INT, v): no decoded JSON value equals it.
_INT = object()


def parse_vector(obj, field: str, memo: dict) -> Vector:
    """The scalars of a JSON list.

    memo maps each 'p/q' string parsed so far in the document, and (_INT, v)
    for each integer v, to its GaussScalar, with the shared GS_ZERO for every
    zero.  A row is looked up by its strings in one pass; a str key never
    equals a bool, float, int or {re, im} object, so those, and every miss,
    go through parse_scalar, and what it rejects is rejected at its own index.
    """
    _require(isinstance(obj, list), "expected a list of scalars", field)
    try:
        out = list(map(memo.get, obj))
    except TypeError:  # an unhashable value: an {re, im} object or a list
        out = [None] * len(obj)
    for i in list(compress(count(), map(is_, out, repeat(None)))):
        v = obj[i]
        t = type(v)
        key = v if t is str else (_INT, v) if t is int else None
        z = None if key is None else memo.get(key)
        if z is None:
            z = parse_scalar(v, field=f"{field}[{i}]") or GS_ZERO
            if key is not None:
                memo[key] = z
        out[i] = z
    return tuple(out)


def parse_matrix(obj, field: str, memo: dict) -> Matrix:
    _require(isinstance(obj, list) and obj, "expected a list of rows", field)
    rows = tuple(
        parse_vector(r, f"{field}[{i}]", memo) for i, r in enumerate(obj)
    )
    width = len(rows[0])
    _require(
        all(len(r) == width for r in rows), "ragged rows", field
    )
    return rows


def parse_problem(doc: dict) -> PerturbationProblem:
    _require(isinstance(doc, dict), "expected a JSON object", "")
    _require("blocks" in doc, "missing", "blocks")
    _require(isinstance(doc["blocks"], list) and doc["blocks"],
             "expected a nonempty list", "blocks")
    blocks = []
    for i, raw in enumerate(doc["blocks"]):
        field = f"blocks[{i}]"
        _require(isinstance(raw, dict), "expected an object", field)
        _require("size" in raw, "missing size", f"{field}.size")
        size = raw["size"]
        _require(_is_int(size) and size >= 1,
                 "size must be a positive integer", f"{field}.size")
        eig = parse_scalar(raw.get("eigenvalue", "0"), f"{field}.eigenvalue")
        blocks.append(JordanBlock(eig, size))
    memo = {}
    similarity = None
    if doc.get("similarity") is not None:
        similarity = parse_matrix(doc["similarity"], "similarity", memo)
    spec = JordanSpec(tuple(blocks), similarity)
    validate_spec(spec)

    _require("source" in doc and isinstance(doc["source"], dict),
             "missing source object", "source")
    src = doc["source"]
    block_index = src.get("block")
    _require(_is_int(block_index)
             and 0 <= block_index < len(blocks),
             f"must be an index in [0, {len(blocks)})", "source.block")
    rank = src.get("rank")
    _require(_is_int(rank) and rank >= 1,
             "must be a positive integer", "source.rank")
    _require(rank <= blocks[block_index].size,
             f"exceeds block size {blocks[block_index].size}", "source.rank")

    _require("b" in doc, "missing", "b")
    b = parse_vector(doc["b"], "b", memo)
    _require(len(b) == spec.n, f"length {len(b)}, expected {spec.n}", "b")
    return PerturbationProblem(spec, ChainLocator(block_index, rank), b)


def _read_json(path: str):
    """The decoded JSON document in a file; ParseError when unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ParseError(f"{path}: invalid JSON ({exc})")
    except RecursionError:  # arrays or objects nested past the stack
        raise ParseError(f"{path}: JSON nested too deeply")


def load_problem(path: str) -> PerturbationProblem:
    return parse_problem(_read_json(path))


def encode_problem(problem: PerturbationProblem) -> dict:
    spec = problem.spec
    doc = {
        "blocks": [
            {"eigenvalue": encode_scalar(b.eigenvalue), "size": b.size}
            for b in spec.blocks
        ],
        "b": [encode_scalar(v) for v in problem.b],
        "source": {
            "block": problem.source.block_index,
            "rank": problem.source.rank,
        },
    }
    if spec.similarity is not None:
        doc["similarity"] = [
            [encode_scalar(v) for v in row] for row in spec.similarity
        ]
    return doc


def load_matrix(path: str) -> Matrix:
    m = parse_matrix(_read_json(path), "matrix", {})
    _require(len(m) == len(m[0]), "matrix must be square", "matrix")
    return m


def load_vectors(path: str) -> list[Vector]:
    doc = _read_json(path)
    _require(isinstance(doc, list) and doc, "expected a list of vectors",
             "vectors")
    memo = {}
    return [parse_vector(v, f"vectors[{i}]", memo) for i, v in enumerate(doc)]


def parse_eigenvalue_arg(text: str) -> GaussScalar:
    """CLI eigenvalue argument: 'p/q' or 'p/q,p/q' (real,imag)."""
    parts = text.split(",")
    if len(parts) == 1:
        return parse_scalar(parts[0], "eigenvalue")
    if len(parts) == 2:
        return parse_scalar({"re": parts[0], "im": parts[1]}, "eigenvalue")
    raise ParseError("eigenvalue: expected 'p/q' or 'p/q,p/q'",
                     field="eigenvalue")
