"""Command-line front end: compute, verify, example, fuzz."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fuzz as fuzz_mod
from . import oracle, report, worked
from .errors import GeuError, ParseError
from .problemfile import (
    load_matrix,
    load_problem,
    load_vectors,
    parse_eigenvalue_arg,
)
from .scalars import encode_scalar


def _emit(doc: dict, output: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise GeuError(f"{output}: {exc.strerror}")
    else:
        print(text)


def cmd_compute(args) -> int:
    problem = load_problem(args.input)
    rep = report.run_problem(
        problem,
        mode=args.mode,
        which_chains=args.chains,
        tolerance=args.tolerance,
    )
    _emit(rep, args.output)
    return 0 if rep["status"] == "PASS" else 1


def _golden_mismatches(rep: dict) -> list[str]:
    g = worked.GOLDEN
    bad = []
    if rep["f"]["monomial"] != [encode_scalar(c) for c in g["f_monomial"]]:
        bad.append("update factor coefficients")
    got_eigs = {e["value"] for e in rep["new_eigenvalues"]}
    if got_eigs != {encode_scalar(v) for v in g["new_eigenvalues"]}:
        bad.append("new eigenvalues")
    tables = {c["case"]: c for c in rep["chains"] if "vectors" in c}
    for case, key in (
        ("same_block", "same_block"),
        ("other_block", "other_block"),
        ("distinct_eigenvalue", "distinct"),
    ):
        want = {
            f"{t},{j}": encode_scalar(v) for (t, j), v in g[key].items()
        }
        got = tables[case]["vectors"][-1]["coefficients"]
        for k, v in want.items():
            if got.get(k) != v:
                bad.append(f"{case} coefficient {k}")
    structure = rep["oracle"]["jordan_structure"]
    got_blocks = sorted(
        (e["eigenvalue"] if isinstance(e["eigenvalue"], str)
         else json.dumps(e["eigenvalue"]), s)
        for e in (structure or [])
        for s in e["block_sizes"]
    )
    want_blocks = sorted(
        (encode_scalar(eig), s) for eig, s in worked.GOLDEN["structure"]
    )
    if got_blocks != want_blocks:
        bad.append("recovered Jordan structure")
    if rep["status"] != "PASS":
        bad.append("oracle verdicts")
    return bad


def cmd_example(args) -> int:
    problem = worked.worked_problem()
    rep = report.run_problem(problem)
    bad = _golden_mismatches(rep)
    rep["golden"] = "PASS" if not bad else f"FAILED: {', '.join(bad)}"
    _emit(rep, args.output)
    return 0 if not bad else 1


def cmd_verify(args) -> int:
    matrix = load_matrix(args.matrix)
    vectors = load_vectors(args.vectors)
    for i, v in enumerate(vectors):
        if len(v) != len(matrix):
            raise ParseError(
                f"vectors[{i}]: length {len(v)}, expected {len(matrix)}",
                field=f"vectors[{i}]",
            )
    eig = parse_eigenvalue_arg(args.eigenvalue)
    verdict = oracle.verify_chain(matrix, eig, vectors)
    doc = {
        "chain_relation": verdict.ok,
        "failed_index": verdict.failed_index,
        "message": verdict.message,
    }
    if verdict.ok:
        doc["ranks"] = oracle.chain_ranks(matrix, eig, vectors)
    _emit(doc, args.output)
    return 0 if verdict.ok else 1


def cmd_fuzz(args) -> int:
    summary = fuzz_mod.run_fuzz(args.seed, args.count, args.n_max)
    sys.stdout.write(fuzz_mod.format_summary(summary))
    return 0 if not summary["failures"] else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geu",
        description=(
            "Eigenvalues and generalized-eigenvector chains of rank-one "
            "updated matrices, with exact oracle verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run a problem file end to end")
    p.add_argument("input", help="problem JSON file")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative residual bound (float mode)")
    p.add_argument("--output", default=None)
    p.add_argument("--chains", choices=["all", "same", "other", "distinct"],
                   default="all")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("example", help="run the bundled 11x11 worked example")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="check a chain against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--eigenvalue", required=True,
                   help="'p/q' or 'p/q,p/q' (real,imag)")
    p.add_argument("--vectors", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="random differential testing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GeuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
