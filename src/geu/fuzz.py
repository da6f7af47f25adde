"""Seeded random problem generation and the differential-fuzz loop."""
from __future__ import annotations

import random
from fractions import Fraction

from . import linalg, report
from .errors import GeuError
from .model import ChainLocator, JordanBlock, JordanSpec
from .perturb import PerturbationProblem
from .scalars import gs


def random_problem(rng: random.Random, n_max: int = 8,
                   allow_complex: bool = False) -> PerturbationProblem:
    """A random Jordan spec, source locator, and rational b.

    Eigenvalues are small integers drawn from a short list with repeats, so
    same-eigenvalue second blocks occur regularly.  Half the specs get a
    random unimodular integer similarity.
    """
    n = rng.randint(2, n_max)
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    rng.shuffle(sizes)
    pool = [-2, -1, 0, 1, 2, 3]
    chosen: list = []
    blocks = []
    for s in sizes:
        if chosen and rng.random() < 0.35:
            eig = rng.choice(chosen)
        else:
            re = rng.choice(pool)
            im = rng.choice([0, 0, 0, 1, -1]) if allow_complex else 0
            eig = gs(re, im)
            chosen.append(eig)
        blocks.append(JordanBlock(eig, s))
    similarity = None
    if rng.random() < 0.5:
        similarity = _random_unimodular(rng, n)
    spec = JordanSpec(tuple(blocks), similarity)
    block_index = rng.randrange(len(blocks))
    rank = rng.randint(1, blocks[block_index].size)
    b = tuple(
        gs(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(n)
    )
    return PerturbationProblem(spec, ChainLocator(block_index, rank), b)


def _random_unimodular(rng: random.Random, n: int):
    rows = [[gs(1) if i == j else gs(0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = gs(rng.choice([-2, -1, 1, 2]))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return linalg.as_matrix(rows)


def run_fuzz(seed: int, count: int, n_max: int = 8) -> dict:
    """Deterministic fuzz sweep; returns counts and sorted failure indices."""
    if n_max < 2 or count < 0:
        raise GeuError(f"fuzz needs n_max >= 2 and count >= 0, got "
                       f"n_max={n_max}, count={count}")
    rng = random.Random(seed)
    passes = 0
    degenerate = 0
    failures = []
    for idx in range(count):
        problem = random_problem(rng, n_max)
        rep = report.run_problem(problem)
        if rep["status"] == "PASS":
            passes += 1
        else:
            failures.append(idx)
        degenerate += sum(
            1 for c in rep["chains"] if "degenerate" in c
        )
    return {
        "seed": seed,
        "count": count,
        "n_max": n_max,
        "passes": passes,
        "degenerate_chains": degenerate,
        "failures": sorted(failures),
    }


def format_summary(summary: dict) -> str:
    lines = [
        f"seed={summary['seed']} count={summary['count']} n_max={summary['n_max']}",
        f"passes={summary['passes']}",
        f"degenerate_chains={summary['degenerate_chains']}",
        f"failures={summary['failures']}",
    ]
    return "\n".join(lines) + "\n"
