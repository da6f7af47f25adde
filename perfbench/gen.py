"""Seeded problem documents for the benchmark workloads.

Documents follow the README's problem-file format.  Everything is drawn
from ``random.Random`` with plain ints and ``Fraction`` so the workloads do
not depend on ``geu.fuzz`` (or on any other part of the package): a refactor
of the program cannot silently change what is measured.
"""
from __future__ import annotations

import random
from fractions import Fraction

EIG_POOL = (-2, -1, 0, 1, 2, 3)


def enc(q) -> str:
    """'p/q' text of a rational, as the problem-file format writes it."""
    return str(Fraction(q))


def _partition(rng: random.Random, n: int) -> list[int]:
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    rng.shuffle(sizes)
    return sizes


def _eigenvalues(rng: random.Random, count: int) -> list[int]:
    """Small integers with repeats, so same-eigenvalue blocks are common."""
    chosen: list[int] = []
    out = []
    for _ in range(count):
        if chosen and rng.random() < 0.35:
            eig = rng.choice(chosen)
        else:
            eig = rng.choice(EIG_POOL)
            chosen.append(eig)
        out.append(eig)
    return out


def unimodular(rng: random.Random, n: int, ops: int) -> list[list[int]]:
    """Identity after `ops` random row additions with multipliers +-1, +-2."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.choice((-2, -1, 1, 2))
        rj = rows[j]
        rows[i] = [a + k * b for a, b in zip(rows[i], rj)]
    return rows


def _document(rng, sizes, eigs, similarity, block, rank) -> dict:
    n = sum(sizes)
    b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    return {
        "blocks": [
            {"eigenvalue": enc(e), "size": s} for e, s in zip(eigs, sizes)
        ],
        "similarity": (
            None if similarity is None
            else [[enc(v) for v in row] for row in similarity]
        ),
        "source": {"block": block, "rank": rank},
        "b": [enc(v) for v in b],
    }


# Each generator returns one round: a few documents whose mix is fixed, so
# that a run which stops between rounds always holds the same share of each
# kind of problem.  The seed draws everything else.


def sweep_small(rng: random.Random) -> list[dict]:
    """The fuzz distribution: n = 2..8, half with a similarity.

    Fuzz draws n uniformly from 2..8, a similarity with probability 1/2 and
    the source rank m uniformly up to the source block's size.  A round
    takes every n four times: with and without a similarity, each once with
    m = 1 and once with m > 1 (partition and source block drawn as fuzz
    draws them, again until the block has room for m > 1).  Whether m = 1
    sets most of a problem's cost: m = 1 runs the Jordan-structure oracle.
    So a round holds the same mix of costs whatever the seed, and the
    median and slowest few percent of a run are the same kind of problem;
    m = 1 takes half of each n, where fuzz gives it 55-75%.
    """
    kinds = [(n, sim, rank_one) for n in range(2, 9) for sim in (False, True)
             for rank_one in (True, False)]
    rng.shuffle(kinds)
    out = []
    for n, with_similarity, rank_one in kinds:
        while True:
            sizes = _partition(rng, n)
            block = rng.randrange(len(sizes))
            if rank_one or sizes[block] > 1:
                break
        rank = 1 if rank_one else rng.randint(2, sizes[block])
        eigs = _eigenvalues(rng, len(sizes))
        sim = unimodular(rng, n, 2 * n) if with_similarity else None
        out.append(_document(rng, sizes, eigs, sim, block, rank))
    return out


def float_large(rng: random.Random) -> list[dict]:
    """n near 200 without a similarity, near 300 and 400 with one.

    The exact determinant that validates a similarity grows as n^3, so n is
    held to narrow bands instead of drawn from the whole range; a run then
    holds the same mix of sizes whatever the seed.  The similarity gets n
    row additions (fuzz uses 2n), which keeps its fill-in, and so that
    determinant, within seconds at n = 400.  Two of the three problems
    carry a similarity, so the median problem is one that parses and
    validates a dense similarity, the path this workload exists to measure.
    """
    out = []
    for base, with_similarity in ((200, False), (300, True), (400, True)):
        n = min(400, max(200, base + rng.randint(-4, 4)))
        sizes = []
        left = n
        while left:
            s = min(left, rng.randint(1, 60))
            sizes.append(s)
            left -= s
        rng.shuffle(sizes)
        eigs = _eigenvalues(rng, len(sizes))
        sim = unimodular(rng, n, n) if with_similarity else None
        block = rng.randrange(len(sizes))
        rank = rng.randint(1, min(sizes[block], 4))
        out.append(_document(rng, sizes, eigs, sim, block, rank))
    return out


GENERATORS = {
    "sweep_small": sweep_small,
    "float_large": float_large,
}


def rounds(workload: str, seed: int | str):
    """Endless stream of rounds (lists of documents) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = GENERATORS[workload]
    while True:
        yield make(rng)
