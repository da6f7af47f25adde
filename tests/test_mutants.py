"""Chains of the wrong length end in FAILED, in exact and float mode.

Each mutant wraps `chains.build_chain` and returns a shorter chain that still
satisfies the chain relation, so only the check of each case's promised
length (r - m for the same block, the block size otherwise) catches it.
"""
import random

import pytest

from geu import chains
from geu.fuzz import random_problem
from geu.report import run_problem


def drop_last_same_block(case, block, vectors):
    return vectors[:-1] if case == chains.SAME_BLOCK else vectors


def empty_distinct_1x1(case, block, vectors):
    if case == chains.DISTINCT_EIGENVALUE and block.size == 1:
        return []
    return vectors


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("mutate", [drop_last_same_block, empty_distinct_1x1])
def test_short_chain_fails(monkeypatch, mode, mutate):
    build = chains.build_chain
    changed = []

    def mutant(problem, case, block_index):
        vectors = build(problem, case, block_index)
        out = mutate(case, problem.spec.blocks[block_index], vectors)
        if len(out) != len(vectors):
            changed.append(case)
        return out

    monkeypatch.setattr(chains, "build_chain", mutant)
    rng = random.Random(1309)
    affected = 0
    for _ in range(40):
        problem = random_problem(rng, 8)
        changed.clear()
        rep = run_problem(problem, mode)
        if changed:
            affected += 1
            assert rep["status"] == "FAILED"
    assert affected >= 5
