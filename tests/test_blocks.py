"""Blockwise evaluation of the exact solvers: same tables at every block size, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from secretarylab import (
    OptimalPolicy,
    ProblemSpec,
    build_tables,
    errors,
    optimal_policy,
    optimal_policy_top3,
    top3_table,
)

BLOCKS = [1, 2, 7, 64]
P_VALUES = [0.0, 0.25, 0.5, 1.0]


def sizes(block, first):
    """n from ``first`` to 300.  At blocks of 1, 2 and 7 (up to 300 blocks per
    table) every n up to 40, then n on either side of block-count boundaries."""
    if block >= 64:
        return range(first, 301)
    return list(range(first, 41)) + [63, 64, 65, 127, 128, 129, 255, 256, 257, 299, 300]


def argmax_policy(values, k0):
    k = int(np.argmax(values))
    return OptimalPolicy(k_n=k0 + k, value=float(values[k]))


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("block", BLOCKS)
def test_reappearance_tables_identical_across_block_sizes(monkeypatch, block, p):
    ns = sizes(block, 2)
    whole = {n: build_tables(ProblemSpec(n=n, p=p)) for n in ns}  # one block at n <= 300
    monkeypatch.setattr(errors, "BLOCK", block)
    for n in ns:
        t, ref = build_tables(ProblemSpec(n=n, p=p)), whole[n]
        for name in ("phi", "psi", "upsilon", "f"):
            assert np.array_equal(getattr(t, name), getattr(ref, name), equal_nan=True), (n, name)
        assert optimal_policy(ProblemSpec(n=n, p=p)) == argmax_policy(ref.f[1:], 1), n


@pytest.mark.parametrize("block", BLOCKS)
def test_top3_table_identical_across_block_sizes(monkeypatch, block):
    ns = sizes(block, 4)
    whole = {n: top3_table(n).prob for n in ns}
    monkeypatch.setattr(errors, "BLOCK", block)
    for n in ns:
        assert np.array_equal(top3_table(n).prob, whole[n]), n
        assert optimal_policy_top3(n) == argmax_policy(whole[n][:n], 0), n


def test_ties_go_to_the_smallest_threshold_across_blocks(monkeypatch):
    monkeypatch.setattr(errors, "BLOCK", 1)
    f = build_tables(ProblemSpec(n=2, p=1.0)).f
    assert f[1] == f[2]
    assert optimal_policy(ProblemSpec(n=2, p=1.0)).k_n == 1
    prob = top3_table(4).prob
    assert prob[0] == prob[1]
    assert optimal_policy_top3(4).k_n == 0


def traced_peak_mib(solve):
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solve,ceiling_mib", [
    pytest.param(optimal_policy_top3, 3.0, id="top3"),
    pytest.param(lambda n: optimal_policy(ProblemSpec(n=n, p=0.0)), 5.0, id="reappearance"),
])
def test_optimal_policy_memory_is_bounded(solve, ceiling_mib):
    # numpy reports its buffers to tracemalloc; a whole table at n = 1e7 is
    # 80 MB per array.  The per-block carries (two floats a block) are all
    # that may grow with n.
    small, large = traced_peak_mib(lambda: solve(10**5)), traced_peak_mib(lambda: solve(10**7))
    assert large <= ceiling_mib
    assert large - small <= 0.25
