"""Kernel work of the CLI commands and the moduli scans, pinned as
formulas in n.

The euclidean provider's kernel is wrapped to count its output elements,
one per distance computed.  The counts are exact and do not depend on the
machine, so an extra O(n^2) scan shows here even when a timing would hide
it.  Each count is pinned at two sizes as a formula in n and
``metric._BLOCK_ELEMENTS``; a change that lowers one edits its formula.
"""

import dataclasses
import json

import numpy as np
import pytest

from chainscope import (
    ChainGraph,
    ScalarFunction,
    build_space,
    cli,
    equi_chain_continuity_check,
    local_lipschitz_profile,
    metric,
)


def half_scan(n):
    """One distance per unordered pair: the scale tree's dense Prim."""
    return n * (n - 1) // 2


def square_scan(n, width):
    """A square ``pair_blocks`` scan: each block of rows meets the columns
    from its own first row on and computes that rectangle whole."""
    block = metric._BLOCK_ELEMENTS // (n * width)
    return sum(min(block, n - s) * (n - s) for s in range(0, n, block))


def stacked_balls(sizes, pairs):
    """The local profile's stacks over one row block's ball sizes: balls
    of two or more points by ascending size, as many a stack as fit in
    ``pairs`` at the size of its largest, each padded to that size; a
    stack over ``pairs`` (one ball) goes in row chunks, each against the
    columns from its own first row on."""
    sizes = sorted(s for s in sizes if s >= 2)
    work, i = 0, 0
    while i < len(sizes):
        j = i + 1
        while j < len(sizes) and (j - i + 1) * sizes[j] ** 2 <= pairs:
            j += 1
        count, width = j - i, sizes[j - 1]
        step = max(1, pairs // (count * width))
        work += count * sum(min(step, width - k) * (width - k)
                            for k in range(0, width, step))
        i = j
    return work


# the range check measures the per-coordinate spread as one distance
RANGE_CHECK = 1


@pytest.fixture
def kernel_counts(monkeypatch):
    """Wrap the euclidean kernel; each call appends its output size to the
    returned list.  Spaces built after the wrap are counted."""
    record = metric._PROVIDERS["euclidean"]
    counts = []

    def counted(coords, param, ii, jj):
        out = record.kernel(coords, param, ii, jj)
        counts.append(out.size)
        return out

    monkeypatch.setitem(metric._PROVIDERS, "euclidean",
                        dataclasses.replace(record, kernel=counted))
    return counts


@pytest.fixture
def kernel_elements(kernel_counts, capsys):
    """Run one CLI call and return the distances its kernel computed."""

    def run(*argv):
        kernel_counts.clear()
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        return sum(kernel_counts)

    return run


@pytest.mark.parametrize("n", [400, 1000])
def test_command_kernel_work_follows_its_formula(n, tmp_path, kernel_elements):
    # both sizes take several row blocks of the default budget
    assert metric._BLOCK_ELEMENTS // (2 * n) < n
    pts = np.random.default_rng(1).uniform(0, 1, (n, 2))
    path = tmp_path / "points.jsonl"
    lines = [{"provider": "euclidean", "param": 2}] + [
        {"id": i, "coords": {"0": x, "1": y}} for i, (x, y) in enumerate(pts)
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    eps = "0.05"
    space = build_space(pts, "euclidean(2)")
    parts = ChainGraph(space, float(eps)).components()

    # the tree, then diameter and min_positive_distance, one square scan each
    assert kernel_elements("space", "--points", str(path)) == (
        RANGE_CHECK + half_scan(n) + 2 * square_scan(n, 2))
    # the tree, then the profile's neighbour scan: the full square of each
    # component of two or more points, every pair measured twice
    assert kernel_elements("chains", "--points", str(path), "--eps", eps,
                           "--profile") == RANGE_CHECK + half_scan(n) + sum(
        len(c) ** 2 for c in parts if len(c) > 1)
    # the partition functions' rows against all columns
    values = json.dumps((np.sin(7 * pts[:, 0]) + pts[:, 1]).tolist())
    assert kernel_elements("approx", "--points", str(path), "--eps", "0.5",
                           "--function", values) == RANGE_CHECK + n * n


@pytest.mark.parametrize("n", [400, 1000])
def test_moduli_kernel_work_follows_its_formula(n, kernel_counts):
    assert metric._BLOCK_ELEMENTS // (2 * n) < n
    pts = np.random.default_rng(1).uniform(0, 1, (n, 2))
    space = build_space(pts, "euclidean(2)")
    # three waves of range [-0.4, 0.4]: at eps 0.5 a value within 0.1 of
    # 0 has no far value, so some rows have no far point for any wave
    waves = 0.4 * np.sin(np.outer([3.0, 5.0, 7.0], pts[:, 0]) + pts[:, 1])
    family = [ScalarFunction(space, w) for w in waves]
    lo, hi = waves.min(axis=1)[:, None], waves.max(axis=1)[:, None]
    live = ((hi - waves >= 0.5) | (waves - lo >= 0.5)).any(axis=0).sum()
    assert 0 < live < n

    # the rows with a far point against every column; the tiers and the
    # fallback read those rows, so the budget does not enter
    kernel_counts.clear()
    assert equi_chain_continuity_check(family, 0.5).passed
    assert sum(kernel_counts) == live * n

    # the full rows, then each row block's balls in stacks
    delta = 0.25
    sizes = (space.distance_matrix() < delta).sum(axis=1).tolist()
    block = metric._BLOCK_ELEMENTS // (2 * n)
    pairs = metric._BLOCK_ELEMENTS // 2
    kernel_counts.clear()
    local_lipschitz_profile(family[0], delta)
    assert sum(kernel_counts) == n * n + sum(
        stacked_balls(sizes[s:s + block], pairs) for s in range(0, n, block))
