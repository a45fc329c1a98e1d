"""Kernel work of the CLI commands, pinned as formulas in n.

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

from chainscope import ChainGraph, build_space, cli, metric


def half_scan(n):
    """One distance per unordered pair: the scale tree's dense Prim."""
    return n * (n - 1) // 2


def square_scan(n, width):
    """A square ``pair_blocks`` scan: each block of rows meets the columns
    from its own first row on and computes that rectangle whole."""
    block = metric._BLOCK_ELEMENTS // (n * width)
    return sum(min(block, n - s) * (n - s) for s in range(0, n, block))


# the range check measures the per-coordinate spread as one distance
RANGE_CHECK = 1


@pytest.fixture
def kernel_elements(monkeypatch, capsys):
    """Run one CLI call and return the distances its kernel computed."""
    record = metric._PROVIDERS["euclidean"]
    counts = []

    def counted(coords, param, ii, jj):
        out = record.kernel(coords, param, ii, jj)
        counts.append(out.size)
        return out

    monkeypatch.setitem(metric._PROVIDERS, "euclidean",
                        dataclasses.replace(record, kernel=counted))

    def run(*argv):
        counts.clear()
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        return sum(counts)

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
