"""Walk a chained arrangement of segments from separation to connectivity.

The space is a snake of unit segments in the sup norm: segment m runs
from basis direction e_m to e_{m+1}, sampled at m+1 steps, sharing its
endpoints with its neighbors.  Any two non-adjacent segments sit at
distance 1/2 from each other, yet consecutive samples get arbitrarily
close as m grows.  That combination is what chain connectivity is for:
no single small ball joins the far segments, but a chain of small hops
does.
"""

import itertools

from chainscope.chains import (
    ChainGraph, ball_layers, covering_profile, find_chain,
)
from chainscope.fixtures import make_fixture
from chainscope.harness import chainability_threshold


def far_pair_separation(fx):
    members = fx.meta["members"]
    best = {}
    for i, j in itertools.combinations(sorted(members), 2):
        if j - i < 2:
            continue
        best[(i, j)] = min(
            fx.space.distance(a, b)
            for a in members[i]
            for b in members[j]
        )
    return best


def main():
    fx = make_fixture("segment-chain", n=12, subdiv=1)
    space = fx.space
    print(f"segment snake: {space.n} points, 12 segments, sup norm")

    separation = far_pair_separation(fx)
    print(
        "min distance between non-adjacent segments:"
        f" {min(separation.values()):.6f}"
        f" (over {len(separation)} pairs)"
    )

    thr = chainability_threshold(space)
    print(
        f"chainability threshold (largest forced hop): {thr:.6f};"
        " at one sample per step the coarsest segment is as wide as the"
        " inter-segment gap, so connectivity and shortcuts open together"
    )

    # four samples per step pushes the forced hops well below 1/2: now
    # there is a scale band where the snake is connected but a chain from
    # e_1 to e_13 cannot shortcut and must thread through every junction
    fine = make_fixture("segment-chain", n=12, subdiv=4)
    space = fine.space
    thr = chainability_threshold(space)
    print(f"refined snake: {space.n} points, threshold {thr:.6f}")
    for eps in (0.6, 0.3, thr * 0.99):
        graph = ChainGraph(space, eps)
        print(f"  eps={eps:.4f}: {graph.component_count} component(s)")

    eps = 0.3
    graph = ChainGraph(space, eps)
    a, b = space.index_of("e1"), space.index_of("e13")
    witness = find_chain(graph, a, b)
    print(
        f"chain e1 -> e13 at eps={eps}: {witness.length} hops"
        f" through {len(witness.indices)} points"
    )
    layer_sizes = [
        len(ball_layers(graph, a, m)) for m in (1, 2, 4, 8, witness.length)
    ]
    print(f"ball growth around e1 (m=1,2,4,8,{witness.length}): {layer_sizes}")

    print("covering profile at eps=0.25, subdiv=4:")
    for n in (8, 12, 16):
        sub = make_fixture("segment-chain", n=n, subdiv=4)
        k, m_star = covering_profile(sub.space, 0.25)
        print(f"  n={n:>2}: {k} component(s), uniform hop radius m*={m_star}")
    print(
        "one ball of fixed radius never suffices: m* grows with the"
        " number of segments even though the space stays connected"
    )


if __name__ == "__main__":
    main()
