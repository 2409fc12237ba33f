import pytest

from steiner_ladder.errors import ParameterError
from steiner_ladder.solver import _enumerate_structures, _hypertree_dp
from steiner_ladder.topology import (
    count_full_topologies,
    enumerate_full_topologies,
    iter_full_topologies,
)

from oracles import brute_block_decompositions

KNOWN_COUNTS = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945, 8: 10395, 9: 135135}


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_count_formula(n, count):
    assert count_full_topologies(n) == count


def test_count_requires_three_terminals():
    with pytest.raises(ParameterError):
        count_full_topologies(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_enumeration_matches_count(n):
    topos = enumerate_full_topologies(n)
    assert len(topos) == count_full_topologies(n)
    assert len({t.edges for t in topos}) == len(topos)


def test_three_terminals_single_tripod():
    (topo,) = enumerate_full_topologies(3)
    assert topo.n_steiner == 1
    assert sorted(topo.edges) == [(0, 3), (1, 3), (2, 3)]


def test_four_terminal_topologies_distinguished_by_pairing():
    pairings = set()
    for topo in enumerate_full_topologies(4):
        adj = topo.adjacency()
        s = 4  # first branching label
        pair = frozenset(v for v in adj[s] if v < 4)
        pairings.add(pair)
    assert len(pairings) == 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_topology_invariants(n):
    for topo in iter_full_topologies(n):
        total = topo.n_terminals + topo.n_steiner
        assert len(topo.edges) == total - 1
        deg = [0] * total
        seen = set()
        for u, v in topo.edges:
            assert 0 <= u < total and 0 <= v < total and u != v
            deg[u] += 1
            deg[v] += 1
        assert all(deg[i] == 1 for i in range(n))
        assert all(deg[i] == 3 for i in range(n, total))
        # connected + |E| = |V| - 1 => acyclic tree
        adj = topo.adjacency()
        stack, seen = [0], {0}
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == total


def test_enumeration_range_checks():
    with pytest.raises(ParameterError):
        enumerate_full_topologies(2)
    with pytest.raises(ParameterError):
        enumerate_full_topologies(10)


def block_decompositions(n):
    """Every block structure on ``n`` terminals, from the solver's hypertree DP.

    With weight |B| - 1 on every block of two or more terminals, every
    structure weighs exactly n - 1, so all of them are optimal.
    """
    weight = {m: bin(m).count("1") - 1.0 for m in range(1, 1 << n) if m & (m - 1)}
    min_total, g = _hypertree_dp(n, weight)
    assert min_total == n - 1
    return {
        frozenset(frozenset(i for i in range(n) if block >> i & 1) for block in structure)
        for structure in _enumerate_structures(n, weight, g, n - 1, 0.0)
    }


def test_block_decompositions_two_points():
    assert block_decompositions(2) == {frozenset({frozenset({0, 1})})}


def test_block_decompositions_three_points():
    expected = {
        frozenset({frozenset({0, 1, 2})}),
        frozenset({frozenset({0, 1}), frozenset({1, 2})}),
        frozenset({frozenset({0, 1}), frozenset({0, 2})}),
        frozenset({frozenset({0, 2}), frozenset({1, 2})}),
    }
    assert block_decompositions(3) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_decompositions_match_brute_force(n):
    assert block_decompositions(n) == brute_block_decompositions(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_decomposition_invariants(n):
    decs = block_decompositions(n)
    assert frozenset({frozenset(range(n))}) in decs  # the trivial single block
    for d in decs:
        blocks = list(d)
        assert sum(len(b) - 1 for b in blocks) == n - 1
        for i, b1 in enumerate(blocks):
            assert len(b1) >= 2
            for b2 in blocks[i + 1 :]:
                assert len(b1 & b2) <= 1
        # connected gluing via union-find
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b in blocks:
            it = iter(sorted(b))
            r = find(next(it))
            for o in it:
                parent[find(o)] = r
        assert len({find(i) for i in range(n)}) == 1
