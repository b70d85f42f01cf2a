import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resflat import decide, graphs
from resflat.cli import main
from resflat.reports import oracle_cases
from resflat.core import QQi, StratumSignature, _connected, residue_tuple
from resflat.decide import enumerate_excluded_rays, search_cylinder_tuple
from resflat.graphs import (
    SearchBudgetExceeded,
    _admits,
    _zero_shapes,
    find_connection_graph,
    find_cylinder_config,
    find_stable_config,
    is_connection_graph,
    peel_connection_graph,
)

# Every tuple of `oracle-check --s-max 7 --entry-bound 5` and the length-8
# tuples with entries <= 4.
SWEEP = list(oracle_cases(7, 5)) + [c for c in oracle_cases(8, 4) if len(c) == 8]


def _bipartite_trees(s1: int, s2: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Spanning trees of the complete bipartite graph on (s1, s2) vertices, lazily.

    Vertices 0..s1-1 are the plus side, s1..s1+s2-1 the minus side.  Rooted
    at plus vertex 0, a tree is a parent function across the sides whose
    chains all reach the root.  Edges are (plus index, minus index) pairs.
    """
    m = s1 + s2
    for parents in itertools.product(*[range(s1, m)] * (s1 - 1), *[range(s1)] * s2):
        parent = (0,) + parents
        if _reaches_root(parent):
            yield tuple((v, parent[v] - s1) for v in range(1, s1)) + tuple(
                (parent[v], v - s1) for v in range(s1, m)
            )


def _reaches_root(parent: Sequence[int]) -> bool:
    """Whether every parent chain ends at vertex 0, that is, no chain cycles."""
    state = [2] + [0] * (len(parent) - 1)  # 0 unseen, 1 on this chain, 2 reaches 0
    for start in range(1, len(parent)):
        v = start
        while state[v] == 0:
            state[v] = 1
            v = parent[v]
        if state[v] == 1:
            return False
        v = start
        while state[v] == 1:
            state[v] = 2
            v = parent[v]
    return True


def _flows_positive(
    plus: Sequence[int], minus: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> bool:
    """Balanced side totals and a positive flow on every edge of the tree.

    ``pairs`` are the (plus index, minus index) edges of a spanning tree.
    The flow across an edge is the plus-side total minus the minus-side
    total of the part of the tree on its plus end: the weight a leaf carries
    when it is removed across that edge.  After any leaf removals a vertex
    weighs the sum of the flows on its remaining edges, so a tree is a
    connection graph exactly when this holds.
    """
    offset = len(plus)
    net = list(plus) + [-w for w in minus]
    adjacency: list[list[int]] = [[] for _ in net]
    for i, j in pairs:
        adjacency[i].append(offset + j)
        adjacency[offset + j].append(i)
    order, parent = _rooted(adjacency)
    for v in reversed(order[1:]):
        # The part below v has signed total net[v] and, with balanced sides,
        # the part above it -net[v]; an unbalanced tree fails either way.
        if (net[v] if v < offset else -net[v]) <= 0:
            return False
        net[parent[v]] += net[v]
    return bool(pairs) and net[0] == 0


def _rooted(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A tree's vertices in breadth-first order from vertex 0, and their parents.

    Summing each vertex into its parent in reverse order gives subtree totals.
    """
    parent = [-1] * len(adjacency)
    order = [0]
    for v in order:
        for u in adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def _remove_leaf(weight, edges, leaf):
    """The weights and edges left by removing a leaf into its neighbour."""
    ((a, b),) = [e for e in edges if leaf in e]
    nb = a + b - leaf
    weight = {k: w + weight[leaf] if k == nb else w for k, w in weight.items() if k != leaf}
    return weight, [e for e in edges if leaf not in e]


def _without_leaf(entries, sides, edges, leaf):
    """The tree left by removing a leaf, on positions 0.. again."""
    weight, rest = _remove_leaf(dict(enumerate(entries)), edges, leaf)
    at = {k: n for n, k in enumerate(weight)}
    return [*weight.values()], [sides[k] for k in weight], [(at[a], at[b]) for a, b in rest]


def _smallest_leaf(positions, edges):
    return min(k for k in positions if sum(k in e for e in edges) == 1)


def _schedule(entries, edges):
    """A tree on the positions of ``entries`` as a schedule: the smallest
    current leaf goes first, across its one edge, its current size the length."""
    weight, steps = dict(enumerate(entries)), []
    while edges:
        v = _smallest_leaf(weight, edges)
        ((a, b),) = [e for e in edges if v in e]
        steps.append((v, a + b - v, abs(weight[v])))
        weight, edges = _remove_leaf(weight, edges, v)
    return tuple(steps)


def every_removal_keeps_weights_positive(entries, sides, edges):
    """Brute-force reference: balanced sides, and every weight stays positive
    along every sequence of leaf removals down to a single edge.  Position k
    weighs ``entries[k]`` on side ``sides[k]``, +1 or -1."""
    if sum(entries) != 0:
        return False

    def walk(weight, edges):
        if any(w * sides[k] <= 0 for k, w in weight.items()):
            return False
        leaves = [k for k in weight if sum(k in e for e in edges) == 1]
        return len(weight) <= 2 or all(walk(*_remove_leaf(weight, edges, v)) for v in leaves)

    return walk(dict(enumerate(entries)), edges)


def assert_schedule_on(combo, steps):
    """A schedule the replay accepts, whose tree carries positive flows."""
    assert is_connection_graph(combo, steps), combo
    rank = {}
    plus, minus = [], []
    for k, m in enumerate(combo):
        side = plus if m > 0 else minus
        rank[k] = len(side)
        side.append(abs(m))
    pairs = [(rank[a], rank[b]) if combo[a] > 0 else (rank[b], rank[a]) for a, b, _ in steps]
    assert _flows_positive(plus, minus, pairs), combo


def find_connection_graph_by_positions(entries):
    """Reference for :func:`find_connection_graph`: the same search, but
    branching on every pair of positions (a leaf and a heavier neighbour on
    the other side) at each state, with a new dict per child."""
    weight = dict(enumerate(entries))
    if not weight or 0 in weight.values():
        raise ValueError("entries must be nonzero")
    if sum(weight.values()) != 0:
        raise ValueError("entries must sum to zero")
    failed: set[tuple[int, ...]] = set()

    def search(weight: dict[int, int]) -> tuple[tuple[int, int, int], ...] | None:
        if len(weight) == 2:
            (a, wa), (b, _) = weight.items()
            return ((a, b, abs(wa)),)
        key = tuple(sorted(weight.values()))
        if key not in failed:
            for v, wv in weight.items():
                for u, wu in weight.items():
                    if wu * wv < 0 and abs(wu) > abs(wv):
                        rest = {k: w + wv if k == u else w for k, w in weight.items() if k != v}
                        found = search(rest)
                        if found is not None:
                            return ((v, u, abs(wv)),) + found
            failed.add(key)
        return None

    return search(weight)


STAR = [3, -1, -1, -1]
STAR_STEPS = ((1, 0, 1), (2, 0, 1), (3, 0, 1))


class TestLeafRemoval:
    # Each step of the replay removes a current leaf and subtracts its
    # weight from its neighbour.
    def test_star(self):
        assert is_connection_graph(STAR, STAR_STEPS)
        # Unsubtracted, the centre would still weigh 3 at the last step.
        assert not is_connection_graph(STAR, STAR_STEPS[:2] + ((3, 0, 3),))

    def test_path_exposes_zero(self):
        # Path + - + - with unit weights; removing an end exposes weight 0.
        path = [1, -1, 1, -1]
        assert not is_connection_graph(path, ((0, 1, 1), (1, 2, 0), (2, 3, 1)))
        assert not is_connection_graph(path, ((0, 1, 1), (3, 2, 1), (1, 2, 0)))

    def test_two_vertices(self):
        assert is_connection_graph([2, -2], ((0, 1, 2),))
        assert is_connection_graph([2, -2], ((1, 0, 2),))

    def test_non_leaf_rejected(self):
        # The centre first: its leaves then hang off a removed vertex.
        assert not is_connection_graph(STAR, ((0, 1, 3), (2, 1, 1), (3, 1, 1)))


class TestIsConnectionGraph:
    def test_star_is_valid(self):
        assert is_connection_graph(STAR, STAR_STEPS)

    def test_k22_spanning_trees_all_fail(self):
        trees = list(_bipartite_trees(2, 2))
        assert len(trees) == 4
        for pairs in trees:
            steps = _schedule([1, 1, -1, -1], [(i, 2 + j) for i, j in pairs])
            assert not is_connection_graph([1, 1, -1, -1], steps), steps

    def test_seven_pole_example(self):
        combo = [3, 1, 1, 1, -2, -2, -2]
        steps = ((1, 4, 1), (2, 5, 1), (3, 6, 1), (4, 0, 1), (5, 0, 1), (0, 6, 1))
        assert is_connection_graph(combo, steps)

    def test_unbalanced_fails(self):
        assert not is_connection_graph([4, -1, -1, -1], STAR_STEPS)
        assert not is_connection_graph([4, -1, -1, -1], STAR_STEPS[:2] + ((3, 0, 2),))

    @pytest.mark.parametrize(
        "entries, steps",
        [
            (STAR, ()),
            (STAR, STAR_STEPS[:2]),
            (STAR, STAR_STEPS + ((0, 3, 1),)),
            ([], ()),
            (STAR, ((4, 0, 1),) + STAR_STEPS[1:]),
            (STAR, ((1, -1, 1),) + STAR_STEPS[1:]),
            (STAR, ((1, 0, 1), (1, 0, 1), (3, 0, 1))),
            (STAR, STAR_STEPS[:2] + ((2, 0, 1),)),
            (STAR, ((1, 1, 1),) + STAR_STEPS[1:]),
            ([1, -1], ((0, 0, 1),)),
            ([2, 1, -3], ((1, 0, 1), (0, 2, 3))),
            ([2, 1, -1], ((2, 0, 1), (0, 1, 1))),
            (STAR, ((1, 0, 2),) + STAR_STEPS[1:]),
            ([1, -1], ((0, 1, 2),)),
            ([0, 0], ((0, 1, 0),)),
            ([1, 0, -1], ((1, 0, 0), (0, 2, 1))),
            (STAR, ((1, 0, 0),) + STAR_STEPS[1:]),
        ],
        ids=[
            "no-steps",
            "too-few-steps",
            "too-many-steps",
            "no-entries",
            "position-out-of-range",
            "negative-position",
            "position-already-removed",
            "last-step-on-a-removed-position",
            "step-to-itself",
            "last-step-to-itself",
            "same-side-step",
            "same-side-last-step",
            "wrong-length",
            "wrong-last-length",
            "zero-entries",
            "zero-entry-as-a-leaf",
            "zero-length",
        ],
    )
    def test_malformed_schedules_fail(self, entries, steps):
        assert is_connection_graph(entries, steps) is False

    def test_flows_match_every_removal_sequence(self):
        # Every spanning tree of K_{s1,s2} with s1 + s2 <= 6, under seeded
        # random weights, balanced and not, and the tree left by removing
        # its smallest leaf, whose neighbour may weigh zero or have crossed
        # to the other sign.
        rng = random.Random(2021)
        checked = accepted = 0
        for s1 in range(1, 6):
            for s2 in range(1, 7 - s1):
                sides = [1] * s1 + [-1] * s2
                for pairs in _bipartite_trees(s1, s2):
                    edges = [(i, s1 + j) for i, j in pairs]
                    for trial in range(8):
                        entries = [side * rng.randint(1, 9) for side in sides]
                        if trial % 2:
                            gap = sum(entries)
                            k = rng.randrange(s1, s1 + s2) if gap > 0 else rng.randrange(s1)
                            entries[k] -= gap
                        tree = (entries, sides, edges)
                        leaf = _smallest_leaf(range(s1 + s2), edges)
                        for weights, signs, links in tree, _without_leaf(*tree, leaf):
                            expected = every_removal_keeps_weights_positive(weights, signs, links)
                            steps = _schedule(weights, links)
                            assert is_connection_graph(weights, steps) == expected, (weights, steps)
                            checked += 1
                            accepted += expected
        assert checked == 2912 and accepted > 100


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_schedule_fails(data):
    # Changing any one number of a valid schedule, from the oracle or the
    # peel, to any other value leaves one the replay rejects.
    combo = data.draw(st.sampled_from(SWEEP))
    steps = data.draw(st.sampled_from([find_connection_graph, peel_connection_graph]))(combo)
    assume(steps is not None)
    assert is_connection_graph(combo, steps)
    i = data.draw(st.integers(0, len(steps) - 1))
    j = data.draw(st.integers(0, 2))
    value = data.draw(st.integers(-2, max(len(combo), *map(abs, combo)) + 2))
    assume(value != steps[i][j])
    step = steps[i][:j] + (value,) + steps[i][j + 1 :]
    assert not is_connection_graph(combo, steps[:i] + (step,) + steps[i + 1 :])


class TestFindConnectionGraph:
    def test_seven_pole_found(self):
        combo = [3, 1, 1, 1, -2, -2, -2]
        steps = find_connection_graph(combo)
        assert steps is not None
        assert_schedule_on(combo, steps)

    def test_excluded_tuple_none(self):
        assert find_connection_graph([1, 1, -1, -1]) is None

    def test_one_sided_star(self):
        # Both plus entries hang off the one minus entry.
        assert find_connection_graph([2, 1, -3]) == ((0, 2, 2), (1, 2, 1))

    def test_found_graphs_are_valid(self):
        for combo in ([5, 1, -2, -2, -2], [3, 2, -1, -4], [2, 2, 1, -2, -3]):
            steps = find_connection_graph(combo)
            if steps is not None:
                assert_schedule_on(combo, steps)

    def test_invariance_under_permutation_and_sign(self):
        # Shuffled and negated: a realizable ray with s = 7, and a realizable
        # and an excluded ray with s = 9.
        rng = random.Random(9)
        for base, found in (
            ((3, 1, 1, 1, -2, -2, -2), True),
            ((4, 1, 1, 1, 1, -2, -2, -2, -2), True),
            ((2, 1, 1, 1, 1, -2, -2, -1, -1), False),
        ):
            for trial in range(6):
                combo = [m if trial % 2 else -m for m in base]
                rng.shuffle(combo)
                steps = find_connection_graph(combo)
                assert (steps is not None) == found, combo
                if steps is not None:
                    assert_schedule_on(combo, steps)

    def test_matches_the_spanning_tree_walk(self):
        # A schedule is returned exactly when some spanning tree of
        # K_{s1,s2} carries positive flows.
        assert len(SWEEP) == 704 + 227
        found = 0
        for combo in SWEEP:
            plus = [m for m in combo if m > 0]
            minus = [-m for m in combo if m < 0]
            trees = _bipartite_trees(len(plus), len(minus))
            walked = any(_flows_positive(plus, minus, pairs) for pairs in trees)
            steps = find_connection_graph(combo)
            assert (steps is not None) == walked, combo
            if steps is not None:
                assert_schedule_on(combo, steps)
                found += 1
        assert 0 < found < len(SWEEP)

    def test_excluded_six_plus_six_ray(self):
        # K_{6,6} has 6^5 * 6^5 = 60,466,176 spanning trees; the leaf-removal
        # search answers without walking them.
        assert find_connection_graph((-1, -1, 4, -3, 1, 1, 1, -1, 2, 1, -2, -2)) is None

    def test_matches_the_search_over_positions(self):
        # Branching once per pair of weight values skips only children whose
        # multiset an earlier pair of the same state already failed on, so
        # the verdict, and the schedule itself, are the position-level
        # search's.
        cases = list(oracle_cases(10, 5))
        assert len(cases) == 5383
        found = 0
        for combo in cases:
            steps = find_connection_graph(combo)
            assert steps == find_connection_graph_by_positions(combo), combo
            if steps is not None:
                assert is_connection_graph(combo, steps), combo
                found += 1
        assert 0 < found < len(cases)

    def test_refutes_every_excluded_ray(self):
        # The oracle never uses the closed form, yet finds no graph on any
        # ray the closed form excludes, up to s = 16.
        rays = [ray.integers for s in range(4, 17) for ray in enumerate_excluded_rays(s, s - 2)]
        assert len(rays) == 1906
        assert all(find_connection_graph(ints) is None for ints in rays)

    def test_spanning_tree_counts(self):
        # Scoins: K_{s1,s2} has s1^(s2-1) * s2^(s1-1) spanning trees.
        for s1, s2 in ((1, 5), (2, 3), (3, 3), (4, 4), (5, 2)):
            trees = set(_bipartite_trees(s1, s2))
            assert len(trees) == s1 ** (s2 - 1) * s2 ** (s1 - 1)
            assert all(
                len(pairs) == s1 + s2 - 1 and _connected(s1 + s2, [(i, s1 + j) for i, j in pairs])
                for pairs in trees
            )


class TestPeelConnectionGraph:
    def test_peel_matches_the_oracle(self):
        # Both directions: the peel finds a graph exactly when the
        # exhaustive search does, and both schedules replay.
        peeled = 0
        for combo in SWEEP:
            steps = peel_connection_graph(combo)
            assert (steps is not None) == (find_connection_graph(combo) is not None), combo
            if steps is not None:
                assert_schedule_on(combo, steps)
                peeled += 1
        assert 0 < peeled < len(SWEEP)

    def test_schedule(self):
        assert peel_connection_graph([3, 1, 1, 1, -2, -2, -2]) == (
            (1, 4, 1), (2, 5, 1), (3, 6, 1), (4, 0, 1), (5, 0, 1), (0, 6, 1),
        )
        assert peel_connection_graph([1, -1]) == ((0, 1, 1),)
        assert peel_connection_graph([1, 1, -1, -1]) is None


class TestFindStableConfig:
    def test_two_zero_split(self):
        # The smaller zero takes the three largest plus entries as a leaf;
        # their sum 4, at position 6, joins the rest, one zero of order 2.
        ints = (2, 1, 1, -1, -1, -2)
        components, left = find_stable_config(ints, (2, 2))
        assert components == ((0, 1, 2), (3, 4, 5, 6)) and left == (2,)
        extended = ints + (sum(ints[k] for k in components[0]),)
        # With the leaf's node half at minus its sum, each piece sums to zero.
        assert sum(extended[k] for k in components[1]) == 0

    def test_unbalanced_orders_split(self):
        components, left = find_stable_config((2, 1, 1, -1, -1, -2), (1, 3))
        assert components == ((0, 1), (2, 3, 4, 5, 6)) and left == (3,)

    def test_single_zero_delegates(self):
        assert find_stable_config((2, 1, 1, -2, -1, -1), (4,)) is None
        assert find_stable_config((3, 2, 1, -2, -1, -3), (4,)) == ((tuple(range(6)),), (4,))


class TestFindCylinderConfig:
    def test_example_with_two_components(self):
        sig = StratumSignature(4, (4, 1, 1), ())
        cfg = find_cylinder_config(sig, residue_tuple([1, 1, 1, 1]))
        assert cfg is not None
        assert sum(c.genus for c in cfg.components) + (
            len(cfg.edges) - len(cfg.components) + 1
        ) == 4

    def test_minimal_exclusion_confirmed_by_search(self):
        sig = StratumSignature(2, (2,), ())
        assert find_cylinder_config(sig, residue_tuple([1, 1])) is None

    def test_budget(self):
        sig = StratumSignature(4, (4, 1, 1), ())
        with pytest.raises(SearchBudgetExceeded):
            find_cylinder_config(sig, residue_tuple([1, 1, 1, 1]), budget=1)

    def test_search_matches_closed_form_on_minimal_strata(self):
        sig = StratumSignature(2, (2,), ())
        for lam_ints in itertools.combinations_with_replacement(range(1, 5), 2):
            lam = residue_tuple(lam_ints)
            closed = search_cylinder_tuple(sig, lam)
            assert closed.reason not in (decide.REASON_SEARCH_REALIZABLE, decide.REASON_SEARCH_NONE)
            found = find_cylinder_config(sig, lam) is not None
            assert found == closed.realizable, lam_ints

    def test_search_scale_invariance(self):
        sig = StratumSignature(4, (4, 1, 1), ())
        lam = residue_tuple([1, 1, 1, 1])
        scaled = tuple(QQi(0, 2) * x for x in lam)
        assert (find_cylinder_config(sig, lam) is None) == (
            find_cylinder_config(sig, scaled) is None
        )

    def test_negative_budget_rejected(self):
        # A negative budget is never reached, so it used to run the whole search.
        with pytest.raises(ValueError, match="budget"):
            find_cylinder_config(StratumSignature(4, (2, 2, 2), ()), residue_tuple([1] * 6), budget=-1)

    def test_budget_exceeded_reports_stage_and_progress(self):
        with pytest.raises(SearchBudgetExceeded) as cyl:
            find_cylinder_config(StratumSignature(4, (4, 1, 1), ()), residue_tuple([1, 1, 1, 1]), budget=3)
        assert (cyl.value.stage, cyl.value.spent, cyl.value.budget) == ("cylinder", 3, 3)
        assert "budget" in str(cyl.value)

    def test_rejects_missing_or_zero_circumferences(self):
        sig = StratumSignature(4, (4, 1, 1), ())
        for lam in ((), residue_tuple([1, 0, 1])):
            with pytest.raises(ValueError):
                find_cylinder_config(sig, lam)

    def test_recorded_verdicts_reproduce(self, recorded_cylinder_runs):
        for case, variant, verdict, _ in recorded_cylinder_runs:
            assert verdict.realizable == case["realizable"], (case, variant)

    def test_returned_configs_are_valid(self, recorded_cylinder_runs):
        configs = [(sig, lam, cfg) for _, _, _, found in recorded_cylinder_runs for sig, lam, cfg in found]
        assert sum(cfg is not None for _, _, cfg in configs) > 100
        for sig, lam, cfg in configs:
            if cfg is not None:
                assert_valid_cylinder_config(sig, lam, cfg)

    def test_matches_the_unreduced_enumeration(self):
        # Every tuple of length <= 3, and every other one of length 4, over
        # five circumferences, each entry times a random unit (+-1, +-i) and
        # the tuple in a random order, so that entries equal up to sign are
        # scattered and 1 + i meets its conjugate direction 1 - i.
        rng = random.Random(20)
        values = residue_tuple([1, 2, 3, QQi(0, 1), QQi(1, 1)])
        units = residue_tuple([1, -1, QQi(0, 1), QQi(0, -1)])
        checked = 0
        for genus, zeros in CYLINDER_SWEEP_STRATA:
            sig = StratumSignature(genus, zeros, ())
            for t in range(1, min(4, genus + len(zeros) - 1) + 1):
                tuples = list(itertools.combinations_with_replacement(values, t))
                for lam in tuples[:: 1 if t < 4 else 2]:
                    lam = [rng.choice(units) * c for c in lam]
                    rng.shuffle(lam)
                    cfg = find_cylinder_config(sig, lam)
                    assert (cfg is not None) == unreduced_cylinder_search(sig, lam), (genus, zeros, lam)
                    if cfg is not None:
                        assert_valid_cylinder_config(sig, lam, cfg)
                    checked += 1
        assert checked == 865

    def test_matches_the_unreduced_enumeration_on_five_cylinders(self):
        # H_3(2,1,1) with five cylinders, the slowest class of the benchmark's
        # search workload: two realizable tuples and three that are not, the
        # last with a Gaussian direction; shuffled, with random signs.
        rng = random.Random(5)
        sig = StratumSignature(3, (2, 1, 1), ())
        for values in (
            [3, 3, 2, 2, 1],
            [2, 2, 1, 1, 1],
            [3, 3, 3, 2, 1],
            [1, 1, 1, 1, 1],
            [1, QQi(0, 1), QQi(0, 1), QQi(0, 1), QQi(0, 1)],
        ):
            lam = [rng.choice((1, -1)) * c for c in residue_tuple(values)]
            rng.shuffle(lam)
            cfg = find_cylinder_config(sig, lam)
            assert (cfg is not None) == unreduced_cylinder_search(sig, lam), lam
            if cfg is not None:
                assert_valid_cylinder_config(sig, lam, cfg)

    def test_former_walls_are_not_realizable(self, tmp_path, capsys):
        # Six unit cylinders: the unreduced enumeration took 47.8 s and 6.2 s.
        # Eight and nine on H_4(1^6), and ten on H_6(2^5), spent the default
        # budget on multisets of ends without an answer.
        for genus, zeros, t in (
            (3, (1, 1, 1, 1), 6),
            (4, (2, 2, 2), 6),
            (4, (1,) * 6, 8),
            (4, (1,) * 6, 9),
            (6, (2,) * 5, 10),
        ):
            verdict = search_cylinder_tuple(StratumSignature(genus, zeros, ()), residue_tuple([1] * t))
            assert verdict.reason == "search-not-realizable", (genus, zeros, t)
        path = tmp_path / "req.json"
        path.write_text(json.dumps({
            "stratum": {"genus": 3, "zeros": [1, 1, 1, 1], "poles": [], "simple_poles": 0},
            "circumferences": [1, 1, 1, 1, 1, 1],
        }))
        assert main(["cylinders", str(path), "-o", str(tmp_path / "out.json")]) == 1
        assert json.loads((tmp_path / "out.json").read_text())["via"] == "search"


CYLINDER_VERDICTS = Path(__file__).resolve().parents[1] / "bench" / "cylinder_verdicts.json"

CYLINDER_SWEEP_STRATA = (
    (2, (1, 1)),
    (3, (3, 1)), (3, (2, 2)), (3, (2, 1, 1)),
    (4, (5, 1)), (4, (4, 2)), (4, (3, 3)), (4, (4, 1, 1)), (4, (3, 2, 1)), (4, (2, 2, 2)),
)


@pytest.fixture(scope="module")
def recorded_cylinder_runs():
    """Each recorded cylinder case through search_cylinder_tuple, twice.

    Once as recorded, once shuffled, with random signs and scaled by a
    random Gaussian rational: none of these changes the verdict.  Each run
    is (case, variant, verdict, [(sig, circumferences, config)] searched).
    """
    rng = random.Random(7)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        found = []

        def recording(sig, lam, **kwargs):
            cfg = find_cylinder_config(sig, lam, **kwargs)
            found.append((sig, tuple(lam), cfg))
            return cfg

        mp.setattr(graphs, "find_cylinder_config", recording)
        for case in json.loads(CYLINDER_VERDICTS.read_text())["cases"]:
            sig = StratumSignature(case["genus"], tuple(case["zeros"]), ())
            lam = [QQi(re, im) for re, im in case["circumferences"]]
            scale = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            varied = [rng.choice((1, -1)) * scale * c for c in lam]
            rng.shuffle(varied)
            for variant, values in (("recorded", lam), ("varied", varied)):
                found = []
                verdict = search_cylinder_tuple(sig, tuple(values))
                runs.append((case, variant, verdict, found))
    return runs


def assert_valid_cylinder_config(sig, lam, cfg):
    """The zeros partitioned, edge j carrying +-lam[j], a connected graph,
    genera by the degree identity, and every component balanced and
    admitted by its own stratum."""
    k = len(cfg.components)
    blocks = [comp.zero_indices for comp in cfg.components]
    assert all(blocks) and sorted(i for block in blocks for i in block) == list(range(sig.n))
    assert len(cfg.edges) == len(lam)
    residues = [[] for _ in range(k)]
    reached = {0}
    for (a, b, r), c in zip(cfg.edges, lam):
        assert r in (c, -c)
        residues[a].append(r)
        residues[b].append(-r)
    for _ in range(k):
        reached |= {x for a, b, _ in cfg.edges for x in (a, b) if {a, b} & reached}
    assert reached == set(range(k))
    assert sum(comp.genus for comp in cfg.components) + len(lam) - k + 1 == sig.genus
    for comp, res in zip(cfg.components, residues):
        zeros = tuple(sig.zeros[i] for i in comp.zero_indices)
        assert sum(zeros) == 2 * comp.genus - 2 + len(res)
        assert sum(res, QQi(0)) == QQi(0)
        assert _cylinder_component_ok(comp.genus, zeros, tuple(res))


def _cylinder_component_ok(
    genus: int, zeros: tuple[int, ...], residues: tuple[QQi, ...]
) -> bool:
    comp_sig = StratumSignature(genus, zeros, (), len(residues))
    return decide.decide_realizable(comp_sig, residues).realizable


small = st.integers(-3, 3)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_admission_matches_the_closed_form(data):
    # A balanced tuple of 2-5 nonzero Gaussian integers in [-3, 3]^2, half
    # the time collinear, on genus 0 or 1 with zeros of orders 1-4 meeting
    # the degree identity: the search's integer test agrees with
    # decide_realizable on the component's own stratum.
    if data.draw(st.booleans(), label="collinear"):
        dx, dy = data.draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any))
        # Multipliers of size 1 make excluded rays common.
        bound = data.draw(st.integers(1, 3), label="largest multiplier")
        multiplier = st.integers(-bound, bound).filter(bool)
        multipliers = data.draw(st.lists(multiplier, min_size=1, max_size=4))
        head = [(m * dx, m * dy) for m in multipliers]
    else:
        head = data.draw(st.lists(st.tuples(small, small).filter(any), min_size=1, max_size=4))
    last = (-sum(x for x, _ in head), -sum(y for _, y in head))
    assume(any(last) and max(map(abs, last)) <= 3)
    residues = head + [last]
    genus = data.draw(st.sampled_from((0, 1)), label="genus")
    left = 2 * genus - 2 + len(residues)
    assume(left >= 1)
    zeros = []
    while left:
        zeros.append(data.draw(st.integers(1, min(4, left))))
        left -= zeros[-1]
    expected = _cylinder_component_ok(genus, tuple(zeros), tuple(QQi(x, y) for x, y in residues))
    assert _admits(genus, max(zeros), residues) == expected


def _partitions_of_set(items: tuple[int, ...], blocks: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of items into `blocks` nonempty blocks, canonical order."""
    if blocks == 0:
        if not items:
            yield ()
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]

    def rec(remaining: tuple[int, ...], blocks_open: tuple[tuple[int, ...], ...]):
        if not remaining:
            if all(blocks_open) and len(blocks_open) == blocks:
                yield tuple(tuple(b) for b in blocks_open)
            return
        x, tail = remaining[0], remaining[1:]
        for k in range(len(blocks_open)):
            yield from rec(tail, blocks_open[:k] + (blocks_open[k] + (x,),) + blocks_open[k + 1 :])
        if len(blocks_open) < blocks:
            yield from rec(tail, blocks_open + ((x,),))

    yield from rec(rest, ((first,),))


def test_zero_shapes_are_the_distinct_sorted_set_partitions():
    # Every multiset of at most 7 zero orders in 1..4, and every block
    # count: the generator yields each shape a set partition of the zeros
    # has, sorted, exactly once.
    checked = 0
    for n in range(1, 8):
        partitions = {k: list(_partitions_of_set(tuple(range(n)), k)) for k in range(1, n + 1)}
        for orders in itertools.combinations_with_replacement(range(1, 5), n):
            for k in range(1, n + 1):
                shapes = list(_zero_shapes(orders, k))
                expected = {
                    tuple(sorted(tuple(sorted(orders[i] for i in block)) for block in partition))
                    for partition in partitions[k]
                }
                assert len(shapes) == len(set(shapes)) and set(shapes) == expected, (orders, k)
                checked += len(shapes)
    assert checked == 16779


def unreduced_cylinder_search(sig, lam):
    """Whether a configuration exists, by the search as it was before the
    symmetry reductions: every end in pair_space^t, every sign of every
    non-loop cylinder, exact Gaussian-rational residue sums."""
    t, n = len(lam), sig.n
    for k in range(1, min(n, t + 1) + 1):
        pair_space = [(a, b) for a in range(k) for b in range(a, k)]
        for blocks in _partitions_of_set(tuple(range(n)), k):
            for ends in itertools.product(pair_space, repeat=t):
                half = [0] * k
                for a, b in ends:
                    half[a] += 1
                    half[b] += 1
                nums = [sum(sig.zeros[i] for i in blocks[c]) - half[c] + 2 for c in range(k)]
                if any(x < 0 or x % 2 for x in nums) or not _connected(k, ends):
                    continue
                nonloop = [j for j, (a, b) in enumerate(ends) if a != b]
                for signs in itertools.product((1, -1), repeat=len(nonloop)):
                    sign_of = dict(zip(nonloop, signs))
                    res = [[] for _ in range(k)]
                    for j, (a, b) in enumerate(ends):
                        r = lam[j] * sign_of.get(j, 1)
                        res[a].append(r)
                        res[b].append(-r)
                    if any(sum(rs, QQi(0)) != QQi(0) for rs in res):
                        continue
                    if all(
                        _cylinder_component_ok(nums[c] // 2, tuple(sig.zeros[i] for i in blocks[c]), tuple(res[c]))
                        for c in range(k)
                    ):
                        return True
    return False
