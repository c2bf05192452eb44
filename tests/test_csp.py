"""Differential tests: the bitset solver against the set-domain oracle.

Both solvers must yield the same solutions in the same order, count the
same nodes, and trip a budget at the same node with the same count.
"""

import random

import pytest
from conftest import SetNetwork, fn_supports, table_supports

from thetacat.csp import Network
from thetacat.errors import BudgetExceededError


def build(cls, spec):
    domains, arcs = spec
    net = cls()
    for dom in domains:
        net.add_var(dom)
    for kind, a, b, data in arcs:
        if cls is SetNetwork:
            (net.add_fn if kind == "fn" else net.add_table)(a, b, data)
        elif kind == "fn":
            net.add_arcs(a, b, kind, *fn_supports(data, net.domains[b].bit_length()))
        else:
            net.add_arcs(a, b, kind, *table_supports(data, net.domains[a], net.domains[b]))
    return net


def run(net, budget):
    """Solutions yielded before the end, and the budget count if it tripped."""
    sols = []
    try:
        for sol in net.solve_all(budget):
            sols.append(sol)
    except BudgetExceededError as exc:
        return sols, exc.count
    return sols, None


MAX_NODES = 200  # bounds the budget sweep, which is quadratic in nodes


def random_spec(rng: random.Random):
    """A small random network whose oracle search stays under MAX_NODES."""
    while True:
        spec = _draw_spec(rng)
        if run(build(SetNetwork, spec), MAX_NODES)[1] is None:
            return spec


def _draw_spec(rng: random.Random):
    n = rng.randint(1, 6)
    width = rng.randint(1, 8)
    domains = []
    for _ in range(n):
        # sparse subsets of range(width): non-contiguous, sometimes empty
        dom = [v for v in range(width) if rng.random() < 0.7]
        if not dom and rng.random() < 0.8:
            dom = [rng.randrange(width)]
        domains.append(dom)
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.5:
            # an action array over range(width), sometimes hitting values
            # outside b's domain; arrays are shared between arcs at times
            if arcs and arcs[-1][0] == "fn" and rng.random() < 0.3:
                arr = arcs[-1][3]
            else:
                arr = tuple(rng.randrange(width) for _ in range(width))
            arcs.append(("fn", a, b, arr))
        else:
            allowed = {
                va: {vb for vb in range(width) if rng.random() < 0.5}
                for va in range(width)
                if rng.random() < 0.8
            }
            arcs.append(("tab", a, b, allowed))
    return domains, arcs


def assert_same(spec):
    new, old = build(Network, spec), build(SetNetwork, spec)
    assert run(new, 10**7) == run(old, 10**7)
    nodes = getattr(old, "_nodes", 0)
    assert new._nodes == nodes
    for budget in range(1, nodes + 1):
        got = run(build(Network, spec), budget)
        assert got == run(build(SetNetwork, spec), budget), budget
    return nodes


@pytest.mark.parametrize("seed", range(400))
def test_random_networks_match_oracle(seed):
    assert_same(random_spec(random.Random(seed)))


def test_random_networks_cover_the_cases():
    """The seeds above reach every case the oracle must agree on."""
    seen = set()
    for seed in range(400):
        spec = random_spec(random.Random(seed))
        domains, arcs = spec
        sols, _ = run(build(SetNetwork, spec), 10**7)
        seen.add("empty" if not all(domains) else "unsat" if not sols else "sat")
        seen.update(kind for kind, *_ in arcs)
        if any(dom and dom != list(range(dom[-1] + 1)) for dom in domains):
            seen.add("gap")
        linked = {v for _, a, b, _ in arcs for v in (a, b)}
        if len(linked) < len(domains):
            seen.add("isolated")
        if len(sols) > 1:
            seen.add("many")
    assert seen == {"empty", "unsat", "sat", "fn", "tab", "gap", "isolated", "many"}


def test_non_contiguous_domains():
    spec = (
        [[0, 3, 7], [1, 4], [2, 5, 6]],
        [
            ("fn", 0, 1, (1, 0, 0, 4, 0, 0, 0, 1)),
            ("tab", 1, 2, {1: {2, 6}, 4: {5}}),
        ],
    )
    net = build(Network, spec)
    assert list(net.solve_all()) == [
        (0, 1, 2), (0, 1, 6), (7, 1, 2), (7, 1, 6), (3, 4, 5)
    ]
    assert assert_same(spec) == net._nodes


def test_isolated_variables_enumerate_ascending():
    spec = ([[5, 2], [0, 1, 2]], [])
    net = build(Network, spec)
    assert list(net.solve_all()) == [
        (2, 0), (2, 1), (2, 2), (5, 0), (5, 1), (5, 2)
    ]
    assert assert_same(spec) == net._nodes


def test_empty_domain_sets_nodes():
    net = build(Network, ([[0, 1], []], [("tab", 0, 1, {0: {0}})]))
    net._nodes = 99
    assert list(net.solve_all()) == []
    assert net._nodes == 0


def test_unsatisfiable_network():
    # value(1) = arr[value(0)] lands outside var 1's domain for every value
    spec = ([[0, 1, 2], [3]], [("fn", 0, 1, (0, 1, 2, 0))])
    net = build(Network, spec)
    assert list(net.solve_all()) == []
    assert net._nodes == 0
    # unsatisfiable only after branching
    spec = (
        [[0, 1], [0, 1], [0, 1]],
        [
            ("tab", 0, 1, {0: {1}, 1: {0}}),
            ("tab", 1, 2, {0: {1}, 1: {0}}),
            ("tab", 2, 0, {0: {1}, 1: {0}}),
        ],
    )
    assert list(build(Network, spec).solve_all()) == []
    assert assert_same(spec) == 2


def test_shared_action_array_with_wider_target_domain():
    arr = (1, 0)
    spec = ([[0, 1], [0, 1, 2, 3], [0, 1]], [("fn", 0, 1, arr), ("fn", 2, 1, arr)])
    assert list(build(Network, spec).solve_all()) == [(0, 1, 0), (1, 0, 1)]
    assert_same(spec)


def test_arcs_keep_the_shape_the_bench_tracer_reads():
    net = build(Network, ([[0, 1], [0, 1]], [("fn", 0, 1, (1, 0)), ("tab", 1, 0, {0: {1}})]))
    assert [(other, kind, fwd) for other, kind, _, fwd in net.adj[0]] == [
        (1, "fn", True), (1, "tab", False)
    ]
    assert [(other, kind, fwd) for other, kind, _, fwd in net.adj[1]] == [
        (0, "fn", False), (0, "tab", True)
    ]
