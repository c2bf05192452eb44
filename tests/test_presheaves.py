import itertools
import random
from functools import partial

import pytest

from conftest import (
    SubAsPresheaf,
    all_pairs_functorial,
    cell_value,
    constants_to_all_ones,
    face_union_oracle,
    family_is_natural,
    nat_cells_oracle,
    nat_presheaves_oracle,
    shapes_with,
    swap_in_first_row,
)
from thetacat.csp import Network
from thetacat.errors import BudgetExceededError
from thetacat.groups import builtin_group, cyclic, klein_four, symmetric_3
from thetacat.nerves import (
    H2_WINDOW,
    NerveB1,
    NerveB2EM,
    NerveB2Strict,
)
from thetacat.presheaves import (
    ExtendedPresheaf,
    Presheaf,
    ProductPresheaf,
    Representable,
    TablePresheaf,
    TerminalPresheaf,
    TruncatedPresheaf,
    DEFAULT_BUDGET,
    check_functoriality,
    generator_classes,
    nat_face_union,
    nat_presheaves,
    project_class,
    solve_tables,
    table_from_json,
    table_to_json,
)
from thetacat.subshapes import (
    WindowSpec,
    boundary,
    full_sub,
    horn,
    spine,
    union_of_faces,
    window_for,
)
from thetacat.theta import (
    POINT,
    compose_classes,
    enumerate_hom,
    epi_classes_between,
    face_class,
    face_descriptor,
    faces_of,
    identity_class,
    outer_faces,
    shape,
)


def test_representable_functoriality():
    rep = check_functoriality(Representable(shape(2, 1)), WindowSpec(2, 2))
    assert rep.ok


def test_table_fault_injection_gives_witness():
    tbl = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 2))
    assert check_functoriality(tbl, WindowSpec(1, 2)).ok
    rep = check_functoriality(swap_in_first_row(tbl), WindowSpec(1, 2))
    assert not rep.ok and rep.violation is not None


# the presheaves the functoriality tests of this file and test_nerves pass
FUNCTORIAL = [
    (lambda: Representable(shape(2, 1)), WindowSpec(2, 2)),
    (lambda: NerveB1(cyclic(2)), WindowSpec(1, 2)),
    (lambda: ProductPresheaf(NerveB1(cyclic(2)), Representable(shape(1))), WindowSpec(1, 2)),
    (lambda: ExtendedPresheaf(TruncatedPresheaf(NerveB1(cyclic(2)), 1), 1), WindowSpec(2, 2)),
    (lambda: NerveB1(cyclic(2)), WindowSpec(2, 2)),
    (lambda: NerveB1(symmetric_3()), WindowSpec(2, 2)),
    (lambda: NerveB2Strict(cyclic(2)), WindowSpec(2, 2)),
    (lambda: NerveB2Strict(cyclic(3)), WindowSpec(1, 3)),
    (lambda: NerveB2EM(cyclic(2)), WindowSpec(2, 2)),
    (lambda: NerveB2EM(cyclic(3)), WindowSpec(1, 3)),
]


@pytest.mark.parametrize(
    "make, window",
    FUNCTORIAL,
    ids=["y21", "B1Z2-12", "prod", "extend", "B1Z2-22", "B1S3", "B2Z2", "B2Z3",
         "EMZ2", "EMZ3"],
)
def test_functoriality_agrees_with_all_pairs(make, window):
    x = make()
    assert check_functoriality(x, window).ok
    assert all_pairs_functorial(x, window)


@pytest.mark.parametrize(
    "make, window",
    [
        (lambda: NerveB1(cyclic(2)), WindowSpec(1, 2)),
        (lambda: Representable(shape(1)), WindowSpec(1, 2)),
        (lambda: NerveB2EM(cyclic(2)), WindowSpec(1, 3)),
    ],
    ids=["B1Z2", "y1", "EMZ2"],
)
def test_functoriality_agrees_with_all_pairs_on_every_swap(make, window):
    tbl = TablePresheaf.from_presheaf(make(), window)
    swaps = 0
    for f, row in tbl.actions_table.items():
        for i, j in itertools.combinations(range(len(row)), 2):
            if row[i] == row[j]:
                continue
            r = list(row)
            r[i], r[j] = r[j], r[i]
            bad = TablePresheaf(tbl.levels, {**tbl.actions_table, f: tuple(r)})
            assert (
                check_functoriality(bad, window).ok
                == all_pairs_functorial(bad, window)
            ), (f, i, j)
            swaps += 1
    assert swaps > 0


@pytest.mark.parametrize(
    "window",
    [WindowSpec(1, 2), WindowSpec(2, 2), WindowSpec(1, 3)],
    ids=lambda w: f"{w.max_dim}-{w.max_entry}",
)
def test_functoriality_rejects_a_fault_only_epis_see(window):
    bad = constants_to_all_ones(
        TablePresheaf.from_presheaf(NerveB1(cyclic(2)), window)
    )
    rep = check_functoriality(bad, window)
    assert not rep.ok
    assert not all_pairs_functorial(bad, window)
    _, g, lhs, rhs = rep.violation
    assert lhs != rhs
    # the witness is the epi t[2] -> t[1] with values (0, 0, 1)
    assert g in epi_classes_between(shape(2), shape(1))
    assert g.components[0].values == (0, 0, 1)


def test_functoriality_budget_counts_pairs():
    x, window = NerveB1(cyclic(2)), WindowSpec(2, 2)
    pairs = check_functoriality(x, window).pairs_checked
    assert check_functoriality(x, window, budget=pairs).ok
    with pytest.raises(BudgetExceededError) as exc:
        check_functoriality(x, window, budget=pairs - 1)
    assert exc.value.count == pairs


@pytest.mark.parametrize(
    "window",
    [WindowSpec(2, 2), WindowSpec(1, 3), WindowSpec(2, 3), WindowSpec(3, 2)],
    ids=lambda w: f"{w.max_dim}-{w.max_entry}",
)
def test_generators_reach_every_class(window):
    # the premise of check_functoriality, nat_presheaves and conftest.is_natural
    shapes = window.shapes()
    out_of = {b: [] for b in shapes}
    for g in generator_classes(window):
        out_of[g.src].append(g)
    reached = {identity_class(b) for b in shapes}
    frontier = list(reached)
    while frontier:
        h = frontier.pop()
        for g in out_of[h.dst]:
            c = compose_classes(g, h)
            if c not in reached:
                reached.add(c)
                frontier.append(c)
    assert reached == {
        f for b1 in shapes for b2 in shapes for f in enumerate_hom(b1, b2)
    }


def test_table_json_roundtrip():
    tbl = TablePresheaf.from_presheaf(NerveB1(cyclic(2)), WindowSpec(1, 1))
    data = table_to_json(tbl)
    back = table_from_json(data)
    for b in WindowSpec(1, 1).shapes():
        assert back.elements(b) == tbl.elements(b)
    for f in tbl.actions_table:
        assert back.action(f) == tbl.action(f)


def test_product_sizes():
    b1 = NerveB1(cyclic(2))
    x = ProductPresheaf(b1, Representable(shape(1)))
    assert x.size(shape(1)) == 2 * 3
    term = TerminalPresheaf()
    y = ProductPresheaf(b1, term)
    for b in WindowSpec(2, 2).shapes():
        assert y.size(b) == b1.size(b)
    assert check_functoriality(x, WindowSpec(1, 2)).ok


def test_product_arrays_pair_the_factor_arrays():
    # the h2 cylinder B1(Z3) x y(t[1]) against the element-by-element build
    cyl = ProductPresheaf(NerveB1(cyclic(3)), Representable(shape(1)))
    shapes = H2_WINDOW.shapes()
    for f in (f for b1 in shapes for b2 in shapes for f in enumerate_hom(b1, b2)):
        assert cyl.action(f) == Presheaf._build_action(cyl, f), f


def test_truncate_extend_roundtrip():
    b1 = NerveB1(cyclic(2))
    x1 = TruncatedPresheaf(b1, 1)
    e1 = ExtendedPresheaf(x1, 1)
    for b in WindowSpec(1, 3).shapes():
        assert TruncatedPresheaf(e1, 1).elements(b) == x1.elements(b)
    assert check_functoriality(e1, WindowSpec(2, 2)).ok
    with pytest.raises(ValueError):
        x1.elements(shape(1, 1))


def test_extend_of_zero_truncation_is_constant():
    b1 = NerveB1(cyclic(3))
    e0 = ExtendedPresheaf(TruncatedPresheaf(b1, 0), 0)
    for b in WindowSpec(2, 2).shapes():
        assert e0.size(b) == b1.size(POINT)


def test_project_class_drops_higher_coordinates():
    deg3 = [
        c for c in enumerate_hom(shape(1, 1), shape(1, 1)) if c.degree == 3
    ][0]
    assert project_class(deg3, 1) == identity_class(shape(1))


def test_extension_full_and_faithful_small():
    x1 = TruncatedPresheaf(NerveB1(cyclic(2)), 1)
    y1 = TruncatedPresheaf(NerveB1(cyclic(3)), 1)
    low = nat_presheaves(x1, y1, WindowSpec(1, 2))
    high = nat_presheaves(ExtendedPresheaf(x1, 1), ExtendedPresheaf(y1, 1), WindowSpec(2, 2))
    assert len(low) == len(high)
    low_keys = {tuple(f.components[b] for b in WindowSpec(1, 2).shapes()) for f in low}
    high_keys = {
        tuple(f.components[b] for b in WindowSpec(1, 2).shapes()) for f in high
    }
    assert low_keys == high_keys


def test_yoneda_small_window_all_methods():
    b1 = NerveB1(cyclic(2))
    rep = Representable(shape(1, 1))
    for x in (b1, rep):
        for a in shapes_with(2, 2):
            sub = full_sub(a)
            _, fams = nat_cells_oracle(sub, x)
            assert len(fams) == x.size(a)
            # the same count through the route between presheaves
            assert len(nat_presheaves(Representable(a), x, window_for(a))) == x.size(a)


def _route_subobjects():
    """For every shape of WindowSpec(2, 2) and t[3]: the full subobject,
    the boundary, every horn, the spine and the union of the outer faces."""
    for a in (*WindowSpec(2, 2).shapes(), shape(3)):
        yield full_sub(a)
        yield boundary(a)
        for fd in faces_of(a):
            yield horn(a, fd.k, fd.m)
        yield spine(a)
        yield union_of_faces(a, outer_faces(a))


@pytest.mark.parametrize("name", ["B1(Z2)", "B2strict(Z2)", "y(t[2,1])"])
def test_sub_as_presheaf_families_match_cell_oracle(name):
    # the route between presheaves, on a subobject viewed as a presheaf,
    # gives the cell search's families: read each at the mono cells
    x = MEMO_PRESHEAVES[name]()
    count = 0
    for sub in _route_subobjects():
        cells, want = nat_cells_oracle(sub, x)
        source = SubAsPresheaf(sub)
        got = {
            tuple(fam.components[c.src][source.index_of(c.src, c)] for c in cells)
            for fam in nat_presheaves(source, x, window_for(sub.base))
        }
        assert got == set(want), (name, sub.base, sorted(sub.cells, key=str))
        count += 1
    assert count == 57  # 8 shapes, 4 subobjects each and 25 horns


def test_nat_on_boundary_of_interval():
    b1 = NerveB1(cyclic(3))
    sub = boundary(shape(1))
    _, fams = nat_cells_oracle(sub, b1)
    assert len(fams) == b1.size(POINT) ** 2 == 1
    rep = Representable(shape(2))
    _, fams = nat_cells_oracle(sub, rep)
    assert len(fams) == rep.size(POINT) ** 2 == 9


def test_nat_face_union_inner_horn_of_triangle():
    b1 = NerveB1(cyclic(2))
    a = shape(2)
    roots = tuple(fd for fd in faces_of(a) if not (fd.k == 1 and fd.m == 1))
    fams = nat_face_union(roots, b1)
    assert len(fams) == 4
    hits = set(zip(*(b1.action(face_class(fd)) for fd in roots)))
    assert hits == set(fams)  # the restriction is a bijection onto the families


# every horn of these shapes, inner and outer, goes through both routes
MEMO_SHAPES = (*WindowSpec(2, 3).shapes(), shape(2, 2, 1))


def _b1_z3_table() -> TablePresheaf:
    """B1(Z3) as explicit tables over WindowSpec(2, 3) and window_for(t[2,2,1])."""
    x = NerveB1(cyclic(3))
    parts = [
        TablePresheaf.from_presheaf(x, w)
        for w in (WindowSpec(2, 3), window_for(shape(2, 2, 1)))
    ]
    levels = {b: lv for part in parts for b, lv in part.levels.items()}
    actions = {f: row for part in parts for f, row in part.actions_table.items()}
    return TablePresheaf(levels, actions, "table(B1(Z3))")


MEMO_PRESHEAVES = {
    "B1(Z2)": lambda: NerveB1(cyclic(2)),
    "B1(V4)": lambda: NerveB1(klein_four()),
    "B2strict(Z2)": lambda: NerveB2Strict(cyclic(2)),
    "y(t[2,1])": lambda: Representable(shape(2, 1)),
    "table(B1(Z3))": _b1_z3_table,
}


def _horn_roots(a, fd):
    return tuple(f for f in faces_of(a) if f != fd)


@pytest.mark.parametrize("name", sorted(MEMO_PRESHEAVES))
def test_nat_face_union_matches_per_call_tables(name):
    # the memoized face-pair tables must not depend on which horns filled
    # the memo first: request the horns in check order and in reverse
    horns = [(a, fd) for a in MEMO_SHAPES for fd in faces_of(a)]
    oracle_x = MEMO_PRESHEAVES[name]()
    expected = {
        (a, fd): face_union_oracle(_horn_roots(a, fd), oracle_x) for a, fd in horns
    }
    for order in (horns, horns[::-1]):
        x = MEMO_PRESHEAVES[name]()
        for a, fd in order:
            assert nat_face_union(_horn_roots(a, fd), x) == expected[(a, fd)]


def _outcome(route, roots, x, budget):
    try:
        return route(roots, x, budget), None
    except BudgetExceededError as exc:
        return None, exc.count


@pytest.mark.parametrize(
    "name, a, k, m, variables, nodes",
    [
        # no tied roots
        pytest.param("B2strict(Z2)", shape(2, 2), 2, 1, (5, 5), 28, id="a0-2-1-28"),
        pytest.param("B2strict(Z2)", shape(2, 3), 2, 1, (6, 6), 104, id="a1-2-1-104"),
        # roots tied by identity tables: (roots, merged variables)
        pytest.param("B2strict(Z2)", shape(2, 2, 2), 3, 1, (8, 7), 28, id="B2strict-t222-3-1"),
        pytest.param("B1(V4)", shape(3, 2), 1, 1, (6, 4), 80, id="B1V4-t32-1-1"),
        pytest.param("B1(V4)", shape(2, 2, 2), 3, 1, (8, 4), 20, id="B1V4-t222-3-1"),
    ],
)
def test_nat_face_union_budget_trips_like_per_call_tables(
    monkeypatch, name, a, k, m, variables, nodes
):
    # every budget from 1 up to the horn's node count; from the second
    # budget on, the memoized route reuses its tables, and only the last
    # solve, which does not trip, is stored.  The memoized route solves
    # one variable per class of tied roots, the oracle one per root
    x, oracle_x = MEMO_PRESHEAVES[name](), MEMO_PRESHEAVES[name]()
    roots = _horn_roots(a, face_descriptor(a, k, m))
    assert len(roots) == variables[0]
    solve_all = Network.solve_all
    solved = []

    def counted(net, budget):
        solved.append(len(net.domains))
        return solve_all(net, budget)

    monkeypatch.setattr(Network, "solve_all", counted)
    outcomes = []
    for budget in range(1, nodes + 1):
        want = _outcome(face_union_oracle, roots, oracle_x, budget)
        solved.clear()
        assert _outcome(nat_face_union, roots, x, budget) == want, budget
        assert solved == [variables[1]], budget
        assert (want[1] is None) == (budget == nodes)
        outcomes.append(want)
    # with the full solve stored, every budget is answered from the memo
    # without solving, with the same families or the same trip count
    nat_face_union(roots, x)

    def unreachable(net, budget):
        raise AssertionError("a stored network was solved again")

    monkeypatch.setattr(Network, "solve_all", unreachable)
    for budget in range(1, nodes + 1):
        assert _outcome(nat_face_union, roots, x, budget) == outcomes[budget - 1], budget


def _random_table(rng, size1, size2, density):
    fwd = [0] * size1
    bwd = [0] * size2
    for v in range(size1):
        for w in range(size2):
            if rng.random() < density:
                fwd[v] |= 1 << w
                bwd[w] |= 1 << v
    return fwd, bwd


@pytest.mark.parametrize("seed", range(100))
def test_solve_tables_merges_ties_like_the_full_network(seed):
    # random table networks with planted identity ties: the chain 0 ~ 1 ~ 2
    # with a non-identity table between 0 and 2 (a self-arc once merged),
    # the tie 3 ~ n-1 around the variables between them, further random
    # ties, and one table object on several pairs.  The merged solve must
    # give the full network's solutions, order, node count and budget trips
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    sizes = [rng.randint(2, 4)] * 3 + [rng.randint(1, 4) for _ in range(n - 3)]
    sizes[-1] = sizes[3]
    tie = lambda size: ([1 << v for v in range(size)], [1 << v for v in range(size)], True)
    tables = {(0, 1): tie(sizes[0]), (1, 2): tie(sizes[0]), (3, n - 1): tie(sizes[3])}
    tables[(0, 2)] = (*_random_table(rng, sizes[0], sizes[0], 0.7), False)
    shared = {}  # target size -> one table object from the tied class
    for i in range(n):
        for j in range(max(i + 1, 3), n):
            if (i, j) in tables:
                continue
            if sizes[i] == sizes[j] and rng.random() < 0.3:
                tables[(i, j)] = tie(sizes[i])
            elif i < 3 and rng.random() < 0.5:
                if sizes[j] not in shared:
                    shared[sizes[j]] = (*_random_table(rng, sizes[0], sizes[j], 0.6), False)
                tables[(i, j)] = shared[sizes[j]]
            elif rng.random() < 0.4:
                tables[(i, j)] = (*_random_table(rng, sizes[i], sizes[j], 0.6), False)
    arcs = [(i, j, tables[(i, j)]) for i, j in sorted(tables)]
    full = Network()
    for size in sizes:
        full.add_var(range(size))
    for i, j, (fwd, bwd, _) in arcs:
        full.add_arcs(i, j, "tab", fwd, bwd)
    want = sorted(full.solve_all())
    nodes = full.nodes
    memo = {}
    assert solve_tables(sizes, arcs, DEFAULT_BUDGET, memo) == want
    ((merged_sizes, _), (_, merged_nodes)), = memo.items()
    assert merged_nodes == nodes
    assert len(merged_sizes) <= n - 3
    for budget in range(1, nodes + 1):
        try:
            full_outcome = list(full.solve_all(budget)), None
        except BudgetExceededError as exc:
            full_outcome = None, exc.count
        try:
            outcome = solve_tables(sizes, arcs, budget, {}), None
        except BudgetExceededError as exc:
            outcome = None, exc.count
        if full_outcome[0] is not None:
            full_outcome = sorted(full_outcome[0]), None
        assert outcome == full_outcome, budget


def test_face_union_families_agree_with_cell_search():
    # two independent enumeration routes over the same horn: each family
    # on the roots, read at every cell, is one of the cell search's
    b1 = NerveB1(cyclic(2))
    for a in [shape(2), shape(2, 1), shape(1, 2)]:
        for fd in faces_of(a):
            roots = tuple(f for f in faces_of(a) if f != fd)
            root_cells = tuple(face_class(f) for f in roots)
            via_roots = nat_face_union(roots, b1)
            cells, via_cells = nat_cells_oracle(horn(a, fd.k, fd.m), b1)
            assert len(via_roots) == len(via_cells)
            read = {
                tuple(
                    b1.index_of(c.src, cell_value(b1, root_cells, fam, c))
                    for c in cells
                )
                for fam in via_roots
            }
            assert read == set(via_cells)


def test_face_union_families_are_natural():
    b1 = NerveB1(cyclic(2))
    a = shape(2, 1)
    for fd in faces_of(a):
        roots = tuple(f for f in faces_of(a) if f != fd)
        sub = horn(a, fd.k, fd.m)
        cells = tuple(face_class(f) for f in roots)
        for fam in nat_face_union(roots, b1):
            assert family_is_natural(sub, b1, partial(cell_value, b1, cells, fam))


def test_cell_families_are_natural():
    b1 = NerveB1(cyclic(2))
    a = shape(2)
    sub = spine(a)
    cells, fams = nat_cells_oracle(sub, b1)
    for fam in fams:
        assert family_is_natural(sub, b1, partial(cell_value, b1, cells, fam))
    # the spine of the triangle is its inner horn: four families
    assert len(fams) == 4


# ---------------------------------------------------------------------------
# nat_presheaves on nondegenerate elements against the per-element oracle


def _nat_outcome(monkeypatch, builder, source, target, window, budget=DEFAULT_BUDGET):
    """(family keys, solver nodes), or (None, the node the budget trips at)."""
    nets = []
    solve_all = Network.solve_all

    def spy(net, budget):
        nets.append(net)
        return solve_all(net, budget)

    with monkeypatch.context() as m:
        m.setattr(Network, "solve_all", spy)
        try:
            fams = builder(source, target, window, budget)
        except BudgetExceededError as exc:
            return None, exc.count
    return [fam.key() for fam in fams], nets[0]._nodes


def _h2_networks(gname, aname):
    """The maps and the cylinder network of `homotopy_classes` on (G, A)."""
    src, tgt = NerveB1(builtin_group(gname)), NerveB2EM(builtin_group(aname))
    return {"maps": (src, tgt), "cylinder": (ProductPresheaf(src, Representable(shape(1))), tgt)}


@pytest.mark.parametrize(
    "gname, aname",
    [(g, a) for g in ("Z2", "Z3") for a in ("Z2", "Z3", "Z4")]
    + [("Z4", "Z2"), ("V4", "Z2")],
)
def test_nat_presheaves_matches_per_element_oracle_on_h2(monkeypatch, gname, aname):
    # the same families in the same order, and the same search tree
    for kind, (source, target) in _h2_networks(gname, aname).items():
        want = _nat_outcome(monkeypatch, nat_presheaves_oracle, source, target, H2_WINDOW)
        got = _nat_outcome(monkeypatch, nat_presheaves, source, target, H2_WINDOW)
        assert got == want, kind
        assert want[0], kind


def _presheaf_pairs():
    """The source, target and window of the other nat_presheaves calls of
    this module, and a representable source."""
    x1, y1 = TruncatedPresheaf(NerveB1(cyclic(2)), 1), TruncatedPresheaf(NerveB1(cyclic(3)), 1)
    a = shape(2)
    w = window_for(a)
    return [
        (x1, y1, WindowSpec(1, 2)),
        (ExtendedPresheaf(x1, 1), ExtendedPresheaf(y1, 1), WindowSpec(2, 2)),
        (SubAsPresheaf(horn(a, 1, 1)), NerveB1(cyclic(2)), w),
        (Representable(shape(2, 1)), NerveB1(cyclic(3)), window_for(shape(2, 1))),
    ]


@pytest.mark.parametrize("case", range(4))
def test_nat_presheaves_matches_per_element_oracle_on_small_pairs(monkeypatch, case):
    source, target, window = _presheaf_pairs()[case]
    want = _nat_outcome(monkeypatch, nat_presheaves_oracle, source, target, window)
    assert _nat_outcome(monkeypatch, nat_presheaves, source, target, window) == want
    assert want[0]


def test_nat_presheaves_exact_between_tables_that_are_not_presheaves():
    # substituting through the degenerate elements keeps every constraint,
    # so the families agree even where the search trees need not
    w = WindowSpec(2, 2)
    table = TablePresheaf.from_presheaf(NerveB1(cyclic(3)), w)
    for bad in (swap_in_first_row(table), constants_to_all_ones(table)):
        assert not check_functoriality(bad, w).ok
        for source, target in ((bad, table), (table, bad), (bad, bad)):
            want = [fam.key() for fam in nat_presheaves_oracle(source, target, w)]
            assert [fam.key() for fam in nat_presheaves(source, target, w)] == want


@pytest.mark.parametrize("gname, aname", [("Z2", "Z2"), ("Z3", "Z2")])
def test_nat_presheaves_budget_trips_like_per_element_oracle(monkeypatch, gname, aname):
    # every budget from 1 up to the cylinder's node count.  The solver
    # counts nodes one by one, so a search of `nodes` nodes trips at
    # budget + 1 below `nodes` and finishes from there on; the oracle is
    # run at a few budgets to confirm that, and the expectation it gives
    # stands in for the oracle at the others, whose every run costs ~0.2 s
    source, target = _h2_networks(gname, aname)["cylinder"]
    keys, nodes = _nat_outcome(
        monkeypatch, nat_presheaves_oracle, source, target, H2_WINDOW
    )

    def want(budget):
        return (keys, nodes) if budget >= nodes else (None, budget + 1)

    for budget in sorted({1, nodes // 2, nodes - 1, nodes}):
        assert _nat_outcome(
            monkeypatch, nat_presheaves_oracle, source, target, H2_WINDOW, budget
        ) == want(budget), budget
    for budget in range(1, nodes + 1):
        got = _nat_outcome(monkeypatch, nat_presheaves, source, target, H2_WINDOW, budget)
        assert got == want(budget), budget


def test_budget_exceeded():
    b1 = NerveB1(cyclic(2))
    a = shape(2, 2)
    with pytest.raises(BudgetExceededError) as err:
        nat_presheaves(SubAsPresheaf(full_sub(a)), b1, window_for(a), budget=3)
    assert err.value.count > 3


def test_naturality_beyond_window_sampling():
    # families carry enough structure to evaluate at any cell; sample
    # naturality squares whose source lies outside the core window
    rng = random.Random(7)
    b1 = NerveB1(cyclic(2))
    a = shape(2)
    roots = tuple(fd for fd in faces_of(a) if not (fd.k == 1 and fd.m == 1))
    root_cells = tuple(face_class(fd) for fd in roots)
    fams = nat_face_union(roots, b1)
    outside = [shape(1, 1, 1, 1), shape(2, 2, 1), shape(3, 1)]
    horn_sub = horn(a, 1, 1)
    for _ in range(50):
        value_at = partial(cell_value, b1, root_cells, rng.choice(fams))
        b2 = rng.choice(window_for(a).shapes())
        cells = [s for s in horn_sub.level(b2)]
        s = rng.choice(cells)
        b1_shape = rng.choice(outside)
        f = rng.choice(enumerate_hom(b1_shape, b2))
        assert value_at(compose_classes(s, f)) == b1.apply(f, value_at(s))
