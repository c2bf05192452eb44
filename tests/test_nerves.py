import itertools
import json
import math
import random

import pytest

from conftest import (
    NerveB2EMTables,
    cohomologous,
    cone_to_table,
    group_to_json,
    homotopy_pairs_oracle,
    one_class_too_many,
    transitive_oracle,
)
from thetacat import nerves
from thetacat.cli import main
from thetacat.errors import BudgetExceededError
from thetacat.groups import (
    Cocycle2,
    FiniteGroup,
    builtin_group,
    cocycle_tools,
    cyclic,
    klein_four,
    normalized_2coboundaries,
    normalized_2cocycles,
    symmetric_3,
)
from thetacat.nerves import (
    H2_WINDOW,
    NerveB1,
    NerveB2EM,
    NerveB2Strict,
    cocycle_to_map,
    homotopy_classes,
    is_transitive,
    map_to_cocycle,
    nerve_from_spec,
)
from thetacat.presheaves import (
    Presheaf,
    PresheafNatFamily,
    check_functoriality,
    nat_presheaves,
    union_heads,
)
from thetacat.subshapes import WindowSpec
from thetacat.theta import (
    POINT,
    constant_class,
    enumerate_hom,
    face_class,
    faces_of,
    shape,
)


# ---------------------------------------------------------------------------
# groups


def test_builtin_groups_validate():
    for name in ("Z2", "Z3", "Z4", "V4", "S3"):
        g = builtin_group(name)
        assert g.mul(g.identity, 1) == 1
        assert g.mul(1, g.inverse[1]) == g.identity
    assert not symmetric_3().abelian
    assert klein_four().abelian
    with pytest.raises(ValueError):
        builtin_group("Q8")


def test_group_json_roundtrip():
    g = klein_four()
    back = FiniteGroup.from_json(group_to_json(g))
    assert back.table == g.table and back.elements == g.elements


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup("bad", ("e", "x"), ((0, 1), (1, 1)))  # no inverse for x
    with pytest.raises(ValueError):
        FiniteGroup("bad", ("e", "x"), ((0, 1), (1, 2)))  # out of range


# ---------------------------------------------------------------------------
# the one-object groupoid nerve


def test_b1_level_sizes():
    b1 = NerveB1(cyclic(2))
    assert b1.size(shape(2, 1)) == 4
    assert b1.size(POINT) == 1
    assert b1.size(shape(3)) == 8


def test_b1_constant_class_acts_as_identity_string():
    b1 = NerveB1(cyclic(2))
    const = constant_class(shape(1), shape(1), 1)
    e = b1.group.identity
    for x in b1.elements(shape(1)):
        assert b1.apply(const, x) == (e,)


def test_b1_face_actions_multiply():
    g = cyclic(3)
    b1 = NerveB1(g)
    from thetacat.theta import face_class, face_descriptor

    # the inner face of the triangle composes the two arrows
    inner = face_class(face_descriptor(shape(2), 1, 1))
    for x, y in b1.elements(shape(2)):
        assert b1.apply(inner, (x, y)) == (g.mul(x, y),)


def test_b1_functoriality():
    for g in (cyclic(2), symmetric_3()):
        assert check_functoriality(NerveB1(g), WindowSpec(2, 2)).ok


def test_nerve_actions_independent_of_representative():
    # a class only records components up to its degree; the grid nerve
    # reads two components, so a degree-1 class is evaluated through a
    # chosen constant extension.  Any other constant extension must
    # give the same function.
    from thetacat.delta import constant_map
    from thetacat.theta import MorphismClass

    rng = random.Random(5)
    shapes = WindowSpec(2, 2).shapes()
    nerves = [
        NerveB1(symmetric_3()),
        NerveB2Strict(cyclic(4)),
        NerveB2EM(cyclic(3)),
    ]
    for _ in range(500):
        a = rng.choice(shapes)
        b = rng.choice(shapes)
        f = rng.choice(enumerate_hom(a, b))
        depth = 2
        if f.degree > depth:
            continue
        comps = list(f.components)
        for k in range(f.degree + 1, depth + 1):
            comps.append(
                constant_map(a.entry(k), b.entry(k), rng.randint(0, b.entry(k)))
            )
        fake = MorphismClass(a, b, tuple(comps))
        for x_nerve in nerves:
            for x in x_nerve.elements(b):
                assert x_nerve.apply(f, x) == x_nerve.apply(fake, x)


# ---------------------------------------------------------------------------
# the strict 2-nerve


def test_b2_needs_abelian():
    with pytest.raises(ValueError):
        NerveB2Strict(symmetric_3())
    with pytest.raises(ValueError):
        NerveB2EM(symmetric_3())


def test_b2_level_sizes():
    b2 = NerveB2Strict(cyclic(2))
    assert b2.size(shape(2, 1)) == 4
    for n in range(1, 4):
        assert b2.size(shape(n)) == 1
    assert b2.size(shape(2, 2)) == 16


@pytest.mark.parametrize(
    "group, window",
    [(cyclic(2), WindowSpec(3, 3)), (cyclic(3), WindowSpec(3, 3)),
     (klein_four(), WindowSpec(2, 2))],
    ids=["Z2", "Z3", "V4"],
)
def test_b2_sizes_count_the_levels(group, window):
    # the closed form |A|^(b1*b2) on one nerve, the built levels on another
    counted, built = NerveB2Strict(group), NerveB2Strict(group)
    for b in window.shapes():
        assert counted.size(b) == len(built.elements(b)), b


def test_bench_checks_build_no_b2_level(monkeypatch, tmp_path):
    # a horn check reads the strict 2-nerve's sizes and arrays, never a level
    calls = []
    elements = NerveB2Strict._elements

    def counting(x, b):
        calls.append(b)
        return elements(x, b)

    monkeypatch.setattr(NerveB2Strict, "_elements", counting)
    out = str(tmp_path / "report.json")
    for mode, window, code in (
        ("strict-cat", [], 0),
        ("n-strict:2", [], 0),
        ("groupoid", ["--max-dim", "2", "--max-entry", "3"], 2),
    ):
        argv = ["check", "--mode", mode, "--nerve", "B2strict:Z2", *window]
        assert main([*argv, "--out", out]) == code, mode
    assert calls == []


def test_b2_functoriality():
    assert check_functoriality(NerveB2Strict(cyclic(2)), WindowSpec(2, 2)).ok
    assert check_functoriality(NerveB2Strict(cyclic(3)), WindowSpec(1, 3)).ok


def test_b2_column_sums():
    a_ = cyclic(4)
    b2 = NerveB2Strict(a_)
    from thetacat.theta import face_class, face_descriptor

    # composing the two columns of t[2,1] adds the grids
    inner = face_class(face_descriptor(shape(2, 1), 1, 1))
    for x in b2.elements(shape(2, 1)):
        assert b2.apply(inner, x) == (a_.mul(x[0], x[1]),)


# ---------------------------------------------------------------------------
# the cocycle realization


def test_em_level_sizes():
    em = NerveB2EM(cyclic(2))
    assert em.size(shape(2)) == 2  # one free value: the coefficient group
    assert em.size(shape(3)) == 8
    assert em.size(shape(1)) == 1
    assert em.size(POINT) == 1
    assert em.size(shape(2, 3)) == em.size(shape(2))  # depends on b1 only


@pytest.mark.parametrize(
    "group,top",
    [(cyclic(2), 4), (cyclic(3), 4), (cyclic(4), 3), (klein_four(), 3)],
    ids=["Z2-4", "Z3-4", "Z4-3", "V4-3"],
)
def test_em_levels_match_full_table_oracle(group, top):
    # the cone values rebuild the oracle's full tables, element by element
    # and in order, and every full table is a cocycle
    em, oracle = NerveB2EM(group), NerveB2EMTables(group)
    for n in range(top + 1):
        b = shape(n) if n else POINT
        tables = oracle.elements(b)
        assert tables == tuple(cone_to_table(group, n, x) for x in em.elements(b))
        assert all(oracle._is_simplicial_cocycle(n, t) for t in tables)


@pytest.mark.parametrize(
    "group,window",
    [
        (cyclic(2), WindowSpec(2, 3)),
        (cyclic(3), WindowSpec(2, 3)),
        (cyclic(4), WindowSpec(2, 3)),
        (klein_four(), WindowSpec(2, 3)),
        (cyclic(2), WindowSpec(1, 4)),
        (cyclic(3), WindowSpec(1, 4)),
    ],
    ids=["Z2-(2,3)", "Z3-(2,3)", "Z4-(2,3)", "V4-(2,3)", "Z2-(1,4)", "Z3-(1,4)"],
)
def test_em_action_arrays_match_full_table_oracle(group, window):
    em, oracle = NerveB2EM(group), NerveB2EMTables(group)
    shapes = window.shapes()
    for b1 in shapes:
        for b2 in shapes:
            for f in enumerate_hom(b1, b2):
                assert em.action(f) == oracle.action(f), f


def test_em_functoriality():
    assert check_functoriality(NerveB2EM(cyclic(2)), WindowSpec(2, 2)).ok
    assert check_functoriality(NerveB2EM(cyclic(3)), WindowSpec(1, 3)).ok


CORE_SHAPES = WindowSpec(2, 3).shapes()
CORE_CLASSES = [
    f for b1 in CORE_SHAPES for b2 in CORE_SHAPES for f in enumerate_hom(b1, b2)
] + [face_class(fd) for fd in faces_of(shape(3, 3, 1))]


@pytest.mark.parametrize(
    "make",
    [
        lambda: NerveB1(cyclic(3)),
        lambda: NerveB1(klein_four()),
        lambda: NerveB2Strict(cyclic(2)),
        lambda: NerveB2EM(cyclic(2)),
    ],
    ids=["B1(Z3)", "B1(V4)", "B2strict(Z2)", "B2em(Z2)"],
)
def test_core_keyed_arrays_match_element_by_element(monkeypatch, make):
    # each class's array is either built for that class by the builder the
    # nerve calls (recorded), or shared from a class with the same core;
    # both are compared with the element-by-element build here
    element_by_element = Presheaf._build_action
    built = {}
    x = make()
    builder = type(x)._build_core_action

    def recorded(x, f):
        built[f] = builder(x, f)
        return built[f]

    monkeypatch.setattr(type(x), "_build_core_action", recorded)
    by_core = {}
    for f in CORE_CLASSES:
        arr = x.action(f)
        want = element_by_element(x, f)
        assert arr == want, f
        core = tuple(f.component(k) for k in range(1, x.core_dim + 1))
        assert by_core.setdefault(core, arr) is arr, f
    assert len(built) == len(by_core) < len(CORE_CLASSES)


def test_nerve_from_spec():
    assert nerve_from_spec("B1:Z2").name == "B1(Z2)"
    assert nerve_from_spec("B2strict:Z4").name == "B2(Z4)"
    assert nerve_from_spec("B2em:Z3").name == "B2em(Z3)"
    with pytest.raises(ValueError):
        nerve_from_spec("B3:Z2")


# ---------------------------------------------------------------------------
# brute-force cohomology


def test_cocycle_counts_frozen():
    # classical values, rebuilt by exhaustive enumeration
    z2, z3 = cyclic(2), cyclic(3)
    data = cocycle_tools(z2, z2)
    assert (len(data.z2), len(data.b2), data.classes) == (2, 1, 2)
    data = cocycle_tools(z3, z3)
    assert (len(data.z2), len(data.b2), data.classes) == (9, 3, 3)
    data = cocycle_tools(z2, z3)
    assert (len(data.z2), len(data.b2), data.classes) == (3, 3, 1)


def test_budget_counts_refused_candidates(monkeypatch):
    z2, z3 = cyclic(2), cyclic(3)
    # the t[3] level has 3 free entries (i, j, k) with i = 0
    monkeypatch.setattr(nerves, "EM_LEVEL_BUDGET", 7)
    with pytest.raises(BudgetExceededError) as exc:
        NerveB2EM(z2).elements(shape(3))
    assert exc.value.count == 2**3
    # 4 free entries of a normalized table on Z3
    with pytest.raises(BudgetExceededError) as exc:
        normalized_2cocycles(z3, z3, budget=80)
    assert exc.value.count == 3**4


def test_cocycle_validate():
    z2 = cyclic(2)
    for c in normalized_2cocycles(z2, z2):
        c.validate()
    bad = Cocycle2(z2, z2, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("pair", [("Z3", "Z2"), ("V4", "Z2")])
def test_cocycle_validate_names_the_first_failing_triple(pair):
    """validate tests the non-identity triples only; on every normalized
    table it names the first failure over all triples."""
    g_, a_ = builtin_group(pair[0]), builtin_group(pair[1])
    n, e = g_.order, g_.identity
    free = [(g, h) for g in range(n) for h in range(n) if e not in (g, h)]
    for values in itertools.product(range(a_.order), repeat=len(free)):
        table = [a_.identity] * (n * n)
        for (g, h), v in zip(free, values):
            table[g * n + h] = v
        c = Cocycle2(g_, a_, tuple(table))
        first = next(
            (
                (g, h, k)
                for g, h, k in itertools.product(range(n), repeat=3)
                if a_.mul(c.value(g, h), c.value(g_.mul(g, h), k))
                != a_.mul(c.value(h, k), c.value(g, g_.mul(h, k)))
            ),
            None,
        )
        if first is None:
            c.validate()
        else:
            with pytest.raises(ValueError) as exc:
                c.validate()
            assert str(exc.value) == f"cocycle identity fails at {first}"


def test_coboundaries_are_cocycles():
    z4 = cyclic(4)
    z2 = cyclic(2)
    z2set = {c.table for c in normalized_2cocycles(z4, z2)}
    for t in normalized_2coboundaries(z4, z2):
        assert t in z2set


def test_cohomologous_partition():
    z3 = cyclic(3)
    data = cocycle_tools(z3, z3)
    buckets = []
    for c in data.z2:
        for bucket in buckets:
            if cohomologous(c, bucket[0], data.b2):
                bucket.append(c)
                break
        else:
            buckets.append([c])
    assert len(buckets) == data.classes == 3


# ---------------------------------------------------------------------------
# maps vs cocycles


@pytest.mark.parametrize(
    "gname,aname,count",
    [("Z2", "Z2", 2), ("Z3", "Z3", 9), ("Z2", "Z3", 3)],
)
def test_maps_equal_cocycles(gname, aname, count):
    g_, a_ = builtin_group(gname), builtin_group(aname)
    maps = nat_presheaves(NerveB1(g_), NerveB2EM(a_), H2_WINDOW)
    z2 = normalized_2cocycles(g_, a_)
    assert len(maps) == len(z2) == count
    # the two round trips are exact
    for m in maps:
        assert cocycle_to_map(map_to_cocycle(m)) == m
    for c in z2:
        built = cocycle_to_map(c)
        assert map_to_cocycle(built) == c


def test_trivial_cocycle_gives_constant_map():
    z2 = cyclic(2)
    trivial = Cocycle2(z2, z2, (0,) * 4)
    m = cocycle_to_map(trivial)
    em = m.target
    for b in H2_WINDOW.shapes():
        zero_idx = em.index_of(b, tuple([z2.identity] * len(em.elements(b)[0])))
        assert all(v == zero_idx for v in m.components[b])


def test_cocycle_maps_are_natural_beyond_window(monkeypatch):
    # the formula evaluates at any shape; check squares into larger shapes,
    # with the map built on WindowSpec(3, 3) in place of H2_WINDOW
    rng = random.Random(11)
    z3 = cyclic(3)
    for c in normalized_2cocycles(z3, z3):
        with monkeypatch.context() as m:
            m.setattr(nerves, "H2_WINDOW", WindowSpec(3, 3))
            big = cocycle_to_map(c)
        src, tgt = big.source, big.target
        for _ in range(10):
            b_out = rng.choice([shape(1, 1, 1), shape(3, 2, 1), shape(2, 2)])
            b_in = rng.choice(H2_WINDOW.shapes())
            f = rng.choice(enumerate_hom(b_out, b_in))
            for x in src.elements(b_in):
                lhs = big.value(b_out, src.apply(f, x))
                rhs = tgt.apply(f, big.value(b_in, x))
                assert lhs == rhs


def test_map_to_cocycle_requires_em_target():
    z2 = cyclic(2)
    maps = nat_presheaves(NerveB1(z2), NerveB2EM(z2), H2_WINDOW)
    c = map_to_cocycle(maps[0])
    c.validate()


# ---------------------------------------------------------------------------
# homotopy classes


@pytest.mark.parametrize(
    "gname,aname,nmaps,nclasses",
    [("Z2", "Z2", 2, 2), ("Z2", "Z3", 3, 1), ("Z3", "Z3", 9, 3)],
)
def test_homotopy_classes(gname, aname, nmaps, nclasses):
    rep = homotopy_classes(builtin_group(gname), builtin_group(aname))
    assert len(rep.maps) == nmaps
    assert rep.num_classes == nclasses
    assert rep.h2.classes == nclasses
    assert rep.agree
    assert rep.counterexample is None
    assert rep.relation_was_reflexive
    assert rep.relation_was_symmetric
    assert rep.relation_was_transitive


# Integral homology of the group as orders of cyclic summands:
# H_1 is the abelianization, H_2 the Schur multiplier.
GROUP_HOMOLOGY = {
    "Z4": {"H1": (4,), "H2": ()},
    "V4": {"H1": (2, 2), "H2": (2,)},
}


@pytest.mark.parametrize("gname", sorted(GROUP_HOMOLOGY))
def test_homotopy_classes_by_universal_coefficients(gname):
    # H^2(G; A) = Hom(H_2 G, A) + Ext(H_1 G, A), and for A = Z_n both
    # Hom(Z_m, A) and Ext(Z_m, A) have gcd(m, n) elements: 2 classes on
    # Z4/Z2 and 8 on V4/Z2
    n = 2
    homology = GROUP_HOMOLOGY[gname]
    expected = math.prod(math.gcd(m, n) for m in homology["H2"] + homology["H1"])
    rep = homotopy_classes(builtin_group(gname), cyclic(n))
    assert rep.num_classes == rep.h2.classes == expected
    assert rep.agree and rep.counterexample is None
    assert rep.relation_was_reflexive and rep.relation_was_symmetric


def _forced_disagreement(g_: FiniteGroup, a_: FiniteGroup):
    """`homotopy_classes` told one cocycle class too many, which makes it
    attach the counterexample bundle."""
    with one_class_too_many():
        return homotopy_classes(g_, a_)


def test_counterexample_artifact_structure():
    # force a disagreement by lying about the cocycle class count
    z2 = cyclic(2)
    real = homotopy_classes(z2, z2)
    assert real.counterexample is None
    rep = _forced_disagreement(z2, z2)
    assert not rep.agree
    art = rep.counterexample
    assert art is not None
    assert set(art) >= {
        "maps",
        "homotopy_pairs",
        "homotopy_transcript",
        "num_classes",
        "h2_classes",
        "cocycles",
        "coboundaries",
    }
    assert art["num_classes"] == 2 and art["h2_classes"] == 3


H2_PAIRS = [
    ("Z2", "Z2"),
    ("Z2", "Z3"),
    ("Z2", "Z4"),
    ("Z3", "Z2"),
    ("Z3", "Z3"),
    ("Z4", "Z2"),
    ("V4", "Z2"),
]


@pytest.mark.parametrize("gname,aname", H2_PAIRS)
def test_homotopy_pairs_match_expansion_oracle(gname, aname):
    # reading each cylinder solution at its endpoint roots gives the pairs
    # of the expanded families, and the bundle lists them in the same order
    g_, a_ = builtin_group(gname), builtin_group(aname)
    pairs, transcript = homotopy_pairs_oracle(g_, a_)
    rep = homotopy_classes(g_, a_)
    n = len(rep.maps)
    assert rep.pairs == tuple(sorted(pairs))
    assert rep.relation_was_reflexive == all((i, i) in pairs for i in range(n))
    assert rep.relation_was_symmetric == all((b, a) in pairs for a, b in pairs)
    assert rep.relation_was_transitive == transitive_oracle(pairs)
    assert rep.num_classes == len(set(union_heads(n, pairs)))
    art = _forced_disagreement(g_, a_).counterexample
    assert art["homotopy_pairs"] == sorted(pairs)
    assert art["homotopy_transcript"] == transcript


@pytest.mark.parametrize("gname,aname", [("Z2", "Z2"), ("Z3", "Z2")])
def test_counterexample_bundle_matches_expansion_oracle(gname, aname):
    g_, a_ = builtin_group(gname), builtin_group(aname)
    pairs, transcript = homotopy_pairs_oracle(g_, a_)
    maps = nat_presheaves(NerveB1(g_), NerveB2EM(a_), H2_WINDOW)
    h2 = cocycle_tools(g_, a_)
    want = {
        "maps": [m.to_json() for m in maps],
        "homotopy_pairs": sorted(pairs),
        "homotopy_transcript": transcript,
        "num_classes": len(set(union_heads(len(maps), pairs))),
        "h2_classes": h2.classes + 1,
        "cocycles": [c.to_json() for c in h2.z2],
        "coboundaries": [list(t) for t in h2.b2],
    }
    got = _forced_disagreement(g_, a_).counterexample
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_homotopy_classes_builds_no_cylinder_family(monkeypatch):
    # only the maps are families; the cylinder solutions are read at roots
    built = []
    init = PresheafNatFamily.__init__

    def counting_init(fam, source, *args):
        built.append(source.name)
        init(fam, source, *args)

    monkeypatch.setattr(PresheafNatFamily, "__init__", counting_init)
    rep = homotopy_classes(cyclic(3), cyclic(3))
    assert rep.agree and len(rep.maps) == 9
    assert built == ["B1(Z3)"] * 9


def test_is_transitive_matches_pair_of_pairs_loop():
    rng = random.Random(7)
    verdicts = []
    for trial in range(200):
        n = rng.randint(1, 7)
        pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.3}
        if trial % 2:
            # its transitive closure, by Warshall's loop
            for k in range(n):
                for a in range(n):
                    for b in range(n):
                        if (a, k) in pairs and (k, b) in pairs:
                            pairs.add((a, b))
        verdicts.append(transitive_oracle(pairs))
        assert is_transitive(pairs) == verdicts[-1], pairs
    assert 50 < sum(verdicts) < 175
