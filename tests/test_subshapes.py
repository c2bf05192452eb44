import itertools

import pytest

from conftest import (
    classical_boundary,
    classical_cells,
    classical_horn,
    check_closure,
    classical_spine,
    common_cells,
    levelwise_composites,
    levelwise_image,
    levelwise_pullback,
    levelwise_sub,
    nat_cells_oracle,
    shapes_with,
)
from thetacat.presheaves import Representable
from thetacat.subshapes import (
    SubOfRepresentable,
    WindowSpec,
    boundary,
    common_restrictions,
    face_image,
    face_membership,
    full_sub,
    horn,
    image,
    in_union_of_faces,
    pullback_along,
    spine,
    spine_membership,
    sub_algebra,
    sub_intersect,
    sub_union,
    union_of_faces,
    window_for,
)
from thetacat.theta import (
    POINT,
    Shape,
    compose_classes,
    constant_class,
    enumerate_hom,
    epi_classes_between,
    face_class,
    face_descriptor,
    faces_of,
    factor_through,
    identity_class,
    mono_cells_into,
    outer_faces,
    shape,
)


def test_window_shapes_ordering():
    w = WindowSpec(2, 2)
    ss = w.shapes()
    assert ss[0] == POINT
    assert list(ss) == sorted(ss, key=lambda s: (s.dim, s.entries))
    assert len(ss) == 1 + 2 + 4
    assert len(WindowSpec(3, 3).shapes()) == 40


def test_face_membership_examples():
    a = shape(2)
    ident = identity_class(a)
    assert not face_membership(ident, face_descriptor(a, 1, 1))
    vertex1 = constant_class(POINT, a, 1)
    assert face_membership(vertex1, face_descriptor(a, 1, 0))
    # a dropped-coordinate face tests the constant value of the cell
    cell = face_class(face_descriptor(shape(2, 1), 2, 0))  # constant at 1
    assert not face_membership(cell, face_descriptor(shape(2, 1), 2, 1))
    assert face_membership(cell, face_descriptor(shape(2, 1), 2, 0))


def test_boundary_of_interval():
    bd = boundary(shape(1))
    assert len(bd.level(POINT)) == 2
    assert identity_class(shape(1)) not in bd.level(shape(1))


def test_boundary_of_point_is_empty():
    w = window_for(POINT)
    bd = boundary(POINT)
    assert all(not bd.level(b) for b in w.shapes())


def test_boundary_t11_level_interval():
    a = shape(1, 1)
    bd = boundary(a)
    level = bd.level(shape(1))
    # both dropped-coordinate face cells and both vertices-as-edges
    assert len(level) == 4
    face_cells = {face_class(fd) for fd in faces_of(a)}
    assert face_cells <= bd.level(shape(1))


def test_horn_equals_spine_on_triangle():
    a = shape(2)
    assert sub_algebra("equal", horn(a, 1, 1), spine(a))


def test_horn_missing_face_tagging():
    assert not face_descriptor(shape(2, 1), 2, 0).inner
    assert face_descriptor(shape(2, 1), 1, 1).inner
    assert not any(fd.inner for fd in faces_of(shape(1, 1)))


def test_horn_invalid_face_raises():
    with pytest.raises(ValueError):
        horn(shape(1, 1), 1, 0)


def test_spine_of_all_ones_is_full():
    for d in range(4):
        a = Shape((1,) * d)
        assert sub_algebra("equal", spine(a), full_sub(a))


def test_spine_point_full():
    assert sub_algebra("equal", spine(POINT), full_sub(POINT))


def test_horn_union_face_is_boundary():
    for a in shapes_with(3, 3, min_dim=1):
        bd = boundary(a)
        for fd in faces_of(a):
            h = horn(a, fd.k, fd.m)
            assert sub_algebra("equal", sub_union(h, face_image(fd)), bd)


def test_equal_subobjects_hash_equal():
    # built different ways, equal subobjects are one element of a set
    a = shape(2)
    pairs = [(horn(a, 1, 1), spine(a))]
    w = WindowSpec(2, 2)
    for a in w.shapes():
        for fd in faces_of(a):
            pairs.append(
                (sub_union(horn(a, fd.k, fd.m), face_image(fd)), boundary(a))
            )
    assert len(pairs) > 1
    for u, v in pairs:
        assert u == v
        assert hash(u) == hash(v)
        assert len({u, v}) == 1


def test_spine_in_outer_union():
    for a in shapes_with(3, 3, min_dim=1):
        if all(x == 1 for x in a.entries):
            continue
        assert sub_algebra("subset", spine(a), union_of_faces(a, outer_faces(a)))


def test_sub_algebra_idempotence_and_intersection():
    a = shape(2)
    w = window_for(a)
    bd = boundary(a)
    assert sub_algebra("equal", sub_union(bd, bd), bd)
    # vertex 1 is the intersection of the two faces through it
    f0 = face_image(face_descriptor(a, 1, 0))
    f2 = face_image(face_descriptor(a, 1, 2))
    both = sub_intersect(f0, f2)
    vertex = constant_class(POINT, a, 1)
    assert both.level(POINT) == frozenset(
        {vertex}
    ) and all(
        all(s.degree == 1 and s.components[0].values[0] == 1 for s in both.level(b))
        for b in w.shapes()
    )


def test_sub_algebra_base_mismatch():
    with pytest.raises(ValueError):
        sub_algebra("union", boundary(shape(2)), full_sub(shape(1)))


def test_precomposition_closure():
    for a in [shape(2), shape(2, 1), shape(1, 1)]:
        check_closure(boundary(a))
        check_closure(spine(a))
        for fd in faces_of(a):
            check_closure(horn(a, fd.k, fd.m))


def test_classical_agreement_dim_one():
    # levels of the one-coordinate constructions against an independent
    # classical simplicial computation, under class <-> monotone map
    def as_map(cls):
        if cls.degree == 1:
            return cls.components[0]
        return cls.components[0]

    for n in range(1, 4):
        a = shape(n)
        w = window_for(a)
        for m in range(0, w.max_dim + 1):
            b = POINT if m == 0 else shape(m)
            level_maps = sorted(as_map(s).values for s in boundary(a).level(b))
            assert level_maps == sorted(f.values for f in classical_boundary(n, m))
            level_maps = sorted(as_map(s).values for s in spine(a).level(b))
            assert level_maps == sorted(f.values for f in classical_spine(n, m))
            for k in range(n + 1):
                level_maps = sorted(
                    as_map(s).values for s in horn(a, 1, k).level(b)
                )
                assert level_maps == sorted(
                    f.values for f in classical_horn(n, k, m)
                )
            full_maps = sorted(as_map(s).values for s in full_sub(a).level(b))
            assert full_maps == sorted(f.values for f in classical_cells(n, m))


def test_pullback_examples():
    a = shape(2)
    w = window_for(a)
    ident = identity_class(a)
    assert sub_algebra("equal", pullback_along(full_sub(a), ident), full_sub(a))
    assert sub_algebra("equal", pullback_along(boundary(a), ident), boundary(a))
    # the horn pulled back along its own missing face is the boundary
    fc = face_class(face_descriptor(a, 1, 1))
    pb = pullback_along(horn(a, 1, 1), fc)
    bd = boundary(shape(1))
    assert [pb.level(b) for b in w.shapes()] == [bd.level(b) for b in w.shapes()]
    # pullback of anything full along any class is full
    for c in enumerate_hom(shape(1), a):
        assert sub_algebra(
            "equal",
            pullback_along(full_sub(a), c),
            full_sub(shape(1)),
        )


def test_nondegenerate_cells_counts():
    # a subobject's mono cells are its nondegenerate cells, and the cell
    # oracle takes one variable per cell
    for sub, count in (
        (full_sub(shape(1)), 3),
        (boundary(shape(1, 1)), 4),
        (full_sub(POINT), 1),
    ):
        assert len(sub.cells) == count
        assert len(nat_cells_oracle(sub, Representable(sub.base))[0]) == count


def test_nondegenerate_cells_match_brute_force():
    for sub in (
        full_sub(shape(2, 1)),
        full_sub(shape(3)),
        boundary(shape(1, 2)),
    ):
        w = window_for(sub.base)
        brute = set()
        for b in w.shapes():
            for s in sub.level(b):
                degenerate = False
                for b2 in w.shapes():
                    for e in epi_classes_between(b, b2):
                        if e.is_identity():
                            continue
                        if any(
                            compose_classes(s2, e) == s for s2 in sub.level(b2)
                        ):
                            degenerate = True
                if not degenerate:
                    brute.add((b, s))
        assert brute == {(s.src, s) for s in sub.cells}, sub.base
        cells, _ = nat_cells_oracle(sub, Representable(sub.base))
        assert set(cells) == sub.cells, sub.base


def test_face_image_is_image_of_face_class():
    # the step check of `anodyne` reads each face off its class
    cases = list(WindowSpec(2, 3).shapes()) + [
        shape(1, 1, 1), shape(2, 1, 1), shape(2, 2, 2), shape(3, 2)
    ]
    checked = 0
    for a in cases:
        w = window_for(a)
        for fd in faces_of(a):
            for b in w.shapes():
                members = {s for s in enumerate_hom(b, a) if face_membership(s, fd)}
                assert members == image(face_class(fd)).level(b), (a, fd, b)
                checked += 1
    assert checked == 858


# ---------------------------------------------------------------------------
# the stored mono cells against the levelwise oracle

DIFFERENTIAL_SHAPES = [*WindowSpec(2, 2).shapes(), shape(3), shape(2, 1, 1)]


def _face_built(a: Shape, w: WindowSpec):
    """(subobject, oracle levels) for full_sub, boundary, spine, every
    face image and horn, and every union of faces of `a`."""
    fds = faces_of(a)
    out = [
        (full_sub(a), levelwise_sub(a, w, lambda s: True)),
        (boundary(a), levelwise_sub(a, w, lambda s: in_union_of_faces(s, fds))),
        (spine(a), levelwise_sub(a, w, spine_membership)),
    ]
    for fd in fds:
        others = [f for f in fds if f != fd]
        out.append(
            (face_image(fd), levelwise_sub(a, w, lambda s: face_membership(s, fd)))
        )
        out.append(
            (
                horn(a, fd.k, fd.m),
                levelwise_sub(a, w, lambda s: in_union_of_faces(s, others)),
            )
        )
    for r in range(len(fds) + 1):
        for chosen in itertools.combinations(fds, r):
            out.append(
                (
                    union_of_faces(a, chosen),
                    levelwise_sub(a, w, lambda s: in_union_of_faces(s, chosen)),
                )
            )
    return out


def _assert_levels(u: SubOfRepresentable, levels: dict) -> None:
    """Derived levels and membership against the oracle at every shape."""
    for b in levels:
        assert u.level(b) == levels[b], (u.base, b)
        for s in enumerate_hom(b, u.base):
            assert (s in u) == (s in levels[b]), s


def _assert_pairs(built) -> None:
    """`==`, `hash` and `is_subset` against the levelwise comparison on
    every pair of `built` (subobjects of one base, with oracle levels on
    one window).

    Equality is checked within each class of equal oracle levels and
    between one representative of each class, so every pair is covered:
    equal subobjects have equal cells, hence the same subset relations.
    """
    classes: dict[tuple, list] = {}
    for u, levels in built:
        classes.setdefault(tuple(levels.values()), []).append(u)
    reps = []
    for key, subs in classes.items():
        assert all(u == subs[0] and hash(u) == hash(subs[0]) for u in subs)
        reps.append((subs[0], key))
    for (u, ku), (v, kv) in itertools.product(reps, repeat=2):
        assert (u == v) == (ku == kv)
        assert u.is_subset(v) == all(x <= y for x, y in zip(ku, kv))


@pytest.mark.parametrize("a", DIFFERENTIAL_SHAPES, ids=str)
def test_mono_cells_match_levelwise_oracle(a):
    w = window_for(a)
    built = _face_built(a, w)
    # every image, and every pullback of a distinct face-built subobject,
    # along every class from a window shape
    distinct = dict(built)
    images = []
    pulled: dict = {}  # source shape -> list of (pullback, oracle levels)
    for c in (c for b in w.shapes() for c in enumerate_hom(b, a)):
        composites = levelwise_composites(c, w)
        images.append((image(c), levelwise_image(composites)))
        pulled.setdefault(c.src, []).extend(
            (pullback_along(u, c), levelwise_pullback(levels, composites))
            for u, levels in distinct.items()
        )
    for u, levels in built + images:
        _assert_levels(u, levels)
    _assert_pairs(built + images)
    for group in pulled.values():
        _assert_pairs(group)
        for u, levels in dict(group).items():
            _assert_levels(u, levels)


# ---------------------------------------------------------------------------
# the lemma: every mono cell into a has its source in window_for(a), so the
# stored cells fix the subobject's levels at every shape


def test_mono_cell_sources_lie_in_window_for_the_base():
    checked = 0
    for a in shapes_with(3, 4):
        window = set(window_for(a).shapes())
        for s in mono_cells_into(a):
            assert s.src in window, (a, s)
            checked += 1
    assert checked == 103825


@pytest.mark.parametrize("a", DIFFERENTIAL_SHAPES, ids=str)
def test_levels_past_the_window_match_levelwise_oracle(a):
    # one more dimension and one more entry than window_for(a)
    w = window_for(a)
    for u, levels in _face_built(a, WindowSpec(w.max_dim + 1, w.max_entry + 1)):
        _assert_levels(u, levels)


def test_face_intersections_brute_force():
    cases = shapes_with(2, 3, min_dim=1) + [shape(1, 1, 1), shape(2, 1, 1), shape(2, 2, 2)]
    for a in cases:
        w = window_for(a)
        for fd1, fd2 in itertools.combinations(faces_of(a), 2):
            cells = common_cells(face_class(fd1), face_class(fd2))
            for b in w.shapes():
                want = {
                    s
                    for s in enumerate_hom(b, a)
                    if face_membership(s, fd1) and face_membership(s, fd2)
                }
                got = set()
                for c in cells:
                    got |= {
                        compose_classes(c, t) for t in enumerate_hom(b, c.src)
                    }
                assert want == got, (a, fd1, fd2, b)
    # any two mono cells: the common cells lie in both images, generate
    # their intersection, and none factors through another
    cases = list(WindowSpec(2, 2).shapes()) + [
        shape(3), shape(2, 1, 1), shape(1, 2, 1), shape(2, 2, 1)
    ]
    for a in cases:
        images = {c: image(c) for c in mono_cells_into(a)}
        for c1, c2 in itertools.combinations_with_replacement(images, 2):
            cells = common_cells(c1, c2)
            assert all(r in images[c1] and r in images[c2] for r in cells), (c1, c2)
            generated = frozenset().union(*(images[r].cells for r in cells))
            assert generated == images[c1].cells & images[c2].cells, (c1, c2)
            for r1, r2 in itertools.permutations(cells, 2):
                assert r1 not in images[r2], (c1, c2, r1, r2)


def test_common_restrictions_match_factor_through():
    # the restriction classes read off the common value sets are the
    # factorizations of each common cell through either face
    for a in WindowSpec(3, 3).shapes():
        for fd1, fd2 in itertools.product(faces_of(a), repeat=2):
            c1, c2 = face_class(fd1), face_class(fd2)
            cells = common_cells(c1, c2)
            want = tuple(
                tuple(factor_through(r, c) for r in cells) for c in (c1, c2)
            )
            assert common_restrictions(c1, c2) == want, (a, fd1, fd2)
