import random
from math import comb

import pytest

from conftest import (
    brute_maximal_subobjects,
    is_mono_cell,
    normalize_components,
    shapes_with,
)
from thetacat import theta
from thetacat.delta import MonotoneMap, constant_map, enumerate_monos, identity_map
from thetacat.errors import BudgetExceededError, IncomposableError
from thetacat.theta import (
    POINT,
    MorphismClass,
    automorphism_report,
    class_from_json,
    compose_classes,
    constant_class,
    enumerate_hom,
    epi_classes_between,
    epi_mono_factor_class,
    face_class,
    face_descriptor,
    faces_of,
    factor_through,
    identity_class,
    mono_cells_into,
    parse_shape,
    shape,
)


def test_shape_parse_and_format():
    assert parse_shape("t[2,1]") == shape(2, 1)
    assert parse_shape("t[]") == POINT
    assert str(shape(3, 1, 2)) == "t[3,1,2]"
    with pytest.raises(ValueError):
        parse_shape("t[0]")
    with pytest.raises(ValueError):
        parse_shape("2,1")


def test_identity_class_degrees():
    assert identity_class(POINT).degree == 1
    assert identity_class(shape(1)).degree == 2
    assert identity_class(shape(2, 1)).degree == 3
    ic = identity_class(shape(1))
    assert ic.components[0] == identity_map(1)
    assert ic.components[1].is_constant()


def test_compose_identity_laws_small():
    for a in shapes_with(2, 2):
        for b in shapes_with(2, 2):
            for f in enumerate_hom(a, b):
                assert compose_classes(identity_class(b), f) == f
                assert compose_classes(f, identity_class(a)) == f


def test_compose_constant_then_identity():
    f = constant_class(shape(1), shape(1), 1)
    g = identity_class(shape(1))
    out = compose_classes(g, f)
    assert out.degree == 1 and out.components[0] == constant_map(1, 1, 1)


def test_compose_collapse_drops_degree():
    # non-constant components may compose to a constant
    f = MorphismClass(
        shape(1), shape(2), (MonotoneMap(1, 2, (0, 1)), constant_map(0, 0, 0))
    )
    g = MorphismClass(
        shape(2), shape(1), (MonotoneMap(2, 1, (0, 0, 1)), constant_map(0, 0, 0))
    )
    out = compose_classes(g, f)
    assert out.degree == 1
    assert out.components[0] == constant_map(1, 1, 0)


def test_compose_incomposable_shapes():
    with pytest.raises(IncomposableError):
        compose_classes(identity_class(shape(2)), identity_class(shape(1)))


def test_enumerate_hom_frozen_counts():
    assert len(enumerate_hom(shape(1), shape(1))) == 3
    assert len(enumerate_hom(POINT, shape(1))) == 2
    assert len(enumerate_hom(shape(1, 1), shape(1, 1))) == 5


def test_enumerate_hom_degree_stratified_census():
    # the stratified count rebuilt from scratch out of monotone-map counts
    for a in shapes_with(2, 3):
        for b in shapes_with(2, 3):
            total = 0
            for q in range(1, max(a.dim, b.dim) + 2):
                stratum = 1
                for k in range(1, q):
                    nc = sum(
                        1
                        for f in enumerate_monos(a.entry(k), b.entry(k))
                        if not f.is_constant()
                    )
                    stratum *= nc
                stratum *= b.entry(q) + 1
                total += stratum
            assert len(enumerate_hom(a, b)) == total


def test_hom_dim1_matches_monotone_census():
    # classes between one-coordinate shapes are plain monotone maps
    for m in range(5):
        for n in range(5):
            a = POINT if m == 0 else shape(m)
            b = POINT if n == 0 else shape(n)
            assert len(enumerate_hom(a, b)) == comb(m + n + 1, m + 1)


def test_hom_deterministic_order():
    hom = enumerate_hom(shape(2, 1), shape(2, 1))
    degs = [f.degree for f in hom]
    assert degs == sorted(degs)
    assert len(set(hom)) == len(hom)


def test_class_validate_and_json_roundtrip():
    for f in enumerate_hom(shape(2, 1), shape(1, 2)):
        f.validate()
        assert class_from_json(f.to_json()) == f


def test_associativity_exhaustive_small():
    shapes = shapes_with(2, 2)
    homs = {(a, b): enumerate_hom(a, b) for a in shapes for b in shapes}
    for b in shapes:
        for c in shapes:
            for g in homs[(b, c)]:
                hg = {
                    (d, h): compose_classes(h, g)
                    for d in shapes
                    for h in homs[(c, d)]
                }
                for a in shapes:
                    for f in homs[(a, b)]:
                        gf = compose_classes(g, f)
                        for d in shapes:
                            for h in homs[(c, d)]:
                                assert compose_classes(h, gf) == compose_classes(
                                    hg[(d, h)], f
                                )


def test_representative_independence():
    # composing with arbitrary monotone extensions beyond the degree
    # gives the same class as the canonical constant-at-0 extension
    rng = random.Random(99)
    shapes = shapes_with(2, 3, min_dim=0)
    for _ in range(500):
        a, b, c = (rng.choice(shapes) for _ in range(3))
        f = rng.choice(enumerate_hom(a, b))
        g = rng.choice(enumerate_hom(b, c))
        depth = max(a.dim, b.dim, c.dim) + 1

        def extended(cls, src, dst):
            comps = list(cls.components)
            for k in range(cls.degree + 1, depth + 1):
                comps.append(rng.choice(enumerate_monos(src.entry(k), dst.entry(k))))
            return comps

        fc = extended(f, a, b)
        gc = extended(g, b, c)
        composed = [
            MonotoneMap(
                fc[i].dom, gc[i].cod, tuple(gc[i].values[v] for v in fc[i].values)
            )
            for i in range(depth)
        ]
        assert normalize_components(a, c, composed) == compose_classes(g, f)


def test_faces_of_t21_listing():
    fds = faces_of(shape(2, 1))
    assert [(fd.k, fd.m, fd.kind) for fd in fds] == [
        (1, 0, "outer"),
        (1, 1, "inner"),
        (1, 2, "outer"),
        (2, 0, "outer"),
        (2, 1, "outer"),
    ]
    assert all(fd.target == shape(1, 1) for fd in fds if fd.k == 1)
    assert all(fd.target == shape(2) for fd in fds if fd.k == 2)


def test_faces_counting_formula():
    # inner count and outer count against the closed formulas
    for a in shapes_with(3, 4, min_dim=1):
        fds = faces_of(a)
        inner = sum(1 for fd in fds if fd.inner)
        outer = len(fds) - inner
        assert inner == sum(x - 1 for x in a.entries)
        idx = {i + 1 for i, x in enumerate(a.entries) if x >= 2} | {a.dim}
        assert outer == 2 * len(idx)


def test_faces_match_brute_force_maximal_subobjects():
    for a in shapes_with(2, 3, min_dim=1):
        brute = set(brute_maximal_subobjects(a))
        listed = {face_class(fd) for fd in faces_of(a)}
        assert brute == listed


def test_point_has_no_faces():
    assert faces_of(POINT) == ()


def test_face_class_examples():
    fc = face_class(face_descriptor(shape(2), 1, 1))
    assert fc.degree == 2 and fc.components[0].values == (0, 2)
    fc = face_class(face_descriptor(shape(1, 1), 2, 0))
    assert fc.degree == 2
    assert fc.components[0] == identity_map(1)
    assert fc.components[1] == constant_map(0, 1, 1)
    fc = face_class(face_descriptor(shape(2, 1), 1, 0))
    assert fc.degree == 3
    assert fc.components[0].values == (1, 2)
    assert fc.components[1] == identity_map(1)


def test_face_class_bounds():
    # dim A - 1 <= dim target <= dim A <= degree <= dim A + 1
    for a in shapes_with(3, 3, min_dim=1):
        d = a.dim
        for fd in faces_of(a):
            fc = face_class(fd)
            assert d - 1 <= fd.target.dim <= d <= fc.degree <= d + 1
            for comp in fc.components[:-1]:
                assert comp.is_injective()


def test_automorphism_reports():
    for a in [POINT, shape(2), shape(2, 2), shape(1, 1), shape(3, 1)]:
        assert automorphism_report(a).num_automorphisms == 1


def test_automorphism_budget_counts_compositions(monkeypatch):
    n = len(enumerate_hom(shape(2), shape(2)))
    monkeypatch.setattr(theta, "AUTOMORPHISM_BOUND", n * n - 1)
    with pytest.raises(BudgetExceededError) as exc:
        automorphism_report(shape(2))
    assert exc.value.count == n * n
    monkeypatch.setattr(theta, "AUTOMORPHISM_BOUND", n * n)
    assert automorphism_report(shape(2)).num_automorphisms == 1


def test_mono_cells_canonical():
    for a in [shape(2), shape(2, 1), shape(1, 1, 1)]:
        cells = mono_cells_into(a)
        assert len(set(cells)) == len(cells)
        for m in cells:
            m.validate()
            assert is_mono_cell(m)
        assert identity_class(a) in cells


def test_factor_through_roundtrip():
    a = shape(2, 1)
    for m in mono_cells_into(a):
        for b in shapes_with(1, 2):
            for t in enumerate_hom(b, m.src):
                s = compose_classes(m, t)
                u = factor_through(s, m)
                assert u is not None
                assert compose_classes(m, u) == s


def test_factor_through_rejects_noncontained():
    a = shape(2)
    edge01 = face_class(face_descriptor(a, 1, 2))
    edge12 = face_class(face_descriptor(a, 1, 0))
    assert factor_through(edge01, edge12) is None


def test_epi_mono_factor_class():
    for a in shapes_with(2, 2):
        for b in shapes_with(2, 2):
            for s in enumerate_hom(a, b):
                e, m = epi_mono_factor_class(s)
                assert is_mono_cell(m)
                assert compose_classes(m, e) == s
                for comp in e.components[:-1]:
                    assert comp.is_surjective()


def test_epi_classes_between():
    es = epi_classes_between(shape(2, 1), shape(1, 1))
    for e in es:
        e.validate()
        assert all(c.is_surjective() for c in e.components[:-1])
    assert epi_classes_between(shape(1), shape(2)) == ()
