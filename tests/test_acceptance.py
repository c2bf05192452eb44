"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Expected values marked as derived were computed with the independent
oracles in conftest.py or frozen from exhaustive enumeration here.
"""

import itertools
import json
import random
import time

from conftest import (
    brute_maximal_subobjects,
    nat_cells_oracle,
    shapes_with,
    yoneda_family,
)
from thetacat.anodyne import (
    PROBE_ENDS,
    Step,
    _apply_step,
    _step_fault,
    certify_union_inclusion,
    spine_probe,
    verify_certificate,
)
from thetacat.checkers import check
from thetacat.cli import main
from thetacat.groups import builtin_group, cyclic, normalized_2cocycles
from thetacat.nerves import (
    H2_WINDOW,
    NerveB1,
    NerveB2EM,
    NerveB2Strict,
    cocycle_to_map,
    homotopy_classes,
    map_to_cocycle,
)
from thetacat.presheaves import Representable, nat_presheaves
from thetacat.subshapes import (
    WindowSpec,
    full_sub,
    spine,
    sub_algebra,
    union_of_faces,
    window_for,
)
from thetacat.theta import (
    Shape,
    enumerate_hom,
    face_class,
    faces_of,
    inner_faces,
    outer_faces,
    shape,
)

WINDOW = WindowSpec(3, 3)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_c01_face_count_formula():
    t0 = time.time()
    shapes = shapes_with(3, 4, min_dim=1)
    assert len(shapes) == 84  # 4 + 16 + 64 sequences over entries 1..4
    for a in shapes:
        fds = faces_of(a)
        inner = sum(1 for fd in fds if fd.inner)
        outer = len(fds) - inner
        assert inner == sum(x - 1 for x in a.entries)
        idx = {i + 1 for i, x in enumerate(a.entries) if x >= 2} | {a.dim}
        assert outer == 2 * len(idx)
    for a in shapes_with(2, 3, min_dim=1):
        assert {face_class(fd) for fd in faces_of(a)} == set(
            brute_maximal_subobjects(a)
        )
    elapsed = time.time() - t0
    assert elapsed < 10
    report(f"C1 face-count formula (84 shapes + subobject oracle): PASS {elapsed:.1f}s")


def test_c02_hom_set_oracle():
    t0 = time.time()
    from math import comb

    from thetacat.delta import enumerate_monos
    from thetacat.theta import POINT, compose_classes

    for m in range(5):
        for n in range(5):
            a = POINT if m == 0 else shape(m)
            b = POINT if n == 0 else shape(n)
            hom = enumerate_hom(a, b)
            # stratified count from monotone-map censuses
            constants = n + 1
            nonconstant = comb(m + n + 1, m + 1) - constants
            expected = constants + nonconstant * 1  # degree-2 constant is unique
            if m == 0:
                expected = constants
            assert len(hom) == expected
            # direct census: classes of one-coordinate shapes are the
            # monotone maps themselves
            assert len(hom) == len(enumerate_monos(m, n)) if m >= 1 else True
    rng = random.Random(20240809)
    pool = shapes_with(2, 3)
    for _ in range(1000):
        a, b, c, d = (rng.choice(pool) for _ in range(4))
        f = rng.choice(enumerate_hom(a, b))
        g = rng.choice(enumerate_hom(b, c))
        h = rng.choice(enumerate_hom(c, d))
        assert compose_classes(h, compose_classes(g, f)) == compose_classes(
            compose_classes(h, g), f
        )
    elapsed = time.time() - t0
    assert elapsed < 10
    report(f"C2 hom-set oracle and associativity fuzz: PASS {elapsed:.1f}s")


def test_c03_yoneda():
    t0 = time.time()
    z2 = cyclic(2)
    subjects = [
        Representable(shape(2, 1)),
        NerveB1(z2),
        NerveB2Strict(z2),
        NerveB2EM(z2),
    ]
    for x in subjects:
        for a in WINDOW.shapes():
            cells, fams = nat_cells_oracle(full_sub(a), x)
            assert len(fams) == x.size(a), (x.name, a)
            classified = {yoneda_family(x, a, i, cells) for i in range(x.size(a))}
            assert set(fams) == classified, (x.name, a)
    report(f"C3 Yoneda bijection on D=3,S=3 for 4 presheaves: PASS {time.time()-t0:.1f}s")


def test_c04_union_certifier_exhaustive():
    t0 = time.time()
    total = 0
    for a in shapes_with(2, 3, min_dim=1):
        inner = inner_faces(a)
        outer = outer_faces(a)
        for r in range(len(inner)):
            for chosen in itertools.combinations(inner, r):
                gamma = [(fd.k, fd.m) for fd in tuple(outer) + chosen]
                if len(gamma) == len(faces_of(a)):
                    continue
                cert = certify_union_inclusion(a, gamma)
                assert verify_certificate(cert).ok, (a, gamma)
                total += 1
    assert total == 44  # enumerated: sum over shapes of 2^inner - 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(
        f"C4 union-of-faces certifier ({total} verified inclusions): PASS {elapsed:.1f}s"
    )


def test_c05_spine_facts():
    t0 = time.time()
    for d in range(4):
        a = Shape((1,) * d)
        assert sub_algebra("equal", spine(a), full_sub(a))
    for a in WINDOW.shapes():
        if a.dim == 0 or all(x == 1 for x in a.entries):
            continue
        assert sub_algebra(
            "subset", spine(a), union_of_faces(a, outer_faces(a))
        ), a
    report(f"C5 spine facts (all-ones full; others in outer union): PASS {time.time()-t0:.1f}s")


def test_c06_spine_probe():
    t0 = time.time()
    budget = 10**6

    r = spine_probe(PROBE_ENDS["full"](shape(2)), "full", budget=budget)
    assert r.found and len(r.certificate.steps) == 1 and r.nodes <= budget
    assert verify_certificate(r.certificate).ok

    # The spine of t[3] misses three edges, four triangles and the top
    # cell; every admissible step adds exactly one triangle with one
    # new edge, or the top cell with the last missing triangle, so a
    # certificate needs four steps.  The breadth-first oracle below
    # confirms no three-step certificate exists, so the canonical
    # certificate found has four steps.
    r = spine_probe(PROBE_ENDS["full"](shape(3)), "full", budget=budget)
    assert r.found and r.nodes <= budget
    assert len(r.certificate.steps) == 4
    assert verify_certificate(r.certificate).ok
    a = shape(3)
    w = window_for(a)
    start = spine(a)
    end = full_sub(a)
    candidates = [
        Step(c_shape, c, (fd.k, fd.m))
        for c_shape in w.shapes()
        for fd in inner_faces(c_shape)
        for c in enumerate_hom(c_shape, a)
    ]
    frontier = [start]
    for _ in range(3):
        frontier = [
            _apply_step(current, step)
            for current in frontier
            for step in candidates
            if _step_fault(current, step) is None
        ]
        for current in frontier:
            assert any(current.level(b) != end.level(b) for b in w.shapes())

    r = spine_probe(PROBE_ENDS["outer"](shape(2, 1)), "outer", budget=budget)
    assert r.found and r.nodes <= budget
    assert len(r.certificate.steps) == 2
    assert verify_certificate(r.certificate).ok
    report(
        "C6 spine probes (t[2]: 1 step, t[3]: 4 steps with no-3-step oracle, "
        f"t[2,1] outer: 2 steps): PASS {time.time()-t0:.1f}s"
    )


def test_c07_nerve_checks():
    t0 = time.time()
    for name in ("Z2", "Z3", "Z4", "V4"):
        rep = check(NerveB1(builtin_group(name)), "strict-groupoid", WINDOW)
        assert rep.verdict, name
    b2 = NerveB2Strict(cyclic(2))
    assert check(b2, "strict-cat", WINDOW).verdict
    rep = check(b2, "groupoid", WINDOW)
    assert not rep.verdict
    assert rep.witness.shape == shape(2, 1)
    assert (rep.witness.k, rep.witness.m) == (2, 0)
    # every horn before the witness in window order passes
    seen_witness = False
    for rec, req, ok in rep.records:
        if rec == rep.witness:
            seen_witness = True
            break
        assert ok
    assert seen_witness
    elapsed = time.time() - t0
    assert elapsed < 300
    report(f"C7 nerve checks on D=3,S=3 with witness t[2,1] horn (2,0): PASS {elapsed:.1f}s")


def test_c08_maps_are_cocycles():
    t0 = time.time()
    # counts frozen from the brute-force enumeration; for Z/2 -> Z/3
    # the free value f(x,x) ranges over the coefficients and the one
    # nontrivial cocycle identity is vacuous, giving three
    expected = {("Z2", "Z2"): 2, ("Z3", "Z3"): 9, ("Z2", "Z3"): 3}
    for (gname, aname), count in expected.items():
        g_, a_ = builtin_group(gname), builtin_group(aname)
        z2 = normalized_2cocycles(g_, a_)
        maps = nat_presheaves(NerveB1(g_), NerveB2EM(a_), H2_WINDOW)
        assert len(z2) == count
        assert len(maps) == len(z2)
        for m in maps:
            assert cocycle_to_map(map_to_cocycle(g_, a_, m)) == m
        for c in z2:
            assert map_to_cocycle(g_, a_, cocycle_to_map(c)) == c
    report(f"C8 maps <-> 2-cocycles (2, 9, 3 with exact round trips): PASS {time.time()-t0:.1f}s")


def test_c09_homotopy_classes_vs_h2():
    t0 = time.time()
    expected = {("Z2", "Z2"): 2, ("Z2", "Z3"): 1, ("Z3", "Z3"): 3}
    for (gname, aname), classes in expected.items():
        rep = homotopy_classes(builtin_group(gname), builtin_group(aname))
        assert rep.agree, rep.counterexample
        assert rep.num_classes == classes
        assert rep.h2.classes == classes
        # a disagreement must carry the full counterexample bundle
        assert rep.counterexample is None
    report(f"C9 homotopy classes match H^2 (2, 1, 3): PASS {time.time()-t0:.1f}s")


def test_c10_selftest_determinism(tmp_path):
    t0 = time.time()
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--seed", "42", "--out", str(out1)]) == 0
    assert main(["selftest", "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["verdict"] == "pass"
    report(f"C10 selftest determinism (seed 42, byte-identical): PASS {time.time()-t0:.1f}s")
