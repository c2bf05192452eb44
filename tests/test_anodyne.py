import itertools
import random
import sys

import pytest

from conftest import (
    eager_probe_candidates,
    full_level_step_check,
    is_mono_cell,
    levelwise_sub,
    spine_probe_dfs,
)
from thetacat import anodyne
from thetacat.anodyne import (
    PROBE_ENDS,
    AnodyneCertificate,
    Step,
    certify_union_inclusion,
    spine_probe,
    verify_certificate,
    _apply_step,
    _pushout_fault,
    _step_fault,
    _union_steps,
)
from thetacat.delta import MonotoneMap
from thetacat.subshapes import (
    SubOfRepresentable,
    WindowSpec,
    full_sub,
    image,
    in_union_of_faces,
    pullback_along,
    spine,
    spine_membership,
    union_of_faces,
    window_for,
)
from thetacat.theta import (
    MorphismClass,
    Shape,
    compose_classes,
    enumerate_hom,
    epi_classes_between,
    epi_mono_factor_class,
    face_class,
    face_descriptor,
    identity_class,
    inner_faces,
    mono_cells_into,
    outer_faces,
    faces_of,
    parse_shape,
    shape,
)


def interval_triangle_cert():
    a = shape(2)
    return AnodyneCertificate(
        spine(a),
        full_sub(a),
        steps=(Step(a, identity_class(a), (1, 1)),),
        start_tag="spine",
        end_tag="full",
    )


def test_verify_single_step_spine_certificate():
    assert verify_certificate(interval_triangle_cert()).ok


def test_verify_rejects_outer_horn_step():
    cert = interval_triangle_cert()
    bad = AnodyneCertificate(
        cert.start,
        cert.end,
        steps=(Step(shape(2), identity_class(shape(2)), (1, 0)),),
        start_tag="spine",
        end_tag="full",
    )
    rep = verify_certificate(bad)
    assert not rep.ok and "inner" in rep.reason


def test_verify_empty_steps_identity_inclusion():
    a = shape(2)
    sp = spine(a)
    cert = AnodyneCertificate(sp, sp, steps=(), start_tag="spine", end_tag="spine")
    assert verify_certificate(cert).ok


def test_verify_rejects_wrong_target():
    a = shape(2)
    cert = AnodyneCertificate(
        spine(a), spine(a), steps=(Step(a, identity_class(a), (1, 1)),),
        start_tag="spine", end_tag="spine",
    )
    rep = verify_certificate(cert)
    assert not rep.ok and "differs from target" in rep.reason


def test_verify_rejects_inexact_pullback():
    # attaching the triangle onto the full object: pullback is full
    a = shape(2)
    cert = AnodyneCertificate(
        full_sub(a), full_sub(a),
        steps=(Step(a, identity_class(a), (1, 1)),),
        start_tag="full", end_tag="full",
    )
    rep = verify_certificate(cert)
    assert not rep.ok and "pullback" in rep.reason


def test_verify_rejects_noninjective_attachment():
    # the collapse of the triangle onto the interval is rejected because
    # it is already present: the spine of t[1] is all of t[1]
    a = shape(1)
    w = window_for(shape(2))
    collapse = [
        c
        for c in enumerate_hom(shape(2), a)
        if c.degree == 2 and c.components[0].values == (0, 0, 1)
    ][0]
    # t[2] -> t[2] with components (0, 0, 2) and a constant is not in the
    # spine, and the face test rejects it: its face (1, 0) is the edge
    # 0 -> 2, which the spine misses
    b = shape(2)
    degenerate = MorphismClass(
        b, b, (MonotoneMap(2, 2, (0, 0, 2)), MonotoneMap(0, 0, (0,)))
    )
    degenerate.validate()
    assert not is_mono_cell(degenerate)
    assert degenerate not in spine(b).level(b)
    for base, c, reason in [
        (a, collapse, "pullback is not the horn at level t[2]"),
        (b, degenerate, "pullback is not the horn at level t[1]"),
    ]:
        start = spine(base)
        step = Step(shape(2), c, (1, 1))
        assert _step_fault(start, step) == reason
        assert not full_level_step_check(start, step, w)[0]
        cert = AnodyneCertificate(
            start, full_sub(base), steps=(step,),
            start_tag="spine", end_tag="full",
        )
        assert not verify_certificate(cert).ok


def test_certify_triangle_outer():
    cert = certify_union_inclusion(shape(2), [(1, 0), (1, 2)])
    assert len(cert.steps) == 1
    assert cert.steps[0].horn == (1, 1)
    assert verify_certificate(cert).ok


def test_certify_tetrahedron_outer():
    cert = certify_union_inclusion(shape(3), [(1, 0), (1, 3)])
    assert verify_certificate(cert).ok
    # first a transported triangle horn, then a top horn
    assert len(cert.steps) == 2
    assert cert.steps[0].cell == shape(2)
    assert cert.steps[1].cell == shape(3)
    assert cert.steps[1].attach == identity_class(shape(3))


def test_certify_no_admissible_gamma_on_t11():
    with pytest.raises(ValueError):
        certify_union_inclusion(shape(1, 1), [(2, 0), (2, 1)])


def test_certify_requires_outer_faces():
    with pytest.raises(ValueError):
        certify_union_inclusion(shape(2), [(1, 0)])


def test_certify_t22_outer_regression():
    # the restriction of the outer union to a missing inner face
    # contains a bare vertex; recognition happens at the union level
    cert = certify_union_inclusion(shape(2, 2), [(1, 0), (1, 2), (2, 0), (2, 2)])
    assert verify_certificate(cert).ok


def test_union_steps_off_lemma_l5_fail_verification():
    # the recursion runs no input checks of its own: a start outside L5's
    # hypotheses gives a certificate that fails verification, not an error
    a = shape(2)
    start = union_of_faces(a, [faces_of(a)[0]])  # outer face (1,2) missing
    cert = AnodyneCertificate(start, full_sub(a), tuple(_union_steps(start)))
    rep = verify_certificate(cert)
    assert (rep.ok, rep.failed_step) == (False, 0)
    assert rep.reason == "horn (1,1) of t[1] is not inner"
    # with no face missing there is no step, and no face to read
    assert _union_steps(full_sub(a)) == []


def admissible_gammas(a: Shape):
    inner = inner_faces(a)
    outer = outer_faces(a)
    for r in range(len(inner)):
        for chosen in itertools.combinations(inner, r):
            yield tuple(outer) + chosen


def test_certify_exhaustive_small_shapes():
    checked = 0
    for a in [shape(d1) for d1 in (2, 3)] + [
        Shape(e) for e in itertools.product((1, 2, 3), repeat=2)
    ]:
        for gamma in admissible_gammas(a):
            if len(gamma) == len(faces_of(a)):
                continue
            cert = certify_union_inclusion(a, [(fd.k, fd.m) for fd in gamma])
            rep = verify_certificate(cert)
            assert rep.ok, (a, gamma, rep)
            checked += 1
    assert checked > 0


def shapes_of_entry_sum(n: int):
    """Every shape whose entries sum to n: one per composition of n."""
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            ends = (0, *cuts, n)
            yield Shape(tuple(j - i for i, j in zip(ends, ends[1:])))


def l5_cases(n: int):
    """(a, gamma, B, others missing) for every shape a of entry sum n, every
    gamma of its outer faces plus a proper subset of its inner faces, and
    every missing inner face B."""
    for a in shapes_of_entry_sum(n):
        for gamma in admissible_gammas(a):
            missing = [fd for fd in inner_faces(a) if fd not in gamma]
            for b in missing:
                yield a, gamma, b, len(missing) > 1


def check_l5(a: Shape, gamma, b, others_missing: bool) -> None:
    restricted = pullback_along(union_of_faces(a, gamma), face_class(b))
    faces = faces_of(b.target)
    gamma_b = [fd for fd in faces if face_class(fd) in restricted.cells]
    assert restricted == union_of_faces(b.target, gamma_b), (a, gamma, b)
    # proper exactly when another inner face is missing: with B alone
    # missing the pullback is B's whole boundary
    assert (len(gamma_b) < len(faces)) == others_missing, (a, gamma, b)
    assert set(outer_faces(b.target)) <= set(gamma_b), (a, gamma, b)


def test_lemma_l5_pullback_to_a_missing_face_is_a_union_of_faces():
    # exhaustive up to entry sum 7, a seeded sample at sums 8 and 9
    checked = 0
    for n in range(1, 8):
        for case in l5_cases(n):
            check_l5(*case)
            checked += case[3]
    assert checked == 1684
    rng = random.Random(5)
    for n, draws in ((8, 64), (9, 32)):
        for case in rng.sample([c for c in l5_cases(n) if c[3]], draws):
            check_l5(*case)


def valid_successors(current, end, candidates):
    """The states that one valid step inside `end` leads to from `current`:
    a candidate that `_pushout_fault` accepts, with its result in `end`."""
    out = set()
    for c, fd in candidates:
        if _pushout_fault(current, c, fd) is None:
            new = _apply_step(current, Step(fd.base, c, (fd.k, fd.m)))
            if new.is_subset(end):
                out.add(new)
    return out


def test_lemma_l6_no_dead_ends():
    # exhaustive from every spine of entry sum 2-4 toward both ends: every
    # reachable state other than the end has a valid step, so the probe
    # never needs to backtrack
    walked = 0
    for n in range(2, 5):
        for a in shapes_of_entry_sum(n):
            candidates = eager_probe_candidates(a)
            for target, build in PROBE_ENDS.items():
                end, start = build(a), spine(a)
                reached, frontier = {start}, [start]
                while frontier:
                    current = frontier.pop()
                    if current == end:
                        continue
                    successors = valid_successors(current, end, candidates)
                    assert successors, (a, target, len(current.cells))
                    frontier.extend(successors - reached)
                    reached |= successors
                assert end in reached, (a, target)
                walked += len(reached)
    assert walked == 756


def test_lemma_l4_each_step_adds_two_mono_cells():
    # every certify input and every probe up to entry sum 6: each step adds
    # exactly c and c . face_class((k, m)), so the step count is half the
    # number of mono cells added.  The probes are the spine census: each
    # finds a certificate that verifies, scanning one state per step
    certs = [
        certify_union_inclusion(a, [(fd.k, fd.m) for fd in gamma])
        for n in range(1, 7)
        for a in shapes_of_entry_sum(n)
        for gamma in admissible_gammas(a)
    ]
    assert len(certs) == 301
    probes = {
        (a, target): spine_probe(PROBE_ENDS[target](a), target)
        for n in range(1, 7)
        for a in shapes_of_entry_sum(n)
        for target in ("full", "outer")
    }
    assert len(probes) == 126
    for key, r in probes.items():
        assert r.found and verify_certificate(r.certificate).ok, key
        assert r.states == r.max_depth, key
    for cert in certs + [r.certificate for r in probes.values()]:
        current = cert.start
        for step in cert.steps:
            c = step.attach
            horn_face = face_class(face_descriptor(step.cell, *step.horn))
            new = _apply_step(current, step)
            assert new.cells - current.cells == {c, compose_classes(c, horn_face)}, step
            current = new
        assert 2 * len(cert.steps) == len(cert.end.cells) - len(cert.start.cells)


def test_certify_step_count_on_one_coordinate_shapes():
    # starting from the outer faces, one step per missing inner face
    for n in (2, 3):
        cert = certify_union_inclusion(shape(n), [(1, 0), (1, n)])
        assert len(cert.steps) == n - 1


def test_certificate_growth_is_strict():
    cert = certify_union_inclusion(shape(3), [(1, 0), (1, 3)])
    current = cert.start
    for step in cert.steps:
        assert _step_fault(current, step) is None
        new = _apply_step(current, step)
        assert any(
            len(new.level(b)) > len(current.level(b))
            for b in window_for(shape(3)).shapes()
        )
        # never attach an already-present cell
        assert step.attach not in current.level(step.attach.src)
        current = new


def test_certificate_json():
    cert = certify_union_inclusion(shape(2), [(1, 0), (1, 2)])
    data = cert.to_json()
    assert data["start"].startswith("gamma:")
    assert data["target"] == "full"
    assert data["steps"][0]["horn"] == [1, 1]


# ---------------------------------------------------------------------------
# the spine probe


def eager_steps(a):
    """The probe's candidates, in search order, as steps."""
    return [Step(fd.base, c, (fd.k, fd.m)) for c, fd in eager_probe_candidates(a)]


def test_probe_triangle_one_step():
    r = spine_probe(PROBE_ENDS["full"](shape(2)), "full")
    assert r.found and len(r.certificate.steps) == 1
    assert verify_certificate(r.certificate).ok


def test_probe_all_ones_is_empty():
    for d in (1, 2, 3):
        a = Shape((1,) * d)
        for target in ("full", "outer"):
            r = spine_probe(PROBE_ENDS[target](a), target)
            assert r.found and r.certificate.steps == ()


def test_probe_t21_to_outer_two_steps():
    r = spine_probe(PROBE_ENDS["outer"](shape(2, 1)), "outer")
    assert r.found and len(r.certificate.steps) == 2
    assert verify_certificate(r.certificate).ok
    # both steps attach triangle faces along the dropped coordinate
    assert all(s.cell == shape(2) for s in r.certificate.steps)


def test_probe_t21_to_full():
    r = spine_probe(PROBE_ENDS["full"](shape(2, 1)), "full")
    assert r.found and len(r.certificate.steps) == 3
    assert verify_certificate(r.certificate).ok


def test_probe_tetrahedron_full_needs_four_steps():
    # each triangle step adds one triangle and one edge; the spine
    # misses three edges, four triangles and the top cell, so three
    # triangle attachments and the final horn are forced: four steps
    r = spine_probe(PROBE_ENDS["full"](shape(3)), "full")
    assert r.found and len(r.certificate.steps) == 4
    assert verify_certificate(r.certificate).ok
    cells = [s.cell for s in r.certificate.steps]
    assert cells == [shape(2), shape(2), shape(2), shape(3)]


def test_probe_tetrahedron_no_three_step_certificate():
    # breadth-first oracle: no certificate of length <= 3 exists
    a = shape(3)
    w = window_for(a)
    start = spine(a)
    end = full_sub(a)
    candidates = eager_steps(a)
    frontier = [start]
    for depth in range(3):
        nxt = []
        for current in frontier:
            for step in candidates:
                if _step_fault(current, step) is None:
                    nxt.append(_apply_step(current, step))
        frontier = nxt
        assert all(
            any(current.level(b) != end.level(b) for b in w.shapes())
            for current in frontier
        ), f"found a {depth + 1}-step certificate"


def test_probe_budget_exhaustion_report():
    # the sixth node trips the budget while the spine is scanned: one
    # state scanned, no step taken
    r = spine_probe(PROBE_ENDS["full"](shape(3)), "full", budget=5)
    assert r.certificate is None
    assert (r.found, r.nodes, r.states, r.max_depth) == (False, 6, 1, 0)


def test_probe_loop_matches_dfs_oracle():
    # every probe of entry sum <= 5: the same report, certificate included,
    # as the depth-first search it replaced
    checked = 0
    for n in range(1, 6):
        for a in shapes_of_entry_sum(n):
            for target, build in PROBE_ENDS.items():
                end = build(a)
                assert spine_probe(end, target) == spine_probe_dfs(end, target), (a, target)
                checked += 1
    assert checked == 62


@pytest.mark.parametrize("text", ["t[2]", "t[3]", "t[2,1]"])
@pytest.mark.parametrize("target", ["full", "outer"])
def test_probe_loop_matches_dfs_oracle_at_every_budget(text, target):
    # up to one past the nodes the probe needs (t[2]'s spine is already its
    # outer end: no node at all)
    end = PROBE_ENDS[target](parse_shape(text))
    total = spine_probe(end, target).nodes
    for budget in range(1, total + 2):
        result = spine_probe(end, target, budget)
        assert result == spine_probe_dfs(end, target, budget), budget
        assert result.found == (budget >= total), budget


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_probe_does_not_recurse_once_per_step():
    # 72 steps under a recursion limit 40 frames above the caller's: a
    # search with one frame per step raises RecursionError here
    end = PROBE_ENDS["full"](shape(3, 3))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        r = spine_probe(end, "full")
    finally:
        sys.setrecursionlimit(limit)
    assert r.found and len(r.certificate.steps) == 72


def test_probe_builds_a_hom_set_only_when_its_scan_reaches_it():
    # five nodes try classes of the first hom set in the scan only; the
    # whole candidate list of t[6,6] does not fit in memory
    end = full_sub(shape(6, 6))
    before = enumerate_hom.cache_info().currsize
    r = spine_probe(end, "full", budget=5)
    assert (r.found, r.nodes, r.states) == (False, 6, 1)
    assert enumerate_hom.cache_info().currsize - before <= 1


# ---------------------------------------------------------------------------
# the step check against the full-level oracle
#
# The step check acts as a prefilter: from one composite per face of
# the step cell it decides every candidate the search tries.  The
# unfiltered reference is the same search with every candidate decided
# by `full_level_step_check`, which builds the horn and compares the
# pullback with it at every level.

PREFILTER_PROBES = [
    ("t[2]", "full"),
    ("t[3]", "full"),
    ("t[2,1]", "full"),
    # the remaining probe jobs of the anodyne-certify benchmark
    ("t[3]", "outer"),
    ("t[2,1]", "outer"),
    ("t[3,1]", "full"),
    ("t[3,1]", "outer"),
    ("t[2,1,1]", "full"),
    ("t[4]", "full"),
    ("t[2,2]", "full"),
    ("t[1,3]", "full"),
]


def unfiltered_probe(monkeypatch, a, target, budget=10**6):
    """`spine_probe` with every candidate decided by the full-level oracle."""

    w = window_for(a)

    def oracle_fault(current, c, fd):
        ok, reason = full_level_step_check(current, Step(fd.base, c, (fd.k, fd.m)), w)
        return None if ok else reason

    with monkeypatch.context() as m:
        m.setattr(anodyne, "_pushout_fault", oracle_fault)
        return spine_probe(PROBE_ENDS[target](a), target, budget=budget)


def logged_probe(monkeypatch, a, target, budget=10**6):
    """`spine_probe` and the candidates it tried, as (state, step, fault)."""
    tried = []

    def logged(current, c, fd):
        fault = _pushout_fault(current, c, fd)
        tried.append((current, Step(fd.base, c, (fd.k, fd.m)), fault))
        return fault

    with monkeypatch.context() as m:
        m.setattr(anodyne, "_pushout_fault", logged)
        return spine_probe(PROBE_ENDS[target](a), target, budget=budget), tried


def scans_by_state(tried) -> dict:
    """The steps tried from each state, in the order tried."""
    scans: dict = {}
    for current, step, _ in tried:
        scans.setdefault(current, []).append(step)
    return scans


@pytest.mark.parametrize("text,target", PREFILTER_PROBES)
def test_probe_prefilter_matches_unfiltered_search(monkeypatch, text, target):
    a = parse_shape(text)
    result, tried = logged_probe(monkeypatch, a, target)
    assert result.found
    assert len(tried) == result.nodes
    # each state scans a prefix of the eager candidate list, in order
    eager = eager_steps(a)
    scans = scans_by_state(tried)
    assert len(scans) == result.states
    assert all(steps == eager[: len(steps)] for steps in scans.values())
    # the same verdict as the oracle on every candidate the search tries,
    # and the search skips only guards that every candidate passes
    w = window_for(a)
    for current, step, fault in tried:
        reason = None if fault is None else f"pullback is not the horn at level {fault}"
        assert _step_fault(current, step) == reason, step
        assert full_level_step_check(current, step, w)[0] == (fault is None), step
    oks = [fault is None for _, _, fault in tried]
    assert any(oks) and not all(oks)
    assert unfiltered_probe(monkeypatch, a, target) == result


@pytest.mark.parametrize("text,target", [("t[3]", "full"), ("t[2,1]", "outer")])
def test_probe_prefilter_same_result_at_every_budget(monkeypatch, text, target):
    a = parse_shape(text)
    total = unfiltered_probe(monkeypatch, a, target).nodes
    eager = eager_steps(a)
    for budget in range(1, total + 1):
        expected = unfiltered_probe(monkeypatch, a, target, budget=budget)
        result, tried = logged_probe(monkeypatch, a, target, budget)
        assert result == expected, budget
        assert expected.found == (budget == total)
        # a tripped budget leaves its last node untried
        assert len(tried) == min(result.nodes, budget)
        scans = scans_by_state(tried)
        assert all(steps == eager[: len(steps)] for steps in scans.values()), budget


@pytest.mark.parametrize("text,target", PREFILTER_PROBES)
def test_probe_certificates_verify_on_windows_one_step_larger(text, target):
    # a certificate is exact: replayed under the level-by-level step check
    # with one more dimension and with one more entry than window_for(a),
    # every step passes and the result has the target's levels there
    a = parse_shape(text)
    cert = spine_probe(PROBE_ENDS[target](a), target).certificate
    if target == "full":
        in_target = lambda s: True
    else:
        outer = outer_faces(a)
        in_target = lambda s: spine_membership(s) or in_union_of_faces(s, outer)
    w = window_for(a)
    for big in (
        WindowSpec(w.max_dim + 1, w.max_entry),
        WindowSpec(w.max_dim, w.max_entry + 1),
    ):
        current = cert.start
        for step in cert.steps:
            assert full_level_step_check(current, step, big) == (True, ""), (big, step)
            current = _apply_step(current, step)
        levels = levelwise_sub(a, big, in_target)
        assert all(current.level(b) == levels[b] for b in big.shapes()), big


RANDOM_START_SHAPES = (shape(3), shape(2, 1), shape(1, 2))


def random_closed_starts(a: Shape, draws: int):
    """Seeded unions of the images of one to four random proper mono
    cells of `a`: closed under precomposition, and often not unions of
    faces."""
    rng = random.Random(0)
    cells = [mu for mu in mono_cells_into(a) if mu != identity_class(a)]
    out = []
    for _ in range(draws):
        chosen = rng.sample(cells, rng.randint(1, 4))
        members = frozenset().union(*(image(mu).cells for mu in chosen))
        out.append(SubOfRepresentable(a, members))
    return out


@pytest.mark.parametrize(
    "a", list(WindowSpec(2, 2).shapes()) + [shape(3)], ids=str
)
def test_step_check_matches_oracle_on_every_start_and_step(a):
    # starts: the spine, the full subobject, every union of faces and,
    # on RANDOM_START_SHAPES, 20 random closed starts; steps: every
    # class into `a` from a window shape, with every face of its source
    # as the horn, outer ones included
    w = window_for(a)
    fds = faces_of(a)
    starts = {spine(a), full_sub(a)} | {
        union_of_faces(a, chosen)
        for r in range(len(fds) + 1)
        for chosen in itertools.combinations(fds, r)
    }
    if a in RANDOM_START_SHAPES:
        starts |= set(random_closed_starts(a, 20))
    steps = [
        Step(c_shape, c, (fd.k, fd.m))
        for c_shape in w.shapes()
        for fd in faces_of(c_shape)
        for c in enumerate_hom(c_shape, a)
    ]
    accepted = 0
    for current in starts:
        for step in steps:
            ok = _step_fault(current, step) is None
            assert ok == full_level_step_check(current, step, w)[0], (current, step)
            accepted += ok
    assert (accepted > 0) == any(inner_faces(b) for b in w.shapes())


def test_step_cell_outside_the_window_is_rejected():
    # t[3] lies outside window_for(t[2]), so no class t[3] -> t[2] is mono
    # and by L2 none attaches: the check rejects the step, and it agrees
    # with the level-by-level check on a window that covers t[3]
    a = shape(2)
    cell = shape(3)
    c = next(c for c in enumerate_hom(cell, a) if c.degree == 2)
    step = Step(cell, c, (1, 1))
    start = spine(a)
    reason = _step_fault(start, step)
    assert reason is not None and reason.startswith("pullback is not the horn at level ")
    assert not full_level_step_check(start, step, WindowSpec(1, 3))[0]
    cert = AnodyneCertificate(start, full_sub(a), (step,), "spine", "full")
    rep = verify_certificate(cert)
    assert (rep.ok, rep.failed_step) == (False, 0)
    assert rep.reason == reason


# ---------------------------------------------------------------------------
# the lemmas behind the step check (module docstring of `anodyne`)

LEMMA_SHAPES = list(WindowSpec(2, 3).shapes()) + [
    shape(1, 1, 1),
    shape(2, 1, 1),
    shape(2, 2, 2),
    shape(3, 2),
]


def test_lemma_l1_cells_outside_an_inner_horn():
    # the mono cells outside the horn are the identity and the horn face
    checked = 0
    for a in LEMMA_SHAPES:
        for fd in inner_faces(a):
            others = [other for other in faces_of(a) if other != fd]
            outside = {
                mu for mu in mono_cells_into(a) if not in_union_of_faces(mu, others)
            }
            assert outside == {identity_class(a), face_class(fd)}, (a, fd)
            checked += 1
    assert checked > 20
    # every cell is an epi with a section followed by a mono cell
    epis = set()
    for a in LEMMA_SHAPES:
        for b in window_for(a).shapes():
            for t in enumerate_hom(b, a):
                e, mu = epi_mono_factor_class(t)
                assert is_mono_cell(mu) and compose_classes(mu, e) == t, t
                epis.add(e)
    for e in epis:
        assert any(
            compose_classes(e, s) == identity_class(e.dst)
            for s in enumerate_hom(e.dst, e.src)
        ), e


def sections_through_two_faces(e: MorphismClass):
    """(f1, f2, s) with faces f1 != f2 of e.src, s . f1 = s . f2 = id
    and e = (e . f1) . s."""
    a = e.src
    for f1, f2 in itertools.permutations(faces_of(a), 2):
        if f1.target != f2.target:
            continue
        one = identity_class(f1.target)
        for s in epi_classes_between(a, f1.target):
            if (
                compose_classes(s, face_class(f1)) == one
                and compose_classes(s, face_class(f2)) == one
                and compose_classes(compose_classes(e, face_class(f1)), s) == e
            ):
                return f1, f2, s
    return None


def test_lemma_l2_degenerate_epis_factor_through_two_faces():
    checked = 0
    for a in LEMMA_SHAPES:
        for target in window_for(a).shapes():
            for e in epi_classes_between(a, target):
                if e == identity_class(a):
                    continue
                assert sections_through_two_faces(e) is not None, e
                checked += 1
    assert checked > 200


def test_lemma_l3_mono_cells_compose_injectively():
    checked = 0
    for a in LEMMA_SHAPES:
        for mu in mono_cells_into(a):
            for b in window_for(a).shapes():
                cells = enumerate_hom(b, mu.src)
                assert len({compose_classes(mu, t) for t in cells}) == len(cells)
                checked += 1
    assert checked > 8000
