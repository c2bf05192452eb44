"""Inner-anodyne certificates: verification, construction, and search.

A certificate is an ordered list of inner-horn attachments.  Steps act
on `SubOfRepresentable`: a step (C, c, (k, m)) attaches the image of
y(c) to the current subpresheaf; it is valid when the pullback of the
current subpresheaf along c is exactly the inner horn (k, m) of C and
c identifies no two cells outside the horn, which makes the enlargement
a pushout of an inner horn inclusion.  A verified certificate
therefore witnesses membership of the inclusion in the cell-by-cell
saturation of the inner horns.

The step check reads only faces, as for simplices: c attaches along
the horn H exactly when c is not present, c . face_class(fd) is present
for every face fd other than (k, m), and c . face_class((k, m)) is not.
Let P be the pullback along c of a current subpresheaf closed under
precomposition (every `SubOfRepresentable` is).  A face's image is,
level by level, the composites of its class, so by closure the faces
other than (k, m) being present says exactly that H lies in P.
L1. The mono cells of C outside H are the identity and the class of
    face (k, m).  Every cell is e then u, with e an epi that has a
    section and u a mono cell, so a cell of P outside H would put c or
    c . face_class((k, m)) in the current subpresheaf: P lies in H.
L2. Every non-identity componentwise epi e out of C is (e . f1) . s,
    where s has two distinct faces f1, f2 of C as sections.  A
    degenerate c then has c . f1 = c . f2, one of them is not the horn
    face, and c = (c . f1) . s would be present.  So c is a mono cell.
L3. Composing with a mono cell is injective, so c identifies no two
    cells outside H.
L4. By L1 and L3, a step adds exactly the two mono cells c and
    c . face_class((k, m)).  So a certificate from U to V has
    (|V.cells| - |U.cells|) / 2 steps.

The check is exact, not windowed: the states are stored by their mono
cells, whose sources all lie in `window_for(base)` (`subshapes`), and
L1-L3 read only mono cells.  A step cell outside that window is the
source of no mono cell into the base, so by L2 its step is rejected.
A certificate's report names the base and `window_for(base)`.

The union certifier's recursion rests on one more lemma, tested on every
input up to entry sum 7 and on a seeded sample at sums 8 and 9.
L5. Let gamma be a union of faces of a that contains every outer face,
    and B a missing inner face with another inner face also missing.
    Then the pullback of gamma along face_class(B) is a proper union of
    faces of B that contains every outer face of B.  (With B the only
    missing face, it is the whole boundary of B, and B attaches as one
    inner horn instead.)

The spine probe rests on one more lemma, tested on every state reachable
from every spine of entry sum 2-4 toward both ends of `PROBE_ENDS`.
L6. Every state that valid steps inside an end E reach from spine(a)
    has a valid step inside E, unless it is E.  So the probe may take
    the first valid step it finds and never backtrack.  By L4 each step
    adds two cells of E, so it takes at most
    (|E.cells| - |spine(a).cells|) / 2 steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DEFAULT_BUDGET
from .subshapes import (
    SubOfRepresentable,
    full_sub,
    image,
    pullback_along,
    spine,
    sub_union,
    union_of_faces,
    window_for,
)
from .theta import (
    FaceDescriptor,
    MorphismClass,
    Shape,
    compose_classes,
    enumerate_hom,
    face_class,
    face_descriptor,
    faces_of,
    identity_class,
    inner_faces,
    outer_faces,
)


class Step(NamedTuple):
    cell: Shape
    attach: MorphismClass
    horn: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "shape": list(self.cell.entries),
            "class": self.attach.to_json(),
            "horn": list(self.horn),
        }


class AnodyneCertificate(NamedTuple):
    start: SubOfRepresentable
    end: SubOfRepresentable
    steps: tuple[Step, ...]
    start_tag: str = ""
    end_tag: str = ""

    def to_json(self) -> dict:
        return {
            "base": list(self.start.base.entries),
            "window": window_for(self.start.base).to_json(),
            "start": self.start_tag,
            "target": self.end_tag,
            "steps": [s.to_json() for s in self.steps],
        }


class VerifyReport(NamedTuple):
    ok: bool
    steps_checked: int
    failed_step: int | None
    reason: str


def _apply_step(current: SubOfRepresentable, step: Step) -> SubOfRepresentable:
    return sub_union(current, image(step.attach))


def _step_fault(current: SubOfRepresentable, step: Step) -> str | None:
    """None when attaching `step` is a pushout of its inner horn, else why
    not.  The guards come first: the class starts at the step cell, and
    (k, m) is an inner face of it; then `_pushout_fault` decides the
    pushout."""
    c = step.attach
    k, m = step.horn
    if c.src != step.cell:
        return "attaching class does not start at the step cell"
    try:
        fd = face_descriptor(step.cell, k, m)
    except ValueError as exc:
        return str(exc)
    if not fd.inner:
        return f"horn ({k},{m}) of {step.cell} is not inner"
    level = _pushout_fault(current, c, fd)
    return None if level is None else f"pullback is not the horn at level {level}"


def _pushout_fault(
    current: SubOfRepresentable, c: MorphismClass, fd: FaceDescriptor
) -> Shape | None:
    """The pushout part of `_step_fault`, for a class c out of fd.base that
    passed its guards: the shape of a level where the pullback is not the
    horn, or None.  The search builds only such candidates and reads only
    the verdict, so it formats no reason.

    Exact for a `current` closed under precomposition, by L1-L3 of the
    module docstring: c is new, and c . face_class(other) is present for
    exactly the faces other of the step cell other than the horn face fd.
    """
    # implied by the horn face's test below, by closure; checked first
    # because it rejects most candidates of the search without a composite
    if c in current:
        return fd.base
    for other in faces_of(fd.base):
        present = compose_classes(c, face_class(other)) in current
        if present == (other == fd):
            return other.target
    return None


def verify_certificate(cert: AnodyneCertificate) -> VerifyReport:
    """Replay the steps, checking the pushout condition at each one, and
    compare the result with the end by their cells."""
    current = cert.start
    for i, step in enumerate(cert.steps):
        reason = _step_fault(current, step)
        if reason is not None:
            return VerifyReport(False, i, i, reason)
        current = _apply_step(current, step)
    if current.cells != cert.end.cells:
        # a differing mono cell has its source in the window, where the
        # levels name the first differing shape
        b = next(
            b
            for b in window_for(cert.start.base).shapes()
            if current.level(b) != cert.end.level(b)
        )
        return VerifyReport(
            False, len(cert.steps), None, f"result differs from target at {b}"
        )
    return VerifyReport(True, len(cert.steps), None, "")


# ---------------------------------------------------------------------------
# the constructive certifier for unions of faces


def certify_union_inclusion(a: Shape, gamma) -> AnodyneCertificate:
    """Certificate that a proper outer-containing union of faces fills in.

    `gamma` names faces of a by (k, m), in any order and with repeats;
    the start tag lists them in `faces_of(a)` order.
    """
    fds = {face_descriptor(a, k, m) for k, m in gamma}
    if not set(outer_faces(a)) <= fds:
        raise ValueError("the union must contain every outer face")
    if fds == set(faces_of(a)):
        raise ValueError("the union must be a proper subset of the faces")
    start = union_of_faces(a, fds)
    return AnodyneCertificate(
        start,
        full_sub(a),
        steps=tuple(_union_steps(start)),
        start_tag="gamma:" + ",".join(f"{fd.k}:{fd.m}" for fd in faces_of(a) if fd in fds),
        end_tag="full",
    )


def _union_steps(current: SubOfRepresentable) -> list[Step]:
    """Steps from `current`, a proper union of faces of its base a that
    contains every outer face, to all of y(a).

    Follows the pushout induction: while at least two faces are missing,
    take the first, B, certify the pullback of the union along B's face
    class recursively, compose those steps with that class, and add B's
    image; the one face still missing is an inner horn.  By L5 of the
    module docstring (tested up to entry sum 7, sampled at 8 and 9) each
    pullback is again such a union; were it not, the certificate would
    fail verification.
    """
    a = current.base
    steps: list[Step] = []
    while len(missing := [fd for fd in faces_of(a) if face_class(fd) not in current.cells]) > 1:
        beta = face_class(missing[0])
        steps.extend(
            Step(s.cell, compose_classes(beta, s.attach), s.horn)
            for s in _union_steps(pullback_along(current, beta))
        )
        current = sub_union(current, image(beta))
    return steps + [Step(a, identity_class(a), (fd.k, fd.m)) for fd in missing]


# ---------------------------------------------------------------------------
# bounded certificate search from the spine


class ProbeResult(NamedTuple):
    found: bool
    certificate: AnodyneCertificate | None
    nodes: int
    states: int
    max_depth: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "nodes": self.nodes,
            "states": self.states,
            "max_depth": self.max_depth,
        }


# The ends a probe searches toward from spine(a), by target name: the spine
# with every outer face, or the whole representable.  The builders look the
# subobject functions up when called, so bench/tracer.py's rebinding sees them.
PROBE_ENDS = {
    "outer": lambda a: sub_union(spine(a), union_of_faces(a, outer_faces(a))),
    "full": lambda a: full_sub(a),
}


def spine_probe(
    end: SubOfRepresentable, target: str, budget: int = DEFAULT_BUDGET
) -> ProbeResult:
    """Search for a certificate from the spine of `end.base` to `end`.

    `target` names the end in the certificate (`PROBE_ENDS` builds the
    named ones).  Candidate steps prefer cells of smaller dimension and
    entry sum, then lexicographically smaller attaching classes, and each
    state takes the first candidate that is a valid step inside `end`, so
    the returned certificate is canonical.  By L6 of the module docstring
    a state other than `end` always has such a step, so the search never
    backtracks, and by L4 it ends.  A search that stops without a
    certificate ran out of budget or reached a dead end, a state with no
    valid step: a dead end would be a finding about L6, never a
    refutation.  The candidate cells are the shapes of `window_for(a)`,
    which hold the source of every mono cell into a: by L2 no other cell
    attaches.
    """
    a = end.base
    start = spine(a)

    # window shapes with their inner faces, in search order: they pass the
    # guards of `_step_fault`, so the search checks only the pushout
    cells = [
        (c_shape, horns)
        for c_shape in sorted(
            window_for(a).shapes(),
            key=lambda c: (c.dim + sum(c.entries), c.dim, c.entries),
        )
        if (horns := inner_faces(c_shape))
    ]

    nodes = 0
    current, steps = start, []
    while current != end:
        # (attaching class, horn face) in search order.  Each state scans
        # afresh, so a hom set is built only when a scan reaches its shape,
        # and the budget bounds that work too.
        scan = (
            (c, fd)
            for c_shape, horns in cells
            for c in enumerate_hom(c_shape, a)
            for fd in horns
        )
        step = None
        for c, fd in scan:
            nodes += 1
            if nodes > budget:
                break
            if _pushout_fault(current, c, fd) is None:
                candidate = Step(fd.base, c, (fd.k, fd.m))
                new = _apply_step(current, candidate)
                if new.is_subset(end):
                    step = candidate
                    break
        if step is None:
            # the budget tripped, or a dead end; either way this state
            # was scanned
            return ProbeResult(False, None, nodes, len(steps) + 1, len(steps))
        steps.append(step)
        current = new
    cert = AnodyneCertificate(
        start,
        end,
        steps=tuple(steps),
        start_tag="spine",
        end_tag=target,
    )
    return ProbeResult(True, cert, nodes, len(steps), len(steps))
