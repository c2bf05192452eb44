"""Horn-filling checkers.

A presheaf X is a cat when every inner horn in X can be filled: X -> 1
has the right lifting property against the inner horn inclusions.
`check` in mode `cat` decides this horn by horn, and the other modes
ask for more horns or for unique fillers: each mode is a row of `MODES`.

All checks are windowed: they quantify over the horns of the shapes in
a finite window, and every report records that window, so a pass is
evidence on the window and never a proof of the unbounded statement.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DEFAULT_BUDGET
from .presheaves import Presheaf, nat_face_union
from .subshapes import WindowSpec
from .theta import Shape, face_class, faces_of, face_descriptor


# kind -> (inner horns only, requirement(a, n)): "surjective" or
# "bijective" on the horns of shape a, or None when the mode skips a.
# The kinds named n-... take an integer n >= 0.
MODES = {
    "cat": (True, lambda a, n: "surjective"),
    "groupoid": (False, lambda a, n: "surjective"),
    "strict-cat": (True, lambda a, n: "bijective"),
    # unique filling of the two vertex horns of t[1] would allow at most one
    # arrow out of each vertex, so uniqueness starts at entry sum two, the
    # analogue of the dimension-two threshold in the classical
    # unique-filling characterization of nerves
    "strict-groupoid": (False, lambda a, n: "bijective" if sum(a.entries) >= 2 else "surjective"),
    "n-strict": (True, lambda a, n: "bijective" if a.dim >= n else "surjective"),
    "n-cat": (True, lambda a, n: "surjective" if a.dim <= n else None),
}


class Mode(NamedTuple):
    """A key of `MODES`, with its n for the kinds that take one."""

    kind: str
    n: int | None = None

    def __str__(self):
        return self.kind if self.n is None else f"{self.kind}:{self.n}"


def parse_mode(text: str) -> Mode:
    kind, colon, n = text.partition(":")
    if kind not in MODES or bool(colon) != kind.startswith("n-"):
        raise ValueError(f"unknown mode {text!r}")
    if not colon:
        return Mode(kind)
    try:
        n = int(n)
    except ValueError:
        raise ValueError(f"mode {text!r} needs an integer n") from None
    if n < 0:
        raise ValueError(f"mode {text!r} needs n >= 0")
    return Mode(kind, n)


class HornRecord(NamedTuple):
    shape: Shape
    k: int
    m: int
    inner: bool
    x_size: int
    nat_size: int
    fiber_sizes: tuple[int, ...]
    surjective: bool
    bijective: bool

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.entries),
            "horn": [self.k, self.m],
            "inner": self.inner,
            "x_size": self.x_size,
            "nat_size": self.nat_size,
            "fiber_sizes": list(self.fiber_sizes),
            "surjective": self.surjective,
            "bijective": self.bijective,
        }


def horn_filling(
    x: Presheaf, a: Shape, k: int, m: int, budget: int = DEFAULT_BUDGET
) -> HornRecord:
    """One horn: the family count, the restriction map, and its fibers."""
    missing = face_descriptor(a, k, m)
    roots = tuple(fd for fd in faces_of(a) if fd != missing)
    families = nat_face_union(roots, x, budget)
    keys = dict.fromkeys(families, 0)
    # per element of x(a), in index order, the root values of its
    # restriction; each root's face array is read once
    for idx, key in enumerate(zip(*(x.action(face_class(fd)) for fd in roots))):
        if key not in keys:
            raise AssertionError(
                f"restriction of element {idx} of {x.name}({a}) is not natural"
            )
        keys[key] += 1
    fibers = tuple(sorted(keys.values()))
    surjective = all(c > 0 for c in keys.values())
    bijective = surjective and all(c == 1 for c in keys.values())
    return HornRecord(
        a, k, m, missing.inner, x.size(a), len(families), fibers, surjective, bijective
    )


class CheckReport(NamedTuple):
    subject: str
    mode: Mode
    window: WindowSpec
    records: tuple[tuple[HornRecord, str, bool], ...]  # (record, requirement, ok)
    verdict: bool
    witness: HornRecord | None

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "mode": str(self.mode),
            "window": self.window.to_json(),
            "horns": [
                dict(rec.to_json(), requirement=req, ok=ok)
                for rec, req, ok in self.records
            ],
            "verdict": "pass" if self.verdict else "fail",
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def check(
    x: Presheaf, mode: Mode | str, window: WindowSpec, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """Run the mode's requirement over every horn of the window; the
    witness is the first horn that fails it."""
    if isinstance(mode, str):
        mode = parse_mode(mode)
    inner_only, requirement = MODES[mode.kind]
    records = []
    for a in window.shapes():
        req = requirement(a, mode.n)
        if req is None:
            continue
        for fd in faces_of(a):
            if inner_only and not fd.inner:
                continue
            rec = horn_filling(x, a, fd.k, fd.m, budget)
            records.append((rec, req, rec.bijective if req == "bijective" else rec.surjective))
    witness = next((rec for rec, _, ok in records if not ok), None)
    return CheckReport(x.name, mode, window, tuple(records), witness is None, witness)
