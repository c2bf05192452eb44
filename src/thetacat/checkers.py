"""Horn-filling checkers.

A presheaf X is a cat when every inner horn in X can be filled: X -> 1
has the right lifting property against the inner horn inclusions.
`check` in mode `cat` decides this horn by horn, and the other modes
ask for more horns or for unique fillers.

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


class Mode(NamedTuple):
    """A horn-filling requirement: which horns, and how strict.

    Strict groupoid mode demands unique fillers for every horn except
    the two vertex horns of the interval t[1]: unique filling there
    would force at most one arrow out of each vertex, so uniqueness is
    only required from total entry sum two upward, the analogue of the
    dimension-two threshold in the classical unique-filling
    characterization of nerves.
    """

    kind: str  # cat | groupoid | strict-cat | strict-groupoid | n-strict | n-cat
    n: int | None = None

    def __str__(self):
        return self.kind if self.n is None else f"{self.kind}:{self.n}"

    @property
    def inner_only(self) -> bool:
        return self.kind in ("cat", "strict-cat", "n-strict", "n-cat")

    def requirement(self, a: Shape) -> str:
        if self.kind in ("cat", "groupoid", "n-cat"):
            return "surjective"
        if self.kind == "strict-groupoid":
            return "bijective" if sum(a.entries) >= 2 else "surjective"
        if self.kind == "strict-cat":
            return "bijective"
        if self.kind == "n-strict":
            return "bijective" if a.dim >= self.n else "surjective"
        raise ValueError(f"unknown mode {self.kind!r}")

    def wants_shape(self, a: Shape) -> bool:
        if self.kind == "n-cat":
            return a.dim <= self.n
        return True


def parse_mode(text: str) -> Mode:
    if ":" in text:
        kind, n = text.split(":", 1)
        if kind not in ("n-strict", "n-cat"):
            raise ValueError(f"unknown mode {text!r}")
        try:
            n = int(n)
        except ValueError:
            raise ValueError(f"mode {text!r} needs an integer n") from None
        if n < 0:
            raise ValueError(f"mode {text!r} needs n >= 0")
        return Mode(kind, n)
    if text not in ("cat", "groupoid", "strict-cat", "strict-groupoid"):
        raise ValueError(f"unknown mode {text!r}")
    return Mode(text)


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


def _root_values(x: Presheaf, roots):
    """For each element of x(a), in index order, the root values of its
    restriction to the union of the roots; each root's face array is read
    once."""
    return zip(*(x.action(face_class(fd)) for fd in roots))


def horn_filling(
    x: Presheaf, a: Shape, k: int, m: int, budget: int = DEFAULT_BUDGET
) -> HornRecord:
    """One horn: the family count, the restriction map, and its fibers."""
    missing = face_descriptor(a, k, m)
    roots = tuple(fd for fd in faces_of(a) if fd != missing)
    families = nat_face_union(roots, x, budget)
    keys = dict.fromkeys(families, 0)
    for idx, key in enumerate(_root_values(x, roots)):
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
    """Run the mode's requirement over every horn of the window."""
    if isinstance(mode, str):
        mode = parse_mode(mode)
    records = []
    verdict = True
    witness = None
    for a in window.shapes():
        if not mode.wants_shape(a):
            continue
        for fd in faces_of(a):
            if mode.inner_only and not fd.inner:
                continue
            rec = horn_filling(x, a, fd.k, fd.m, budget)
            req = mode.requirement(a)
            ok = rec.bijective if req == "bijective" else rec.surjective
            records.append((rec, req, ok))
            if not ok and witness is None:
                witness = rec
                verdict = False
    return CheckReport(x.name, mode, window, tuple(records), verdict, witness)
