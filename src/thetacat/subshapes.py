"""Subpresheaves of a representable: faces, boundaries, horns, spines.

`SubOfRepresentable` is the only subobject type: every face, horn,
spine, union and pullback, and every state of an anodyne certificate,
is one.  The category is Eilenberg-Zilber: every cell is, in exactly
one way, a componentwise epi followed by a mono cell, and the epi has
a section.  So a subpresheaf of a representable, closed under
precomposition, is fixed by the mono cells it contains, and a cell lies
in it exactly when its mono part does (Berger-Moerdijk, "On an
extension of the notion of Reedy category", Math. Z. 269, 2011).  A
mono cell b -> a has degree at most a.dim + 1 and its k-th component
injects [b_k] into [a_k] (`mono_cells_into`), so b lies in
`window_for(a)`: the mono cells are finitely many, a subobject is
stored exactly by them, and its levels at any shape are derived on
demand.  Membership of a single cell in a face, horn or spine is
decidable directly from the class data.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .delta import MonotoneMap, constant_map
from .theta import (
    FaceDescriptor,
    MorphismClass,
    Shape,
    compose_classes,
    enumerate_hom,
    epi_mono_factor_class,
    face_descriptor,
    faces_of,
    mono_cells_into,
)


class WindowSpec(NamedTuple):
    """All shapes of dimension <= max_dim with entries <= max_entry."""

    max_dim: int
    max_entry: int

    def shapes(self) -> tuple[Shape, ...]:
        return _window_shapes(self.max_dim, self.max_entry)

    def classes(self) -> Iterator[MorphismClass]:
        """Every class between window shapes, by source shape, then target
        shape, each hom in `enumerate_hom` order."""
        shapes = self.shapes()
        return (f for b1 in shapes for b2 in shapes for f in enumerate_hom(b1, b2))

    def to_json(self) -> dict:
        return {"max_dim": self.max_dim, "max_entry": self.max_entry}


@lru_cache(maxsize=None)
def _window_shapes(max_dim: int, max_entry: int) -> tuple[Shape, ...]:
    out: list[Shape] = []
    for d in range(max_dim + 1):
        out.extend(
            Shape(entries)
            for entries in itertools.product(range(1, max_entry + 1), repeat=d)
        )
    out.sort(key=lambda s: (s.dim, s.entries))
    return tuple(out)


def window_for(a: Shape) -> WindowSpec:
    """The smallest window that holds the source of every mono cell into a."""
    top = max(a.entries) if a.entries else 1
    return WindowSpec(a.dim, top)


DEFAULT_WINDOW = WindowSpec(3, 3)


# ---------------------------------------------------------------------------
# membership predicates


def face_membership(s: MorphismClass, fd: FaceDescriptor) -> bool:
    """Whether a cell into fd.base factors through the face fd."""
    if s.dst != fd.base:
        raise ValueError(f"cell {s} is not a cell of {fd.base}")
    k, d = fd.k, fd.base.dim
    if fd.base.entry(k) >= 2:
        if k > s.degree:
            return True
        return fd.m not in s.components[k - 1].values
    # dropped top coordinate with entry 1
    if s.degree < d:
        return True
    if s.degree == d:
        return s.components[d - 1].values[0] == 1 - fd.m
    return False


def in_union_of_faces(s: MorphismClass, fds: Iterable[FaceDescriptor]) -> bool:
    return any(face_membership(s, fd) for fd in fds)


def spine_membership(s: MorphismClass) -> bool:
    """Whether every component lands in adjacent vertices of its simplex."""
    return all(f.in_spine() for f in s.components)


# ---------------------------------------------------------------------------
# the container


class SubOfRepresentable(NamedTuple):
    """A subpresheaf of Hom(-, base), stored by its mono cells: `cells`
    holds the mono cells into `base` that it contains."""

    base: Shape
    cells: frozenset  # of MorphismClass

    def __contains__(self, s: MorphismClass) -> bool:
        return epi_mono_factor_class(s)[1] in self.cells

    def level(self, b: Shape) -> frozenset:
        return frozenset(s for s in enumerate_hom(b, self.base) if s in self)

    def is_subset(self, other: "SubOfRepresentable") -> bool:
        _check_compatible(self, other)
        return self.cells <= other.cells


def _check_compatible(u: SubOfRepresentable, v: SubOfRepresentable) -> None:
    if u.base != v.base:
        raise ValueError("subpresheaves live on different bases")


def _build(base: Shape, predicate) -> SubOfRepresentable:
    cells = frozenset(s for s in mono_cells_into(base) if predicate(s))
    return SubOfRepresentable(base, cells)


def full_sub(a: Shape) -> SubOfRepresentable:
    return _build(a, lambda s: True)


def boundary(a: Shape) -> SubOfRepresentable:
    """Union of all faces; empty for the point."""
    fds = faces_of(a)
    return _build(a, lambda s: in_union_of_faces(s, fds))


def face_image(fd: FaceDescriptor) -> SubOfRepresentable:
    return _build(fd.base, lambda s: face_membership(s, fd))


def union_of_faces(a: Shape, fds: Iterable[FaceDescriptor]) -> SubOfRepresentable:
    fds = tuple(fds)
    return _build(a, lambda s: in_union_of_faces(s, fds))


def horn(a: Shape, k: int, m: int) -> SubOfRepresentable:
    """Union of all faces except (k, m)."""
    missing = face_descriptor(a, k, m)
    return union_of_faces(a, (fd for fd in faces_of(a) if fd != missing))


def spine(a: Shape) -> SubOfRepresentable:
    return _build(a, spine_membership)


# ---------------------------------------------------------------------------
# set algebra, pullbacks and images


def sub_union(u: SubOfRepresentable, v: SubOfRepresentable) -> SubOfRepresentable:
    _check_compatible(u, v)
    return SubOfRepresentable(u.base, u.cells | v.cells)


def sub_intersect(u: SubOfRepresentable, v: SubOfRepresentable) -> SubOfRepresentable:
    _check_compatible(u, v)
    return SubOfRepresentable(u.base, u.cells & v.cells)


def sub_algebra(op: str, u: SubOfRepresentable, v: SubOfRepresentable):
    """Dispatch union | intersect | equal | subset on two subpresheaves."""
    if op == "union":
        return sub_union(u, v)
    if op == "intersect":
        return sub_intersect(u, v)
    if op == "equal":
        _check_compatible(u, v)
        return u.cells == v.cells
    if op == "subset":
        return u.is_subset(v)
    raise ValueError(f"unknown set operation {op!r}")


def pullback_along(u: SubOfRepresentable, c: MorphismClass) -> SubOfRepresentable:
    """Cells t of y(c.src) whose composite with c lies in u."""
    if c.dst != u.base:
        raise ValueError(f"{c} does not land in {u.base}")
    return _build(c.src, lambda t: compose_classes(c, t) in u)


def image(c: MorphismClass) -> SubOfRepresentable:
    """The image of y(c): the mono parts of c . t for the mono cells t."""
    cells = frozenset(
        epi_mono_factor_class(compose_classes(c, t))[1] for t in mono_cells_into(c.src)
    )
    return SubOfRepresentable(c.dst, cells)


# ---------------------------------------------------------------------------
# maximal common cells of two mono cells (drives the horn-filling solver)


def common_restrictions(c1: MorphismClass, c2: MorphismClass) -> tuple[tuple, tuple]:
    """For the maximal mono cells r of image(c1) & image(c2), for mono
    cells into one shape, ordered by their constant value: the classes u1
    and u2 with r = c1 . u1 = c2 . u2, as two tuples.

    A mono cell lies in image(c) exactly when its degree is at most c's
    and each component takes values among those of c's (`factor_through`).
    So intersect the value sets coordinatewise up to the first set with
    fewer than two values (a degree component is constant, so there is
    one), stepping back a coordinate if that set is empty.  Every common
    cell factors through a cell r that includes the sets below the last
    coordinate and is constant at one of its values there.  So u's k-th
    component lists the positions of r's values in c's k-th component, as
    `factor_through(r, c)` finds them one cell at a time.
    """
    sets = _common_value_sets(c1, c2)
    if not sets:
        return (), ()
    *below, top = sets
    src = Shape(tuple(len(vals) - 1 for vals in below))
    q = len(sets)
    out = []
    for c in (c1, c2):
        comps = tuple(
            MonotoneMap(len(vals) - 1, ck.dom, tuple(map(ck.values.index, vals)))
            for vals, ck in zip(below, c.components)
        )
        values = c.components[q - 1].values
        out.append(tuple(
            MorphismClass(
                src, c.src, comps + (constant_map(0, c.src.entry(q), values.index(v)),)
            )
            for v in top
        ))
    return out[0], out[1]


def _common_value_sets(c1: MorphismClass, c2: MorphismClass) -> list[tuple]:
    """The coordinatewise value sets of the maximal common cells of two
    images, empty when the images share no cell."""
    if c2.dst != c1.dst:
        raise ValueError(f"{c1} and {c2} land in different shapes")
    sets = []
    for f1, f2 in zip(c1.components, c2.components):
        sets.append(tuple(v for v in f1.values if v in f2.values))
        if len(sets[-1]) < 2:
            break
    if not sets[-1]:
        sets.pop()
    return sets
