"""The category of generalized simplices.

Objects are finite sequences of positive integers ("shapes"); a shape
t[a1,...,ad] stands for the product-style simplex whose k-th coordinate
is the classical simplex of size ak.  Morphisms are equivalence classes
of componentwise monotone maps, truncated at the first constant
component (the "degree"): a class stores components 1..degree, where
components below the degree are non-constant and the degree component
is constant.  Components beyond the degree are quotiented away.
A class reads one monotone map per coordinate, so not every representable
is a cat: when some entry a_i >= 2 has i < dim a, y(a) has no filler for
the inner horn (i, 1) of t[1,...,1,2], the 2 in coordinate i.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import NamedTuple

from .delta import (
    MonotoneMap,
    compose_mono,
    constant_map,
    coface_map,
    epi_mono_factor,
    identity_map,
    nonconstant_monos,
    strict_monos,
    surjective_monos,
)
from .errors import BudgetExceededError, IncomposableError


class Shape(NamedTuple):
    """An object t[a1,...,ad]; the empty sequence is the point t[]."""

    entries: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, k: int) -> int:
        """Size of the k-th coordinate simplex (1-based), 0 past the dimension."""
        return self.entries[k - 1] if 1 <= k <= len(self.entries) else 0

    def validate(self) -> None:
        if any(a < 1 for a in self.entries):
            raise ValueError(f"shape entries must be >= 1, got {self.entries}")

    def __str__(self) -> str:
        return "t[" + ",".join(str(a) for a in self.entries) + "]"

    def to_json(self) -> list[int]:
        return list(self.entries)


POINT = Shape(())

_SHAPE_RE = re.compile(r"^t\[([0-9,\s]*)\]$")


def shape(*entries: int) -> Shape:
    s = Shape(tuple(entries))
    s.validate()
    return s


def parse_shape(text: str) -> Shape:
    """Parse the text syntax "t[2,1]"; "t[]" is the point."""
    m = _SHAPE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad shape syntax: {text!r}")
    body = m.group(1).strip()
    if not body:
        return POINT
    s = Shape(tuple(int(tok) for tok in body.split(",")))
    s.validate()
    return s


class MorphismClass(NamedTuple):
    """A degree-truncated class of componentwise monotone maps src -> dst."""

    src: Shape
    dst: Shape
    components: tuple[MonotoneMap, ...]

    @property
    def degree(self) -> int:
        return len(self.components)

    def component(self, k: int) -> MonotoneMap:
        """The k-th component of the canonical representative.

        Components beyond the degree are the constant-at-0 maps of the
        appropriate sizes; by representative independence they never
        influence a composite class.
        """
        if k <= len(self.components):
            return self.components[k - 1]
        return constant_map(self.src.entry(k), self.dst.entry(k), 0)

    def is_identity(self) -> bool:
        return self == identity_class(self.src)

    def validate(self) -> None:
        q = self.degree
        if q < 1:
            raise ValueError("class must have at least the constant component")
        if q > max(self.src.dim, self.dst.dim) + 1:
            raise ValueError(f"degree {q} too large for {self.src} -> {self.dst}")
        for k, f in enumerate(self.components, start=1):
            f.validate()
            if f.dom != self.src.entry(k) or f.cod != self.dst.entry(k):
                raise ValueError(f"component {k} has wrong sizes in {self}")
            if k < q and f.is_constant():
                raise ValueError(f"component {k} below degree is constant in {self}")
        if not self.components[-1].is_constant():
            raise ValueError("degree component must be constant")

    def to_json(self) -> dict:
        return {
            "src": list(self.src.entries),
            "dst": list(self.dst.entries),
            "deg": self.degree,
            "components": [
                {"dom": f.dom, "cod": f.cod, "values": list(f.values)}
                for f in self.components
            ],
        }


def class_from_json(data: dict) -> MorphismClass:
    cls = MorphismClass(
        Shape(tuple(data["src"])),
        Shape(tuple(data["dst"])),
        tuple(
            MonotoneMap(c["dom"], c["cod"], tuple(c["values"]))
            for c in data["components"]
        ),
    )
    cls.validate()
    return cls


@lru_cache(maxsize=None)
def identity_class(a: Shape) -> MorphismClass:
    comps = [identity_map(n) for n in a.entries]
    comps.append(constant_map(0, 0, 0))
    return MorphismClass(a, a, tuple(comps))


def compose_classes(g: MorphismClass, f: MorphismClass) -> MorphismClass:
    """g after f, renormalized to the composite's own degree."""
    if f.dst != g.src:
        raise IncomposableError(f"incomposable: {f.dst} != {g.src}")
    comps = []
    k = 1
    while True:
        ck = compose_mono(g.component(k), f.component(k))
        comps.append(ck)
        if ck.is_constant():
            return MorphismClass(f.src, g.dst, tuple(comps))
        k += 1


def constant_class(src: Shape, dst: Shape, value: int) -> MorphismClass:
    """The degree-1 class constant at a vertex of the first coordinate."""
    return MorphismClass(src, dst, (constant_map(src.entry(1), dst.entry(1), value),))


@lru_cache(maxsize=None)
def enumerate_hom(a: Shape, b: Shape) -> tuple[MorphismClass, ...]:
    """All classes a -> b, stratified by degree, lexicographic within."""
    out = []
    for q in range(1, max(a.dim, b.dim) + 2):
        lower = [nonconstant_monos(a.entry(k), b.entry(k)) for k in range(1, q)]
        if any(not opts for opts in lower):
            continue
        consts = [
            constant_map(a.entry(q), b.entry(q), v) for v in range(b.entry(q) + 1)
        ]
        for choice in itertools.product(*lower):
            for c in consts:
                out.append(MorphismClass(a, b, choice + (c,)))
    return tuple(out)


# ---------------------------------------------------------------------------
# faces


class FaceDescriptor(NamedTuple):
    """The face of `base` at coordinate k missing vertex m."""

    base: Shape
    k: int
    m: int
    inner: bool
    target: Shape

    @property
    def kind(self) -> str:
        return "inner" if self.inner else "outer"


@lru_cache(maxsize=None)
def faces_of(a: Shape) -> tuple[FaceDescriptor, ...]:
    """All faces of a shape, ordered by (k, m); the point has none."""
    d = a.dim
    out = []
    for k, ak in enumerate(a.entries, start=1):
        if ak >= 2:
            target = Shape(a.entries[: k - 1] + (ak - 1,) + a.entries[k:])
            for m in range(ak + 1):
                out.append(FaceDescriptor(a, k, m, 1 <= m <= ak - 1, target))
        elif k == d:
            target = Shape(a.entries[:-1])
            for m in (0, 1):
                out.append(FaceDescriptor(a, k, m, False, target))
    return tuple(out)


def face_descriptor(a: Shape, k: int, m: int) -> FaceDescriptor:
    for fd in faces_of(a):
        if fd.k == k and fd.m == m:
            return fd
    raise ValueError(f"no face ({k},{m}) on {a}")


@lru_cache(maxsize=None)
def face_class(fd: FaceDescriptor) -> MorphismClass:
    """The inclusion class target -> base realizing a face."""
    a, k = fd.base, fd.k
    d = a.dim
    if a.entry(k) >= 2:
        comps = []
        for j in range(1, d + 1):
            if j == k:
                comps.append(coface_map(a.entry(k), fd.m))
            else:
                comps.append(identity_map(a.entry(j)))
        comps.append(constant_map(0, 0, 0))
        return MorphismClass(fd.target, a, tuple(comps))
    # entry 1 at the top coordinate: the face drops the last coordinate and
    # lands on the remaining vertex 1 - m.
    comps = [identity_map(a.entry(j)) for j in range(1, d)]
    comps.append(constant_map(0, 1, 1 - fd.m))
    return MorphismClass(fd.target, a, tuple(comps))


def inner_faces(a: Shape) -> tuple[FaceDescriptor, ...]:
    return tuple(fd for fd in faces_of(a) if fd.inner)


def outer_faces(a: Shape) -> tuple[FaceDescriptor, ...]:
    return tuple(fd for fd in faces_of(a) if not fd.inner)


# ---------------------------------------------------------------------------
# canonical mono cells (the nondegenerate simplices of a representable)


@lru_cache(maxsize=None)
def mono_cells_into(a: Shape) -> tuple[MorphismClass, ...]:
    """All classes c -> a with strictly monotone components and full degree.

    These are exactly the composites of face inclusions together with
    the identity, i.e. the nondegenerate cells of the representable on
    `a`.  Ordered by (degree, component values).
    """
    out = []
    for q in range(1, a.dim + 2):
        # choose a source entry 1 <= c_k <= a_k and a strict mono for each
        per_index = []
        for k in range(1, q):
            opts = []
            for c in range(1, a.entry(k) + 1):
                opts.extend(strict_monos(c, a.entry(k)))
            per_index.append(opts)
        consts = [constant_map(0, a.entry(q), v) for v in range(a.entry(q) + 1)]
        for choice in itertools.product(*per_index):
            src = Shape(tuple(f.dom for f in choice))
            for c in consts:
                out.append(MorphismClass(src, a, choice + (c,)))
    return tuple(out)


def factor_through(s: MorphismClass, m: MorphismClass) -> MorphismClass | None:
    """Solve s = m . u for u when m is a canonical mono cell, else None."""
    if s.dst != m.dst or s.degree > m.degree:
        return None
    q = s.degree
    comps = []
    for k in range(1, q):
        sk, mk = s.components[k - 1], m.components[k - 1]
        pos = {v: i for i, v in enumerate(mk.values)}
        try:
            vals = tuple(pos[v] for v in sk.values)
        except KeyError:
            return None
        comps.append(MonotoneMap(sk.dom, mk.dom, vals))
    sq = s.components[q - 1]
    val = sq.values[0]
    if q == m.degree:
        if val != m.components[q - 1].values[0]:
            return None
        comps.append(constant_map(sq.dom, m.src.entry(q), 0))
    else:
        mq = m.components[q - 1]
        pos = {v: i for i, v in enumerate(mq.values)}
        if val not in pos:
            return None
        comps.append(constant_map(sq.dom, m.src.entry(q), pos[val]))
    return MorphismClass(s.src, m.src, tuple(comps))


@lru_cache(maxsize=None)
def epi_mono_factor_class(s: MorphismClass) -> tuple[MorphismClass, MorphismClass]:
    """Factor a class as (canonical mono cell) after (componentwise epi)."""
    q = s.degree
    epis, monos, mid_entries = [], [], []
    for k in range(1, q):
        e, m = epi_mono_factor(s.components[k - 1])
        epis.append(e)
        monos.append(m)
        mid_entries.append(m.dom)
    mid = Shape(tuple(mid_entries))
    sq = s.components[q - 1]
    epis.append(constant_map(sq.dom, 0, 0))
    monos.append(constant_map(0, s.dst.entry(q), sq.values[0]))
    return (
        MorphismClass(s.src, mid, tuple(epis)),
        MorphismClass(mid, s.dst, tuple(monos)),
    )


@lru_cache(maxsize=None)
def epi_classes_between(b: Shape, c: Shape) -> tuple[MorphismClass, ...]:
    """Classes b -> c with every component surjective (degree dim c + 1)."""
    q = c.dim + 1
    if b.dim < c.dim:
        return ()
    per_index = [surjective_monos(b.entry(k), c.entry(k)) for k in range(1, q)]
    if any(not opts for opts in per_index):
        return ()
    const = constant_map(b.entry(q), 0, 0)
    return tuple(
        MorphismClass(b, c, choice + (const,))
        for choice in itertools.product(*per_index)
    )


# ---------------------------------------------------------------------------
# automorphisms


class AutomorphismReport(NamedTuple):
    shape: Shape
    hom_size: int
    num_automorphisms: int


AUTOMORPHISM_BOUND = 10**7  # pairs of self-classes the automorphism search may compose


def automorphism_report(a: Shape) -> AutomorphismReport:
    """Count invertible self-classes by exhaustive two-sided inverse search."""
    hom = enumerate_hom(a, a)
    pairs = len(hom) * len(hom)
    if pairs > AUTOMORPHISM_BOUND:
        raise BudgetExceededError(
            f"automorphism search on {a} needs {pairs} compositions", pairs
        )
    ident = identity_class(a)
    count = 0
    for u in hom:
        for v in hom:
            if compose_classes(u, v) == ident and compose_classes(v, u) == ident:
                count += 1
                break
    return AutomorphismReport(a, len(hom), count)
