"""Monotone maps between finite ordinals.

The ordinal of size m is [m] = {0, ..., m}, the vertex set of the
classical m-simplex.  Everything downstream is built componentwise from
these maps, so they are kept small, hashable and totally ordered.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import IncomposableError


class MonotoneMap(NamedTuple):
    """A non-decreasing map [dom] -> [cod], stored by its value tuple.

    >>> MonotoneMap(1, 2, (0, 2))(1)
    2
    """

    dom: int
    cod: int
    values: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.values[i]

    def is_constant(self) -> bool:
        return self.values[0] == self.values[-1]

    def is_injective(self) -> bool:
        v = self.values
        return all(v[i] < v[i + 1] for i in range(len(v) - 1))

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.cod + 1

    def in_spine(self) -> bool:
        return self.values[-1] - self.values[0] <= 1

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))

    def validate(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ValueError(f"negative ordinal size in {self}")
        if len(self.values) != self.dom + 1:
            raise ValueError(f"value count {len(self.values)} != dom+1 in {self}")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise ValueError(f"values not monotone in {self}")
        if self.values and not (0 <= self.values[0] and self.values[-1] <= self.cod):
            raise ValueError(f"values out of range in {self}")


def identity_map(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


def constant_map(dom: int, cod: int, value: int) -> MonotoneMap:
    return MonotoneMap(dom, cod, (value,) * (dom + 1))


def coface_map(n: int, skip: int) -> MonotoneMap:
    """The injection [n-1] -> [n] whose image misses `skip`."""
    return MonotoneMap(n - 1, n, tuple(i if i < skip else i + 1 for i in range(n)))


def compose_mono(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f.

    >>> compose_mono(MonotoneMap(2, 3, (0, 1, 3)), MonotoneMap(1, 2, (1, 2))).values
    (1, 3)
    """
    if f.cod != g.dom:
        raise IncomposableError(f"incomposable: cod {f.cod} != dom {g.dom}")
    return MonotoneMap(f.dom, g.cod, tuple(g.values[v] for v in f.values))


@lru_cache(maxsize=None)
def enumerate_monos(m: int, n: int) -> tuple[MonotoneMap, ...]:
    """All non-decreasing maps [m] -> [n], lexicographic in their values.

    >>> [f.values for f in enumerate_monos(1, 1)]
    [(0, 0), (0, 1), (1, 1)]
    """
    return tuple(
        MonotoneMap(m, n, vals)
        for vals in itertools.combinations_with_replacement(range(n + 1), m + 1)
    )


@lru_cache(maxsize=None)
def nonconstant_monos(m: int, n: int) -> tuple[MonotoneMap, ...]:
    return tuple(f for f in enumerate_monos(m, n) if not f.is_constant())


@lru_cache(maxsize=None)
def strict_monos(m: int, n: int) -> tuple[MonotoneMap, ...]:
    """Strictly increasing maps [m] -> [n] (injections, lex order)."""
    return tuple(
        MonotoneMap(m, n, vals) for vals in itertools.combinations(range(n + 1), m + 1)
    )


@lru_cache(maxsize=None)
def surjective_monos(m: int, n: int) -> tuple[MonotoneMap, ...]:
    return tuple(f for f in enumerate_monos(m, n) if f.is_surjective())


def epi_mono_factor(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Factor f as mono . epi with the epi surjective onto [|image|-1].

    >>> e, m = epi_mono_factor(MonotoneMap(2, 2, (0, 0, 2)))
    >>> e.values, m.values
    ((0, 0, 1), (0, 2))
    """
    img = f.image()
    rank = {v: i for i, v in enumerate(img)}
    epi = MonotoneMap(f.dom, len(img) - 1, tuple(rank[v] for v in f.values))
    mono = MonotoneMap(len(img) - 1, f.cod, img)
    return epi, mono
