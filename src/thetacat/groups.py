"""Finite groups by multiplication table, and brute-force group cohomology.

Cocycles are normalized throughout: a 2-cocycle vanishes whenever an
argument is the identity, a 1-cochain vanishes on the identity.  The
class count |Z^2| / |B^2| is exact because both are finite abelian
groups under pointwise addition.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, BudgetExceededError


class FiniteGroup:
    """A group on indices 0..n-1 with labelled elements.

    The table is validated on construction: totality, associativity,
    identity and inverses.
    """

    def __init__(self, name: str, elements: tuple[str, ...], table):
        self.name = name
        self.elements = tuple(elements)
        self.table = tuple(tuple(row) for row in table)
        n = len(self.elements)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table size does not match element count")
        if any(not (0 <= v < n) for row in self.table for v in row):
            raise ValueError("table entry out of range")
        identity = None
        for e in range(n):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        inv = []
        for g in range(n):
            gi = [h for h in range(n) if self.table[g][h] == identity]
            if not gi:
                raise ValueError(f"element {g} has no inverse")
            inv.append(gi[0])
        self.inverse = tuple(inv)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("table is not associative")
        self.abelian = all(
            self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n)
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def prod(self, indices) -> int:
        acc = self.identity
        for i in indices:
            acc = self.table[acc][i]
        return acc

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        return cls(
            data.get("name", "G"), tuple(data["elements"]), data["table"]
        )


def cyclic(n: int) -> FiniteGroup:
    labels = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(f"Z{n}", labels, table)


def klein_four() -> FiniteGroup:
    labels = ("e", "a", "b", "ab")
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup("V4", labels, table)


def symmetric_3() -> FiniteGroup:
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    labels = tuple("".join(str(v) for v in p) for p in perms)
    table = [
        [idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    return FiniteGroup("S3", labels, table)


BUILTIN_GROUPS = {
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z5": lambda: cyclic(5),
    "Z6": lambda: cyclic(6),
    "V4": klein_four,
    "S3": symmetric_3,
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise ValueError(f"unknown group {name!r}") from None


# ---------------------------------------------------------------------------
# normalized 2-cocycles


class Cocycle2(NamedTuple):
    """A normalized 2-cocycle G x G -> A, stored row-major over G x G."""

    group: FiniteGroup
    coeffs: FiniteGroup
    table: tuple[int, ...]

    def value(self, g: int, h: int) -> int:
        return self.table[g * self.group.order + h]

    def validate(self) -> None:
        g_, a_ = self.group, self.coeffs
        if not a_.abelian:
            raise ValueError("coefficients must be abelian")
        n = g_.order
        e = g_.identity
        zero = a_.identity
        for g in range(n):
            if self.value(e, g) != zero or self.value(g, e) != zero:
                raise ValueError("cocycle is not normalized")
        failure = _cocycle_failure(g_, a_, self.table)
        if failure is not None:
            raise ValueError(f"cocycle identity fails at {failure}")

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "coeffs": self.coeffs.name,
            "table": [
                [self.value(g, h) for h in range(self.group.order)]
                for g in range(self.group.order)
            ],
        }


def _cocycle_failure(g_: FiniteGroup, a_: FiniteGroup, table) -> tuple | None:
    """The first (g, h, k) at which a normalized table breaks the cocycle
    identity, or None.  Only triples without the identity are tested: a
    normalized table satisfies the identity at every other triple, so the
    first failure is also the first over all triples."""
    n = g_.order
    others = [g for g in range(n) if g != g_.identity]
    for g in others:
        for h in others:
            for k in others:
                lhs = a_.mul(table[g * n + h], table[g_.mul(g, h) * n + k])
                rhs = a_.mul(table[h * n + k], table[g * n + g_.mul(h, k)])
                if lhs != rhs:
                    return (g, h, k)
    return None


def normalized_2cocycles(
    g_: FiniteGroup, a_: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> tuple[Cocycle2, ...]:
    """Brute-force enumeration over all normalized tables."""
    if not a_.abelian:
        raise ValueError("coefficients must be abelian")
    n, na = g_.order, a_.order
    others = [g for g in range(n) if g != g_.identity]
    free = [(g, h) for g in others for h in others]
    candidates = na ** len(free)
    if candidates > budget:
        raise BudgetExceededError(
            f"2-cocycle enumeration needs {candidates} candidates", candidates
        )
    zero = a_.identity
    out = []
    for assignment in itertools.product(range(na), repeat=len(free)):
        table = [zero] * (n * n)
        for (g, h), v in zip(free, assignment):
            table[g * n + h] = v
        if _cocycle_failure(g_, a_, table) is None:
            out.append(Cocycle2(g_, a_, tuple(table)))
    return tuple(out)


def normalized_2coboundaries(g_: FiniteGroup, a_: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Tables of differentials of normalized 1-cochains, deduplicated."""
    n, na = g_.order, a_.order
    others = [g for g in range(n) if g != g_.identity]
    zero = a_.identity
    seen = set()
    for assignment in itertools.product(range(na), repeat=len(others)):
        u = [zero] * n
        for g, v in zip(others, assignment):
            u[g] = v
        table = [zero] * (n * n)
        for g in range(n):
            for h in range(n):
                # (du)(g,h) = u(g) + u(h) - u(gh)
                table[g * n + h] = a_.mul(
                    a_.mul(u[g], u[h]), a_.inverse[u[g_.mul(g, h)]]
                )
        seen.add(tuple(table))
    return tuple(sorted(seen))


class H2Data(NamedTuple):
    z2: tuple[Cocycle2, ...]
    b2: tuple[tuple[int, ...], ...]
    classes: int


def cocycle_tools(g_: FiniteGroup, a_: FiniteGroup, budget: int = DEFAULT_BUDGET) -> H2Data:
    """Enumerate normalized cocycles and coboundaries; count their quotient."""
    z2 = normalized_2cocycles(g_, a_, budget)
    b2 = normalized_2coboundaries(g_, a_)
    z2set = {c.table for c in z2}
    if any(t not in z2set for t in b2):
        raise AssertionError("found a coboundary that is not a cocycle")
    if len(z2) % len(b2) != 0:
        raise AssertionError("|B^2| does not divide |Z^2|")
    return H2Data(z2, b2, len(z2) // len(b2))
