"""Nerves of groups and the maps-vs-cocycles correspondence.

Three formula-backed presheaves:

* the one-object groupoid nerve of a group: level G^{b1}, acting
  through the first component by interval products;
* the strict one-object one-arrow 2-nerve of an abelian group: level
  A^{b1*b2} grids, acting bilinearly through the first two components;
* the cocycle realization: level = normalized simplicial 2-cocycles on
  the first-coordinate simplex, each stored by its cone values z(0, j, k),
  acting by cochain pullback.  Its level at t[2] is a single free value,
  and it has no nondegenerate cells at shapes of dimension above 1 apart
  from those of the 1-skeleton.

All three factor through projection to the leading coordinates, which
is what makes their actions independent of the class representative.

The same truncation makes their action arrays cheap to share (it is the
one behind Berger's cellular nerve, Adv. Math. 169, 2002).  A nerve's
level at b is a function of b's first `core_dim` entries, and `apply`
of a class f reads only f's first `core_dim` components, which carry
those entries of f.src and f.dst as their sizes.  So two classes with
the same core, the tuple of those components, have the same source
level, target level and action, hence equal arrays: `action` builds one
array per core, and classes with equal cores share the array object.

`homotopy_classes` compares the maps B1(G) -> B2em(A) up to cylinder
homotopy with the H^2 count.  A homotopy is a solution of the cylinder
network of `nat_network`, and the relation needs only its two ends: each
is read at the roots of the elements (x, vertex), added as a pair of map
indices, and the solution is dropped.  No cylinder family is built; the
counterexample bundle, kept for a disagreement, solves the network again.
"""

from __future__ import annotations

import itertools
from operator import getitem
from typing import NamedTuple

from .errors import BudgetExceededError
from .groups import Cocycle2, FiniteGroup, H2Data, builtin_group, cocycle_tools
from .presheaves import (
    Presheaf,
    PresheafNatFamily,
    ProductPresheaf,
    Representable,
    nat_network,
    nat_presheaves,
    union_heads,
)
from .subshapes import WindowSpec
from .theta import MorphismClass, Shape, constant_class, shape

H2_WINDOW = WindowSpec(2, 3)
EM_LEVEL_BUDGET = 10**6  # cocycle tables a NerveB2EM level may hold


class CoreNerve(Presheaf):
    """A presheaf whose levels and action read only the first `core_dim`
    coordinates: action arrays are memoized by the class's core."""

    core_dim: int

    def __init__(self):
        super().__init__()
        self._core_actions: dict[tuple, tuple[int, ...]] = {}

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        core = tuple(f.component(k) for k in range(1, self.core_dim + 1))
        arr = self._core_actions.get(core)
        if arr is None:
            arr = self._core_actions[core] = self._build_core_action(f)
        return arr

    def _build_core_action(self, f: MorphismClass) -> tuple[int, ...]:
        """The array shared by f's core: element by element, unless the
        nerve knows an exact shortcut."""
        return super()._build_action(f)


class NerveB1(CoreNerve):
    """Level G^{b1}; a class acts through its first component."""

    core_dim = 1

    def __init__(self, group: FiniteGroup):
        super().__init__()
        self.group = group
        self.name = f"B1({group.name})"

    def _elements(self, b: Shape) -> tuple:
        return tuple(itertools.product(range(self.group.order), repeat=b.entry(1)))

    def apply(self, f: MorphismClass, x):
        f1 = f.component(1)
        return tuple(
            self.group.prod(x[u - 1] for u in range(f1(i - 1) + 1, f1(i) + 1))
            for i in range(1, f.src.entry(1) + 1)
        )


class NerveB2Strict(CoreNerve):
    """Level A^{b1*b2} grids; a class acts through two components."""

    core_dim = 2

    def __init__(self, group: FiniteGroup):
        super().__init__()
        if not group.abelian:
            raise ValueError("the one-object one-arrow 2-nerve needs abelian 2-cells")
        self.group = group
        self.name = f"B2({group.name})"

    def _elements(self, b: Shape) -> tuple:
        return tuple(
            itertools.product(range(self.group.order), repeat=b.entry(1) * b.entry(2))
        )

    def size(self, b: Shape) -> int:
        """|A|^(b1*b2), without building the level: the horn checks read
        only sizes and action arrays."""
        return self.group.order ** (b.entry(1) * b.entry(2))

    def apply(self, f: MorphismClass, x):
        a_ = self.group
        p, q = f.src.entry(1), f.src.entry(2)
        q2 = f.dst.entry(2)
        f1, f2 = f.component(1), f.component(2)
        out = []
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                acc = a_.identity
                for u in range(f1(i - 1) + 1, f1(i) + 1):
                    for v in range(f2(j - 1) + 1, f2(j) + 1):
                        acc = a_.mul(acc, x[(u - 1) * q2 + (v - 1)])
                out.append(acc)
        return tuple(out)

    def _build_core_action(self, f: MorphismClass) -> tuple[int, ...]:
        """The array of `apply`, digit by digit.

        A level lists its grids in base-|A| order, cell (i, j) of a p x q
        grid, counted from 0, being digit i * q + j from the most
        significant.
        Each cell of the f.dst grid feeds at most one cell of the f.src
        grid, so appending the next f.dst digit d multiplies that one
        output digit by d, and a cell that feeds nothing repeats each
        output n times.  The digits are appended in the order `apply`
        multiplies them in.
        """
        n, table = self.group.order, self.group.table
        p, q = f.src.entry(1), f.src.entry(2)
        q2 = f.dst.entry(2)
        f1, f2 = f.component(1), f.component(2)
        feeds = [None] * (f.dst.entry(1) * q2)  # f.dst cell -> f.src digit weight
        for i in range(p):
            for j in range(q):
                weight = n ** (p * q - 1 - (i * q + j))
                for u in range(f1(i), f1(i + 1)):
                    for v in range(f2(j), f2(j + 1)):
                        feeds[u * q2 + v] = weight
        ident = self.group.identity
        arr = [sum(ident * n**k for k in range(p * q))]  # the all-identity grid
        for weight in feeds:
            if weight is None:
                arr = [o for o in arr for _ in range(n)]
                continue
            # steps[c][d]: the index change when digit c becomes c * d
            steps = [[(table[c][d] - c) * weight for d in range(n)] for c in range(n)]
            arr = [o + step for o in arr for step in steps[o // weight % n]]
        return tuple(arr)


def _cone(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (j, k), 0 < j < k <= n, in lex order: the free triples
    (0, j, k) of a normalized 2-cocycle on [n]."""
    return tuple(itertools.combinations(range(1, n + 1), 2))


class NerveB2EM(CoreNerve):
    """Level = normalized 2-cocycles on the first-coordinate simplex, each
    stored by its cone values z(0, j, k), one per pair of `_cone`.

    The cone values fix the cocycle: the 4-term identity on (0, a, b, c)
    gives z(a, b, c) = z(0, b, c) - z(0, a, c) + z(0, a, b), and any
    choice of cone values extends this way to a cocycle.
    """

    core_dim = 1

    def __init__(self, group: FiniteGroup):
        super().__init__()
        if not group.abelian:
            raise ValueError("cocycle coefficients must be abelian")
        self.group = group
        self.name = f"B2em({group.name})"

    def _elements(self, b: Shape) -> tuple:
        free = len(_cone(b.entry(1)))
        tables = self.group.order**free
        if tables > EM_LEVEL_BUDGET:
            raise BudgetExceededError(
                f"cocycle level at {b} needs {tables} tables", tables
            )
        return tuple(itertools.product(range(self.group.order), repeat=free))

    def apply(self, f: MorphismClass, x):
        a_ = self.group
        f1 = f.component(1)
        # z(0, j, k) by pair; z(0, 0, k) is the identity (normalization)
        z = dict(zip(_cone(f.dst.entry(1)), x))
        out = []
        for j, k in _cone(f.src.entry(1)):
            a, b, c = f1(0), f1(j), f1(k)
            if a < b < c:
                acc = a_.mul(z[b, c], a_.inverse[z.get((a, c), a_.identity)])
                out.append(a_.mul(acc, z.get((a, b), a_.identity)))
            else:
                out.append(a_.identity)
        return tuple(out)


NERVES = {"B1": NerveB1, "B2strict": NerveB2Strict, "B2em": NerveB2EM}


def nerve_from_spec(spec: str) -> Presheaf:
    """Build the presheaf named by "B1:Z2", "B2strict:Z2" or "B2em:Z3"."""
    try:
        kind, gname = spec.split(":", 1)
    except ValueError:
        raise ValueError(f"bad nerve spec {spec!r}") from None
    group = builtin_group(gname)
    if kind not in NERVES:
        raise ValueError(f"bad nerve spec {spec!r}")
    return NERVES[kind](group)


# ---------------------------------------------------------------------------
# maps vs cocycles


def map_to_cocycle(phi: PresheafNatFamily) -> Cocycle2:
    """Read off the group 2-cocycle from a map of nerves.

    The value on a pair (g, h) is the component at t[2] applied to the
    string (g, h), evaluated on the ordered triple (0, 1, 2).
    """
    src: NerveB1 = phi.source
    tgt: NerveB2EM = phi.target
    g_, a_ = src.group, tgt.group
    b = shape(2)
    n = g_.order
    table = []
    for g in range(n):
        for h in range(n):
            z = phi.value(b, (g, h))
            table.append(z[0])  # the cone value on (0, 1, 2)
    c = Cocycle2(g_, a_, tuple(table))
    c.validate()
    return c


def cocycle_to_map(c: Cocycle2) -> PresheafNatFamily:
    """The map of nerves on `H2_WINDOW` classified by a group 2-cocycle."""
    g_, a_ = c.group, c.coeffs
    src, tgt = NerveB1(g_), NerveB2EM(a_)
    comps = {}
    for b in H2_WINDOW.shapes():
        values = []
        for x in src.elements(b):
            cone = tuple(
                c.value(g_.prod(x[:j]), g_.prod(x[j:k])) for j, k in _cone(b.entry(1))
            )
            values.append(tgt.index_of(b, cone))
        comps[b] = tuple(values)
    return PresheafNatFamily(src, tgt, H2_WINDOW, comps)


class HomotopyReport(NamedTuple):
    num_classes: int
    agree: bool
    relation_was_reflexive: bool
    relation_was_symmetric: bool
    relation_was_transitive: bool
    pairs: tuple[tuple[int, int], ...]
    counterexample: dict | None
    maps: tuple[PresheafNatFamily, ...]
    h2: H2Data


def vertex_inclusion_values(roots: dict, indices: dict) -> list:
    """A reader for the restriction along a vertex inclusion of the
    interval, given the cylinder network's `roots` and `vertex_indices`
    of that vertex: per shape, the root variables and the arrays of the
    elements (x, vertex)."""
    return [
        ([roots[b][i][0] for i in idx], [roots[b][i][1] for i in idx])
        for b, idx in indices.items()
    ]


def _restrict(reader: list, sol: tuple) -> tuple:
    """The key of the family a cylinder solution restricts to."""
    return tuple(tuple(map(getitem, gs, map(sol.__getitem__, rs))) for rs, gs in reader)


def is_transitive(pairs) -> bool:
    """Whether a relation is transitive: succ(b) lies within succ(a) for
    every pair (a, b)."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    return all(succ[b] <= succ[a] for a, b in pairs if b in succ)


def vertex_indices(
    cyl: ProductPresheaf, src: Presheaf, window: WindowSpec, vertex: int
) -> dict:
    """Per window shape, the cylinder index of (x, vertex) for each x of src."""
    if not isinstance(cyl.right, Representable):
        raise TypeError("cylinder must be a product with a representable interval")
    interval = cyl.right.base
    out = {}
    for b in window.shapes():
        cv = constant_class(b, interval, vertex)
        out[b] = tuple(cyl.index_of(b, (x, cv)) for x in src.elements(b))
    return out


def homotopy_classes(
    g_: FiniteGroup, a_: FiniteGroup, budget: int = 10**7
) -> HomotopyReport:
    """Maps of nerves modulo cylinder homotopy on `H2_WINDOW`, against the
    H^2 count.

    Two maps are related when some family on the product with the
    interval restricts to them along the two vertex inclusions; classes
    are counted after transitive closure, and whether the raw relation
    was already an equivalence is recorded.  On disagreement with the
    cocycle-class count a counterexample bundle is attached instead of
    a bare failure.

    The cylinder network is solved once, lazily: each solution is read
    at the roots of its two ends, whose keys give the pair of map
    indices, and is then dropped.  Only the bundle lists the homotopies,
    in the order of the cylinder families' keys, and it gets them by
    solving the same network again, so a budget the first solve passed
    cannot trip.  Sorting the solutions gives that order: roots are
    numbered in (shape, index) order and each degenerate element's root
    comes before it, so the first element where two families differ is
    a root (a degenerate one's root would differ before it), whose value
    is the solution's value there, and the families' keys compare as
    their root tuples do.
    """
    h2 = cocycle_tools(g_, a_, budget)
    src, tgt = NerveB1(g_), NerveB2EM(a_)
    maps = nat_presheaves(src, tgt, H2_WINDOW, budget)
    key_of = {m.key(): i for i, m in enumerate(maps)}
    cyl = ProductPresheaf(src, Representable(shape(1)))
    net, roots = nat_network(cyl, tgt, H2_WINDOW)
    readers = [
        vertex_inclusion_values(roots, vertex_indices(cyl, src, H2_WINDOW, vertex))
        for vertex in (0, 1)
    ]

    def ends(sol: tuple) -> list[int]:
        return [key_of[_restrict(reader, sol)] for reader in readers]

    pairs = {tuple(ends(sol)) for sol in net.solve_all(budget)}
    reflexive = all((i, i) in pairs for i in range(len(maps)))
    symmetric = all((b, a) in pairs for (a, b) in pairs)
    transitive = is_transitive(pairs)
    # classes of the transitive-symmetric closure
    classes = len(set(union_heads(len(maps), pairs)))
    agree = classes == h2.classes
    counterexample = None
    if not agree:
        counterexample = {
            "maps": [m.to_json() for m in maps],
            "homotopy_pairs": sorted(pairs),
            "homotopy_transcript": [ends(sol) for sol in sorted(net.solve_all(budget))],
            "num_classes": classes,
            "h2_classes": h2.classes,
            "cocycles": [c.to_json() for c in h2.z2],
            "coboundaries": [list(t) for t in h2.b2],
        }
    return HomotopyReport(
        classes,
        agree,
        reflexive,
        symmetric,
        transitive,
        tuple(sorted(pairs)),
        counterexample,
        tuple(maps),
        h2,
    )
