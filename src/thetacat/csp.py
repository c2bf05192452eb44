"""A small exact solver for binary constraint networks over int domains.

Used to enumerate natural families: variables are face roots or
nondegenerate presheaf elements, domains are indices into the target's
level sets, constraints are either functional (one value determines
another through an action array) or relational tables.

A domain is an int bitmask: value v is in it when bit v is set, so
values are non-negative ints.  Each constraint gives two directed arcs,
and every arc carries a support mask per value of its source variable:
the values of the other variable that the source value is compatible
with.  Callers build these masks (for a functional constraint
b = arr[a], v maps to 1 << arr[v] and w to the mask of its preimage)
and pass them to `add_arcs`, the one way to add a constraint; a
network only reads them, so callers may share them between arcs and
networks.  One revise rule serves every arc: the other variable keeps
db & OR(support[v] for v in da).

The search state is the list of domain masks.  Each branch works on a
copy of its parent's list, so backtracking restores the parent's
snapshot and there is no undo trail.

Enumeration is deterministic: minimum-remaining-values variable order
with index tie break, ascending value order, full arc propagation after
every assignment.  Propagation runs to the arc-consistency fixpoint,
which is unique, so node counts, solution order and the node at which
the budget trips do not depend on the order arcs are revised in.

Revising from a variable with several values ORs the supports of those
values; within one solve the union for a given (support array, domain
mask) is kept in a dict per support array, so a mask seen again costs
one lookup.  The union is a function of the array and the mask, so the
revised domains, and with them the fixpoint, are exactly those of
recomputing it.  A single value is a plain index into its array.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_

from .errors import DEFAULT_BUDGET, BudgetExceededError


def _mask(values) -> int:
    return reduce(or_, map((1).__lshift__, values), 0)


def _values(mask: int) -> list[int]:
    """The values in a domain mask, ascending."""
    values = []
    while mask:
        low = mask & -mask
        values.append(low.bit_length() - 1)
        mask ^= low
    return values


class Network:
    def __init__(self):
        self.domains: list[int] = []  # var -> bitmask of its values
        # var -> list of (other, kind, supports, forward), kind "fn" or "tab";
        # supports[v] is the mask of other's values compatible with value v.
        # bench/tracer.py reads these (other, kind, data, forward) tuples,
        # `domains` and `_nodes`.
        self.adj: list[list[tuple]] = []

    def add_var(self, domain) -> int:
        self.domains.append(_mask(domain))
        self.adj.append([])
        return len(self.domains) - 1

    def add_arcs(self, a: int, b: int, kind: str, fwd, bwd) -> None:
        """Add a constraint's two arcs: fwd[v] masks b's values that
        support a = v, bwd[w] masks a's values that support b = w.  Each
        needs an entry for every value in its source's domain; `kind`,
        "fn" or "tab", only labels the arcs."""
        self.adj[a].append((b, kind, fwd, True))
        self.adj[b].append((a, kind, bwd, False))

    # -- solving ------------------------------------------------------------

    @property
    def nodes(self) -> int:
        """The search nodes the last `solve_all` visited."""
        return self._nodes

    def solve_all(self, budget: int = DEFAULT_BUDGET):
        """Yield every solution as a tuple of values, in canonical order."""
        self._nodes = 0
        self._budget = budget
        doms = list(self.domains)
        if not all(doms):
            return
        # the (other, supports, unions) columns of adj: zipping lists is
        # cheaper than unpacking the 4-tuples in the propagation loop.
        # unions[mask] is OR(supports[v] for v in mask), one dict per
        # support array for this solve
        unions: dict[int, dict] = {}
        self._out = [
            (
                [arc[0] for arc in arcs],
                [arc[2] for arc in arcs],
                [unions.setdefault(id(arc[2]), {}) for arc in arcs],
            )
            for arcs in self.adj
        ]
        if self._propagate(doms, list(range(len(doms)))):
            yield from self._search(doms)

    def _search(self, doms):
        # minimum remaining values: the smallest domain above one value,
        # the lowest index among those
        sizes = list(map(int.bit_count, doms))
        size = min(filter((1).__lt__, sizes), default=0)
        if not size:
            yield tuple(d.bit_length() - 1 for d in doms)
            return
        best = sizes.index(size)
        rest = doms[best]
        while rest:
            low = rest & -rest
            rest ^= low
            self._nodes += 1
            if self._nodes > self._budget:
                raise BudgetExceededError("enumeration budget exceeded", self._nodes)
            child = doms.copy()
            child[best] = low
            if self._propagate(child, [best]):
                yield from self._search(child)

    def _propagate(self, doms, queue) -> bool:
        """Revise arcs out of queued variables until nothing changes."""
        out = self._out
        while queue:
            a = queue.pop()
            da = doms[a]
            others, supports, unions = out[a]
            if da & (da - 1):
                pick = None
                for b, sup, union in zip(others, supports, unions):
                    mask = union.get(da)
                    if mask is None:
                        pick = pick or itemgetter(*_values(da))
                        mask = union[da] = reduce(or_, pick(sup))
                    db = doms[b]
                    new = db & mask
                    if new != db:
                        if not new:
                            return False
                        doms[b] = new
                        queue.append(b)
            else:
                v = da.bit_length() - 1
                for b, sup in zip(others, supports):
                    db = doms[b]
                    new = db & sup[v]
                    if new != db:
                        if not new:
                            return False
                        doms[b] = new
                        queue.append(b)
        return True
