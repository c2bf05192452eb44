"""Finite presheaves on the generalized-simplex category.

A presheaf is its level set at every shape and a contravariant action
of morphism classes, and each subclass defines that action once: per
element (`apply`) or as index arrays (`_build_action`), the other form
being read off it.  A product pairs its factors' arrays, since its
level lists the pairs in factor order; a table returns its rows; a
truncation or an extension shares its inner presheaf's arrays; the
nerves build one array per core (see `nerves`).  Levels and arrays are
memoized by index, so downstream enumeration works on plain ints.
Natural families are enumerated two ways, both exact:

* out of a union of face images (a horn, a boundary), by solving for
  the values on the face roots with compatibility on the maximal common
  cells of face pairs; a family is the tuple of its roots' values;
* between two presheaves, by solving for the values on the
  nondegenerate source elements, with the constraints along a
  generating family of classes (faces and componentwise epis, which
  every class of the window factors through) carried over to them;
  each degenerate element's value is the action of its epi on its
  root's value; a family is the tuple of its components, one index
  array per window shape.

Horn checks repeat networks, and each distinct one is solved once per
presheaf.  A face-union network is its roots' level sizes and one
table per face pair that shares cells, and a table reads only the two
faces' restriction arrays to the shared cells.  `_face_pair_supports`
keys each table by those arrays' identities, so pairs whose arrays are
the same objects (as the nerves' core-keyed arrays often are) share one
table object.  The solver is deterministic, so the same network gives
the same solutions, order and node count, and a budget trips on it
exactly when that count exceeds the budget.

Roots whose table is the identity (equal level sizes, each value
compatible with itself only) are one variable.  On the nerves these
are faces in coordinates past `core_dim`.  `solve_tables` merges
such roots into classes, each represented by its lowest root, moves
every other table onto the representatives (a table inside a class
becomes a self-arc), and keys its solutions and node count by the
merged network.  This changes no search:

* An identity arc makes its two domains equal at every arc-consistency
  fixpoint, and the other arcs then ask the same of a class's one
  domain in the merged network as of each member in the full one, so
  the fixpoints correspond (a self-arc revises a domain against
  itself, as the table between two equal domains does).
* Minimum remaining values takes the smallest domain with the lowest
  index; a class's members have equal domains and its representative
  is its lowest root, so the full network branches on the
  representative, with the same values, and its partners become
  singletons in the same propagation.  Node counts and the node a
  budget trips at are the full network's.
* Each full solution repeats its representative's value at every
  member, and a representative precedes its members, so expanding
  keeps lexicographic order: the merged solutions are sorted once.
"""

from __future__ import annotations

import itertools
from operator import getitem, itemgetter
from typing import NamedTuple

from .csp import Network
from .delta import constant_map
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .subshapes import WindowSpec, common_restrictions
from .theta import (
    FaceDescriptor,
    MorphismClass,
    Shape,
    class_from_json,
    compose_classes,
    enumerate_hom,
    epi_classes_between,
    face_class,
    faces_of,
    identity_class,
)


class Presheaf:
    """Base class: caching of level sets and action arrays.  A subclass
    defines `_elements` and its action once, per element (`apply`) or as
    arrays (`_build_action`): it must override one of the two, or the two
    defaults call each other."""

    name = "presheaf"

    def __init__(self):
        self._elems: dict[Shape, tuple] = {}
        self._index: dict[Shape, dict] = {}
        self._actions: dict[MorphismClass, tuple[int, ...]] = {}
        # see _face_pair_supports and nat_face_union
        self._face_pairs: dict[tuple, tuple | None] = {}
        self._tables: dict[tuple, tuple] = {}
        self._solves: dict[tuple, tuple] = {}

    def _elements(self, b: Shape) -> tuple:
        raise NotImplementedError

    def apply(self, f: MorphismClass, x):
        """The action of a class f: B -> B' on an element of the B' level."""
        return self.elements(f.src)[self.action(f)[self.index_of(f.dst, x)]]

    def elements(self, b: Shape) -> tuple:
        if b not in self._elems:
            self._elems[b] = self._elements(b)
        return self._elems[b]

    def size(self, b: Shape) -> int:
        return len(self.elements(b))

    def index_of(self, b: Shape, x) -> int:
        if b not in self._index:
            self._index[b] = {x: i for i, x in enumerate(self.elements(b))}
        return self._index[b][x]

    def action(self, f: MorphismClass) -> tuple[int, ...]:
        """Index array of the action: position i holds the index in the
        f.src level of the image of the i-th element of the f.dst level."""
        arr = self._actions.get(f)
        if arr is None:
            arr = self._actions[f] = self._build_action(f)
        return arr

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        """The array of `action(f)`, element by element through `apply`.
        Subclasses that define their action as arrays override this,
        never `action`, which stays the one memoized entry point."""
        return tuple(
            self.index_of(f.src, self.apply(f, x)) for x in self.elements(f.dst)
        )


class Representable(Presheaf):
    def __init__(self, base: Shape):
        super().__init__()
        self.base = base
        self.name = f"y({base})"

    def _elements(self, b: Shape) -> tuple:
        return enumerate_hom(b, self.base)

    def apply(self, f: MorphismClass, x: MorphismClass) -> MorphismClass:
        return compose_classes(x, f)


class ProductPresheaf(Presheaf):
    def __init__(self, left: Presheaf, right: Presheaf):
        super().__init__()
        self.left, self.right = left, right
        self.name = f"({left.name} x {right.name})"

    def _elements(self, b: Shape) -> tuple:
        return tuple(
            itertools.product(self.left.elements(b), self.right.elements(b))
        )

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        # the level at b lists (x_i, y_j) at index i * |right(b)| + j
        width = self.right.size(f.src)
        right = self.right.action(f)
        return tuple(i * width + j for i in self.left.action(f) for j in right)


class TablePresheaf(Presheaf):
    """Explicit levels and action tables; the JSON-facing realization."""

    def __init__(self, levels: dict, actions: dict, name: str = "table"):
        super().__init__()
        self.levels = dict(levels)
        self.actions_table = dict(actions)
        self.name = name

    def _elements(self, b: Shape) -> tuple:
        return tuple(self.levels[b])

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        return tuple(self.actions_table[f])

    def require_covers(self, window: WindowSpec) -> None:
        """Raise ValueError unless the tables define x on the whole window.

        Every window shape needs a level of distinct elements, and every
        class between window shapes an action row of the right length
        with entries indexing its source level: the checks act along
        composite classes too, not only along the generators.
        """
        for b in window.shapes():
            if b not in self.levels:
                raise ValueError(f"no level at {b}")
            if len(set(self.levels[b])) != len(self.levels[b]):
                raise ValueError(f"the level at {b} repeats an element")
        for f in window.classes():
            size = len(self.levels[f.src])
            row = self.actions_table.get(f)
            if row is None or len(row) != len(self.levels[f.dst]) or not all(
                isinstance(i, int) and 0 <= i < size for i in row
            ):
                comps = [list(c.values) for c in f.components]
                raise ValueError(f"no valid action row for {f.src} -> {f.dst} {comps}")

    @classmethod
    def from_presheaf(cls, x: Presheaf, window: WindowSpec):
        """Materialize every level and every action over a window."""
        levels = {b: x.elements(b) for b in window.shapes()}
        actions = {f: x.action(f) for f in window.classes()}
        return cls(levels, actions, f"table({x.name})")


def table_to_json(x: TablePresheaf) -> dict:
    levels = []
    for b in sorted(x.levels, key=lambda s: (s.dim, s.entries)):
        levels.append({"shape": list(b.entries), "elements": list(x.levels[b])})
    actions = []
    for f in sorted(x.actions_table, key=lambda f: (f.src, f.dst, f.components)):
        actions.append({"class": f.to_json(), "map": list(x.actions_table[f])})
    return {"levels": levels, "actions": actions}


def table_from_json(data: dict) -> TablePresheaf:
    levels = {}
    for lv in data["levels"]:
        b = Shape(tuple(lv["shape"]))
        levels[b] = tuple(_freeze(e) for e in lv["elements"])
    actions = {}
    for row in data["actions"]:
        f = class_from_json(row["class"])
        actions[f] = tuple(row["map"])
    return TablePresheaf(levels, actions)


def _freeze(x):
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    return x


# ---------------------------------------------------------------------------
# truncation and extension


def project_shape(b: Shape, n: int) -> Shape:
    return Shape(b.entries[:n])


def project_class(f: MorphismClass, n: int) -> MorphismClass:
    """Image of a class under the projection that drops coordinates past n."""
    ps, pd = project_shape(f.src, n), project_shape(f.dst, n)
    if f.degree <= n:
        return MorphismClass(ps, pd, f.components)
    return MorphismClass(ps, pd, f.components[:n] + (constant_map(0, 0, 0),))


class TruncatedPresheaf(Presheaf):
    def __init__(self, x: Presheaf, n: int):
        super().__init__()
        self.inner, self.n = x, n
        self.name = f"{x.name}|<={n}"

    def _elements(self, b: Shape) -> tuple:
        if b.dim > self.n:
            raise ValueError(f"{b} exceeds truncation level {self.n}")
        return self.inner.elements(b)

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        if f.src.dim > self.n or f.dst.dim > self.n:
            raise ValueError("class exceeds truncation level")
        return self.inner.action(f)


class ExtendedPresheaf(Presheaf):
    def __init__(self, xn: Presheaf, n: int):
        super().__init__()
        self.inner, self.n = xn, n
        self.name = f"extend({xn.name})"

    def _elements(self, b: Shape) -> tuple:
        return self.inner.elements(project_shape(b, self.n))

    def _build_action(self, f: MorphismClass) -> tuple[int, ...]:
        # the level at b is the inner level at project_shape(b, n), in order
        return self.inner.action(project_class(f, self.n))


# ---------------------------------------------------------------------------
# functoriality checking


class FunctorialityReport(NamedTuple):
    ok: bool
    identities_checked: int
    pairs_checked: int
    violation: tuple | None  # (shape,) or (f, g, x(g . f), x(f) x(g))

    def to_json(self) -> dict:
        if self.violation is None:
            violation = None
        elif len(self.violation) == 1:
            violation = {"identity": self.violation[0].to_json()}
        else:
            f, g, lhs, rhs = self.violation
            violation = {
                "f": f.to_json(),
                "g": g.to_json(),
                "action_of_composite": list(lhs),
                "composite_of_actions": list(rhs),
            }
        return {
            "identities_checked": self.identities_checked,
            "pairs_checked": self.pairs_checked,
            "violation": violation,
        }


def check_functoriality(
    x: Presheaf, window: WindowSpec, budget: int = DEFAULT_BUDGET
) -> FunctorialityReport:
    """Verify identity actions and composite actions over the window.

    After the identity rows, checks x(g . f) = x(f) x(g) for every class
    f between window shapes and every generator g out of f.dst.  This is
    exact: every class of the window is a word in `generator_classes`
    staying inside the window, so induction on the length of the word
    gives every composable pair.  Raises BudgetExceededError once the
    pairs checked exceed `budget`.
    """
    shapes = window.shapes()
    for i, b in enumerate(shapes):
        if x.action(identity_class(b)) != tuple(range(x.size(b))):
            return FunctorialityReport(False, i, 0, (b,))
    out_of: dict[Shape, list[MorphismClass]] = {b: [] for b in shapes}
    for g in generator_classes(window):
        out_of[g.src].append(g)
    pairs = 0
    for f in window.classes():
        farr = x.action(f)
        for g in out_of[f.dst]:
            pairs += 1
            if pairs > budget:
                raise BudgetExceededError("functoriality budget exceeded", pairs)
            lhs = x.action(compose_classes(g, f))
            rhs = tuple(farr[v] for v in x.action(g))
            if lhs != rhs:
                return FunctorialityReport(False, len(shapes), pairs, (f, g, lhs, rhs))
    return FunctorialityReport(True, len(shapes), pairs, None)


# ---------------------------------------------------------------------------
# natural families on a union of faces


def nat_face_union(
    roots: tuple[FaceDescriptor, ...],
    x: Presheaf,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple]:
    """All natural families on the union of the given face images, each
    the tuple of its values on the roots, in ascending order: the
    solutions of the roots' face-pair tables (`_face_pair_supports`),
    solved once per distinct network on x by `solve_tables`."""
    arcs = []
    for i, fd1 in enumerate(roots):
        for j in range(i + 1, len(roots)):
            table = _face_pair_supports(x, fd1, roots[j])
            if table is not None:
                arcs.append((i, j, table))
    sizes = [x.size(fd.target) for fd in roots]
    return solve_tables(sizes, arcs, budget, x._solves)


def solve_tables(sizes, arcs, budget: int, memo: dict) -> list[tuple]:
    """All solutions, in ascending order, of the table network on
    variables range(size) with the arcs (i, j, (fwd, bwd, identity)),
    i < j, as `_face_pair_supports` builds them.

    Variables tied by identity tables are one variable, represented by
    the class's lowest index; the other tables move onto the
    representatives, once per table object and pair.  The merged
    network's sorted solutions and node count are memoized in `memo` by
    its sizes and the identities of its tables, which must stay alive
    as long as `memo` does.  A hit whose solve took more nodes than
    `budget` raises what the solver raises at node budget + 1; a solve
    that ran out of budget is not stored.  See the module docstring for
    why the merged network searches like the full one.
    """
    heads = union_heads(len(sizes), [(i, j) for i, j, table in arcs if table[2]])
    var = {}  # representative -> merged variable, in index order
    for i, head in enumerate(heads):
        if head == i:
            var[i] = len(var)
    classes = [var[head] for head in heads]
    merged = {}  # (var, var, id(table)) -> table
    for i, j, table in arcs:
        if not table[2]:
            merged.setdefault((classes[i], classes[j], id(table)), table)
    key = (tuple(sizes[i] for i in var), tuple(merged))
    solved = memo.get(key)
    if solved is None:
        net = Network()
        for size in key[0]:
            net.add_var(range(size))
        for (a, b, _), (fwd, bwd, _) in merged.items():
            net.add_arcs(a, b, "tab", fwd, bwd)
        solutions = sorted(net.solve_all(budget))
        solved = memo[key] = (solutions, net.nodes)
    solutions, nodes = solved
    if nodes > budget:
        raise BudgetExceededError("enumeration budget exceeded", budget + 1)
    if len(classes) <= 1:  # itemgetter of one index returns no tuple
        return list(solutions)
    return list(map(itemgetter(*classes), solutions))


def union_heads(n: int, pairs) -> list[int]:
    """The head of each index in range(n) in the classes that the pairs
    of indices generate: the lowest index of its class, since each union
    puts the lower root on top."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in pairs:
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def _face_pair_supports(x: Presheaf, fd1: FaceDescriptor, fd2: FaceDescriptor):
    """The compatibility table of two root faces over their full levels,
    as (fwd, bwd, identity), or None when the faces share no cell: fwd
    and bwd are its support masks, and identity says that each value
    is compatible with the equal value only, over equal level sizes.

    Memoized on x by the face pair, since every horn of a shape reuses
    its face pairs, and under that by the identities of the two faces'
    restriction arrays to the shared cells, which are all the table
    reads: face pairs whose arrays are the same objects share one table
    object.  The arrays stay alive in x's action memo, so their ids are
    not reused."""
    pair = (fd1, fd2)
    if pair not in x._face_pairs:
        through1, through2 = common_restrictions(face_class(fd1), face_class(fd2))
        table = None
        if through1:
            arrays1 = tuple(map(x.action, through1))
            arrays2 = tuple(map(x.action, through2))
            key = (tuple(map(id, arrays1)), tuple(map(id, arrays2)))
            table = x._tables.get(key)
            if table is None:
                fwd, bwd = _equal_key_supports(list(zip(*arrays1)), list(zip(*arrays2)))
                identity = len(fwd) == len(bwd) and all(
                    m == 1 << v for v, m in enumerate(fwd)
                )
                table = x._tables[key] = (fwd, bwd, identity)
        x._face_pairs[pair] = table
    return x._face_pairs[pair]


def _equal_key_supports(keys1, keys2) -> tuple[list[int], list[int]]:
    """The (fwd, bwd) support masks of the constraint keys1[v] == keys2[w]:
    fwd[v] masks the w with an equal key, bwd[w] the v."""
    masks1: dict = {}  # key -> mask of the values with it
    masks2: dict = {}
    for masks, keys in ((masks1, keys1), (masks2, keys2)):
        for v, key in enumerate(keys):
            masks[key] = masks.get(key, 0) | 1 << v
    return [masks2.get(key, 0) for key in keys1], [masks1.get(key, 0) for key in keys2]


# ---------------------------------------------------------------------------
# natural families between presheaves


def generator_classes(window: WindowSpec) -> list[MorphismClass]:
    """Faces and componentwise epis between window shapes.

    Every class between window shapes is a composite of these staying
    inside the window, so naturality along them implies naturality.
    """
    gens = [face_class(fd) for b in window.shapes() for fd in faces_of(b)]
    return gens + epi_generators(window)


def epi_generators(window: WindowSpec) -> list[MorphismClass]:
    """The non-identity componentwise epis between window shapes, by source.

    An epi b -> c has c.dim <= b.dim and every entry of c at most b's,
    so c comes before b in `window.shapes()`."""
    shapes = window.shapes()
    return [
        e
        for b1 in shapes
        for b2 in shapes
        for e in epi_classes_between(b1, b2)
        if not e.is_identity()
    ]


def nat_network(
    source: Presheaf, target: Presheaf, window: WindowSpec
) -> tuple[Network, dict]:
    """The network of the natural transformations source -> target over
    the window, and `roots[b][i]`, the (root variable, array g) pair of
    source element i at shape b: value(i) = g[value(root)].

    Only the nondegenerate source elements get a solver variable.  Walk
    the shapes in window order; an element x of level b that some
    non-identity epi e: b -> c reaches, x = e^*y, is degenerate.  The
    first such (e, y) gives x the root of y and the array
    g_x = target.action(e) . g_y, so that value(x) = g_x[value(root)]
    (a root's array is the identity).  Each generator constraint
    value(x2) = target.action(f)[value(x1)], with x2 = f^*x1, becomes
    g_x2[value(r2)] = target.action(f)[g_x1[value(r1)]] on the roots, or
    a filter on the domain of r when r1 = r2 = r.

    Exact on any source and target: the constraints along the chosen
    epis are the ones that fix value(x) from its root, and every other
    constraint is kept, so the solutions on the roots expand one to one
    to the solutions of the network on all elements.

    The same search tree, for presheaves on this category: it is an
    Eilenberg-Zilber category, so x = E^*r with E epi and r
    nondegenerate is unique, and r is x's root and E its chain of
    chosen epis.  A filter then compares target.action(E2) with
    target.action(E1 . f) for E2 = E1 . f, and keeps every value.
    target.action(E) is injective, since E has a section, so at the
    arc-consistency fixpoint of the full network a degenerate domain is
    g_x of its root's domain, and restricting that fixpoint to the roots
    gives the fixpoint here and back.  Roots are numbered in the full
    network's order (shape, then index) and a root comes before its
    degenerate elements with domains of the same size, so the
    minimum-remaining-values rule branches on the same variable with
    the same values: node counts, solution order and the node a budget
    trips at are the full network's.
    """
    shapes = window.shapes()
    epis = epi_generators(window)
    arrays = {f: (source.action(f), target.action(f)) for f in generator_classes(window)}
    net = Network()
    roots: dict[Shape, list[tuple[int, tuple]]] = {}  # b -> (root var, g_x) per x
    for b in shapes:
        reached: list = [None] * source.size(b)
        for e in epis:
            if e.src != b:
                continue
            src_arr, tgt_arr = arrays[e]
            for i, (r, g) in enumerate(roots[e.dst]):
                if reached[src_arr[i]] is None:
                    reached[src_arr[i]] = (r, tuple(tgt_arr[w] for w in g))
        ident = tuple(range(target.size(b)))
        roots[b] = [
            (net.add_var(ident), ident) if entry is None else entry
            for entry in reached
        ]
    constraints = {}  # identical constraints once, in first-seen order
    for f, (src_arr, tgt_arr) in arrays.items():
        for i, (r1, g1) in enumerate(roots[f.dst]):
            r2, g2 = roots[f.src][src_arr[i]]
            constraints[(r1, tuple(tgt_arr[w] for w in g1), r2, g2)] = None
    for r1, h1, r2, g2 in constraints:
        if r1 == r2:
            net.domains[r1] &= sum(1 << v for v, w in enumerate(h1) if g2[v] == w)
        else:
            net.add_arcs(r1, r2, "fn", *_equal_key_supports(h1, g2))
    return net, roots


def nat_presheaves(
    source: Presheaf,
    target: Presheaf,
    window: WindowSpec,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple]:
    """All natural transformations source -> target over the window, in
    ascending order: the solutions of `nat_network`, each read by
    `read_family` at every element.  A family is the tuple of its
    components, one per shape of `window.shapes()`, in that order; the
    component at b holds, for each element of the source level at b,
    the index of its value in the target level."""
    net, roots = nat_network(source, target, window)
    columns = [
        ([r for r, _ in roots[b]], [g for _, g in roots[b]]) for b in window.shapes()
    ]
    return sorted(read_family(columns, sol) for sol in net.solve_all(budget))


def read_family(columns: list, sol: tuple) -> tuple:
    """The family of a `nat_network` solution, read at the columns: per
    component, the root variables and the arrays g of its elements, so
    that the value of an element is g[sol[root]]."""
    return tuple(tuple(map(getitem, gs, map(sol.__getitem__, rs))) for rs, gs in columns)
