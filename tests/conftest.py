"""Shared helpers: independent oracles used to freeze expected values."""

from __future__ import annotations

import itertools
import unittest.mock as mock
from contextlib import contextmanager
from functools import lru_cache

from thetacat import nerves as nerves_mod
from thetacat.checkers import FibrationReport, HornRecord, LiftingSquare
from thetacat.csp import Network
from thetacat.delta import constant_map, enumerate_monos
from thetacat.errors import BudgetExceededError
from thetacat.groups import Cocycle2, FiniteGroup
from thetacat.nerves import (
    EM_LEVEL_BUDGET,
    H2_WINDOW,
    CoreNerve,
    NerveB1,
    NerveB2EM,
    vertex_indices,
)
from thetacat.presheaves import (
    DEFAULT_BUDGET,
    Presheaf,
    PresheafNatFamily,
    ProductPresheaf,
    Representable,
    TablePresheaf,
    generator_classes,
    nat_face_union,
    nat_presheaves,
)
from thetacat.subshapes import (
    SubOfRepresentable,
    WindowSpec,
    common_cells,
    horn,
    window_for,
)
from thetacat.theta import (
    FaceDescriptor,
    MorphismClass,
    Shape,
    compose_classes,
    enumerate_hom,
    epi_mono_factor_class,
    face_class,
    face_descriptor,
    factor_through,
    faces_of,
    identity_class,
    inner_faces,
    mono_cells_into,
    shape,
)


def shapes_with(max_dim: int, max_entry: int, min_dim: int = 0) -> list[Shape]:
    out = []
    for d in range(min_dim, max_dim + 1):
        out.extend(
            Shape(e) for e in itertools.product(range(1, max_entry + 1), repeat=d)
        )
    return out


# ---------------------------------------------------------------------------
# oracles that were package definitions with no caller in the package,
# kept verbatim apart from taking their object as the first argument


def normalize_components(src: Shape, dst: Shape, comps) -> MorphismClass:
    """Truncate a full representative at its first constant component."""
    kept = []
    for f in comps:
        kept.append(f)
        if f.is_constant():
            return MorphismClass(src, dst, tuple(kept))
    # A representative always goes constant by index min(dim)+1.
    k = len(kept) + 1
    kept.append(constant_map(src.entry(k), dst.entry(k), 0))
    return MorphismClass(src, dst, tuple(kept))


def is_mono_cell(s: MorphismClass) -> bool:
    """True for classes in canonical nondegenerate form."""
    if s.degree != s.src.dim + 1:
        return False
    return all(f.is_injective() for f in s.components[:-1])


def check_closure(sub: SubOfRepresentable) -> None:
    """Verify closure under precomposition, exhaustively on the window of
    its base."""
    shapes = window_for(sub.base).shapes()
    for b2 in shapes:
        for s in sub.level(b2):
            for b1 in shapes:
                for f in enumerate_hom(b1, b2):
                    if compose_classes(s, f) not in sub:
                        raise AssertionError(
                            f"not closed: {s} along {f} at level {b1}"
                        )


def is_natural(fam: PresheafNatFamily) -> bool:
    """Check every naturality square along the window's generators."""
    for f in generator_classes(fam.window):
        src_arr = fam.source.action(f)
        tgt_arr = fam.target.action(f)
        phi_src, phi_dst = fam.components[f.src], fam.components[f.dst]
        if any(
            phi_src[src_arr[i]] != tgt_arr[phi_dst[i]]
            for i in range(fam.source.size(f.dst))
        ):
            return False
    return True


def yoneda_family(x: Presheaf, a: Shape, idx: int, cells) -> tuple[int, ...]:
    """Values on the given cells of the family classified by an element of x(a)."""
    return tuple(x.action(m)[idx] for m in cells)


def group_to_json(g: FiniteGroup) -> dict:
    """The group-file JSON that `FiniteGroup.from_json` reads."""
    return {
        "name": g.name,
        "elements": list(g.elements),
        "table": [list(r) for r in g.table],
    }


def cohomologous(c1: Cocycle2, c2: Cocycle2, b2: tuple[tuple[int, ...], ...]) -> bool:
    """Whether two cocycles differ by a coboundary."""
    g_, a_ = c1.group, c1.coeffs
    n = g_.order
    diff = tuple(
        a_.mul(c1.table[i], a_.inverse[c2.table[i]]) for i in range(n * n)
    )
    return diff in set(b2)


# ---------------------------------------------------------------------------
# adapter: a subobject of a representable as a presheaf
#
# The level at b lists the subobject's cells b -> base in (degree,
# component values, source) order, and a class acts by precomposition.


class SubAsPresheaf(Presheaf):
    def __init__(self, sub: SubOfRepresentable):
        super().__init__()
        self.sub = sub
        self.name = f"sub({sub.base})"

    def _elements(self, b: Shape) -> tuple:
        return tuple(sorted(
            self.sub.level(b),
            key=lambda s: (s.degree, tuple(f.values for f in s.components), s.src),
        ))

    def apply(self, f: MorphismClass, x: MorphismClass) -> MorphismClass:
        return compose_classes(x, f)


# ---------------------------------------------------------------------------
# oracle: support masks of the two constraint kinds
#
# The bodies of `csp.Network.add_fn` and `add_table`, the builders that
# `add_arcs` replaced, returning the (fwd, bwd) masks that their callers
# now pass to `add_arcs`; `fn_supports` takes the width of b's domain
# in place of the network.


def fn_supports(arr, width: int) -> tuple[list[int], list[int]]:
    """The masks of value(b) == arr[value(a)], b's values below width."""
    fwd = [1 << w for w in arr]
    bwd = [0] * (max(arr, default=-1) + 1)
    for v, w in enumerate(arr):
        bwd[w] |= 1 << v
    if len(bwd) < width:  # values of b outside arr's image: no support
        bwd.extend([0] * (width - len(bwd)))
    return fwd, bwd


def table_supports(allowed: dict, da: int, db: int) -> tuple[list[int], list[int]]:
    """The masks of (value(a), value(b)) in the pairs of `allowed`, for
    the domain masks da of a and db of b."""
    fwd = [0] * da.bit_length()
    bwd = [0] * db.bit_length()
    for va, vbs in allowed.items():
        if da >> va & 1:
            bit = 1 << va
            m = 0
            for vb in vbs:
                m |= 1 << vb
                if vb < len(bwd):
                    bwd[vb] |= bit
            fwd[va] = m & db
    return fwd, bwd


# ---------------------------------------------------------------------------
# oracle: maximal proper subobjects, from scratch
#
# A subobject of the representable on `a` is the image of a mono cell;
# containment of images is factorization of the generating cells.  The
# faces must be exactly the maximal ones below the identity.


def brute_maximal_subobjects(a: Shape) -> list[MorphismClass]:
    cells = [m for m in mono_cells_into(a) if m != identity_class(a)]

    def contained(m1, m2):
        return factor_through(m1, m2) is not None

    maximal = []
    for m in cells:
        dominated = False
        for m2 in cells:
            if m2 != m and contained(m, m2) and not contained(m2, m):
                dominated = True
                break
        if not dominated:
            maximal.append(m)
    # deduplicate mutually-factoring cells (same image)
    out = []
    for m in maximal:
        if not any(contained(m, m2) and contained(m2, m) for m2 in out):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# oracle: classical simplicial sets on the simplex category
#
# Levels of the n-simplex are the monotone maps; boundary, horns and
# spine by image conditions.  Used to pin the dim-1 levels of the
# generalized constructions.


def classical_cells(n: int, level: int):
    return enumerate_monos(level, n)


def classical_boundary(n: int, level: int):
    return [f for f in classical_cells(n, level) if len(set(f.values)) < n + 1]


def classical_horn(n: int, k: int, level: int):
    need = set(range(n + 1)) - {k}
    return [f for f in classical_cells(n, level) if not need <= set(f.values)]


def classical_spine(n: int, level: int):
    return [f for f in classical_cells(n, level) if f.values[-1] - f.values[0] <= 1]


# ---------------------------------------------------------------------------
# oracle: subobjects of a representable level by level
#
# The builders that `SubOfRepresentable` used before it was stored by its
# mono cells, returning the levels over the window as a dict: every cell
# of every window level filtered by the predicate, and images and
# pullbacks along c read off the composites of c with every cell of every
# level, computed once per class.


def levelwise_sub(base: Shape, window, predicate) -> dict:
    return {
        b: frozenset(s for s in enumerate_hom(b, base) if predicate(s))
        for b in window.shapes()
    }


def levelwise_composites(c: MorphismClass, window) -> dict:
    """For each window shape b, every composite c . t of a cell t: b -> c.src,
    with the cells t that give it."""
    out = {}
    for b in window.shapes():
        fibers: dict = {}
        for t in enumerate_hom(b, c.src):
            fibers.setdefault(compose_classes(c, t), []).append(t)
        out[b] = fibers
    return out


def levelwise_image(composites: dict) -> dict:
    return {b: frozenset(fibers) for b, fibers in composites.items()}


def levelwise_pullback(levels: dict, composites: dict) -> dict:
    return {
        b: frozenset(t for ct in fibers.keys() & levels[b] for t in fibers[ct])
        for b, fibers in composites.items()
    }


# ---------------------------------------------------------------------------
# oracle: exhaustive naturality of an enumerated family


def family_is_natural(sub: SubOfRepresentable, x, value_at) -> bool:
    """Check one family on a subpresheaf against every square of the
    window of its base."""
    window = window_for(sub.base)
    values = {}
    for b in window.shapes():
        for s in sub.level(b):
            values[(b, s)] = value_at(s)
    for b1 in window.shapes():
        for b2 in window.shapes():
            for f in enumerate_hom(b1, b2):
                for s in sub.level(b2):
                    if values[(b1, compose_classes(s, f))] != x.apply(
                        f, values[(b2, s)]
                    ):
                        return False
    return True


# ---------------------------------------------------------------------------
# oracle: natural families on a subobject by generic cell search
#
# `presheaves.nat_cells` and its `_ckey`, kept verbatim apart from the
# name, its constraints' masks, built by `fn_supports`, reading
# `sub.cells` (which `subshapes.nondegenerate_cells` restated as
# (source, cell) pairs) and returning the cells with the families'
# sorted value tuples: one variable per mono cell of the subobject, and
# one functional constraint per face of each cell.
# `cell_value` reads a family at any cell of the subobject, as
# `CellFamily.value_at` did.


def nat_cells_oracle(
    sub: SubOfRepresentable, x: Presheaf, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[MorphismClass, ...], list[tuple]]:
    """All natural families on a subpresheaf, by generic cell search."""
    cells = sorted(
        sub.cells, key=lambda s: (s.src.dim + sum(s.src.entries), s.src, _ckey(s))
    )
    pos = {s: i for i, s in enumerate(cells)}
    net = Network()
    for s in cells:
        net.add_var(range(x.size(s.src)))
    supports = {}  # (array, source level size) -> masks, shared by its arcs
    for s in cells:
        for fd in faces_of(s.src):
            fc = face_class(fd)
            key = (x.action(fc), x.size(fc.src))
            if key not in supports:
                # value(lower) == arr[value(s)]
                supports[key] = fn_supports(*key)
            net.add_arcs(pos[s], pos[compose_classes(s, fc)], "fn", *supports[key])
    return tuple(cells), sorted(net.solve_all(budget))


def _ckey(s: MorphismClass):
    return tuple(f.values for f in s.components)


def cell_value(x: Presheaf, cells, values, cell: MorphismClass):
    """The value, as an element of x, at any cell of the subpresheaf that
    the cells generate, of the family with the given values on them."""
    epi, mono = epi_mono_factor_class(cell)
    for c, val in zip(cells, values):
        u = factor_through(mono, c)
        if u is not None:
            xm = x.apply(u, x.elements(c.src)[val])
            return x.apply(epi, xm) if not epi.is_identity() else xm
    raise ValueError(f"cell {cell} is not in the subpresheaf")


# ---------------------------------------------------------------------------
# oracle: functoriality over every composable pair of the window


def all_pairs_functorial(x, window) -> bool:
    """Identity rows, then x(g . f) = x(f) x(g) for every composable pair."""
    shapes = window.shapes()
    if any(x.action(identity_class(b)) != tuple(range(x.size(b))) for b in shapes):
        return False
    for b1 in shapes:
        for b2 in shapes:
            for f in enumerate_hom(b1, b2):
                farr = x.action(f)
                for b3 in shapes:
                    for g in enumerate_hom(b2, b3):
                        rhs = tuple(farr[v] for v in x.action(g))
                        if x.action(compose_classes(g, f)) != rhs:
                            return False
    return True


def swap_in_first_row(table: TablePresheaf) -> TablePresheaf:
    """The table with two distinct entries swapped in the first
    non-identity action row that has two."""
    actions = dict(table.actions_table)
    for f, row in actions.items():
        if len(set(row)) > 1 and not f.is_identity():
            i = 0
            j = next(j for j in range(len(row)) if row[j] != row[i])
            r = list(row)
            r[i], r[j] = r[j], r[i]
            actions[f] = tuple(r)
            break
    return TablePresheaf(table.levels, actions)


def constants_to_all_ones(table: TablePresheaf) -> TablePresheaf:
    """The table with the row of every degree-1 (constant) class sending
    every element to the all-ones string of its source level.

    Composites with faces keep a class constant, so the corrupted rows
    agree with each other along every face; only the epis see them.
    """
    actions = dict(table.actions_table)
    for f, row in actions.items():
        if f.degree == 1:
            level = table.levels[f.src]
            ones = next(i for i, e in enumerate(level) if all(v == 1 for v in e))
            actions[f] = (ones,) * len(row)
    return TablePresheaf(table.levels, actions)


# ---------------------------------------------------------------------------
# oracle: the anodyne step check level by level
#
# The step check that `anodyne._step_fault` replaced, kept verbatim
# apart from its name and its `window` parameter: it builds the horn and
# compares the pullback with it at every level of the window, composing c
# with every cell of the step cell.


def full_level_step_check(
    current: SubOfRepresentable, step, window: WindowSpec
) -> tuple[bool, str]:
    c = step.attach
    k, m = step.horn
    if c.src != step.cell:
        return False, "attaching class does not start at the step cell"
    try:
        fd = face_descriptor(step.cell, k, m)
    except ValueError as exc:
        return False, str(exc)
    if not fd.inner:
        return False, f"horn ({k},{m}) of {step.cell} is not inner"
    inner_horn = horn(step.cell, k, m)
    for b in window.shapes():
        members = current.level(b)
        pullback = set()
        composites: dict = {}
        for t in enumerate_hom(b, step.cell):
            ct = compose_classes(c, t)
            if ct in members:
                pullback.add(t)
            else:
                # pushout needs c to be injective outside the horn
                if ct in composites:
                    return False, f"attaching class identifies cells at level {b}"
                composites[ct] = t
        if pullback != inner_horn.level(b):
            return False, f"pullback is not the horn at level {b}"
    return True, ""


# ---------------------------------------------------------------------------
# oracle: the spine probe's candidate list, built in full
#
# The list `anodyne.spine_probe` built before its first node, kept
# verbatim apart from its name: (attaching class, horn face) pairs in
# search order.  The search scans a prefix of it from each state.


def eager_probe_candidates(a: Shape) -> list[tuple[MorphismClass, FaceDescriptor]]:
    shapes_order = sorted(
        window_for(a).shapes(),
        key=lambda c: (c.dim + sum(c.entries), c.dim, c.entries),
    )
    candidates = []
    for c_shape in shapes_order:
        horns = inner_faces(c_shape)
        if not horns:
            continue
        for c in enumerate_hom(c_shape, a):
            candidates.extend((c, fd) for fd in horns)
    return candidates


# ---------------------------------------------------------------------------
# oracle: natural families between presheaves with a variable per element
#
# The body of `presheaves.nat_presheaves` before it solved on the
# nondegenerate source elements only, kept verbatim apart from its name
# and its constraints' masks, built by `fn_supports`: every element of
# every level gets its own variable, and every generator gives one
# functional constraint per element of its target level.


def nat_presheaves_oracle(
    source: Presheaf,
    target: Presheaf,
    window: WindowSpec,
    budget: int = DEFAULT_BUDGET,
) -> list[PresheafNatFamily]:
    """All natural transformations source -> target over the window."""
    shapes = window.shapes()
    net = Network()
    var_of: dict[tuple[Shape, int], int] = {}
    for b in shapes:
        nvals = target.size(b)
        for i in range(source.size(b)):
            var_of[(b, i)] = net.add_var(range(nvals))
    for f in generator_classes(window):
        src_arr = source.action(f)
        tgt_arr = target.action(f)
        supports = fn_supports(tgt_arr, target.size(f.src))
        for i in range(source.size(f.dst)):
            net.add_arcs(
                var_of[(f.dst, i)], var_of[(f.src, src_arr[i])], "fn", *supports
            )
    out = []
    for sol in net.solve_all(budget):
        comps = {}
        for b in shapes:
            comps[b] = tuple(sol[var_of[(b, i)]] for i in range(source.size(b)))
        out.append(PresheafNatFamily(source, target, window, comps))
    out.sort(key=lambda fam: fam.key())
    return out


# ---------------------------------------------------------------------------
# oracle: the cocycle nerve with full tables
#
# `nerves.NerveB2EM` before it stored each cocycle by its cone values,
# kept verbatim apart from its name: a level lists the full tables, one
# value per triple of `_triples(n)`, rebuilt from the free values
# z(0, j, k) in the same product order, and each table is checked
# against the 4-term identity.


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(itertools.combinations(range(n + 1), 3))


class NerveB2EMTables(CoreNerve):
    """Level = normalized 2-cocycles on the first-coordinate simplex."""

    core_dim = 1

    def __init__(self, group: FiniteGroup):
        super().__init__()
        if not group.abelian:
            raise ValueError("cocycle coefficients must be abelian")
        self.group = group
        self.name = f"B2em({group.name})"

    def _elements(self, b: Shape) -> tuple:
        n = b.entry(1)
        a_ = self.group
        trips = _triples(n)
        free = [t for t in trips if t[0] == 0]
        tables = a_.order ** len(free)
        if tables > EM_LEVEL_BUDGET:
            raise BudgetExceededError(
                f"cocycle level at {b} needs {tables} tables", tables
            )
        pos = {t: i for i, t in enumerate(trips)}
        out = []
        for assignment in itertools.product(range(a_.order), repeat=len(free)):
            vals = [a_.identity] * len(trips)
            for t, v in zip(free, assignment):
                vals[pos[t]] = v
            for i, j, k in trips:
                if i == 0:
                    continue
                # z(i,j,k) = z(0,j,k) - z(0,i,k) + z(0,i,j)
                vals[pos[(i, j, k)]] = a_.mul(
                    a_.mul(vals[pos[(0, j, k)]], a_.inverse[vals[pos[(0, i, k)]]]),
                    vals[pos[(0, i, j)]],
                )
            table = tuple(vals)
            if not self._is_simplicial_cocycle(n, table):
                raise AssertionError("cone reconstruction produced a non-cocycle")
            out.append(table)
        return tuple(out)

    def _is_simplicial_cocycle(self, n: int, table) -> bool:
        a_ = self.group
        pos = {t: i for i, t in enumerate(_triples(n))}
        for i, j, k, l in itertools.combinations(range(n + 1), 4):
            # z(j,k,l) - z(i,k,l) + z(i,j,l) - z(i,j,k) = 0
            acc = a_.mul(table[pos[(j, k, l)]], a_.inverse[table[pos[(i, k, l)]]])
            acc = a_.mul(acc, table[pos[(i, j, l)]])
            acc = a_.mul(acc, a_.inverse[table[pos[(i, j, k)]]])
            if acc != a_.identity:
                return False
        return True

    def apply(self, f: MorphismClass, x):
        n_src, n_dst = f.src.entry(1), f.dst.entry(1)
        f1 = f.component(1)
        pos_dst = {t: i for i, t in enumerate(_triples(n_dst))}
        out = []
        for i, j, k in _triples(n_src):
            a, b, c = f1(i), f1(j), f1(k)
            if a < b < c:
                out.append(x[pos_dst[(a, b, c)]])
            else:
                out.append(self.group.identity)
        return tuple(out)


def cone_to_table(group: FiniteGroup, n: int, cone: tuple) -> tuple:
    """The full table, one value per triple of `_triples(n)`, of the
    normalized 2-cocycle on [n] with cone values `cone` (one per pair
    0 < j < k <= n, in lex order): z(i, j, k) = z(0, j, k) - z(0, i, k)
    + z(0, i, j), where z(0, 0, k) is the identity."""
    z0 = dict(zip(itertools.combinations(range(1, n + 1), 2), cone))

    def at(i, j):
        return z0[i, j] if i else group.identity

    return tuple(
        group.mul(group.mul(at(j, k), group.inverse[at(i, k)]), at(i, j))
        for i, j, k in _triples(n)
    )


# ---------------------------------------------------------------------------
# oracle: homotopy pairs from the expanded cylinder families
#
# The pair loop of `nerves.homotopy_classes` before it read each cylinder
# solution at its endpoint roots, kept verbatim apart from returning the
# pairs and the transcript: every cylinder family is built by
# `nat_presheaves`, restricted along each vertex inclusion to a family,
# and looked up among the maps by that family's key.


def homotopy_pairs_oracle(
    g_: FiniteGroup,
    a_: FiniteGroup,
    window: WindowSpec = H2_WINDOW,
    budget: int = DEFAULT_BUDGET,
) -> tuple[set, list]:
    """The homotopy pairs of the maps B1(G) -> B2em(A), and the
    transcript: [end 0, end 1] of each cylinder family, in key order."""
    src, tgt = NerveB1(g_), NerveB2EM(a_)
    maps = nat_presheaves(src, tgt, window, budget)
    key_of = {m.key(): i for i, m in enumerate(maps)}
    cyl = ProductPresheaf(src, Representable(shape(1)))
    homotopies = nat_presheaves(cyl, tgt, window, budget)
    indices = [vertex_indices(cyl, src, window, vertex) for vertex in (0, 1)]
    pairs = set()
    transcripts = []
    for h in homotopies:
        ends = []
        for vertex in (0, 1):
            comps = {
                b: tuple(map(h.components[b].__getitem__, idx))
                for b, idx in indices[vertex].items()
            }
            fam = PresheafNatFamily(src, tgt, window, comps)
            ends.append(key_of[fam.key()])
        pairs.add((ends[0], ends[1]))
        transcripts.append(ends)
    return pairs, transcripts


@contextmanager
def one_class_too_many():
    """`cocycle_tools` tells one cocycle class too many, which makes
    `homotopy_classes` disagree and attach the counterexample bundle."""
    original = nerves_mod.cocycle_tools

    def fake_tools(g_, a_, budget=10**7):
        data = original(g_, a_, budget)
        return data._replace(classes=data.classes + 1)

    # homotopy_classes resolves cocycle_tools from the nerves module
    with mock.patch.object(nerves_mod, "cocycle_tools", fake_tools):
        yield


def transitive_oracle(pairs) -> bool:
    """The pair-of-pairs transitivity check `homotopy_classes` used."""
    return all((a, d) in pairs for (a, b) in pairs for (c, d) in pairs if b == c)


# ---------------------------------------------------------------------------
# oracle: face-union families with every face-pair table built per call
#
# The body of `presheaves.nat_face_union` before its face-pair support
# masks were memoized on the presheaf, kept verbatim apart from its name
# (its parameters follow `nat_face_union`), its tables' masks, built by
# `table_supports`, and its families, the sorted tuples of the roots'
# values: each call rebuilds the compatibility table of every pair of
# roots.  `_shared_keys` is the helper it
# called then, moved here when the face-pair tables were keyed by their
# restriction arrays.


def _shared_keys(x: Presheaf, fd: FaceDescriptor, shared) -> list[tuple]:
    """For each value at the root face, its restriction to the shared cells."""
    arrays = []
    for cell in shared:
        u = factor_through(cell, face_class(fd))
        if u is None:
            raise AssertionError(f"shared cell {cell} does not divide {fd}")
        arrays.append(x.action(u))
    return [tuple(arr[v] for arr in arrays) for v in range(x.size(fd.target))]


def face_union_oracle(
    roots: tuple[FaceDescriptor, ...],
    x: Presheaf,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple]:
    """All natural families on the union of the given face images."""
    roots = tuple(roots)
    net = Network()
    for fd in roots:
        net.add_var(range(x.size(fd.target)))
    for i, fd1 in enumerate(roots):
        arr1 = {}
        for j in range(i + 1, len(roots)):
            fd2 = roots[j]
            shared = common_cells(face_class(fd1), face_class(fd2))
            if not shared:
                continue
            keys1, keys2 = _shared_keys(x, fd1, shared), _shared_keys(x, fd2, shared)
            allowed: dict[int, set[int]] = {}
            buckets: dict[tuple, list[int]] = {}
            for v2, key in enumerate(keys2):
                buckets.setdefault(key, []).append(v2)
            for v1, key in enumerate(keys1):
                allowed[v1] = set(buckets.get(key, ()))
            supports = table_supports(allowed, net.domains[i], net.domains[j])
            net.add_arcs(i, j, "tab", *supports)
    return sorted(net.solve_all(budget))


# ---------------------------------------------------------------------------
# oracle: horn filling and inner fibrations with root values per element
#
# The bodies of `checkers.horn_filling` and `checkers.inner_fibration_check`
# before each horn's face arrays were read once, kept verbatim apart from
# their names and their families, which are value tuples: every element
# looks up each root's face class and action array again, through
# `restriction_key`.


def restriction_key(x: Presheaf, a: Shape, xa_index: int, roots) -> tuple[int, ...]:
    """Root values of the family obtained by restricting an element of x(a)."""
    return tuple(x.action(face_class(fd))[xa_index] for fd in roots)


def horn_filling_oracle(
    x: Presheaf, a: Shape, k: int, m: int, budget: int = 10**7
) -> HornRecord:
    """One horn: the family count, the restriction map, and its fibers."""
    missing = face_descriptor(a, k, m)
    roots = tuple(fd for fd in faces_of(a) if fd != missing)
    families = nat_face_union(roots, x, budget)
    keys = dict.fromkeys(families, 0)
    for idx in range(x.size(a)):
        key = restriction_key(x, a, idx, roots)
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


def inner_fibration_oracle(phi, window, budget: int = 10**7) -> FibrationReport:
    """Test the right lifting property against every inner horn in window."""
    x, y = phi.source, phi.target
    checked = 0
    failures = []
    for a in window.shapes():
        for fd in faces_of(a):
            if not fd.inner:
                continue
            roots = tuple(f for f in faces_of(a) if f != fd)
            x_families = nat_face_union(roots, x, budget)
            x_keys: dict[tuple, list[int]] = {}
            for idx in range(x.size(a)):
                x_keys.setdefault(restriction_key(x, a, idx, roots), []).append(idx)
            y_keys: dict[tuple, list[int]] = {}
            for idx in range(y.size(a)):
                y_keys.setdefault(restriction_key(y, a, idx, roots), []).append(idx)
            phi_a = phi.components[a]
            for fam in x_families:
                pushed = tuple(
                    phi.components[root.target][val] for root, val in zip(roots, fam)
                )
                for v in y_keys.get(pushed, ()):
                    checked += 1
                    lifts = [ix for ix in x_keys.get(fam, ()) if phi_a[ix] == v]
                    if not lifts:
                        failures.append(LiftingSquare(a, fd.k, fd.m, fam, v))
    return FibrationReport(not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# oracle: the set-domain solver that the bitset core of csp.Network
# replaced, kept verbatim apart from its name.  Domains are sets, pruned
# values go on a trail that is undone on backtrack.  Like the original,
# it leaves `_nodes` unset when a domain is empty.


class SetNetwork:
    def __init__(self):
        self.domains: list[list[int]] = []
        self.adj: list[list[tuple]] = []  # var -> list of (other, kind, data, forward)

    def add_var(self, domain) -> int:
        self.domains.append(sorted(set(domain)))
        self.adj.append([])
        return len(self.domains) - 1

    def add_fn(self, a: int, b: int, arr) -> None:
        """Constrain value(b) == arr[value(a)]."""
        self.adj[a].append((b, "fn", arr, True))
        self.adj[b].append((a, "fn", arr, False))

    def add_table(self, a: int, b: int, allowed: dict) -> None:
        """Constrain (value(a), value(b)) to pairs of `allowed`."""
        self.adj[a].append((b, "tab", allowed, True))
        reverse: dict[int, set[int]] = {}
        for va, vbs in allowed.items():
            for vb in vbs:
                reverse.setdefault(vb, set()).add(va)
        self.adj[b].append((a, "tab", reverse, False))

    # -- solving ------------------------------------------------------------

    def solve_all(self, budget: int = 10**7):
        """Yield every solution as a tuple of values, in canonical order."""
        doms = [set(d) for d in self.domains]
        if any(not d for d in doms):
            return
        self._nodes = 0
        self._budget = budget
        trail: list[tuple[int, int]] = []
        if not self._propagate(list(range(len(doms))), doms, trail):
            self._undo(doms, trail)
            return
        yield from self._search(doms)

    def _search(self, doms):
        n = len(doms)
        best, size = -1, None
        for i in range(n):
            di = len(doms[i])
            if di > 1 and (size is None or di < size):
                best, size = i, di
        if best < 0:
            yield tuple(sorted(d)[0] for d in doms)
            return
        for value in sorted(doms[best]):
            self._nodes += 1
            if self._nodes > self._budget:
                raise BudgetExceededError("enumeration budget exceeded", self._nodes)
            trail: list[tuple[int, int]] = []
            for v in list(doms[best]):
                if v != value:
                    doms[best].discard(v)
                    trail.append((best, v))
            if self._propagate([best], doms, trail):
                yield from self._search(doms)
            self._undo(doms, trail)

    def _undo(self, doms, trail):
        for var, v in trail:
            doms[var].add(v)

    def _propagate(self, dirty, doms, trail) -> bool:
        queue = list(dirty)
        while queue:
            a = queue.pop()
            da = doms[a]
            if not da:
                return False
            for b, kind, data, forward in self.adj[a]:
                db = doms[b]
                if kind == "fn":
                    if forward:
                        allowed = {data[v] for v in da}
                    else:
                        allowed = None  # filter below value by value
                else:
                    allowed = set()
                    for v in da:
                        allowed |= data.get(v, _EMPTY)
                removed = False
                if kind == "fn" and not forward:
                    dbset = da
                    for v in list(db):
                        if data[v] not in dbset:
                            db.discard(v)
                            trail.append((b, v))
                            removed = True
                else:
                    for v in list(db):
                        if v not in allowed:
                            db.discard(v)
                            trail.append((b, v))
                            removed = True
                if not db:
                    return False
                if removed:
                    queue.append(b)
        return True


_EMPTY: frozenset = frozenset()
