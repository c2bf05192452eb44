"""The aggregated invariant suite behind `thetacat selftest`.

Each entry re-runs one module's core invariants at a size chosen to
finish quickly; the result is a deterministic JSON-able dict given the
seed.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from . import anodyne, checkers, delta, groups, nerves, presheaves, subshapes, theta
from .subshapes import WindowSpec


def _delta_invariants(rng) -> dict:
    ok_assoc = True
    for _ in range(200):
        sizes = [rng.randint(0, 5) for _ in range(4)]
        f = rng.choice(delta.enumerate_monos(sizes[0], sizes[1]))
        g = rng.choice(delta.enumerate_monos(sizes[1], sizes[2]))
        h = rng.choice(delta.enumerate_monos(sizes[2], sizes[3]))
        lhs = delta.compose_mono(h, delta.compose_mono(g, f))
        rhs = delta.compose_mono(delta.compose_mono(h, g), f)
        ok_assoc = ok_assoc and lhs == rhs
    ok_counts = all(
        len(delta.enumerate_monos(m, n)) == comb(m + n + 1, m + 1)
        for m in range(5)
        for n in range(5)
    )
    ok_factor = True
    for m in range(4):
        for n in range(4):
            for f in delta.enumerate_monos(m, n):
                e, mo = delta.epi_mono_factor(f)
                ok_factor = ok_factor and delta.compose_mono(mo, e) == f
    ok_spine = all(
        delta.constant_map(m, n, v).in_spine()
        for m in range(4)
        for n in range(4)
        for v in range(n + 1)
    )
    return {
        "associativity_fuzz": ok_assoc,
        "counts_binomial": ok_counts,
        "epi_mono_roundtrip": ok_factor,
        "constants_in_spine": ok_spine,
    }


def _theta_invariants(rng) -> dict:
    shapes = [s for s in WindowSpec(2, 2).shapes()]
    ok_assoc = True
    for _ in range(150):
        a, b, c, d = (rng.choice(shapes) for _ in range(4))
        f = rng.choice(theta.enumerate_hom(a, b))
        g = rng.choice(theta.enumerate_hom(b, c))
        h = rng.choice(theta.enumerate_hom(c, d))
        ok_assoc = ok_assoc and theta.compose_classes(
            h, theta.compose_classes(g, f)
        ) == theta.compose_classes(theta.compose_classes(h, g), f)
    ok_unit = True
    for a in shapes:
        for b in shapes:
            for f in theta.enumerate_hom(a, b):
                ok_unit = ok_unit and theta.compose_classes(
                    theta.identity_class(b), f
                ) == f and theta.compose_classes(f, theta.identity_class(a)) == f
    ok_faces = True
    for a in WindowSpec(2, 3).shapes():
        if a.dim == 0:
            continue
        fds = theta.faces_of(a)
        inner = sum(1 for fd in fds if fd.inner)
        outer = len(fds) - inner
        want_inner = sum(x - 1 for x in a.entries)
        idx = {i + 1 for i, x in enumerate(a.entries) if x >= 2} | {a.dim}
        ok_faces = ok_faces and inner == want_inner and outer == 2 * len(idx)
    ok_autos = all(
        theta.automorphism_report(a).num_automorphisms == 1
        for a in WindowSpec(2, 2).shapes()
    )
    return {
        "associativity_fuzz": ok_assoc,
        "identity_unit": ok_unit,
        "face_count_formula": ok_faces,
        "no_nontrivial_automorphisms": ok_autos,
    }


def _subshapes_invariants(rng) -> dict:
    ok_horn_boundary = True
    for a in WindowSpec(2, 2).shapes():
        if a.dim == 0:
            continue
        bd = subshapes.boundary(a)
        for fd in theta.faces_of(a):
            h = subshapes.horn(a, fd.k, fd.m)
            f = subshapes.face_image(fd)
            ok_horn_boundary = ok_horn_boundary and subshapes.sub_algebra(
                "equal", subshapes.sub_union(h, f), bd
            )
    ok_spine_outer = True
    for a in WindowSpec(2, 2).shapes():
        if a.dim == 0 or all(x == 1 for x in a.entries):
            continue
        sp = subshapes.spine(a)
        outer = subshapes.union_of_faces(a, theta.outer_faces(a))
        ok_spine_outer = ok_spine_outer and sp.is_subset(outer)
    ok_allones = True
    for d in range(3):
        a = theta.Shape((1,) * d)
        ok_allones = ok_allones and subshapes.sub_algebra(
            "equal", subshapes.spine(a), subshapes.full_sub(a)
        )
    return {
        "horn_plus_face_is_boundary": ok_horn_boundary,
        "spine_in_outer_union": ok_spine_outer,
        "all_ones_spine_full": ok_allones,
    }


def _presheaf_invariants(rng) -> dict:
    w = WindowSpec(2, 2)
    b1 = nerves.NerveB1(groups.cyclic(2))
    rep = presheaves.Representable(theta.shape(1, 1))
    ok_funct = (
        presheaves.check_functoriality(b1, w).ok
        and presheaves.check_functoriality(rep, w).ok
    )
    ok_yoneda = True
    for a in w.shapes():
        families = presheaves.nat_presheaves(
            presheaves.Representable(a), b1, subshapes.window_for(a)
        )
        ok_yoneda = ok_yoneda and len(families) == b1.size(a)
    return {"functoriality": ok_funct, "yoneda": ok_yoneda}


def _checker_invariants(rng) -> dict:
    w = WindowSpec(2, 2)
    b1 = nerves.NerveB1(groups.cyclic(2))
    rep_strict = checkers.check(b1, "strict-groupoid", w)
    b2 = nerves.NerveB2Strict(groups.cyclic(2))
    rep_cat = checkers.check(b2, "strict-cat", w)
    return {
        "b1_strict_groupoid": rep_strict.verdict,
        "b2_strict_cat": rep_cat.verdict,
    }


def _anodyne_invariants(rng) -> dict:
    ok = True
    for a in WindowSpec(2, 2).shapes():
        if a.dim == 0:
            continue
        inner = theta.inner_faces(a)
        outer = theta.outer_faces(a)
        for r in range(len(inner)):
            for chosen in itertools.combinations(inner, r):
                gamma = [(fd.k, fd.m) for fd in tuple(outer) + chosen]
                if len(gamma) == len(theta.faces_of(a)):
                    continue
                cert = anodyne.certify_union_inclusion(a, gamma)
                ok = ok and anodyne.verify_certificate(cert).ok
    probe = anodyne.spine_probe(subshapes.full_sub(theta.shape(2)), "full")
    ok_probe = probe.found and len(probe.certificate.steps) == 1
    return {"certify_exhaustive_small": ok, "probe_interval_triangle": ok_probe}


def _nerve_invariants(rng) -> dict:
    z2 = groups.cyclic(2)
    data = groups.cocycle_tools(z2, z2)
    ok_counts = len(data.z2) == 2 and len(data.b2) == 1 and data.classes == 2
    maps = presheaves.nat_presheaves(
        nerves.NerveB1(z2), nerves.NerveB2EM(z2), nerves.H2_WINDOW
    )
    ok_prop = len(maps) == len(data.z2)
    ok_round = all(
        nerves.cocycle_to_map(nerves.map_to_cocycle(z2, z2, m)) == m for m in maps
    )
    return {
        "cocycle_counts_z2": ok_counts,
        "maps_equal_cocycles": ok_prop,
        "round_trip": ok_round,
    }


def run_selftest(seed: int = 0) -> dict:
    rng = random.Random(seed)
    sections = {
        "delta": _delta_invariants(rng),
        "theta": _theta_invariants(rng),
        "subshapes": _subshapes_invariants(rng),
        "presheaves": _presheaf_invariants(rng),
        "checkers": _checker_invariants(rng),
        "anodyne": _anodyne_invariants(rng),
        "nerves": _nerve_invariants(rng),
    }
    ok = all(all(v for v in section.values()) for section in sections.values())
    return {"seed": seed, "sections": sections, "verdict": "pass" if ok else "fail"}
