import random
from math import comb

import pytest

from thetacat.delta import (
    MonotoneMap,
    compose_mono,
    constant_map,
    coface_map,
    enumerate_monos,
    epi_mono_factor,
    identity_map,
)
from thetacat.errors import IncomposableError


def test_compose_identity():
    f = MonotoneMap(1, 2, (0, 2))
    assert compose_mono(identity_map(2), f) == f


def test_compose_injections():
    # skip-2 after skip-0 on the interval
    g = MonotoneMap(2, 3, (0, 1, 3))
    f = MonotoneMap(1, 2, (1, 2))
    assert compose_mono(g, f).values == (1, 3)


def test_compose_constant_absorbs():
    g = constant_map(1, 1, 0)
    for f in enumerate_monos(1, 1):
        assert compose_mono(g, f) == constant_map(1, 1, 0)


def test_compose_incomposable():
    with pytest.raises(IncomposableError):
        compose_mono(MonotoneMap(1, 1, (0, 1)), MonotoneMap(1, 2, (0, 2)))


def test_enumerate_monos_small_listings():
    assert [f.values for f in enumerate_monos(1, 1)] == [(0, 0), (0, 1), (1, 1)]
    assert [f.values for f in enumerate_monos(2, 1)] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ]
    assert len(enumerate_monos(0, 4)) == 5


def test_enumerate_monos_counts_binomial():
    for m in range(6):
        for n in range(6):
            assert len(enumerate_monos(m, n)) == comb(m + n + 1, m + 1)


def test_enumerate_monos_lex_sorted():
    for m in range(4):
        for n in range(4):
            vals = [f.values for f in enumerate_monos(m, n)]
            assert vals == sorted(vals)


def test_map_predicates_examples():
    f = MonotoneMap(1, 2, (0, 2))
    assert (f.is_constant(), f.is_injective(), f.in_spine()) == (False, True, False)
    f = constant_map(2, 2, 1)
    assert f.is_constant() and f.in_spine()
    assert MonotoneMap(1, 2, (1, 2)).in_spine()


def test_spine_membership_for_constants_and_points():
    for n in range(4):
        for m in range(4):
            for v in range(n + 1):
                assert constant_map(m, n, v).in_spine()
        for f in enumerate_monos(0, n):
            assert f.in_spine()


def test_epi_mono_factor_examples():
    e, m = epi_mono_factor(MonotoneMap(2, 2, (0, 0, 2)))
    assert e.values == (0, 0, 1) and m.values == (0, 2)
    e, m = epi_mono_factor(identity_map(3))
    assert e == identity_map(3) and m == identity_map(3)
    e, m = epi_mono_factor(constant_map(1, 3, 2))
    assert e.values == (0, 0) and m.values == (2,)


def test_epi_mono_roundtrip_exhaustive():
    for dm in range(5):
        for cd in range(5):
            for f in enumerate_monos(dm, cd):
                e, m = epi_mono_factor(f)
                assert e.is_surjective()
                assert m.is_injective()
                assert compose_mono(m, e) == f


def test_associativity_fuzzed():
    rng = random.Random(1234)
    for _ in range(1000):
        a, b, c, d = (rng.randint(0, 5) for _ in range(4))
        f = rng.choice(enumerate_monos(a, b))
        g = rng.choice(enumerate_monos(b, c))
        h = rng.choice(enumerate_monos(c, d))
        assert compose_mono(h, compose_mono(g, f)) == compose_mono(
            compose_mono(h, g), f
        )


def test_coface_maps():
    assert coface_map(2, 1).values == (0, 2)
    assert coface_map(3, 0).values == (1, 2, 3)


def test_validate_rejects_bad_maps():
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (1, 0)).validate()
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0, 2)).validate()
    with pytest.raises(ValueError):
        MonotoneMap(2, 1, (0, 1)).validate()
