import pytest
from conftest import (
    SubAsPresheaf,
    check_oracle,
    horn_filling_oracle,
    mode_rule_oracle,
    shapes_with,
)
from test_presheaves import MEMO_PRESHEAVES, MEMO_SHAPES

from thetacat import checkers
from thetacat.checkers import (
    MODES,
    Mode,
    check,
    horn_filling,
    parse_mode,
)
from thetacat.groups import builtin_group, cyclic
from thetacat.nerves import NerveB1, NerveB2EM, NerveB2Strict
from thetacat.presheaves import Representable, TablePresheaf
from thetacat.subshapes import WindowSpec, horn, window_for
from thetacat.theta import face_class, face_descriptor, faces_of, shape


def test_parse_mode():
    assert parse_mode("cat") == Mode("cat")
    assert parse_mode("strict-groupoid") == Mode("strict-groupoid")
    assert parse_mode("n-strict:2") == Mode("n-strict", 2)
    assert parse_mode("n-cat:1") == Mode("n-cat", 1)
    with pytest.raises(ValueError):
        parse_mode("weak-cat")
    with pytest.raises(ValueError):
        parse_mode("n-cat:-3")


PLAIN_KINDS = ("cat", "groupoid", "strict-cat", "strict-groupoid")
N_KINDS = ("n-strict", "n-cat")


def every_mode(ns) -> list[Mode]:
    return [Mode(k) for k in PLAIN_KINDS] + [Mode(k, n) for k in N_KINDS for n in ns]


def test_mode_table_matches_mode_rules_oracle():
    # each row of MODES gives the inner-only flag and the requirement that
    # the three methods of the oracle give, on every shape of the window
    assert set(MODES) == set(PLAIN_KINDS + N_KINDS)
    for mode in every_mode(range(5)):
        inner_only, requirement = MODES[mode.kind]
        for a in WindowSpec(4, 3).shapes():
            got = (inner_only, requirement(a, mode.n))
            assert got == mode_rule_oracle(mode, a), (str(mode), a)


@pytest.mark.parametrize(
    "x",
    [
        NerveB1(cyclic(2)),
        NerveB1(builtin_group("S3")),
        NerveB2Strict(cyclic(2)),
        NerveB2EM(cyclic(2)),
    ],
    ids=lambda x: x.name,
)
def test_check_matches_mode_rules_loop(x):
    w = WindowSpec(2, 2)
    for mode in every_mode(range(3)):
        assert check(x, str(mode), w) == check_oracle(x, mode, w), str(mode)


def test_horn_filling_group_nerve_unique():
    b1 = NerveB1(cyclic(2))
    rec = horn_filling(b1, shape(2), 1, 1)
    assert rec.inner
    assert rec.surjective and rec.bijective
    assert rec.x_size == rec.nat_size == 4
    assert set(rec.fiber_sizes) == {1}


def test_horn_filling_b2_outer_not_surjective():
    b2 = NerveB2Strict(cyclic(2))
    rec = horn_filling(b2, shape(2, 1), 2, 0)
    assert not rec.inner
    assert not rec.surjective
    assert rec.x_size == 4 and rec.nat_size == 8


def test_horn_of_t11_is_outer():
    b1 = NerveB1(cyclic(2))
    rec = horn_filling(b1, shape(1, 1), 2, 0)
    assert not rec.inner
    assert rec.bijective


def test_check_b1_strict_groupoid():
    rep = check(NerveB1(cyclic(2)), "strict-groupoid", WindowSpec(2, 3))
    assert rep.verdict
    assert rep.witness is None


def test_check_b2_strict_cat_and_groupoid_witness():
    w = WindowSpec(2, 3)
    b2 = NerveB2Strict(cyclic(2))
    assert check(b2, "strict-cat", w).verdict
    rep = check(b2, "groupoid", w)
    assert not rep.verdict
    assert rep.witness.shape == shape(2, 1)
    assert (rep.witness.k, rep.witness.m) == (2, 0)


def test_n_strict_one_equals_strict_cat():
    w = WindowSpec(2, 2)
    b2 = NerveB2Strict(cyclic(2))
    assert check(b2, Mode("n-strict", 1), w).verdict == check(b2, "strict-cat", w).verdict
    b1 = NerveB1(cyclic(3))
    assert check(b1, Mode("n-strict", 1), w).verdict == check(b1, "strict-cat", w).verdict


def test_n_cat_mode_restricts_shapes():
    w = WindowSpec(2, 2)
    b1 = NerveB1(cyclic(2))
    rep = check(b1, Mode("n-cat", 1), w)
    assert rep.verdict
    assert all(rec.shape.dim <= 1 for rec, _, _ in rep.records)


def test_groupoid_pass_implies_cat_pass():
    w = WindowSpec(2, 2)
    for gname in ("Z2", "Z3", "V4"):
        x = NerveB1(builtin_group(gname))
        if check(x, "groupoid", w).verdict:
            assert check(x, "cat", w).verdict


def test_strict_groupoid_iff_groupoid_and_strict_cat():
    # the decidable rendering of the groupoid-strictness equivalence,
    # on the builtin family
    w = WindowSpec(2, 2)
    subjects = [NerveB1(builtin_group(n)) for n in ("Z2", "Z3", "Z4", "V4")]
    subjects.append(NerveB2Strict(cyclic(2)))
    subjects.append(NerveB2EM(cyclic(2)))
    for x in subjects:
        lhs = check(x, "strict-groupoid", w).verdict
        rhs = check(x, "groupoid", w).verdict and check(x, "strict-cat", w).verdict
        assert lhs == rhs


def test_em_nerve_windowed_evidence():
    # recorded evidence: the cocycle realization does not fill all
    # windowed horns; its failures start at the two-column shape
    w = WindowSpec(2, 2)
    rep = check(NerveB2EM(cyclic(2)), "groupoid", w)
    assert not rep.verdict
    assert rep.witness.shape == shape(2, 1)


def test_report_json():
    rep = check(NerveB1(cyclic(2)), "cat", WindowSpec(1, 2))
    data = rep.to_json()
    assert data["verdict"] == "pass"
    assert data["mode"] == "cat"
    assert all("fiber_sizes" in h for h in data["horns"])


def test_inner_fibration_fault_detected():
    # X -> 1 lifts against the inner horns exactly when X is a cat.  The
    # inclusion of a horn, viewed over its own window, has no filler for
    # the tautological horn family
    rep = check(SubAsPresheaf(horn(shape(2), 1, 1)), "cat", window_for(shape(2)))
    assert not rep.verdict
    assert (rep.witness.shape, rep.witness.k, rep.witness.m) == (shape(2), 1, 1)


def test_representable_horn_records_finite():
    # sanity of enumeration on a representable target
    y = Representable(shape(1, 1))
    rec = horn_filling(y, shape(2), 1, 1)
    assert rec.nat_size >= rec.x_size >= 0
    assert len(rec.fiber_sizes) == rec.nat_size


@pytest.mark.parametrize(
    "window, top, passing",
    [(WindowSpec(2, 3), 5, 17), (WindowSpec(3, 3), 4, 11)],
    ids=["sum<=5 at (2,3)", "sum<=4 at (3,3)"],
)
def test_which_representables_are_cats(window, top, passing):
    # a class reads one monotone map per coordinate, so y(a) is a cat on the
    # window exactly when no entry a_i >= 2 has i < dim a and i <= max_dim;
    # a failure's first witness is the inner horn (i, 1) of t[1,...,1,2],
    # the 2 in the first such coordinate i
    shapes = [a for a in shapes_with(top, top) if sum(a.entries) <= top]
    verdicts = []
    for a in shapes:
        bad = [i for i in range(1, a.dim) if a.entry(i) >= 2 and i <= window.max_dim]
        report = check(Representable(a), "cat", window)
        verdicts.append(report.verdict)
        assert report.verdict == (not bad), a
        if bad:
            i = bad[0]
            w = report.witness
            assert (w.shape, w.k, w.m) == (shape(*[1] * (i - 1), 2), i, 1), a
        if window == WindowSpec(2, 3):
            strict = check(Representable(a), "strict-cat", window)
            assert strict.verdict == report.verdict, a
    assert (len(shapes), verdicts.count(True)) == (2**top, passing)


@pytest.mark.parametrize("nerve", [NerveB1, NerveB2Strict])
def test_reports_match_per_call_face_tables(nerve, monkeypatch):
    # the same checks with every face-pair table rebuilt per horn and
    # every horn's families enumerated
    w = WindowSpec(2, 2)

    def reports():
        x = nerve(cyclic(2))
        return (
            check(x, "strict-cat", w).to_json(),
            check(x, "strict-groupoid", w).to_json(),
        )

    memoized = reports()
    monkeypatch.setattr(checkers, "horn_filling", horn_filling_oracle)
    assert reports() == memoized


def test_check_keeps_no_solution_list():
    # a solved horn network leaves its family count and node count in the
    # memo, never its families
    x = NerveB2Strict(cyclic(2))
    check(x, "n-strict:2", WindowSpec(3, 3))
    assert x._solves
    for value in x._solves.values():
        assert type(value) is tuple and len(value) == 2
        assert all(type(v) is int for v in value)


def test_horn_filling_rejects_a_restriction_that_is_not_natural():
    # swapping two entries of one face row of y(t[1]) leaves element 0 of
    # the t[2] level with root values that no family on the horn has
    y = TablePresheaf.from_presheaf(Representable(shape(1)), WindowSpec(1, 2))
    f = face_class(face_descriptor(shape(2), 1, 0))
    row = list(y.actions_table[f])
    row[0], row[1] = row[1], row[0]
    y.actions_table[f] = tuple(row)
    with pytest.raises(AssertionError, match=r"element 0 of .* is not natural"):
        horn_filling(y, shape(2), 1, 1)


@pytest.mark.parametrize(
    "swaps, first",
    [({0: (3, 4)}, 3), ({2: (1, 2)}, 1), ({0: (3, 4), 2: (1, 2)}, 1)],
    ids=["root0", "root2", "both"],
)
def test_naturality_error_names_the_first_element(swaps, first):
    # the horn (1, 1) of t[3] in y(t[1]) has roots d0, d2, d3 and face
    # pairs (0, 1), (0, 2), (1, 2).  Swapping elements 3 and 4 in d0's row
    # breaks pairs (0, 1) and (0, 2) at them; swapping 1 and 2 in d3's row
    # breaks (0, 2) and (1, 2) at them.  With both, the first pair in arc
    # order first fails at element 3, but element 1 comes first
    y = TablePresheaf.from_presheaf(Representable(shape(1)), WindowSpec(1, 3))
    a = shape(3)
    roots = [fd for fd in faces_of(a) if (fd.k, fd.m) != (1, 1)]
    for r, (u, v) in swaps.items():
        f = face_class(roots[r])
        row = list(y.actions_table[f])
        row[u], row[v] = row[v], row[u]
        y.actions_table[f] = tuple(row)
    with pytest.raises(AssertionError, match=rf"element {first} of .* is not natural"):
        horn_filling(y, a, 1, 1)


@pytest.mark.parametrize("name", sorted(MEMO_PRESHEAVES))
def test_horn_records_match_per_element_restriction(name):
    # every horn, inner and outer: root values read once per horn against
    # the face class and action array looked up again for every element
    x, oracle_x = MEMO_PRESHEAVES[name](), MEMO_PRESHEAVES[name]()
    for a in MEMO_SHAPES:
        for fd in faces_of(a):
            assert horn_filling(x, a, fd.k, fd.m) == horn_filling_oracle(
                oracle_x, a, fd.k, fd.m
            ), (a, fd)
