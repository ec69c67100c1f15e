"""util.quotient, and the orbit-space constructions built on it, against the
union-find oracles of quotient_oracles: the same tables in the same
insertion order, and the same class maps."""

import random

import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge import generators
from xmodforge.errors import XModForgeError
from xmodforge.util import pair, quotient

import quotient_oracles as oracle


def test_quotient_does_not_depend_on_the_order_of_its_inputs():
    members = {pair(a, b): (a, b) for a in "dcba" for b in "yx"}
    links = [(pair("a", "x"), pair("c", "y")), (pair("c", "y"), pair("d", "x")),
             (pair("b", "y"), pair("b", "x"))]
    class_of, reps = quotient(members, links)
    assert class_of == {
        "(d,y)": "{(d,y)}", "(d,x)": "{(a,x)}", "(c,y)": "{(a,x)}", "(c,x)": "{(c,x)}",
        "(b,y)": "{(b,x)}", "(b,x)": "{(b,x)}", "(a,y)": "{(a,y)}", "(a,x)": "{(a,x)}"}
    assert list(reps.items()) == [("{(a,x)}", ("a", "x")), ("{(a,y)}", ("a", "y")),
                                  ("{(b,x)}", ("b", "x")), ("{(c,x)}", ("c", "x")),
                                  ("{(d,y)}", ("d", "y"))]
    rng = random.Random(0)
    for _ in range(20):
        items = list(members.items())
        rng.shuffle(items)
        shuffled = [link[::rng.choice((1, -1))] for link in links]
        rng.shuffle(shuffled)
        got = quotient(dict(items), shuffled)
        assert got[0] == class_of and list(got[0]) == [k for k, _ in items]
        assert list(got[1].items()) == list(reps.items())


def test_quotient_represents_a_class_by_its_least_label():
    # '+' sorts before ',', so "(e+,e+)" < "(e,e)" although ("e", "e") < ("e+", "e+")
    members = {pair(a, b): (a, b) for a in ("e", "e+") for b in ("e", "e+")}
    class_of, reps = quotient(members, [("(e,e)", "(e+,e+)")])
    assert class_of["(e,e)"] == class_of["(e+,e+)"] == "{(e+,e+)}"
    assert reps["{(e+,e+)}"] == ("e+", "e+")


def test_quotient_lists_classes_in_class_label_order():
    # "{ab}" < "{a}" since 'b' < '}', although "a" < "ab"
    class_of, reps = quotient({"a": "a", "ab": "ab", "b": "b"}, [("b", "ab")])
    assert list(reps.items()) == [("{ab}", "ab"), ("{a}", "a")]
    assert class_of == {"a": "{a}", "ab": "{ab}", "b": "{ab}"}


def test_quotient_keeps_an_unlinked_member_as_its_own_class():
    class_of, reps = quotient({"x": "x", "y": "y", "z": "z"}, [("x", "z"), ("z", "z")])
    assert class_of == {"x": "{x}", "y": "{y}", "z": "{x}"}
    assert reps == {"{x}": "x", "{y}": "y"}
    assert quotient({}, []) == ({}, {})


def outcome(build, *args):
    """build(*args), or the type and message of the error it raised."""
    try:
        return build(*args)
    except (XModForgeError, KeyError) as e:
        return type(e).__name__, str(e)


def groupoid_tables(g):
    return (list(g.objects), list(g.arrows),
            *(list(t.items()) for t in (g.src, g.tgt, g.inv, g.unit, g.comp)))


def crossing_tables(c):
    if isinstance(c, tuple):
        return c
    return (groupoid_tables(c.m), c.is_extension, c.pair_class,
            *(list(getattr(c, leg).items()) for leg in ("tau", "sigma", "a1", "a2", "b1", "b2")))


def bibundle_tables(zb):
    return (zb.space, *(list(t.items()) for t in (zb.lmom, zb.rmom, zb.lact, zb.ract)),
            zb.pair_class)


@pytest.fixture(scope="module")
def crossed_extensions():
    return [generators.random_crossed_extension(random.Random(seed)) for seed in range(40)]


@pytest.fixture(scope="module")
def exchangers():
    return [generators.random_exchanger(random.Random(seed)) for seed in range(40)]


def test_diamond_matches_the_union_find_oracle(crossed_extensions):
    built = 0
    for c in crossed_extensions:
        cbar = cr.mbar(c)
        want = outcome(oracle.diamond_core, c, cbar)
        assert crossing_tables(outcome(cr.diamond, c, cbar)) == crossing_tables(want)
        built += not isinstance(want, tuple)
    assert built >= 14


def test_crossed_semidirect_matches_the_union_find_oracle(crossed_extensions):
    built = 0
    for c in crossed_extensions:
        for side in ("H1", "H2"):
            want = outcome(oracle.crossed_semidirect, c, side)
            got = outcome(cr.crossed_semidirect, c, side)
            if isinstance(want[1], dict):
                (gpd, class_of), (want_gpd, want_class_of) = got, want
                assert groupoid_tables(gpd) == groupoid_tables(want_gpd)
                assert list(class_of.items()) == list(want_class_of.items())
                built += 1
            else:
                assert got == want
    assert built >= 40


def decomposition_inputs(ex):
    """The carrier over the same-base forms, its projective groupoid and the
    paired sides, as exchanger_decompose builds them."""
    a, b = exm.same_base_form(ex.source), exm.same_base_form(ex.target)
    p = bb.Bibundle(a.m, b.m, ex.p.space, ex.p.lmom, ex.p.rmom, ex.p.lact, ex.p.ract)
    return p, bb.projective_groupoid(p), list(zip(a.sides(), b.sides()))


def test_quotient_middle_matches_the_union_find_oracle(exchangers):
    # carriers of at most 8 points: the projective groupoid of a 16-point
    # carrier has 1,024 arrows and takes seconds to validate
    small = [ex for ex in exchangers if len(ex.p.space) <= 8]
    assert len(small) >= 24
    for ex in small:
        p, mn, sides = decomposition_inputs(ex)
        for s, t in sides:
            gpd, class_of = exm._quotient_middle(p, mn, s, t)
            want_gpd, want_class_of = oracle.quotient_middle(p, mn, s, t)
            assert groupoid_tables(gpd) == groupoid_tables(want_gpd)
            assert class_of == want_class_of


def test_horizontal_diamond_matches_the_union_find_oracle(exchangers):
    # the library links each carrier pair through the kept generators of
    # the H2 and H5 fibres, or their whole fibres where none are kept, the
    # oracle through every (h2, h5)
    built = by_gens = 0
    for ex in exchangers:
        assert ex.p.divisions is not None
        assert ex.source.dst.h.validated and ex.target.dst.h.validated
        by_gens += ex.source.dst.h.gens_by_point() is not None
        want = outcome(oracle.horizontal_diamond, ex, ex)
        got = outcome(exm.horizontal_diamond, ex, ex)
        if isinstance(want, tuple):
            assert got == want
            continue
        # the oracle fills a component's moments in the order of a set
        assert (got.p.lmom, got.p.rmom) == (want.p.lmom, want.p.rmom)
        assert bibundle_tables(got.p)[3:] == bibundle_tables(want.p)[3:]
        assert got.p.space == want.p.space
        assert got.p.parts == want.p.parts
        assert crossing_tables(got.source) == crossing_tables(want.source)
        assert crossing_tables(got.target) == crossing_tables(want.target)
        built += 1
    assert built >= 14 and by_gens >= 10


def test_morita_witness_matches_the_union_find_oracle():
    # the oracle fills its tables in the order of a set of labels, so the
    # tables are compared as maps
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        g, h = generators.random_groupoid(rng), generators.random_groupoid(rng)
        for left, right in ((g, g), (g, h)):
            got, want = bb.morita_witness(left, right), oracle.morita_witness(left, right)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.space == want.space
                assert (got.lmom, got.rmom, got.lact, got.ract) == \
                    (want.lmom, want.rmom, want.lact, want.ract)
                found += 1
    assert found >= 40
