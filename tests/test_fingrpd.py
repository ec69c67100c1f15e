import itertools

import pytest

from xmodforge import fingrpd
from xmodforge.errors import SizeLimitExceeded, ValidationFailure
from xmodforge.fingrpd import (
    aut_bundle, check_groupoid, disjoint_union, groupoid_of_parts, inertia,
    pair_groupoid,
    pullback_groupoid, pullback_iso_to_base, search_groupoid_iso,
    semidirect_product, trivial_action, trivial_bundle, unit_bundle,
    unit_groupoid, validate_action, validate_groupoid, cyclic_groupoid,
)
from xmodforge.util import pair


def test_pair2_valid(pair2):
    assert len(pair2.arrows) == 4
    assert len(pair2.objects) == 2


def test_c2_valid(c2):
    assert len(c2.arrows) == 2
    e, s = c2.unit["*"], [a for a in c2.arrows if not c2.is_unit(a)][0]
    assert c2.comp[(s, s)] == e


def test_corrupted_c2_reports_bad_inverse_and_associativity():
    # sigma * sigma = sigma instead of e
    arrows = ["e", "s"]
    comp = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"}
    violations = check_groupoid(["*"], arrows, {a: "*" for a in arrows},
                                {a: "*" for a in arrows}, {"e": "e", "s": "s"},
                                {"*": "e"}, comp)
    codes = {v.code for v in violations}
    assert "BadInverse" in codes or "NonAssociative" in codes
    with pytest.raises(ValidationFailure):
        validate_groupoid(["*"], arrows, {a: "*" for a in arrows},
                          {a: "*" for a in arrows}, {"e": "e", "s": "s"},
                          {"*": "e"}, comp)


def test_groupoid_of_parts_orders_arrows_by_label_and_keeps_table_order():
    # parts inserted in reverse label order: the arrows still iterate in
    # label order, the tables follow parts, and they are the pair groupoid's
    objects = ["x", "y", "z"]
    parts = {pair(y, x): (y, x) for y in reversed(objects) for x in reversed(objects)}
    g = groupoid_of_parts(objects, parts, lambda r: r[1], lambda r: r[0],
                          lambda r: pair(r[1], r[0]), lambda x: pair(x, x),
                          lambda r, r2: pair(r[0], r2[1]))
    assert list(g.arrows) == sorted(parts)
    assert list(g.src) == list(g.tgt) == list(g.inv) == list(parts)
    assert list(g.comp) == [(a, b) for a, (_, x) in parts.items()
                            for b, (y, _) in parts.items() if y == x]
    # the pair groupoid's tables, written out by hand
    labels = {(y, x): pair(y, x) for y in objects for x in objects}
    assert g.src == {a: x for (_, x), a in labels.items()}
    assert g.tgt == {a: y for (y, _), a in labels.items()}
    assert g.inv == {a: labels[(x, y)] for (y, x), a in labels.items()}
    assert g.unit == {x: labels[(x, x)] for x in objects}
    assert g.comp == {(labels[(z, y)], labels[(y, x)]): labels[(z, x)]
                      for z, y, x in itertools.product(objects, repeat=3)}
    hand = pair_groupoid(objects)
    assert (list(hand.arrows), hand.src, hand.tgt, hand.inv, hand.unit, hand.comp) == \
        (list(g.arrows), g.src, g.tgt, g.inv, g.unit, g.comp)


def test_pullback_c2_two_points(c2):
    # Z = {p,q} -> {*}: arrows are triples (z1,g,z2): 2*2*2 = 8
    pb = pullback_groupoid(c2, ["p", "q"], {"p": "*", "q": "*"})
    assert len(pb.objects) == 2
    assert len(pb.arrows) == 8


def test_pullback_identity_iso(pair2):
    sigma = {x: x for x in pair2.objects}
    pb = pullback_groupoid(pair2, pair2.objects, sigma)
    fwd, back = pullback_iso_to_base(pair2, pb, sigma)
    for a in pb.arrows:
        assert back.amap[fwd.amap[a]] == a
    for a in pair2.arrows:
        assert fwd.amap[back.amap[a]] == a


def test_pullback_empty(c2):
    pb = pullback_groupoid(c2, [], {})
    assert len(pb.arrows) == 0
    assert len(pb.objects) == 0


def test_aut_bundle_trivial_c2_bundle():
    # Aut(Z/2) is trivial, so every hom-set has exactly one arrow: 4 total
    h = trivial_bundle(["x", "y"], cyclic_groupoid(2))
    aut = aut_bundle(h)
    assert len(aut.objects) == 2
    assert len(aut.arrows) == 4


def test_aut_bundle_z3_over_point():
    h = fingrpd.as_group_bundle(cyclic_groupoid(3))
    aut = aut_bundle(h)
    assert len(aut.objects) == 1
    assert len(aut.arrows) == 2  # |Aut(Z/3)| = 2 by enumeration


def test_aut_bundle_empty():
    h = unit_bundle([])
    aut = aut_bundle(h)
    assert len(aut.arrows) == 0


def test_aut_bundle_cap(s3):
    h = fingrpd.as_group_bundle(s3)
    with pytest.raises(SizeLimitExceeded):
        aut_bundle(h, fiber_cap=5)
    aut = aut_bundle(h, fiber_cap=6)
    assert len(aut.arrows) == 6  # |Aut(S3)| = |Inn(S3)| = 6


def test_validate_action_conjugation_c2(c2):
    bundle, action = inertia(c2)
    # abelian: conjugation trivial
    for (g, h), hg in action.act.items():
        assert hg == h
    _ = validate_action(c2, bundle, action.act)


def test_validate_action_pair2_trivial_bundle(pair2):
    h = trivial_bundle(sorted(pair2.objects), cyclic_groupoid(2))
    action = trivial_action(pair2, h)
    assert len(action.act) == len(pair2.arrows) * 2


def test_validate_action_corrupted(pair2):
    h = trivial_bundle(sorted(pair2.objects), cyclic_groupoid(2))
    act = dict(trivial_action(pair2, h).act)
    # redirect one entry to the unit: breaks fiberwise bijectivity/homomorphism
    g = sorted(pair2.arrows)[0]
    y = pair2.tgt[g]
    nonunit = [k for k in h.fiber(y) if k != h.unit[y]][0]
    act[(g, nonunit)] = act[(g, h.unit[y])]
    with pytest.raises(ValidationFailure) as e:
        validate_action(pair2, h, act)
    assert any(v.code == "NotHomomorphism" for v in e.value.violations)


def test_semidirect_trivial_action_is_klein(c2):
    h = fingrpd.as_group_bundle(cyclic_groupoid(2, prefix="h"))
    action = trivial_action(c2, h)
    sd = semidirect_product(action)
    assert len(sd.arrows) == 4
    # oracle: multiplication-table enumeration says Z/2 x Z/2: abelian, exponent 2
    for a in sd.arrows:
        assert sd.comp[(a, a)] == sd.unit[sd.src[a]]
        for b in sd.arrows:
            assert sd.comp[(a, b)] == sd.comp[(b, a)]


def test_semidirect_unit_bundle_is_base(pair2):
    h = unit_bundle(sorted(pair2.objects))
    sd = semidirect_product(trivial_action(pair2, h))
    assert len(sd.arrows) == len(pair2.arrows)
    amap = {a: fingrpd.unpair(a)[1] for a in sd.arrows}
    fingrpd.validate_groupoid_morphism(sd, pair2, {x: x for x in sd.objects}, amap)


def test_semidirect_unit_base_is_bundle():
    base = unit_groupoid(["x"])
    h = trivial_bundle(["x"], cyclic_groupoid(3))
    sd = semidirect_product(trivial_action(base, h))
    assert len(sd.arrows) == 3
    iso = search_groupoid_iso(sd, h)
    assert iso is not None


def test_inertia_pair2_is_unit_bundle(pair2):
    bundle, action = inertia(pair2)
    assert set(bundle.arrows) == set(pair2.unit.values())


def test_inertia_c2(c2):
    bundle, action = inertia(c2)
    assert len(bundle.arrows) == 2
    # oracle: conjugation table computed directly
    for g in c2.arrows:
        for h in bundle.fiber("*"):
            manual = c2.comp[(c2.comp[(c2.inv[g], h)], g)]
            assert action.act[(g, h)] == manual


def test_inertia_disjoint_union(c2, pair2):
    g = disjoint_union(c2, pair2)
    bundle, _ = inertia(g)
    sizes = sorted(len(bundle.fiber(x)) for x in g.objects)
    assert sizes == [1, 1, 2]


def test_semidirect_output_revalidates(pair2):
    # validate_groupoid runs inside semidirect_product; re-run explicitly
    h = trivial_bundle(sorted(pair2.objects), cyclic_groupoid(2))
    sd = semidirect_product(trivial_action(pair2, h))
    assert not check_groupoid(sd.objects, sd.arrows, sd.src, sd.tgt,
                              sd.inv, sd.unit, sd.comp)


def test_action_induces_aut_morphism(c2):
    bundle, action = inertia(c2)
    aut, f = action.as_aut_morphism()
    assert set(f.amap) == set(c2.arrows)


def test_groupoid_iso_search_distinguishes_groups():
    z4 = cyclic_groupoid(4)
    klein = semidirect_product(trivial_action(
        cyclic_groupoid(2), fingrpd.as_group_bundle(cyclic_groupoid(2, prefix="h"))))
    assert search_groupoid_iso(z4, klein) is None
    assert search_groupoid_iso(z4, cyclic_groupoid(4, prefix="d")) is not None


def test_exhaustive_associativity_is_checked():
    # a non-associative 4-element magma with units/inverses patched in
    # gets caught by the validator
    arrows = ["e", "a", "b", "c"]
    comp = {}
    table = {
        ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "b",
        ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
        ("c", "a"): "a", ("c", "b"): "a", ("c", "c"): "e",
    }
    for x in arrows:
        comp[("e", x)] = x
        comp[(x, "e")] = x
    comp.update(table)
    violations = check_groupoid(["*"], arrows, {x: "*" for x in arrows},
                                {x: "*" for x in arrows},
                                {"e": "e", "a": "a", "b": "b", "c": "c"},
                                {"*": "e"}, comp)
    assert any(v.code in ("NonAssociative", "BadInverse") for v in violations)
