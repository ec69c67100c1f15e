import itertools
import random
from collections import Counter

import pytest

from test_relabel import Relabel
from xmodforge import fingrpd, xmod
from xmodforge.errors import SizeLimitExceeded, ValidationFailure, Violation
from xmodforge.fingrpd import (
    aut_bundle, as_group_bundle, check_groupoid, check_groupoid_generators,
    disjoint_union, generators, groupoid_of_parts, inertia, pair_groupoid,
    pullback_groupoid, pullback_iso_to_base, search_groupoid_iso,
    semidirect_product, trivial_action, trivial_bundle, unit_bundle,
    unit_groupoid, validate_action, validate_groupoid, cyclic_groupoid,
)
from xmodforge.generators import random_crossed_module, random_groupoid, s3_groupoid
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


# -- associativity by Light's test against the direct sweep -------------------


def reference_associativity(arrows, src, tgt, comp):
    """check_groupoid's associativity loop before Light's test: every
    composable triple, in label order."""
    by_tgt = {}
    for h in sorted(arrows):
        by_tgt.setdefault(tgt[h], []).append(h)
    violations = []
    for g in sorted(arrows):
        for h in by_tgt.get(src[g], ()):
            gh = comp[(g, h)]
            for k in by_tgt.get(src[h], ()):
                if comp[(gh, k)] != comp[(g, comp[(h, k)])]:
                    violations.append(Violation("NonAssociative", (g, h, k)))
    return violations


def listed(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


def tables(g):
    return g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp


def assert_associativity_matches_reference(*tabs):
    """check_groupoid lists what check_groupoid_generators lists, and past
    the totality checks its NonAssociative entries come last and are the
    direct sweep's, in its order; Light's test on the generators holds
    exactly when the sweep finds nothing.  Returns the sweep's list."""
    objects, arrows, src, tgt, inv, unit, comp = tabs
    got = listed(check_groupoid(*tabs))
    violations, gens = check_groupoid_generators(*tabs)
    assert listed(violations) == got
    if gens is None:
        assert got and all(code != "NonAssociative" for code, _, _ in got)
        return []
    laws = listed(reference_associativity(arrows, src, tgt, comp))
    assert got == [v for v in got if v[0] != "NonAssociative"] + laws
    by_src, by_tgt = {}, {}
    for a in sorted(arrows):
        by_src.setdefault(src[a], []).append(a)
        by_tgt.setdefault(tgt[a], []).append(a)
    # one body: on the generators it finds a failure exactly when the
    # sweep does, and on every arrow it finds the sweep's triples
    found = list(fingrpd._nonassociative(gens, by_src, by_tgt, src, tgt, comp))
    assert (found == []) == (laws == [])
    assert {m for _, m, _ in found} <= set(gens)
    swept = fingrpd._nonassociative(arrows, by_src, by_tgt, src, tgt, comp)
    assert [("NonAssociative", xsy, "") for xsy in sorted(swept)] == laws
    return laws


def generated_groupoids():
    rng = random.Random(5)
    out = [cyclic_groupoid(n) for n in (1, 2, 3, 4, 6)] + [s3_groupoid()]
    out += [pair_groupoid([f"p{k}" for k in range(n)]) for n in (1, 2, 3, 4)]
    out += [trivial_bundle(["u", "v", "w"], cyclic_groupoid(n)) for n in (2, 4)]
    out.append(as_group_bundle(disjoint_union(cyclic_groupoid(3), s3_groupoid())))
    out += [random_groupoid(rng, max_objects=4, max_order=4) for _ in range(10)]
    out += [xmod.xmod_to_2groupoid(random_crossed_module(rng)).vertical for _ in range(8)]
    return out


def parallel_arrows(g):
    parallel = {}
    for a in g.arrows:
        parallel.setdefault((g.src[a], g.tgt[a]), []).append(a)
    return parallel


def test_check_groupoid_matches_sweep_on_generated():
    light = 0
    for g in generated_groupoids():
        assert assert_associativity_matches_reference(*tables(g)) == []
        gens = check_groupoid_generators(*tables(g))[1]
        light += len(gens) < len(g.arrows)
    assert light >= 20


def test_check_groupoid_matches_sweep_on_corruptions():
    """Single comp entries replaced by another arrow with the same ends, so
    that the totality checks pass and associativity is decided."""
    rng = random.Random(13)
    codes, tried = set(), 0
    for g in generated_groupoids():
        parallel = parallel_arrows(g)
        for key, value in rng.sample(sorted(g.comp.items()), min(16, len(g.comp))):
            others = [a for a in parallel[(g.src[value], g.tgt[value])] if a != value]
            if others:
                tried += 1
                comp = {**g.comp, key: rng.choice(others)}
                tabs = (*tables(g)[:-1], comp)
                assert_associativity_matches_reference(*tabs)
                codes.update(v.code for v in check_groupoid(*tabs))
    assert tried >= 200
    assert "NonAssociative" in codes


def reference_totality(arrows, src, tgt, comp):
    """check_groupoid's totality checks as they were before it counted the
    composable pairs: the spurious-composite sweep runs on every table."""
    violations = []
    by_tgt = {}
    for h in sorted(arrows):
        by_tgt.setdefault(tgt[h], []).append(h)
    for g in sorted(arrows):
        for h in by_tgt.get(src[g], ()):
            if (g, h) not in comp:
                violations.append(Violation("MissingComposite", (g, h)))
                continue
            k = comp[(g, h)]
            if k not in arrows:
                violations.append(Violation("MissingComposite", (g, h), "image not an arrow"))
            elif src[k] != src[h] or tgt[k] != tgt[g]:
                violations.append(Violation("BadComposite", (g, h, k), "endpoint mismatch"))
    for (g, h) in comp:
        if g not in arrows or h not in arrows or src[g] != tgt[h]:
            violations.append(Violation("SpuriousComposite", (g, h)))
    return violations


def test_spurious_composites_are_found_by_count_as_by_the_sweep():
    """Tables with composites dropped, spurious keys added, or both: some
    drop as many keys as they add, so that comp keeps its size."""
    rng = random.Random(17)
    seen, tried = set(), 0
    for g in generated_groupoids():
        noncomposable = [(a, b) for a in g.arrows for b in g.arrows if g.src[a] != g.tgt[b]]
        spurious = noncomposable[:3] + [(next(iter(g.arrows)), "ghost"), ("ghost", "ghost")]
        for drop, add in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 3)):
            comp = dict(g.comp)
            for key in rng.sample(sorted(comp), min(drop, len(comp))):
                del comp[key]
            for key in rng.sample(spurious, min(add, len(spurious))):
                comp[key] = rng.choice(sorted(g.arrows))
            want = listed(reference_totality(g.arrows, g.src, g.tgt, comp))
            assert want
            assert listed(check_groupoid(*tables(g)[:-1], comp)) == want
            tried += 1
            seen.add(tuple(sorted({code for code, _, _ in want})))
    assert tried >= 150
    assert ("MissingComposite", "SpuriousComposite") in seen
    assert ("SpuriousComposite",) in seen


@pytest.mark.parametrize("name", ["src", "tgt", "inv", "unit"])
def test_a_stray_key_in_an_endpoint_table_is_a_violation(name):
    # a key that is no arrow (no object, for unit) fails the groupoid; with
    # an entry missing as well the length matches, and both are listed
    g = pair_groupoid(["a", "b"])
    keys = g.objects if name == "unit" else g.arrows
    stray = {**getattr(g, name), "ghost": next(iter(getattr(g, name).values()))}
    tabs = dict(zip(("src", "tgt", "inv", "unit"), tables(g)[2:6]), **{name: stray})
    args = (g.objects, g.arrows, tabs["src"], tabs["tgt"], tabs["inv"], tabs["unit"], g.comp)
    assert listed(check_groupoid(*args)) == [("SpuriousEntry", (name, "ghost"), "")]
    dropped = next(iter(keys))
    del stray[dropped]
    got = listed(check_groupoid(*args))
    assert ("SpuriousEntry", (name, "ghost"), "") in got and len(got) >= 2
    with pytest.raises(ValidationFailure):
        validate_groupoid(*args)


def test_a_stray_action_entry_is_a_violation():
    # entries off the (g, h) with h over tgt(g): a label that is no bundle
    # arrow, an arrow over another object, and one beside a missing entry
    base = pair_groupoid(["u", "v"])
    bundle = trivial_bundle(["u", "v"], cyclic_groupoid(2))
    act = trivial_action(base, bundle).act
    g = next(a for a in base.arrows if base.src[a] != base.tgt[a])
    off = next(h for h in bundle.arrows if bundle.src[h] != base.tgt[g])
    for key in ((g, "ghost"), ("ghost", off), (g, off)):
        bad = {**act, key: off}
        assert listed(fingrpd.check_action(base, bundle, bad)) == [
            ("SpuriousActionEntry", key, "")]
        del bad[next(iter(act))]
        got = listed(fingrpd.check_action(base, bundle, bad))
        assert got == [("MissingActionEntry", next(iter(act)), ""),
                       ("SpuriousActionEntry", key, "")]


def right_closure(gens, src, tgt, comp):
    reached, todo = set(), list(gens)
    while todo:
        y = todo.pop()
        if y not in reached:
            reached.add(y)
            todo += [comp[(y, s)] for s in gens if tgt[s] == src[y]]
    return reached


def test_generators_generate_in_label_order_and_verdicts_ignore_the_labels():
    rng = random.Random(17)
    samples = []
    for seed in range(12):
        samples += [random_groupoid(rng, max_objects=4, max_order=4),
                    trivial_bundle([f"z{k}" for k in range(rng.randint(1, 3))],
                                   cyclic_groupoid(rng.randint(1, 5))),
                    pair_groupoid([f"p{k}" for k in range(rng.randint(1, 4))])]
    for seed, g in enumerate(samples):
        gens = generators(g.arrows, g.src, g.tgt, g.comp)
        assert right_closure(gens, g.src, g.tgt, g.comp) == set(g.arrows)
        assert gens == sorted(gens)
        assert len(gens) <= len(g.arrows)
        parallel = parallel_arrows(g)
        key, value = rng.choice(sorted(g.comp.items()))
        others = [a for a in parallel[(g.src[value], g.tgt[value])] if a != value]
        for comp in [g.comp] + [{**g.comp, key: a} for a in others[:1]]:
            r = Relabel(seed)
            renamed = ([r(x) for x in g.objects], [r(a) for a in g.arrows],
                       *(r.table(t) for t in (g.src, g.tgt, g.inv, g.unit, comp)))
            want = Counter(v.code for v in check_groupoid(*tables(g)[:-1], comp))
            assert Counter(v.code for v in check_groupoid(*renamed)) == want
            assert_associativity_matches_reference(*renamed)


def test_kept_generators_are_read_without_finding_them(c2, s3):
    # a small groupoid's check does not look for generators, so it keeps
    # none until a reader asks; S3's check finds and keeps them
    assert c2.gens(find=False) is None
    assert c2.gens() == ["c1"] and c2.gens(find=False) == ["c1"]
    assert s3.gens(find=False) == s3.gens() == ["s021", "s102"]
    raw = fingrpd.Groupoid(s3.objects, s3.arrows, s3.src, s3.tgt, s3.inv, s3.unit, s3.comp)
    assert raw.gens() is None and raw.gens(find=False) is None


def test_violation_messages_are_formatted_when_read():
    v = Violation("Axiom1Failure", ("a", "(b,c)"), "on x")
    w = Violation("BadUnit")
    failure = ValidationFailure([v, w])
    assert str(v) == "Axiom1Failure witness=('a', '(b,c)') (on x)"
    assert repr(v) == "Violation(\"Axiom1Failure witness=('a', '(b,c)') (on x)\")"
    assert (str(w), repr(w)) == ("BadUnit", "Violation('BadUnit')")
    assert str(failure) == "Axiom1Failure witness=('a', '(b,c)') (on x); BadUnit"
    assert repr(failure) == \
        "ValidationFailure(\"Axiom1Failure witness=('a', '(b,c)') (on x); BadUnit\")"
    assert failure.codes == ["Axiom1Failure", "BadUnit"]
