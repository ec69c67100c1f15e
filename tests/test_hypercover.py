"""The hypercover test on validated inputs reads WE1-WE3 off the cells of
the two crossed modules and their ends (xmod.vertical_cells): it builds no
vertical groupoid and validates no vertical functor, and check_hypercover
builds both only for a witness.  Its oracles here are the report on the
validated vertical groupoids and the full route, which builds both strict
2-groupoids and the StrictHom2; a moved cell end shows that the report
reads the cell tables.  The functor check's generator certificate is
compared with the sweep on single-entry corruptions, and a planted
failure shows what a missing generator would let through."""

import random

import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import fingrpd, generators, twogpd, xmod
from xmodforge.errors import ValidationFailure

from law_oracles import functor_violations as swept_violations


# -- the oracles -------------------------------------------------------------


def full_route(chi):
    """(report, witness) of check_hypercover as the full route computes
    them: both 2-groupoids and the StrictHom2, validated."""
    f, dom2, cod2 = xmod.hom2_from_xmorphism(chi)
    report = twogpd.check_weak_equivalence(f)  # hypercover_report's
    witness = None
    if all(report.values()):
        zb = bb.bibundle_from_hom(fingrpd.validate_groupoid_morphism(
            dom2.vertical, cod2.vertical, dict(f.m1), dict(f.m2)))
        if bb.is_morita(zb)[0]:
            witness = zb
        else:
            report["WitnessMorita"] = False
    return report, witness


def bibundle_tables(zb):
    return None if zb is None else (
        zb.left, zb.right, list(zb.space), list(zb.lmom.items()), list(zb.rmom.items()),
        list(zb.lact.items()), list(zb.ract.items()))


def described(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


# -- generated strict morphisms ---------------------------------------------


def marked(chi):
    """chi validated again, so that it carries the mark."""
    return xmod.validate_strict_xmorphism(chi.dom, chi.cod, chi.omap, chi.lmap, chi.rmap)


def collapse(xm):
    """The strict morphism of xm onto the unit crossed module of one point:
    a hypercover only when the vertical groupoid has one cell between any
    two parallel 1-cells and G is connected."""
    point = xmod.unit_xmod(fingrpd.unit_groupoid(["pt"]))
    return xmod.validate_strict_xmorphism(
        xm, point, {x: "pt" for x in xm.g.objects},
        {h: point.h.unit["pt"] for h in xm.h.arrows},
        {g: point.g.unit["pt"] for g in xm.g.arrows})


def strict_morphisms(seed):
    """Decomposition legs, pullback projections, identities, composites and
    collapses, all marked validated."""
    rng = random.Random(seed)
    _, left, right = cr.decompose_crossing(generators.random_crossing(rng))
    xm = generators.random_crossed_module(rng)
    pb, proj = xmod.pullback_xmod(xm, *generators.random_surjection(rng, xm.g.objects))
    _, proj2 = xmod.pullback_xmod(pb, *generators.random_surjection(rng, pb.g.objects))
    out = [left, right, proj, marked(xmod.identity_xmorphism(xm)),
           marked(proj2.then(proj)), collapse(xm), marked(left.then(collapse(left.cod)))]
    assert all(chi.validated and chi.dom.validated and chi.cod.validated for chi in out)
    return out


@pytest.fixture(scope="module")
def morphisms():
    return [chi for seed in range(60) for chi in strict_morphisms(seed)]


def test_reports_match_the_full_route(morphisms):
    verdicts = []
    for chi in morphisms:
        report = xmod.hypercover_report(chi)
        assert report == twogpd.check_weak_equivalence(xmod.hom2_from_xmorphism(chi)[0])
        verdicts.append(all(report.values()))
    assert len(verdicts) >= 300
    assert verdicts.count(False) >= 40


def test_witnesses_match_the_full_route(morphisms):
    for chi in morphisms:
        report, witness = xmod.check_hypercover(chi)
        want_report, want_witness = full_route(chi)
        assert report == want_report
        assert bibundle_tables(witness) == bibundle_tables(want_witness)


def vertical_report(chi, dom_ends=None, cod_ends=None):
    """WE1-WE3 of chi read off the validated vertical groupoids of its
    ends, or off the (src2, tgt2) tables given instead of theirs."""
    dom, cod = xmod.vertical_groupoid(chi.dom), xmod.vertical_groupoid(chi.cod)
    m2 = {cell: fingrpd.pair(chi.lmap[h], chi.rmap[g]) for cell, (h, g) in dom.parts.items()}
    return twogpd.weak_equivalence_report(
        chi.dom.g, *(dom_ends or (dom.src, dom.tgt)),
        chi.cod.g, *(cod_ends or (cod.src, cod.tgt)), chi.omap, chi.rmap, m2)


def test_reports_from_the_cells_match_the_vertical_groupoids(morphisms):
    verdicts = []
    for chi in morphisms:
        for xm in (chi.dom, chi.cod):
            parts, src2, tgt2 = xmod.vertical_cells(xm)
            vertical = xmod.vertical_groupoid(xm)
            assert (parts, src2, tgt2) == (vertical.parts, vertical.src, vertical.tgt)
        report = xmod.hypercover_report(chi)
        assert report == vertical_report(chi)
        verdicts.append(all(report.values()))
    assert len(verdicts) == 420
    assert verdicts.count(False) == 99


def test_a_moved_cell_end_changes_a_report(morphisms):
    rng = random.Random(7)
    changed = {"dom": 0, "cod": 0}
    for chi in morphisms:
        want = xmod.hypercover_report(chi)
        for side, xm in (("dom", chi.dom), ("cod", chi.cod)):
            _, src2, tgt2 = xmod.vertical_cells(xm)
            cell = rng.choice(sorted(tgt2))
            others = [g for g in xm.g.arrows if g != tgt2[cell]]
            if not others:
                continue
            moved = (src2, dict(tgt2, **{cell: rng.choice(others)}))
            got = vertical_report(chi, **{side + "_ends": moved})
            changed[side] += got != want
    assert changed["dom"] >= 1 and changed["cod"] >= 1


def test_the_legs_share_the_middle_vertical_groupoid(rng):
    gprime, left, right = cr.decompose_crossing(generators.random_crossing(rng))
    assert left.dom is right.dom is gprime
    vertical = xmod.vertical_groupoid(gprime)
    assert xmod.vertical_groupoid(gprime) is vertical
    assert xmod.xmod_to_2groupoid(gprime).vertical is vertical


# -- which route runs --------------------------------------------------------


class FullRoute(Exception):
    pass


@pytest.fixture
def no_full_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise FullRoute

    monkeypatch.setattr(xmod, "xmod_to_2groupoid", refuse)
    monkeypatch.setattr(twogpd, "check_2groupoid", refuse)
    monkeypatch.setattr(twogpd, "validate_strict_hom2", refuse)


def test_marked_inputs_build_no_2groupoid(no_full_route):
    for seed in range(10):
        for chi in strict_morphisms(seed):
            xmod.is_hypercover(chi)
            xmod.check_hypercover(chi)


def test_marked_inputs_build_no_vertical_groupoid(monkeypatch):
    morphisms = [chi for seed in range(10) for chi in strict_morphisms(seed)]
    verdicts = [xmod.is_hypercover(chi) for chi in morphisms]

    def refuse(*args, **kwargs):
        raise FullRoute

    monkeypatch.setattr(xmod, "vertical_groupoid", refuse)
    monkeypatch.setattr(xmod, "validate_groupoid_morphism", refuse)
    assert [xmod.is_hypercover(chi) for chi in morphisms] == verdicts
    for chi, verdict in zip(morphisms, verdicts):
        # check_hypercover builds the vertical functor only for a witness
        if verdict:
            with pytest.raises(FullRoute):
                xmod.check_hypercover(chi)
        else:
            assert xmod.check_hypercover(chi) == (xmod.hypercover_report(chi), None)
    assert True in verdicts and False in verdicts


def hand_built(xm):
    """A copy of xm made by hand, as a reader of another format might."""
    return xmod.CrossedModule(xm.g, xm.h, xm.boundary, xm.action)


def test_unmarked_inputs_take_the_full_route(no_full_route, sc2_pullback):
    pb, proj = sc2_pullback
    unmarked = [xmod.identity_xmorphism(pb), proj.then(xmod.identity_xmorphism(proj.cod)),
                xmod.StrictXMorphism(hand_built(pb), proj.cod, proj.omap, proj.lmap, proj.rmap)]
    for chi in unmarked:
        for check in (xmod.is_hypercover, xmod.check_hypercover):
            with pytest.raises(FullRoute):
                check(chi)


@pytest.fixture
def sc2_pullback():
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    return xmod.pullback_xmod(sc2, ["u", "v"], {"u": "*", "v": "*"})


def test_a_crossed_module_is_marked_on_validated_parts_only(sc2_pullback):
    pb, _ = sc2_pullback
    assert pb.validated
    raw = fingrpd.Groupoid(pb.g.objects, pb.g.arrows, pb.g.src, pb.g.tgt, pb.g.inv,
                           pb.g.unit, pb.g.comp)
    action = fingrpd.validate_action(raw, pb.h, pb.action.act)
    assert action.validated
    assert not xmod.validate_crossed_module(raw, pb.h, pb.boundary, action).validated
    # an action validated over another groupoid than the crossed module's
    assert not xmod.validate_crossed_module(pb.g, pb.h, pb.boundary, action).validated
    assert not hand_built(pb).validated


def test_an_unmarked_bad_morphism_raises_as_before(sc2_pullback):
    pb, proj = sc2_pullback
    g = proj.cod.g
    other = next(a for a in g.arrows if not g.is_unit(a))
    rmap = dict(proj.rmap, **{a: other for a, b in proj.rmap.items() if g.is_unit(b)})
    chi = xmod.StrictXMorphism(pb, proj.cod, proj.omap, proj.lmap, rmap)
    with pytest.raises(ValidationFailure) as want:
        xmod.hom2_from_xmorphism(chi)
    for check in (xmod.is_hypercover, xmod.check_hypercover):
        with pytest.raises(ValidationFailure) as got:
            check(chi)
        assert described(got.value.violations) == described(want.value.violations)


# -- the functor certificate -------------------------------------------------


def functors(seed):
    """Validated functors whose domains keep their generators."""
    out = []
    for chi in strict_morphisms(seed)[:3]:
        out += [chi.left(), chi.right()]
        dom, cod = xmod.vertical_groupoid(chi.dom), xmod.vertical_groupoid(chi.cod)
        m2 = {cell: fingrpd.pair(chi.lmap[h], chi.rmap[g]) for cell, (h, g) in dom.parts.items()}
        out.append(fingrpd.GroupoidMorphism(dom, cod, chi.rmap, m2))
    for f in out:
        assert f.dom.validated and f.cod.validated and f.dom.gens() is not None
    return out


def corruptions(f, rng):
    """Single-entry corruptions of f's arrow map: each arrow in turn sent
    to another arrow with the same ends, when there is one."""
    for a in f.dom.arrows:
        b = f.amap[a]
        others = [c for c in f.cod.arrows_from(f.cod.src[b])
                  if f.cod.tgt[c] == f.cod.tgt[b] and c != b]
        if others:
            yield fingrpd.GroupoidMorphism(f.dom, f.cod, f.omap,
                                           dict(f.amap, **{a: rng.choice(others)}))


def test_the_functor_certificate_matches_the_sweep(monkeypatch):
    routes = []
    uncomposed = fingrpd._uncomposed

    def spy(f, pairs):
        routes.append(isinstance(pairs, list))
        return uncomposed(f, pairs)

    monkeypatch.setattr(fingrpd, "_uncomposed", spy)
    rng = random.Random(3)
    checked = caught = 0
    for seed in range(30):
        for f in functors(seed):
            assert fingrpd.check_groupoid_morphism(f) == []
            for bad in corruptions(f, rng):
                routes.clear()
                got = described(fingrpd.check_groupoid_morphism(bad))
                assert got == described(swept_violations(bad))
                checked += 1
                caught += routes[:1] == [True] and bool(got)
    assert checked >= 1000
    # the certificate ran and found the corruption, and the sweep listed it
    assert caught >= 1000


def z2_squared():
    elements = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return fingrpd.group_as_groupoid(
        elements, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2), lambda a: a,
        (0, 0), prefix="v")


def test_a_dropped_generator_misses_a_planted_failure():
    # s1 -> 2 and s2 -> 1 in Z/4, and s2 s1 -> 3: composites with s1 on the
    # right are preserved, but s2 s2 = 1 goes to 0, not to 1 + 1
    dom, cod = z2_squared(), fingrpd.cyclic_groupoid(4)
    s1, s2 = dom.gens()
    amap = {dom.unit["*"]: "c0", s1: "c2", s2: "c1", dom.comp[(s2, s1)]: "c3"}
    planted = fingrpd.GroupoidMorphism(dom, cod, {"*": "*"}, amap)
    found = described(fingrpd.check_groupoid_morphism(planted))
    assert found == described(swept_violations(planted))
    assert ("NotFunctorial", (s2, s2), "composition not preserved") in found
    dom._gens = [s1]
    assert fingrpd.check_groupoid_morphism(planted) == []
