"""The hypercover test reads WE1-WE3 off the cells of the two crossed
modules and their ends (xmod.vertical_cells): it builds no vertical
groupoid, no vertical functor, neither 2-groupoid and no StrictHom2, on
marked inputs and, once validated, on unmarked ones.  Its oracles here are
the report on the validated vertical groupoids and the full route, which
builds both strict 2-groupoids and the StrictHom2; a moved cell end shows
that the report reads the cell tables.  check_hypercover's witness is the
crossed extension the hypercover induces.  The functor check's generator
certificate is compared with the sweep on single-entry corruptions, and a
planted failure shows what a missing generator would let through."""

import random

import pytest

from xmodforge import crossing as cr
from xmodforge import fingrpd, generators, twogpd, xmod
from xmodforge.errors import ValidationFailure

from law_oracles import functor_violations as swept_violations


# -- the oracles -------------------------------------------------------------


def full_report(chi):
    """hypercover_report as the full route computes it: both 2-groupoids
    and the StrictHom2, validated."""
    return twogpd.check_weak_equivalence(xmod.hom2_from_xmorphism(chi)[0])


def described(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


# -- generated strict morphisms ---------------------------------------------


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
    out = [left, right, proj, xmod.identity_xmorphism(xm), proj2.then(proj), collapse(xm),
           left.then(collapse(left.cod))]
    assert all(chi.validated and chi.dom.validated and chi.cod.validated for chi in out)
    return out


@pytest.fixture(scope="module")
def morphisms():
    return [chi for seed in range(60) for chi in strict_morphisms(seed)]


def unmarked(chi):
    """chi rebuilt by hand on hand-built copies of its ends: no part but
    the groupoids and actions they share with chi's carries a mark."""
    dom = hand_built(chi.dom)
    cod = dom if chi.cod is chi.dom else hand_built(chi.cod)
    return xmod.StrictXMorphism(dom, cod, chi.omap, chi.lmap, chi.rmap)


def test_reports_match_the_full_route(morphisms):
    verdicts = []
    for chi in morphisms:
        report = xmod.hypercover_report(chi)
        assert report == full_report(chi)
        copy = unmarked(chi)
        assert not (copy.validated or copy.dom.validated or copy.cod.validated)
        assert xmod.hypercover_report(copy) == full_report(copy) == report
        verdicts.append(all(report.values()))
    assert len(verdicts) >= 300
    assert verdicts.count(False) >= 40


def test_every_hypercover_gets_its_crossed_extension(morphisms):
    witnessed = 0
    for chi in morphisms:
        report, witness = xmod.check_hypercover(chi)
        assert report == xmod.hypercover_report(chi)
        if not all(report.values()):
            assert witness is None
            continue
        assert witness.is_extension
        assert witness.src is chi.dom and witness.dst is chi.cod
        assert cr.check_crossing(witness, prime=True) == []
        witnessed += 1
    assert (witnessed, len(morphisms)) == (321, 420)


def test_xext_from_hypercover_reads_the_report_once(monkeypatch, sc2_pullback):
    _, proj = sc2_pullback
    reads = []
    report = twogpd.weak_equivalence_report

    def spy(*args):
        reads.append(args)
        return report(*args)

    monkeypatch.setattr(twogpd, "weak_equivalence_report", spy)
    ext = cr.xext_from_hypercover(proj)
    assert len(reads) == 1
    assert ext.src is proj.dom and ext.dst is proj.cod


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
        # the witness is the crossed extension, not the vertical functor's
        report, witness = xmod.check_hypercover(chi)
        assert report == xmod.hypercover_report(chi)
        assert (witness is not None) == verdict
    assert True in verdicts and False in verdicts


def hand_built(xm):
    """A copy of xm made by hand, as a reader of another format might."""
    return xmod.CrossedModule(xm.g, xm.h, xm.boundary, xm.action)


def raw_groupoid(g):
    """g's tables as a groupoid built by hand, with no mark."""
    return fingrpd.Groupoid(g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp)


def test_unmarked_inputs_are_validated_and_read_off_the_cells(no_full_route, sc2_pullback):
    # identity_xmorphism and then composites are validated when built; a
    # morphism out of a crossed module built by hand, over validated parts
    # or over a raw groupoid, bundle and action, is validated by the
    # hypercover test and takes the cells route, with its marked copy's
    # report, and its witness runs between the validated copies of its ends
    pb, proj = sc2_pullback
    ident = xmod.identity_xmorphism(pb)
    composite = proj.then(xmod.identity_xmorphism(proj.cod))
    assert ident.validated and composite.validated
    raw_g, raw_h = raw_groupoid(pb.g), raw_groupoid(pb.h)
    raw = xmod.CrossedModule(raw_g, raw_h, pb.boundary,
                             fingrpd.ActionByAutomorphisms(raw_g, raw_h, pb.action.act))
    cases = [(ident, ident), (composite, proj)]
    cases += [(xmod.StrictXMorphism(dom, proj.cod, proj.omap, proj.lmap, proj.rmap), proj)
              for dom in (hand_built(pb), raw)]
    for chi, copy in cases:
        want = xmod.hypercover_report(copy)
        assert xmod.hypercover_report(chi) == want and all(want.values())
        assert xmod.is_hypercover(chi)
        report, witness = xmod.check_hypercover(chi)
        assert report == want
        assert witness.dst is chi.cod and witness.src.validated
        assert witness.src is chi.dom or witness.src.boundary == chi.dom.boundary
        assert cr.check_crossing(witness, prime=True) == []


@pytest.fixture
def sc2_pullback():
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    return xmod.pullback_xmod(sc2, ["u", "v"], {"u": "*", "v": "*"})


def test_a_crossed_module_is_marked_on_validated_parts_only(sc2_pullback):
    pb, _ = sc2_pullback
    assert pb.validated
    raw = raw_groupoid(pb.g)
    action = fingrpd.validate_action(raw, pb.h, pb.action.act)
    assert action.validated
    assert not xmod.validate_crossed_module(raw, pb.h, pb.boundary, action).validated
    # an action validated over another groupoid than the crossed module's
    assert not xmod.validate_crossed_module(pb.g, pb.h, pb.boundary, action).validated
    assert not hand_built(pb).validated


def test_an_unmarked_bad_morphism_raises_the_validators_violations(sc2_pullback):
    # the hypercover test validates an unmarked input first, so a bad one
    # raises what validate_strict_xmorphism or validate_crossed_module
    # raises on it, not the 2-groupoid codes of the full route
    pb, proj = sc2_pullback
    g = proj.cod.g
    other = next(a for a in g.arrows if not g.is_unit(a))
    rmap = dict(proj.rmap, **{a: other for a, b in proj.rmap.items() if g.is_unit(b)})
    bad_morphism = (pb, proj.cod, proj.omap, proj.lmap, rmap)
    # a boundary that sends the non-units of H to arrows off their point
    leave = {x: next(a for a in pb.g.arrows_from(x) if pb.g.tgt[a] != x) for x in pb.g.objects}
    boundary = {hh: b if pb.h.is_unit(hh) else leave[pb.h.src[hh]]
                for hh, b in pb.boundary.items()}
    bad_xmod = (pb.g, pb.h, boundary, pb.action)
    for validate, args, chi in (
            (xmod.validate_strict_xmorphism, bad_morphism,
             xmod.StrictXMorphism(*bad_morphism)),
            (xmod.validate_crossed_module, bad_xmod,
             xmod.StrictXMorphism(xmod.CrossedModule(*bad_xmod), proj.cod,
                                  proj.omap, proj.lmap, proj.rmap))):
        with pytest.raises(ValidationFailure) as want:
            validate(*args)
        assert want.value.violations
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
