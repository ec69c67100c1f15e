import random

import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import extensions, fingrpd, generators, util, xmod
from xmodforge.errors import (EmptyFiberedProduct, NotAHypercover,
                              ValidationFailure)
from xmodforge.fingrpd import cyclic_groupoid, search_groupoid_iso, unpair
from xmodforge.util import pair as mkpair


@pytest.fixture
def sc2(c2):
    return xmod.inertia_xmod(c2)


@pytest.fixture
def o_sc2(sc2):
    return cr.trivial_xext(sc2)


def z4_crossed_extension():
    """The Z/2 -> Z/4 -> Z/2 extension as an endocrossing of the module
    crossed module (A -> G)."""
    ext = extensions.cocycle_extension("Z2", "Z2", 1)
    exm = xmod.extension_xmod(ext)
    ident = {x: x for x in ext.g.objects}
    a1 = {("*", a): ext.iota[a] for a in ext.a.arrows}
    a2 = {ee: ext.pi[ee] for ee in ext.e.arrows}
    return ext, cr.validate_crossing(
        exm, exm, ext.e, ident, ident, a1, dict(a2), dict(a1), dict(a2), extension=True)


@pytest.mark.parametrize("leg", ["tau", "sigma", "a1", "a2", "b1", "b2"])
def test_a_stray_key_in_a_crossing_table_is_a_violation(leg):
    # a key off the table's domain fails the crossing as what it is; a
    # stray b1 entry was read as a b1 that is not injective (CR3Failure)
    c = generators.random_crossing(random.Random(3))
    key = (next(iter(c.m.objects)), "ghost") if leg in ("a1", "b1") else "ghost"
    tables = {name: getattr(c, name) for name in ("tau", "sigma", "a1", "a2", "b1", "b2")}
    tables[leg] = {**tables[leg], key: next(iter(tables[leg].values()))}
    bad = cr.Crossing(c.src, c.dst, c.m, *tables.values())
    assert cr.check_crossing(c) == []
    assert [(v.code, v.witness) for v in cr.check_crossing(bad)] == \
        [("SpuriousEntry", (leg, key))]


def test_trivial_xext_valid(o_sc2):
    assert len(o_sc2.m.arrows) == 4
    assert cr.check_crossing(o_sc2, prime=True) == []


def test_morita_bibundle_is_crossed_extension(c2):
    # a Morita equivalence packaged as a crossed extension of unit modules
    u = xmod.unit_xmod(c2)
    ident = {"*": "*"}
    a1 = {("*", u.h.unit["*"]): c2.unit["*"]}
    a2 = {g: g for g in c2.arrows}
    m = cr.validate_crossing(u, u, c2, ident, ident, a1, a2, dict(a1), dict(a2),
                             extension=True)
    assert m.is_extension


def test_collapsed_b1_reports_cr3(o_sc2, sc2):
    bad_b1 = {k: o_sc2.m.unit[k[0]] for k in o_sc2.b1}
    c = cr.Crossing(o_sc2.src, o_sc2.dst, o_sc2.m, o_sc2.tau, o_sc2.sigma,
                    o_sc2.a1, o_sc2.a2, bad_b1, o_sc2.b2)
    violations = cr.check_crossing(c)
    assert any(v.code in ("CR3Failure", "BadLeg", "SquareFailure")
               for v in violations)
    # the specific CR3 injectivity failure shows up once legs survive
    codes = {v.code for v in violations}
    assert codes


def test_crossing_from_strict_identity_equals_trivial(sc2, o_sc2):
    m = cr.crossing_from_strict(xmod.identity_xmorphism(sc2))
    assert set(m.m.arrows) == set(o_sc2.m.arrows)
    assert m.a1 == o_sc2.a1 and m.b2 == o_sc2.b2


def test_crossing_from_extension_morphism():
    # chi_up: (A -> E) => (G^0 -> G) for the Z/4 extension
    ext = extensions.cocycle_extension("Z2", "Z2", 1)
    e, a = ext.e, ext.a
    act = {}
    for ee in e.arrows:
        for aa in a.fiber("*"):
            conj = e.comp[(e.comp[(e.inv[ee], ext.iota[aa])], ee)]
            act[(ee, aa)] = {v: k for k, v in ext.iota.items()}[conj]
    mid = xmod.validate_crossed_module(
        e, a, {aa: ext.iota[aa] for aa in a.arrows},
        fingrpd.validate_action(e, a, act))
    target = xmod.unit_xmod(ext.g)
    chi = xmod.validate_strict_xmorphism(
        mid, target, {"*": "*"},
        {aa: target.h.unit["*"] for aa in a.arrows}, dict(ext.pi))
    m = cr.crossing_from_strict(chi)
    assert cr.check_crossing(m) == []


def test_crossing_from_strict_general_case_zchi(sc2):
    # different unit spaces: pullback projection 𝔊[Z] -> 𝔊
    pb, proj = xmod.pullback_xmod(sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    m = cr.crossing_from_strict(proj)
    # Z_chi = Z x_{chi,t} G: |{(z,g): t(g)=*}| = 2*2 = 4
    assert len(m.m.objects) == 4
    assert cr.check_crossing(m) == []


def test_xext_from_hypercover_identity_is_trivial(sc2, o_sc2):
    m = cr.xext_from_hypercover(xmod.identity_xmorphism(sc2))
    assert m.is_extension
    assert set(m.m.arrows) == set(o_sc2.m.arrows)


def test_xext_from_hypercover_pullback(sc2):
    pb, proj = xmod.pullback_xmod(sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    m = cr.xext_from_hypercover(proj)
    assert m.is_extension


def test_xext_from_non_hypercover_raises(sc2):
    extra = fingrpd.disjoint_union(sc2.g, fingrpd.unit_groupoid(["y"]))
    big = xmod.inertia_xmod(extra)
    chi = xmod.validate_strict_xmorphism(
        sc2, big, {"*": mkpair("A", "*")},
        {h: mkpair("A", h) for h in sc2.h.arrows},
        {g: mkpair("A", g) for g in sc2.g.arrows})
    with pytest.raises(NotAHypercover):
        cr.xext_from_hypercover(chi)


def test_decompose_trivial_xext(o_sc2):
    gprime, chl, chr_ = cr.decompose_crossing(o_sc2)
    assert xmod.is_hypercover(chl)
    assert xmod.is_hypercover(chr_)  # crossed extension: both legs


def test_decompose_left_has_section(o_sc2, sc2):
    # "identity up to iso": chi_left of O splits by h -> (h, 1)
    gprime, chl, _ = cr.decompose_crossing(o_sc2)
    sect_l = {h: mkpair("*", h, sc2.h.unit["*"]) for h in sc2.h.arrows}
    for h in sc2.h.arrows:
        assert chl.lmap[sect_l[h]] == h


def test_diamond_trivial_collapses(o_sc2, sc2):
    d = cr.diamond(o_sc2, o_sc2)
    assert d.is_extension
    # canonical map [m,(h,g)] -> b1(h) m realizes O <> O ~ O
    iso = search_groupoid_iso(d.m, o_sc2.m)
    assert iso is not None


def test_diamond_extension_corollary_z4():
    ext, m = z4_crossed_extension()
    d = cr.diamond(m, cr.mbar(m))
    assert len(d.m.arrows) == 4
    # A x| G (trivial action) is the Klein groupoid
    klein = fingrpd.semidirect_product(fingrpd.trivial_action(
        cyclic_groupoid(2), fingrpd.as_group_bundle(cyclic_groupoid(2, prefix="h"))))
    assert search_groupoid_iso(d.m, klein) is not None


def test_diamond_empty_middle(sc2):
    two = fingrpd.unit_groupoid(["x", "y"])
    big = xmod.unit_xmod(two)
    ox = cr.pullback_crossing(cr.trivial_xext(big), ["u"], {"u": "x"})
    oy = cr.pullback_crossing(cr.trivial_xext(big), ["v"], {"v": "y"})
    with pytest.raises(EmptyFiberedProduct):
        cr.diamond(ox, oy)


def test_zigzag_identity(sc2, o_sc2):
    z = cr.ZigZag([sc2, sc2], [xmod.identity_xmorphism(sc2)], ["fwd"])
    m = cr.zigzag_to_xext(z)
    assert set(m.m.arrows) == set(o_sc2.m.arrows)


def test_zigzag_pullback_pair(sc2):
    _, proj_p = xmod.pullback_xmod(sc2, ["p0", "p1"], {"p0": "*", "p1": "*"})
    _, proj_q = xmod.pullback_xmod(sc2, ["q0"], {"q0": "*"})
    z = cr.ZigZag([proj_p.dom, sc2, proj_q.dom],
                  [proj_p, proj_q], ["fwd", "bwd"])
    m = cr.zigzag_to_xext(z)
    assert m.is_extension
    assert cr.check_crossing(m, prime=True) == []


def test_zigzag_checks_its_directions_and_ends(sc2):
    _, proj = xmod.pullback_xmod(sc2, ["p0", "p1"], {"p0": "*", "p1": "*"})
    c3 = xmod.inertia_xmod(cyclic_groupoid(3))
    for modules, dirs, code in [([proj.dom, sc2], ["sideways"], "BadZigZagDirection"),
                                ([c3, sc2], ["fwd"], "BadZigZagArrow"),
                                ([proj.dom, sc2], ["bwd"], "BadZigZagArrow")]:
        with pytest.raises(ValidationFailure) as e:
            cr.ZigZag(modules, [proj], dirs)
        assert e.value.codes == [code]
    assert cr.ZigZag([sc2, proj.dom], [proj], ["bwd"]).directions == ["bwd"]


def test_zigzag_rebracketing(sc2):
    chi = xmod.identity_xmorphism(sc2)
    z3 = cr.ZigZag([sc2] * 4, [chi] * 3, ["fwd"] * 3)
    left = cr.zigzag_to_xext(z3)
    e1 = cr.crossing_from_strict(chi, as_extension=True)
    right = cr.diamond(e1, cr.diamond(e1, e1))
    assert search_groupoid_iso(left.m, right.m) is not None


def test_crossed_semidirect_both_sides(o_sc2, sc2):
    g1, _ = cr.crossed_semidirect(o_sc2, "H1")
    g2, _ = cr.crossed_semidirect(o_sc2, "H2")
    hg = fingrpd.semidirect_product(sc2.action)
    assert search_groupoid_iso(g1, hg) is not None
    assert search_groupoid_iso(g2, hg) is not None


def test_crossed_semidirect_trivial_h2(c2):
    # crossing with trivial H2: quotient = plain semidirect
    u = xmod.unit_xmod(c2)
    m = cr.trivial_xext(u)
    g1, _ = cr.crossed_semidirect(m, "H1")
    assert len(g1.arrows) == len(c2.arrows)


def test_crossed_semidirect_iso_lemma(o_sc2):
    gpd, cls, sd, iso = cr.crossed_semidirect_iso(o_sc2, "H1")
    assert len(gpd.arrows) == len(sd.arrows)


def test_mbar_double_flip(o_sc2):
    m2 = cr.mbar(cr.mbar(o_sc2))
    assert m2.a1 == o_sc2.a1 and m2.b2 == o_sc2.b2


def test_mbar_extension_derived():
    ext, m = z4_crossed_extension()
    mb = cr.mbar(m)
    assert mb.is_extension


def test_verify_m_mbar_trivial(o_sc2):
    phi, psi, d1, d2, wit = cr.verify_m_mbar(o_sc2)
    assert wit is not None


def test_verify_m_mbar_z4():
    ext, m = z4_crossed_extension()
    phi, psi, d1, d2, wit = cr.verify_m_mbar(m)
    assert len(d1.m.arrows) == 4 and len(d2.m.arrows) == 4
    assert wit is not None


def test_pullback_crossing_identity(o_sc2):
    p = cr.pullback_crossing(o_sc2, o_sc2.m.objects,
                             {x: x for x in o_sc2.m.objects})
    assert p.is_extension


def test_pullback_crossing_two_point_cover(o_sc2):
    p = cr.pullback_crossing(o_sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    assert cr.check_crossing(p, prime=True) == []


def test_pullback_crossing_non_surjective_keeps_extension():
    # extension status survives pullback along any map, surjective or not
    two = fingrpd.unit_groupoid(["x", "y"])
    o = cr.trivial_xext(xmod.unit_xmod(two))
    p = cr.pullback_crossing(o, ["u"], {"u": "x"})
    assert p.is_extension
    assert cr.check_crossing(p, prime=True) == []


def test_extension_to_crossing_z4():
    ext = extensions.cocycle_extension("Z2", "Z2", 1)
    m = cr.extension_to_crossing(ext)
    assert cr.check_crossing(m) == []
    # target is (A -> Aut A) with Aut(Z/2) trivial: one object group target
    assert len(m.dst.g.arrows) == 1


def test_extension_to_crossing_trivial_class():
    ext = extensions.cocycle_extension("Z2", "Z2", 0)
    m = cr.extension_to_crossing(ext)
    assert cr.check_crossing(m) == []


def test_crossing_to_extension_roundtrip():
    ext = extensions.cocycle_extension("Z2", "Z2", 1)
    m = cr.extension_to_crossing(ext)
    back = cr.crossing_to_extension(m)
    # same Morita class as the original: witness bibundle via the iso search
    assert len(back.e.arrows) == 4
    iso = extensions.extension_equivalent(_relabel_to_plain(back, ext), ext)
    assert iso is not None


def _relabel_to_plain(back, ref):
    """Massage the recovered extension onto the reference label sets via the
    unique unit-space identification, keeping group structure."""
    from xmodforge.fingrpd import GroupoidMorphism, validate_groupoid_morphism

    # both are one-object extensions of the same A by the same G; rename
    # A-labels through iota and compare within extension_equivalent by
    # building a merged extension over ref's A and G.
    amap_a = {}
    for a_ref in ref.a.arrows:
        # match by order in the cyclic group: a_ref "a<i>" pairs with the
        # recovered A-element whose iota has the same image order
        amap_a[a_ref] = a_ref
    # build an extension isomorphic-on-the-nose: reuse back with A/G of ref
    iota = {}
    ai = {v: k for k, v in back.iota.items()}
    # identify back.a with ref.a by the unique group iso respecting nothing
    # else (|A|=2 so identity works)
    order = sorted(back.a.arrows)
    ref_order = sorted(ref.a.arrows)
    rel = dict(zip(order, ref_order))
    iota = {rel[k]: v for k, v in back.iota.items()}
    pi = {}
    for e_arrow, g_img in back.pi.items():
        # g_img is a pullback triple label over the unit space; strip it
        _, g, _ = util.unpair(g_img, 3)
        pi[e_arrow] = g
    return xmod.validate_extension(ref.a, back.e, ref.g, iota, pi)


def test_images_commute_property(o_sc2):
    assert cr.images_commute(o_sc2) == []


def test_cr3prime_reassertion_for_hypercover_xext(sc2):
    pb, proj = xmod.pullback_xmod(sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    m = cr.xext_from_hypercover(proj)
    # image of a1 is exactly the b2-kernel
    a1_img = set(m.a1.values())
    kernel = {mm for mm in m.m.arrows
              if m.dst.g.is_unit(m.b2[mm]) and m.m.src[mm] == m.m.tgt[mm]}
    assert a1_img == kernel


def test_generated_crossings_decompose_hypercover(rng):
    from xmodforge.generators import random_crossing
    for _ in range(6):
        m = random_crossing(rng)
        gprime, chl, chr_ = cr.decompose_crossing(m)
        assert xmod.is_hypercover(chl)
        if m.is_extension:
            assert xmod.is_hypercover(chr_)


def test_generated_diamond_closure(rng):
    from xmodforge.generators import random_crossed_extension
    for _ in range(6):
        m = random_crossed_extension(rng)
        d = cr.diamond(m, cr.mbar(m))
        assert d.is_extension
        assert cr.check_crossing(d, prime=True) == []
