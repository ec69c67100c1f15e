import random

import pytest

from xmodforge import bibundle as bb
from xmodforge import extensions, fingrpd, generators, twogpd, xmod
from xmodforge.errors import (CoherenceFailure, IllDefinedAction, NotAbelian, NotComposable,
                              UnitSpaceMismatch, ValidationFailure)
from xmodforge.fingrpd import (as_group_bundle, cyclic_groupoid, pair,
                               trivial_action, trivial_bundle, unit_groupoid,
                               unpair, validate_action)
from xmodforge.generators import s3_groupoid
from xmodforge.util import pair as mkpair


@pytest.fixture
def sc2(c2):
    return xmod.inertia_xmod(c2)


def test_sc2_valid(sc2):
    assert len(sc2.h.arrows) == 2
    assert xmod.check_crossed_module(sc2) == []


def test_unit_xmod_valid(pair2):
    xm = xmod.unit_xmod(pair2)
    assert len(xm.h.arrows) == len(pair2.objects)


def test_axiom2_failure_on_nonabelian_fiber():
    s3 = s3_groupoid()
    bundle = as_group_bundle(s3)
    # boundary collapsed to the constant unit map: axiom 2 demands the
    # conjugation action be trivial, which fails in a nonabelian fiber
    boundary = {h: s3.unit["*"] for h in s3.arrows}
    _, conj = fingrpd.inertia(s3)
    with pytest.raises(ValidationFailure) as e:
        xmod.validate_crossed_module(s3, bundle, boundary, conj)
    assert any(v.code == "Axiom2Failure" for v in e.value.violations)


def test_module_xmod_trivial_z2_over_pair2(pair2):
    bundle = trivial_bundle(sorted(pair2.objects), cyclic_groupoid(2, prefix="a"))
    xm = xmod.module_xmod(pair2, bundle, trivial_action(pair2, bundle))
    assert xmod.check_crossed_module(xm) == []


def test_module_xmod_z3_inversion_action(c2):
    bundle = trivial_bundle(["*"], cyclic_groupoid(3, prefix="a"))

    def carry(arrow, h):
        _, a = unpair(h)
        if c2.is_unit(arrow):
            return h
        k = int(a[1:])
        return mkpair("*", "a" + str((-k) % 3))

    action = fingrpd.transport_action(c2, bundle, carry)
    xm = xmod.module_xmod(c2, bundle, action)
    assert xmod.check_crossed_module(xm) == []


def test_module_xmod_nonabelian_rejected():
    s3 = s3_groupoid()
    bundle = as_group_bundle(s3)
    base = unit_groupoid(["*"])
    with pytest.raises(NotAbelian):
        xmod.module_xmod(base, bundle, trivial_action(base, bundle))


def test_ad_xmod_z2():
    bundle = as_group_bundle(cyclic_groupoid(2))
    xm = xmod.ad_xmod(bundle)
    assert len(xm.g.arrows) == 1  # Aut(Z/2) trivial


def test_ad_xmod_s3():
    bundle = as_group_bundle(s3_groupoid())
    xm = xmod.ad_xmod(bundle)
    assert len(xm.g.arrows) == 6  # |Aut(S3)| = 6
    assert xmod.check_crossed_module(xm) == []


def test_ad_xmod_empty():
    bundle = fingrpd.unit_bundle([])
    xm = xmod.ad_xmod(bundle)
    assert len(xm.g.arrows) == 0


def test_extension_xmod_z4():
    ext = extensions.cocycle_extension("Z2", "Z2", 1)  # Z/2 -> Z/4 -> Z/2
    xm = xmod.extension_xmod(ext)
    # conjugation in abelian Z/4 is trivial
    for (g, a), out in xm.action.act.items():
        assert out == a


def test_extension_xmod_klein():
    ext = extensions.cocycle_extension("Z2", "Z2", 0)
    xm = xmod.extension_xmod(ext)
    assert xmod.check_crossed_module(xm) == []


def test_extension_xmod_s3_inversion():
    # Z/3 >-> S3 ->> Z/2 with the inversion action
    s3 = s3_groupoid()
    z3 = as_group_bundle(cyclic_groupoid(3, prefix="a"))
    z2 = cyclic_groupoid(2, prefix="g")
    cyc = {"a0": "s012", "a1": "s120", "a2": "s201"}
    even = set(cyc.values())
    iota = dict(cyc)
    pi = {e: ("g0" if e in even else "g1") for e in s3.arrows}
    ext = xmod.validate_extension(z3, s3, z2, iota, pi)
    xm = xmod.extension_xmod(ext)
    # oracle: conjugating the 3-cycle by any transposition inverts it
    assert xm.act("g1", "a1") == "a2"
    assert xm.act("g1", "a2") == "a1"
    assert xm.act("g0", "a1") == "a1"


def test_ill_defined_action_on_nonabelian_kernel():
    # A = S3 inside S3 x Z2 -> Z2: lifts differ by S3-conjugation
    s3 = s3_groupoid()
    z2 = cyclic_groupoid(2, prefix="g")
    e_arrows = [mkpair(a, g) for a in s3.arrows for g in z2.arrows]
    src = {e: "*" for e in e_arrows}
    comp = {}
    for a in s3.arrows:
        for g in z2.arrows:
            for b in s3.arrows:
                for h in z2.arrows:
                    comp[(mkpair(a, g), mkpair(b, h))] = \
                        mkpair(s3.comp[(a, b)], z2.comp[(g, h)])
    inv = {mkpair(a, g): mkpair(s3.inv[a], z2.inv[g])
           for a in s3.arrows for g in z2.arrows}
    e = fingrpd.validate_groupoid(["*"], e_arrows, src, dict(src), inv,
                                  {"*": mkpair(s3.unit["*"], "g0")}, comp)
    iota = {a: mkpair(a, "g0") for a in s3.arrows}
    pi = {mkpair(a, g): g for a in s3.arrows for g in z2.arrows}
    ext = xmod.validate_extension(as_group_bundle(s3), e, z2, iota, pi)
    with pytest.raises(IllDefinedAction):
        xmod.extension_xmod(ext, require_abelian=False)
    with pytest.raises(NotAbelian):
        xmod.extension_xmod(ext)


def test_xmod_to_2groupoid_sc2(sc2):
    tg = xmod.xmod_to_2groupoid(sc2)
    assert len(tg.g2) == 4
    assert twogpd.check_2groupoid(tg) == []


def test_xmod_to_2groupoid_trivial_bundle(pair2):
    tg = xmod.xmod_to_2groupoid(xmod.unit_xmod(pair2))
    ref = twogpd.from_groupoid(pair2)
    assert len(tg.g2) == len(ref.g2)
    # canonical relabeling (1_x, g) -> 1-cell g matches from_groupoid
    for cell in tg.g2:
        h, g = unpair(cell)
        assert tg.s2[cell] == g and tg.t2[cell] == g


def test_xmod_to_2groupoid_z2_identity_module():
    xm = xmod.identity_xmod(cyclic_groupoid(2))
    tg = xmod.xmod_to_2groupoid(xm)
    assert (len(tg.g0), len(tg.g1), len(tg.g2)) == (1, 2, 4)


def test_twogpd_to_xmod_from_groupoid(pair2):
    xm = xmod.twogpd_to_xmod(twogpd.from_groupoid(pair2))
    assert all(xm.h.is_unit(h) for h in xm.h.arrows)
    assert len(xm.h.arrows) == len(pair2.objects)  # trivial bundle


def test_twogpd_to_xmod_roundtrip_sc2(sc2):
    tg = xmod.xmod_to_2groupoid(sc2)
    back = xmod.twogpd_to_xmod(tg)
    assert len(back.h.arrows) == len(sc2.h.arrows)
    phi, psi = xmod.roundtrip_iso(tg)
    assert len(phi.m2) == 4


def test_twogpd_to_xmod_cover_is_unit_bundle(pair2):
    tg = twogpd.cover_2groupoid(pair2, {"1": ["a"], "2": ["a", "b"]})
    xm = xmod.twogpd_to_xmod(tg)
    assert len(xm.h.arrows) == len(tg.g0)  # unit bundle over 3 objects
    for h in xm.h.arrows:
        assert xm.h.is_unit(h)


def test_roundtrip_iso_trivial(pair2):
    tg = twogpd.from_groupoid(pair2)
    phi, psi = xmod.roundtrip_iso(tg)
    for b in tg.g2:
        assert psi.m2[phi.m2[b]] == b


def test_roundtrip_requires_strict_bigons(pair2):
    tg = twogpd.cover_2groupoid(pair2, {"1": ["a"], "2": ["a", "b"]})
    with pytest.raises(ValidationFailure):
        xmod.roundtrip_iso(tg)


def test_semidirect_of_morphism_identity(sc2):
    sd, _ = xmod.semidirect_of_morphism(xmod.identity_xmorphism(sc2))
    assert len(sd.arrows) == 4


def test_semidirect_of_morphism_to_trivial(c2):
    # collapse needs a trivial boundary upstairs: use the Z/2 module over C2
    bundle = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    src = xmod.module_xmod(c2, bundle, trivial_action(c2, bundle))
    target = xmod.unit_xmod(c2)
    chi = xmod.validate_strict_xmorphism(
        src, target, {"*": "*"},
        {h: target.h.unit["*"] for h in src.h.arrows},
        {g: g for g in c2.arrows})
    sd, _ = xmod.semidirect_of_morphism(chi)
    assert len(sd.arrows) == len(c2.arrows)


def test_semidirect_of_morphism_mismatched_bases(sc2, pair2):
    other = xmod.unit_xmod(pair2)
    chi = xmod.StrictXMorphism(sc2, other, {"*": "a"}, {}, {})
    with pytest.raises(UnitSpaceMismatch):
        xmod.semidirect_of_morphism(chi)


def test_pullback_xmod_identity(sc2):
    sigma = {x: x for x in sc2.g.objects}
    pb, proj = xmod.pullback_xmod(sc2, sc2.g.objects, sigma)
    assert len(pb.g.arrows) == len(sc2.g.arrows)
    assert len(pb.h.arrows) == len(sc2.h.arrows)


def test_pullback_xmod_doubled_fibers(sc2):
    pb, proj = xmod.pullback_xmod(sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    assert len(pb.h.arrows) == 2 * len(sc2.h.arrows)
    assert len(pb.g.arrows) == 4 * len(sc2.g.arrows)


def test_pullback_projection_is_hypercover(sc2):
    _, proj = xmod.pullback_xmod(sc2, ["z0", "z1"], {"z0": "*", "z1": "*"})
    assert xmod.is_hypercover(proj)


def test_identity_is_hypercover_with_witness(sc2):
    report, witness = xmod.check_hypercover(xmod.identity_xmorphism(sc2))
    assert report["WE1"] and report["WE2"] and report["WE3"]
    assert witness is not None


def test_non_surjective_base_map_fails_we1(sc2, pair2):
    # include SC2 into SC2 + disconnected extra object
    extra = fingrpd.disjoint_union(sc2.g, unit_groupoid(["y"]))
    big = xmod.inertia_xmod(extra)
    omap = {"*": mkpair("A", "*")}
    lmap = {h: mkpair("A", h) for h in sc2.h.arrows}
    rmap = {g: mkpair("A", g) for g in sc2.g.arrows}
    chi = xmod.validate_strict_xmorphism(sc2, big, omap, lmap, rmap)
    report, _ = xmod.check_hypercover(chi)
    assert report["WE1"] is False


def test_projective_product_identity_bibundle(sc2):
    zb = bb.identity_bibundle(sc2.g)
    prod, pr1, pr2 = xmod.projective_product(sc2, sc2, zb)
    # quadruple count: (g1,p1,p2,g2) with p1 g2 = g1 p2 — g2 determined
    assert len(prod.g.arrows) == 8
    assert len(prod.g.objects) == 2
    # explicit iso onto the pullback of SC2 along tau = t
    pb, _ = xmod.pullback_xmod(sc2, zb.space, zb.lmom)
    amap = {}
    for a in prod.g.arrows:
        g1, p1, p2, g2 = unpair(a)
        amap[a] = mkpair(p1, g1, p2)
    fingrpd.validate_groupoid_morphism(prod.g, pb.g,
                                       {p: p for p in prod.g.objects}, amap)
    assert xmod.is_hypercover(pr1)


def test_projective_product_naturality(sc2, c2):
    # translation by the central loop is a nontrivial morphism of Morita
    # equivalences P -> P; it induces a strict morphism of the products
    zb = bb.identity_bibundle(sc2.g)
    f = {z: c2.comp[(z, "c1")] for z in zb.space}
    for z in zb.space:  # equivariance of f in both actions
        for m in c2.arrows_from(zb.lmom[z]):
            assert f[zb.lact[(m, z)]] == zb.lact[(m, f[z])]
        for n in c2.arrows_to(zb.rmom[z]):
            assert f[zb.ract[(z, n)]] == zb.ract[(f[z], n)]
    prod, _, _ = xmod.projective_product(sc2, sc2, zb)
    amap = {}
    for a in prod.g.arrows:
        g1, p1, p2, g2 = unpair(a)
        amap[a] = mkpair(g1, f[p1], f[p2], g2)
    fingrpd.validate_groupoid_morphism(prod.g, prod.g,
                                       {p: f[p] for p in prod.g.objects}, amap)


def test_crossed_homomorphism_units(sc2):
    lam = {g: sc2.h.unit[sc2.g.tgt[g]] for g in sc2.g.arrows}
    phi = fingrpd.identity_morphism(sc2.g)
    assert xmod.check_crossed_homomorphism(sc2, sc2.g, phi, lam) == []


def test_crossed_homomorphism_identity_on_sc2(sc2):
    # lambda = id: SG -> SG is a crossed homomorphism for abelian isotropy
    lam = {g: g for g in sc2.g.arrows}
    phi = fingrpd.identity_morphism(sc2.g)
    assert xmod.check_crossed_homomorphism(sc2, sc2.g, phi, lam) == []


def test_crossed_homomorphism_corrupted(sc2):
    lam = {g: sc2.h.unit["*"] for g in sc2.g.arrows}
    lam["c1"] = "c1"
    lam["c0"] = "c0"
    # lambda(c1 c1) = lambda(c0) = c0 but lambda(c1) lambda(c1)^... = c1*c1 = c0: ok
    # corrupt instead: lambda(c0) = c1 breaks multiplicativity at (c0, c0)
    lam = {"c0": "c1", "c1": "c0"}
    phi = fingrpd.identity_morphism(sc2.g)
    assert xmod.check_crossed_homomorphism(sc2, sc2.g, phi, lam)


def test_transformation_identity(sc2):
    chi = xmod.identity_xmorphism(sc2)
    tmap, lam = xmod.identity_transformation_xmod(chi)
    assert xmod.check_transformation_xmod(tmap, lam, chi, chi) == []


def test_transformation_nontrivial_T(sc2):
    # T(x) = the nonunit loop, lambda = units: valid chi => chi since
    # conjugation is trivial on the abelian inertia module
    chi = xmod.identity_xmorphism(sc2)
    tmap = {"*": "c1"}
    lam = {g: sc2.h.unit["*"] for g in sc2.g.arrows}
    assert xmod.check_transformation_xmod(tmap, lam, chi, chi) == []


def test_transformation_corrupted_T3(sc2):
    chi = xmod.identity_xmorphism(sc2)
    tmap, lam = xmod.identity_transformation_xmod(chi)
    lam = dict(lam)
    lam["c1"] = "c1"  # now T3: kappa(g)T = T d(lam) chi(g) fails at c1
    violations = xmod.check_transformation_xmod(tmap, lam, chi, chi)
    assert any(v.code == "T3Failure" for v in violations)


def test_transformation_bridge_roundtrip(sc2):
    chi = xmod.identity_xmorphism(sc2)
    tmap = {"*": "c1"}
    lam = {g: sc2.h.unit["*"] for g in sc2.g.arrows}
    assert xmod.check_transformation_xmod(tmap, lam, chi, chi) == []
    v = xmod.transformation_to_2gpd(tmap, lam, chi, chi)
    f, dom2, cod2 = xmod.hom2_from_xmorphism(chi)
    assert twogpd.check_transformation2(v, f, f) == []
    tmap2, lam2 = xmod.transformation_from_2gpd(v, f, f)
    assert tmap2 == tmap and lam2 == lam
    assert xmod.check_transformation_xmod(tmap2, lam2, chi, chi) == []


def test_transformation_bridge_needs_the_cell_parts(sc2):
    # the H-part of a bridge cell is read from the parts its builder kept;
    # a codomain built from raw tables has none, and the bridge refuses it
    chi = xmod.identity_xmorphism(sc2)
    tmap = {"*": "c1"}
    lam = {g: sc2.h.unit["*"] for g in sc2.g.arrows}
    v = xmod.transformation_to_2gpd(tmap, lam, chi, chi)
    f, _, cod2 = xmod.hom2_from_xmorphism(chi)
    raw = twogpd.TwoGroupoid(cod2.level1, cod2.vertical, dict(cod2.hcomp), cod2.hinv)
    assert raw.parts is None
    g = twogpd.StrictHom2(f.dom, raw, f.m0, f.m1, f.m2)
    with pytest.raises(CoherenceFailure):
        xmod.transformation_from_2gpd(v, g, g)


def test_semidirect_iso_under_transformation(sc2):
    chi = xmod.identity_xmorphism(sc2)
    tmap = {"*": "c1"}
    lam = {g: sc2.h.unit["*"] for g in sc2.g.arrows}
    iso = xmod.semidirect_iso_under_transformation(tmap, lam, chi, chi)
    assert len(set(iso.amap.values())) == len(iso.amap)


def test_hom2_functoriality(sc2):
    chi = xmod.identity_xmorphism(sc2)
    f, dom2, cod2 = xmod.hom2_from_xmorphism(chi)
    comp = chi.then(chi)
    g, _, _ = xmod.hom2_from_xmorphism(comp)
    assert g.m2 == {a: f.m2[f.m2[a]] for a in f.m2}


def test_then_needs_the_second_morphism_to_start_where_the_first_ends(sc2):
    sc3 = xmod.inertia_xmod(cyclic_groupoid(3))
    assert xmod.identity_xmorphism(sc2).then(xmod.identity_xmorphism(sc2)).validated
    for cod in (sc3, xmod.CrossedModule(sc2.g, sc2.h, sc2.boundary, sc2.action)):
        with pytest.raises(NotComposable):
            xmod.identity_xmorphism(sc2).then(xmod.identity_xmorphism(cod))


# -- oracle: M *_P N by scanning for the right arrow ------------------------------


def reference_projective_middle(m, n, p):
    """M *_P N: quadruples (m, p1, p2, n) with s(m)=lmom(p2),
    rmom(p1)=t(n), p1.n = m.p2, found by scanning n; unit space the carrier."""
    arrows, src, tgt, inv = [], {}, {}, {}
    for p1 in p.space:
        for p2 in p.space:
            for mm in m.hom(p.lmom[p2], p.lmom[p1]):
                lhs = p.lact[(mm, p2)]
                for nn in n.arrows_to(p.rmom[p1]):
                    if p.ract[(p1, nn)] == lhs:
                        q = mkpair(mm, p1, p2, nn)
                        arrows.append(q)
                        src[q], tgt[q] = p2, p1
                        inv[q] = mkpair(m.inv[mm], p2, p1, n.inv[nn])
    unit = {pz: mkpair(m.unit[p.lmom[pz]], pz, pz, n.unit[p.rmom[pz]])
            for pz in p.space}
    comp = {}
    by_tgt = {}
    for q in arrows:
        by_tgt.setdefault(tgt[q], []).append(q)
    for q in arrows:
        mm, p1, p2, nn = unpair(q)
        for q2 in by_tgt.get(p2, ()):
            mm2, _, p3, nn2 = unpair(q2)
            comp[(q, q2)] = mkpair(m.comp[(mm, mm2)], p1, p3, n.comp[(nn, nn2)])
    # the tables are compared, so the oracle skips check_groupoid
    return fingrpd.Groupoid(p.space, arrows, src, tgt, inv, unit, comp)


def _groupoid_tables(g):
    return (list(g.objects), list(g.arrows), g.src, g.tgt, g.inv, g.unit,
            list(g.comp.items()))


@pytest.fixture(scope="module")
def morita_bibundles():
    """Identity and Morita-witness bibundles of random groupoids, and the
    carriers of random exchangers and their inverses."""
    rng = random.Random(4)
    out = []
    for _ in range(5):
        g = generators.random_groupoid(rng)
        out += [bb.identity_bibundle(g), bb.morita_witness(g, g)]
    erng = random.Random(9)
    while len(out) < 24:
        p = generators.random_exchanger(erng).p
        out += [p, bb.inverse_bibundle(p)]
    return out


def test_projective_groupoid_matches_the_scan(morita_bibundles):
    multi = 0
    for zb in morita_bibundles:
        assert bb.is_morita(zb)[0]
        want = _groupoid_tables(reference_projective_middle(zb.left, zb.right, zb))
        assert _groupoid_tables(bb.projective_groupoid(zb)) == want
        multi += len(zb.left.objects) > 1
    assert multi >= 4


def test_projective_product_reads_the_projective_groupoid(morita_bibundles):
    for zb in morita_bibundles[:8]:
        prod, _, _ = xmod.projective_product(
            xmod.unit_xmod(zb.left), xmod.unit_xmod(zb.right), zb)
        assert _groupoid_tables(prod.g) == \
            _groupoid_tables(reference_projective_middle(zb.left, zb.right, zb))
