"""Acceptance harness: the ten primary criteria, each run at its stated
(exact) tolerance, printing one pass/fail line with its runtime."""

import os
import random
import time

import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge import extensions, fingrpd, twogpd, xmod
from xmodforge.fingrpd import (cyclic_groupoid, pair_groupoid,
                               search_groupoid_iso, trivial_action,
                               trivial_bundle, transport_action, unpair)
from xmodforge.generators import (random_cover, random_crossed_extension,
                                  random_crossed_module, random_crossing,
                                  random_exchanger, random_groupoid)
from xmodforge.util import pair as mkpair

SEED = int(os.environ.get("XMODFORGE_SEED", "20260810"))


def criterion(num, label, budget_s):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - t0
                print(f"[PASS] criterion {num}: {label} "
                      f"({elapsed:.2f}s / budget {budget_s}s)")
            except Exception:
                elapsed = time.perf_counter() - t0
                print(f"[FAIL] criterion {num}: {label} ({elapsed:.2f}s)")
                raise
            assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.2f}s"
        run.__name__ = fn.__name__
        return run
    return wrap


# -- 1. round-trip equivalence ------------------------------------------------


@criterion(1, "round-trip 2-groupoid <-> crossed module is the identity", 10)
def test_criterion_1_roundtrip():
    rng = random.Random(SEED)
    done = 0
    while done < 50:
        if rng.random() < 0.5:
            tg = twogpd.from_groupoid(random_groupoid(rng, max_objects=4,
                                                      max_order=3))
        else:
            xm = random_crossed_module(rng, max_objects=3)
            tg = xmod.xmod_to_2groupoid(xm)
        if len(tg.g0) > 5 or len(tg.g1) > 20:
            continue
        phi, psi = xmod.roundtrip_iso(tg)
        for b in tg.g2:
            assert psi.m2[phi.m2[b]] == b
        for cell in phi.cod.g2:
            assert phi.m2[psi.m2[cell]] == cell
        done += 1


# -- 2. cover weak equivalence -------------------------------------------------


@criterion(2, "cover projections are weak equivalences (9/25 counts exact)", 5)
def test_criterion_2_cover():
    pair2 = pair_groupoid(["a", "b"])
    cover = {"1": ["a"], "2": ["a", "b"]}
    f, dom, _ = twogpd.cover_projection(pair2, cover)
    assert len(dom.g1) == 9
    assert len(dom.g2) == 25
    assert twogpd.check_weak_equivalence(f) == {"WE1": True, "WE2": True,
                                                "WE3": True}
    rng = random.Random(SEED + 2)
    for _ in range(20):
        g = random_groupoid(rng, max_objects=3, max_order=2)
        cov = random_cover(rng, g, max_parts=2)
        f, _, _ = twogpd.cover_projection(g, cov)
        assert all(twogpd.check_weak_equivalence(f).values())


# -- 3. decomposition theorem ---------------------------------------------------


@criterion(3, "decomposition: chi_left (and chi_right for extensions) "
              "are hypercovers", 30)
def test_criterion_3_decomposition():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        m = random_crossing(rng)
        _, chl, chr_ = cr.decompose_crossing(m)
        assert xmod.is_hypercover(chl)
        if m.is_extension:
            assert xmod.is_hypercover(chr_)


# -- 4. diamond closure ---------------------------------------------------------


@criterion(4, "diamond of crossed extensions is a crossed extension", 30)
def test_criterion_4_diamond_closure():
    rng = random.Random(SEED + 4)
    for k in range(30):
        m = random_crossed_extension(rng)
        n = cr.mbar(m) if k % 2 == 0 else cr.trivial_xext(m.dst)
        d = cr.diamond(m, n)
        assert d.is_extension
        assert cr.check_crossing(d, prime=True) == []


# -- 5. M diamond Mbar -----------------------------------------------------------


@criterion(5, "Phi1/Psi1 mutually inverse; Z/4 instance has 4 arrows "
              "on both sides", 20)
def test_criterion_5_m_mbar():
    rng = random.Random(SEED + 5)
    for _ in range(30):
        m = random_crossed_extension(rng, max_middle=16)
        cr.verify_m_mbar(m, want_witness=False)

    ext = extensions.cocycle_extension("Z2", "Z2", 1)
    exmod_ = xmod.extension_xmod(ext)
    ident = {x: x for x in ext.g.objects}
    a1 = {("*", a): ext.iota[a] for a in ext.a.arrows}
    a2 = dict(ext.pi)
    m = cr.validate_crossing(exmod_, exmod_, ext.e, ident, ident,
                             a1, a2, dict(a1), dict(a2), extension=True)
    phi, psi, d1, d2, wit = cr.verify_m_mbar(m)
    assert len(d1.m.arrows) == 4
    klein = fingrpd.semidirect_product(trivial_action(
        cyclic_groupoid(2),
        fingrpd.as_group_bundle(cyclic_groupoid(2, prefix="h"))))
    assert len(klein.arrows) == 4
    assert search_groupoid_iso(d1.m, klein) is not None
    assert wit is not None


# -- 6. exchanger inverse ---------------------------------------------------------


@criterion(6, "P bullet Pbar ~ I via a bijective exchanger morphism", 20)
def test_criterion_6_exchanger_inverse():
    rng = random.Random(SEED + 6)
    for _ in range(20):
        p = random_exchanger(rng)
        pbar, m1, m2 = exm.exchanger_inverse(p)
        assert m1.is_bijective() and m2.is_bijective()


# -- 7. coherence suite ------------------------------------------------------------


def _coherence_families():
    c2 = cyclic_groupoid(2)
    pair2 = pair_groupoid(["a", "b"])
    mods = [
        xmod.inertia_xmod(c2),
        xmod.unit_xmod(pair2),
        xmod.unit_xmod(c2),
        xmod.identity_xmod(cyclic_groupoid(3)),
        xmod.identity_xmod(c2),
        xmod.inertia_xmod(fingrpd.disjoint_union(c2, pair2)),
    ]
    bundle = trivial_bundle(sorted(pair2.objects), cyclic_groupoid(2, prefix="a"))
    mods.append(xmod.module_xmod(pair2, bundle, trivial_action(pair2, bundle)))
    b2 = trivial_bundle(["*"], cyclic_groupoid(3, prefix="a"))

    def carry(arrow, h):
        _, a = unpair(h)
        if c2.is_unit(arrow):
            return h
        return mkpair("*", "a" + str((-int(a[1:])) % 3))

    mods.append(xmod.module_xmod(c2, b2, transport_action(c2, b2, carry)))
    b3 = trivial_bundle(["*"], cyclic_groupoid(3, prefix="a"))
    mods.append(xmod.module_xmod(cyclic_groupoid(1), b3,
                                 trivial_action(cyclic_groupoid(1), b3)))
    mods.append(xmod.inertia_xmod(cyclic_groupoid(4)))
    return mods


@criterion(7, "associator/unitors/eta-square/interchange as table equalities", 30)
def test_criterion_7_coherence():
    families = _coherence_families()
    assert len(families) >= 10
    for xm in families:
        o = cr.trivial_xext(xm)
        i = exm.trivial_exchanger(o)
        assoc, r_p, l_p = exm.structural_isos(i, i, i)
        assert assoc.is_bijective() and r_p.is_bijective() and l_p.is_bijective()
        sq = exm.eta_square(i, i, i, i)
        assert sq.is_bijective()
        eta = exm.identity_morphism_of(i)
        left = exm.morphism_compose(
            "horizontal", exm.morphism_compose("spatial", eta, eta),
            exm.morphism_compose("spatial", eta, eta))
        right = exm.morphism_compose(
            "spatial", exm.morphism_compose("horizontal", eta, eta),
            exm.morphism_compose("horizontal", eta, eta))
        assert left.eta == right.eta
        vleft = exm.morphism_compose(
            "spatial", exm.morphism_compose("vertical", eta, eta),
            exm.morphism_compose("vertical", eta, eta))
        sq2 = exm.eta_square(i, i, i, i)
        # pro2: the eta-square conjugates *v of diamonds into diamonds of *v
        conj = {k: sq2.eta[k] for k in sq2.eta}
        assert set(conj.values()) == set(vleft.src.p.space)
        assert vleft.is_bijective()


# -- 8. extension classification ----------------------------------------------------


@criterion(8, "Z2/Z2 gives 2 Morita classes, Z2/Z3 gives 1; classes are "
              "exchanger-inequivalent", 60)
def test_criterion_8_extension_classification():
    classes, exts = extensions.enumerate_extensions("Z2", "Z2")
    assert len(classes) == 2
    classes3, _ = extensions.enumerate_extensions("Z2", "Z3")
    assert len(classes3) == 1
    crossings = [cr.extension_to_crossing(exts[cl[0]]) for cl in classes]
    wit = bb.morita_witness(crossings[0].m, crossings[1].m)
    assert wit is None  # no Morita equivalence => no exchanger


# -- 9. weak-unit witnesses -----------------------------------------------------------


@criterion(9, "unit witnesses: four invertible morphisms per crossing", 20)
def test_criterion_9_unit_witnesses():
    rng = random.Random(SEED + 9)
    for _ in range(20):
        m = random_crossing(rng)
        w = exm.unit_witnesses(m)
        for key in ("mu_R_to_unit", "mu_Rbar_to_unit",
                    "mu_L_to_unit", "mu_Lbar_to_unit"):
            assert w[key].is_bijective()


# -- 10. negative controls -------------------------------------------------------------


def _module_inversion_o():
    c2 = cyclic_groupoid(2)
    b3 = trivial_bundle(["*"], cyclic_groupoid(3, prefix="a"))

    def carry(arrow, h):
        _, a = unpair(h)
        if c2.is_unit(arrow):
            return h
        return mkpair("*", "a" + str((-int(a[1:])) % 3))

    xm = xmod.module_xmod(c2, b3, transport_action(c2, b3, carry))
    return xm, cr.trivial_xext(xm)


@criterion(10, "every documented corruption is rejected with a witness", 10)
def test_criterion_10_negative_controls():
    c2 = cyclic_groupoid(2)
    sc2 = xmod.inertia_xmod(c2)
    o = cr.trivial_xext(sc2)
    seen = set()

    def probe(crossing, expect, prime=False):
        violations = cr.check_crossing(crossing, prime=prime)
        codes = {v.code for v in violations}
        assert expect in codes, (expect, codes)
        witness = next(v.witness for v in violations if v.code == expect)
        assert witness is not None
        seen.add(expect)

    # CR1: a unit leg value redirected to a non-unit loop
    a1 = dict(o.a1)
    a1[("*", "c0")] = a1[("*", "c1")]
    probe(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, a1, o.a2, o.b1, o.b2),
          "CR1Failure")

    # CR2: replace b2 by the projection, so b2(a1(h)) is not a unit
    b2 = {mm: unpair(mm)[1] for mm in o.m.arrows}
    probe(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, o.a1, o.a2, o.b1, b2),
          "CR2Failure")

    # CR3: collapse b1 onto units
    b1 = {k: o.m.unit[k[0]] for k in o.b1}
    probe(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, o.a1, o.a2, b1, o.b2),
          "CR3Failure")

    # CR4: declare the inversion module but build the direct-product middle
    xm_inv, _ = _module_inversion_o()
    triv_bundle = xm_inv.h
    triv_action = trivial_action(c2, triv_bundle)
    direct = fingrpd.semidirect_product(triv_action)
    ident = {"*": "*"}
    a1 = {("*", h): mkpair(triv_bundle.inv[h], "c0") for h in triv_bundle.arrows}
    b1 = {("*", h): mkpair(h, "c0") for h in triv_bundle.arrows}
    a2 = {mm: unpair(mm)[1] for mm in direct.arrows}
    probe(cr.Crossing(xm_inv, xm_inv, direct, ident, ident,
                      a1, a2, b1, dict(a2)), "CR4Failure")

    # CR3': collapse a1 onto units (CR3 side untouched)
    xm_mod, o_mod = _module_inversion_o()
    a1 = {k: o_mod.m.unit[k[0]] for k in o_mod.a1}
    probe(cr.Crossing(o_mod.src, o_mod.dst, o_mod.m, o_mod.tau, o_mod.sigma,
                      a1, o_mod.a2, o_mod.b1, o_mod.b2, extension=True),
          "CR3PrimeFailure", prime=True)

    # E1 freeness: collapse morphism graph bibundle
    bundle = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    module = xmod.module_xmod(c2, bundle, trivial_action(c2, bundle))
    a_ext = cr.trivial_xext(module)
    b_ext = cr.trivial_xext(xmod.unit_xmod(c2))
    fmap = {mm: mkpair(b_ext.dst.h.unit["*"], unpair(mm)[1])
            for mm in a_ext.m.arrows}
    f = fingrpd.validate_groupoid_morphism(a_ext.m, b_ext.m, {"*": "*"}, fmap)
    cand = exm.SemiExchanger(a_ext, b_ext, bb.bibundle_from_hom(f))
    codes = {v.code for v in exm.check_semi_exchanger(cand)}
    assert "E1Failure" in codes
    seen.add("E1Failure")

    # E2 orbit mismatch: twist the right action of I by the Klein swap
    m_gpd = o.m
    swap = {}
    for mm in m_gpd.arrows:
        h, g = unpair(mm)
        swap[mm] = mkpair("c" + g[1:], "c" + h[1:])
    ract = {(z, n): m_gpd.comp[(z, swap[n])] for z in m_gpd.arrows
            for n in m_gpd.arrows_to(m_gpd.src[z])}
    p = bb.validate_bibundle(m_gpd, m_gpd, m_gpd.arrows,
                             {z: m_gpd.tgt[z] for z in m_gpd.arrows},
                             {z: m_gpd.src[z] for z in m_gpd.arrows},
                             {(g, z): m_gpd.comp[(g, z)] for z in m_gpd.arrows
                              for g in m_gpd.arrows_from(m_gpd.tgt[z])}, ract)
    codes = {v.code for v in
             exm.check_semi_exchanger(exm.SemiExchanger(o, o, p))}
    assert "E2Failure" in codes
    seen.add("E2Failure")

    # T1: wrong endpoints for T on a 2-object module
    pair2 = pair_groupoid(["a", "b"])
    u2 = xmod.unit_xmod(pair2)
    chi2 = xmod.identity_xmorphism(u2)
    tmap = {"a": mkpair("b", "a"), "b": pair2.unit["b"]}
    lam = {g: u2.h.unit[pair2.tgt[g]] for g in pair2.arrows}
    codes = {v.code for v in xmod.check_transformation_xmod(tmap, lam, chi2, chi2)}
    assert "T1Failure" in codes
    seen.add("T1Failure")

    # T2: non-multiplicative lambda
    chi = xmod.identity_xmorphism(sc2)
    tmap = {"*": "c0"}
    lam = {"c0": "c1", "c1": "c0"}
    codes = {v.code for v in xmod.check_transformation_xmod(tmap, lam, chi, chi)}
    assert "T2Failure" in codes
    seen.add("T2Failure")

    # T3: lambda the identity crossed homomorphism shifts kappa off chi
    lam = {"c0": "c0", "c1": "c1"}
    codes = {v.code for v in xmod.check_transformation_xmod(tmap, lam, chi, chi)}
    assert "T3Failure" in codes
    seen.add("T3Failure")

    # T4: inversion module with a nontrivial T and unit lambda
    xm_inv, _ = _module_inversion_o()
    chi_inv = xmod.identity_xmorphism(xm_inv)
    tmap = {"*": "c1"}
    lam = {g: xm_inv.h.unit["*"] for g in c2.arrows}
    codes = {v.code for v in
             xmod.check_transformation_xmod(tmap, lam, chi_inv, chi_inv)}
    assert "T4Failure" in codes and "T3Failure" not in codes
    seen.add("T4Failure")

    # WE1: inclusion into a disconnected larger module
    extra = fingrpd.disjoint_union(sc2.g, fingrpd.unit_groupoid(["y"]))
    big = xmod.inertia_xmod(extra)
    chi_in = xmod.validate_strict_xmorphism(
        sc2, big, {"*": mkpair("A", "*")},
        {h: mkpair("A", h) for h in sc2.h.arrows},
        {g: mkpair("A", g) for g in sc2.g.arrows})
    report, _ = xmod.check_hypercover(chi_in)
    assert report["WE1"] is False
    seen.add("WE1")

    # WE2: point into C2
    dom2 = twogpd.from_groupoid(fingrpd.unit_groupoid(["*"]))
    cod2 = twogpd.from_groupoid(c2)
    f2 = twogpd.validate_strict_hom2(
        dom2, cod2, {"*": "*"},
        {dom2.unit1["*"]: cod2.unit1["*"]},
        {dom2.vunit[dom2.unit1["*"]]: cod2.vunit[cod2.unit1["*"]]})
    rep2 = twogpd.check_weak_equivalence(f2)
    assert rep2["WE1"] is True and rep2["WE2"] is False
    seen.add("WE2")

    # WE3: collapse the (Z/2 -> 1) module's 2-cells onto the point
    base = fingrpd.unit_groupoid(["*"])
    bnd = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    xm0 = xmod.module_xmod(base, bnd, trivial_action(base, bnd))
    dom3 = xmod.xmod_to_2groupoid(xm0)
    cod3 = twogpd.from_groupoid(fingrpd.unit_groupoid(["*"]))
    ex3 = cod3.unit1["*"]
    f3 = twogpd.validate_strict_hom2(
        dom3, cod3, {"*": "*"}, {g: ex3 for g in dom3.g1},
        {a: cod3.vunit[ex3] for a in dom3.g2})
    rep3 = twogpd.check_weak_equivalence(f3)
    assert rep3["WE3"] is False
    seen.add("WE3")

    # interchange: corrupt one horizontal composite
    tg = twogpd.from_groupoid(c2)
    bad = dict(tg.hcomp)
    e1 = mkpair("1", "c1")
    bad[(e1, e1)] = e1
    broken = twogpd.TwoGroupoid(tg.level1, tg.vertical, bad, tg.hinv)
    codes = {v.code for v in twogpd.check_2groupoid(broken)}
    assert codes & {"InterchangeFailure", "BadHComposite", "HNonAssociative",
                    "BadHInverse"}
    seen.add("interchange")

    assert seen >= {"CR1Failure", "CR2Failure", "CR3Failure", "CR4Failure",
                    "CR3PrimeFailure", "E1Failure", "E2Failure",
                    "T1Failure", "T2Failure", "T3Failure", "T4Failure",
                    "WE1", "WE2", "WE3", "interchange"}
