import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as ex
from xmodforge import fingrpd, xmod
from xmodforge.errors import NotComposable, ValidationFailure
from xmodforge.fingrpd import cyclic_groupoid, trivial_bundle, trivial_action, unpair
from xmodforge.util import pair as mkpair, strip_class


@pytest.fixture
def sc2(c2):
    return xmod.inertia_xmod(c2)


@pytest.fixture
def o_sc2(sc2):
    return cr.trivial_xext(sc2)


@pytest.fixture
def i_o(o_sc2):
    return ex.trivial_exchanger(o_sc2)


def two_point_pullback(o_sc2):
    return ex.pullback_homomorphism(
        o_sc2, ["z0", "z1"],
        {"z0": sorted(o_sc2.m.objects)[0], "z1": sorted(o_sc2.m.objects)[0]})


def test_identity_hom_is_equivalence(o_sc2):
    hom = ex.identity_homomorphism(o_sc2)
    assert ex.check_xext_homomorphism(hom) == []
    assert ex.is_xext_equivalence(hom)


def test_pullback_hom_is_equivalence(o_sc2):
    hom = two_point_pullback(o_sc2)
    assert ex.is_xext_equivalence(hom)


def test_collapsed_phi_fails_scm2(o_sc2):
    hom = ex.identity_homomorphism(o_sc2)
    bad_amap = {mm: o_sc2.m.unit[o_sc2.m.src[mm]] if
                o_sc2.m.src[mm] == o_sc2.m.tgt[mm] else mm
                for mm in o_sc2.m.arrows}
    bad_phi = fingrpd.GroupoidMorphism(o_sc2.m, o_sc2.m,
                                       {x: x for x in o_sc2.m.objects}, bad_amap)
    bad = ex.XExtHomomorphism(o_sc2, o_sc2, hom.chi1, bad_phi, hom.chi2)
    violations = ex.check_xext_homomorphism(bad)
    assert violations
    codes = {v.code for v in violations}
    assert codes & {"SCM1Failure", "SCM2Failure", "PrismFaceFailure",
                    "Phi:NotFunctorial"}


def test_unit_equivalence_degenerate_point():
    u = xmod.unit_xmod(fingrpd.unit_groupoid(["x", "y"]))
    a = cr.trivial_xext(u)
    hom = ex.unit_equivalence(a)
    assert ex.is_xext_equivalence(hom)
    # M has only unit arrows: Phi^M is the identity up to pair labels
    for arrow, img in hom.phi.amap.items():
        assert arrow == img


def test_unit_equivalence_o_sc2(o_sc2):
    hom = ex.unit_equivalence(o_sc2)
    assert ex.is_xext_equivalence(hom)


def test_trivial_exchanger_is_exchanger(i_o):
    assert ex.check_exchanger(i_o) == []


def test_p_phi_of_equivalence_is_exchanger(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    assert ex.check_exchanger(p) == []


def test_e1_failure_freeness():
    # collapse morphism: Z_f for f: A x| C2 -> C2 kills the H1-action freeness
    c2 = cyclic_groupoid(2)
    bundle = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    module = xmod.module_xmod(c2, bundle, trivial_action(c2, bundle))
    a = cr.trivial_xext(module)
    b = cr.trivial_xext(xmod.unit_xmod(c2))
    fmap = {}
    for mm in a.m.arrows:
        h, g = unpair(mm)
        fmap[mm] = mkpair(b.dst.h.unit["*"], g)
    f = fingrpd.validate_groupoid_morphism(a.m, b.m, {"*": "*"}, fmap)
    p = bb.bibundle_from_hom(f)
    cand = ex.SemiExchanger(a, b, p)
    violations = ex.check_semi_exchanger(cand)
    assert any(v.code == "E1Failure" and v.witness[0] == "left-not-free"
               for v in violations)


def test_e1_failure_orbit_mismatch(o_sc2):
    # twist the right action by the swap (a,g) -> (g,a) of the Klein middle
    m = o_sc2.m
    swap = {}
    for mm in m.arrows:
        h, g = unpair(mm)
        swap[mm] = mkpair("c" + g[1:], "c" + h[1:])
    ract = {(z, n): m.comp[(z, swap[n])] for z in m.arrows
            for n in m.arrows_to(m.src[z])}
    p = bb.validate_bibundle(m, m, m.arrows,
                             {z: m.tgt[z] for z in m.arrows},
                             {z: m.src[z] for z in m.arrows},
                             {(g, z): m.comp[(g, z)] for z in m.arrows
                              for g in m.arrows_from(m.tgt[z])}, ract)
    cand = ex.SemiExchanger(o_sc2, o_sc2, p)
    violations = ex.check_semi_exchanger(cand)
    assert any("orbit-mismatch" in str(v.witness) for v in violations)


def test_exchanger_from_identity_hom_is_trivial(o_sc2, i_o):
    hom = ex.identity_homomorphism(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    # P_Phi of the identity is I_M up to the (x, m) labeling
    assert bb.search_equivariant_iso(p.p, i_o.p) is not None


def test_vertical_compose_unit_laws(i_o):
    assoc, r_p, l_p = ex.structural_isos(i_o, i_o, i_o)
    assert r_p.is_bijective() and l_p.is_bijective() and assoc.is_bijective()


def test_structural_isos_composes_each_pair_once(i_o, monkeypatch):
    # six composites: (P.P).P and P.(P.P), two each, and I.P, P.I
    calls = []
    compose = bb.compose_bibundles
    monkeypatch.setattr(bb, "compose_bibundles",
                        lambda p, q: calls.append((p, q)) or compose(p, q))
    assoc, r_p, l_p = ex.structural_isos(i_o, i_o, i_o)
    assert len(calls) == 6
    monkeypatch.undo()
    # the associator read off a composite of its own: [[p, q], t] for [p, [q, t]]
    outer = bb.compose_bibundles(i_o.p, i_o.p)
    left = ex.vertical_compose(ex.vertical_compose(i_o, i_o), i_o)
    want = {}
    for c in assoc.src.p.space:
        pz, inner = unpair(strip_class(c))
        qz, tz = unpair(strip_class(inner))
        want[c] = left.p.pair_class[mkpair(outer.pair_class[mkpair(pz, qz)], tz)]
    assert assoc.eta == want
    assert r_p.eta == {c: i_o.p.lact[unpair(strip_class(c))] for c in r_p.src.p.space}
    assert l_p.eta == {c: i_o.p.ract[unpair(strip_class(c))] for c in l_p.src.p.space}


def test_exchanger_inverse_witnesses(i_o):
    pbar, m1, m2 = ex.exchanger_inverse(i_o)
    assert m1.is_bijective() and m2.is_bijective()
    assert ex.check_exchanger(pbar) == []


def test_inverse_of_trivial_is_trivial_up_to_inv(i_o, o_sc2):
    pbar, _, _ = ex.exchanger_inverse(i_o)
    # Ibar = I via p -> p^-1
    eta = {p: o_sc2.m.inv[p] for p in pbar.p.space}
    mor = ex.validate_exchanger_morphism(pbar, ex.trivial_exchanger(o_sc2), eta)
    assert mor.is_bijective()


def test_double_inverse_identity(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    pbar, _, _ = ex.exchanger_inverse(p)
    pbarbar, _, _ = ex.exchanger_inverse(pbar)
    assert pbarbar.p.lact == p.p.lact and pbarbar.p.ract == p.p.ract


def test_exchanger_decompose_trivial(i_o, o_sc2):
    pext, hom_a, hom_b = ex.exchanger_decompose(i_o)
    assert ex.is_xext_equivalence(hom_a)
    assert ex.is_xext_equivalence(hom_b)
    # P for I_M is the pullback of A along t on the middle groupoid
    pb = cr.pullback_crossing(ex.same_base_form(o_sc2), sorted(o_sc2.m.arrows),
                              {mm: o_sc2.m.tgt[mm] for mm in o_sc2.m.arrows})
    assert len(pext.m.objects) == len(pb.m.objects)
    assert fingrpd.search_groupoid_iso(pext.m, pb.m) is not None


def test_exchanger_decompose_p_phi(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    pext, hom_a, hom_b = ex.exchanger_decompose(p)
    assert ex.is_xext_equivalence(hom_a)
    assert ex.is_xext_equivalence(hom_b)


def test_horizontal_diamond_trivial(i_o, o_sc2):
    hd = ex.horizontal_diamond(i_o, i_o)
    i_d = ex.trivial_exchanger(cr.diamond(o_sc2, o_sc2))
    assert bb.search_equivariant_iso(hd.p, i_d.p) is not None
    assert ex.check_exchanger(hd) == []


def test_horizontal_diamond_exchanger_closure(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    # normalize to a same-base column by decomposing through its extension:
    # the pullback hom's source is same-base over Z, target over M^0; the
    # diamond needs same-base columns, so use I's with matching columns
    i1 = ex.trivial_exchanger(o_sc2)
    hd = ex.horizontal_diamond(i1, i1)
    ok, _ = bb.is_morita(hd.p)
    assert ok


def test_horizontal_diamond_rejects_mismatched_bases(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)  # source over Z, target over M^0
    with pytest.raises(NotComposable):
        ex.horizontal_diamond(p, p)


def test_eta_square(i_o):
    sq = ex.eta_square(i_o, i_o, i_o, i_o)
    assert sq.is_bijective()


def test_morphism_compositions_identity(i_o):
    eta = ex.identity_morphism_of(i_o)
    for kind in ("horizontal", "vertical", "spatial"):
        out = ex.morphism_compose(kind, eta, eta)
        assert out.is_bijective()


def test_interchange_of_morphism_compositions(i_o):
    eta = ex.identity_morphism_of(i_o)
    left = ex.morphism_compose("horizontal",
                               ex.morphism_compose("spatial", eta, eta),
                               ex.morphism_compose("spatial", eta, eta))
    right = ex.morphism_compose("spatial",
                                ex.morphism_compose("horizontal", eta, eta),
                                ex.morphism_compose("horizontal", eta, eta))
    assert left.eta == right.eta


def test_actions_commute_lemma(i_o):
    assert ex.actions_commute(i_o) == []


def test_unit_witnesses_trivial(o_sc2):
    w = ex.unit_witnesses(o_sc2)
    for key in ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit", "mu_Lbar_to_unit"):
        assert w[key].is_bijective()
    assert all(not v for v in w["reports"].values())


def test_unit_witnesses_from_identity_morphism(sc2):
    m = cr.crossing_from_strict(xmod.identity_xmorphism(sc2))
    w = ex.unit_witnesses(m)
    for key in ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit", "mu_Lbar_to_unit"):
        assert w[key].is_bijective()


def test_unit_witnesses_property(rng):
    from xmodforge.generators import random_crossing
    for _ in range(5):
        m = random_crossing(rng)
        w = ex.unit_witnesses(m)
        assert all(w[k].is_bijective() for k in
                   ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit",
                    "mu_Lbar_to_unit"))


def test_generated_exchanger_inverse_property(rng):
    from xmodforge.generators import random_exchanger
    for _ in range(5):
        p = random_exchanger(rng)
        pbar, m1, m2 = ex.exchanger_inverse(p)
        assert m1.is_bijective() and m2.is_bijective()


def test_pphi_orbit_spaces(o_sc2):
    hom = two_point_pullback(o_sc2)
    # _check_pphi_orbits asserts the explicit orbit-space bijections
    p = ex.exchanger_from_homomorphism(hom, check_orbits=True)
    assert ex.check_semi_exchanger(p) == []


def central_translation(i_o, o_sc2):
    """A non-identity exchanger morphism I -> I: right translation by the
    central loop of the Klein middle groupoid."""
    m = o_sc2.m
    c = mkpair("c1", "c0")
    eta = {p: m.comp[(p, c)] if m.src[p] == m.src[c] else m.comp[(p, c)]
           for p in i_o.p.space}
    return ex.validate_exchanger_morphism(i_o, i_o, eta)


def test_thm_2cat_interchange_nonidentity(i_o, o_sc2):
    # (eta1 *h zeta1) *v (eta2 *h zeta2) == (eta1 *v eta2) *h (zeta1 *v zeta2)
    eta1 = central_translation(i_o, o_sc2)
    zeta1 = ex.identity_morphism_of(i_o)
    eta2 = ex.identity_morphism_of(i_o)
    zeta2 = ex.identity_morphism_of(i_o)
    lhs = ex.morphism_compose(
        "vertical", ex.morphism_compose("horizontal", eta1, zeta1),
        ex.morphism_compose("horizontal", eta2, zeta2))
    rhs = ex.morphism_compose(
        "horizontal", ex.morphism_compose("vertical", eta1, eta2),
        ex.morphism_compose("vertical", zeta1, zeta2))
    assert lhs.eta == rhs.eta
    assert lhs.eta != ex.identity_morphism_of(lhs.src).eta
