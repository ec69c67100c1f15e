"""Reference implementations of the exchanger constructions that the
library writes once per construction: the weak-unit witnesses as four
hand-written blocks, the unitors r_P and l_P, the vertical and spatial
compositions of morphisms and the commuting of the actions, each as its
own loop."""

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge.errors import NotComposable
from xmodforge.util import pair


def unit_witnesses(c):
    """R, Rbar, L, Lbar and the four morphisms to trivial exchangers, each
    witness built by a block of its own."""
    msb = exm.same_base_form(c)
    m = msb.m
    g2mod = msb.dst
    g1mod = msb.src
    o2 = cr.trivial_xext(g2mod)
    o1 = cr.trivial_xext(g1mod)
    dmo = cr.diamond(msb, o2)
    dom_ = cr.diamond(o1, msb)

    # R: dmo => msb on the carrier M
    lact = {}
    for cls in dmo.m.arrows:
        mm, ocell = dmo.m.parts[cls]
        h2, _ = o2.m.parts[ocell]
        shift = m.comp[(msb.b1[(m.tgt[mm], h2)], mm)]
        for m2 in m.arrows_to(m.src[mm]):
            lact[(cls, m2)] = m.comp[(shift, m2)]
    ract = {(m1, m2): m.comp[(m1, m2)]
            for m1 in m.arrows for m2 in m.arrows_to(m.src[m1])}
    r_p = bb.validate_bibundle(dmo.m, m, m.arrows,
                               {z: m.tgt[z] for z in m.arrows},
                               {z: m.src[z] for z in m.arrows}, lact, ract)
    r_ex = exm.SemiExchanger(dmo, msb, r_p)

    # Rbar: msb => dmo on the carrier dmo
    lact_bar = {}
    for mm in m.arrows:
        for cls in dmo.m.arrows:
            m1, ocell = dmo.m.parts[cls]
            if m.tgt[m1] != m.src[mm]:
                continue
            h2, gg2 = o2.m.parts[ocell]
            h2_tw = g2mod.act(g2mod.g.inv[msb.b2[mm]], h2)
            ocell2 = pair(h2_tw, g2mod.g.comp[(msb.b2[mm], gg2)])
            lact_bar[(mm, cls)] = dmo.pair_class[pair(m.comp[(mm, m1)], ocell2)]
    ract_bar = {(cls, cls2): dmo.m.comp[(cls, cls2)]
                for cls in dmo.m.arrows
                for cls2 in dmo.m.arrows_to(dmo.m.src[cls])}
    rbar_p = bb.validate_bibundle(m, dmo.m, dmo.m.arrows,
                                  {z: dmo.m.tgt[z] for z in dmo.m.arrows},
                                  {z: dmo.m.src[z] for z in dmo.m.arrows},
                                  lact_bar, ract_bar)
    rbar_ex = exm.SemiExchanger(msb, dmo, rbar_p)

    # L: dom_ => msb on the carrier M
    lact_l = {}
    for cls in dom_.m.arrows:
        ocell, mm = dom_.m.parts[cls]
        k1, _ = o1.m.parts[ocell]
        shift = m.comp[(msb.a1[(m.tgt[mm], g1mod.h.inv[k1])], mm)]
        for m2 in m.arrows_to(m.src[mm]):
            lact_l[(cls, m2)] = m.comp[(shift, m2)]
    l_p = bb.validate_bibundle(dom_.m, m, m.arrows,
                               {z: m.tgt[z] for z in m.arrows},
                               {z: m.src[z] for z in m.arrows}, lact_l, dict(ract))
    l_ex = exm.SemiExchanger(dom_, msb, l_p)

    # Lbar: msb => dom_ on the carrier dom_
    lact_lbar = {}
    for mm in m.arrows:
        for cls in dom_.m.arrows:
            ocell, m1 = dom_.m.parts[cls]
            if m.tgt[m1] != m.src[mm]:
                continue
            k1, gg1 = o1.m.parts[ocell]
            k1_tw = g1mod.act(g1mod.g.inv[msb.a2[mm]], k1)
            ocell2 = pair(k1_tw, g1mod.g.comp[(msb.a2[mm], gg1)])
            lact_lbar[(mm, cls)] = dom_.pair_class[pair(ocell2, m.comp[(mm, m1)])]
    ract_lbar = {(cls, cls2): dom_.m.comp[(cls, cls2)]
                 for cls in dom_.m.arrows
                 for cls2 in dom_.m.arrows_to(dom_.m.src[cls])}
    lbar_p = bb.validate_bibundle(m, dom_.m, dom_.m.arrows,
                                  {z: dom_.m.tgt[z] for z in dom_.m.arrows},
                                  {z: dom_.m.src[z] for z in dom_.m.arrows},
                                  lact_lbar, ract_lbar)
    lbar_ex = exm.SemiExchanger(msb, dom_, lbar_p)

    def bullet_to_trivial(first, second, target_triv):
        # eta[z1, z2] = z1 acting on z2 through the second factor's carrier
        comp_ex = exm.vertical_compose(first, second)
        eta = {}
        for cls in comp_ex.p.space:
            z1, z2 = comp_ex.p.parts[cls]
            eta[cls] = second.p.lact[(z1, z2)]
        return exm.validate_exchanger_morphism(comp_ex, target_triv, eta)

    mu_r1 = bullet_to_trivial(r_ex, rbar_ex, exm.trivial_exchanger(dmo))
    i_msb = exm.trivial_exchanger(msb)
    mu_r2 = bullet_to_trivial(rbar_ex, r_ex, i_msb)
    mu_l1 = bullet_to_trivial(l_ex, lbar_ex, exm.trivial_exchanger(dom_))
    mu_l2 = bullet_to_trivial(lbar_ex, l_ex, i_msb)
    exm._require_bijective(mu_R_to_unit=mu_r1, mu_Rbar_to_unit=mu_r2,
                           mu_L_to_unit=mu_l1, mu_Lbar_to_unit=mu_l2)
    return {
        "R": r_ex, "Rbar": rbar_ex, "L": l_ex, "Lbar": lbar_ex,
        "mu_R_to_unit": mu_r1, "mu_Rbar_to_unit": mu_r2,
        "mu_L_to_unit": mu_l1, "mu_Lbar_to_unit": mu_l2,
        "reports": {
            "R": exm.check_semi_exchanger(r_ex),
            "Rbar": exm.check_semi_exchanger(rbar_ex),
            "L": exm.check_semi_exchanger(l_ex),
            "Lbar": exm.check_semi_exchanger(lbar_ex),
        },
    }


def unitors(ex1):
    """(r_P, l_P): I . P => P read off P's left action, P . I => P off its
    right action."""
    ip = exm.vertical_compose(exm.trivial_exchanger(ex1.source), ex1)
    r_eta = {}
    for c in ip.p.space:
        mm, pz = ip.p.parts[c]
        r_eta[c] = ex1.p.lact[(mm, pz)]
    r_p = exm.validate_exchanger_morphism(ip, ex1, r_eta)

    pi = exm.vertical_compose(ex1, exm.trivial_exchanger(ex1.target))
    l_eta = {}
    for c in pi.p.space:
        pz, nn = pi.p.parts[c]
        l_eta[c] = ex1.p.ract[(pz, nn)]
    l_p = exm.validate_exchanger_morphism(pi, ex1, l_eta)
    return r_p, l_p


def morphism_compose(kind, eta, zeta):
    """The three compositions of exchanger morphisms, vertical and spatial
    each in a branch of its own."""
    if kind == "horizontal":
        if eta.dst is not zeta.src and set(eta.dst.p.space) != set(zeta.src.p.space):
            raise NotComposable("horizontal composition needs matching middle")
        return exm.validate_exchanger_morphism(
            eta.src, zeta.dst, {p: zeta.eta[eta.eta[p]] for p in eta.eta})
    if kind == "vertical":
        src = exm.vertical_compose(eta.src, zeta.src)
        dst = exm.vertical_compose(eta.dst, zeta.dst)
        out = {}
        for c in src.p.space:
            p1, p2 = src.p.parts[c]
            out[c] = dst.p.pair_class[pair(eta.eta[p1], zeta.eta[p2])]
        return exm.validate_exchanger_morphism(src, dst, out)
    if kind == "spatial":
        src = exm.horizontal_diamond(eta.src, zeta.src)
        dst = exm.horizontal_diamond(eta.dst, zeta.dst)
        out = {}
        for c in src.p.space:
            p1, p2 = src.p.parts[c]
            out[c] = dst.p.pair_class[pair(eta.eta[p1], zeta.eta[p2])]
        return exm.validate_exchanger_morphism(src, dst, out)
    raise NotComposable(f"unknown composition kind {kind!r}")


def actions_commute(ex):
    """The left H1/H2 and right H3/H4 actions commute: the witnesses of
    failure, the left and the right half each in a loop of its own."""
    out = []
    a, b = ex.source, ex.target
    for p in ex.p.space:
        u = ex.p.lmom[p]
        for h1 in a.src.h.fiber(a.tau[u]):
            m1 = a.a1[(u, h1)]
            for h2 in a.dst.h.fiber(a.sigma[u]):
                m2 = a.b1[(u, h2)]
                lhs = ex.p.lact[(m1, ex.p.lact[(m2, p)])]
                rhs = ex.p.lact[(m2, ex.p.lact[(m1, p)])]
                if lhs != rhs:
                    out.append(("left", p, h1, h2))
        v = ex.p.rmom[p]
        for h3 in b.src.h.fiber(b.tau[v]):
            n1 = b.a1[(v, h3)]
            for h4 in b.dst.h.fiber(b.sigma[v]):
                n2 = b.b1[(v, h4)]
                lhs = ex.p.ract[(ex.p.ract[(p, n1)], n2)]
                rhs = ex.p.ract[(ex.p.ract[(p, n2)], n1)]
                if lhs != rhs:
                    out.append(("right", p, h3, h4))
    return out
