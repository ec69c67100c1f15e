"""The checks whose laws the library certifies on generators, as they were
before their certificates: every law swept over every instance, each
written out as its own loop.  The functor check, the action check, the
crossed-module check, the strict-morphism check and the crossing check
each return the violations in the order the library lists them."""

from xmodforge import crossing as cr
from xmodforge.errors import Violation


def functor_violations(f):
    """check_groupoid_morphism with composites swept over every composable
    pair."""
    violations = []
    dom, cod = f.dom, f.cod
    for x in dom.objects:
        if f.omap.get(x) not in cod.objects:
            violations.append(Violation("BadObjectImage", (x,)))
    for a in dom.arrows:
        b = f.amap.get(a)
        if b not in cod.arrows:
            violations.append(Violation("BadArrowImage", (a,)))
            continue
        if cod.src[b] != f.omap.get(dom.src[a]) or cod.tgt[b] != f.omap.get(dom.tgt[a]):
            violations.append(Violation("NotFunctorial", (a,), "endpoints not respected"))
    if violations:
        return violations
    for x in dom.objects:
        if f.amap[dom.unit[x]] != cod.unit[f.omap[x]]:
            violations.append(Violation("NotFunctorial", (x,), "unit not preserved"))
    for g, h in dom.composable_pairs():
        if f.amap[dom.comp[(g, h)]] != cod.comp[(f.amap[g], f.amap[h])]:
            violations.append(Violation("NotFunctorial", (g, h), "composition not preserved"))
    return violations


def action_violations(base, bundle, act):
    """check_action with the homomorphism law swept over every arrow and
    fibre pair, and functoriality over every composable pair."""
    violations = []
    if bundle.objects != base.objects:
        violations.append(Violation("UnitSpaceMismatch",
                                    (list(bundle.objects), list(base.objects))))
        return violations
    for g in base.arrows:
        for h in bundle.fiber(base.tgt[g]):
            if (g, h) not in act:
                violations.append(Violation("MissingActionEntry", (g, h)))
    if violations:
        return violations
    for g in base.arrows:
        fy = bundle.fiber(base.tgt[g])
        fx = set(bundle.fiber(base.src[g]))
        images = [act[(g, h)] for h in fy]
        for h, hg in zip(fy, images):
            if hg not in fx:
                violations.append(Violation("NotHomomorphism", (g, h), "image outside target fiber"))
        if len(set(images)) != len(fy):
            violations.append(Violation("NotHomomorphism", (g,), "fiber map not bijective"))
    if violations:
        return violations
    for g in base.arrows:
        fy = bundle.fiber(base.tgt[g])
        for h1 in fy:
            for h2 in fy:
                lhs = act[(g, bundle.comp[(h1, h2)])]
                rhs = bundle.comp[(act[(g, h1)], act[(g, h2)])]
                if lhs != rhs:
                    violations.append(Violation("NotHomomorphism", (g, h1, h2)))
    for x in base.objects:
        e = base.unit[x]
        for h in bundle.fiber(x):
            if act[(e, h)] != h:
                violations.append(Violation("NotFunctorial", (e, h), "unit acts nontrivially"))
    for g, g2 in base.composable_pairs():
        for h in bundle.fiber(base.tgt[g]):
            if act[(base.comp[(g, g2)], h)] != act[(g2, act[(g, h)])]:
                violations.append(Violation("NotFunctorial", (g, g2), f"on {h}"))
    return violations


def crossed_module_violations(xm):
    """check_crossed_module with axiom 1 swept over every arrow and fibre
    element, and axiom 2 over every fibre pair."""
    from xmodforge.fingrpd import GroupoidMorphism
    g, h = xm.g, xm.h
    if h.objects != g.objects:
        return [Violation("UnitSpaceMismatch", None)]
    violations = functor_violations(GroupoidMorphism(h, g, {x: x for x in g.objects},
                                                     xm.boundary))
    if violations:
        return violations
    for gg in g.arrows:
        for hh in h.fiber(g.tgt[gg]):
            lhs = xm.boundary[xm.act(gg, hh)]
            rhs = g.comp[(g.comp[(g.inv[gg], xm.boundary[hh])], gg)]
            if lhs != rhs:
                violations.append(Violation("Axiom1Failure", (gg, hh)))
    for x in g.objects:
        for hh in h.fiber(x):
            for kk in h.fiber(x):
                lhs = xm.act(xm.boundary[hh], kk)
                rhs = h.comp[(h.comp[(h.inv[hh], kk)], hh)]
                if lhs != rhs:
                    violations.append(Violation("Axiom2Failure", (hh, kk)))
    return violations


def strict_xmorphism_violations(chi):
    """check_strict_xmorphism with both functors swept and equivariance
    swept over every arrow and fibre element."""
    violations = functor_violations(chi.left()) + functor_violations(chi.right())
    if violations:
        return violations
    d, c = chi.dom, chi.cod
    for hh in d.h.arrows:
        if c.boundary[chi.lmap[hh]] != chi.rmap[d.boundary[hh]]:
            violations.append(Violation("BoundaryNotRespected", (hh,)))
    for gg in d.g.arrows:
        for hh in d.h.fiber(d.g.tgt[gg]):
            if chi.lmap[d.act(gg, hh)] != c.act(chi.rmap[gg], chi.lmap[hh]):
                violations.append(Violation("NotEquivariant", (gg, hh)))
    return violations


def crossing_violations(c, prime=False):
    """check_crossing with the leg homomorphisms swept over every fibre
    pair and composable pair, and CR4 over every arrow and fibre element;
    CR3 and CR3' are the library's own (_cr3 has no certificate)."""
    violations = []
    m = c.m
    sides = c.sides()
    for u in m.objects:
        if any(s.mom.get(u) not in s.xm.g.objects for s in sides):
            violations.append(Violation("BadMoment", (u,)))
    if violations:
        return violations
    for s in sides:
        for u in m.objects:
            for hh in s.xm.h.fiber(s.mom[u]):
                mm = s.leg1.get((u, hh))
                if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
                    violations.append(Violation("BadLeg", (s.tag + "1", u, hh)))
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for s in sides:
            g = s.leg2.get(mm)
            gg = s.xm.g
            if g not in gg.arrows or gg.tgt[g] != s.mom[u1] or gg.src[g] != s.mom[u2]:
                violations.append(Violation("BadLeg", (s.tag + "2", mm)))
    if violations:
        return violations
    for u in m.objects:
        for s in sides:
            if s.leg1[(u, s.xm.h.unit[s.mom[u]])] != m.unit[u]:
                violations.append(Violation("CR1Failure", (s.tag + "1", u)))
        for s in sides:
            if s.leg2[m.unit[u]] != s.xm.g.unit[s.mom[u]]:
                violations.append(Violation("CR1Failure", (s.tag + "2", u)))
    for u in m.objects:
        for s in sides:
            fiber = s.xm.h.fiber(s.mom[u])
            for ha in fiber:
                for hb in fiber:
                    if s.leg1[(u, s.xm.h.comp[(ha, hb)])] != \
                            m.comp[(s.leg1[(u, ha)], s.leg1[(u, hb)])]:
                        violations.append(Violation("BadLeg", (s.tag + "1-hom", u, ha, hb)))
    for ma, mb in m.composable_pairs():
        for s in sides:
            if s.leg2[m.comp[(ma, mb)]] != s.xm.g.comp[(s.leg2[ma], s.leg2[mb])]:
                violations.append(Violation("BadLeg", (s.tag + "2-hom", ma, mb)))
    if violations:
        return violations
    for s, o in (sides, sides[::-1]):
        for u in m.objects:
            for hh in s.xm.h.fiber(s.mom[u]):
                if not o.xm.g.is_unit(o.leg2[s.leg1[(u, hh)]]):
                    violations.append(Violation("CR2Failure", (f"{o.tag}2.{s.tag}1", u, hh)))
    for s in sides:
        for u in m.objects:
            for hh in s.xm.h.fiber(s.mom[u]):
                if s.leg2[s.leg1[(u, hh)]] != s.xm.boundary[hh]:
                    violations.append(Violation("SquareFailure", (s.tag, u, hh)))
    violations += cr._cr3(c, *sides, "CR3Failure")
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for s in sides:
            for hh in s.xm.h.fiber(s.mom[u1]):
                if s.leg1[(u2, s.xm.act(s.leg2[mm], hh))] != \
                        m.comp[(m.comp[(m.inv[mm], s.leg1[(u1, hh)])], mm)]:
                    violations.append(Violation("CR4Failure", (s.tag, mm, hh)))
    if prime:
        violations += cr.check_cr3_prime(c)
    return violations
