"""Homomorphisms and equivalences of crossed extensions, semi-exchangers and
exchangers, their three compositions, structural isomorphisms, the exchanger
decomposition, horizontal diamonds, and the weak-unit witnesses."""

from .errors import (CoherenceFailure, ExactnessSolveFailure, NotComposable,
                     ValidationFailure, Violation, require)
from . import bibundle as bb
from . import crossing as cr
from . import xmod as xmd
from .fingrpd import (as_group_bundle, check_groupoid_morphism, groupoid_of_parts,
                      identity_morphism, quotient_groupoid, validate_action,
                      validate_groupoid_morphism)
from .util import pair, quotient


# -- homomorphisms of crossed extensions -------------------------------------


class XExtHomomorphism:
    """(chi1, Phi, chi2): the commuting prism between two crossed extensions."""

    def __init__(self, src, dst, chi1, phi, chi2):
        self.src = src      # Crossing
        self.dst = dst
        self.chi1 = chi1    # StrictXMorphism src.src -> dst.src
        self.phi = phi      # GroupoidMorphism src.m -> dst.m
        self.chi2 = chi2    # StrictXMorphism src.dst -> dst.dst


def check_xext_homomorphism(hom):
    violations = []
    a, b = hom.src, hom.dst
    chi1, phi, chi2 = hom.chi1, hom.phi, hom.chi2
    violations += [Violation("Chi1:" + v.code, v.witness, v.detail)
                   for v in xmd.check_strict_xmorphism(chi1)]
    violations += [Violation("Chi2:" + v.code, v.witness, v.detail)
                   for v in xmd.check_strict_xmorphism(chi2)]
    violations += [Violation("Phi:" + v.code, v.witness, v.detail)
                   for v in check_groupoid_morphism(phi)]
    if violations:
        return violations

    for u in a.m.objects:
        if b.tau[phi.omap[u]] != chi1.omap[a.tau[u]]:
            violations.append(Violation("PrismMomentFailure", ("tau", u)))
        if b.sigma[phi.omap[u]] != chi2.omap[a.sigma[u]]:
            violations.append(Violation("PrismMomentFailure", ("sigma", u)))
    if violations:
        return violations

    # the four slanted faces of the prism, a side then b side
    sides = list(zip(a.sides(), b.sides(), (chi1, chi2)))
    for s, t, chi in sides:
        for (u, hh), mm in sorted(s.leg1.items()):
            if phi.amap[mm] != t.leg1[(phi.omap[u], chi.lmap[hh])]:
                violations.append(Violation("PrismFaceFailure", (s.tag + "1", u, hh)))
        for mm, g in sorted(s.leg2.items()):
            if chi.rmap[g] != t.leg2[phi.amap[mm]]:
                violations.append(Violation("PrismFaceFailure", (s.tag + "2", mm)))

    # SCM1/SCM2: Phi restricts to per-fiber group isomorphisms on the images
    for u in a.m.objects:
        up = phi.omap[u]
        for code, (s, t, _) in zip(("SCM1Failure", "SCM2Failure"), sides):
            src_fiber = {s.leg1[(u, hh)] for hh in s.xm.h.fiber(s.mom[u])}
            dst_fiber = {t.leg1[(up, hh)] for hh in t.xm.h.fiber(t.mom[up])}
            image = {phi.amap[mm] for mm in src_fiber}
            if len(image) != len(src_fiber) or image != dst_fiber:
                violations.append(Violation(code, (u,)))
    return violations


def validate_xext_homomorphism(src, dst, chi1, phi, chi2):
    hom = XExtHomomorphism(src, dst, chi1, phi, chi2)
    return require(hom, check_xext_homomorphism(hom))


def check_xext_equivalence(hom):
    """Equivalence = homomorphism + chi1, chi2 hypercovers + Phi a weak
    equivalence of groupoids (Z_Phi Morita test). Returns a report dict."""
    report = {"Homomorphism": check_xext_homomorphism(hom) == []}
    if report["Homomorphism"]:
        report["Chi1Hypercover"] = xmd.is_hypercover(hom.chi1)
        report["Chi2Hypercover"] = xmd.is_hypercover(hom.chi2)
        zphi = bb.bibundle_from_hom(hom.phi)
        ok, _ = bb.is_morita(zphi)
        report["PhiWeakEquivalence"] = ok
    return report


def is_xext_equivalence(hom):
    return all(check_xext_equivalence(hom).values())


def identity_homomorphism(a):
    return validate_xext_homomorphism(
        a, a, xmd.identity_xmorphism(a.src),
        identity_morphism(a.m), xmd.identity_xmorphism(a.dst))


def pullback_homomorphism(a, space, phi):
    """The canonical A[Z] -> A; an equivalence when phi is surjective."""
    az = cr.pullback_crossing(a, space, phi)
    proj = validate_groupoid_morphism(
        az.m, a.m, {z: phi[z] for z in set(space)},
        {arrow: az.m.parts[arrow][1] for arrow in az.m.arrows})
    return validate_xext_homomorphism(
        az, a, xmd.identity_xmorphism(a.src), proj,
        xmd.identity_xmorphism(a.dst))


def same_base_form(c):
    """Re-express a crossing over its own unit space: both crossed modules
    pulled back along the moments, legs rekeyed, moments identity."""
    if c.same_base():
        return c
    src_pb, _ = xmd.pullback_xmod(c.src, c.m.objects, c.tau)
    dst_pb, _ = xmd.pullback_xmod(c.dst, c.m.objects, c.sigma)
    ident = {u: u for u in c.m.objects}
    a1 = {(u, pair(u, h1)): mm for (u, h1), mm in c.a1.items()}
    b1 = {(u, pair(u, h2)): mm for (u, h2), mm in c.b1.items()}
    a2 = {mm: pair(c.m.tgt[mm], g1, c.m.src[mm]) for mm, g1 in c.a2.items()}
    b2 = {mm: pair(c.m.tgt[mm], g2, c.m.src[mm]) for mm, g2 in c.b2.items()}
    return cr.validate_crossing(src_pb, dst_pb, c.m, ident, ident, a1, a2, b1, b2,
                                c.is_extension)


def unit_equivalence(a):
    """The canonical equivalence t*A -> s*A with the alpha/beta
    twists and Phi^M from the identity bibundle of M."""
    asb = same_base_form(a)
    m = asb.m
    ta = same_base_form(cr.pullback_crossing(asb, m.arrows, m.tgt))
    sa = same_base_form(cr.pullback_crossing(asb, m.arrows, m.src))

    g1, h1b = asb.src.g, asb.src.h
    g2, h2b = asb.dst.g, asb.dst.h

    def twist_chi(src_mod, dst_mod, base_g, act_mod, leg2):
        lmap, rmap = {}, {}
        for hh in src_mod.h.arrows:
            mm, h0 = src_mod.h.parts[hh]
            lmap[hh] = pair(mm, act_mod.act(leg2[mm], h0))
        for arrow in src_mod.g.arrows:
            m1, g0, m2 = src_mod.g.parts[arrow]
            mid = base_g.comp[(base_g.comp[(base_g.inv[leg2[m1]], g0)], leg2[m2])]
            rmap[arrow] = pair(m1, mid, m2)
        return xmd.validate_strict_xmorphism(
            src_mod, dst_mod, {mm: mm for mm in m.arrows}, lmap, rmap)

    chi1 = twist_chi(ta.src, sa.src, g1, asb.src, asb.a2)
    chi2 = twist_chi(ta.dst, sa.dst, g2, asb.dst, asb.b2)
    # Phi^M of the identity bibundle, as bb.phi_Z builds it, over the
    # pulled-back middles ta.m and sa.m (the same groupoids, under the
    # same labels)
    ident = bb.identity_bibundle(m)
    g = bb.g_function(ident)
    amap = {}
    for arrow in ta.m.arrows:
        z, mm, z2 = ta.m.parts[arrow]
        amap[arrow] = pair(z, g[(z, ident.lact[(mm, z2)])], z2)
    phi = validate_groupoid_morphism(ta.m, sa.m, {z: z for z in ta.m.objects}, amap)
    return validate_xext_homomorphism(ta, sa, chi1, phi, chi2)


# -- semi-exchangers ----------------------------------------------------------


class SemiExchanger:
    """A bibundle between the middle groupoids of two crossings, subject to
    the E1/E2 orbit axioms.  One that validate_semi_exchanger returned is
    marked validated, and check_exchanger does not check E1/E2 again."""

    def __init__(self, source, target, p):
        self.source = source
        self.target = target
        self.p = p
        self.validated = False  # set by validate_semi_exchanger

    def __repr__(self):
        return f"SemiExchanger(|P|={len(self.p.space)})"


def trivial_exchanger(a):
    """I_M: the carrier M with translation actions."""
    return SemiExchanger(a, a, bb.identity_bibundle(a.m))


def _left_h_action(ex, s):
    """Induced left action table {(fiber-key, p) -> p'} through side s of
    the source crossing."""
    out = {}
    leg, fiber, mom = s.leg1, s.xm.h.fiber, s.mom
    for p in ex.p.space:
        u = ex.p.lmom[p]
        for hh in fiber(mom[u]):
            out[((u, hh), p)] = ex.p.lact[(leg[(u, hh)], p)]
    return out


def _right_h_action(ex, s):
    out = {}
    leg, fiber, mom = s.leg1, s.xm.h.fiber, s.mom
    for p in ex.p.space:
        v = ex.p.rmom[p]
        for hh in fiber(mom[v]):
            out[(p, (v, hh))] = ex.p.ract[(p, leg[(v, hh)])]
    return out


def check_semi_exchanger(ex):
    """E1: the H1-left and H3-right actions are free with equal orbit
    partitions of P; E2: the same for H2/H4."""
    violations = []
    for code, s, t in zip(("E1Failure", "E2Failure"), ex.source.sides(),
                          ex.target.sides()):
        left = _left_h_action(ex, s)
        right = _right_h_action(ex, t)
        lunit, lmom = s.xm.h.unit, s.mom
        runit, rmom = t.xm.h.unit, t.mom
        for ((u, hh), p), q in left.items():
            if q == p and hh != lunit[lmom[u]]:
                violations.append(Violation(code, ("left-not-free", p, hh)))
        for (p, (v, hh)), q in right.items():
            if q == p and hh != runit[rmom[v]]:
                violations.append(Violation(code, ("right-not-free", p, hh)))
        lorbits, rorbits = {}, {}
        for (_, p), q in left.items():
            lorbits.setdefault(p, set()).add(q)
        for (p, _), q in right.items():
            rorbits.setdefault(p, set()).add(q)
        for p in ex.p.space:
            lorbit = lorbits.get(p, set())
            rorbit = rorbits.get(p, set())
            if lorbit != rorbit:
                violations.append(Violation(code, ("orbit-mismatch", p,
                                                   tuple(sorted(lorbit ^ rorbit)))))
    return violations


def check_exchanger(ex):
    """E1/E2, unless validate_semi_exchanger passed ex, and the Morita test."""
    violations = [] if ex.validated else check_semi_exchanger(ex)
    ok, wit = bb.is_morita(ex.p)
    if not ok:
        violations += wit
    return violations


def validate_semi_exchanger(source, target, p):
    ex = SemiExchanger(source, target, p)
    require(ex, check_semi_exchanger(ex)).validated = True
    return ex


def actions_commute(ex):
    """H1/H2 left actions commute, H3/H4 right actions commute (the lemma
    after the exchanger definition); returns witnesses, per point the left
    ones, through the source crossing, then the right ones, through the
    target crossing."""
    out = []
    p = ex.p
    ends = (("left", ex.source.sides(), p.lmom, lambda x, z: p.lact[(x, z)]),
            ("right", ex.target.sides(), p.rmom, lambda x, z: p.ract[(z, x)]))
    for z in p.space:
        for tag, (a, b), mom, act in ends:
            u = mom[z]
            for h1 in a.xm.h.fiber(a.mom[u]):
                x = a.leg1[(u, h1)]
                for h2 in b.xm.h.fiber(b.mom[u]):
                    y = b.leg1[(u, h2)]
                    if act(x, act(y, z)) != act(y, act(x, z)):
                        out.append((tag, z, h1, h2))
    return out


def exchanger_from_homomorphism(hom):
    """The semi-exchanger over P_Phi = M^0 x_{Phi,t} N, the bibundle
    bb.bibundle_from_hom builds for Phi: m.(u,n) = (t(m), Phi(m)n) and
    (u,n).n' = (u, nn').  Verifies the orbit spaces that _check_pphi_orbits
    states, class by class."""
    ex = validate_semi_exchanger(hom.src, hom.dst, bb.bibundle_from_hom(hom.phi))
    _check_pphi_orbits(hom, ex)
    return ex


def _check_pphi_orbits(hom, ex):
    """The E1 orbit space is M^0 x_{chi2,t} G4 x_{s,sigma} N^0 via
    (u, n) -> (u, b2(n), s(n)); the E2 orbit space is
    M^0 x_{chi1,t} G3 x_{s,tau} N^0 via (u, n) -> (u, a2(n), s(n)).  The
    H-actions keep the right moment s(n), so it is part of the class; only
    when sigma (tau) is injective does b2(n) (a2(n)) fix it.  Raises
    CoherenceFailure on a class that is not one orbit."""
    n = hom.dst.m
    # side s of the source acts along the other side of the target
    for s, t in zip(hom.src.sides(), hom.dst.sides()[::-1]):
        classes = {}
        for z in ex.p.space:
            u, nn = ex.p.parts[z]
            classes.setdefault((u, t.leg2[nn], n.src[nn]), set()).add(z)
        # same class <=> same orbit under the matching H-actions
        left = _left_h_action(ex, s)
        for key, members in classes.items():
            probe = min(members)
            orbit = {q for ((u, hh), p0), q in left.items() if p0 == probe}
            if orbit != members:
                raise CoherenceFailure(("orbit space mismatch", key))


def vertical_compose(ex1, ex2):
    """P bullet Q over the middle crossed extension.  E1/E2 are not
    re-checked; validate_semi_exchanger checks them."""
    return SemiExchanger(ex1.source, ex2.target, bb.compose_bibundles(ex1.p, ex2.p))


def exchanger_inverse(ex):
    """Pbar with n.pbar = p n^-1, pbar.m = m^-1 p, plus the two witness
    isomorphisms P bullet Pbar => I_source and Pbar bullet P => I_target."""
    require(ex, check_exchanger(ex))
    pbar = bb.inverse_bibundle(ex.p)
    exbar = SemiExchanger(ex.target, ex.source, pbar)

    fwd, bwd = vertical_compose(ex, exbar), vertical_compose(exbar, ex)
    # [pz, qz] goes to the m with m.qz = pz, [qz, pz] to the n with qz.n = pz
    to_i_src = {c: fwd.p.parts[c][::-1] for c in fwd.p.space}
    to_i_tgt = {c: bwd.p.parts[c] for c in bwd.p.space}
    for side, eta in (("left", to_i_src), ("right", to_i_tgt)):
        table = bb.division(ex.p, side)[0]
        for c, key in eta.items():
            if key not in table:
                raise ExactnessSolveFailure((side + " division", c))
            eta[c] = table[key]
    m1 = validate_exchanger_morphism(fwd, trivial_exchanger(ex.source), to_i_src)
    m2 = validate_exchanger_morphism(bwd, trivial_exchanger(ex.target), to_i_tgt)
    return exbar, m1, m2


# -- morphisms of semi-exchangers ----------------------------------------------


class ExchangerMorphism:
    def __init__(self, src, dst, eta):
        self.src = src
        self.dst = dst
        self.eta = dict(eta)

    def is_bijective(self):
        return (len(set(self.eta.values())) == len(self.eta)
                and set(self.eta.values()) == set(self.dst.p.space))


def check_exchanger_morphism(mor):
    violations = []
    s, d = mor.src, mor.dst
    targets = set(d.p.space)
    for p in s.p.space:
        q = mor.eta.get(p)
        if q not in targets:
            violations.append(Violation("BadMorphismImage", (p,)))
            continue
        if d.p.lmom[q] != s.p.lmom[p] or d.p.rmom[q] != s.p.rmom[p]:
            violations.append(Violation("MomentNotRespected", (p,)))
    if violations:
        return violations
    for (mm, p), q in s.p.lact.items():
        if d.p.lact[(mm, mor.eta[p])] != mor.eta[q]:
            violations.append(Violation("NotEquivariant", ("left", mm, p)))
    for (p, nn), q in s.p.ract.items():
        if d.p.ract[(mor.eta[p], nn)] != mor.eta[q]:
            violations.append(Violation("NotEquivariant", ("right", p, nn)))
    return violations


def validate_exchanger_morphism(src, dst, eta):
    mor = ExchangerMorphism(src, dst, eta)
    return require(mor, check_exchanger_morphism(mor))


def _require_bijective(**morphisms):
    """Raise CoherenceFailure naming the first morphism that is not a
    bijection of carriers."""
    for name, mor in morphisms.items():
        if not mor.is_bijective():
            raise CoherenceFailure(("not bijective", name))


def identity_morphism_of(ex):
    return validate_exchanger_morphism(ex, ex, {p: p for p in ex.p.space})


def _read_off(src, dst, table):
    """The exchanger morphism src => dst that sends each class c of the
    bullet src to table[src.p.parts[c]]: one factor's action on the
    other, read at the parts [z1, z2] of the class."""
    return validate_exchanger_morphism(
        src, dst, {c: table[src.p.parts[c]] for c in src.p.space})


def structural_isos(ex1, ex2, ex3):
    """(a_{P,Q,T}, r_P, l_P): associator for the triple and the unitors of
    ex1, validated as invertible exchanger morphisms."""
    outer = vertical_compose(ex1, ex2)
    left = vertical_compose(outer, ex3)
    inner = vertical_compose(ex2, ex3)
    right = vertical_compose(ex1, inner)
    eta = {}
    for c in right.p.space:
        pz, inner_c = right.p.parts[c]
        qz, tz = inner.p.parts[inner_c]
        eta[c] = left.p.pair_class[pair(outer.p.pair_class[pair(pz, qz)], tz)]
    assoc = validate_exchanger_morphism(right, left, eta)

    r_p = _read_off(vertical_compose(trivial_exchanger(ex1.source), ex1), ex1, ex1.p.lact)
    l_p = _read_off(vertical_compose(ex1, trivial_exchanger(ex1.target)), ex1, ex1.p.ract)
    _require_bijective(assoc=assoc, r_p=r_p, l_p=l_p)
    return assoc, r_p, l_p


def morphism_compose(kind, eta, zeta):
    """horizontal: same hom-slot composition zeta . eta;
    vertical: (eta *v zeta)[p1, p2] = [eta p1, zeta p2] on bullets;
    spatial: (eta <> zeta)[p1, p2] = [eta p1, zeta p2] on diamonds."""
    if kind == "horizontal":
        if eta.dst is not zeta.src and set(eta.dst.p.space) != set(zeta.src.p.space):
            raise NotComposable("horizontal composition needs matching middle")
        return validate_exchanger_morphism(
            eta.src, zeta.dst, {p: zeta.eta[eta.eta[p]] for p in eta.eta})
    compose = {"vertical": vertical_compose, "spatial": horizontal_diamond}.get(kind)
    if compose is not None:
        src = compose(eta.src, zeta.src)
        dst = compose(eta.dst, zeta.dst)
        out = {}
        for c in src.p.space:
            p1, p2 = src.p.parts[c]
            out[c] = dst.p.pair_class[pair(eta.eta[p1], zeta.eta[p2])]
        return validate_exchanger_morphism(src, dst, out)
    raise NotComposable(f"unknown composition kind {kind!r}")


# -- horizontal diamond ---------------------------------------------------------


def horizontal_diamond(ex1, ex2, diamonds=(None, None)):
    """P1 <> P2: the quotient of the double fibered product of carriers by the
    H2 x H5 action, an exchanger (A1 <> B1) => (A2 <> B2).

    Requires same-base columns: sources of ex1/ex2 over a common X, targets
    over a common Y (pullback-normalize first otherwise).  diamonds may
    give A1 <> B1 and A2 <> B2, already built by cr.diamond from these
    same crossings; a None is built here.

    The carrier pairs over moments (u, v) are glued along the action of the
    fibre product H2(sigma u) x H5(sigma v), whose orbits are the classes.
    When both carriers passed check_bibundle and both bundles are validated,
    a pair is linked only through (s, 1) and (1, t), for s and t generators
    (Groupoid.gens) of the two fibres.  These generate the product
    group, and it acts: the legs of the validated crossings are
    homomorphisms into the loops at u and v, and the carriers' actions
    commute and keep the moments.  So the links give the same orbits, and
    the same classes, least members and labels, as linking through every
    (h2, h5), which the other inputs get."""
    a1c, b1c = ex1.source, ex2.source
    a2c, b2c = ex1.target, ex2.target
    for (u, v) in ((a1c, b1c), (a2c, b2c)):
        if not (u.same_base() and v.same_base() and
                u.m.objects == v.m.objects):
            raise NotComposable("horizontal_diamond needs same-base columns; "
                                "pullback-normalize the inputs first")
    src_d, dst_d = diamonds
    if src_d is None:
        src_d = cr.diamond(a1c, b1c)
    if dst_d is None:
        dst_d = cr.diamond(a2c, b2c)
    p1, p2 = ex1.p, ex2.p
    label = {(x, y): pair(x, y) for x in p1.space for y in p2.space
             if p1.lmom[x] == p2.lmom[y] and p1.rmom[x] == p2.rmom[y]}
    if not label:
        raise NotComposable("EmptyDiamond: no compatible carrier pairs")
    carrier = {z: xy for xy, z in label.items()}
    # Quotient by the diagonal (h2, h5)-action of the H2 x H5 bundle:
    # (h2,h5).(p1,p2) = (b1(h2) p1 mu1(h5)^-1, d1(h2) p2 nu1(h5)^-1).
    h2b, h5b = a1c.dst.h, a2c.dst.h
    by_gens = p1.divisions is not None and p2.divisions is not None and \
        h2b.gens() is not None and h5b.gens() is not None
    if by_gens:
        gens2, gens5 = {}, {}  # point -> the generators of the fibre there
        for bundle, gens in ((h2b, gens2), (h5b, gens5)):
            for s in bundle.gens():
                gens.setdefault(bundle.src[s], []).append(s)
    links = []
    for z, (x, y) in carrier.items():
        u = p1.lmom[x]
        v = p1.rmom[x]
        w2, w5 = a1c.sigma[u], a2c.sigma[v]
        if by_gens:
            moves = [(s, h5b.unit[w5]) for s in gens2.get(w2, ())] + \
                [(h2b.unit[w2], t) for t in gens5.get(w5, ())]
        else:
            moves = [(h2, h5) for h2 in h2b.fiber(w2) for h5 in h5b.fiber(w5)]
        for h2, h5 in moves:
            x1 = p1.lact[(a1c.b1[(u, h2)], x)]
            y1 = p2.lact[(b1c.a1[(u, h2)], y)]
            x2 = p1.ract[(x1, p1.right.inv[a2c.b1[(v, h5)]])]
            y2 = p2.ract[(y1, p2.right.inv[b2c.a1[(v, h5)]])]
            links.append((label[(x2, y2)], z))

    def lact(mm, r):
        m1, m2 = src_d.m.parts[mm]
        return label[(p1.lact[(m1, r[0])], p2.lact[(m2, r[1])])]

    def ract(r, nn):
        n1, n2 = dst_d.m.parts[nn]
        return label[(p1.ract[(r[0], n1)], p2.ract[(r[1], n2)])]

    whole = bb.quotient_bibundle(src_d.m, dst_d.m, carrier, links,
                                    lambda r: p1.lmom[r[0]], lambda r: p1.rmom[r[0]],
                                    lact, ract)
    # The double-fibered carrier splits into action-closed components; only
    # components that are genuinely principal represent the composite 1-cell
    # (the unrestricted carrier is too wide when the middle bundles are
    # small).  Return the valid component whose least class label is least:
    # a choice that depends on label order, not on structure alone.
    component, _ = quotient({c: c for c in whole.space},
                            [(c, v) for (_, c), v in whole.lact.items()] +
                            [(c, v) for (c, _), v in whole.ract.items()])
    components = {}
    for c, k in component.items():
        components.setdefault(k, []).append(c)
    failures = []
    for members in components.values():
        comp_set = set(members)
        sub_lact = {k: v for k, v in whole.lact.items() if k[1] in comp_set}
        sub_ract = {k: v for k, v in whole.ract.items() if k[0] in comp_set}
        try:
            p = bb.validate_bibundle(src_d.m, dst_d.m, members,
                                     {c: whole.lmom[c] for c in members},
                                     {c: whole.rmom[c] for c in members},
                                     sub_lact, sub_ract)
        except ValidationFailure as e:
            failures.extend(e.violations)
            continue
        p.parts = {c: whole.parts[c] for c in members}
        p.pair_class = {z: c for z, c in whole.pair_class.items() if c in comp_set}
        out = SemiExchanger(src_d, dst_d, p)
        violations = check_semi_exchanger(out)
        if violations:
            failures.extend(violations)
            continue
        return out
    raise ValidationFailure(failures or
                            [Violation("EmptyDiamond", None)])


def eta_square(ex_p1, ex_p2, ex_q1, ex_q2):
    """The coherence square: the component permutation
    (P1 <> P2) bullet (Q1 <> Q2)  =>  (P1 bullet Q1) <> (P2 bullet Q2).

    Each diamond of crossings is built once: P1 <> P2 ends at the one that
    Q1 <> Q2 starts at when Q1, Q2 start at the very crossings where P1,
    P2 end, and (P1 bullet Q1) <> (P2 bullet Q2) runs from the source of
    P1 <> P2 to the target of Q1 <> Q2."""
    dp = horizontal_diamond(ex_p1, ex_p2)
    shared = ex_q1.source is ex_p1.target and ex_q2.source is ex_p2.target
    dq = horizontal_diamond(ex_q1, ex_q2, (dp.target if shared else None, None))
    lhs = vertical_compose(dp, dq)
    bq1 = vertical_compose(ex_p1, ex_q1)
    bq2 = vertical_compose(ex_p2, ex_q2)
    rhs = horizontal_diamond(bq1, bq2, (dp.source, dq.target))
    eta = {}
    for c in lhs.p.space:
        dmc, dqc = lhs.p.parts[c]
        pz1, pz2 = dp.p.parts[dmc]
        qz1, qz2 = dq.p.parts[dqc]
        left_cls = bq1.p.pair_class[pair(pz1, qz1)]
        right_cls = bq2.p.pair_class[pair(pz2, qz2)]
        eta[c] = rhs.p.pair_class[pair(left_cls, right_cls)]
    return validate_exchanger_morphism(lhs, rhs, eta)


# -- exchanger decomposition ----------------------------------------------------


def _matched_triples(p, s, t):
    """{pair(h, pz, k): (h, pz, k)} with s.leg1(h).pz = pz.t.leg1(k), for s
    a side of the source crossing and t the same side of the target."""
    out = {}
    for pz in p.space:
        u, v = p.lmom[pz], p.rmom[pz]
        for hh in s.xm.h.fiber(s.mom[u]):
            moved = p.lact[(s.leg1[(u, hh)], pz)]
            for kk in t.xm.h.fiber(t.mom[v]):
                if p.ract[(pz, t.leg1[(v, kk)])] == moved:
                    out[pair(hh, pz, kk)] = (hh, pz, kk)
    return out


def _quotient_middle(p, mn, s, t):
    """MN / (H x H') by the leg1 images of side s of the source and side t
    of the target: the b sides give the Q1 of the G1^P module, the a sides
    the Q2. Returns (groupoid, class_of); the groupoid's parts map each
    class to its least arrow of MN."""
    m, n = p.left, p.right
    links = []
    for q in mn.arrows:
        mm, p1, p2, nn = mn.parts[q]
        u2, v1 = p.lmom[p2], p.rmom[p1]
        for h2 in s.xm.h.fiber(s.mom[u2]):
            m2 = m.comp[(mm, s.leg1[(u2, h2)])]
            for h4 in t.xm.h.fiber(t.mom[v1]):
                q2 = pair(m2, p1, p2, n.comp[(t.leg1[(v1, h4)], nn)])
                if q2 in mn.arrows:
                    links.append((q2, q))
    gpd, class_of = quotient_groupoid(
        mn.objects, {q: q for q in mn.arrows}, links, mn.src.__getitem__,
        mn.tgt.__getitem__, mn.inv.__getitem__, mn.unit.__getitem__,
        lambda q, q2: mn.comp[(q, q2)])
    return gpd, class_of


def _decomp_module(p, mn, s, t, qgpd, class_of):
    """The crossed module (H_s *_P H_t -> Q) of the decomposition, for s a
    side of the source crossing and t the same side of the target; Q is a
    quotient of MN by _quotient_middle."""
    parts = _matched_triples(p, s, t)
    ba, bbnd = s.xm.h, t.xm.h
    bundle = as_group_bundle(groupoid_of_parts(
        p.space, parts, lambda r: r[1], lambda r: r[1],
        lambda r: pair(ba.inv[r[0]], r[1], bbnd.inv[r[2]]),
        lambda pz: pair(ba.unit[s.mom[p.lmom[pz]]], pz, bbnd.unit[t.mom[p.rmom[pz]]]),
        lambda r, r2: pair(ba.comp[(r[0], r2[0])], r[1], bbnd.comp[(r[2], r2[2])])))
    boundary = {x: class_of[pair(s.leg1[(p.lmom[pz], h)], pz, pz,
                                 t.leg1[(p.rmom[pz], k)])]
                for x, (h, pz, k) in parts.items()}
    act = {}
    for c in qgpd.arrows:
        mm, p1, p2, nn = mn.parts[qgpd.parts[c]]
        for x in bundle.fiber(p1):
            h, _, k = parts[x]
            act[(c, x)] = pair(s.xm.act(s.leg2[mm], h), p2,
                               t.xm.act(t.leg2[nn], k))
    mod = xmd.validate_crossed_module(qgpd, bundle, boundary,
                                      validate_action(qgpd, bundle, act))
    return mod


def exchanger_decompose(ex):
    """The third crossed extension P over the carrier and the two
    equivalence homomorphisms A <- P -> B of the decomposition theorem.

    Returns (P, hom_to_source, hom_to_target)."""
    require(ex, check_exchanger(ex))
    a = same_base_form(ex.source)
    b = same_base_form(ex.target)
    p0 = ex.p
    p = bb.Bibundle(a.m, b.m, p0.space, p0.lmom, p0.rmom, p0.lact, p0.ract)

    mn = bb.projective_groupoid(p)
    # per side: G^P_side = (H_s *_P H_t -> MN / the other side's images)
    sides = list(zip(a.sides(), b.sides()))
    quotients = [_quotient_middle(p, mn, s, t) for s, t in sides[::-1]]
    mods, legs1, legs2 = [], [], []
    for (s, t), (qgpd, q_class) in zip(sides, quotients):
        mod = _decomp_module(p, mn, s, t, qgpd, q_class)
        leg1 = {}
        for x in mod.h.arrows:
            h, pz, k = mod.h.parts[x]
            leg1[(pz, x)] = pair(s.leg1[(p.lmom[pz], h)], pz, pz,
                                 t.leg1[(p.rmom[pz], k)])
        mods.append(mod)
        legs1.append(leg1)
        legs2.append({q: q_class[q] for q in mn.arrows})
    ident = {pz: pz for pz in p.space}
    pext = cr.validate_crossing(*mods, mn, ident, ident, legs1[0], legs2[0],
                                legs1[1], legs2[1], extension=True)

    # the legs onto the source and the target: each reads the first or the
    # last factor of the H triples (h, pz, k) and MN quadruples (m, p1, p2, n)
    homs = []
    for end, mom, hpos, mpos in ((a, p.lmom, 0, 0), (b, p.rmom, 2, 3)):
        omap = {pz: mom[pz] for pz in p.space}
        chis = [xmd.validate_strict_xmorphism(
            mod, s.xm, omap, {h: mod.h.parts[h][hpos] for h in mod.h.arrows},
            {c: s.leg2[mn.parts[mod.g.parts[c]][mpos]] for c in mod.g.arrows})
            for mod, s in zip(mods, end.sides())]
        pr = validate_groupoid_morphism(mn, end.m, omap,
                                        {q: mn.parts[q][mpos] for q in mn.arrows})
        homs.append(validate_xext_homomorphism(pext, end, chis[0], pr, chis[1]))
    return (pext, *homs)


# -- weak-unit witnesses --------------------------------------------------------


def _on_arrows(left, right, lact):
    """The bibundle left -> right on the arrows of right, with moments tgt
    and src, the left action lact and right translation."""
    return bb.validate_bibundle(
        left, right, right.arrows, {z: right.tgt[z] for z in right.arrows},
        {z: right.src[z] for z in right.arrows}, lact,
        {(z, n): right.comp[(z, n)] for z in right.arrows
         for n in right.arrows_to(right.src[z])})


def _unit_witness(msb, s, o_first, h_of):
    """(W, Wbar) for side s of the same-base crossing msb, with O =
    cr.trivial_xext(s.xm) and d the diamond of msb with O on that side:
    msb <> O, or O <> msb when o_first.  A class of d has the parts
    (m, o), or (o, m) when o_first, with m an arrow of M and o = (k, g) a
    cell of O; h_of(k) is the element of H that o carries to the M side
    (k through O's b1, k^-1 through its a1).

    W: d => msb on the carrier M: the class of (m, o) moves m2 to
    s.leg1(h_of(k)) m m2.  Wbar: msb => d on the carrier d.m: m moves the
    class of (m1, (k, g)) to that of (m m1, (k^{leg2(m)^-1}, leg2(m) g)).
    Both act on the right by translation."""
    m, xm = msb.m, s.xm
    o = cr.trivial_xext(xm)
    d = cr.diamond(o, msb) if o_first else cr.diamond(msb, o)

    def ordered(x, y):
        # d's class parts as (M arrow, O cell), and (M arrow, O cell) as d's parts
        return (y, x) if o_first else (x, y)

    lact = {}
    for cls in d.m.arrows:
        mm, ocell = ordered(*d.m.parts[cls])
        shift = m.comp[(s.leg1[(m.tgt[mm], h_of(o.m.parts[ocell][0]))], mm)]
        for m2 in m.arrows_to(m.src[mm]):
            lact[(cls, m2)] = m.comp[(shift, m2)]
    w = SemiExchanger(d, msb, _on_arrows(d.m, m, lact))

    lact_bar = {}
    for mm in m.arrows:
        gm = s.leg2[mm]
        for cls in d.m.arrows:
            m1, ocell = ordered(*d.m.parts[cls])
            if m.tgt[m1] == m.src[mm]:
                k, g = o.m.parts[ocell]
                moved = pair(xm.act(xm.g.inv[gm], k), xm.g.comp[(gm, g)])
                lact_bar[(mm, cls)] = d.pair_class[pair(*ordered(m.comp[(mm, m1)], moved))]
    return w, SemiExchanger(msb, d, _on_arrows(m, d.m, lact_bar))


def unit_witnesses(c):
    """R, Rbar, L, Lbar for a crossing M: G1 -x- G2, plus the four canonical
    invertible morphisms relating their bullets to trivial exchangers.

    R: M <> O_{G2} => M and Rbar are _unit_witness run on the b side of
    the same-base form, L: O_{G1} <> M => M and Lbar on the a side.  The
    morphism out of W . Wbar reads Wbar's left action off each class, the
    one out of Wbar . W reads W's.

    Returns a dict with the four semi-exchangers, the four morphisms, and
    E1/E2 reports (freeness can genuinely fail for non-extension crossings;
    the morphisms are invertible regardless)."""
    msb = same_base_form(c)
    a, b = msb.sides()
    r_ex, rbar_ex = _unit_witness(msb, b, False, lambda k: k)
    l_ex, lbar_ex = _unit_witness(msb, a, True, a.xm.h.inv.__getitem__)
    i_msb = trivial_exchanger(msb)
    mus = {}
    for name, w, wbar in (("R", r_ex, rbar_ex), ("L", l_ex, lbar_ex)):
        mus[f"mu_{name}_to_unit"] = _read_off(
            vertical_compose(w, wbar), trivial_exchanger(w.source), wbar.p.lact)
        mus[f"mu_{name}bar_to_unit"] = _read_off(vertical_compose(wbar, w), i_msb, w.p.lact)
    _require_bijective(**mus)
    witnesses = {"R": r_ex, "Rbar": rbar_ex, "L": l_ex, "Lbar": lbar_ex}
    return {**witnesses, **mus,
            "reports": {name: check_semi_exchanger(w) for name, w in witnesses.items()}}
