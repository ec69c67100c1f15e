"""Crossings and crossed extensions of groupoid crossed modules: validation
of CR1-CR4 (and CR3'), construction from strict morphisms and hypercovers,
the decomposition theorem, diamond products, crossed semidirect products,
pullbacks, and the M-diamond-Mbar equivalence."""

from .errors import (CoherenceFailure, EmptyFiberedProduct, ExactnessSolveFailure,
                     NotAHypercover, ValidationFailure, Violation)
from . import bibundle as bb
from . import xmod as xmd
from .fingrpd import (aut_label, pullback_groupoid, validate_action,
                      validate_group_bundle, validate_groupoid,
                      validate_groupoid_morphism)
from .util import UnionFind, cls_label, pair, strip_class, unpair


class Crossing:
    """(M, a1, a2, b1, b2) interpolating src_xmod and dst_xmod through the
    moments tau: M^0 -> X1 and sigma: M^0 -> X2.

    Leg tables: a1[(u, h1)] and b1[(u, h2)] give loops of M at u (legs of the
    pulled-back bundles); a2[m] and b2[m] give the base-groupoid components
    of the pullback arrows (t(m), g, s(m))."""

    is_extension = False

    def __init__(self, src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2):
        self.src = src_xmod
        self.dst = dst_xmod
        self.m = m
        self.tau = dict(tau)
        self.sigma = dict(sigma)
        self.a1 = dict(a1)
        self.a2 = dict(a2)
        self.b1 = dict(b1)
        self.b2 = dict(b2)

    def same_base(self):
        x1, x2 = self.src.g.objects, self.dst.g.objects
        return (set(self.m.objects) == set(x1) == set(x2)
                and all(self.tau[u] == u for u in self.m.objects)
                and all(self.sigma[u] == u for u in self.m.objects))

    def __repr__(self):
        kind = "CrossedExtension" if self.is_extension else "Crossing"
        return f"{kind}(|M|={len(self.m)})"


class CrossedExtension(Crossing):
    is_extension = True


def _leg_domain(xm, moment, m):
    for u in sorted(m.objects):
        for hh in xm.h.fiber(moment[u]):
            yield u, hh


def check_crossing(c, prime=False):
    violations = []
    m = c.m
    src, dst = c.src, c.dst
    for u in m.objects:
        if c.tau.get(u) not in src.g.objects or c.sigma.get(u) not in dst.g.objects:
            violations.append(Violation("BadMoment", (u,)))
    if violations:
        return violations

    # legs are total, endpoint-correct groupoid morphisms
    for u, hh in _leg_domain(src, c.tau, m):
        mm = c.a1.get((u, hh))
        if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
            violations.append(Violation("BadLeg", ("a1", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        mm = c.b1.get((u, hh))
        if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
            violations.append(Violation("BadLeg", ("b1", u, hh)))
    for mm in m.arrows:
        g1 = c.a2.get(mm)
        if g1 not in src.g.arrows or src.g.tgt[g1] != c.tau[m.tgt[mm]] \
                or src.g.src[g1] != c.tau[m.src[mm]]:
            violations.append(Violation("BadLeg", ("a2", mm)))
        g2 = c.b2.get(mm)
        if g2 not in dst.g.arrows or dst.g.tgt[g2] != c.sigma[m.tgt[mm]] \
                or dst.g.src[g2] != c.sigma[m.src[mm]]:
            violations.append(Violation("BadLeg", ("b2", mm)))
    if violations:
        return violations

    # CR1: legs are the identity on the unit space
    for u in m.objects:
        if c.a1[(u, src.h.unit[c.tau[u]])] != m.unit[u]:
            violations.append(Violation("CR1Failure", ("a1", u)))
        if c.b1[(u, dst.h.unit[c.sigma[u]])] != m.unit[u]:
            violations.append(Violation("CR1Failure", ("b1", u)))
        if c.a2[m.unit[u]] != src.g.unit[c.tau[u]]:
            violations.append(Violation("CR1Failure", ("a2", u)))
        if c.b2[m.unit[u]] != dst.g.unit[c.sigma[u]]:
            violations.append(Violation("CR1Failure", ("b2", u)))

    for u in m.objects:
        for ha in src.h.fiber(c.tau[u]):
            for hb in src.h.fiber(c.tau[u]):
                prod = src.h.comp[(ha, hb)]
                if c.a1[(u, prod)] != m.comp[(c.a1[(u, ha)], c.a1[(u, hb)])]:
                    violations.append(Violation("BadLeg", ("a1-hom", u, ha, hb)))
        for ha in dst.h.fiber(c.sigma[u]):
            for hb in dst.h.fiber(c.sigma[u]):
                prod = dst.h.comp[(ha, hb)]
                if c.b1[(u, prod)] != m.comp[(c.b1[(u, ha)], c.b1[(u, hb)])]:
                    violations.append(Violation("BadLeg", ("b1-hom", u, ha, hb)))
    for ma, mb in m.composable_pairs():
        if c.a2[m.comp[(ma, mb)]] != src.g.comp[(c.a2[ma], c.a2[mb])]:
            violations.append(Violation("BadLeg", ("a2-hom", ma, mb)))
        if c.b2[m.comp[(ma, mb)]] != dst.g.comp[(c.b2[ma], c.b2[mb])]:
            violations.append(Violation("BadLeg", ("b2-hom", ma, mb)))
    if violations:
        return violations

    # CR2: both diagonals are complexes (composites land in unit arrows)
    for u, hh in _leg_domain(src, c.tau, m):
        if not dst.g.is_unit(c.b2[c.a1[(u, hh)]]):
            violations.append(Violation("CR2Failure", ("b2.a1", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        if not src.g.is_unit(c.a2[c.b1[(u, hh)]]):
            violations.append(Violation("CR2Failure", ("a2.b1", u, hh)))

    # commuting outer square: tau^* d1 = a2 . a1 and sigma^* d2 = b2 . b1
    for u, hh in _leg_domain(src, c.tau, m):
        if c.a2[c.a1[(u, hh)]] != src.boundary[hh]:
            violations.append(Violation("SquareFailure", ("a", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        if c.b2[c.b1[(u, hh)]] != dst.boundary[hh]:
            violations.append(Violation("SquareFailure", ("b", u, hh)))

    # CR3: BL-TR is an extension: b1 injective, a2 surjective (onto the
    # pullback groupoid), kernel of a2 = image of b1
    b1_img = set(c.b1.values())
    if len(b1_img) != len(c.b1):
        violations.append(Violation("CR3Failure", ("b1-not-injective",)))
    for u1 in m.objects:
        for u2 in m.objects:
            for g1 in src.g.hom(c.tau[u2], c.tau[u1]):
                if not any(m.tgt[mm] == u1 and m.src[mm] == u2
                           and c.a2[mm] == g1 for mm in m.arrows):
                    violations.append(Violation("CR3Failure",
                                                ("a2-not-surjective", u1, g1, u2)))
    a2_kernel = {mm for mm in m.arrows
                 if src.g.is_unit(c.a2[mm]) and m.src[mm] == m.tgt[mm]}
    if a2_kernel != b1_img:
        violations.append(Violation(
            "CR3Failure", ("kernel-vs-image", tuple(sorted(a2_kernel ^ b1_img)))))

    # CR4: a1(h1^{a2(m)}) = m^-1 a1(h1) m and the b-version
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for hh in src.h.fiber(c.tau[u1]):
            lhs = c.a1[(u2, src.act(c.a2[mm], hh))]
            rhs = m.comp[(m.comp[(m.inv[mm], c.a1[(u1, hh)])], mm)]
            if lhs != rhs:
                violations.append(Violation("CR4Failure", ("a", mm, hh)))
        for hh in dst.h.fiber(c.sigma[u1]):
            lhs = c.b1[(u2, dst.act(c.b2[mm], hh))]
            rhs = m.comp[(m.comp[(m.inv[mm], c.b1[(u1, hh)])], mm)]
            if lhs != rhs:
                violations.append(Violation("CR4Failure", ("b", mm, hh)))

    if prime:
        violations += check_cr3_prime(c)
    return violations


def check_cr3_prime(c):
    """CR3': TL-BR is an extension (a1 injective, b2 surjective,
    kernel of b2 = image of a1)."""
    violations = []
    m, src, dst = c.m, c.src, c.dst
    a1_img = set(c.a1.values())
    if len(a1_img) != len(c.a1):
        violations.append(Violation("CR3PrimeFailure", ("a1-not-injective",)))
    for u1 in m.objects:
        for u2 in m.objects:
            for g2 in dst.g.hom(c.sigma[u2], c.sigma[u1]):
                if not any(m.tgt[mm] == u1 and m.src[mm] == u2
                           and c.b2[mm] == g2 for mm in m.arrows):
                    violations.append(Violation("CR3PrimeFailure",
                                                ("b2-not-surjective", u1, g2, u2)))
    b2_kernel = {mm for mm in m.arrows
                 if dst.g.is_unit(c.b2[mm]) and m.src[mm] == m.tgt[mm]}
    if b2_kernel != a1_img:
        violations.append(Violation(
            "CR3PrimeFailure", ("kernel-vs-image", tuple(sorted(b2_kernel ^ a1_img)))))
    return violations


def validate_crossing(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2):
    c = Crossing(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2)
    violations = check_crossing(c)
    if violations:
        raise ValidationFailure(violations)
    return c


def validate_crossed_extension(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2):
    c = CrossedExtension(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2)
    violations = check_crossing(c, prime=True)
    if violations:
        raise ValidationFailure(violations)
    return c


def images_commute(c):
    """Exhaustive check that a1- and b1-images commute in M (the consequence
    of CR2-CR4); returns witnesses of failure."""
    out = []
    for u in c.m.objects:
        for h1 in c.src.h.fiber(c.tau[u]):
            x = c.a1[(u, h1)]
            for h2 in c.dst.h.fiber(c.sigma[u]):
                y = c.b1[(u, h2)]
                if c.m.comp[(x, y)] != c.m.comp[(y, x)]:
                    out.append((u, h1, h2))
    return out


# -- constructions -----------------------------------------------------------


def crossing_from_strict(chi, as_extension=False):
    """The crossing induced by a strict morphism chi: G1 -> G2.

    Same-base chi (identity on objects): M = H2 x| G1 with the four legs of
    the semidirect construction. Otherwise: the Z_chi pullback twist."""
    d, c = chi.dom, chi.cod
    if set(d.g.objects) == set(c.g.objects) and \
            all(chi.omap[x] == x for x in d.g.objects):
        return _crossing_same_base(chi, as_extension)
    return _crossing_general(chi, as_extension)


def _crossing_same_base(chi, as_extension):
    d, c = chi.dom, chi.cod
    m, action = xmd.semidirect_of_morphism(chi)
    ident = {x: x for x in d.g.objects}
    a1, a2, b1, b2 = {}, {}, {}, {}
    for x in d.g.objects:
        for h1 in d.h.fiber(x):
            a1[(x, h1)] = pair(chi.lmap[d.h.inv[h1]], d.boundary[h1])
    for x in c.g.objects:
        for h2 in c.h.fiber(x):
            b1[(x, h2)] = pair(h2, d.g.unit[x])
    for arrow in m.arrows:
        h2, g1 = unpair(arrow)
        a2[arrow] = g1
        b2[arrow] = c.g.comp[(c.boundary[h2], chi.rmap[g1])]
    make = validate_crossed_extension if as_extension else validate_crossing
    return make(d, c, m, ident, ident, a1, a2, b1, b2)


def _crossing_general(chi, as_extension):
    d, c = chi.dom, chi.cod
    space = [pair(x, g2) for x in sorted(d.g.objects)
             for g2 in c.g.arrows_to(chi.omap[x])]
    tau = {z: unpair(z)[0] for z in space}
    sigma = {z: c.g.src[unpair(z)[1]] for z in space}
    pb1, _ = xmd.pullback_xmod(d, space, tau)
    pb2, _ = xmd.pullback_xmod(c, space, sigma)
    lmap, rmap = {}, {}
    for z in space:
        x, g2 = unpair(z)
        for h1 in d.h.fiber(x):
            lmap[pair(z, h1)] = pair(z, c.act(g2, chi.lmap[h1]))
    for arrow in pb1.g.arrows:
        z1, g1, z2 = unpair(arrow, 3)
        _, f2 = unpair(z1)
        _, g2 = unpair(z2)
        mid = c.g.comp[(c.g.comp[(c.g.inv[f2], chi.rmap[g1])], g2)]
        rmap[arrow] = pair(z1, mid, z2)
    chi_tilde = xmd.validate_strict_xmorphism(
        pb1, pb2, {z: z for z in space}, lmap, rmap)
    core = _crossing_same_base(chi_tilde, as_extension)
    # re-expose the original crossed modules through the pullback moments
    a1 = {(z, h1): core.a1[(z, pair(z, h1))]
          for z in space for h1 in d.h.fiber(tau[z])}
    b1 = {(z, h2): core.b1[(z, pair(z, h2))]
          for z in space for h2 in c.h.fiber(sigma[z])}
    a2 = {mm: unpair(core.a2[mm], 3)[1] for mm in core.m.arrows}
    b2 = {mm: unpair(core.b2[mm], 3)[1] for mm in core.m.arrows}
    make = validate_crossed_extension if as_extension else validate_crossing
    return make(d, c, core.m, tau, sigma, a1, a2, b1, b2)


def xext_from_hypercover(chi):
    report = xmd.hypercover_report(chi)
    if not all(report.values()):
        raise NotAHypercover(str(report))
    return crossing_from_strict(chi, as_extension=True)


def trivial_xext(xm):
    """O_G: the endocrossing of the identity morphism, a crossed extension."""
    return crossing_from_strict(xmd.identity_xmorphism(xm), as_extension=True)


def mbar(c):
    """Swap the legs: a crossed extension of (dst, src)."""
    flipped = CrossedExtension(c.dst, c.src, c.m, dict(c.sigma), dict(c.tau),
                               dict(c.b1), dict(c.b2), dict(c.a1), dict(c.a2))
    violations = check_crossing(flipped, prime=True)
    if violations:
        raise ValidationFailure(violations)
    return flipped


# -- pullback ---------------------------------------------------------------


def pullback_crossing(c, space, phi):
    """M[Z] along phi: Z -> M^0; preserves crossed-extension status
    (surjectivity of phi is not needed)."""
    mz = pullback_groupoid(c.m, space, phi)
    tau = {z: c.tau[phi[z]] for z in set(space)}
    sigma = {z: c.sigma[phi[z]] for z in set(space)}
    a1 = {(z, h1): pair(z, c.a1[(phi[z], h1)], z)
          for z in set(space) for h1 in c.src.h.fiber(tau[z])}
    b1 = {(z, h2): pair(z, c.b1[(phi[z], h2)], z)
          for z in set(space) for h2 in c.dst.h.fiber(sigma[z])}
    a2 = {arrow: c.a2[unpair(arrow, 3)[1]] for arrow in mz.arrows}
    b2 = {arrow: c.b2[unpair(arrow, 3)[1]] for arrow in mz.arrows}
    make = validate_crossed_extension if c.is_extension else validate_crossing
    return make(c.src, c.dst, mz, tau, sigma, a1, a2, b1, b2)


# -- decomposition ------------------------------------------------------------


def decompose_crossing(c):
    """The third crossed module G' = (H1[M^0] x H2[M^0] -> M) with the two
    projection strict morphisms; chi_left is a hypercover, and chi_right too
    when c is a crossed extension."""
    m = c.m
    harrows, hsrc, hinv, hcomp = [], {}, {}, {}
    for u in sorted(m.objects):
        for h1 in c.src.h.fiber(c.tau[u]):
            for h2 in c.dst.h.fiber(c.sigma[u]):
                a = pair(u, h1, h2)
                harrows.append(a)
                hsrc[a] = u
                hinv[a] = pair(u, c.src.h.inv[h1], c.dst.h.inv[h2])
    hunit = {u: pair(u, c.src.h.unit[c.tau[u]], c.dst.h.unit[c.sigma[u]])
             for u in m.objects}
    for a in harrows:
        u, h1, h2 = unpair(a, 3)
        for b_ in harrows:
            v, k1, k2 = unpair(b_, 3)
            if v == u:
                hcomp[(a, b_)] = pair(u, c.src.h.comp[(h1, k1)],
                                      c.dst.h.comp[(h2, k2)])
    bundle = validate_group_bundle(m.objects, harrows, hsrc, dict(hsrc),
                                   hinv, hunit, hcomp)
    boundary = {}
    for a in harrows:
        u, h1, h2 = unpair(a, 3)
        boundary[a] = m.comp[(c.a1[(u, h1)], c.b1[(u, h2)])]
    act = {}
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for a in bundle.fiber(u1):
            _, h1, h2 = unpair(a, 3)
            act[(mm, a)] = pair(u2, c.src.act(c.a2[mm], h1),
                                c.dst.act(c.b2[mm], h2))
    gprime = xmd.validate_crossed_module(m, bundle, boundary,
                                         validate_action(m, bundle, act))
    chi_left = xmd.validate_strict_xmorphism(
        gprime, c.src, dict(c.tau),
        {a: unpair(a, 3)[1] for a in harrows},
        {mm: c.a2[mm] for mm in m.arrows})
    chi_right = xmd.validate_strict_xmorphism(
        gprime, c.dst, dict(c.sigma),
        {a: unpair(a, 3)[2] for a in harrows},
        {mm: c.b2[mm] for mm in m.arrows})
    return gprime, chi_left, chi_right


# -- diamond ------------------------------------------------------------------


def diamond(cm, cn):
    """The diamond product of crossings cm: G1 -x- G2 and cn: G2 -x- G3.

    Requires the shared middle crossed module; pulls both back to the fibered
    product of unit spaces unless the bases and moments already agree."""
    if cn.src is not cm.dst and not _same_xmod(cn.src, cm.dst):
        raise ValidationFailure([Violation("MiddleMismatch", None)])
    if set(cm.m.objects) == set(cn.m.objects) and \
            all(cm.sigma[u] == cn.tau[u] for u in cm.m.objects):
        return _diamond_core(cm, cn)
    z = [pair(u, v) for u in sorted(cm.m.objects) for v in sorted(cn.m.objects)
         if cm.sigma[u] == cn.tau[v]]
    if not z:
        raise EmptyFiberedProduct("diamond: no compatible unit-space pairs")
    cm2 = pullback_crossing(cm, z, {w: unpair(w)[0] for w in z})
    cn2 = pullback_crossing(cn, z, {w: unpair(w)[1] for w in z})
    return _diamond_core(cm2, cn2)


def _same_xmod(x, y):
    return (set(x.g.arrows) == set(y.g.arrows)
            and set(x.h.arrows) == set(y.h.arrows)
            and x.boundary == y.boundary)


def _diamond_core(cm, cn):
    m, n = cm.m, cn.m
    mid = cm.dst  # == cn.src
    pairs = [pair(mm, nn) for mm in m.arrows for nn in n.arrows
             if m.tgt[mm] == n.tgt[nn] and m.src[mm] == n.src[nn]
             and cm.b2[mm] == cn.a2[nn]]
    if not pairs:
        raise EmptyFiberedProduct("diamond: fibered product of middles is empty")
    uf = UnionFind(pairs)
    for mm in m.arrows:
        u = m.tgt[mm]
        for h2 in mid.h.fiber(cm.sigma[u]):
            shifted_m = m.comp[(cm.b1[(u, h2)], mm)]
            for nn in n.arrows:
                if n.tgt[nn] == u and m.src[mm] == n.src[nn] \
                        and cm.b2[mm] == cn.a2[nn]:
                    shifted_n = n.comp[(cn.a1[(u, h2)], nn)]
                    uf.union(pair(shifted_m, shifted_n), pair(mm, nn))
    cmap = uf.class_map()

    def cl(mm, nn):
        return cls_label(cmap[pair(mm, nn)])

    arrows = sorted({cls_label(r) for r in cmap.values()})
    reps = {cls_label(r): unpair(r) for r in set(cmap.values())}
    src = {a: m.src[reps[a][0]] for a in arrows}
    tgt = {a: m.tgt[reps[a][0]] for a in arrows}
    inv = {a: cl(m.inv[reps[a][0]], n.inv[reps[a][1]]) for a in arrows}
    unit = {u: cl(m.unit[u], n.unit[u]) for u in m.objects}
    comp = {}
    for a in arrows:
        ma, na = reps[a]
        for b_ in arrows:
            mb, nb = reps[b_]
            if m.src[ma] == m.tgt[mb]:
                comp[(a, b_)] = cl(m.comp[(ma, mb)], n.comp[(na, nb)])
    dm = validate_groupoid(m.objects, arrows, src, tgt, inv, unit, comp)

    a1 = {(u, h1): cl(cm.a1[(u, h1)], n.unit[u])
          for u in dm.objects for h1 in cm.src.h.fiber(cm.tau[u])}
    b1 = {(u, h3): cl(m.unit[u], cn.b1[(u, h3)])
          for u in dm.objects for h3 in cn.dst.h.fiber(cn.sigma[u])}
    a2 = {a: cm.a2[reps[a][0]] for a in arrows}
    b2 = {a: cn.b2[reps[a][1]] for a in arrows}
    both_ext = cm.is_extension and cn.is_extension
    make = validate_crossed_extension if both_ext else validate_crossing
    out = make(cm.src, cn.dst, dm, dict(cm.tau), dict(cn.sigma),
               a1, a2, b1, b2)
    out.pair_class = {p: cls_label(r) for p, r in cmap.items()}
    return out


# -- zig-zags -----------------------------------------------------------------


class ZigZag:
    """Alternating chain of crossed modules and strict morphisms; direction
    'fwd' means arrow i goes modules[i] -> modules[i+1], 'bwd' the reverse."""

    def __init__(self, modules, arrows, directions):
        if not len(arrows) == len(directions) == len(modules) - 1:
            raise ValidationFailure([Violation(
                "BadZigZagLength", (len(modules), len(arrows), len(directions)))])
        self.modules = list(modules)
        self.arrows = list(arrows)
        self.directions = list(directions)


def zigzag_to_xext(z):
    """Convert every hypercover arrow to a crossed extension and left-fold
    with the diamond product."""
    exts = []
    for i, (chi, direction) in enumerate(zip(z.arrows, z.directions)):
        if not xmd.is_hypercover(chi):
            raise NotAHypercover(f"arrow {i}")
        ext = crossing_from_strict(chi, as_extension=True)
        if direction == "bwd":
            # chi: modules[i+1] -> modules[i]; flip to point forward
            ext = mbar(ext)
        exts.append(ext)
    acc = exts[0]
    for nxt in exts[1:]:
        acc = diamond(acc, nxt)
    return acc


# -- crossed semidirect products ----------------------------------------------


def crossed_semidirect(c, side="H1"):
    """H1[M^0] x|_{H2} M (side="H1") or H2[M^0] x|_{H1} M (side="H2"):
    the quotient of the semidirect product with the descended product
    [h,m][k,n] = [h k^{leg2(m)^-1}, mn].

    Returns (groupoid, class_of) where class_of maps raw pair labels
    (u, h, m) to class labels."""
    m = c.m
    if side == "H1":
        bund, mom, leg1_self, leg2_self = c.src.h, c.tau, c.a1, c.a2
        other_bund, other_mom, other_leg = c.dst.h, c.sigma, c.b1
        act_mod = c.src
    else:
        bund, mom, leg1_self, leg2_self = c.dst.h, c.sigma, c.b1, c.b2
        other_bund, other_mom, other_leg = c.src.h, c.tau, c.a1
        act_mod = c.dst

    members = [pair(m.tgt[mm], hh, mm) for mm in m.arrows
               for hh in bund.fiber(mom[m.tgt[mm]])]
    uf = UnionFind(members)
    for mm in m.arrows:
        u = m.tgt[mm]
        for hh in bund.fiber(mom[u]):
            for kk in other_bund.fiber(other_mom[u]):
                shifted = m.comp[(other_leg[(u, kk)], mm)]
                uf.union(pair(u, hh, shifted), pair(u, hh, mm))
    cmap = uf.class_map()

    def cl(u, hh, mm):
        return cls_label(cmap[pair(u, hh, mm)])

    arrows = sorted({cls_label(r) for r in cmap.values()})
    reps = {cls_label(r): unpair(r, 3) for r in set(cmap.values())}
    src = {a: m.src[reps[a][2]] for a in arrows}
    tgt = {a: m.tgt[reps[a][2]] for a in arrows}
    unit = {u: cl(u, bund.unit[mom[u]], m.unit[u]) for u in m.objects}
    inv, comp = {}, {}
    for a in arrows:
        u, hh, mm = reps[a]
        hg = act_mod.act(leg2_self[mm], hh)
        inv[a] = cl(m.src[mm], bund.inv[hg], m.inv[mm])
    for a in arrows:
        u, hh, mm = reps[a]
        for b_ in arrows:
            v, kk, nn = reps[b_]
            if m.src[mm] == m.tgt[nn]:
                twisted = act_mod.act(act_mod.g.inv[leg2_self[mm]], kk)
                comp[(a, b_)] = cl(u, bund.comp[(hh, twisted)], m.comp[(mm, nn)])
    gpd = validate_groupoid(m.objects, arrows, src, tgt, inv, unit, comp)
    class_of = {mem: cls_label(cmap[mem]) for mem in members}
    return gpd, class_of


def crossed_semidirect_iso(c, side="H1"):
    """The explicit comparison isomorphism
    [h, m] -> (h, leg2(m)) onto the plain semidirect product of the
    pulled-back crossed module (needs CR3 for H1, CR3' for H2)."""
    gpd, class_of = crossed_semidirect(c, side=side)
    if side == "H1":
        pb, _ = xmd.pullback_xmod(c.src, c.m.objects, c.tau)
        leg2 = c.a2
    else:
        pb, _ = xmd.pullback_xmod(c.dst, c.m.objects, c.sigma)
        leg2 = c.b2
    sd, _ = xmd.semidirect_of_morphism(xmd.identity_xmorphism(pb))
    amap = {}
    for a in gpd.arrows:
        u, hh, mm = unpair(strip_class(a), 3)
        triple = pair(c.m.tgt[mm], leg2[mm], c.m.src[mm])
        amap[a] = pair(pair(u, hh), triple)
    iso = validate_groupoid_morphism(gpd, sd, {u: u for u in gpd.objects}, amap)
    if len(set(iso.amap.values())) != len(iso.amap) or \
            set(iso.amap.values()) != set(sd.arrows):
        raise ExactnessSolveFailure("crossed semidirect comparison not bijective")
    return gpd, class_of, sd, iso


# -- M diamond Mbar ------------------------------------------------------------


def solve_alpha_tilde(c, m1, m2):
    """The unique h1 with m2 = a1(h1) m1, for b2(m1) = b2(m2) (CR3')."""
    u = c.m.tgt[m1]
    sols = [h1 for h1 in c.src.h.fiber(c.tau[u])
            if c.m.comp[(c.a1[(u, h1)], m1)] == m2]
    if len(sols) != 1:
        raise ExactnessSolveFailure((m1, m2, sols))
    return sols[0]


def verify_m_mbar(c, want_witness=True):
    """Build Phi1: M <> Mbar -> H1 x|_{H2} M and Psi1 back, assert they are
    mutually inverse groupoid isomorphisms, and (optionally) produce a Morita
    bibundle between M <> Mbar and Mbar <> M."""
    if not c.is_extension:
        raise ValidationFailure([Violation("NotAnExtension", None)])
    cb = mbar(c)
    d1 = diamond(c, cb)
    d2 = diamond(cb, c)
    cs1, class_of = crossed_semidirect(c, side="H1")

    # class representatives of the diamond are pairs (m1, m2)
    phi1, psi1 = {}, {}
    for a in d1.m.arrows:
        m1, m2 = unpair(strip_class(a))
        h1 = solve_alpha_tilde(c, m1, m2)
        phi1[a] = class_of[pair(c.m.tgt[m1], h1, m1)]
    for a in cs1.arrows:
        u, h1, mm = unpair(strip_class(a), 3)
        target = c.m.comp[(c.a1[(u, h1)], mm)]
        # find the diamond class of (mm, a1(h1) mm)
        psi1[a] = None
        key = pair(mm, target)
        for b_ in d1.m.arrows:
            mb1, mb2 = unpair(strip_class(b_))
            if _diamond_equivalent(c, cb, (mm, target), (mb1, mb2)):
                psi1[a] = b_
                break
        if psi1[a] is None:
            raise CoherenceFailure(("psi1 image missing", a))
    mor_phi = validate_groupoid_morphism(d1.m, cs1,
                                         {u: u for u in d1.m.objects}, phi1)
    mor_psi = validate_groupoid_morphism(cs1, d1.m,
                                         {u: u for u in cs1.objects}, psi1)
    for a in d1.m.arrows:
        if psi1[phi1[a]] != a:
            raise CoherenceFailure(("Psi1.Phi1 != id", a))
    for a in cs1.arrows:
        if phi1[psi1[a]] != a:
            raise CoherenceFailure(("Phi1.Psi1 != id", a))
    witness = None
    if want_witness:
        witness = bb.morita_witness(d1.m, d2.m)
        if witness is None:
            raise CoherenceFailure("M<>Mbar and Mbar<>M admit no Morita witness")
    return mor_phi, mor_psi, d1, d2, witness


def _diamond_equivalent(cm, cn, pair_a, pair_b):
    """(m1,n1) ~ (m2,n2) in the diamond quotient: n2 shifted from n1 by the
    same middle element that shifts m1 to m2."""
    m1, n1 = pair_a
    m2, n2 = pair_b
    m = cm.m
    if m.tgt[m1] != m.tgt[m2] or m.src[m1] != m.src[m2]:
        return False
    u = m.tgt[m1]
    for h2 in cm.dst.h.fiber(cm.sigma[u]):
        if m.comp[(cm.b1[(u, h2)], m1)] == m2 and \
                cn.m.comp[(cn.a1[(u, h2)], n1)] == n2:
            return True
    return False


# -- extensions vs crossings ---------------------------------------------------


def extension_to_crossing(ext, fiber_cap=12):
    """Groupoid A-extension -> crossing (G^0 -> G) -x- (A -> Aut A), per the
    classification theorem's construction: flip the hypercover-induced
    extension and diamond with the Ad-side strict morphism."""
    # middle crossed module (A -> E) with the conjugation action of E on A
    e, a = ext.e, ext.a
    act = {}
    for ee in e.arrows:
        for aa in a.fiber(e.tgt[ee]):
            conj = e.comp[(e.comp[(e.inv[ee], ext.iota[aa])], ee)]
            act[(ee, aa)] = _iota_inv(ext)[conj]
    mid_mod = xmd.validate_crossed_module(
        e, a, {aa: ext.iota[aa] for aa in a.arrows},
        validate_action(e, a, act))
    # chi_up = (p, pi): (A -> E) => (G^0 -> G), a hypercover
    unit_target = xmd.unit_xmod(ext.g)
    chi_up = xmd.validate_strict_xmorphism(
        mid_mod, unit_target, {x: x for x in e.objects},
        {aa: unit_target.h.unit[a.src[aa]] for aa in a.arrows},
        dict(ext.pi))
    m1 = xext_from_hypercover(chi_up)   # (A -> E) -x- (G^0 -> G)
    # chi_down = (id, Ad): (A -> E) => (A -> Aut A)
    ad_target = xmd.ad_xmod(a, fiber_cap=fiber_cap)
    admap = {}
    for ee in e.arrows:
        x, y = e.src[ee], e.tgt[ee]
        iso = {aa: act[(ee, aa)] for aa in a.fiber(y)}
        admap[ee] = aut_label(x, y, iso)
    chi_down = xmd.validate_strict_xmorphism(
        mid_mod, ad_target, {x: x for x in e.objects},
        {aa: aa for aa in a.arrows}, admap)
    m2 = crossing_from_strict(chi_down)
    return diamond(mbar(m1), m2)


def _iota_inv(ext):
    return {v: k for k, v in ext.iota.items()}


def crossing_to_extension(c):
    """Read the A-extension off the BL-TR diagonal (CR3): requires the source
    to carry a trivial bundle; returns A[M^0] >-> M ->> G1[M^0]."""
    for x in c.src.g.objects:
        if len(c.src.h.fiber(x)) != 1:
            raise ValidationFailure([Violation("NotAGroupoidModule", (x,))])
    m = c.m
    pb_g, _ = xmd.pullback_xmod(c.src, m.objects, c.tau)
    harrows = [pair(u, hh) for u in sorted(m.objects)
               for hh in c.dst.h.fiber(c.sigma[u])]
    hsrc = {a: unpair(a)[0] for a in harrows}
    hinv = {a: pair(unpair(a)[0], c.dst.h.inv[unpair(a)[1]]) for a in harrows}
    hunit = {u: pair(u, c.dst.h.unit[c.sigma[u]]) for u in m.objects}
    hcomp = {}
    for a in harrows:
        u, ha = unpair(a)
        for b_ in harrows:
            v, hb = unpair(b_)
            if v == u:
                hcomp[(a, b_)] = pair(u, c.dst.h.comp[(ha, hb)])
    abundle = validate_group_bundle(m.objects, harrows, hsrc, dict(hsrc),
                                    hinv, hunit, hcomp)
    iota = {pair(u, hh): c.b1[(u, hh)] for u, hh in map(unpair, harrows)}
    piarr = {mm: pair(m.tgt[mm], c.a2[mm], m.src[mm]) for mm in m.arrows}
    return xmd.validate_extension(abundle, m, pb_g.g, iota, piarr)
