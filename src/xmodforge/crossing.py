"""Crossings and crossed extensions of groupoid crossed modules: validation
of CR1-CR4 (and CR3'), construction from strict morphisms and hypercovers,
the decomposition theorem, diamond products, crossed semidirect products,
pullbacks, and the M-diamond-Mbar equivalence."""

from collections import namedtuple

from .errors import (CoherenceFailure, EmptyFiberedProduct, ExactnessSolveFailure,
                     NotAHypercover, ValidationFailure, Violation, require)
from . import bibundle as bb
from . import xmod as xmd
from .fingrpd import (as_group_bundle, aut_label, groupoid_of_parts, pullback_groupoid,
                      quotient_groupoid, validate_action, validate_groupoid_morphism)
from .util import law_failures, pair

# One side of a crossing: (src, tau, a1, a2) with tag "a" or
# (dst, sigma, b1, b2) with tag "b".
Side = namedtuple("Side", "tag xm mom leg1 leg2")


class Crossing:
    """(M, a1, a2, b1, b2) interpolating src_xmod and dst_xmod through the
    moments tau: M^0 -> X1 and sigma: M^0 -> X2.

    Leg tables: a1[(u, h1)] and b1[(u, h2)] give loops of M at u (legs of the
    pulled-back bundles); a2[m] and b2[m] give the base-groupoid components
    of the pullback arrows (t(m), g, s(m)).  A crossed extension is a
    crossing with is_extension set, which also satisfies CR3'."""

    def __init__(self, src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2,
                 extension=False):
        self.is_extension = extension
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
        return (self.m.objects == self.src.g.objects == self.dst.g.objects
                and all(self.tau[u] == u for u in self.m.objects)
                and all(self.sigma[u] == u for u in self.m.objects))

    def sides(self):
        """The two mirrored sides, a then b, as views of this crossing's own
        tables; built on each call, so they see any later edit."""
        return (Side("a", self.src, self.tau, self.a1, self.a2),
                Side("b", self.dst, self.sigma, self.b1, self.b2))

    def __repr__(self):
        kind = "CrossedExtension" if self.is_extension else "Crossing"
        return f"{kind}(|M|={len(self.m)})"


def _leg_domain(m, s):
    for u in m.objects:
        for hh in s.xm.h.fiber(s.mom[u]):
            yield u, hh


def check_crossing(c, prime=False):
    """Violations of the crossing laws, in the order they are checked; the
    CLI reports the first.  Each law is written once and run on both sides
    (a = (src, tau, a1, a2), then b = (dst, sigma, b1, b2)), witnesses in
    label order:

    1. BadMoment: tau and sigma land in the base objects (stops here);
    2. BadLeg: a1, b1 total loops; per arrow, a2, b2 endpoint-correct
       (stops here);
    3. CR1Failure: per object, a1, b1, a2, b2 preserve units;
    4. BadLeg a1-hom/b1-hom per object, then a2-hom/b2-hom per composable
       pair (stops here);
    5. CR2Failure: b2.a1 then a2.b1 are trivial;
    6. SquareFailure: a2.a1 = tau^* d1, then b2.b1 = sigma^* d2;
    7. CR3Failure: b1 injective, a2 surjective, ker a2 = im b1;
    8. CR4Failure: per arrow, the a then the b equivariance;
    9. with prime, CR3PrimeFailure: CR3 with the sides swapped.

    When M and both crossed modules are validated (CrossedModule.validated:
    G, H and the action too), the leg homomorphisms and CR4 are certified
    on generators (util.law_failures), read off the kept generators
    (Groupoid.gens(find=False)): S of M, and S_x of each side's H at x,
    which generate the fibre there (GroupBundle.gens_by_point), or the
    whole fibre where H keeps none.  leg2-hom and CR4 need S.
    - leg1-hom runs on ha over the fibre and hb in S_x.  Let T be the hb
      with leg1(ha hb) = leg1(ha) leg1(hb) for every ha.  For hb, hc in T,
        leg1(ha (hb hc)) = leg1((ha hb) hc) = leg1(ha hb) leg1(hc)
                         = (leg1(ha) leg1(hb)) leg1(hc)
                         = leg1(ha) (leg1(hb) leg1(hc)) = leg1(ha) leg1(hb hc),
      by associativity in H and M; so T holds the fibre.
    - leg2-hom runs on the pairs (m, s) with s in S, and is
      check_groupoid_morphism's certificate for M -> G: the s that it
      holds for are closed under composition, so they hold every arrow.
    - CR4 runs on m in S and h in S_{mom(tgt m)}.  Once the legs are
      homomorphisms, both sides, as functions of h, are homomorphisms of
      the fibre: h -> leg1(h^{leg2 m}) composes two, and h -> m^-1 leg1(h) m
      is conjugation after one.  They agree on S_x, so on the fibre.  For
      m1, m2 that satisfy it at every h, with src(m1) == tgt(m2),
        leg1(h^{leg2(m1 m2)}) = leg1((h^{leg2 m1})^{leg2 m2})
                              = m2^-1 leg1(h^{leg2 m1}) m2
                              = m2^-1 m1^-1 leg1(h) m1 m2,
      by leg2 a functor, functoriality of the action, m2 at h^{leg2 m1} and
      m1 at h, which is (m1 m2)^-1 leg1(h) (m1 m2).  So the m that satisfy
      it are closed under composition, hold S, and so every arrow.
    Each certificate runs only when it visits fewer instances than its
    sweep.  When it fails, or does not run, the sweep lists every failure,
    so the witnesses and their order do not depend on the route."""
    violations = []
    m = c.m
    sides = c.sides()
    for u in m.objects:
        if any(s.mom.get(u) not in s.xm.g.objects for s in sides):
            violations.append(Violation("BadMoment", (u,)))
    if violations:
        return violations

    # legs are total, endpoint-correct groupoid morphisms
    for s in sides:
        leg1, tag = s.leg1, s.tag + "1"
        for u, hh in _leg_domain(m, s):
            mm = leg1.get((u, hh))
            if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
                violations.append(Violation("BadLeg", (tag, u, hh)))
    ends = [(s.leg2, s.xm.g, s.mom, s.tag + "2") for s in sides]
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for leg2, gg, mom, tag in ends:
            g = leg2.get(mm)
            if g not in gg.arrows or gg.tgt[g] != mom[u1] or gg.src[g] != mom[u2]:
                violations.append(Violation("BadLeg", (tag, mm)))
    if violations:
        return violations

    # CR1: legs are the identity on the unit space
    for u in m.objects:
        for s in sides:
            if s.leg1[(u, s.xm.h.unit[s.mom[u]])] != m.unit[u]:
                violations.append(Violation("CR1Failure", (s.tag + "1", u)))
        for s in sides:
            if s.leg2[m.unit[u]] != s.xm.g.unit[s.mom[u]]:
                violations.append(Violation("CR1Failure", (s.tag + "2", u)))

    # the kept generators, when M and both crossed modules are validated:
    # S of M, and for each side its H's by point (ats)
    marked = m.validated and c.src.validated and c.dst.validated
    mgens = m.gens(find=False) if marked else None
    ats = [s.xm.h.gens_by_point() for s in sides] if marked else [None, None]
    # some S_x at a moment's image is smaller than its fibre
    fewer = any(len(at[s.mom[u]]) < len(s.xm.h.fiber(s.mom[u]))
                for s, at in zip(sides, ats) if at is not None for u in m.objects)
    violations += law_failures(_leg1_unhom, (m, sides, ats) if fewer else None,
                               (m, sides, [None, None]))
    pairs = m.generator_pairs() if mgens else None
    violations += law_failures(_leg2_unhom, None if pairs is None else (m, sides, pairs),
                               (m, sides, m.composable_pairs()))
    if violations:
        return violations

    # CR2: both diagonals are complexes (composites land in unit arrows)
    for s, o in (sides, sides[::-1]):
        leg1, oleg2, is_unit = s.leg1, o.leg2, o.xm.g.is_unit
        tag = f"{o.tag}2.{s.tag}1"
        for u, hh in _leg_domain(m, s):
            if not is_unit(oleg2[leg1[(u, hh)]]):
                violations.append(Violation("CR2Failure", (tag, u, hh)))

    # commuting outer square: tau^* d1 = a2 . a1 and sigma^* d2 = b2 . b1
    for s in sides:
        leg1, leg2, boundary = s.leg1, s.leg2, s.xm.boundary
        for u, hh in _leg_domain(m, s):
            if leg2[leg1[(u, hh)]] != boundary[hh]:
                violations.append(Violation("SquareFailure", (s.tag, u, hh)))

    violations += _cr3(c, *sides, "CR3Failure")

    # CR4: leg1(h^{leg2(m)}) = m^-1 leg1(h) m on each side; the
    # certificate visits fewer instances than the sweep unless S is every
    # arrow and no S_x is smaller than its fibre
    if mgens and len(mgens) == len(m.arrows) and not fewer:
        mgens = None
    violations += law_failures(_cr4_failures, (m, sides, mgens, ats) if mgens else None,
                               (m, sides, m.arrows, [None, None]))

    if prime:
        violations += check_cr3_prime(c)
    return violations


def _leg1_unhom(m, sides, ats):
    """The violations at the (tag, u, ha, hb) with leg1(ha hb) != leg1(ha)
    leg1(hb), for each object u and side s with at in ats, ha over the
    fibre at x = s.mom[u] and hb in at[x], or in the fibre when at is
    None: check_crossing's certificate gives it the generators, the sweep
    no at."""
    for u in m.objects:
        for s, at in zip(sides, ats):
            leg1, hcomp, tag = s.leg1, s.xm.h.comp, s.tag + "1-hom"
            x = s.mom[u]
            fiber = s.xm.h.fiber(x)
            hbs = fiber if at is None else at[x]
            for ha in fiber:
                la = leg1[(u, ha)]
                for hb in hbs:
                    if leg1[(u, hcomp[(ha, hb)])] != m.comp[(la, leg1[(u, hb)])]:
                        yield Violation("BadLeg", (tag, u, ha, hb))


def _leg2_unhom(m, sides, pairs):
    """The violations at the (tag, ma, mb) with leg2(ma mb) != leg2(ma)
    leg2(mb), for each composable (ma, mb) in pairs, a side then b:
    check_crossing's certificate gives it the generator pairs, the sweep
    every composable pair."""
    homs = [(s.leg2, s.xm.g.comp, s.tag + "2-hom") for s in sides]
    for ma, mb in pairs:
        mab = m.comp[(ma, mb)]
        for leg2, gcomp, tag in homs:
            if leg2[mab] != gcomp[(leg2[ma], leg2[mb])]:
                yield Violation("BadLeg", (tag, ma, mb))


def _cr4_failures(m, sides, arrows, ats):
    """The violations at the (tag, m, h) with leg1(h^{leg2 m}) != m^-1
    leg1(h) m, for m in arrows and each side s with at in ats, h in at[x]
    for x = s.mom[tgt(m)], or in the fibre at x when at is None:
    check_crossing's certificate gives it the generators, the sweep every
    arrow and no at."""
    for mm in arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        minv = m.inv[mm]
        for s, at in zip(sides, ats):
            leg1, act, g = s.leg1, s.xm.action.act, s.leg2[mm]
            x = s.mom[u1]
            for hh in (s.xm.h.fiber(x) if at is None else at[x]):
                if leg1[(u2, act[(g, hh)])] != m.comp[(m.comp[(minv, leg1[(u1, hh)])], mm)]:
                    yield Violation("CR4Failure", (s.tag, mm, hh))


def _cr3(c, s, o, code):
    """CR3 on the diagonal from o's leg1 to s's leg2: o.leg1 injective,
    s.leg2 surjective onto the pulled-back groupoid, ker s.leg2 = im o.leg1."""
    violations = []
    m = c.m
    img = set(o.leg1.values())
    if len(img) != len(o.leg1):
        violations.append(Violation(code, (o.tag + "1-not-injective",)))
    hits = {}
    for mm in m.arrows:
        hits.setdefault((m.tgt[mm], m.src[mm]), set()).add(s.leg2[mm])
    gg, tag = s.xm.g, s.tag + "2-not-surjective"
    for u1 in m.objects:
        for u2 in m.objects:
            hit = hits.get((u1, u2), ())
            for g in gg.hom(s.mom[u2], s.mom[u1]):
                if g not in hit:
                    violations.append(Violation(code, (tag, u1, g, u2)))
    kernel = {mm for mm in m.arrows
              if gg.is_unit(s.leg2[mm]) and m.src[mm] == m.tgt[mm]}
    if kernel != img:
        violations.append(Violation(
            code, ("kernel-vs-image", tuple(sorted(kernel ^ img)))))
    return violations


def check_cr3_prime(c):
    """CR3': TL-BR is an extension (a1 injective, b2 surjective,
    kernel of b2 = image of a1), i.e. CR3 with the sides swapped."""
    a, b = c.sides()
    return _cr3(c, b, a, "CR3PrimeFailure")


def validate_crossing(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2,
                      extension=False):
    """The crossing of the tables; with extension, a crossed extension,
    which check_crossing also checks for CR3'.  Raises ValidationFailure."""
    c = Crossing(src_xmod, dst_xmod, m, tau, sigma, a1, a2, b1, b2, extension)
    return require(c, check_crossing(c, prime=extension))


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
    if d.g.objects == c.g.objects and \
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
        h2, g1 = m.parts[arrow]
        a2[arrow] = g1
        b2[arrow] = c.g.comp[(c.boundary[h2], chi.rmap[g1])]
    return validate_crossing(d, c, m, ident, ident, a1, a2, b1, b2, as_extension)


def _crossing_general(chi, as_extension):
    d, c = chi.dom, chi.cod
    space = {pair(x, g2): (x, g2) for x in d.g.objects
             for g2 in c.g.arrows_to(chi.omap[x])}
    tau = {z: x for z, (x, _) in space.items()}
    sigma = {z: c.g.src[g2] for z, (_, g2) in space.items()}
    pb1, _ = xmd.pullback_xmod(d, space, tau)
    pb2, _ = xmd.pullback_xmod(c, space, sigma)
    lmap, rmap = {}, {}
    for z, (x, g2) in space.items():
        for h1 in d.h.fiber(x):
            lmap[pair(z, h1)] = pair(z, c.act(g2, chi.lmap[h1]))
    for arrow in pb1.g.arrows:
        z1, g1, z2 = pb1.g.parts[arrow]
        f2, g2 = space[z1][1], space[z2][1]
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
    a2 = {mm: pb1.g.parts[core.a2[mm]][1] for mm in core.m.arrows}
    b2 = {mm: pb2.g.parts[core.b2[mm]][1] for mm in core.m.arrows}
    return validate_crossing(d, c, core.m, tau, sigma, a1, a2, b1, b2, as_extension)


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
    return validate_crossing(c.dst, c.src, c.m, c.sigma, c.tau, c.b1, c.b2, c.a1, c.a2,
                             extension=True)


# -- pullback ---------------------------------------------------------------


def pullback_crossing(c, space, phi):
    """M[Z] along phi: Z -> M^0; preserves crossed-extension status
    (surjectivity of phi is not needed)."""
    mz = pullback_groupoid(c.m, space, phi)
    tau = {z: c.tau[phi[z]] for z in mz.objects}
    sigma = {z: c.sigma[phi[z]] for z in mz.objects}
    a1 = {(z, h1): pair(z, c.a1[(phi[z], h1)], z)
          for z in mz.objects for h1 in c.src.h.fiber(tau[z])}
    b1 = {(z, h2): pair(z, c.b1[(phi[z], h2)], z)
          for z in mz.objects for h2 in c.dst.h.fiber(sigma[z])}
    a2 = {arrow: c.a2[mz.parts[arrow][1]] for arrow in mz.arrows}
    b2 = {arrow: c.b2[mz.parts[arrow][1]] for arrow in mz.arrows}
    return validate_crossing(c.src, c.dst, mz, tau, sigma, a1, a2, b1, b2, c.is_extension)


# -- decomposition ------------------------------------------------------------


def decompose_crossing(c):
    """The third crossed module G' = (H1[M^0] x H2[M^0] -> M) with the two
    projection strict morphisms; chi_left is a hypercover, and chi_right too
    when c is a crossed extension."""
    m, h1s, h2s = c.m, c.src.h, c.dst.h
    parts = {pair(u, h1, h2): (u, h1, h2) for u in m.objects
             for h1 in h1s.fiber(c.tau[u]) for h2 in h2s.fiber(c.sigma[u])}
    bundle = as_group_bundle(groupoid_of_parts(
        m.objects, parts, lambda r: r[0], lambda r: r[0],
        lambda r: pair(r[0], h1s.inv[r[1]], h2s.inv[r[2]]),
        lambda u: pair(u, h1s.unit[c.tau[u]], h2s.unit[c.sigma[u]]),
        lambda r, r2: pair(r[0], h1s.comp[(r[1], r2[1])], h2s.comp[(r[2], r2[2])])))
    boundary = {a: m.comp[(c.a1[(u, h1)], c.b1[(u, h2)])]
                for a, (u, h1, h2) in parts.items()}
    act = {}
    for mm in m.arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for a in bundle.fiber(u1):
            _, h1, h2 = parts[a]
            act[(mm, a)] = pair(u2, c.src.act(c.a2[mm], h1),
                                c.dst.act(c.b2[mm], h2))
    gprime = xmd.validate_crossed_module(m, bundle, boundary,
                                         validate_action(m, bundle, act))
    # chi_left, then chi_right: the projections onto the a and b sides
    chis = [xmd.validate_strict_xmorphism(
        gprime, s.xm, dict(s.mom), {a: r[k] for a, r in parts.items()},
        {mm: s.leg2[mm] for mm in m.arrows}) for k, s in enumerate(c.sides(), 1)]
    return (gprime, *chis)


# -- diamond ------------------------------------------------------------------


def diamond(cm, cn):
    """The diamond product of crossings cm: G1 -x- G2 and cn: G2 -x- G3.

    Requires the shared middle crossed module; pulls both back to the fibered
    product of unit spaces unless the bases and moments already agree."""
    if cn.src is not cm.dst and not _same_xmod(cn.src, cm.dst):
        raise ValidationFailure([Violation("MiddleMismatch", None)])
    if cm.m.objects == cn.m.objects and \
            all(cm.sigma[u] == cn.tau[u] for u in cm.m.objects):
        return _diamond_core(cm, cn)
    z = {pair(u, v): (u, v) for u in cm.m.objects for v in cn.m.objects
         if cm.sigma[u] == cn.tau[v]}
    if not z:
        raise EmptyFiberedProduct("diamond: no compatible unit-space pairs")
    cm2 = pullback_crossing(cm, z, {w: u for w, (u, _) in z.items()})
    cn2 = pullback_crossing(cn, z, {w: v for w, (_, v) in z.items()})
    return _diamond_core(cm2, cn2)


def _same_xmod(x, y):
    return (x.g.arrows == y.g.arrows
            and x.h.arrows == y.h.arrows
            and x.boundary == y.boundary)


def _diamond_core(cm, cn):
    m, n = cm.m, cn.m
    mid = cm.dst  # == cn.src
    members = {pair(mm, nn): (mm, nn) for mm in m.arrows for nn in n.arrows_to(m.tgt[mm])
               if m.src[mm] == n.src[nn] and cm.b2[mm] == cn.a2[nn]}
    if not members:
        raise EmptyFiberedProduct("diamond: fibered product of middles is empty")
    links = []
    for p, (mm, nn) in members.items():
        u = m.tgt[mm]
        links += [(pair(m.comp[(cm.b1[(u, h2)], mm)], n.comp[(cn.a1[(u, h2)], nn)]), p)
                  for h2 in mid.h.fiber(cm.sigma[u])]
    dm, class_of = quotient_groupoid(
        m.objects, members, links, lambda r: m.src[r[0]], lambda r: m.tgt[r[0]],
        lambda r: pair(m.inv[r[0]], n.inv[r[1]]), lambda u: pair(m.unit[u], n.unit[u]),
        lambda r, r2: pair(m.comp[(r[0], r2[0])], n.comp[(r[1], r2[1])]))
    a1 = {(u, h1): class_of[pair(cm.a1[(u, h1)], n.unit[u])]
          for u in dm.objects for h1 in cm.src.h.fiber(cm.tau[u])}
    b1 = {(u, h3): class_of[pair(m.unit[u], cn.b1[(u, h3)])]
          for u in dm.objects for h3 in cn.dst.h.fiber(cn.sigma[u])}
    a2 = {a: cm.a2[mm] for a, (mm, _) in dm.parts.items()}
    b2 = {a: cn.b2[nn] for a, (_, nn) in dm.parts.items()}
    out = validate_crossing(cm.src, cn.dst, dm, cm.tau, cn.sigma, a1, a2, b1, b2,
                            cm.is_extension and cn.is_extension)
    out.pair_class = class_of
    return out


# -- zig-zags -----------------------------------------------------------------


class ZigZag:
    """Alternating chain of crossed modules and strict morphisms; direction
    'fwd' means arrow i goes modules[i] -> modules[i+1], 'bwd' the reverse.
    Raises ValidationFailure when the lengths disagree, a direction is
    neither, or an arrow does not run between the modules beside it."""

    def __init__(self, modules, arrows, directions):
        if not len(arrows) == len(directions) == len(modules) - 1:
            raise ValidationFailure([Violation(
                "BadZigZagLength", (len(modules), len(arrows), len(directions)))])
        for i, (chi, direction) in enumerate(zip(arrows, directions)):
            if direction not in ("fwd", "bwd"):
                raise ValidationFailure([Violation("BadZigZagDirection", (i, direction))])
            dom, cod = modules[i], modules[i + 1]
            if direction == "bwd":
                dom, cod = cod, dom
            if not (_same_xmod(chi.dom, dom) and _same_xmod(chi.cod, cod)):
                raise ValidationFailure([Violation("BadZigZagArrow", (i, direction))])
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
    s, o = c.sides()
    if side != "H1":
        s, o = o, s
    bund, mom, leg2_self, act_mod = s.xm.h, s.mom, s.leg2, s.xm
    other_bund, other_mom, other_leg = o.xm.h, o.mom, o.leg1

    members = {pair(m.tgt[mm], hh, mm): (m.tgt[mm], hh, mm) for mm in m.arrows
               for hh in bund.fiber(mom[m.tgt[mm]])}
    links = [(pair(u, hh, m.comp[(other_leg[(u, kk)], mm)]), p)
             for p, (u, hh, mm) in members.items() for kk in other_bund.fiber(other_mom[u])]

    def inv(r):
        _, hh, mm = r
        return pair(m.src[mm], bund.inv[act_mod.act(leg2_self[mm], hh)], m.inv[mm])

    def comp(r, r2):
        u, hh, mm = r
        twisted = act_mod.act(act_mod.g.inv[leg2_self[mm]], r2[1])
        return pair(u, bund.comp[(hh, twisted)], m.comp[(mm, r2[2])])

    gpd, class_of = quotient_groupoid(
        m.objects, members, links, lambda r: m.src[r[2]], lambda r: m.tgt[r[2]], inv,
        lambda u: pair(u, bund.unit[mom[u]], m.unit[u]), comp)
    return gpd, class_of


def crossed_semidirect_iso(c, side="H1"):
    """The explicit comparison isomorphism
    [h, m] -> (h, leg2(m)) onto the plain semidirect product of the
    pulled-back crossed module (needs CR3 for H1, CR3' for H2)."""
    gpd, class_of = crossed_semidirect(c, side=side)
    s = c.sides()[0 if side == "H1" else 1]
    pb, _ = xmd.pullback_xmod(s.xm, c.m.objects, s.mom)
    sd, _ = xmd.semidirect_of_morphism(xmd.identity_xmorphism(pb))
    amap = {}
    for a in gpd.arrows:
        u, hh, mm = gpd.parts[a]
        triple = pair(c.m.tgt[mm], s.leg2[mm], c.m.src[mm])
        amap[a] = pair(pair(u, hh), triple)
    iso = validate_groupoid_morphism(gpd, sd, {u: u for u in gpd.objects}, amap)
    if len(set(iso.amap.values())) != len(iso.amap) or \
            set(iso.amap.values()) != sd.arrows:
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
        m1, m2 = d1.m.parts[a]
        h1 = solve_alpha_tilde(c, m1, m2)
        phi1[a] = class_of[pair(c.m.tgt[m1], h1, m1)]
    for a in cs1.arrows:
        u, h1, mm = cs1.parts[a]
        # (mm, a1(h1) mm) is a diamond member by CR2; its class is the image
        psi1[a] = d1.pair_class.get(pair(mm, c.m.comp[(c.a1[(u, h1)], mm)]))
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


# -- extensions vs crossings ---------------------------------------------------


def extension_to_crossing(ext, fiber_cap=12):
    """Groupoid A-extension -> crossing (G^0 -> G) -x- (A -> Aut A), per the
    classification theorem's construction: flip the hypercover-induced
    extension and diamond with the Ad-side strict morphism."""
    # middle crossed module (A -> E) with the conjugation action of E on A
    e, a = ext.e, ext.a
    iota_inv = {v: k for k, v in ext.iota.items()}
    act = {}
    for ee in e.arrows:
        for aa in a.fiber(e.tgt[ee]):
            conj = e.comp[(e.comp[(e.inv[ee], ext.iota[aa])], ee)]
            act[(ee, aa)] = iota_inv[conj]
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


def crossing_to_extension(c):
    """Read the A-extension off the BL-TR diagonal (CR3): requires the source
    to carry a trivial bundle; returns A[M^0] >-> M ->> G1[M^0]."""
    for x in c.src.g.objects:
        if len(c.src.h.fiber(x)) != 1:
            raise ValidationFailure([Violation("NotAGroupoidModule", (x,))])
    m, h2s = c.m, c.dst.h
    pb_g, _ = xmd.pullback_xmod(c.src, m.objects, c.tau)
    parts = {pair(u, hh): (u, hh) for u in m.objects for hh in h2s.fiber(c.sigma[u])}
    abundle = as_group_bundle(groupoid_of_parts(
        m.objects, parts, lambda r: r[0], lambda r: r[0],
        lambda r: pair(r[0], h2s.inv[r[1]]), lambda u: pair(u, h2s.unit[c.sigma[u]]),
        lambda r, r2: pair(r[0], h2s.comp[(r[1], r2[1])])))
    iota = {a: c.b1[r] for a, r in parts.items()}
    piarr = {mm: pair(m.tgt[mm], c.a2[mm], m.src[mm]) for mm in m.arrows}
    return xmd.validate_extension(abundle, m, pb_g.g, iota, piarr)
