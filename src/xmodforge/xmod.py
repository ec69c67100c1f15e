"""Crossed modules of groupoids: validation, the stock examples (modules,
Ad, extensions, inertia), strict morphisms and their semidirect products,
pullbacks, projective products, transformations, the equivalence with strict
2-groupoids, and hypercovers."""

from .errors import (CoherenceFailure, IllDefinedAction, NotAbelian,
                     UnitSpaceMismatch, ValidationFailure, Violation, require)
from . import bibundle as bb
from . import twogpd as tgd
from .fingrpd import (GroupoidMorphism, as_group_bundle, aut_bundle, aut_label,
                      check_groupoid_morphism, groupoid_of_parts, inertia,
                      pullback_groupoid, semidirect_product, unit_bundle,
                      validate_action, validate_groupoid_morphism)
from .util import law_failures, pair


class CrossedModule:
    """(G, H, boundary, action) with H a group bundle over G^0, boundary a
    strict morphism over the identity of G^0, and an action of G on H by
    automorphisms satisfying the two crossed-module axioms.

    validate_crossed_module marks it validated when it also holds that G
    and H are validated groupoids and the action a validated action of
    G on H: then every table it is made of has been checked, and the
    hypercover test reads it without building its 2-groupoid."""

    def __init__(self, g, h, boundary, action):
        self.g = g
        self.h = h
        self.boundary = dict(boundary)  # H-arrow -> G-arrow
        self.action = action            # ActionByAutomorphisms(g, h, act)
        self.validated = False          # set by validate_crossed_module
        self._vertical = None           # vertical_groupoid's memo
        self._vertical2 = None          # xmod_to_2groupoid's memo

    def act(self, garrow, harrow):
        return self.action.act[(garrow, harrow)]

    def __repr__(self):
        return f"CrossedModule(|H|={len(self.h)}, |G|={len(self.g)})"


def check_crossed_module(xm):
    """The violations of a crossed module (empty when it is one): the unit
    spaces (stops here), the boundary as a functor H -> G over the objects
    (stops here), then axiom 1, boundary(h^g) = g^-1 boundary(h) g, and
    axiom 2, k^{boundary(h)} = h^-1 k h within a fibre, each listing its
    failures in label order.  The action itself is checked by
    check_action, when it is built.

    When the parts are validated (_parts_validated: G and H validated
    groupoids, the action a validated action of G on H), both axioms are
    certified on generators (util.law_failures): axiom 1 when G keeps its
    generators S (Groupoid.gens(find=False)), axiom 2 when H keeps its
    generators S_x at each point x, which generate the fibre there
    (GroupBundle.gens_by_point); axiom 1 reads the whole fibre for S_x
    when H keeps none.  Each side of an axiom, as a function of its
    fibre element, is then a homomorphism of the fibre: h -> h^g is one
    (check_action), the boundary is a functor, and conjugation by an arrow
    is one in a groupoid.  Two homomorphisms that agree on S_x agree on
    what S_x generates, the fibre at x.
    - Axiom 1 runs on g in S and h in S_{tgt(g)}.  By the above it then
      holds at every h for g in S.  For g1, g2 that satisfy it at every h,
      with src(g1) == tgt(g2),
        boundary(h^{g1 g2}) = boundary((h^{g1})^{g2})
                            = g2^-1 boundary(h^{g1}) g2
                            = g2^-1 g1^-1 boundary(h) g1 g2,
      by functoriality of the action, g2 at h^{g1} and g1 at h, which is
      (g1 g2)^-1 boundary(h) (g1 g2).  So the arrows that satisfy it are
      closed under composition, and they hold S, so every arrow.
    - Axiom 2 runs on h and k in S_x at each point x.  For h in S_x it
      then holds at every k.  For h1, h2 that satisfy it at every k,
        k^{boundary(h1 h2)} = (k^{boundary(h1)})^{boundary(h2)}
                            = h2^-1 (h1^-1 k h1) h2 = (h1 h2)^-1 k (h1 h2),
      by the boundary and the action being functors, h1 at k and h2 at
      k^{boundary(h1)}.  So the h that satisfy it hold the fibre.
    Each certificate runs only when it visits fewer instances than its
    sweep.  When it fails, or does not run, the sweep lists every failure,
    so the witnesses and their order do not depend on the route."""
    violations = []
    g, h = xm.g, xm.h
    if h.objects != g.objects:
        return [Violation("UnitSpaceMismatch", None)]
    bmor = GroupoidMorphism(h, g, {x: x for x in g.objects}, xm.boundary)
    violations += check_groupoid_morphism(bmor)
    if violations:
        return violations
    # each certificate's instances are its sweep's with g in S and h, k in
    # S_x, so it visits fewer unless they are everything
    marked = _parts_validated(xm)
    gens = g.gens(find=False) if marked else None
    at = h.gens_by_point() if marked else None
    if gens and len(gens) == len(g.arrows) and at is None:
        gens = None
    violations += law_failures(_axiom1_failures, None if not gens else (xm, gens, at),
                               (xm, g.arrows, None))
    violations += law_failures(_axiom2_failures, None if at is None else (xm, at),
                               (xm, None))
    return violations


def _parts_validated(xm):
    """G and H are validated groupoids and the action a validated action
    of G on H: every table of xm but the boundary has been checked."""
    return (xm.g.validated and xm.h.validated and xm.action.validated
            and xm.action.base is xm.g and xm.action.bundle is xm.h)


def _axiom1_failures(xm, arrows, at):
    """The violations at the (g, h) with boundary(h^g) != g^-1 boundary(h)
    g, for g in arrows and h in at[tgt(g)], or over tgt(g) when at is
    None: check_crossed_module's certificate gives it the generators, the
    sweep every arrow and no at."""
    g, h, boundary, act = xm.g, xm.h, xm.boundary, xm.action.act
    comp = g.comp
    for gg in arrows:
        ginv, x = g.inv[gg], g.tgt[gg]
        for hh in (h.fiber(x) if at is None else at[x]):
            if boundary[act[(gg, hh)]] != comp[(comp[(ginv, boundary[hh])], gg)]:
                yield Violation("Axiom1Failure", (gg, hh))


def _axiom2_failures(xm, at):
    """The violations at the (h, k) with k^{boundary(h)} != h^-1 k h, for
    h and k in at[x] at each point x, or in the fibre at x when at is
    None: check_crossed_module's certificate gives it the generators, the
    sweep no at."""
    h, boundary, act = xm.h, xm.boundary, xm.action.act
    comp = h.comp
    for x in h.objects:
        fx = h.fiber(x) if at is None else at[x]
        for hh in fx:
            bh, hinv = boundary[hh], h.inv[hh]
            for kk in fx:
                if act[(bh, kk)] != comp[(comp[(hinv, kk)], hh)]:
                    yield Violation("Axiom2Failure", (hh, kk))


def validate_crossed_module(g, h, boundary, action):
    """The crossed module, marked validated on validated parts (see
    CrossedModule).  Raises ValidationFailure."""
    xm = CrossedModule(g, h, boundary, action)
    require(xm, check_crossed_module(xm)).validated = _parts_validated(xm)
    return xm


# -- stock crossed modules -------------------------------------------------


def unit_xmod(g):
    """A groupoid as a crossed module: trivial bundle, inclusion, trivial action."""
    h = unit_bundle(g.objects)
    boundary = {h.unit[x]: g.unit[x] for x in g.objects}
    act = {(gg, h.unit[g.tgt[gg]]): h.unit[g.src[gg]] for gg in g.arrows}
    return validate_crossed_module(g, h, boundary,
                                   validate_action(g, h, act))


def inertia_xmod(g):
    """(G, SG, inclusion, Ad)."""
    bundle, action = inertia(g)
    boundary = {hh: hh for hh in bundle.arrows}
    return validate_crossed_module(g, bundle, boundary, action)


def identity_xmod(group_groupoid):
    """(G, G, id, conjugation) for a one-object group: boundary the identity."""
    return inertia_xmod(group_groupoid)


def module_xmod(g, bundle, action):
    """A G-module (abelian bundle with action) as a crossed module with
    boundary the fiberwise trivial map."""
    for x in bundle.objects:
        fib = bundle.fiber(x)
        for a in fib:
            for b in fib:
                if bundle.comp[(a, b)] != bundle.comp[(b, a)]:
                    raise NotAbelian(x, (a, b))
    boundary = {hh: g.unit[bundle.src[hh]] for hh in bundle.arrows}
    return validate_crossed_module(g, bundle, boundary, action)


def ad_xmod(bundle, fiber_cap=12):
    """(Aut(H), H, h -> [k -> h^-1 k h], tautological action)."""
    aut = aut_bundle(bundle, fiber_cap=fiber_cap)
    boundary = {}
    for hh in bundle.arrows:
        x = bundle.src[hh]
        iso = {k: bundle.comp[(bundle.comp[(bundle.inv[hh], k)], hh)]
               for k in bundle.fiber(x)}
        boundary[hh] = aut_label(x, x, iso)
    act = {}
    for f in aut.arrows:
        for hh in bundle.fiber(aut.tgt[f]):
            act[(f, hh)] = aut.parts[f][2][hh]
    return validate_crossed_module(aut, bundle, boundary,
                                   validate_action(aut, bundle, act))


class GroupoidExtension:
    """A |-> E ->> G over a common unit space, iota injective, pi surjective,
    iota(A) = pi^{-1}(units)."""

    def __init__(self, a, e, g, iota, pi):
        self.a, self.e, self.g = a, e, g
        self.iota = dict(iota)
        self.pi = dict(pi)

    def __repr__(self):
        return f"GroupoidExtension(|A|={len(self.a)}, |E|={len(self.e)}, |G|={len(self.g)})"


def check_extension(ext):
    violations = []
    imor = GroupoidMorphism(ext.a, ext.e, {x: x for x in ext.a.objects}, ext.iota)
    pmor = GroupoidMorphism(ext.e, ext.g, {x: x for x in ext.e.objects}, ext.pi)
    violations += check_groupoid_morphism(imor)
    violations += check_groupoid_morphism(pmor)
    if violations:
        return violations
    if len(set(ext.iota.values())) != len(ext.iota):
        violations.append(Violation("NotInjective", ("iota",)))
    if set(ext.pi.values()) != ext.g.arrows:
        violations.append(Violation("NotSurjective", ("pi",)))
    kernel = {e for e in ext.e.arrows if ext.g.is_unit(ext.pi[e])}
    if set(ext.iota.values()) != kernel:
        violations.append(Violation("NotExact",
                                    tuple(sorted(kernel - set(ext.iota.values())))))
    return violations


def validate_extension(a, e, g, iota, pi):
    ext = GroupoidExtension(a, e, g, iota, pi)
    return require(ext, check_extension(ext))


def extension_xmod(ext, require_abelian=True):
    """The crossed module (G, A, fiberwise-trivial boundary, lift conjugation
    c_g(a) = lift^-1 a lift). Lift-independence is verified across all lifts;
    disagreement raises IllDefinedAction."""
    if require_abelian:
        for x in ext.a.objects:
            fib = ext.a.fiber(x)
            for p in fib:
                for q in fib:
                    if ext.a.comp[(p, q)] != ext.a.comp[(q, p)]:
                        raise NotAbelian(x, (p, q))
    lifts = {}
    for e_arrow, g_arrow in ext.pi.items():
        lifts.setdefault(g_arrow, []).append(e_arrow)
    iota_inv = {v: k for k, v in ext.iota.items()}
    act = {}
    for gg in ext.g.arrows:
        for aa in ext.a.fiber(ext.g.tgt[gg]):
            results = set()
            for lift in lifts[gg]:
                conj = ext.e.comp[(ext.e.comp[(ext.e.inv[lift], ext.iota[aa])], lift)]
                results.add(iota_inv[conj])
            if len(results) != 1:
                raise IllDefinedAction((gg, aa, tuple(sorted(results))))
            act[(gg, aa)] = results.pop()
    boundary = {aa: ext.g.unit[ext.a.src[aa]] for aa in ext.a.arrows}
    return validate_crossed_module(ext.g, ext.a, boundary,
                                   validate_action(ext.g, ext.a, act))


# -- strict morphisms -------------------------------------------------------


class StrictXMorphism:
    def __init__(self, dom, cod, omap, lmap, rmap):
        self.dom, self.cod = dom, cod
        self.omap = dict(omap)
        self.lmap = dict(lmap)  # H1 -> H2
        self.rmap = dict(rmap)  # G1 -> G2
        self.validated = False  # set by validate_strict_xmorphism

    def left(self):
        return GroupoidMorphism(self.dom.h, self.cod.h, self.omap, self.lmap)

    def right(self):
        return GroupoidMorphism(self.dom.g, self.cod.g, self.omap, self.rmap)

    def then(self, other):
        return StrictXMorphism(
            self.dom, other.cod,
            {x: other.omap[self.omap[x]] for x in self.omap},
            {h: other.lmap[self.lmap[h]] for h in self.lmap},
            {g: other.rmap[self.rmap[g]] for g in self.rmap})

    def __repr__(self):
        return f"StrictXMorphism({self.dom!r} -> {self.cod!r})"


def check_strict_xmorphism(chi):
    """The violations of a strict morphism of crossed modules (empty when
    it is one): its left and right maps as functors (stops here), then
    the boundary square, boundary(lmap h) = rmap(boundary h), and
    equivariance, lmap(h^g) = (lmap h)^{rmap g}, each listing its failures
    in label order.

    When both crossed modules are validated and the domain's G keeps its
    generators S (Groupoid.gens(find=False)), equivariance is certified on
    g in S and h in S_{tgt(g)} (util.law_failures), S_x the kept generators
    of the domain's H at x (GroupBundle.gens_by_point), or the whole fibre
    when it keeps none.  For one g, both sides are homomorphisms of the
    fibre at tgt(g): lmap is a functor and h -> h^g an automorphism in
    either crossed module.  They agree on S_{tgt(g)}, so on the fibre it
    generates.  For g1, g2 that satisfy it at every h, with src(g1) ==
    tgt(g2),
      lmap(h^{g1 g2}) = lmap((h^{g1})^{g2}) = (lmap(h^{g1}))^{rmap g2}
                      = ((lmap h)^{rmap g1})^{rmap g2}
                      = (lmap h)^{rmap(g1) rmap(g2)} = (lmap h)^{rmap(g1 g2)},
    by functoriality of the domain's action, g2 at h^{g1}, g1 at h,
    functoriality of the codomain's action and rmap a functor.  So the g
    that satisfy it are closed under composition, hold S, and so every
    arrow.  The certificate runs only when it visits fewer instances than
    the sweep.  When it fails, or does not run, the sweep lists every
    failure, so the witnesses and their order do not depend on the
    route."""
    violations = []
    violations += check_groupoid_morphism(chi.left())
    violations += check_groupoid_morphism(chi.right())
    if violations:
        return violations
    d, c = chi.dom, chi.cod
    for hh in d.h.arrows:
        if c.boundary[chi.lmap[hh]] != chi.rmap[d.boundary[hh]]:
            violations.append(Violation("BoundaryNotRespected", (hh,)))
    # the certificate's instances are the sweep's with g in S and h in S_x,
    # so it visits fewer unless both are everything
    gens = d.g.gens(find=False) if d.validated and c.validated else None
    at = d.h.gens_by_point() if gens else None
    if gens and len(gens) == len(d.g.arrows) and at is None:
        gens = None
    violations += law_failures(_unequivariant, None if not gens else (chi, gens, at),
                               (chi, d.g.arrows, None))
    return violations


def _unequivariant(chi, arrows, at):
    """The violations at the (g, h) with lmap(h^g) != (lmap h)^{rmap g},
    for g in arrows and h in at[tgt(g)], or over tgt(g) when at is None:
    check_strict_xmorphism's certificate gives it the generators, the
    sweep every arrow and no at."""
    lmap, rmap, tgt, fiber = chi.lmap, chi.rmap, chi.dom.g.tgt, chi.dom.h.fiber
    dact, cact = chi.dom.action.act, chi.cod.action.act
    for gg in arrows:
        rg = rmap[gg]
        for hh in (fiber(tgt[gg]) if at is None else at[tgt[gg]]):
            if lmap[dact[(gg, hh)]] != cact[(rg, lmap[hh])]:
                yield Violation("NotEquivariant", (gg, hh))


def validate_strict_xmorphism(dom, cod, omap, lmap, rmap):
    """The strict morphism, marked validated.  Raises ValidationFailure."""
    chi = StrictXMorphism(dom, cod, omap, lmap, rmap)
    require(chi, check_strict_xmorphism(chi)).validated = True
    return chi


def identity_xmorphism(xm):
    return StrictXMorphism(xm, xm, {x: x for x in xm.g.objects},
                           {h: h for h in xm.h.arrows},
                           {g: g for g in xm.g.arrows})


def semidirect_of_morphism(chi):
    """H2 x|_chi G1 over the common unit space: G1 acts on H2 through chi
    followed by the action of the codomain."""
    d, c = chi.dom, chi.cod
    if d.g.objects != c.g.objects or \
            any(chi.omap[x] != x for x in d.g.objects):
        raise UnitSpaceMismatch("semidirect_of_morphism needs a common unit space")
    act = {}
    for g1 in d.g.arrows:
        for h2 in c.h.fiber(d.g.tgt[g1]):
            act[(g1, h2)] = c.act(chi.rmap[g1], h2)
    action = validate_action(d.g, c.h, act)
    return semidirect_product(action), action


def vertical_cells(xm):
    """The cells of the associated 2-groupoid and their ends, as three
    tables (parts, src2, tgt2) keyed by the cell labels: for each arrow g
    of G and each h in the fiber of H over its target, the cell (h, g): g
    => boundary(h) g, labelled pair(h, g), with parts (h, g).  They read G,
    H and the boundary alone, and no composite, inverse or unit of cells."""
    g, h, boundary = xm.g, xm.h, xm.boundary
    parts, src2, tgt2 = {}, {}, {}
    for gg in g.arrows:
        for hh in h.fiber(g.tgt[gg]):
            a = pair(hh, gg)
            parts[a], src2[a], tgt2[a] = (hh, gg), gg, g.comp[(boundary[hh], gg)]
    return parts, src2, tgt2


def vertical_groupoid(xm):
    """H x| G ==> G, the vertical groupoid of the associated 2-groupoid, on
    the arrows of G and the cells of vertical_cells(xm).  Every inverse,
    unit and composite takes its label from the cell of its parts rather
    than building it again.  Memoized per crossed-module instance
    (immutable after validation), so every morphism into or out of xm
    reads one groupoid."""
    if xm._vertical is not None:
        return xm._vertical
    g, h = xm.g, xm.h
    cells, _, tgt2 = vertical_cells(xm)
    label = {r: a for a, r in cells.items()}

    def target(r):
        return tgt2[label[r]]

    xm._vertical = groupoid_of_parts(
        g.arrows, cells, lambda r: r[1], target,
        lambda r: label[(h.inv[r[0]], target(r))],
        lambda gg: label[(h.unit[g.tgt[gg]], gg)],
        lambda r, r2: label[(h.comp[(r[0], r2[0])], r2[1])])  # function order: r2 then r
    return xm._vertical


def xmod_to_2groupoid(xm):
    """The vertical semidirect product 2-groupoid of a crossed module: xm.g
    is its level-1 groupoid, vertical_groupoid(xm) (memoized) its vertical
    one, and the (h, g) parts of its cells are its level-2 parts.  It is built from
    its whiskers, (h, g) *h 1_k = (h, g k) and 1_k *h (h, g) =
    (h^{k^-1}, k g), and its hcomp, (h, g) *h (h', g') = (h h'^{g^-1}, g g'),
    is computed from them (twogpd.WhiskeredHComp).  Memoized per
    crossed-module instance (immutable after validation)."""
    if xm._vertical2 is not None:
        return xm._vertical2
    g = xm.g
    vertical = vertical_groupoid(xm)
    label = {r: a for a, r in vertical.parts.items()}
    ending, starting = {}, {}
    for k in g.arrows:
        ending.setdefault(g.tgt[k], []).append(k)
        starting.setdefault(g.src[k], []).append((k, g.inv[k]))
    comp, act = g.comp, xm.action.act
    right, left = {}, {}
    for a, (ha, ga) in vertical.parts.items():
        right[a] = {k: label[(ha, comp[(ga, k)])] for k in ending[g.src[ga]]}
        left[a] = {k: label[(act[(k_inv, ha)], comp[(k, ga)])]
                   for k, k_inv in starting[g.tgt[ga]]}
    out = tgd.make_2groupoid(g, vertical, None, whiskers=(right, left))
    out.parts = {2: vertical.parts}
    xm._vertical2 = out
    return out


def twogpd_to_xmod(tg):
    """Crossed module of a 2-groupoid: H = identity-sourced cells whose target
    is a loop at the same object, boundary t2, fiber product *h, action by
    whiskering. On strict-bigon inputs this is exactly the identity-sourced
    cell bundle."""
    base_of = {}
    for a in tg.g2:
        g0 = tg.s2[a]
        if not tg.is_unit1(g0):
            continue
        x = tg.s[g0]
        tcell = tg.t2[a]
        if tg.s[tcell] == x and tg.t[tcell] == x:
            base_of[a] = x
    bundle = as_group_bundle(groupoid_of_parts(
        tg.g0, {a: a for a in base_of}, base_of.__getitem__, base_of.__getitem__,
        tg.hinv.__getitem__, lambda x: tg.vunit[tg.unit1[x]],
        lambda a, b: tg.hcomp[(a, b)]))
    boundary = {a: tg.t2[a] for a in base_of}
    act = {}
    for gg in tg.g1:
        u_inv = tg.vunit[tg.inv1[gg]]
        u = tg.vunit[gg]
        for a in bundle.fiber(tg.t[gg]):
            act[(gg, a)] = tg.hchain(u_inv, a, u)
    return validate_crossed_module(tg.level1, bundle, boundary,
                                   validate_action(tg.level1, bundle, act))


def roundtrip_iso(tg):
    """phi: tg -> 2gpd(xmod(tg)) and its inverse psi; composites verified to
    be identities. Requires honest bigons."""
    if not tg.strict_bigons:
        raise ValidationFailure([Violation("NotStrictBigons", None,
                                           "roundtrip needs parallel 2-cells")])
    xm = twogpd_to_xmod(tg)
    tg2 = xmod_to_2groupoid(xm)
    m2 = {}
    for b in tg.g2:
        gamma = tg.s2[b]
        hpart = tg.hcomp[(b, tg.vunit[tg.inv1[gamma]])]
        m2[b] = pair(hpart, gamma)
    phi = tgd.validate_strict_hom2(tg, tg2, {x: x for x in tg.g0},
                                  {g: g for g in tg.g1}, m2)
    m2back = {}
    for cell in tg2.g2:
        a, gamma = tg2.parts[2][cell]
        m2back[cell] = tg.hcomp[(a, tg.vunit[gamma])]
    psi = tgd.validate_strict_hom2(tg2, tg, {x: x for x in tg2.g0},
                                  {g: g for g in tg2.g1}, m2back)
    for b in tg.g2:
        if psi.m2[phi.m2[b]] != b:
            raise CoherenceFailure(("roundtrip psi.phi", b))
    for cell in tg2.g2:
        if phi.m2[psi.m2[cell]] != cell:
            raise CoherenceFailure(("roundtrip phi.psi", cell))
    return phi, psi


def hom2_from_xmorphism(chi):
    """The induced strict 2-groupoid homomorphism between vertical
    semidirect 2-groupoids (computed on freshly built 2-groupoids)."""
    dom2 = xmod_to_2groupoid(chi.dom)
    cod2 = xmod_to_2groupoid(chi.cod)
    m2 = {}
    for cell in dom2.g2:
        hh, gg = dom2.parts[2][cell]
        m2[cell] = pair(chi.lmap[hh], chi.rmap[gg])
    f = tgd.validate_strict_hom2(dom2, cod2, dict(chi.omap), dict(chi.rmap), m2)
    return f, dom2, cod2


# -- pullbacks and projective products --------------------------------------


def pullback_xmod(xm, space, sigma):
    """sigma^* xm over `space`, plus the projection strict morphism."""
    g, h = xm.g, xm.h
    pg = pullback_groupoid(g, space, sigma)
    parts = {pair(z, hh): (z, hh) for z in pg.objects for hh in h.fiber(sigma[z])}
    ph = as_group_bundle(groupoid_of_parts(
        pg.objects, parts, lambda r: r[0], lambda r: r[0],
        lambda r: pair(r[0], h.inv[r[1]]), lambda z: pair(z, h.unit[sigma[z]]),
        lambda r, r2: pair(r[0], h.comp[(r[1], r2[1])])))
    boundary = {a: pair(z, xm.boundary[hh], z) for a, (z, hh) in parts.items()}
    act = {}
    for arrow in pg.arrows:
        z1, gg, z2 = pg.parts[arrow]
        for hh in h.fiber(sigma[z1]):
            act[(arrow, pair(z1, hh))] = pair(z2, xm.act(gg, hh))
    pxm = validate_crossed_module(pg, ph, boundary, validate_action(pg, ph, act))
    proj = validate_strict_xmorphism(
        pxm, xm, {z: sigma[z] for z in pg.objects},
        {a: hh for a, (_, hh) in parts.items()},
        {arrow: pg.parts[arrow][1] for arrow in pg.arrows})
    return pxm, proj


def projective_product(xm1, xm2, zb):
    """G1 *_P G2 and H1 *_P H2 over the Morita equivalence zb between the
    base groupoids, with the componentwise boundary and action; G1 *_P G2
    is bb.projective_groupoid(zb).  Returns (crossed module, projection to
    xm1, projection to xm2)."""
    ok, wit = bb.is_morita(zb)
    if not ok:
        raise ValidationFailure(wit)
    h1, h2 = xm1.h, xm2.h
    tau, sig = zb.lmom, zb.rmom
    gprod = bb.projective_groupoid(zb)

    parts = {}
    for p in zb.space:
        for ha in h1.fiber(tau[p]):
            target = zb.lact[(xm1.boundary[ha], p)]
            for hb in h2.fiber(sig[p]):
                if zb.ract[(p, xm2.boundary[hb])] == target:
                    parts[pair(ha, p, hb)] = (ha, p, hb)
    hprod = as_group_bundle(groupoid_of_parts(
        zb.space, parts, lambda r: r[1], lambda r: r[1],
        lambda r: pair(h1.inv[r[0]], r[1], h2.inv[r[2]]),
        lambda p: pair(h1.unit[tau[p]], p, h2.unit[sig[p]]),
        lambda r, r2: pair(h1.comp[(r[0], r2[0])], r[1], h2.comp[(r[2], r2[2])])))
    boundary = {a: pair(xm1.boundary[ha], p, p, xm2.boundary[hb])
                for a, (ha, p, hb) in parts.items()}
    act = {}
    for arrow in gprod.arrows:
        ga, p1, p2, gb = gprod.parts[arrow]
        for hcell in hprod.fiber(p1):
            ha, _, hb = parts[hcell]
            act[(arrow, hcell)] = pair(xm1.act(ga, ha), p2, xm2.act(gb, hb))
    prod = validate_crossed_module(gprod, hprod, boundary,
                                   validate_action(gprod, hprod, act))
    pr1 = validate_strict_xmorphism(
        prod, xm1, {p: tau[p] for p in zb.space},
        {a: r[0] for a, r in parts.items()},
        {a: gprod.parts[a][0] for a in gprod.arrows})
    pr2 = validate_strict_xmorphism(
        prod, xm2, {p: sig[p] for p in zb.space},
        {a: r[2] for a, r in parts.items()},
        {a: gprod.parts[a][3] for a in gprod.arrows})
    return prod, pr1, pr2


# -- crossed homomorphisms and transformations ------------------------------


def check_crossed_homomorphism(xm, gamma, phi, lam):
    """(phi, lam): Gamma -> H a G-crossed homomorphism: lam(gamma) lives in
    the fiber over phi(t(gamma)) and lam(gg') = lam(g) lam(g')^{phi(g)^-1}."""
    violations = []
    g, h = xm.g, xm.h
    for a in gamma.arrows:
        la = lam.get(a)
        if la not in h.arrows or h.src[la] != phi.omap[gamma.tgt[a]]:
            violations.append(Violation("CrossedHomBadFiber", (a,)))
    if violations:
        return violations
    for a, b in gamma.composable_pairs():
        twisted = xm.act(g.inv[phi.amap[a]], lam[b])
        if lam[gamma.comp[(a, b)]] != h.comp[(lam[a], twisted)]:
            violations.append(Violation("CrossedHomNotMultiplicative", (a, b)))
    return violations


def check_transformation_xmod(tmap, lam, chi, kappa):
    """Axioms T1-T4 for a transformation chi => kappa of strict morphisms
    between crossed modules (common unit spaces)."""
    violations = []
    d, c = chi.dom, chi.cod
    g1, g2, h2 = d.g, c.g, c.h
    for x in g1.objects:
        arr = tmap.get(x)
        if arr not in g2.arrows or g2.src[arr] != chi.omap[x] \
                or g2.tgt[arr] != kappa.omap[x]:
            violations.append(Violation("T1Failure", (x,)))
    if violations:
        return violations
    ch = check_crossed_homomorphism(c, g1, chi.right(), lam)
    if ch:
        violations += [Violation("T2Failure", v.witness, v.code) for v in ch]
        return violations
    for a in g1.arrows:
        x, y = g1.src[a], g1.tgt[a]
        lhs = g2.comp[(kappa.rmap[a], tmap[x])]
        rhs = g2.comp[(g2.comp[(tmap[y], c.boundary[lam[a]])], chi.rmap[a])]
        if lhs != rhs:
            violations.append(Violation("T3Failure", (a,)))
    for x in g1.objects:
        for h1 in d.h.fiber(x):
            lhs = c.act(tmap[x], kappa.lmap[h1])
            rhs = h2.comp[(lam[d.boundary[h1]], chi.lmap[h1])]
            if lhs != rhs:
                violations.append(Violation("T4Failure", (x, h1)))
    return violations


def identity_transformation_xmod(chi):
    """(T, lambda) = (units, units) for chi => chi."""
    d, c = chi.dom, chi.cod
    tmap = {x: c.g.unit[chi.omap[x]] for x in d.g.objects}
    lam = {a: c.h.unit[chi.omap[d.g.tgt[a]]] for a in d.g.arrows}
    return tmap, lam


def transformation_to_2gpd(tmap, lam, chi, kappa):
    """Bridge: v_{g1} = ((lam(g1)^{T(y1)^-1})^-1, kappa(g1) T(x1)) in the
    vertical 2-groupoid of the codomain; v at units is T."""
    d, c = chi.dom, chi.cod
    g1, g2, h2 = d.g, c.g, c.h
    v = {}
    for a in g1.arrows:
        x, y = g1.src[a], g1.tgt[a]
        twisted = c.act(g2.inv[tmap[y]], lam[a])
        v[a] = pair(h2.inv[twisted], g2.comp[(kappa.rmap[a], tmap[x])])
    return v


def transformation_from_2gpd(v, f, k):
    """Bridge from a 2-groupoid transformation v: f => k (f, k the induced
    homs of chi and kappa into a vertical semidirect 2-groupoid):
    T(x) = vbar(x) and lambda(g) = H-part of
    1_{v_y^-1} *h v_g *h 1_{v_x^-1} *h 1_{kappa(g)^-1} *h 1_{v_y}."""
    cod2 = f.cod
    if cod2.parts is None:  # the H-part of a cell is read from its parts
        raise CoherenceFailure(("bridge codomain has no cell parts", cod2))
    tmap = {x: cod2.s2[v[f.dom.unit1[x]]] for x in f.dom.g0}
    lam = {}
    for g in f.dom.g1:
        x, y = f.dom.s[g], f.dom.t[g]
        cell = cod2.hchain(
            cod2.vunit[cod2.inv1[tmap[y]]], v[g],
            cod2.vunit[cod2.inv1[tmap[x]]],
            cod2.vunit[cod2.inv1[k.m1[g]]], cod2.vunit[tmap[y]])
        hpart, base = cod2.parts[2][cell]
        if not cod2.is_unit1(base):
            raise CoherenceFailure(("bridge cell not unit-sourced", g, cell))
        lam[g] = hpart
    return tmap, lam


def semidirect_iso_under_transformation(tmap, lam, chi, kappa):
    """(h2, g1) -> (h2^{T(t(g1))^-1}, g1): iso H2 x|_chi G1 -> H2 x|_kappa G1."""
    sd_chi, _ = semidirect_of_morphism(chi)
    sd_kappa, _ = semidirect_of_morphism(kappa)
    c = chi.cod
    amap = {}
    for a in sd_chi.arrows:
        h2, g1 = sd_chi.parts[a]
        y = chi.dom.g.tgt[g1]
        amap[a] = pair(c.act(c.g.inv[tmap[y]], h2), g1)
    return validate_groupoid_morphism(sd_chi, sd_kappa,
                                      {x: x for x in sd_chi.objects}, amap)


# -- hypercovers -------------------------------------------------------------


def hypercover_report(chi):
    """{WE1, WE2, WE3} of the homomorphism of vertical 2-groupoids induced
    by a strict morphism; chi is a hypercover iff all three hold.

    The three conditions read only the level-1 groupoids G1 and G2 of the
    ends, the cells of each end with their two ends, and the maps (m0, m1,
    m2) = (chi.omap, chi.rmap, (h, g) -> (lmap h, rmap g)), and so does
    the report here when chi and both its ends are marked validated: it
    reads the cells and their ends off vertical_cells of each end, which
    take them from G, H and the boundary, and WE1-WE3 off those
    (twogpd.weak_equivalence_report).  It builds no vertical groupoid, no
    vertical functor, neither 2-groupoid and no StrictHom2, and the checks
    it skips cannot fail on such inputs.  Crossed modules over groupoids
    are equivalent to strict 2-groupoids, and strict morphisms of crossed
    modules to strict 2-functors (Brown, Higgins & Sivera, Nonabelian
    Algebraic Topology, EMS Tracts 15, 2011, section 6):
      vertical_groupoid: H x| G ==> G is a groupoid.  It is the action
           groupoid of the action h.g = boundary(h) g of the group bundle
           H on the arrows of G, and H is a validated bundle and the
           boundary a validated functor (check_crossed_module).
      the vertical functor: m2 = (lmap, rmap) preserves vertical
           composition and units, because lmap is a functor (chi.left())
           and rmap(boundary(h) g) = boundary(lmap h) rmap(g), as rmap is
           a functor that commutes with the boundaries
           (validate_strict_xmorphism).
      xmod_to_2groupoid: its levels are G and the vertical groupoid, both
           validated groupoids; its whiskers and hcomp are those of the
           semidirect product H x| G, whose laws (check_2groupoid's (V),
           (D), (W1) and (W2), the whisker ends) follow from the action's
           laws (validate_action) and the two crossed-module axioms; and
           the h-inverses make_2groupoid derives, vinv(1 *h a *h 1), are
           the inverses of that product.
      validate_strict_hom2: m0 and m1 are chi.right(), a functor that
           validate_strict_xmorphism checked; m2 sends a cell to a cell
           with the ends m1 gives, and preserves vertical composition and
           units, as above; and it preserves the whiskers, hence hcomp,
           since chi.left() is a functor that commutes with the
           boundaries and is equivariant along chi.right().
    Any other input, whose marks are missing (a composite from then, an
    object built by hand), takes the full route: both 2-groupoids and the
    StrictHom2 are built and validated, and their failures raise as they
    did."""
    return _weak_equivalence(chi)[0]


def _weak_equivalence(chi):
    """(chi's WE report, a function that gives chi's vertical functor,
    validated), on the route hypercover_report says."""
    if chi.validated and chi.dom.validated and chi.cod.validated:
        cells, src2, tgt2 = vertical_cells(chi.dom)
        _, cod_src2, cod_tgt2 = vertical_cells(chi.cod)
        m2 = {cell: pair(chi.lmap[hh], chi.rmap[gg]) for cell, (hh, gg) in cells.items()}
        report = tgd.weak_equivalence_report(chi.dom.g, src2, tgt2, chi.cod.g, cod_src2,
                                             cod_tgt2, chi.omap, chi.rmap, m2)
        return report, lambda: validate_groupoid_morphism(
            vertical_groupoid(chi.dom), vertical_groupoid(chi.cod), chi.rmap, m2)
    f, dom2, cod2 = hom2_from_xmorphism(chi)
    return tgd.check_weak_equivalence(f), lambda: validate_groupoid_morphism(
        dom2.vertical, cod2.vertical, dict(f.m1), dict(f.m2))


def check_hypercover(chi):
    """A strict morphism is a hypercover iff the induced homomorphism of
    vertical 2-groupoids is a weak equivalence. Returns (report dict,
    witness bibundle or None). The report is hypercover_report's, on its
    route.  When it passes, the witness is bibundle_from_hom of the
    vertical functor if that is a Morita equivalence of the vertical
    semidirect groupoids; otherwise it is None and the report gains
    WitnessMorita: False.  On marked inputs the vertical groupoids and the
    validated vertical functor are built only then, for the witness."""
    report, vertical = _weak_equivalence(chi)
    witness = None
    if all(report.values()):
        zb = bb.bibundle_from_hom(vertical())
        ok, _ = bb.is_morita(zb)
        if ok:
            witness = zb
        else:
            report["WitnessMorita"] = False
    return report, witness


def is_hypercover(chi):
    """WE1-WE3 of the induced 2-groupoid homomorphism (the definition), by
    hypercover_report: on marked inputs it reads the cells of the two ends
    and builds no groupoid.  Builds no witness bibundle; check_hypercover
    does, and withholds it when it is no Morita equivalence, as on many
    hypercovers whose object map is not injective."""
    return all(hypercover_report(chi).values())
