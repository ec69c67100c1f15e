"""Finite groupoids, group bundles, automorphism bundles, actions,
pullbacks, semidirect products, and the inertia construction.

Everything is a table over opaque string labels. Composition convention
throughout the package: comp(g, h) is defined when src(g) == tgt(h) and
means "h then g", matching the juxtaposition gh of the usual right-to-left
arrow calculus and the GDF table entry `g.h=k`.
"""

from .errors import ValidationFailure, Violation, SizeLimitExceeded, require
from .util import labelset, pair, quotient, search_bijection, unpair

DEFAULT_FIBER_CAP = 12


class Groupoid:
    """Finite groupoid with explicit src/tgt/inv/unit/comp tables.

    Instances are immutable after validation by convention; share freely.
    """

    def __init__(self, objects, arrows, src, tgt, inv, unit, comp):
        self.objects = labelset(objects)
        self.arrows = labelset(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.inv = dict(inv)
        self.unit = dict(unit)
        self.comp = dict(comp)
        self._by_src = None
        self._by_tgt = None

    # -- queries ---------------------------------------------------------

    def composable(self, g, h):
        return self.src[g] == self.tgt[h]

    def is_unit(self, g):
        return self.unit[self.src[g]] == g

    def arrows_from(self, x):
        if self._by_src is None:
            self._by_src = {}
            for g in self.arrows:
                self._by_src.setdefault(self.src[g], []).append(g)
        return self._by_src.get(x, [])

    def arrows_to(self, y):
        if self._by_tgt is None:
            self._by_tgt = {}
            for g in self.arrows:
                self._by_tgt.setdefault(self.tgt[g], []).append(g)
        return self._by_tgt.get(y, [])

    def hom(self, x, y):
        return [g for g in self.arrows_from(x) if self.tgt[g] == y]

    def loops(self, x):
        return self.hom(x, x)

    def composable_pairs(self):
        for g in self.arrows:
            for h in self.arrows_to(self.src[g]):
                yield g, h

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        return f"Groupoid(|obj|={len(self.objects)}, |arr|={len(self.arrows)})"


def check_groupoid(objects, arrows, src, tgt, inv, unit, comp):
    """Return the list of axiom violations (empty when the tables form a
    groupoid). Witnesses carry the offending arrows."""
    violations = []
    objects, arrows = labelset(objects), labelset(arrows)

    for g in arrows:
        if src.get(g) not in objects or tgt.get(g) not in objects:
            violations.append(Violation("BadArrowEndpoints", (g,)))
        if inv.get(g) not in arrows:
            violations.append(Violation("BadInverse", (g,), "inverse missing"))
    for x in objects:
        e = unit.get(x)
        if e not in arrows:
            violations.append(Violation("BadUnit", (x,), "unit missing"))
        elif src.get(e) != x or tgt.get(e) != x:
            violations.append(Violation("BadUnit", (x, e), "unit not a loop at its object"))
    if violations:
        return violations

    by_tgt = {}
    for h in arrows:
        by_tgt.setdefault(tgt[h], []).append(h)

    # comp total exactly on {(g,h): src(g)=tgt(h)}
    for g in arrows:
        for h in by_tgt.get(src[g], ()):
            if (g, h) not in comp:
                violations.append(Violation("MissingComposite", (g, h)))
                continue
            k = comp[(g, h)]
            if k not in arrows:
                violations.append(Violation("MissingComposite", (g, h), "image not an arrow"))
            elif src[k] != src[h] or tgt[k] != tgt[g]:
                violations.append(Violation("BadComposite", (g, h, k), "endpoint mismatch"))
    for (g, h) in comp:
        if g not in arrows or h not in arrows or src[g] != tgt[h]:
            violations.append(Violation("SpuriousComposite", (g, h)))
    if violations:
        return violations

    for g in arrows:
        if comp[(g, unit[src[g]])] != g:
            violations.append(Violation("BadUnit", (g, unit[src[g]]), "right unit law"))
        if comp[(unit[tgt[g]], g)] != g:
            violations.append(Violation("BadUnit", (unit[tgt[g]], g), "left unit law"))

    for g in arrows:
        gi = inv[g]
        if src.get(gi) != tgt[g] or tgt.get(gi) != src[g]:
            violations.append(Violation("BadInverse", (g, gi), "endpoint mismatch"))
            continue
        if comp[(g, gi)] != unit[tgt[g]] or comp[(gi, g)] != unit[src[g]]:
            violations.append(Violation("BadInverse", (g, gi), "g*inv(g) or inv(g)*g not a unit"))

    # associativity on all composable triples
    for g in arrows:
        for h in by_tgt.get(src[g], ()):
            gh = comp[(g, h)]
            for k in by_tgt.get(src[h], ()):
                if comp[(gh, k)] != comp[(g, comp[(h, k)])]:
                    violations.append(Violation("NonAssociative", (g, h, k)))
    return violations


def validate_groupoid(objects, arrows, src, tgt, inv, unit, comp):
    objects, arrows = labelset(objects), labelset(arrows)
    return require(Groupoid(objects, arrows, src, tgt, inv, unit, comp),
                   check_groupoid(objects, arrows, src, tgt, inv, unit, comp))


def groupoid_of_parts(objects, parts, src, tgt, inv, unit, comp):
    """The groupoid on objects whose arrows are the labels of parts, a dict
    from each arrow label to the parts it was built from.

    Every table is read at the parts r of an arrow: src(r) and tgt(r) are
    its endpoints, inv(r) the label of its inverse and comp(r, r2) that of
    its composite with the arrow of parts r2, taken only for the arrows
    whose target is its source; unit(x) is the label of the unit at x.  No
    label is parsed.  The arrows iterate in label order, as every label set
    does, but each table keeps the insertion order of its input: src, tgt
    and inv follow parts, unit follows objects, and comp lists the arrows in
    parts order, each with its composites in parts order.  Raises
    ValidationFailure when the tables do not form a groupoid."""
    source = {a: src(r) for a, r in parts.items()}
    target = {a: tgt(r) for a, r in parts.items()}
    by_tgt = {}
    for a, y in target.items():
        by_tgt.setdefault(y, []).append(a)
    return validate_groupoid(
        objects, list(parts), source, target,
        {a: inv(r) for a, r in parts.items()},
        {x: unit(x) for x in objects},
        {(a, a2): comp(r, parts[a2])
         for a, r in parts.items() for a2 in by_tgt.get(source[a], ())})


def quotient_groupoid(objects, members, links, src, tgt, inv, unit, comp):
    """The groupoid on objects whose arrows are the classes of util.quotient
    (members, links): (groupoid, class_of, reps).

    It is groupoid_of_parts with reps as the parts: every table is read at
    the parts r of a class's least member, but inv(r), unit(x) and
    comp(r, r2) give member labels, and the class of each is the value."""
    class_of, reps = quotient(members, links)
    gpd = groupoid_of_parts(
        objects, reps, src, tgt, lambda r: class_of[inv(r)],
        lambda x: class_of[unit(x)], lambda r, r2: class_of[comp(r, r2)])
    return gpd, class_of, reps


# -- stock groupoids -------------------------------------------------------


def unit_groupoid(objects):
    objects = sorted(set(objects))

    def ident(x):
        return pair("id", x)

    return groupoid_of_parts(objects, {ident(x): x for x in objects},
                             lambda x: x, lambda x: x, ident, ident,
                             lambda x, _: ident(x))


def pair_groupoid(objects):
    """Arrows (y,x): x -> y, one for each ordered pair."""
    objects = sorted(set(objects))
    return groupoid_of_parts(
        objects, {pair(y, x): (y, x) for y in objects for x in objects},
        lambda r: r[1], lambda r: r[0], lambda r: pair(r[1], r[0]),
        lambda x: pair(x, x), lambda r, r2: pair(r[0], r2[1]))


def group_as_groupoid(elements, mul, inverse, identity, obj="*", prefix=""):
    """One-object groupoid from a group table. mul(a,b) composes like comp."""
    lab = {e: (prefix + str(e)) for e in elements}
    return groupoid_of_parts(
        [obj], {a: e for e, a in lab.items()}, lambda e: obj, lambda e: obj,
        lambda e: lab[inverse(e)], lambda x: lab[identity],
        lambda e, e2: lab[mul(e, e2)])


def cyclic_groupoid(n, obj="*", prefix="c"):
    return group_as_groupoid(range(n), lambda a, b: (a + b) % n,
                             lambda a: (-a) % n, 0, obj=obj, prefix=prefix)


def disjoint_union(g1, g2, tag1="A", tag2="B"):
    parts, unit = {}, {}
    for tag, g in ((tag1, g1), (tag2, g2)):
        parts.update((pair(tag, a), (tag, g, a)) for a in g.arrows)
        unit.update((pair(tag, x), pair(tag, g.unit[x])) for x in g.objects)
    return groupoid_of_parts(
        list(unit), parts, lambda r: pair(r[0], r[1].src[r[2]]),
        lambda r: pair(r[0], r[1].tgt[r[2]]), lambda r: pair(r[0], r[1].inv[r[2]]),
        unit.__getitem__, lambda r, r2: pair(r[0], r[1].comp[(r[2], r2[2])]))


# -- strict morphisms ------------------------------------------------------


class GroupoidMorphism:
    def __init__(self, dom, cod, omap, amap):
        self.dom, self.cod = dom, cod
        self.omap = dict(omap)
        self.amap = dict(amap)

    def __call__(self, arrow):
        return self.amap[arrow]

    def then(self, other):
        """self followed by other (dom(other) == cod(self))."""
        return GroupoidMorphism(
            self.dom, other.cod,
            {x: other.omap[self.omap[x]] for x in self.omap},
            {a: other.amap[self.amap[a]] for a in self.amap})

    def __repr__(self):
        return f"GroupoidMorphism(|dom|={len(self.dom)}, |cod|={len(self.cod)})"


def check_groupoid_morphism(f):
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


def validate_groupoid_morphism(dom, cod, omap, amap):
    f = GroupoidMorphism(dom, cod, omap, amap)
    return require(f, check_groupoid_morphism(f))


def identity_morphism(g):
    return GroupoidMorphism(g, g, {x: x for x in g.objects}, {a: a for a in g.arrows})


def search_groupoid_iso(g1, g2, node_cap=10**6):
    """Brute-force isomorphism search; returns a GroupoidMorphism or None."""
    if len(g1.objects) != len(g2.objects) or len(g1.arrows) != len(g2.arrows):
        return None
    # object signature: multiset of (|loops|, |hom(x,y)| profile) is overkill
    # at desk scale; prune on loop counts only.
    sig1 = {x: (len(g1.loops(x)), len(g1.arrows_from(x))) for x in g1.objects}
    sig2 = {x: (len(g2.loops(x)), len(g2.arrows_from(x))) for x in g2.objects}

    for omap in _object_bijections(g1.objects, g2.objects, sig1, sig2):
        def candidates(a):
            return g2.hom(omap[g1.src[a]], omap[g1.tgt[a]])

        def consistent(partial, a, b):
            if g1.is_unit(a) != g2.is_unit(b):
                return False
            for c, d in partial.items():
                if g1.composable(a, c):
                    done = partial.get(g1.comp[(a, c)])
                    if done is not None and g2.comp[(b, d)] != done:
                        return False
                if g1.composable(c, a):
                    done = partial.get(g1.comp[(c, a)])
                    if done is not None and g2.comp[(d, b)] != done:
                        return False
            return True

        amap = search_bijection(g1.arrows, g2.arrows, candidates,
                                consistent, node_cap=node_cap)
        if amap is not None:
            f = GroupoidMorphism(g1, g2, omap, amap)
            if not check_groupoid_morphism(f):
                return f
    return None


def _object_bijections(xs, ys, sig1, sig2):
    def cands(x):
        return [y for y in ys if sig1[x] == sig2[y]]

    def consistent(partial, x, y):
        return True

    seen = search_bijection(xs, ys, cands, consistent)
    if seen is not None:
        yield seen
        # try remaining object bijections lazily only if the first fails at
        # the arrow level: enumerate all (desk scale keeps this tiny)
        import itertools
        for perm in itertools.permutations(ys):
            omap = dict(zip(xs, perm))
            if omap == seen:
                continue
            if all(sig1[x] == sig2[omap[x]] for x in xs):
                yield omap


# -- group bundles and Aut ------------------------------------------------


class GroupBundle(Groupoid):
    """Groupoid whose every arrow is an endo-arrow; fibers are groups."""

    def fiber(self, x):
        # every arrow is a loop (both constructors check it)
        return self.arrows_from(x)


def validate_group_bundle(objects, arrows, src, tgt, inv, unit, comp):
    return as_group_bundle(validate_groupoid(objects, arrows, src, tgt, inv, unit, comp))


def as_group_bundle(g):
    """Reinterpret a validated groupoid whose arrows are all loops."""
    bad = [h for h in g.arrows if g.src[h] != g.tgt[h]]
    if bad:
        raise ValidationFailure([Violation("NotEndoArrow", (h,)) for h in bad])
    return GroupBundle(g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp)


def unit_bundle(objects):
    return as_group_bundle(unit_groupoid(objects))


def trivial_bundle(objects, model):
    """Constant bundle: one copy of the one-object groupoid `model` per point."""
    objects = sorted(set(objects))
    e = next(iter(model.unit.values()))
    return as_group_bundle(groupoid_of_parts(
        objects, {pair(x, a): (x, a) for x in objects for a in model.arrows},
        lambda r: r[0], lambda r: r[0], lambda r: pair(r[0], model.inv[r[1]]),
        lambda x: pair(x, e), lambda r, r2: pair(r[0], model.comp[(r[1], r2[1])])))


def iso_maps(bundle, y, x):
    """All group isomorphisms fiber(y) -> fiber(x), as dicts (brute force)."""
    fy, fx = bundle.fiber(y), bundle.fiber(x)
    if len(fy) != len(fx):
        return []
    ey, ex = bundle.unit[y], bundle.unit[x]

    def candidates(h):
        if h == ey:
            return [ex]
        return [k for k in fx if k != ex]

    def consistent(partial, h, k):
        for h2, k2 in partial.items():
            prod = partial.get(bundle.comp[(h, h2)])
            if prod is not None and bundle.comp[(k, k2)] != prod:
                return False
            prod = partial.get(bundle.comp[(h2, h)])
            if prod is not None and bundle.comp[(k2, k)] != prod:
                return False
        return True

    out = []
    _all_bijections(fy, fx, candidates, consistent, {}, out, bundle)
    return out


def _all_bijections(xs, ys, candidates, consistent, partial, out, bundle):
    if len(partial) == len(xs):
        iso = dict(partial)
        if _is_hom(bundle, iso):
            out.append(iso)
        return
    h = xs[len(partial)]
    used = set(partial.values())
    for k in candidates(h):
        if k in used:
            continue
        if not consistent(partial, h, k):
            continue
        partial[h] = k
        _all_bijections(xs, ys, candidates, consistent, partial, out, bundle)
        del partial[h]


def _is_hom(bundle, iso):
    dom = list(iso)
    for a in dom:
        for b in dom:
            if bundle.comp[(iso[a], iso[b])] != iso[bundle.comp[(a, b)]]:
                return False
    return True


def aut_label(x, y, iso):
    body = "|".join(f"{k}>{v}" for k, v in sorted(iso.items()))
    return pair(x, y, "[" + body + "]")


class AutBundle(Groupoid):
    """Groupoid whose arrow x -> y is a group isomorphism fiber(y) -> fiber(x)
    of the underlying bundle (right-action convention)."""

    def __init__(self, bundle, objects, arrows, src, tgt, inv, unit, comp, maps):
        super().__init__(objects, arrows, src, tgt, inv, unit, comp)
        self.bundle = bundle
        self.maps = maps  # arrow label -> dict fiber(tgt) -> fiber(src)


def aut_bundle(bundle, fiber_cap=DEFAULT_FIBER_CAP):
    """Aut(H): brute-force enumeration of bijective fiber homomorphisms."""
    for x in bundle.objects:
        n = len(bundle.fiber(x))
        if n > fiber_cap:
            raise SizeLimitExceeded(f"fiber at {x}", n, fiber_cap)
    parts = {aut_label(x, y, iso): (x, y, iso) for x in bundle.objects
             for y in bundle.objects for iso in iso_maps(bundle, y, x)}
    # arrow composition ab covers "b then a"; its underlying map is b's
    # after a's (arrows x->y carry maps fiber(y)->fiber(x))
    gpd = groupoid_of_parts(
        bundle.objects, parts, lambda r: r[0], lambda r: r[1],
        lambda r: aut_label(r[1], r[0], {v: k for k, v in r[2].items()}),
        lambda x: aut_label(x, x, {h: h for h in bundle.fiber(x)}),
        lambda r, r2: aut_label(r2[0], r[1], {h: r2[2][r[2][h]] for h in r[2]}))
    return AutBundle(bundle, gpd.objects, gpd.arrows, gpd.src, gpd.tgt,
                     gpd.inv, gpd.unit, gpd.comp,
                     {a: iso for a, (_, _, iso) in parts.items()})


# -- actions ---------------------------------------------------------------


class ActionByAutomorphisms:
    """Action of a groupoid on a group bundle over its objects:
    act[(g, h)] = h^g with h in fiber(t(g)), h^g in fiber(s(g))."""

    def __init__(self, base, bundle, act):
        self.base = base
        self.bundle = bundle
        self.act = dict(act)

    def __call__(self, g, h):
        return self.act[(g, h)]

    def as_aut_morphism(self, fiber_cap=DEFAULT_FIBER_CAP):
        """The induced strict morphism base -> Aut(bundle)."""
        aut = aut_bundle(self.bundle, fiber_cap=fiber_cap)
        amap = {}
        for g in self.base.arrows:
            iso = {h: self.act[(g, h)] for h in self.bundle.fiber(self.base.tgt[g])}
            amap[g] = aut_label(self.base.src[g], self.base.tgt[g], iso)
        f = validate_groupoid_morphism(self.base, aut,
                                       {x: x for x in self.base.objects}, amap)
        return aut, f


def check_action(base, bundle, act):
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
    # (h^g)^{g'} = h^{gg'}: functoriality = strict morphism into Aut(bundle)
    for g, g2 in base.composable_pairs():
        for h in bundle.fiber(base.tgt[g]):
            if act[(base.comp[(g, g2)], h)] != act[(g2, act[(g, h)])]:
                violations.append(Violation("NotFunctorial", (g, g2), f"on {h}"))
    return violations


def validate_action(base, bundle, act):
    return require(ActionByAutomorphisms(base, bundle, act),
                   check_action(base, bundle, act))


def trivial_action(base, bundle):
    """Identity on fibers over loops; labelwise transport (y,a) -> (x,a) on
    constant bundles built by trivial_bundle/unit_bundle."""
    act = {}
    for g in base.arrows:
        x, y = base.src[g], base.tgt[g]
        for h in bundle.fiber(y):
            if x == y:
                act[(g, h)] = h
            elif bundle.unit[y] == h:
                act[(g, h)] = bundle.unit[x]
            else:
                _, a = unpair(h)  # constant-bundle label (point, model arrow)
                act[(g, h)] = pair(x, a)
    return validate_action(base, bundle, act)


def transport_action(base, bundle, carry):
    """Action where g transports fiber(t(g)) to fiber(s(g)) via carry(g, h)."""
    act = {(g, h): carry(g, h)
           for g in base.arrows for h in bundle.fiber(base.tgt[g])}
    return validate_action(base, bundle, act)


# -- constructions ---------------------------------------------------------


def pullback_groupoid(g, space, sigma):
    """Pullback of g along sigma: space -> g.objects.

    Arrows are triples (z1, gg, z2) with sigma(z1)=t(gg), s(gg)=sigma(z2);
    empty result allowed when sigma misses all of g.objects.  A point sent
    outside g.objects raises ValidationFailure (BadObjectImage).
    """
    space = sorted(set(space))
    bad = [Violation("BadObjectImage", (z,)) for z in space if sigma[z] not in g.objects]
    if bad:
        raise ValidationFailure(bad)
    return groupoid_of_parts(
        space, {pair(z1, gg, z2): (z1, gg, z2) for z1 in space for z2 in space
                for gg in g.hom(sigma[z2], sigma[z1])},
        lambda r: r[2], lambda r: r[0], lambda r: pair(r[2], g.inv[r[1]], r[0]),
        lambda z: pair(z, g.unit[sigma[z]], z),
        lambda r, r2: pair(r[0], g.comp[(r[1], r2[1])], r2[2]))


def pullback_iso_to_base(g, pulled, sigma):
    """For sigma = identity, the explicit iso (x,g,y) -> g and its inverse."""
    fwd = validate_groupoid_morphism(
        pulled, g,
        {z: sigma[z] for z in pulled.objects},
        {a: unpair(a, 3)[1] for a in pulled.arrows})
    back = validate_groupoid_morphism(
        g, pulled,
        {x: x for x in g.objects},
        {a: pair(g.tgt[a], a, g.src[a]) for a in g.arrows})
    return fwd, back


def semidirect_product(action):
    """H x| G: arrows (h,g) with h in fiber(t(g)); product
    (h,g)(k,f) = (h k^{g^-1}, gf); inverse ((h^g)^-1, g^-1).
    The result is re-verified against all groupoid axioms."""
    base, bundle, act = action.base, action.bundle, action.act

    def inverse(r):
        h, g = r
        return pair(bundle.inv[act[(g, h)]], base.inv[g])

    def compose(r, r2):
        (h, g), (k, f) = r, r2
        return pair(bundle.comp[(h, act[(base.inv[g], k)])], base.comp[(g, f)])

    return groupoid_of_parts(
        base.objects, {pair(h, g): (h, g) for g in base.arrows
                       for h in bundle.fiber(base.tgt[g])},
        lambda r: base.src[r[1]], lambda r: base.tgt[r[1]], inverse,
        lambda x: pair(bundle.unit[x], base.unit[x]), compose)


def inertia(g):
    """Inertia bundle SG = {loops} with the conjugation action Ad:
    h^g = g^-1 h g (right convention)."""
    bundle = as_group_bundle(groupoid_of_parts(
        g.objects, {a: a for a in g.arrows if g.src[a] == g.tgt[a]},
        g.src.__getitem__, g.tgt.__getitem__, g.inv.__getitem__,
        g.unit.__getitem__, lambda a, b: g.comp[(a, b)]))
    act = {}
    for gg in g.arrows:
        for h in bundle.fiber(g.tgt[gg]):
            act[(gg, h)] = g.comp[(g.comp[(g.inv[gg], h)], gg)]
    return bundle, validate_action(g, bundle, act)
