"""Finite groupoids, group bundles, automorphism bundles, actions,
pullbacks, semidirect products, and the inertia construction.

Everything is a table over opaque string labels. Composition convention
throughout the package: comp(g, h) is defined when src(g) == tgt(h) and
means "h then g", matching the juxtaposition gh of the usual right-to-left
arrow calculus and the GDF table entry `g.h=k`.
"""

from .errors import ValidationFailure, Violation, SizeLimitExceeded
from .util import labelset, pair, search_bijection, unpair

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

    def compose(self, g, h):
        """gh, defined when src(g) == tgt(h)."""
        return self.comp[(g, h)]

    def composable(self, g, h):
        return self.src[g] == self.tgt[h]

    def identity(self, x):
        return self.unit[x]

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
    violations = check_groupoid(objects, arrows, src, tgt, inv, unit, comp)
    if violations:
        raise ValidationFailure(violations)
    return Groupoid(objects, arrows, src, tgt, inv, unit, comp)


# -- stock groupoids -------------------------------------------------------


def unit_groupoid(objects):
    objects = sorted(set(objects))
    unit = {x: pair("id", x) for x in objects}
    arrows = list(unit.values())
    src = {unit[x]: x for x in objects}
    return validate_groupoid(objects, arrows, src, dict(src),
                             {a: a for a in arrows}, unit,
                             {(a, a): a for a in arrows})


def pair_groupoid(objects):
    """Arrows (y,x): x -> y, one for each ordered pair."""
    objects = sorted(set(objects))
    arrows, src, tgt, inv, comp = [], {}, {}, {}, {}
    for y in objects:
        for x in objects:
            a = pair(y, x)
            arrows.append(a)
            src[a], tgt[a], inv[a] = x, y, pair(x, y)
    unit = {x: pair(x, x) for x in objects}
    for z, y1 in ((z, y) for z in objects for y in objects):
        for y2, x in ((y, x) for y in objects for x in objects):
            if y1 == y2:
                comp[(pair(z, y1), pair(y2, x))] = pair(z, x)
    return validate_groupoid(objects, arrows, src, tgt, inv, unit, comp)


def group_as_groupoid(elements, mul, inverse, identity, obj="*", prefix=""):
    """One-object groupoid from a group table. mul(a,b) composes like comp."""
    lab = {e: (prefix + str(e)) for e in elements}
    arrows = [lab[e] for e in elements]
    src = {a: obj for a in arrows}
    comp = {(lab[a], lab[b]): lab[mul(a, b)] for a in elements for b in elements}
    return validate_groupoid(
        [obj], arrows, src, dict(src),
        {lab[e]: lab[inverse(e)] for e in elements},
        {obj: lab[identity]}, comp)


def cyclic_groupoid(n, obj="*", prefix="c"):
    return group_as_groupoid(range(n), lambda a, b: (a + b) % n,
                             lambda a: (-a) % n, 0, obj=obj, prefix=prefix)


def disjoint_union(g1, g2, tag1="A", tag2="B"):
    def t(tag, s):
        return {pair(tag, k) if isinstance(k, str) else k: v for k, v in s.items()}

    objects = [pair(tag1, x) for x in g1.objects] + [pair(tag2, x) for x in g2.objects]
    arrows = [pair(tag1, a) for a in g1.arrows] + [pair(tag2, a) for a in g2.arrows]
    src, tgt, inv, unit, comp = {}, {}, {}, {}, {}
    for tag, g in ((tag1, g1), (tag2, g2)):
        for a in g.arrows:
            src[pair(tag, a)] = pair(tag, g.src[a])
            tgt[pair(tag, a)] = pair(tag, g.tgt[a])
            inv[pair(tag, a)] = pair(tag, g.inv[a])
        for x in g.objects:
            unit[pair(tag, x)] = pair(tag, g.unit[x])
        for (a, b), c in g.comp.items():
            comp[(pair(tag, a), pair(tag, b))] = pair(tag, c)
    return validate_groupoid(objects, arrows, src, tgt, inv, unit, comp)


# -- strict morphisms ------------------------------------------------------


class GroupoidMorphism:
    def __init__(self, dom, cod, omap, amap):
        self.dom, self.cod = dom, cod
        self.omap = dict(omap)
        self.amap = dict(amap)

    def __call__(self, arrow):
        return self.amap[arrow]

    def on_object(self, x):
        return self.omap[x]

    def then(self, other):
        """self followed by other (dom(other) == cod(self))."""
        return GroupoidMorphism(
            self.dom, other.cod,
            {x: other.omap[self.omap[x]] for x in self.omap},
            {a: other.amap[self.amap[a]] for a in self.amap})

    def is_injective(self):
        return len(set(self.amap.values())) == len(self.amap)

    def is_surjective(self):
        return set(self.amap.values()) == self.cod.arrows

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
    violations = check_groupoid_morphism(f)
    if violations:
        raise ValidationFailure(violations)
    return f


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


def trivial_bundle(objects, model, prefix="h"):
    """Constant bundle: one copy of the one-object groupoid `model` per point."""
    objects = sorted(set(objects))
    arrows, src, inv, unit, comp = [], {}, {}, {}, {}
    for x in objects:
        for a in model.arrows:
            arrows.append(pair(x, a))
            src[pair(x, a)] = x
            inv[pair(x, a)] = pair(x, model.inv[a])
        unit[x] = pair(x, next(iter(model.unit.values())))
        for (a, b), c in model.comp.items():
            comp[(pair(x, a), pair(x, b))] = pair(x, c)
    return validate_group_bundle(objects, arrows, src, dict(src), inv, unit, comp)


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

    def apply(self, arrow, h):
        return self.maps[arrow][h]


def aut_bundle(bundle, fiber_cap=DEFAULT_FIBER_CAP):
    """Aut(H): brute-force enumeration of bijective fiber homomorphisms."""
    for x in bundle.objects:
        n = len(bundle.fiber(x))
        if n > fiber_cap:
            raise SizeLimitExceeded(f"fiber at {x}", n, fiber_cap)
    arrows, src, tgt, maps = [], {}, {}, {}
    for x in bundle.objects:
        for y in bundle.objects:
            for iso in iso_maps(bundle, y, x):
                a = aut_label(x, y, iso)
                arrows.append(a)
                src[a], tgt[a] = x, y
                maps[a] = iso
    unit = {x: aut_label(x, x, {h: h for h in bundle.fiber(x)}) for x in bundle.objects}
    inv, comp = {}, {}
    for a in arrows:
        inv[a] = aut_label(tgt[a], src[a], {v: k for k, v in maps[a].items()})
    for a in arrows:
        for b in arrows:
            if src[a] == tgt[b]:
                # arrow composition ab covers "b then a"; underlying map is
                # maps[b] after maps[a] (arrows x->y carry maps fiber(y)->fiber(x))
                composed = {h: maps[b][maps[a][h]] for h in maps[a]}
                comp[(a, b)] = aut_label(src[b], tgt[a], composed)
    gpd = validate_groupoid(bundle.objects, arrows, src, tgt, inv, unit, comp)
    return AutBundle(bundle, gpd.objects, gpd.arrows, gpd.src, gpd.tgt,
                     gpd.inv, gpd.unit, gpd.comp, maps)


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
    violations = check_action(base, bundle, act)
    if violations:
        raise ValidationFailure(violations)
    return ActionByAutomorphisms(base, bundle, act)


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
    arrows, src, tgt, inv, comp = [], {}, {}, {}, {}
    for z1 in space:
        for z2 in space:
            for gg in g.hom(sigma[z2], sigma[z1]):
                a = pair(z1, gg, z2)
                arrows.append(a)
                src[a], tgt[a] = z2, z1
                inv[a] = pair(z2, g.inv[gg], z1)
    unit = {z: pair(z, g.unit[sigma[z]], z) for z in space}
    parts = {a: unpair(a, 3) for a in arrows}
    by_first = {}
    for b in arrows:
        by_first.setdefault(parts[b][0], []).append(b)
    for a in arrows:
        z1, gg, z2 = parts[a]
        for b in by_first.get(z2, ()):
            _, hh, w2 = parts[b]
            comp[(a, b)] = pair(z1, g.comp[(gg, hh)], w2)
    return validate_groupoid(space, arrows, src, tgt, inv, unit, comp)


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
    arrows, src, tgt, inv = [], {}, {}, {}
    for g in base.arrows:
        for h in bundle.fiber(base.tgt[g]):
            a = pair(h, g)
            arrows.append(a)
            src[a], tgt[a] = base.src[g], base.tgt[g]
            hg = act[(g, h)]
            inv[a] = pair(bundle.inv[hg], base.inv[g])
    unit = {x: pair(bundle.unit[x], base.unit[x]) for x in base.objects}
    parts = {a: unpair(a) for a in arrows}
    by_base_tgt = {}
    for b in arrows:
        by_base_tgt.setdefault(base.tgt[parts[b][1]], []).append(b)
    comp = {}
    for a in arrows:
        h, g = parts[a]
        ginv = base.inv[g]
        for b in by_base_tgt.get(base.src[g], ()):
            k, f = parts[b]
            kg = act[(ginv, k)]
            comp[(a, b)] = pair(bundle.comp[(h, kg)], base.comp[(g, f)])
    return validate_groupoid(base.objects, arrows, src, tgt, inv, unit, comp)


def inertia(g):
    """Inertia bundle SG = {loops} with the conjugation action Ad:
    h^g = g^-1 h g (right convention)."""
    loops = [a for a in g.arrows if g.src[a] == g.tgt[a]]
    sub_comp = {(a, b): g.comp[(a, b)] for a in loops for b in loops
                if g.src[a] == g.tgt[b]}
    bundle = validate_group_bundle(
        g.objects, loops,
        {a: g.src[a] for a in loops}, {a: g.tgt[a] for a in loops},
        {a: g.inv[a] for a in loops}, dict(g.unit), sub_comp)
    act = {}
    for gg in g.arrows:
        for h in bundle.fiber(g.tgt[gg]):
            act[(gg, h)] = g.comp[(g.comp[(g.inv[gg], h)], gg)]
    return bundle, validate_action(g, bundle, act)
