"""Finite groupoids, group bundles, automorphism bundles, actions,
pullbacks, semidirect products, and the inertia construction.

Everything is a table over opaque string labels. Composition convention
throughout the package: comp(g, h) is defined when src(g) == tgt(h) and
means "h then g", matching the juxtaposition gh of the usual right-to-left
arrow calculus and the GDF table entry `g.h=k`.
"""

from .errors import (CoherenceFailure, ValidationFailure, Violation, SizeLimitExceeded,
                     require)
from .util import (bijections, labelset, law_failures, pair, quotient, search_bijection,
                   unpair)

DEFAULT_FIBER_CAP = 12


class Groupoid:
    """Finite groupoid with explicit src/tgt/inv/unit/comp tables.

    Instances are immutable after validation by convention; share freely.
    The groupoid keeps the table dicts it is given, not copies, so a
    caller that edits a table afterwards edits the groupoid.  A groupoid
    that validate_groupoid returned is marked validated, and only such a
    groupoid gives its generators (gens); the certificates that read them
    run on validated groupoids alone.
    """

    def __init__(self, objects, arrows, src, tgt, inv, unit, comp):
        self.objects = labelset(objects)
        self.arrows = labelset(arrows)
        self.src, self.tgt, self.inv, self.unit, self.comp = src, tgt, inv, unit, comp
        self.parts = None  # set by groupoid_of_parts: arrow label -> its parts
        self.validated = False  # set by validate_groupoid
        self._gens = None
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

    def gens(self, find=True):
        """S = generators(arrows, src, tgt, comp) of a validated groupoid,
        in label order: the one its check found or an earlier call kept,
        or, with find, computed now and kept.  None for a groupoid that was
        not validated, and without find for one that keeps none.  The
        certificates read them without find: finding them would cost about
        what a certificate saves, so a small groupoid keeps the sweep."""
        if find and self.validated and self._gens is None:
            self._gens = generators(self.arrows, self.src, self.tgt, self.comp)
        return self._gens if self.validated else None

    def generator_pairs(self):
        """The composable pairs (g, s) with s a kept generator (gens(find=
        False)), s by s, or None when the groupoid keeps none or they are
        not fewer than all composable pairs (|comp|)."""
        gens = self.gens(find=False)
        if not gens:
            return None
        pairs = [(g, s) for s in gens for g in self.arrows_from(self.tgt[s])]
        return pairs if len(pairs) < len(self.comp) else None

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


def generators(arrows, src, tgt, comp):
    """A generating set S of a composition table, as a list in label order.

    S is chosen greedily: the arrows are taken in label order, the
    idempotents (in a groupoid, the units) last, and each one not yet
    reached becomes a generator.  The arrows reached are the closure of S
    under right multiplication, x -> comp[(x, s)] for s in S with src(x) ==
    tgt(s), so every arrow is a left-normed product (..((s1 s2) s3)..) sk
    of generators, and no associativity is assumed.  A unit is mostly
    reached as a product of other arrows (g^-1 g), so it seldom becomes a
    generator, and each generator costs a pass of every test that reads S.
    comp must be total on the composable pairs, with composites among the
    arrows."""
    gens, reached = [], set()
    gens_to, reached_from = {}, {}  # object -> generators ending, arrows reached starting there
    for a in sorted(arrows, key=lambda a: src[a] == tgt[a] and comp[(a, a)] == a):
        if a in reached:
            continue
        gens.append(a)
        gens_to.setdefault(tgt[a], []).append(a)
        todo = [a] + [comp[(x, a)] for x in reached_from.get(tgt[a], ())]
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                reached_from.setdefault(src[y], []).append(y)
                todo += [comp[(y, s)] for s in gens_to.get(src[y], ())]
    return sorted(gens)


def check_groupoid(objects, arrows, src, tgt, inv, unit, comp):
    """Return the list of axiom violations (empty when the tables form a
    groupoid). Witnesses carry the offending arrows.  Associativity is
    decided as in check_groupoid_generators, but the generators are looked
    for only when the sweep would visit more than 2 |comp| triples: finding
    them reads at most |comp| composites, and Light's test on a groupoid
    visits at least |comp| triples, since right multiplication keeps
    sources, so that every object is the source of a generator."""
    return _check_groupoid(objects, arrows, src, tgt, inv, unit, comp, False)[0]


def check_groupoid_generators(objects, arrows, src, tgt, inv, unit, comp):
    """(check_groupoid's violations, S): S is generators(arrows, src, tgt,
    comp), or None when the tables fail the endpoint or totality checks.

    Associativity is decided by Light's test (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, 1.2): the table is associative
    iff (x s) y = x (s y) for every s in S and every composable x, y.  It
    holds for partial composition once comp is total on the composable
    pairs with composites of the right endpoints, which the checks before
    it establish; the unit and inverse laws are not used.  Let T be the
    arrows a with (x a) y = x (a y) for all composable x, y.  For a, b in T
    with src(a) == tgt(b),
      (x (ab)) y = ((xa) b) y = (xa) (by) = x (a (by)) = x ((ab) y),
    using b, b, a and b in T in turn, so ab is in T.  T holds S and is
    closed under composition, so it holds the closure of S, every arrow.
    Conversely an associative table passes.  So the test finds a failure
    iff the sweep of all composable triples does, and then the sweep runs
    and lists every failing triple in label order.  Both are one body, the
    law on the triples with their middle arrow in a given set: the test
    gives it S, the sweep every arrow.

    For an arrow a let w(a) = |arrows from tgt(a)| |arrows to src(a)|, the
    triples the test sweeps for a generator a; the sweep visits the sum of
    w over all arrows.  The test runs when the sum of w over S is smaller,
    and the sweep otherwise."""
    return _check_groupoid(objects, arrows, src, tgt, inv, unit, comp, True)


def _check_groupoid(objects, arrows, src, tgt, inv, unit, comp, want_generators):
    # the body of both checks above: want_generators asks for S whatever
    # it costs, since the caller reads it again
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
        return violations, None

    by_src, by_tgt = {}, {}
    for h in arrows:
        by_src.setdefault(src[h], []).append(h)
        by_tgt.setdefault(tgt[h], []).append(h)

    # comp total exactly on {(g,h): src(g)=tgt(h)}; pairs counts the
    # composable keys, so the other len(comp) - pairs keys are spurious
    pairs = 0
    for g in arrows:
        for h in by_tgt.get(src[g], ()):
            if (g, h) not in comp:
                violations.append(Violation("MissingComposite", (g, h)))
                continue
            pairs += 1
            k = comp[(g, h)]
            if k not in arrows:
                violations.append(Violation("MissingComposite", (g, h), "image not an arrow"))
            elif src[k] != src[h] or tgt[k] != tgt[g]:
                violations.append(Violation("BadComposite", (g, h, k), "endpoint mismatch"))
    if len(comp) != pairs:
        for (g, h) in comp:
            if g not in arrows or h not in arrows or src[g] != tgt[h]:
                violations.append(Violation("SpuriousComposite", (g, h)))
    if violations:
        return violations, None

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

    def weight(a):
        return len(by_src[tgt[a]]) * len(by_tgt[src[a]])

    triples, gens = sum(map(weight, arrows)), None
    if want_generators or 2 * len(comp) < triples:
        gens = generators(arrows, src, tgt, comp)
        if sum(map(weight, gens)) < triples and \
                next(_nonassociative(gens, by_src, by_tgt, src, tgt, comp), None) is None:
            return violations, gens
    violations += [Violation("NonAssociative", xsy)
                   for xsy in sorted(_nonassociative(arrows, by_src, by_tgt, src, tgt, comp))]
    return violations, gens


def _nonassociative(middles, by_src, by_tgt, src, tgt, comp):
    """The composable triples (x, s, y) with s in middles and (x s) y !=
    x (s y), middle by middle.  Light's test runs it on the generators and
    stops at the first; the sweep runs it on every arrow and sorts, which
    lists the triples in label order."""
    for s in middles:
        s_y = [(y, comp[(s, y)]) for y in by_tgt[src[s]]]
        for x in by_src[tgt[s]]:
            xs = comp[(x, s)]
            for y, sy in s_y:
                if comp[(xs, y)] != comp[(x, sy)]:
                    yield x, s, y


def validate_groupoid(objects, arrows, src, tgt, inv, unit, comp):
    """The groupoid of the tables, marked validated and keeping the
    generators its check found, if it looked for them (Groupoid.gens
    finds them on request otherwise).  Raises ValidationFailure."""
    objects, arrows = labelset(objects), labelset(arrows)
    violations, gens = _check_groupoid(objects, arrows, src, tgt, inv, unit, comp, False)
    gpd = require(Groupoid(objects, arrows, src, tgt, inv, unit, comp), violations)
    gpd.validated, gpd._gens = True, gens
    return gpd


def groupoid_of_parts(objects, parts, src, tgt, inv, unit, comp):
    """The groupoid on objects whose arrows are the labels of parts, a dict
    from each arrow label to the parts it was built from.  The result keeps
    parts as its .parts table, so a reader looks an arrow's parts up there
    instead of parsing its label.

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
    gpd = validate_groupoid(
        objects, list(parts), source, target,
        {a: inv(r) for a, r in parts.items()},
        {x: unit(x) for x in objects},
        {(a, a2): comp(r, parts[a2])
         for a, r in parts.items() for a2 in by_tgt.get(source[a], ())})
    gpd.parts = parts
    return gpd


def quotient_groupoid(objects, members, links, src, tgt, inv, unit, comp):
    """The groupoid on objects whose arrows are the classes of util.quotient
    (members, links), and the class_of map: (groupoid, class_of).

    It is groupoid_of_parts with reps as the parts, so the groupoid keeps
    reps as its .parts: every table is read at the parts r of a class's
    least member, but inv(r), unit(x) and comp(r, r2) give member labels,
    and the class of each is the value."""
    class_of, reps = quotient(members, links)
    gpd = groupoid_of_parts(
        objects, reps, src, tgt, lambda r: class_of[inv(r)],
        lambda x: class_of[unit(x)], lambda r, r2: class_of[comp(r, r2)])
    return gpd, class_of


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
    """The violations of a table map f: dom -> cod (empty when it is a
    functor): object and arrow images and their endpoints, then units,
    then composites.

    Composites are one law, f(g h) = f(g) f(h), run on the composable
    pairs it is given.  When dom and cod are validated groupoids, so
    associative, and dom keeps its generators S (Groupoid.gens: its check
    found them, or a reader asked for them), the law runs first on the
    pairs (g, s) with s in S, and stops at the first failure.  Let T be
    the arrows s with f(g s) = f(g) f(s) for every g with src(g) ==
    tgt(s).  For s1, s2 in T with src(s1) == tgt(s2),
      f(g (s1 s2)) = f((g s1) s2) = f(g s1) f(s2) = (f(g) f(s1)) f(s2)
                   = f(g) (f(s1) f(s2)) = f(g) f(s1 s2),
    by associativity in dom, s2 and s1 in T, associativity in cod and s2
    in T (with g = s1), so s1 s2 is in T.  T holds S and is closed under
    composition, so it holds the closure of S, every arrow.  The
    certificate runs only when it visits fewer pairs than the sweep, the
    arrows out of tgt(s) summed over S against |comp|, as in
    _check_groupoid.  When it fails, or does not run, the sweep visits
    every composable pair and lists each failing one in label order, so
    the witnesses and their order do not depend on the route."""
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
    pairs = dom.generator_pairs() if cod.validated else None
    violations += law_failures(_uncomposed, None if pairs is None else (f, pairs),
                               (f, dom.composable_pairs()))
    return violations


def _uncomposed(f, pairs):
    """The violations at the composable pairs (g, h) among pairs with
    f(g h) != f(g) f(h): the certificate of check_groupoid_morphism gives
    it the generator pairs, the sweep every composable pair."""
    dom, cod, amap = f.dom.comp, f.cod.comp, f.amap
    return (Violation("NotFunctorial", (g, h), "composition not preserved")
            for g, h in pairs if amap[dom[(g, h)]] != cod[(amap[g], amap[h])])


def validate_groupoid_morphism(dom, cod, omap, amap):
    f = GroupoidMorphism(dom, cod, omap, amap)
    return require(f, check_groupoid_morphism(f))


def identity_morphism(g):
    return GroupoidMorphism(g, g, {x: x for x in g.objects}, {a: a for a in g.arrows})


def search_groupoid_iso(g1, g2, node_cap=10**6):
    """Brute-force isomorphism search; returns a GroupoidMorphism or None.
    The object bijections that keep loop and out-degree counts are tried
    in search order, each with one arrow search; the object enumeration
    and each arrow search may explore node_cap nodes."""
    if len(g1.objects) != len(g2.objects) or len(g1.arrows) != len(g2.arrows):
        return None
    # object signature: multiset of (|loops|, |hom(x,y)| profile) is overkill
    # at desk scale; prune on loop counts only.
    sig1 = {x: (len(g1.loops(x)), len(g1.arrows_from(x))) for x in g1.objects}
    sig2 = {x: (len(g2.loops(x)), len(g2.arrows_from(x))) for x in g2.objects}

    omaps = bijections(g1.objects, g2.objects,
                       lambda x: [y for y in g2.objects if sig1[x] == sig2[y]],
                       lambda partial, x, y: True, node_cap)
    for omap in omaps:
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


# -- group bundles and Aut ------------------------------------------------


class GroupBundle(Groupoid):
    """Groupoid whose every arrow is an endo-arrow; fibers are groups."""

    def fiber(self, x):
        # every arrow is a loop (both constructors check it)
        return self.arrows_from(x)

    def gens_by_point(self):
        """The kept generators (gens(find=False)) by point, or None when the
        bundle keeps none or they are every arrow, so that a reader takes
        the whole fibres.  Those at x generate fiber(x): every arrow is a
        product of generators, and composites stay in their fibre."""
        gens = self.gens(find=False)
        if gens is None or len(gens) == len(self.arrows):
            return None
        at = {}
        for s in gens:
            at.setdefault(self.src[s], []).append(s)
        return at


def validate_group_bundle(objects, arrows, src, tgt, inv, unit, comp):
    return as_group_bundle(validate_groupoid(objects, arrows, src, tgt, inv, unit, comp))


def as_group_bundle(g):
    """Reinterpret a validated groupoid whose arrows are all loops; the
    bundle shares the groupoid's tables and keeps its parts table, its
    mark and its generators.
    The generators at a point generate the fibre there: composites stay in
    their fibre."""
    bad = [h for h in g.arrows if g.src[h] != g.tgt[h]]
    if bad:
        raise ValidationFailure([Violation("NotEndoArrow", (h,)) for h in bad])
    bundle = GroupBundle(g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp)
    bundle.parts, bundle.validated, bundle._gens = g.parts, g.validated, g._gens
    return bundle


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


def group_isos(gb, x, hb, y, node_cap=10**6):
    """All group isomorphisms fiber_gb(x) -> fiber_hb(y), as dicts, in
    search order: the unit goes to the unit, and the other elements of
    fiber(x) are assigned in fiber order, each to the images in fiber order
    that agree with the products already fixed.  Raises SizeLimitExceeded
    after node_cap search nodes."""
    fx, fy = gb.fiber(x), hb.fiber(y)
    ex, ey = gb.unit[x], hb.unit[y]

    def candidates(a):
        if a == ex:
            return [ey]
        return [b for b in fy if b != ey]

    def consistent(partial, a, b):
        for a2, b2 in partial.items():
            prod = partial.get(gb.comp[(a, a2)])
            if prod is not None and hb.comp[(b, b2)] != prod:
                return False
            prod = partial.get(gb.comp[(a2, a)])
            if prod is not None and hb.comp[(b2, b)] != prod:
                return False
        return True

    return [t for t in bijections(fx, fy, candidates, consistent, node_cap)
            if all(hb.comp[(t[a], t[a2])] == t[gb.comp[(a, a2)]]
                   for a in fx for a2 in fx)]


def aut_label(x, y, iso):
    body = "|".join(f"{k}>{v}" for k, v in sorted(iso.items()))
    return pair(x, y, "[" + body + "]")


def aut_bundle(bundle, fiber_cap=DEFAULT_FIBER_CAP):
    """Aut(H): the groupoid whose arrow x -> y is a group isomorphism
    fiber(y) -> fiber(x) of the bundle (right-action convention), with
    parts (x, y, iso); brute-force enumeration."""
    for x in bundle.objects:
        n = len(bundle.fiber(x))
        if n > fiber_cap:
            raise SizeLimitExceeded(f"fiber at {x}", n, fiber_cap)
    parts = {aut_label(x, y, iso): (x, y, iso) for x in bundle.objects
             for y in bundle.objects for iso in group_isos(bundle, y, bundle, x)}
    # arrow composition ab covers "b then a"; its underlying map is b's
    # after a's (arrows x->y carry maps fiber(y)->fiber(x))
    return groupoid_of_parts(
        bundle.objects, parts, lambda r: r[0], lambda r: r[1],
        lambda r: aut_label(r[1], r[0], {v: k for k, v in r[2].items()}),
        lambda x: aut_label(x, x, {h: h for h in bundle.fiber(x)}),
        lambda r, r2: aut_label(r2[0], r[1], {h: r2[2][r[2][h]] for h in r[2]}))


# -- actions ---------------------------------------------------------------


class ActionByAutomorphisms:
    """Action of a groupoid on a group bundle over its objects:
    act[(g, h)] = h^g with h in fiber(t(g)), h^g in fiber(s(g))."""

    def __init__(self, base, bundle, act):
        self.base = base
        self.bundle = bundle
        self.act = dict(act)
        self.validated = False  # set by validate_action

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
    """The violations of an action table (empty when act is an action of
    base on bundle by automorphisms), in the order they are checked: the
    unit spaces, missing entries (stops here), fibre maps h -> h^g that
    leave the fibre at src(g) or are not bijective (stops here), then the
    fibre-homomorphism law (h1 h2)^g = h1^g h2^g, the unit law and
    functoriality h^{g g2} = (h^g)^{g2}, each listing its failures in label
    order.

    Functoriality and the homomorphism law are certified on generators
    (util.law_failures) when base is validated, so associative, and keeps
    its generators S (Groupoid.gens(find=False)).  S_x is the kept
    generators at x of a validated bundle, which generate the fibre there
    (GroupBundle.gens_by_point), or the whole fibre when it keeps none.
    - Functoriality runs on the pairs (g, s) with s in S.  Let T be the
      arrows s with h^{g s} = (h^g)^s for every g with src(g) == tgt(s)
      and every h over tgt(g).  For s1, s2 in T with src(s1) == tgt(s2),
        h^{g (s1 s2)} = h^{(g s1) s2} = (h^{g s1})^{s2} = ((h^g)^{s1})^{s2}
                      = (h^g)^{s1 s2},
      by associativity in base, s2 in T (with g s1), s1 in T, and s2 in T
      (with s1 for g, at h^g, which lies over tgt(s1) since every fibre map
      lands in its fibre).  So T is closed under composition; it holds S,
      so it holds every arrow.
    - Once functoriality holds, the homomorphism law runs on g in S and h2
      in S_{tgt(g)}, h1 over the whole fibre.  For one g, let T be the h2
      with (h1 h2)^g = h1^g h2^g for every h1.  For h2, h3 in T,
        (h1 (h2 h3))^g = ((h1 h2) h3)^g = (h1 h2)^g h3^g = (h1^g h2^g) h3^g
                       = h1^g (h2^g h3^g) = h1^g (h2 h3)^g,
      by associativity in the (validated) bundle and h3, h2, h3 in T; so T
      holds the fibre, and h -> h^g is a homomorphism.  Every arrow is a
      left-normed product (..(s1 s2)..) sk of generators, and
      functoriality makes its fibre map the composite of theirs,
      h -> (..(h^{s1})^{s2}..)^{sk}; a composite of homomorphisms is a
      homomorphism.
    Each certificate runs only when it visits fewer instances than its
    sweep, the homomorphism law's only once functoriality holds.  When one
    fails, or does not run, its sweep lists every failure, so the
    witnesses and their order do not depend on the route."""
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
    pairs = base.generator_pairs()
    unfunctorial = law_failures(_unfunctorial,
                                None if pairs is None else (base, bundle, act, pairs),
                                (base, bundle, act, base.composable_pairs()))
    # the certificate's instances are the sweep's with g in S and h2 in
    # S_x, so it visits fewer unless both are everything
    gens = base.gens(find=False) if not unfunctorial else None
    at = bundle.gens_by_point() if gens else None
    if gens and len(gens) == len(base.arrows) and at is None:
        gens = None
    violations += law_failures(_unhomomorphic,
                               None if not gens else (base, bundle, act, gens, at),
                               (base, bundle, act, base.arrows, None))
    for x in base.objects:
        e = base.unit[x]
        for h in bundle.fiber(x):
            if act[(e, h)] != h:
                violations.append(Violation("NotFunctorial", (e, h), "unit acts nontrivially"))
    violations += unfunctorial
    return violations


def _unhomomorphic(base, bundle, act, arrows, at):
    """The violations at the (g, h1, h2) with (h1 h2)^g != h1^g h2^g, for
    g in arrows, h1 over the fibre at x = tgt(g) and h2 in at[x], or in
    the whole fibre when at is None: check_action's certificate gives it
    the generators, the sweep every arrow and no at."""
    comp = bundle.comp
    for g in arrows:
        x = base.tgt[g]
        fy = bundle.fiber(x)
        h2s = fy if at is None else at[x]
        for h1 in fy:
            i1 = act[(g, h1)]
            for h2 in h2s:
                if act[(g, comp[(h1, h2)])] != comp[(i1, act[(g, h2)])]:
                    yield Violation("NotHomomorphism", (g, h1, h2))


def _unfunctorial(base, bundle, act, pairs):
    """The violations at the (g, g2, h) with h^{g g2} != (h^g)^{g2}, for
    each composable (g, g2) in pairs and h over tgt(g): check_action's
    certificate gives it the generator pairs, the sweep every composable
    pair."""
    comp = base.comp
    for g, g2 in pairs:
        gg2 = comp[(g, g2)]
        for h in bundle.fiber(base.tgt[g]):
            if act[(gg2, h)] != act[(g2, act[(g, h)])]:
                yield Violation("NotFunctorial", (g, g2), f"on {h}")


def validate_action(base, bundle, act):
    """The action, marked validated.  Raises ValidationFailure."""
    action = require(ActionByAutomorphisms(base, bundle, act),
                     check_action(base, bundle, act))
    action.validated = True
    return action


def trivial_action(base, bundle):
    """Identity on fibers over loops; transport (y,a) -> (x,a) on constant
    bundles built by trivial_bundle/unit_bundle, reading the model arrow a
    from the bundle's parts.  Raises CoherenceFailure on a bundle without
    parts whose fibers it would transport."""
    act = {}
    for g in base.arrows:
        x, y = base.src[g], base.tgt[g]
        for h in bundle.fiber(y):
            if x == y:
                act[(g, h)] = h
            elif bundle.unit[y] == h:
                act[(g, h)] = bundle.unit[x]
            elif bundle.parts is None:
                raise CoherenceFailure(("trivial action needs bundle parts", h))
            else:
                act[(g, h)] = pair(x, bundle.parts[h][1])
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
    """For sigma = identity, the explicit iso (x,g,y) -> g and its inverse;
    g is read from the parts of pulled, as pullback_groupoid keeps them.
    Raises CoherenceFailure when pulled has no parts."""
    if pulled.parts is None:
        raise CoherenceFailure(("pullback iso needs the pulled parts", pulled))
    fwd = validate_groupoid_morphism(
        pulled, g,
        {z: sigma[z] for z in pulled.objects},
        {a: pulled.parts[a][1] for a in pulled.arrows})
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
