"""Generalized morphisms (bibundles) and Morita equivalences of groupoids,
the division function g^Z, the induced morphism Phi^Z, and the bullet
composition of bibundles."""

from itertools import repeat

from .errors import CoherenceFailure, EmptyComposite, ValidationFailure, Violation, require
from .fingrpd import (groupoid_of_parts, inertia, pullback_groupoid,
                      validate_groupoid_morphism)
from .util import pair, quotient, search_bijection, unpair


class Bibundle:
    """Space with commuting left M-action (moment lmom) and right N-action
    (moment rmom), right-principal along lmom."""

    def __init__(self, left, right, space, lmom, rmom, lact, ract):
        self.left = left
        self.right = right
        self.space = sorted(set(space))
        self.lmom = dict(lmom)
        self.rmom = dict(rmom)
        self.lact = dict(lact)
        self.ract = dict(ract)

    def lfiber(self, x):
        return [z for z in self.space if self.lmom[z] == x]

    def __repr__(self):
        return f"Bibundle(|Z|={len(self.space)})"


def check_bibundle(zb):
    """Violations of the bibundle axioms, empty when zb is a bibundle.

    The moments, the shape of both action tables, the unit laws and the
    invariance of each moment under the other action are checked point by
    point; an entry keyed by an arrow or a point the bibundle does not have
    is a SpuriousActionEntry after its side's sweep.  The action and commuting laws are checked on integer rows.
    Points are numbered by their position in ``zb.space``.  A left arrow m
    has the row i -> (position of m.z_i) over the fibre lmom = s(m), held
    both as the list of images in fibre order and as a dict; a right arrow
    n likewise over rmom = t(n).  Each law is compared on its own fibre
    only, as two lists of positions: (m1 m2).z against m1.(m2.z) over
    lmom = s(m2), z.(n1 n2) against (z.n1).n2 over rmom = t(n1), and
    (m.z).n against m.(z.n) over each occupied moment pair (s(m), t(n)).
    The lists are built by mapping rows over positions, so the lookups run
    in C and number exactly those of a point-by-point sweep.  Per-point
    witnesses are built only where two lists differ, in the sweep's order:
    NotAction by composable pair, then by position; NonCommuting (m, z, n)
    by position, then m, then n.  Right-principality comes last.
    """
    violations = []
    left, right = zb.left, zb.right
    space = set(zb.space)
    for z in zb.space:
        if zb.lmom.get(z) not in left.objects or zb.rmom.get(z) not in right.objects:
            violations.append(Violation("BadMoment", (z,)))
    if violations:
        return violations

    # left action axioms (moment lmom): m.z defined when s(m)=lmom(z)
    for z in zb.space:
        for m in left.arrows:
            defined = (m, z) in zb.lact
            wants = left.src[m] == zb.lmom[z]
            if wants and not defined:
                violations.append(Violation("MissingActionEntry", ("left", m, z)))
            elif defined and not wants:
                violations.append(Violation("SpuriousActionEntry", ("left", m, z)))
            elif defined:
                mz = zb.lact[(m, z)]
                if mz not in space or zb.lmom[mz] != left.tgt[m]:
                    violations.append(Violation("BadActionImage", ("left", m, z)))
    violations += [Violation("SpuriousActionEntry", ("left", m, z)) for m, z in zb.lact
                   if m not in left.arrows or z not in space]
    for z in zb.space:
        for n in right.arrows:
            defined = (z, n) in zb.ract
            wants = zb.rmom[z] == right.tgt[n]
            if wants and not defined:
                violations.append(Violation("MissingActionEntry", ("right", z, n)))
            elif defined and not wants:
                violations.append(Violation("SpuriousActionEntry", ("right", z, n)))
            elif defined:
                zn = zb.ract[(z, n)]
                if zn not in space or zb.rmom[zn] != right.src[n]:
                    violations.append(Violation("BadActionImage", ("right", z, n)))
    violations += [Violation("SpuriousActionEntry", ("right", z, n)) for z, n in zb.ract
                   if z not in space or n not in right.arrows]
    if violations:
        return violations

    for z in zb.space:
        if zb.lact[(left.unit[zb.lmom[z]], z)] != z:
            violations.append(Violation("BadUnitAction", ("left", z)))
        if zb.ract[(z, right.unit[zb.rmom[z]])] != z:
            violations.append(Violation("BadUnitAction", ("right", z)))

    zs = zb.space
    at = zs.__getitem__
    pos = {z: i for i, z in enumerate(zs)}.__getitem__
    lfib, rfib, bifib = {}, {}, {}
    for i, z in enumerate(zs):
        x, y = zb.lmom[z], zb.rmom[z]
        lfib.setdefault(x, []).append(i)
        rfib.setdefault(y, []).append(i)
        bifib.setdefault((x, y), []).append(i)
    limg, lrow, rimg, rrow = {}, {}, {}, {}
    for m in left.arrows:
        fib = lfib.get(left.src[m], ())
        limg[m] = list(map(pos, map(zb.lact.__getitem__, zip(repeat(m), map(at, fib)))))
        lrow[m] = dict(zip(fib, limg[m]))
    for n in right.arrows:
        fib = rfib.get(right.tgt[n], ())
        rimg[n] = list(map(pos, map(zb.ract.__getitem__, zip(map(at, fib), repeat(n)))))
        rrow[n] = dict(zip(fib, rimg[n]))

    for m1, m2 in left.composable_pairs():
        lhs, rhs = limg[left.comp[(m1, m2)]], list(map(lrow[m1].__getitem__, limg[m2]))
        if lhs != rhs:
            violations += [Violation("NotAction", ("left", m1, m2, zs[i]))
                           for i in _mismatches(lfib[left.src[m2]], lhs, rhs)]
    for n1, n2 in right.composable_pairs():
        lhs, rhs = rimg[right.comp[(n1, n2)]], list(map(rrow[n2].__getitem__, rimg[n1]))
        if lhs != rhs:
            violations += [Violation("NotAction", ("right", zs[i], n1, n2))
                           for i in _mismatches(rfib[right.tgt[n1]], lhs, rhs)]
    # commuting: (m.z).n = m.(z.n); moments cross-invariant
    for z in zb.space:
        for m in left.arrows_from(zb.lmom[z]):
            mz = zb.lact[(m, z)]
            if zb.rmom[mz] != zb.rmom[z]:
                violations.append(Violation("NonCommuting", (m, z), "rmom moved by left action"))
        for n in right.arrows_to(zb.rmom[z]):
            zn = zb.ract[(z, n)]
            if zb.lmom[zn] != zb.lmom[z]:
                violations.append(Violation("NonCommuting", (z, n), "lmom moved by right action"))
    if violations:
        return violations
    bad = []
    for (x, y), fib in bifib.items():
        ms = [(m, lrow[m], list(map(lrow[m].__getitem__, fib))) for m in left.arrows_from(x)]
        for n in right.arrows_to(y):
            nrow = rrow[n].__getitem__
            zn = list(map(nrow, fib))
            for m, mrow, mz in ms:
                lhs, rhs = list(map(nrow, mz)), list(map(mrow.__getitem__, zn))
                if lhs != rhs:
                    bad += [(i, m, n) for i in _mismatches(fib, lhs, rhs)]
    violations += [Violation("NonCommuting", (m, zs[i], n)) for i, m, n in sorted(bad)]
    if violations:
        return violations

    # right-principal along lmom: no non-unit fixes a point, then the division
    loops = [(z, n) for (z, n), z2 in zb.ract.items() if z2 == z and not right.is_unit(n)]
    violations += [Violation("NotFree", (z, n, right.unit[zb.rmom[z]]))
                   for z, n in sorted(loops, key=lambda zn: pos(zn[0]))]
    return violations + division(zb, "right")[1]


def _mismatches(fib, lhs, rhs):
    """The positions of fib at whose index the lists lhs and rhs differ."""
    return [i for i, a, b in zip(fib, lhs, rhs) if a != b]


def validate_bibundle(left, right, space, lmom, rmom, lact, ract):
    return _validated(Bibundle(left, right, space, lmom, rmom, lact, ract))


def _validated(zb):
    return require(zb, check_bibundle(zb))


def division(zb, side):
    """The division of zb on one side, and where it fails: (table, violations).

    On the "right" side the table maps (z, z2), for z and z2 over the same
    left moment, to the unique right arrow n with z.n = z2; on the "left"
    side it maps (z, z2), for z and z2 over the same right moment, to the
    unique left arrow m with m.z = z2.  A pair with no such arrow gives
    NotTransitive (z, z2); a pair with two or more gives NotFree
    (z, a1, a2), the first two solutions in the order of the action table.
    Left-side violations carry the detail "left".  The sweep runs over the
    moment's objects in label order and, within a fibre, over z and then
    z2 in the order of zb.space; the table holds exactly the pairs that
    raised nothing.  zb is right-principal iff the right side gives no
    violations, and a bibundle is Morita iff the left side gives none too.
    """
    right = side == "right"
    reach = {z: {} for z in zb.space}
    for key, z2 in (zb.ract if right else zb.lact).items():
        z, arrow = key if right else key[::-1]
        reach[z].setdefault(z2, []).append(arrow)
    fibres = _fibres(zb.space, zb.lmom if right else zb.rmom)
    detail = "" if right else "left"
    table, violations = {}, []
    for x in (zb.left if right else zb.right).objects:
        fiber = fibres.get(x, ())
        for z in fiber:
            for z2 in fiber:
                sols = reach[z].get(z2, ())
                if len(sols) == 1:
                    table[(z, z2)] = sols[0]
                elif not sols:
                    violations.append(Violation("NotTransitive", (z, z2), detail))
                else:
                    violations.append(Violation("NotFree", (z, sols[0], sols[1]), detail))
    return table, violations


def is_morita(zb):
    """(bool, witnesses): whether the validated bibundle is also
    left-principal along rmom."""
    violations = division(zb, "left")[1]
    return (not violations), violations


def identity_bibundle(m):
    """Z = M with left/right translation; the trivial Morita equivalence."""
    return validate_bibundle(
        m, m, m.arrows,
        {z: m.tgt[z] for z in m.arrows},
        {z: m.src[z] for z in m.arrows},
        {(g, z): m.comp[(g, z)] for z in m.arrows for g in m.arrows_from(m.tgt[z])},
        {(z, n): m.comp[(z, n)] for z in m.arrows for n in m.arrows_to(m.src[z])})


def bibundle_from_hom(f):
    """Z_f = M^0 x_{f,t} N for a strict morphism f: M -> N."""
    m, n = f.dom, f.cod
    space = [pair(x, nn) for x in m.objects for nn in n.arrows_to(f.omap[x])]
    lmom, rmom, lact, ract = {}, {}, {}, {}
    for z in space:
        x, nn = unpair(z)
        lmom[z] = x
        rmom[z] = n.src[nn]
    for z in space:
        x, nn = unpair(z)
        for g in m.arrows_from(x):
            lact[(g, z)] = pair(m.tgt[g], n.comp[(f.amap[g], nn)])
        for n2 in n.arrows_to(n.src[nn]):
            ract[(z, n2)] = pair(x, n.comp[(nn, n2)])
    return validate_bibundle(m, n, space, lmom, rmom, lact, ract)


def g_function(zb):
    """g^Z(z,z') = the unique right-groupoid arrow with z' = z.g^Z(z,z').

    Raises ValidationFailure with the first witness of the right division
    (NotTransitive or NotFree) when zb is not right-principal."""
    table, violations = division(zb, "right")
    return require(table, violations[:1])


def projective_groupoid(zb):
    """M *_Z N for a right-principal bibundle Z: M -> N.

    Its objects are the points of Z.  An arrow z2 -> z1 is a quadruple
    (m, z1, z2, n), labelled pair(m, z1, z2, n), with m: lmom(z2) ->
    lmom(z1) and n = g^Z(z1, m.z2), the one right arrow with z1.n = m.z2.
    Inverses and composites are taken componentwise:
    (m, z1, z2, n)(m', z2, z3, n') = (mm', z1, z3, nn').  Raises
    ValidationFailure, as g_function does, when Z is not right-principal.
    """
    m, n = zb.left, zb.right
    g = g_function(zb)
    parts = {}
    for z1 in zb.space:
        for z2 in zb.space:
            for mm in m.hom(zb.lmom[z2], zb.lmom[z1]):
                nn = g[(z1, zb.lact[(mm, z2)])]
                parts[pair(mm, z1, z2, nn)] = (mm, z1, z2, nn)
    return groupoid_of_parts(
        zb.space, parts, lambda r: r[2], lambda r: r[1],
        lambda r: pair(m.inv[r[0]], r[2], r[1], n.inv[r[3]]),
        lambda z: pair(m.unit[zb.lmom[z]], z, z, n.unit[zb.rmom[z]]),
        lambda r, r2: pair(m.comp[(r[0], r2[0])], r[1], r2[2], n.comp[(r[3], r2[3])]))


def phi_Z(zb):
    """The strict morphism M[Z] -> N[Z], (z, m, z') -> (z, g^Z(z, m.z'), z').

    Returns (morphism, pulled_back_domain, pulled_back_codomain).
    """
    g = g_function(zb)
    dom = pullback_groupoid(zb.left, zb.space, zb.lmom)
    cod = pullback_groupoid(zb.right, zb.space, zb.rmom)
    amap = {}
    for a in dom.arrows:
        z, m, z2 = unpair(a, 3)
        mz2 = zb.lact[(m, z2)]
        amap[a] = pair(z, g[(z, mz2)], z2)
    f = validate_groupoid_morphism(dom, cod, {z: z for z in dom.objects}, amap)
    return f, dom, cod


def phi_Z_bijective(f):
    """Phi^Z is a groupoid isomorphism iff Z is a Morita equivalence; report
    injectivity/surjectivity witnesses instead of a bare bool."""
    seen = {}
    not_injective = []
    for a, b in f.amap.items():
        if b in seen:
            not_injective.append((seen[b], a))
        seen[b] = a
    not_surjective = [b for b in f.cod.arrows if b not in seen]
    return (not not_injective and not not_surjective, not_injective, not_surjective)


def quotient_bibundle(left, right, members, links, lmom, rmom, lact, ract):
    """The bibundle left -> right on the classes of util.quotient(members,
    links), not yet checked: (bibundle, reps), with pair_class set to the
    class_of map.

    Every table is read at the parts r of a class's least member: lmom(r)
    and rmom(r) are its moments, lact(m, r) the member label of m.r for
    each left arrow m out of lmom(r), and ract(r, n) that of r.n for each
    right arrow n into rmom(r); the class of a member label is the value."""
    class_of, reps = quotient(members, links)
    lmoms = {c: lmom(r) for c, r in reps.items()}
    rmoms = {c: rmom(r) for c, r in reps.items()}
    lacts, racts = {}, {}
    for c, r in reps.items():
        for m in left.arrows_from(lmoms[c]):
            lacts[(m, c)] = class_of[lact(m, r)]
        for n in right.arrows_to(rmoms[c]):
            racts[(c, n)] = class_of[ract(r, n)]
    zb = Bibundle(left, right, reps, lmoms, rmoms, lacts, racts)
    zb.pair_class = class_of
    return zb, reps


def compose_bibundles(z1, z2):
    """Z1 . Z2 = (Z1 x_{N^0} Z2)/N with (z1 n, z2) ~ (z1, n z2), a quotient
    bibundle whose classes are labelled by their least pair(a, b).  The
    composite g-function identity
    g^{Z1.Z2}([a,b],[a',b']) = g^{Z2}(b, g^{Z1}(a,a').b') is checked
    exhaustively before returning.
    """
    if z1.right is not z2.left and z1.right.arrows != z2.left.arrows:
        raise ValidationFailure([Violation("MiddleMismatch", None)])
    n = z1.right
    over = _fibres(z2.space, z2.lmom)
    members = {pair(a, b): (a, b) for a in z1.space for b in over.get(z1.rmom[a], ())}
    if not members:
        raise EmptyComposite("fibered product of bibundle spaces is empty")
    # (a.n, b) ~ (a, n.b)
    links = [(pair(z1.ract[(a, nn)], b), pair(a, z2.lact[(nn, b)]))
             for a in z1.space for nn in n.arrows_to(z1.rmom[a])
             for b in over.get(n.src[nn], ())]
    out, reps = quotient_bibundle(
        z1.left, z2.right, members, links, lambda r: z1.lmom[r[0]],
        lambda r: z2.rmom[r[1]], lambda m, r: pair(z1.lact[(m, r[0])], r[1]),
        lambda r, nn: pair(r[0], z2.ract[(r[1], nn)]))
    _validated(out)

    g1, g2, gc = g_function(z1), g_function(z2), g_function(out)
    same_lmom = _fibres(out.space, out.lmom)
    for c, (a, b) in reps.items():
        for c2 in same_lmom[out.lmom[c]]:
            a2, b2 = reps[c2]
            # move a2 into a's N-orbit slot: lmom equal guarantees g1 solves it
            nmid = g1[(a, a2)]
            if gc[(c, c2)] != g2[(b, z2.lact[(nmid, b2)])]:
                raise CoherenceFailure(("composite g-function", c, c2))
    return out


def _fibres(points, mom):
    """{x: the points over x, in the order of points}."""
    out = {}
    for z in points:
        out.setdefault(mom[z], []).append(z)
    return out


def search_equivariant_iso(za, zb, node_cap=10**6):
    """Bijection of bibundle spaces commuting with moments and both actions.
    Assumes the two bibundles share left/right groupoids."""
    def candidates(z):
        return [w for w in zb.space
                if zb.lmom[w] == za.lmom[z] and zb.rmom[w] == za.rmom[z]]

    def consistent(partial, z, w):
        for z2, w2 in partial.items():
            for m in za.left.arrows_from(za.lmom[z2]):
                if za.lact[(m, z2)] == z and zb.lact[(m, w2)] != w:
                    return False
            for nn in za.right.arrows_to(za.rmom[z2]):
                if za.ract[(z2, nn)] == z and zb.ract[(w2, nn)] != w:
                    return False
        return True

    return search_bijection(za.space, zb.space, candidates, consistent,
                            node_cap=node_cap)


def morita_witness(g, h, node_cap=10**6):
    """A Morita bibundle between groupoids g and h, or None.

    Matches orbits by brute-forced isotropy isomorphism, then glues the
    standard (arrows into x) x_theta (arrows out of y) torsor per orbit.
    """
    gorbs = _orbits(g)
    horbs = _orbits(h)
    if len(gorbs) != len(horbs):
        return None
    gb, _ = inertia(g)
    hb, _ = inertia(h)

    matched = _match_orbits(g, h, gorbs, horbs, gb, hb)
    if matched is None:
        return None
    members, links = {}, []
    for (x, y, theta) in matched:
        # classes [gg, hh] with gg: x -> *, hh: * -> y, modulo isotropy at x via theta
        for gg in g.arrows_from(x):
            for hh in h.arrows_to(y):
                members[pair(gg, hh)] = (gg, hh)
                links += [(pair(g.comp[(gg, s)], hh), pair(gg, h.comp[(theta[s], hh)]))
                          for s in gb.fiber(x)]
    zb, _ = quotient_bibundle(
        g, h, members, links, lambda r: g.tgt[r[0]], lambda r: h.src[r[1]],
        lambda m, r: pair(g.comp[(m, r[0])], r[1]),
        lambda r, nn: pair(r[0], h.comp[(r[1], nn)]))
    try:
        _validated(zb)
    except ValidationFailure:
        return None
    ok, _ = is_morita(zb)
    return zb if ok else None


def _orbits(g):
    """The orbits of g's objects, each in label order, by least member."""
    class_of, _ = quotient({x: x for x in g.objects},
                           ((g.src[a], g.tgt[a]) for a in g.arrows))
    orbits = {}
    for x, c in class_of.items():
        orbits.setdefault(c, []).append(x)
    return list(orbits.values())


def _match_orbits(g, h, gorbs, horbs, gb, hb):
    """Greedy-with-backtracking orbit matching by isotropy isomorphism.
    Returns [(x, y, theta: iso fiber_g(x) -> fiber_h(y))] or None."""
    def extend(i, used):
        if i == len(gorbs):
            return []
        gmembers = gorbs[i]
        x = gmembers[0]
        for j, hmembers in enumerate(horbs):
            if j in used:
                continue
            if len(gmembers) and len(hmembers):
                y = hmembers[0]
                isos = _cross_isos(gb, hb, x, y)
                for theta in isos:
                    rest = extend(i + 1, used | {j})
                    if rest is not None:
                        return [(x, y, theta)] + rest
        return None

    return extend(0, frozenset())


def _cross_isos(gb, hb, x, y):
    """Group isomorphisms fiber_g(x) -> fiber_h(y) by brute force."""
    fx, fy = gb.fiber(x), hb.fiber(y)
    if len(fx) != len(fy):
        return []
    out = []
    ex, ey = gb.unit[x], hb.unit[y]

    def extend(partial):
        if len(partial) == len(fx):
            out.append(dict(partial))
            return
        a = fx[len(partial)]
        for b in fy:
            if b in partial.values():
                continue
            if (a == ex) != (b == ey):
                continue
            ok = True
            for a2, b2 in partial.items():
                p = partial.get(gb.comp[(a, a2)])
                if p is not None and hb.comp[(b, b2)] != p:
                    ok = False
                    break
                p = partial.get(gb.comp[(a2, a)])
                if p is not None and hb.comp[(b2, b)] != p:
                    ok = False
                    break
            if ok:
                partial[a] = b
                extend(partial)
                del partial[a]

    extend({})
    return [t for t in out if _hom_ok(gb, hb, t)]


def _hom_ok(gb, hb, t):
    dom = list(t)
    return all(hb.comp[(t[a], t[b])] == t[gb.comp[(a, b)]]
               for a in dom for b in dom)


def inverse_bibundle(zb):
    """For a Morita bibundle Z: M -> N, the flipped bibundle N -> M with
    n.zbar = z n^-1 and zbar.m = m^-1 z."""
    ok, wit = is_morita(zb)
    if not ok:
        raise ValidationFailure(wit)
    lact = {}
    ract = {}
    for z in zb.space:
        for n in zb.right.arrows_from(zb.rmom[z]):
            lact[(n, z)] = zb.ract[(z, zb.right.inv[n])]
        for m in zb.left.arrows_to(zb.lmom[z]):
            ract[(z, m)] = zb.lact[(zb.left.inv[m], z)]
    return validate_bibundle(zb.right, zb.left, zb.space, dict(zb.rmom),
                             dict(zb.lmom), lact, ract)
