"""Generalized morphisms (bibundles) and Morita equivalences of groupoids,
the division function g^Z, the induced morphism Phi^Z, and the bullet
composition of bibundles."""

from itertools import repeat

from .errors import CoherenceFailure, EmptyComposite, ValidationFailure, Violation, require
from .fingrpd import (group_isos, groupoid_of_parts, inertia, pullback_groupoid,
                      validate_groupoid_morphism)
from .util import law_failures, pair, quotient, search_bijection


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
        self.parts = None  # set by its builder: point label -> its parts
        # set by check_bibundle when zb passes: {side: division(zb, side)},
        # the right side as the check found it, the left side once asked for
        self.divisions = None

    def lfiber(self, x):
        return [z for z in self.space if self.lmom[z] == x]

    def __repr__(self):
        return f"Bibundle(|Z|={len(self.space)})"


def check_bibundle(zb):
    """Violations of the bibundle axioms, empty when zb is a bibundle.

    The moments, the shape of both action tables and the unit laws are
    checked point by point; an entry keyed by an arrow or a point the
    bibundle does not have is a SpuriousActionEntry after its side's sweep.
    The action laws, the invariance of each moment under the other action
    and the commuting law are checked on integer rows, each by one body
    that lists its failing instances among those built from the left and
    right arrows it is given.  Points are numbered by
    their position in ``zb.space``.  A left arrow m has the row i ->
    (position of m.z_i) over the fibre lmom = s(m), held both as the list
    of images in fibre order and as a dict; a right arrow n likewise over
    rmom = t(n).  Each law is compared on its own fibre only, as two lists
    of positions: (m1 m2).z against m1.(m2.z) over lmom = s(m2),
    z.(n1 n2) against (z.n1).n2 over rmom = t(n1), rmom(m.z) against
    rmom(z) over lmom = s(m) and lmom(z.n) against lmom(z) over
    rmom = t(n), and (m.z).n against m.(z.n) over each occupied moment
    pair (s(m), t(n)).  The lists are built by mapping rows over
    positions, so the lookups run in C and number exactly those of a
    point-by-point sweep.  Per-point witnesses are built only where two
    lists differ, and sorted into the sweep's order: NotAction by
    composable pair, then by position; a moved moment, NonCommuting (m, z)
    or (z, n), by position, the left side first, then by arrow;
    NonCommuting (m, z, n) by position, then m, then n.  The sweep gives
    the bodies every arrow.  Right-principality comes last.

    Two certificates decide first whether a sweep would find anything; on
    "no" the sweep runs unchanged, so the codes and witnesses and their
    order do not depend on them.

    The shape certificate makes one pass over the lact and ract entries:
    each is keyed by an arrow and a point, is one the sweep wants (m.z for
    s(m) = lmom(z), z.n for t(n) = rmom(z)), and has its image over the
    right moment.  The keys are then distinct wanted entries, so the
    tables hold every wanted entry iff they have as many entries as are
    wanted: the sum over z of |arrows from lmom(z)| on the left and of
    |arrows to rmom(z)| on the right.

    Each law runs through util.law_failures, and is certified when both
    ends are validated groupoids that keep their generators S(M) and S(N)
    (Groupoid.gens; every arrow is a left-normed product of generators,
    and both ends are associative), by its body given them in place of
    every arrow: the left action law for m1 in S(M), the right one for n2
    in S(N), the invariance of rmom under S(M) and of lmom under S(N)
    once both action laws hold, and commuting on S(M) x S(N), reached only
    once nothing has failed.  Each holds for all arrows once it holds on
    generators:
      left law: let T be the m1 with (m1 m2).z = m1.(m2.z) for all m2 and
        z.  For a, b in T with s(a) = t(b),
        ((ab) m2).z = (a (b m2)).z = a.((b m2).z) = a.(b.(m2.z))
        = (ab).(m2.z), using a, b and a (with m2 = b) in T; so ab is in T.
      right law: let T be the n2 with z.(n1 n2) = (z.n1).n2 for all n1
        and z.  For a, b in T with s(a) = t(b),
        z.(n1 (ab)) = z.((n1 a) b) = (z.(n1 a)).b = ((z.n1).a).b
        = (z.n1).(ab), using b, a and b (with n1 = a) in T.
      invariance, by the action laws: rmom((ab).z) = rmom(a.(b.z))
        = rmom(b.z) = rmom(z), and lmom likewise.
      commuting, by the action laws and invariance: if (m.z).n = m.(z.n)
        for m in {a, b} and all z, then ((ab).z).n = (a.(b.z)).n
        = a.((b.z).n) = a.(b.(z.n)) = (ab).(z.n); so it holds for every
        m against each n in S(N), and in n likewise for every m.
    The unit laws and principality are checked point by point as before.
    When zb passes, it keeps its right division in zb.divisions, which
    g_function reads.

    A translation certificate comes before all of these: zb passes at once
    when both ends are one validated groupoid M, the points are the arrows
    of M with lmom = tgt and rmom = src, and both action tables are M's
    composition table (identity_bibundle builds such a bibundle).  Then
    comp is defined exactly on the wanted entries and has images over the
    right moments, the unit laws are M's unit laws, the action laws and
    commuting are M's associativity, tgt(zn) = tgt(z) and src(mz) = src(z)
    give invariance, and z.n = z2 has the one solution n = z^-1 z2 when
    tgt(z) = tgt(z2), so no sweep could find anything.
    """
    zb.divisions = None
    if _translation_certifies(zb):
        zb.divisions = {"right": _divide(zb, "right")}
        return []
    violations = []
    left, right = zb.left, zb.right
    for z in zb.space:
        if zb.lmom.get(z) not in left.objects or zb.rmom.get(z) not in right.objects:
            violations.append(Violation("BadMoment", (z,)))
    if violations:
        return violations
    if not _shape_certifies(zb):
        violations = _shape_sweep(zb)
        if violations:
            return violations

    for z in zb.space:
        if zb.lact[(left.unit[zb.lmom[z]], z)] != z:
            violations.append(Violation("BadUnitAction", ("left", z)))
        if zb.ract[(z, right.unit[zb.rmom[z]])] != z:
            violations.append(Violation("BadUnitAction", ("right", z)))

    rows, ms, ns, zs = _rows(zb), left.gens(), right.gens(), zb.space
    gens = None if ms is None or ns is None else (zb, rows, ms, ns)
    every = (zb, rows, left.arrows, right.arrows)
    lefts = sorted(law_failures(_not_left_action, gens, every))
    rights = sorted(law_failures(_not_right_action, gens, every))
    violations += [Violation("NotAction", ("left", m1, m2, zs[i])) for m1, m2, i in lefts]
    violations += [Violation("NotAction", ("right", zs[i], n1, n2)) for n1, n2, i in rights]
    violations += [Violation("NonCommuting", (a, zs[i]), "rmom moved by left action")
                   if side == "left" else
                   Violation("NonCommuting", (zs[i], a), "lmom moved by right action")
                   for i, side, a in sorted(law_failures(_moved, None if lefts or rights
                                                         else gens, every))]
    if violations:
        return violations
    violations += [Violation("NonCommuting", (m, zs[i], n))
                   for i, m, n in sorted(law_failures(_noncommuting, gens, every))]
    if violations:
        return violations

    # right-principal along lmom: no non-unit fixes a point, then the division
    loops = [(z, n) for (z, n), z2 in zb.ract.items() if z2 == z and not right.is_unit(n)]
    pos = {z: i for i, z in enumerate(zb.space)}
    violations += [Violation("NotFree", (z, n, right.unit[zb.rmom[z]]))
                   for z, n in sorted(loops, key=lambda zn: pos[zn[0]])]
    divided = _divide(zb, "right")
    violations += divided[1]
    if not violations:
        zb.divisions = {"right": divided}
    return violations


def _translation_certifies(zb):
    """zb is a validated groupoid acting on its own arrows by composition
    on both sides (see check_bibundle)."""
    m = zb.left
    return (m is zb.right and m.validated and m.arrows == set(zb.space)
            and zb.lmom == m.tgt and zb.rmom == m.src
            and zb.lact == m.comp and zb.ract == m.comp)


def _shape_certifies(zb):
    """Every action entry is a wanted one with a good image, and the tables
    have as many entries as are wanted (see check_bibundle)."""
    left, right, lmom, rmom = zb.left, zb.right, zb.lmom, zb.rmom
    space = set(zb.space)
    arrows, src, tgt = left.arrows, left.src, left.tgt
    for (m, z), mz in zb.lact.items():
        if not (m in arrows and z in space and mz in space
                and src[m] == lmom[z] and tgt[m] == lmom[mz]):
            return False
    arrows, src, tgt = right.arrows, right.src, right.tgt
    for (z, n), zn in zb.ract.items():
        if not (n in arrows and z in space and zn in space
                and tgt[n] == rmom[z] and src[n] == rmom[zn]):
            return False
    return (len(zb.lact) == sum(len(left.arrows_from(lmom[z])) for z in zb.space)
            and len(zb.ract) == sum(len(right.arrows_to(rmom[z])) for z in zb.space))


def _shape_sweep(zb):
    """MissingActionEntry, SpuriousActionEntry and BadActionImage, point by
    point and arrow by arrow, then the entries keyed outside the tables."""
    violations = []
    left, right = zb.left, zb.right
    space = set(zb.space)
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
    return violations


def _rows(zb):
    """The integer rows of a bibundle whose tables have the right shape:
    (lfib, rfib, bifib, limg, lrow, rimg, rrow), the positions over each
    left moment, right moment and pair of them, and for each arrow the
    positions of its images over its fibre, as a list (limg, rimg) and as
    a dict from position to position (lrow, rrow)."""
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
    for m in zb.left.arrows:
        fib = lfib.get(zb.left.src[m], ())
        limg[m] = list(map(pos, map(zb.lact.__getitem__, zip(repeat(m), map(at, fib)))))
        lrow[m] = dict(zip(fib, limg[m]))
    for n in zb.right.arrows:
        fib = rfib.get(zb.right.tgt[n], ())
        rimg[n] = list(map(pos, map(zb.ract.__getitem__, zip(map(at, fib), repeat(n)))))
        rrow[n] = dict(zip(fib, rimg[n]))
    return lfib, rfib, bifib, limg, lrow, rimg, rrow


def _not_left_action(zb, rows, ms, ns):
    """The left action law (m1 m2).z = m1.(m2.z) for m1 in ms, on rows:
    the failing (m1, m2, position of z), m1 by m1."""
    left = zb.left
    lfib, _, _, limg, lrow, _, _ = rows
    for m1 in ms:
        row = lrow[m1].__getitem__
        for m2 in left.arrows_to(left.src[m1]):
            lhs, rhs = limg[left.comp[(m1, m2)]], list(map(row, limg[m2]))
            if lhs != rhs:
                yield from ((m1, m2, i) for i in _mismatches(lfib[left.src[m2]], lhs, rhs))


def _not_right_action(zb, rows, ms, ns):
    """The right action law z.(n1 n2) = (z.n1).n2 for n2 in ns, on rows:
    the failing (n1, n2, position of z), n2 by n2."""
    right = zb.right
    _, rfib, _, _, _, rimg, rrow = rows
    for n2 in ns:
        row = rrow[n2].__getitem__
        for n1 in right.arrows_from(right.tgt[n2]):
            lhs, rhs = rimg[right.comp[(n1, n2)]], list(map(row, rimg[n1]))
            if lhs != rhs:
                yield from ((n1, n2, i) for i in _mismatches(rfib[right.tgt[n1]], lhs, rhs))


def _moved(zb, rows, ms, ns):
    """Moment invariance, rmom(m.z) = rmom(z) for m in ms and lmom(z.n) =
    lmom(z) for n in ns, on rows: the failing (position of z, side, arrow),
    the left side first."""
    lfib, rfib, _, limg, _, rimg, _ = rows
    lmom = [zb.lmom[z] for z in zb.space].__getitem__
    rmom = [zb.rmom[z] for z in zb.space].__getitem__
    for side, arrows, ends, fibre, img, mom in (("left", ms, zb.left.src, lfib, limg, rmom),
                                                ("right", ns, zb.right.tgt, rfib, rimg, lmom)):
        for a in arrows:
            fib = fibre.get(ends[a], ())
            lhs, rhs = list(map(mom, img[a])), list(map(mom, fib))
            if lhs != rhs:
                yield from ((i, side, a) for i in _mismatches(fib, lhs, rhs))


def _noncommuting(zb, rows, ms, ns):
    """The commuting law (m.z).n = m.(z.n) for m in ms and n in ns, on rows
    whose moments are invariant: the failing (position of z, m, n), m by m."""
    _, _, bifib, _, lrow, _, rrow = rows
    ns_to = {}
    for n in ns:
        ns_to.setdefault(zb.right.tgt[n], []).append((n, rrow[n].__getitem__))
    for m in ms:
        mrow, x = lrow[m].__getitem__, zb.left.src[m]
        for y, nrows in ns_to.items():
            fib = bifib.get((x, y))
            if fib is None:
                continue
            mz = list(map(mrow, fib))
            for n, nrow in nrows:
                lhs, rhs = list(map(nrow, mz)), list(map(mrow, map(nrow, fib)))
                if lhs != rhs:
                    yield from ((i, m, n) for i in _mismatches(fib, lhs, rhs))


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
    A bibundle that passed check_bibundle keeps both results in
    zb.divisions, so each side of it is divided once, and every caller
    shares them: read them, do not change them.
    """
    kept = zb.divisions
    if kept is None:
        return _divide(zb, side)
    if side not in kept:
        kept[side] = _divide(zb, side)
    return kept[side]


def _divide(zb, side):
    """division(zb, side), read off the action table: in one pass when no
    pair is reached by two arrows and every pair over one moment is
    reached, and otherwise with the second solutions looked up for the
    NotFree witnesses."""
    right = side == "right"
    acts = zb.ract if right else zb.lact
    # (z, z2) -> the first solution in table order, which is written last
    if right:
        first = {(z, z2): n for (z, n), z2 in reversed(acts.items())}
    else:
        first = {(z, z2): m for (m, z), z2 in reversed(acts.items())}
    fibres = _fibres(zb.space, zb.lmom if right else zb.rmom)
    pairs = [(z, z2) for x in (zb.left if right else zb.right).objects
             for fiber in (fibres.get(x, ()),) for z in fiber for z2 in fiber]
    if len(first) == len(acts):  # no pair is reached by two arrows
        try:
            return dict(zip(pairs, map(first.__getitem__, pairs))), []
        except KeyError:  # a pair over one moment is reached by none
            pass
    second = {}
    for (a, b), z2 in acts.items():
        key, arrow = ((a, z2), b) if right else ((b, z2), a)
        if arrow != first[key]:
            second.setdefault(key, arrow)
    detail = "" if right else "left"
    violations = [Violation("NotFree", (key[0], first[key], second[key]), detail)
                  if key in second else Violation("NotTransitive", key, detail)
                  for key in pairs if key in second or key not in first]
    return {key: first[key] for key in pairs if key in first and key not in second}, violations


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
    parts = {pair(x, nn): (x, nn) for x in m.objects for nn in n.arrows_to(f.omap[x])}
    lmom = {z: x for z, (x, _) in parts.items()}
    rmom = {z: n.src[nn] for z, (_, nn) in parts.items()}
    lact, ract = {}, {}
    for z, (x, nn) in parts.items():
        for g in m.arrows_from(x):
            lact[(g, z)] = pair(m.tgt[g], n.comp[(f.amap[g], nn)])
        for n2 in n.arrows_to(n.src[nn]):
            ract[(z, n2)] = pair(x, n.comp[(nn, n2)])
    zb = validate_bibundle(m, n, parts, lmom, rmom, lact, ract)
    zb.parts = parts
    return zb


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
        z, m, z2 = dom.parts[a]
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
    links), not yet checked, with parts set to reps and pair_class to the
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
    zb.parts = reps
    zb.pair_class = class_of
    return zb


def compose_bibundles(z1, z2):
    """Z1 . Z2 = (Z1 x_{N^0} Z2)/N with (z1 n, z2) ~ (z1, n z2), a quotient
    bibundle whose classes are labelled by their least pair(a, b).  The
    composite g-function identity
    g^{Z1.Z2}([a,b],[a',b']) = g^{Z2}(b, g^{Z1}(a,a').b') is checked
    exhaustively before returning.

    When both factors passed check_bibundle and N, the right end of Z1,
    is a validated groupoid that keeps its generators S(N) (Groupoid.gens)
    and whose composition the left end of Z2 shares, the pairs are glued
    only along S(N): for n = n's with s
    in S(N), the action laws of the factors give
      (a.(n's), b) = ((a.n').s, b) ~ (a.n', s.b) ~ (a, n'.(s.b)) = (a, (n's).b),
    the middle step by induction on the left-normed length of n'.  So both
    relations have the same classes, the same least members and the same
    class labels.  Otherwise every arrow of N glues.
    """
    if z1.right is not z2.left and z1.right.arrows != z2.left.arrows:
        raise ValidationFailure([Violation("MiddleMismatch", None)])
    n = z1.right
    over = _fibres(z2.space, z2.lmom)
    label = {(a, b): pair(a, b) for a in z1.space for b in over.get(z1.rmom[a], ())}
    if not label:
        raise EmptyComposite("fibered product of bibundle spaces is empty")
    members = {lab: ab for ab, lab in label.items()}
    glue = n.gens()
    if glue is None or z1.divisions is None or z2.divisions is None or \
            not (n is z2.left or n.comp == z2.left.comp):
        glue = n.arrows
    glue_to = _fibres(glue, n.tgt)
    # (a.n, b) ~ (a, n.b)
    links = [(label[(z1.ract[(a, nn)], b)], label[(a, z2.lact[(nn, b)])])
             for a in z1.space for nn in glue_to.get(z1.rmom[a], ())
             for b in over.get(n.src[nn], ())]
    out = quotient_bibundle(
        z1.left, z2.right, members, links, lambda r: z1.lmom[r[0]],
        lambda r: z2.rmom[r[1]], lambda m, r: label[(z1.lact[(m, r[0])], r[1])],
        lambda r, nn: label[(r[0], z2.ract[(r[1], nn)])])
    _validated(out)

    g1, g2, gc = g_function(z1), g_function(z2), g_function(out)
    same_lmom = _fibres(out.space, out.lmom)
    for c, (a, b) in out.parts.items():
        for c2 in same_lmom[out.lmom[c]]:
            a2, b2 = out.parts[c2]
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
    Each isotropy search may explore node_cap nodes; one more raises
    SizeLimitExceeded.
    """
    gorbs = _orbits(g)
    horbs = _orbits(h)
    if len(gorbs) != len(horbs):
        return None
    gb, _ = inertia(g)
    hb, _ = inertia(h)

    matched = _match_orbits(g, h, gorbs, horbs, gb, hb, node_cap)
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
    zb = quotient_bibundle(
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


def _match_orbits(g, h, gorbs, horbs, gb, hb, node_cap):
    """Greedy-with-backtracking orbit matching by isotropy isomorphism,
    each isotropy search capped at node_cap nodes.
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
                isos = group_isos(gb, x, hb, y, node_cap)
                for theta in isos:
                    rest = extend(i + 1, used | {j})
                    if rest is not None:
                        return [(x, y, theta)] + rest
        return None

    return extend(0, frozenset())


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
