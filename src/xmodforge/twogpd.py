"""Strict 2-groupoids with tabulated cells, cover 2-groupoids, strict
homomorphisms, transformations, and strong/weak equivalences.

A strict 2-groupoid is a groupoid object in groupoids, held as two
fingrpd.Groupoids (TwoGroupoid).  Vertical composition is the vertical
groupoid's, in the same fibered-product convention as 1-cell composition: vcomp[(a, b)] is defined when s2(a) == t2(b) and means
"b then a". The horizontal composite hcomp[(a, b)] covers comp1(s2(a), s2(b)).

Cover 2-groupoids carry 2-cells between differently indexed copies of one
underlying arrow; these violate the strict bigon condition s(s2)=s(t2),
t(s2)=t(t2). The container tolerates that (strict_bigons flag); operations
whose statements need honest bigons require the flag.
"""

from collections.abc import Mapping

from .errors import ValidationFailure, Violation, require
from .fingrpd import check_groupoid_generators, groupoid_of_parts
from .util import pair


class TwoGroupoid:
    """The level-1 groupoid (objects G0, 1-cells G1) and the vertical one
    (1-cells, cells G2), with hcomp and hinv; g0, g1, s, t, inv1, unit1,
    comp1 and g2, s2, t2, vinv, vunit, vcomp are the levels' own tables."""

    def __init__(self, level1, vertical, hcomp, hinv, whiskers=None):
        self.level1, self.vertical = level1, vertical
        self.g0, self.g1, self.s, self.t = level1.objects, level1.arrows, level1.src, level1.tgt
        self.inv1, self.unit1, self.comp1 = level1.inv, level1.unit, level1.comp
        self.g2, self.s2, self.t2 = vertical.arrows, vertical.src, vertical.tgt
        self.vinv, self.vunit, self.vcomp = vertical.inv, vertical.unit, vertical.comp
        # (R, L), R[a][h] = a *h 1_h and L[b][g] = 1_g *h b, when the builder
        # gave the whiskers: hcomp is then computed from them (WhiskeredHComp)
        # rather than stored, and hcomp is passed as None
        self.whiskers = whiskers
        self.hcomp = dict(hcomp) if whiskers is None else WhiskeredHComp(self)
        self.hinv = dict(hinv)
        # set by its builder: {level: {label: its parts}}, for the levels
        # (0, 1, 2) whose labels the builder made
        self.parts = None
        # set by check_2groupoid when it certifies the tables on generators:
        # (S1, SV), the generators of the level-1 and the vertical groupoid
        self.certified = None
        # read with get: a document may leave a cell's ends undefined, which
        # check_2groupoid reports before it reads this flag
        s, t = self.s.get, self.t.get
        self.strict_bigons = all(
            s(self.s2.get(a)) == s(self.t2.get(a)) and
            t(self.s2.get(a)) == t(self.t2.get(a)) for a in self.g2)

    def is_unit1(self, g):
        return self.unit1[self.s[g]] == g

    def vchain(self, *cells):
        """Compose 2-cells listed in diagram order (left to right)."""
        acc = cells[0]
        for c in cells[1:]:
            acc = self.vcomp[(c, acc)]
        return acc

    def hchain(self, *cells):
        """Horizontal composite in juxtaposition order (leftmost covers the
        final target): hchain(a, b, c) covers s2(a) s2(b) s2(c)."""
        acc = cells[-1]
        for c in reversed(cells[:-1]):
            acc = self.hcomp[(c, acc)]
        return acc

    def __repr__(self):
        return (f"TwoGroupoid(|G0|={len(self.g0)}, |G1|={len(self.g1)}, "
                f"|G2|={len(self.g2)})")


class WhiskeredHComp(Mapping):
    """The horizontal composition of a 2-groupoid given by its whiskers:
    a *h b = R(a, t2 b) . L(s2 a, b), the first form of (D) in
    check_2groupoid, read off vcomp and the whiskers at each lookup.  It is
    a table that is computed, not stored: its keys are the h-composable
    pairs of cells, the cells in the order of R, and iterating it visits
    every one of them.  Once check_2groupoid has found the whisker ends
    right, a pair is a key exactly when its lookup succeeds."""

    def __init__(self, tg):
        self._right, self._left = tg.whiskers
        self._vcomp, self._s2, self._t2 = tg.vcomp, tg.s2, tg.t2
        self._s, self._t, self._cells = tg.s, tg.t, tg.g2
        self._rows = None  # [(a, [b, ...])] over the cells a, on first iteration

    def __getitem__(self, key):
        try:
            a, b = key
        except (TypeError, ValueError):  # not a pair: missing, as from a dict
            raise KeyError(key) from None
        return self._vcomp[(self._right[a][self._t2[b]], self._left[b][self._s2[a]])]

    def _composable(self):
        if self._rows is None:
            s, t, s2, t2 = self._s, self._t, self._s2, self._t2
            cells = [a for a in self._right if a in self._cells]
            by_end = {}
            for b in cells:
                by_end.setdefault((t[s2[b]], t[t2[b]]), []).append(b)
            self._rows = [(a, by_end.get((s[s2[a]], s[t2[a]]), ())) for a in cells]
        return self._rows

    def __iter__(self):
        for a, bs in self._composable():
            for b in bs:
                yield (a, b)

    def __len__(self):
        return sum(len(bs) for _, bs in self._composable())


def check_2groupoid(tg):
    """Return the list of axiom violations of a strict 2-groupoid (empty
    when its tables are one).

    The groupoid axioms at both levels, the domain and the s2/t2 of every
    horizontal composite, horizontal units and horizontal inverses are
    checked cell by cell.  What remains is horizontal associativity,
    interchange and 1_g *h 1_h = 1_{gh}.  A direct sweep of those visits
    every composable triple and every quadruple of two v-composable pairs.

    On strict-bigon inputs a cheaper check decides them exactly.  Write
    R(a, h) = a *h 1_h and L(g, b) = 1_g *h b for the whiskers.  The tables
    form a strict 2-category iff
      (V)  1_g *h 1_h = 1_{gh};
      (D)  a *h b = R(a, h') . L(g, b) = L(g', b) . R(a, h)
           for a: g => g', b: h => h' ("." is vertical, right factor first);
      (W1) R(-, h) and L(g, -) preserve vertical composition;
      (W2) R(R(a, h), k) = R(a, hk), L(g, L(h, c)) = L(gh, c) and
           R(L(g, b), k) = L(g, R(b, k)).
    These say the whiskers make a sesquicategory whose two whiskering
    orders agree, and that *h is the whiskered composite: a sesquicategory
    with interchange, which is a strict 2-category (Street, "Categorical
    structures", Handbook of Algebra 1, 1996).  Interchange follows from
    (D) and (W1) by rewriting both sides into whiskers; associativity of
    *h from (D), (W1) and (W2).  Conversely every strict 2-category
    satisfies them.  So when they hold the sweep would find nothing.  When
    they fail, or the bigons are loose (cover 2-groupoids), the sweep runs
    and lists every failing witness in its own order.

    Each law is checked on generators where a closure argument allows.  S1
    and SV are the generators (fingrpd.generators) of the level-1 and the
    vertical groupoid, which Groupoid.gens gives for a validated level and
    the level check returns for any other; every 1-cell is a
    left-normed product of S1 and every cell one of SV, and both levels
    are associative by then.  A law whose set of instances is closed under
    composition holds everywhere once it holds on generators:
      (W2) first form, in k: if it holds for k1, k2 (all a, h), then
           R(R(a, h), k1 k2) = R(R(R(a, h), k1), k2) = R(R(a, h k1), k2)
           = R(a, h k1 k2).  The second form likewise in the outer g, and
           the third in k, rewriting R(-, k1 k2) by the first form.
      (W1) in the right factor: if R(x b, h) = R(x, h) . R(b, h) for all
           x and b in {b1, b2}, then R(x b1 b2, h) = R(x b1, h) . R(b2, h)
           = R(x, h) . R(b1 b2, h).  In h: R(-, h k) = R(R(-, h), k) by
           (W2), a composite of maps that preserve ".".  L likewise.
      (D)  the first form is checked on every hcomp entry.  Given it and
           (W1), the second form for (a1 a2, b) follows from the forms for
           (a1, b) and (a2, b):
           R(a1 a2, h') . L(g, b) = R(a1, h') . R(a2, h') . L(g, b)
           = R(a1, h') . L(g', b) . R(a2, h) = L(g'', b) . R(a1 a2, h),
           and the same holds in b; so it is checked on SV x SV.
    So the certificate checks the first form of (D) on hcomp, (W2) with
    the outer 1-cell in S1, (W1) on SV x S1 and the second form of (D) on
    SV x SV, and (V) follows from them:
      (V)  every cell, units included, is a product of SV, so (W1) on SV x
           S1 gives R(1_g, h) = R(1_g . 1_g, h) = R(1_g, h) . R(1_g, h) for
           h in S1: R(1_g, h) is an idempotent of the vertical groupoid,
           hence the unit 1_{gh} at its s2, which its ends fix.  The first
           form of (W2) carries it to every h, a product of S1:
           R(1_g, h k) = R(R(1_g, h), k) = R(1_{gh}, k) = 1_{ghk} for k in
           S1.  L(g, 1_h) = 1_{gh} follows likewise by its (W1) and the
           second form of (W2), L(f g, 1_h) = L(f, L(g, 1_h)) for f in S1.
           Then 1_g *h 1_h = R(1_g, h) . L(g, 1_h) = 1_{gh} by (D).
    The certificate reads about |hcomp| + |G2| d s lookups, for d the
    1-cells and s the generators in S1 at an object, where the same laws
    on every instance read about |hcomp| + |vcomp| d + |G2| d^2.  When it
    passes, the generators are kept in tg.certified, for check_strict_hom2.

    Tables built with whiskers (tg.whiskers, as xmod.xmod_to_2groupoid
    builds them) store R and L instead of hcomp, and tg.hcomp is the
    WhiskeredHComp computed from them by the first form of (D).  A check of
    the whisker ends replaces the cell-by-cell check of hcomp, and the
    first form of (D) holds by the definition of hcomp once the unit
    whiskers do:
      Whisker ends, with the cell checks: R[a] is defined exactly at the
           1-cells h ending at s(s2 a), with R(a, h): (s2 a) h => (t2 a) h,
           and L[b] exactly at the 1-cells g starting at t(s2 b), with
           L(g, b): g (s2 b) => g (t2 b); each miss is a BadWhisker.  At
           h = 1 the composite (t2 a) h exists, so s(t2 a) = s(s2 a), and
           L gives t(t2 b) = t(s2 b): the bigons are strict.  Let (a, b)
           be h-composable.  Then t(t2 b) = s(t2 a) = s(s2 a) and s(s2 a)
           = t(s2 b), so R(a, t2 b) and L(s2 a, b) are defined, and s2 of
           the first is (s2 a)(t2 b), t2 of the second; the level-2 check
           gives their composite, with s2 = (s2 a)(s2 b) and t2 =
           (t2 a)(t2 b).  For any other pair one of the two lookups
           misses.  So hcomp is defined exactly on the h-composable pairs,
           with the ends MissingHComposite, BadHComposite and
           SpuriousHComposite ask for, and no entry need be read.
      Unit whiskers: R(1_g, h) = 1_{gh} = L(g, 1_h) by the proof of (V),
           which reads (W1), (W2) and the whisker ends alone.  Then the
           whiskers read off hcomp are the stored ones:
           a *h 1_h = R(a, h) . L(g, 1_h) = R(a, h) . 1_{gh} = R(a, h) and
           1_g *h b = R(1_g, h') . L(g, b) = L(g, b), by the vertical
           units.  When a unit whisker is wrong, (W1) or (W2) fails on
           generators, the certificate declines, and the sweep runs over
           the computed table, which sees every entry.
    (W1), (W2) and the second form of (D) are checked on generators as
    above.  The whisker checks read about |G2| d + |G1| d entries, so the
    whole check costs about |G2| d s lookups, with no |hcomp| term.
    """
    tg.certified = None
    violations, gens = _check_cells(tg)
    if violations:
        return violations
    if tg.strict_bigons and _whiskering_certifies(tg, *gens):
        tg.certified = gens
        return violations
    return _sweep_laws(tg)


def _check_cells(tg):
    """Both groupoid levels, horizontal composites, units and inverses:
    (violations, (S1, SV)), the generators of the two levels.  A level
    that validate_groupoid returned on the objects it must have (the
    1-cells, for the vertical one) is not checked again and gives its
    generators; any other level is checked here on those objects."""
    gens = []
    for code, objects, level in (("Level1:", tg.g0, tg.level1), ("Level2:", tg.g1, tg.vertical)):
        if level.validated and level.objects == objects:
            gens.append(level.gens())
            continue
        violations, s = check_groupoid_generators(objects, level.arrows, level.src,
                                                  level.tgt, level.inv, level.unit, level.comp)
        if violations:
            return [Violation(code + v.code, v.witness, v.detail) for v in violations], None
        gens.append(s)

    violations = _hcomp_ends(tg) if tg.whiskers is None else _whisker_ends(tg)
    if violations:
        return violations, None

    s, t, s2, t2 = tg.s, tg.t, tg.s2, tg.t2
    hcomp, vunit, cells, unit1 = tg.hcomp, tg.vunit, tg.g2, tg.unit1
    for a in cells:
        x = s[s2[a]]
        y = t[s2[a]]
        if s[t2[a]] == x and hcomp[(a, vunit[unit1[x]])] != a:
            violations.append(Violation("BadHUnit", (a, x), "right"))
        if t[t2[a]] == y and hcomp[(vunit[unit1[y]], a)] != a:
            violations.append(Violation("BadHUnit", (a, y), "left"))
    for a in cells:
        ah = tg.hinv.get(a)
        if ah is None:
            violations.append(Violation("MissingHInverse", (a,)))
            continue
        cs = (hcomp.get((a, ah)), hcomp.get((ah, a)))
        if None in cs:
            violations.append(Violation("BadHInverse", (a, ah), "not composable"))
            continue
        # a *h a^-h and a^-h *h a run between identity 1-cells, and are the
        # identity 2-cell where those coincide (always, for strict bigons)
        for c in cs:
            g, h = s2[c], t2[c]
            if not (tg.is_unit1(g) and tg.is_unit1(h)) or (g == h and c != vunit[g]):
                violations.append(Violation("BadHInverse", (a, ah, c)))
    return violations, tuple(gens)


def _hcomp_ends(tg):
    """Horizontal composition stored as a table: defined exactly when both
    s2- and t2-cells are comp1-composable, and functorial over s2/t2."""
    s, t, s2, t2, comp1 = tg.s, tg.t, tg.s2, tg.t2, tg.comp1
    hcomp, cells = tg.hcomp, tg.g2
    by_hsource = {}
    for b in cells:
        by_hsource.setdefault((t[s2[b]], t[t2[b]]), []).append(b)
    violations = []
    want_count = 0
    for a in cells:
        sa, ta = s2[a], t2[a]
        for b in by_hsource.get((s[sa], s[ta]), ()):
            want_count += 1
            c = hcomp.get((a, b))
            if c is None:
                violations.append(Violation("MissingHComposite", (a, b)))
                continue
            # read with get: a document's composite may be no cell
            if s2.get(c) != comp1[(sa, s2[b])] or t2.get(c) != comp1[(ta, t2[b])]:
                violations.append(Violation("BadHComposite", (a, b, c)))
    if want_count != len(hcomp):
        for (a, b) in hcomp:
            # read with get: a document's key may be no cell
            sa, ta, sb, tb = s2.get(a), t2.get(a), s2.get(b), t2.get(b)
            if not {sa, ta, sb, tb} <= tg.g1 or s[sa] != t[sb] or s[ta] != t[tb]:
                violations.append(Violation("SpuriousHComposite", (a, b)))
    return violations


def _whisker_ends(tg):
    """The whisker ends of check_2groupoid: R[a] defined exactly at the
    1-cells ending at s(s2 a) and L[b] at those starting at t(s2 b), each
    whisker a cell with the composite ends.  A BadWhisker names a whisker
    table that is missing, not a cell's or defined on the wrong 1-cells,
    as (a,), or a whisker with the wrong ends, as (a, 1-cell, whisker)."""
    s, t, s2, t2, comp1, cells = tg.s, tg.t, tg.s2, tg.t2, tg.comp1, tg.g2
    ending, starting = {}, {}
    for g in tg.g1:
        ending.setdefault(t[g], set()).add(g)
        starting.setdefault(s[g], set()).add(g)
    right, left = tg.whiskers
    violations = [Violation("BadWhisker", (a,), "right") for a in right if a not in cells]
    for a in cells:
        sa, ta = s2[a], t2[a]
        row = right.get(a)
        if row is None or row.keys() != ending[s[sa]]:
            violations.append(Violation("BadWhisker", (a,), "right"))
            continue
        for h, c in row.items():
            if c not in cells or s2[c] != comp1[(sa, h)] or t2[c] != comp1.get((ta, h)):
                violations.append(Violation("BadWhisker", (a, h, c), "right"))
    violations += [Violation("BadWhisker", (a,), "left") for a in left if a not in cells]
    for a in cells:
        sa, ta = s2[a], t2[a]
        row = left.get(a)
        if row is None or row.keys() != starting[t[sa]]:
            violations.append(Violation("BadWhisker", (a,), "left"))
            continue
        for g, c in row.items():
            if c not in cells or s2[c] != comp1[(g, sa)] or t2[c] != comp1.get((g, ta)):
                violations.append(Violation("BadWhisker", (a, g, c), "left"))
    return violations


def _whiskering_certifies(tg, s1, sv):
    """(D), (W1) and (W2) of check_2groupoid, reduced to the generators s1
    and sv, on tables that passed _check_cells and have strict bigons; on
    whiskered tables without the first form of (D).  (V) and the unit
    whiskers follow from them.  Neither a missing entry nor an hcomp key
    that is not a pair of cells (it has no whiskers in R, L) certifies
    anything."""
    hcomp, vcomp, vunit, comp1 = tg.hcomp, tg.vcomp, tg.vunit, tg.comp1
    s, t, s2, t2, cells = tg.s, tg.t, tg.s2, tg.t2, tg.g2
    try:
        gens_ending, gens_starting = _gens_by_end(tg, s1)
        if tg.whiskers is None:
            # the whiskers: R[a][h] = R(a, h) and L[a][g] = L(g, a)
            ending, starting = tg.level1.arrows_to, tg.level1.arrows_from
            R, L = {}, {}
            for a in cells:
                R[a] = {h: hcomp[(a, vunit[h])] for h in ending(s[s2[a]])}
                L[a] = {g: hcomp[(vunit[g], a)] for g in starting(t[s2[a]])}
            # (D), first form
            for (a, b), ab in hcomp.items():
                if vcomp[(R[a][t2[b]], L[b][s2[a]])] != ab:
                    return False
        else:
            R, L = tg.whiskers
        # (W2), the outer 1-cell a generator
        for a in cells:
            ra, la = R[a], L[a]
            for h, rah in ra.items():
                rr = R[rah]
                for k in gens_ending.get(s[h], ()):
                    if rr[k] != ra[comp1[(h, k)]]:
                        return False
            for k in gens_ending.get(s[s2[a]], ()):
                lrak = L[ra[k]]
                for g, lga in la.items():
                    if R[lga][k] != lrak[g]:
                        return False
            for g, lga in la.items():
                ll = L[lga]
                for f in gens_starting.get(t[g], ()):
                    if ll[f] != la[comp1[(f, g)]]:
                        return False
        # (W1), the right factor in sv and the 1-cell in s1
        for b in sv:
            rb, lb = R[b], L[b]
            hs = gens_ending.get(s[s2[b]], ())
            gs = gens_starting.get(t[s2[b]], ())
            for a in tg.vertical.arrows_from(t2[b]):
                ab = vcomp[(a, b)]
                ra, la, rab, lab = R[a], L[a], R[ab], L[ab]
                for h in hs:
                    if rab[h] != vcomp[(ra[h], rb[h])]:
                        return False
                for g in gs:
                    if lab[g] != vcomp[(la[g], lb[g])]:
                        return False
        # (D), second form, on generator pairs
        sv_ending = {}  # object -> [generator in sv whose 1-cells end there]
        for b in sv:
            sv_ending.setdefault(t[s2[b]], []).append(b)
        for a in sv:
            ra = R[a]
            for b in sv_ending.get(s[s2[a]], ()):
                if vcomp[(L[b][t2[a]], ra[s2[b]])] != hcomp[(a, b)]:
                    return False
    except KeyError:
        return False
    return True


def _gens_by_end(tg, s1):
    """The generators s1 by the object they end at and by the one they
    start at."""
    gens_ending, gens_starting = {}, {}
    for g in s1:
        gens_ending.setdefault(tg.t[g], []).append(g)
        gens_starting.setdefault(tg.s[g], []).append(g)
    return gens_ending, gens_starting


def _sweep_laws(tg):
    """h-associativity, interchange and h-multiplicative units, every
    composable instance checked directly.  A computed hcomp is read into a
    dict first, entry by entry."""
    violations = []
    hcomp, vcomp = dict(tg.hcomp), tg.vcomp
    hnext, hnext_by_t2 = {}, {}
    for (a, b) in hcomp:
        hnext.setdefault(a, []).append(b)
        hnext_by_t2.setdefault((a, tg.t2[b]), []).append(b)

    # h-associativity on composable triples
    for (a, b), ab in hcomp.items():
        for c in hnext.get(b, ()):
            if hcomp[(ab, c)] != hcomp[(a, hcomp[(b, c)])]:
                violations.append(Violation("HNonAssociative", (a, b, c)))

    # interchange: (a1*h a2)*v(b1*h b2) = (a1*v b1)*h(a2*v b2), i.e. with
    # function-order vcomp: vcomp(a1 h a2, b1 h b2) = hcomp(vcomp(a1,b1), vcomp(a2,b2));
    # b2 ranges over the h-successors of b1 whose t2 is s2(a2)
    for (a1, b1), v1 in vcomp.items():
        for a2 in hnext.get(a1, ()):
            for b2 in hnext_by_t2.get((b1, tg.s2[a2]), ()):
                if (a2, b2) not in vcomp:  # a stray hcomp key, not a cell
                    continue
                lhs = vcomp.get((hcomp[(a1, a2)], hcomp[(b1, b2)]))
                rhs = hcomp.get((v1, vcomp[(a2, b2)]))
                if lhs is None or rhs is None or lhs != rhs:
                    violations.append(
                        Violation("InterchangeFailure", (a1, a2, b1, b2)))
    # strict units at both levels interact: 1_g *h 1_h = 1_{gh}
    for g, h in tg.level1.composable_pairs():
        if hcomp[(tg.vunit[g], tg.vunit[h])] != tg.vunit[tg.comp1[(g, h)]]:
            violations.append(Violation("BadHUnit", (g, h), "vunit not h-multiplicative"))
    return violations


def validate_2groupoid(tg):
    return require(tg, check_2groupoid(tg))


def make_2groupoid(level1, vertical, hcomp, hinv=None, whiskers=None):
    """Assemble and validate; derive horizontal inverses when absent via
    a^-h = vinv(1_{g^-1} *h a *h 1_{h^-1}).  hcomp is None when whiskers
    (R, L) are given (see TwoGroupoid)."""
    tg = TwoGroupoid(level1, vertical, hcomp, {}, whiskers)
    derived = {}
    # read with get: a GDF block's tables may lack entries, and
    # check_2groupoid reports what is missing
    s2, t2, inv1, vunit = tg.s2.get, tg.t2.get, tg.inv1.get, tg.vunit.get
    for a in tg.g2:
        u = tg.hcomp.get((vunit(inv1(s2(a))), a))
        w = None if u is None else tg.hcomp.get((u, vunit(inv1(t2(a)))))
        if w in tg.vinv:
            derived[a] = tg.vinv[w]
    if hinv is not None:
        for a, cand in hinv.items():
            if a in derived and derived[a] != cand:
                raise ValidationFailure([Violation("BadHInverse", (a, cand),
                                                   "cross-check against derived inverse")])
        merged = dict(derived)
        merged.update({a: v for a, v in hinv.items() if a not in merged})
        tg.hinv.update(merged)
    else:
        tg.hinv.update(derived)
    return validate_2groupoid(tg)


# -- constructions ---------------------------------------------------------


def from_groupoid(g):
    """g with all-identity 2-cells: its vertical groupoid has the one cell
    1_g on each arrow g."""
    one = {gg: pair("1", gg) for gg in g.arrows}
    vertical = groupoid_of_parts(g.arrows, {c: gg for gg, c in one.items()},
                                 lambda gg: gg, lambda gg: gg, one.__getitem__,
                                 one.__getitem__, lambda gg, _: one[gg])
    hcomp = {(one[a], one[b]): one[g.comp[(a, b)]] for a, b in g.composable_pairs()}
    return make_2groupoid(g, vertical, hcomp)


def cover_2groupoid(g, cover):
    """Cover 2-groupoid of an indexed open cover {i: subset of objects}.

    Objects (i,x) with x in U_i; 1-cells (i,g,j) with t(g) in U_i, s(g) in
    U_j; 2-cells are doubly indexed copies (i1,i2,g,g,j1,j2) of a single
    arrow.  The tuples are kept as the parts of all three levels.
    """
    covered = set().union(*cover.values())
    missing = tuple(x for x in g.objects if x not in covered)
    if missing:
        raise ValidationFailure([Violation("NotACover", missing)])
    idx = sorted(cover)
    objects = {pair(str(i), x): (str(i), x) for i in idx for x in sorted(cover[i])}
    g1 = {pair(str(i), gg, str(j)): (str(i), gg, str(j))
          for i in idx for j in idx for gg in g.arrows
          if g.tgt[gg] in cover[i] and g.src[gg] in cover[j]}
    level1 = groupoid_of_parts(
        objects, g1, lambda r: pair(r[2], g.src[r[1]]), lambda r: pair(r[0], g.tgt[r[1]]),
        lambda r: pair(r[2], g.inv[r[1]], r[0]),
        lambda x: pair(objects[x][0], g.unit[objects[x][1]], objects[x][0]),
        lambda r, r2: pair(r[0], g.comp[(r[1], r2[1])], r2[2]))

    cell = lambda i1, i2, gg, j1, j2: pair(i1, i2, gg, gg, j1, j2)
    g2 = {}
    for gg in g.arrows:
        iis = [str(i) for i in idx if g.tgt[gg] in cover[i]]
        jjs = [str(j) for j in idx if g.src[gg] in cover[j]]
        for i1 in iis:
            for i2 in iis:
                for j1 in jjs:
                    for j2 in jjs:
                        g2[cell(i1, i2, gg, j1, j2)] = (i1, i2, gg, gg, j1, j2)
    # function order: the composite of r after r2 runs from s2(r2) to t2(r)
    vertical = groupoid_of_parts(
        g1, g2, lambda r: pair(r[0], r[2], r[4]), lambda r: pair(r[1], r[2], r[5]),
        lambda r: cell(r[1], r[0], r[2], r[5], r[4]),
        lambda a: cell(g1[a][0], g1[a][0], g1[a][1], g1[a][2], g1[a][2]),
        lambda r, r2: cell(r2[0], r[1], r[2], r2[4], r[5]))
    by_hslot = {}
    for b, (k1, k2, gb, _, l1, l2) in g2.items():
        by_hslot.setdefault((g.tgt[gb], k1, k2), []).append(b)
    hcomp = {}
    for a, (i1, i2, ga, _, j1, j2) in g2.items():
        for b in by_hslot.get((g.src[ga], j1, j2), ()):
            _, _, gb, _, l1, l2 = g2[b]
            hcomp[(a, b)] = cell(i1, i2, g.comp[(ga, gb)], l1, l2)
    hinv = {a: cell(j1, j2, g.inv[ga], i1, i2)
            for a, (i1, i2, ga, _, j1, j2) in g2.items()}
    tg = make_2groupoid(level1, vertical, hcomp, hinv)
    tg.parts = {0: objects, 1: g1, 2: g2}
    return tg


# -- strict homomorphisms, transformations --------------------------------


class StrictHom2:
    def __init__(self, dom, cod, m0, m1, m2):
        self.dom, self.cod = dom, cod
        self.m0, self.m1, self.m2 = dict(m0), dict(m1), dict(m2)

    def then(self, other):
        return StrictHom2(self.dom, other.cod,
                          {x: other.m0[self.m0[x]] for x in self.m0},
                          {g: other.m1[self.m1[g]] for g in self.m1},
                          {a: other.m2[self.m2[a]] for a in self.m2})

    def __repr__(self):
        return f"StrictHom2(|G2|={len(self.m2)})"


def check_strict_hom2(f):
    """The violations of a strict homomorphism f: dom -> cod (empty when it
    is one): images and ends at each level, then units and composites.

    The vcomp and hcomp laws are each one body, run on the pairs it is
    given.  It runs first on generator pairs when both ends carry the
    generators their own passing check_2groupoid certified them on
    (dom.certified and cod.certified) and the earlier laws hold, and stops
    at the first failure.  It runs on every entry of dom's table otherwise,
    or when a generator pair fails, and lists every failing pair in the
    table's order.  With SV and S1 the vertical and level-1 generators of
    dom, the generator pairs are (a, b) with b in SV for vcomp and the
    whiskers (a, 1_h) and (1_g, a) with a in SV and h, g in S1 for hcomp:
      vcomp: if f(x b) = f(x) f(b) for all x and b in {b1, b2}, then
             f(x b1 b2) = f(x b1) f(b2) = f(x) f(b1 b2) by vertical
             associativity at both ends; so b in SV suffices.
      hcomp: by (D) at both ends, a *h b = R(a, h') . L(g, b) (see
             check_2groupoid), and f preserves "." and the identity cells,
             so f preserves *h iff it preserves the whiskers:
             f(R(a, h)) = R(f(a), f(h)) and f(L(g, b)) = L(f(g), f(b)).
             These close under "." in the cell by (W1) at both ends, and
             under comp1 in the 1-cell by (W2) at both ends and since f
             preserves comp1; so a in SV and h, g in S1 suffice.
    A cover 2-groupoid has loose bigons and so no whiskers; it is never
    certified, and a homomorphism from or to one is swept."""
    violations = []
    d, c = f.dom, f.cod
    for x in d.g0:
        if f.m0.get(x) not in c.g0:
            violations.append(Violation("BadObjectImage", (x,)))
    for g in d.g1:
        h = f.m1.get(g)
        if h not in c.g1:
            violations.append(Violation("BadArrowImage", (g,)))
        elif c.s[h] != f.m0[d.s[g]] or c.t[h] != f.m0[d.t[g]]:
            violations.append(Violation("NotFunctorial", (g,), "level-1 endpoints"))
    for a in d.g2:
        b = f.m2.get(a)
        if b not in c.g2:
            violations.append(Violation("BadCellImage", (a,)))
        elif c.s2[b] != f.m1[d.s2[a]] or c.t2[b] != f.m1[d.t2[a]]:
            violations.append(Violation("NotFunctorial", (a,), "s2/t2"))
    if violations:
        return violations
    for x in d.g0:
        if f.m1[d.unit1[x]] != c.unit1[f.m0[x]]:
            violations.append(Violation("NotFunctorial", (x,), "unit1"))
    for g, h in d.level1.composable_pairs():
        if f.m1[d.comp1[(g, h)]] != c.comp1[(f.m1[g], f.m1[h])]:
            violations.append(Violation("NotFunctorial", (g, h), "comp1"))
    for g in d.g1:
        if f.m2[d.vunit[g]] != c.vunit[f.m1[g]]:
            violations.append(Violation("NotFunctorial", (g,), "vunit"))
    if not violations and d.certified and c.certified and not any(
            next(_unpreserved(f, law, pairs), None) for law, pairs in _generator_pairs(d)):
        return violations
    for law in ("vcomp", "hcomp"):
        violations += [Violation("NotFunctorial", ab, law)
                       for ab in _unpreserved(f, law, getattr(d, law))]
    return violations


def _unpreserved(f, law, pairs):
    """The pairs (a, b) among pairs, keys of the table law ("vcomp" or
    "hcomp") of f.dom, with f(a b) != f(a) f(b) in that table."""
    dom, cod, m2 = getattr(f.dom, law), getattr(f.cod, law), f.m2
    return ((a, b) for a, b in pairs if cod.get((m2[a], m2[b])) != m2[dom[(a, b)]])


def _generator_pairs(d):
    """The generator pairs of check_strict_hom2 for a certified d:
    [("vcomp", pairs), ("hcomp", whiskers)]."""
    s1, sv = d.certified
    gens_ending, gens_starting = _gens_by_end(d, s1)
    vcomps = [(a, b) for b in sv for a in d.vertical.arrows_from(d.t2[b])]
    whiskers = [(b, d.vunit[h]) for b in sv for h in gens_ending.get(d.s[d.s2[b]], ())]
    whiskers += [(d.vunit[g], b) for b in sv for g in gens_starting.get(d.t[d.s2[b]], ())]
    return [("vcomp", vcomps), ("hcomp", whiskers)]


def validate_strict_hom2(dom, cod, m0, m1, m2):
    f = StrictHom2(dom, cod, m0, m1, m2)
    return require(f, check_strict_hom2(f))


def identity_hom2(tg):
    return StrictHom2(tg, tg, {x: x for x in tg.g0},
                      {g: g for g in tg.g1}, {a: a for a in tg.g2})


def cover_projection(g, cover):
    """The canonical projection cover_2groupoid(g, cover) -> g (as trivial
    2-groupoid): (i1,i2,g,h,j1,j2) -> g h^-1 g."""
    dom = cover_2groupoid(g, cover)
    cod = from_groupoid(g)
    m0 = {x: dom.parts[0][x][1] for x in dom.g0}
    m1 = {a: dom.parts[1][a][1] for a in dom.g1}
    m2 = {}
    for a in dom.g2:
        _, _, ga, ha, _, _ = dom.parts[2][a]
        m2[a] = pair("1", g.comp[(g.comp[(ga, g.inv[ha])], ga)])
    return validate_strict_hom2(dom, cod, m0, m1, m2), dom, cod


def check_transformation2(v, f, k):
    """Transformation data v: G1 -> H2 between strict homs f, k: dom -> cod.
    v must send unit 1-cells to identity 2-cells on 1-arrows f(x) -> k(x).
    Returns the list of violated axioms (i)-(iv) with witnesses."""
    violations = []
    d, c = f.dom, f.cod

    vbar = {}
    for x in d.g0:
        cell = v.get(d.unit1[x])
        if cell is None or cell not in c.g2:
            violations.append(Violation("T2AxiomI", (x,), "missing cell at unit"))
            continue
        if c.vunit[c.s2[cell]] != cell:
            violations.append(Violation("T2AxiomI", (x,), "v at a unit is not an identity 2-cell"))
            continue
        w = c.s2[cell]
        if c.s[w] != f.m0[x] or c.t[w] != k.m0[x]:
            violations.append(Violation("T2AxiomI", (x, w)))
        vbar[x] = w
    if violations:
        return violations

    for g in d.g1:
        cell = v.get(g)
        x, y = d.s[g], d.t[g]
        if cell is None or cell not in c.g2:
            violations.append(Violation("T2AxiomII", (g,), "missing"))
            continue
        lhs = c.comp1[(k.m1[g], vbar[x])]
        rhs = c.comp1[(vbar[y], f.m1[g])]
        if c.s2[cell] != lhs or c.t2[cell] != rhs:
            violations.append(Violation("T2AxiomII", (g, cell)))
    if violations:
        return violations

    # (iii) v_{gh} = v_g *h 1_{v_y^-1} *h v_h  for x -h-> y -g-> z
    for gg, hh in d.level1.composable_pairs():
        y = d.t[hh]
        rhs = c.hchain(v[gg], c.vunit[c.inv1[vbar[y]]], v[hh])
        if v[d.comp1[(gg, hh)]] != rhs:
            violations.append(Violation("T2AxiomIII", (gg, hh)))

    # (iv) naturality square for every 2-cell a: g => h
    for a in d.g2:
        g, h = d.s2[a], d.t2[a]
        x, y = d.s[g], d.t[g]
        left = c.vchain(v[g], c.hcomp[(c.vunit[vbar[y]], f.m2[a])])
        right = c.vchain(c.hcomp[(k.m2[a], c.vunit[vbar[x]])], v[h])
        if left != right:
            violations.append(Violation("T2AxiomIV", (a,)))
    return violations


def identity_transformation2(f):
    """v for f => f given by identity cells on identity 1-arrows."""
    d, c = f.dom, f.cod
    return {g: c.vunit[f.m1[g]] for g in d.g1}


def check_strong_equivalence(f, k, u, v):
    """f: G -> H, k: H -> G, u: k.f => id_G, v: f.k => id_H.

    Verifies both transformations and the 2-cell recovery of the strong
    equivalence lemma: every b: f(g) => f(h) equals f(a) for the canonical a.
    Returns violations."""
    violations = []
    violations += [Violation("U:" + w.code, w.witness, w.detail)
                   for w in check_transformation2(u, f.then(k), identity_hom2(f.dom))]
    violations += [Violation("V:" + w.code, w.witness, w.detail)
                   for w in check_transformation2(v, k.then(f), identity_hom2(f.cod))]
    if violations:
        return violations

    d, c = f.dom, f.cod
    ubar = {x: d.s2[u[d.unit1[x]]] for x in d.g0}
    recovered = {}
    for b in c.g2:
        gi = [g for g in d.g1 if f.m1[g] == c.s2[b]]
        hi = [h for h in d.g1 if f.m1[h] == c.t2[b]]
        for g in gi:
            for h in hi:
                if d.s[g] != d.s[h] or d.t[g] != d.t[h]:
                    continue
                x, y = d.s[g], d.t[g]
                mid = d.hcomp[(d.vunit[ubar[y]], k.m2[b])]
                a = d.hcomp[(d.vchain(u[g], mid, d.vinv[u[h]]),
                             d.vunit[d.inv1[ubar[x]]])]
                if f.m2[a] != b:
                    violations.append(Violation("RecoveryFailure", (b, g, h)))
                recovered[(b, g, h)] = a
    # the map a -> (s2(a), f(a), t2(a)) is a bijection onto the fibered product
    triples = {(d.s2[a_], f.m2[a_], d.t2[a_]) for a_ in d.g2}
    if len(triples) != len(d.g2):
        violations.append(Violation("RecoveryFailure", None, "cell map not injective"))
    full = {(g, b, h) for b in c.g2
            for g in d.g1 if f.m1[g] == c.s2[b]
            for h in d.g1 if f.m1[h] == c.t2[b]}
    if triples != full:
        violations.append(Violation("RecoveryFailure", None, "cell map not surjective"))
    return violations


# -- weak equivalences -----------------------------------------------------


def check_weak_equivalence(f):
    """Report {WE1, WE2, WE3} for a validated strict homomorphism."""
    d, c = f.dom, f.cod
    return weak_equivalence_report(d.level1, *_cell_ends(d.vertical), c.level1,
                                   *_cell_ends(c.vertical), f.m0, f.m1, f.m2)


def _cell_ends(vertical):
    """The src2 and tgt2 tables of a validated vertical groupoid, keyed by
    its cells alone: a groupoid read from a document may carry entries off
    its cells, which its check does not read."""
    src2, tgt2 = vertical.src, vertical.tgt
    if len(src2) == len(tgt2) == len(vertical.arrows):
        return src2, tgt2
    return ({a: src2[a] for a in vertical.arrows}, {a: tgt2[a] for a in vertical.arrows})


def weak_equivalence_report(dom1, dom_src2, dom_tgt2, cod1, cod_src2, cod_tgt2,
                            m0, m1, m2):
    """{WE1, WE2, WE3} of the maps (m0, m1, m2) between two 2-groupoids,
    each given by its level-1 groupoid and the src2 and tgt2 tables of its
    cells, keyed by the cells (dom1, dom_src2, dom_tgt2 and cod1, cod_src2,
    cod_tgt2): the conditions read nothing else, no composite, no inverse
    and no unit of the cells, so their tables need not exist.  The caller
    vouches that the ends are those of two strict 2-groupoids and the maps
    a strict homomorphism between them (check_weak_equivalence on a
    validated one; xmod.hypercover_report on validated crossed modules)."""
    report = {}

    hit = {cod1.src[n] for x in dom1.objects for n in cod1.arrows_to(m0[x])}
    report["WE1"] = hit == cod1.objects

    obj_pre = {}
    for x in dom1.objects:
        obj_pre.setdefault(m0[x], []).append(x)
    want = set()
    for gamma in cod1.arrows:
        for x in obj_pre.get(cod1.tgt[gamma], ()):
            for y in obj_pre.get(cod1.src[gamma], ()):
                want.add((x, gamma, y))
    cod_by_tgt = {}
    for b, g in cod_tgt2.items():
        cod_by_tgt.setdefault(g, []).append(b)
    got = set()
    for g in dom1.arrows:
        for b in cod_by_tgt.get(m1[g], ()):
            got.add((dom1.tgt[g], cod_src2[b], dom1.src[g]))
    report["WE2"] = want <= got

    # WE3: a -> (s2(a), t2(a), f(a)) bijects onto the fibered product taken
    # over bigon-compatible 1-cell pairs: parallel pairs, plus pairs already
    # witnessed by a domain 2-cell (the cover 2-groupoid's loose bigons).
    connected = {(ga, dom_tgt2[a]) for a, ga in dom_src2.items()}
    arr_pre = {}
    for g in dom1.arrows:
        arr_pre.setdefault(m1[g], []).append(g)
    fib = set()
    for b, gb in cod_src2.items():
        for u in arr_pre.get(gb, ()):
            for v in arr_pre.get(cod_tgt2[b], ()):
                parallel = dom1.src[u] == dom1.src[v] and dom1.tgt[u] == dom1.tgt[v]
                if parallel or (u, v) in connected:
                    fib.add((u, v, b))
    image = {}
    ok = True
    for a, ga in dom_src2.items():
        key = (ga, dom_tgt2[a], m2[a])
        if key in image:
            ok = False
        image[key] = a
    report["WE3"] = ok and set(image) == fib
    return report
