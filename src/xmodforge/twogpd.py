"""Strict 2-groupoids with tabulated cells, cover 2-groupoids, strict
homomorphisms, transformations, and strong/weak equivalences.

Vertical composition is stored in the same fibered-product convention as
1-cell composition: vcomp[(a, b)] is defined when s2(a) == t2(b) and means
"b then a". The horizontal composite hcomp[(a, b)] covers comp1(s2(a), s2(b)).

Cover 2-groupoids carry 2-cells between differently indexed copies of one
underlying arrow; these violate the strict bigon condition s(s2)=s(t2),
t(s2)=t(t2). The container tolerates that (strict_bigons flag); operations
whose statements need honest bigons require the flag.
"""

from .errors import ValidationFailure, Violation, require
from .fingrpd import Groupoid, check_groupoid
from .util import labelset, pair, unpair


class TwoGroupoid:
    def __init__(self, g0, g1, s, t, inv1, unit1, comp1,
                 g2, s2, t2, vinv, vunit, vcomp, hcomp, hinv):
        self.g0 = labelset(g0)
        self.g1 = labelset(g1)
        self.s, self.t = dict(s), dict(t)
        self.inv1, self.unit1, self.comp1 = dict(inv1), dict(unit1), dict(comp1)
        self.g2 = labelset(g2)
        self.s2, self.t2 = dict(s2), dict(t2)
        self.vinv, self.vunit, self.vcomp = dict(vinv), dict(vunit), dict(vcomp)
        self.hcomp = dict(hcomp)
        self.hinv = dict(hinv)
        # read with get: a document may leave a cell's ends undefined, which
        # check_2groupoid reports before it reads this flag
        s, t = self.s.get, self.t.get
        self.strict_bigons = all(
            s(self.s2.get(a)) == s(self.t2.get(a)) and
            t(self.s2.get(a)) == t(self.t2.get(a)) for a in self.g2)

    # level-1 and level-2 groupoid views ----------------------------------

    def level1(self):
        return Groupoid(self.g0, self.g1, self.s, self.t,
                        self.inv1, self.unit1, self.comp1)

    def level2v(self):
        return Groupoid(self.g1, self.g2, self.s2, self.t2,
                        self.vinv, self.vunit, self.vcomp)

    def hunit(self, x):
        return self.vunit[self.unit1[x]]

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
    and lists every failing witness in its own order.  The check costs
    about |hcomp| + |vcomp| d + |G2| d^2 lookups, for d the number of
    1-cells at an object.
    """
    violations = _check_cells(tg)
    if violations or (tg.strict_bigons and _whiskering_certifies(tg)):
        return violations
    return _sweep_laws(tg)


def _check_cells(tg):
    """Both groupoid levels, horizontal composites, units and inverses."""
    violations = list(check_groupoid(tg.g0, tg.g1, tg.s, tg.t,
                                     tg.inv1, tg.unit1, tg.comp1))
    if violations:
        return [Violation("Level1:" + v.code, v.witness, v.detail) for v in violations]
    violations = list(check_groupoid(tg.g1, tg.g2, tg.s2, tg.t2,
                                     tg.vinv, tg.vunit, tg.vcomp))
    if violations:
        return [Violation("Level2:" + v.code, v.witness, v.detail) for v in violations]

    by_hsource = {}
    for b in tg.g2:
        by_hsource.setdefault((tg.t[tg.s2[b]], tg.t[tg.t2[b]]), []).append(b)

    # horizontal composition: defined exactly when both s2- and t2-cells
    # are comp1-composable; functorial over s2/t2; unit cells; inverses
    want_count = 0
    for a in tg.g2:
        for b in by_hsource.get((tg.s[tg.s2[a]], tg.s[tg.t2[a]]), ()):
            want_count += 1
            if (a, b) not in tg.hcomp:
                violations.append(Violation("MissingHComposite", (a, b)))
                continue
            c = tg.hcomp[(a, b)]
            if (tg.s2[c] != tg.comp1[(tg.s2[a], tg.s2[b])] or
                    tg.t2[c] != tg.comp1[(tg.t2[a], tg.t2[b])]):
                violations.append(Violation("BadHComposite", (a, b, c)))
    if want_count != len(tg.hcomp):
        for (a, b) in tg.hcomp:
            if (tg.s[tg.s2[a]] != tg.t[tg.s2[b]] or
                    tg.s[tg.t2[a]] != tg.t[tg.t2[b]]):
                violations.append(Violation("SpuriousHComposite", (a, b)))
    if violations:
        return violations

    for a in tg.g2:
        x = tg.s[tg.s2[a]]
        y = tg.t[tg.s2[a]]
        if tg.s[tg.t2[a]] == x and tg.hcomp[(a, tg.hunit(x))] != a:
            violations.append(Violation("BadHUnit", (a, x), "right"))
        if tg.t[tg.t2[a]] == y and tg.hcomp[(tg.hunit(y), a)] != a:
            violations.append(Violation("BadHUnit", (a, y), "left"))
    for a in tg.g2:
        ah = tg.hinv.get(a)
        if ah is None:
            violations.append(Violation("MissingHInverse", (a,)))
            continue
        if (a, ah) not in tg.hcomp or (ah, a) not in tg.hcomp:
            violations.append(Violation("BadHInverse", (a, ah), "not composable"))
            continue
        # a *h a^-h and a^-h *h a run between identity 1-cells, and are the
        # identity 2-cell where those coincide (always, for strict bigons)
        for c in (tg.hcomp[(a, ah)], tg.hcomp[(ah, a)]):
            g, h = tg.s2[c], tg.t2[c]
            if not (tg.is_unit1(g) and tg.is_unit1(h)) or (g == h and c != tg.vunit[g]):
                violations.append(Violation("BadHInverse", (a, ah, c)))
    return violations


def _whiskering_certifies(tg):
    """(V), (D), (W1) and (W2) of check_2groupoid on tables that passed
    _check_cells and have strict bigons.  Neither a missing entry nor an
    hcomp key that is not a pair of cells (it has no whiskers in R, L)
    certifies anything."""
    hcomp, vcomp, vunit, comp1 = tg.hcomp, tg.vcomp, tg.vunit, tg.comp1
    s, t, s2, t2, cells = tg.s, tg.t, tg.s2, tg.t2, tg.g2
    try:
        ends_at, starts_at = {}, {}  # object -> [(1-cell, its identity 2-cell)]
        for g in tg.g1:
            ends_at.setdefault(t[g], []).append((g, vunit[g]))
            starts_at.setdefault(s[g], []).append((g, vunit[g]))
        # the whiskers: R[a][h] = R(a, h) and L[a][g] = L(g, a)
        R, L = {}, {}
        for a in cells:
            R[a] = {h: hcomp[(a, u)] for h, u in ends_at[s[s2[a]]]}
            L[a] = {g: hcomp[(u, a)] for g, u in starts_at[t[s2[a]]]}
        # (V)
        for (g, h), gh in comp1.items():
            if hcomp[(vunit[g], vunit[h])] != vunit[gh]:
                return False
        # (D)
        for (a, b), ab in hcomp.items():
            ra, lb = R[a], L[b]
            if (vcomp[(ra[t2[b]], lb[s2[a]])] != ab or
                    vcomp[(lb[t2[a]], ra[s2[b]])] != ab):
                return False
        # (W1)
        for (a, b), ab in vcomp.items():
            ra, rb, la, lb = R[a], R[b], L[a], L[b]
            for h, rab in R[ab].items():
                if rab != vcomp[(ra[h], rb[h])]:
                    return False
            for g, lab in L[ab].items():
                if lab != vcomp[(la[g], lb[g])]:
                    return False
        # (W2)
        for a in cells:
            ra, la = R[a], L[a]
            for h, rah in ra.items():
                for k, rahk in R[rah].items():
                    if rahk != ra[comp1[(h, k)]]:
                        return False
                for g, lga in la.items():
                    if R[lga][h] != L[rah][g]:
                        return False
            for g, lga in la.items():
                for f, lfga in L[lga].items():
                    if lfga != la[comp1[(f, g)]]:
                        return False
    except KeyError:
        return False
    return True


def _sweep_laws(tg):
    """h-associativity, interchange and h-multiplicative units, every
    composable instance checked directly."""
    violations = []
    hnext, hnext_by_t2 = {}, {}
    for (a, b) in tg.hcomp:
        hnext.setdefault(a, []).append(b)
        hnext_by_t2.setdefault((a, tg.t2[b]), []).append(b)

    # h-associativity on composable triples
    for (a, b), ab in tg.hcomp.items():
        for c in hnext.get(b, ()):
            if tg.hcomp[(ab, c)] != tg.hcomp[(a, tg.hcomp[(b, c)])]:
                violations.append(Violation("HNonAssociative", (a, b, c)))

    # interchange: (a1*h a2)*v(b1*h b2) = (a1*v b1)*h(a2*v b2), i.e. with
    # function-order vcomp: vcomp(a1 h a2, b1 h b2) = hcomp(vcomp(a1,b1), vcomp(a2,b2));
    # b2 ranges over the h-successors of b1 whose t2 is s2(a2)
    for (a1, b1), v1 in tg.vcomp.items():
        for a2 in hnext.get(a1, ()):
            for b2 in hnext_by_t2.get((b1, tg.s2[a2]), ()):
                if (a2, b2) not in tg.vcomp:  # a stray hcomp key, not a cell
                    continue
                lhs = tg.vcomp.get((tg.hcomp[(a1, a2)], tg.hcomp[(b1, b2)]))
                rhs = tg.hcomp.get((v1, tg.vcomp[(a2, b2)]))
                if lhs is None or rhs is None or lhs != rhs:
                    violations.append(
                        Violation("InterchangeFailure", (a1, a2, b1, b2)))
    # strict units at both levels interact: 1_g *h 1_h = 1_{gh}
    for g, h in tg.level1().composable_pairs():
        if tg.hcomp[(tg.vunit[g], tg.vunit[h])] != tg.vunit[tg.comp1[(g, h)]]:
            violations.append(Violation("BadHUnit", (g, h), "vunit not h-multiplicative"))
    return violations


def validate_2groupoid(tg):
    return require(tg, check_2groupoid(tg))


def make_2groupoid(g0, g1, s, t, inv1, unit1, comp1, g2, s2, t2,
                   vinv, vunit, vcomp, hcomp, hinv=None):
    """Assemble and validate; derive horizontal inverses when absent via
    a^-h = vinv(1_{g^-1} *h a *h 1_{h^-1})."""
    tg = TwoGroupoid(g0, g1, s, t, inv1, unit1, comp1, g2, s2, t2,
                     vinv, vunit, vcomp, hcomp, {})
    derived = {}
    for a in tg.g2:
        g, h = tg.s2[a], tg.t2[a]
        u = tg.hcomp.get((tg.vunit[tg.inv1[g]], a))
        if u is None:
            continue
        w = tg.hcomp.get((u, tg.vunit[tg.inv1[h]]))
        if w is None:
            continue
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
    """g with all-identity 2-cells."""
    g2 = {gg: pair("1", gg) for gg in g.arrows}
    s2 = {g2[gg]: gg for gg in g.arrows}
    vcomp = {(g2[gg], g2[gg]): g2[gg] for gg in g.arrows}
    hcomp = {(g2[a], g2[b]): g2[g.comp[(a, b)]] for a, b in g.composable_pairs()}
    return make_2groupoid(
        g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp,
        list(g2.values()), s2, dict(s2),
        {g2[gg]: g2[gg] for gg in g.arrows},
        dict(g2), vcomp, hcomp)


def cover_2groupoid(g, cover):
    """Cover 2-groupoid of an indexed open cover {i: subset of objects}.

    1-cells (i,g,j) with t(g) in U_i, s(g) in U_j; 2-cells are doubly indexed
    copies (i1,i2,g,g,j1,j2) of a single arrow.
    """
    covered = set().union(*cover.values())
    missing = tuple(x for x in g.objects if x not in covered)
    if missing:
        raise ValidationFailure([Violation("NotACover", missing)])
    idx = sorted(cover)
    objects, unit_obj = [], {}
    for i in idx:
        for x in sorted(cover[i]):
            objects.append(pair(str(i), x))
    g1, s, t, inv1 = [], {}, {}, {}
    for i in idx:
        for j in idx:
            for gg in g.arrows:
                if g.tgt[gg] in cover[i] and g.src[gg] in cover[j]:
                    a = pair(str(i), gg, str(j))
                    g1.append(a)
                    s[a] = pair(str(j), g.src[gg])
                    t[a] = pair(str(i), g.tgt[gg])
                    inv1[a] = pair(str(j), g.inv[gg], str(i))
    unit1 = {pair(str(i), x): pair(str(i), g.unit[x], str(i))
             for i in idx for x in sorted(cover[i])}
    comp1 = {}
    for a in g1:
        i, ga, j = unpair(a)
        for b in g1:
            j2, gb, k = unpair(b)
            if j == j2 and g.src[ga] == g.tgt[gb]:
                comp1[(a, b)] = pair(i, g.comp[(ga, gb)], k)

    cell = lambda i1, i2, gg, j1, j2: pair(i1, i2, gg, gg, j1, j2)
    g2, s2, t2, vinv = [], {}, {}, {}
    for gg in g.arrows:
        iis = [str(i) for i in idx if g.tgt[gg] in cover[i]]
        jjs = [str(j) for j in idx if g.src[gg] in cover[j]]
        for i1 in iis:
            for i2 in iis:
                for j1 in jjs:
                    for j2 in jjs:
                        a = cell(i1, i2, gg, j1, j2)
                        g2.append(a)
                        s2[a] = pair(i1, gg, j1)
                        t2[a] = pair(i2, gg, j2)
                        vinv[a] = cell(i2, i1, gg, j2, j1)
    vunit = {pair(i, gg, j): cell(i, i, gg, j, j)
             for (i, gg, j) in map(unpair, g1)}
    parts = {a: unpair(a) for a in g2}
    by_t2 = {}
    by_hslot = {}
    for b in g2:
        k1, k2, gb, _, l1, l2 = parts[b]
        by_t2.setdefault((gb, k2, l2), []).append(b)
        by_hslot.setdefault((gb_t := g.tgt[gb], k1, k2), []).append(b)
    vcomp = {}
    for a in g2:
        i1, i2, ga, _, j1, j2 = parts[a]
        # function order: vcomp(a, b) needs s2(a) = t2(b)
        for b in by_t2.get((ga, i1, j1), ()):
            k1, _, _, _, l1, _ = parts[b]
            vcomp[(a, b)] = cell(k1, i2, ga, l1, j2)
    hcomp = {}
    for a in g2:
        i1, i2, ga, _, j1, j2 = parts[a]
        for b in by_hslot.get((g.src[ga], j1, j2), ()):
            _, _, gb, _, l1, l2 = parts[b]
            hcomp[(a, b)] = cell(i1, i2, g.comp[(ga, gb)], l1, l2)
    hinv = {}
    for a in g2:
        i1, i2, ga, _, j1, j2 = unpair(a)
        hinv[a] = cell(j1, j2, g.inv[ga], i1, i2)
    return make_2groupoid(objects, g1, s, t, inv1, unit1, comp1,
                          g2, s2, t2, vinv, vunit, vcomp, hcomp, hinv)


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
    for g, h in d.level1().composable_pairs():
        if f.m1[d.comp1[(g, h)]] != c.comp1[(f.m1[g], f.m1[h])]:
            violations.append(Violation("NotFunctorial", (g, h), "comp1"))
    for g in d.g1:
        if f.m2[d.vunit[g]] != c.vunit[f.m1[g]]:
            violations.append(Violation("NotFunctorial", (g,), "vunit"))
    for (a, b), ab in d.vcomp.items():
        if c.vcomp.get((f.m2[a], f.m2[b])) != f.m2[ab]:
            violations.append(Violation("NotFunctorial", (a, b), "vcomp"))
    for (a, b), ab in d.hcomp.items():
        if c.hcomp.get((f.m2[a], f.m2[b])) != f.m2[ab]:
            violations.append(Violation("NotFunctorial", (a, b), "hcomp"))
    return violations


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
    m0 = {x: unpair(x)[1] for x in dom.g0}
    m1 = {a: unpair(a)[1] for a in dom.g1}
    m2 = {}
    for a in dom.g2:
        _, _, ga, ha, _, _ = unpair(a)
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
    for gg, hh in d.level1().composable_pairs():
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
    report = {}

    cod_by_tgt = {}
    for n in c.g1:
        cod_by_tgt.setdefault(c.t[n], []).append(n)
    hit = {c.s[n] for x in d.g0 for n in cod_by_tgt.get(f.m0[x], ())}
    report["WE1"] = hit == c.g0

    obj_pre = {}
    for x in d.g0:
        obj_pre.setdefault(f.m0[x], []).append(x)
    want = set()
    for gamma in c.g1:
        for x in obj_pre.get(c.t[gamma], ()):
            for y in obj_pre.get(c.s[gamma], ()):
                want.add((x, gamma, y))
    got = set()
    cells_by_t2 = {}
    for b in c.g2:
        cells_by_t2.setdefault(c.t2[b], []).append(b)
    for g in d.g1:
        for b in cells_by_t2.get(f.m1[g], ()):
            got.add((d.t[g], c.s2[b], d.s[g]))
    report["WE2"] = want <= got

    # WE3: a -> (s2(a), t2(a), f(a)) bijects onto the fibered product taken
    # over bigon-compatible 1-cell pairs: parallel pairs, plus pairs already
    # witnessed by a domain 2-cell (the cover 2-groupoid's loose bigons).
    connected = {(d.s2[a], d.t2[a]) for a in d.g2}
    arr_pre = {}
    for g in d.g1:
        arr_pre.setdefault(f.m1[g], []).append(g)
    fib = set()
    for b in c.g2:
        for u in arr_pre.get(c.s2[b], ()):
            for v in arr_pre.get(c.t2[b], ()):
                parallel = d.s[u] == d.s[v] and d.t[u] == d.t[v]
                if parallel or (u, v) in connected:
                    fib.add((u, v, b))
    image = {}
    ok = True
    for a in d.g2:
        key = (d.s2[a], d.t2[a], f.m2[a])
        if key in image:
            ok = False
        image[key] = a
    report["WE3"] = ok and set(image) == fib
    return report
