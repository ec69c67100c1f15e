"""Reference implementations of the orbit-space constructions, for tests:
each builds its quotient with a union-find over the member labels
themselves and reads the class representatives back by parsing them, so
they hold only for labels without ','."""

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge.errors import (EmptyFiberedProduct, NotComposable, ValidationFailure,
                              Violation)
from xmodforge.fingrpd import inertia, validate_groupoid
from xmodforge.util import cls_label, pair, strip_class, unpair


class UnionFind:
    """Union-find over label strings; class representative is the
    lexicographically least member, so quotient output is bit-stable."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        by_root = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return {min(members): sorted(members) for members in by_root.values()}

    def class_map(self):
        """item -> representative (lexicographic least of its class)."""
        out = {}
        for rep, members in self.classes().items():
            for m in members:
                out[m] = rep
        return out


def diamond_core(cm, cn):
    """crossing._diamond_core, scanning all of N for every (m, h2) and
    composing every class with every class."""
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
    out = cr.validate_crossing(cm.src, cn.dst, dm, dict(cm.tau), dict(cn.sigma),
                               a1, a2, b1, b2, cm.is_extension and cn.is_extension)
    out.pair_class = {p: cls_label(r) for p, r in cmap.items()}
    return out


def crossed_semidirect(c, side="H1"):
    """crossing.crossed_semidirect, composing every class with every class."""
    m = c.m
    s, o = c.sides()
    if side != "H1":
        s, o = o, s
    bund, mom, leg2_self, act_mod = s.xm.h, s.mom, s.leg2, s.xm
    other_bund, other_mom, other_leg = o.xm.h, o.mom, o.leg1

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


def quotient_middle(p, mn, s, t):
    """exchanger._quotient_middle, re-pairing every representative."""
    m, n = p.left, p.right
    uf = UnionFind(mn.arrows)
    for q in mn.arrows:
        mm, p1, p2, nn = unpair(q)
        u2, v1 = p.lmom[p2], p.rmom[p1]
        for h2 in s.xm.h.fiber(s.mom[u2]):
            m2 = m.comp[(mm, s.leg1[(u2, h2)])]
            for h4 in t.xm.h.fiber(t.mom[v1]):
                n2 = n.comp[(t.leg1[(v1, h4)], nn)]
                q2 = pair(m2, p1, p2, n2)
                if q2 in mn.arrows:
                    uf.union(q2, q)
    cmap = uf.class_map()
    class_of = {q: cls_label(r) for q, r in cmap.items()}
    arrows = sorted(set(class_of.values()))
    reps = {cls_label(r): unpair(r) for r in set(cmap.values())}
    src = {c: mn.src[pair(*reps[c])] for c in arrows}
    tgt = {c: mn.tgt[pair(*reps[c])] for c in arrows}
    inv = {c: class_of[mn.inv[pair(*reps[c])]] for c in arrows}
    unit = {pz: class_of[mn.unit[pz]] for pz in mn.objects}
    comp = {}
    by_tgt = {}
    for c in arrows:
        by_tgt.setdefault(tgt[c], []).append(c)
    for c in arrows:
        qc = pair(*reps[c])
        for c2 in by_tgt.get(src[c], ()):
            q2 = pair(*reps[c2])
            comp[(c, c2)] = class_of[mn.comp[(qc, q2)]]
    return validate_groupoid(mn.objects, arrows, src, tgt, inv, unit, comp), class_of


def horizontal_diamond(ex1, ex2):
    """exchanger.horizontal_diamond with a second union-find for the
    action-closed components, linking every carrier pair through every
    (h2, h5) of the fibre product."""
    a1c, b1c = ex1.source, ex2.source
    a2c, b2c = ex1.target, ex2.target
    for (u, v) in ((a1c, b1c), (a2c, b2c)):
        if not (u.same_base() and v.same_base() and
                u.m.objects == v.m.objects):
            raise NotComposable("horizontal_diamond needs same-base columns; "
                                "pullback-normalize the inputs first")
    src_d = cr.diamond(a1c, b1c)
    dst_d = cr.diamond(a2c, b2c)
    p1, p2 = ex1.p, ex2.p
    carrier = [pair(x, y) for x in p1.space for y in p2.space
               if p1.lmom[x] == p2.lmom[y] and p1.rmom[x] == p2.rmom[y]]
    if not carrier:
        raise NotComposable("EmptyDiamond: no compatible carrier pairs")
    uf = UnionFind(carrier)
    for z in carrier:
        x, y = unpair(z)
        u = p1.lmom[x]
        v = p1.rmom[x]
        for h2 in a1c.dst.h.fiber(a1c.sigma[u]):
            x1 = p1.lact[(a1c.b1[(u, h2)], x)]
            y1 = p2.lact[(b1c.a1[(u, h2)], y)]
            for h5 in a2c.dst.h.fiber(a2c.sigma[v]):
                x2 = p1.ract[(x1, p1.right.inv[a2c.b1[(v, h5)]])]
                y2 = p2.ract[(y1, p2.right.inv[b2c.a1[(v, h5)]])]
                uf.union(pair(x2, y2), z)
    cmap = uf.class_map()
    space_all = sorted({cls_label(r) for r in cmap.values()})
    reps = {cls_label(r): unpair(r) for r in set(cmap.values())}
    lmom = {c: p1.lmom[reps[c][0]] for c in space_all}
    rmom = {c: p1.rmom[reps[c][0]] for c in space_all}
    lact, ract = {}, {}
    comp_uf = UnionFind(space_all)
    for c in space_all:
        x, y = reps[c]
        for mm in src_d.m.arrows_from(lmom[c]):
            m1, m2 = unpair(strip_class(mm))
            lact[(mm, c)] = cls_label(cmap[pair(p1.lact[(m1, x)],
                                                p2.lact[(m2, y)])])
            comp_uf.union(c, lact[(mm, c)])
        for nn in dst_d.m.arrows_to(rmom[c]):
            n1, n2 = unpair(strip_class(nn))
            ract[(c, nn)] = cls_label(cmap[pair(p1.ract[(x, n1)],
                                                p2.ract[(y, n2)])])
            comp_uf.union(c, ract[(c, nn)])
    failures = []
    for rep_lbl, members in sorted(comp_uf.classes().items()):
        comp_set = set(members)
        sub_lact = {k: v for k, v in lact.items() if k[1] in comp_set}
        sub_ract = {k: v for k, v in ract.items() if k[0] in comp_set}
        try:
            p = bb.validate_bibundle(src_d.m, dst_d.m, sorted(comp_set),
                                     {c: lmom[c] for c in comp_set},
                                     {c: rmom[c] for c in comp_set},
                                     sub_lact, sub_ract)
        except ValidationFailure as e:
            failures.extend(e.violations)
            continue
        p.parts = {c: reps[c] for c in comp_set}
        p.pair_class = {z: cls_label(r) for z, r in cmap.items()
                        if cls_label(r) in comp_set}
        out = exm.SemiExchanger(src_d, dst_d, p)
        violations = exm.check_semi_exchanger(out)
        if violations:
            failures.extend(violations)
            continue
        return out
    raise ValidationFailure(failures or
                            [Violation("EmptyDiamond", None)])


def orbits(g):
    """The orbits of g's objects by union-find, by least member."""
    uf = UnionFind(g.objects)
    for a in g.arrows:
        uf.union(g.src[a], g.tgt[a])
    return [members for _, members in sorted(uf.classes().items())]


def morita_witness(g, h):
    """bibundle.morita_witness with one union-find per matched orbit."""
    gorbs = orbits(g)
    horbs = orbits(h)
    if len(gorbs) != len(horbs):
        return None
    gb, _ = inertia(g)
    hb, _ = inertia(h)

    matched = bb._match_orbits(g, h, gorbs, horbs, gb, hb, 10 ** 6)
    if matched is None:
        return None
    space, lmom, rmom, lact, ract = [], {}, {}, {}, {}
    for (x, y, theta) in matched:
        members = [pair(gg, hh) for gg in g.arrows_from(x) for hh in h.arrows_to(y)]
        uf = UnionFind(members)
        for gg in g.arrows_from(x):
            for hh in h.arrows_to(y):
                for s in gb.fiber(x):
                    uf.union(pair(g.comp[(gg, s)], hh),
                             pair(gg, h.comp[(theta[s], hh)]))
        cmap = uf.class_map()
        reps = {}
        for rep in set(cmap.values()):
            lab = cls_label(rep)
            reps[lab] = unpair(rep)
            space.append(lab)
            gg, hh = reps[lab]
            lmom[lab] = g.tgt[gg]
            rmom[lab] = h.src[hh]
        for lab, (gg, hh) in reps.items():
            for m in g.arrows_from(g.tgt[gg]):
                lact[(m, lab)] = cls_label(cmap[pair(g.comp[(m, gg)], hh)])
            for nn in h.arrows_to(h.src[hh]):
                ract[(lab, nn)] = cls_label(cmap[pair(gg, h.comp[(hh, nn)])])
    try:
        zb = bb.validate_bibundle(g, h, space, lmom, rmom, lact, ract)
    except ValidationFailure:
        return None
    ok, _ = bb.is_morita(zb)
    return zb if ok else None
