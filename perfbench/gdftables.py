"""A reader for GDF text and property checks written apart from the library.

The benchmark checks the library's outputs against properties computed here
from the raw GDF tables, so a fault shared by the library's parser, builders
and validators cannot hide itself.  Nothing in this module imports
`xmodforge`.
"""


def read_blocks(text):
    """{name: (kind, {key: [tokens]})} in document order."""
    blocks = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            kind, name = line[:-1].split()
            current = (kind, {})
            blocks[name] = current
        elif line == "}":
            current = None
        else:
            key, rest = line.split(":", 1)
            current[1].setdefault(key.strip(), []).extend(rest.split())
    return blocks


def as_map(tokens):
    return dict(tok.rsplit("=", 1) for tok in tokens)


def as_table(tokens):
    out = {}
    for tok in tokens:
        lhs, value = tok.rsplit("=", 1)
        left, right = lhs.split(".", 1)
        out[(left, right)] = value
    return out


class Tables:
    """The plain tables of one groupoid or bundle block."""

    def __init__(self, entries):
        self.objects = list(entries["objects"])
        self.arrows = list(entries["arrows"])
        self.src = as_map(entries.get("src", entries.get("base", [])))
        self.tgt = as_map(entries["tgt"]) if "tgt" in entries else dict(self.src)
        self.inv = as_map(entries["inv"])
        self.unit = as_map(entries["unit"])
        self.comp = as_table(entries["comp"])

    def fiber(self, x):
        return [h for h in self.arrows if self.src.get(h) == x]


def groupoid_axiom_failures(g):
    """Names of the groupoid axioms the tables break (empty when none)."""
    bad = []
    arrows, objects = set(g.arrows), set(g.objects)
    if any(g.src.get(a) not in objects or g.tgt.get(a) not in objects
           for a in arrows):
        return ["endpoints"]
    if any(g.src.get(g.unit.get(x)) != x or g.tgt.get(g.unit.get(x)) != x
           for x in objects):
        return ["units"]
    composable = {(a, b) for a in arrows for b in arrows if g.src[a] == g.tgt[b]}
    if set(g.comp) != composable:
        return ["composition domain"]
    if any(g.comp[(a, b)] not in arrows or g.src[g.comp[(a, b)]] != g.src[b]
           or g.tgt[g.comp[(a, b)]] != g.tgt[a] for (a, b) in composable):
        bad.append("composite endpoints")
    if any(g.comp[(a, g.unit[g.src[a]])] != a or g.comp[(g.unit[g.tgt[a]], a)] != a
           for a in arrows):
        bad.append("unit laws")
    if any(g.inv.get(a) not in arrows or (a, g.inv[a]) not in g.comp
           or g.comp[(a, g.inv[a])] != g.unit[g.tgt[a]]
           or g.comp[(g.inv[a], a)] != g.unit[g.src[a]] for a in arrows):
        bad.append("inverses")
    if bad:
        return bad
    for (a, b) in composable:
        ab = g.comp[(a, b)]
        for c in arrows:
            if g.src[b] == g.tgt[c] and g.comp[(ab, c)] != g.comp[(a, g.comp[(b, c)])]:
                return ["associativity"]
    return []


def is_bijection(mapping, domain, codomain):
    """Whether `mapping` restricted to `domain` is a bijection onto `codomain`."""
    domain, codomain = set(domain), set(codomain)
    if set(mapping) != domain or len(domain) != len(codomain):
        return False
    return set(mapping.values()) == codomain


class XModTables:
    """A crossed module's base groupoid, bundle and boundary, from its blocks."""

    def __init__(self, blocks, name):
        entries = blocks[name][1]
        self.g = Tables(blocks[entries["groupoid"][0]][1])
        self.h = Tables(blocks[entries["bundle"][0]][1])
        self.boundary = as_map(entries["boundary"])


def vertical_cells(xm):
    """|G2| of the vertical 2-groupoid: one cell (h, g) per h over t(g)."""
    sizes = {x: len(xm.h.fiber(x)) for x in xm.g.objects}
    return sum(sizes[xm.g.tgt[g]] for g in xm.g.arrows)


class CrossingTables:
    """A crossing's middle groupoid, legs and moments, from its blocks."""

    def __init__(self, blocks, name):
        entries = blocks[name][1]
        self.src = XModTables(blocks, entries["source"][0])
        self.dst = XModTables(blocks, entries["target"][0])
        self.m = Tables(blocks[entries["groupoid"][0]][1])
        self.tau = as_map(entries["tau"])
        self.sigma = as_map(entries["sigma"])
        self.a1 = as_table(entries["a1"])
        self.a2 = as_map(entries["a2"])
        self.b1 = as_table(entries["b1"])
        self.b2 = as_map(entries["b2"])
        self.is_extension = entries.get("extension", ["no"]) == ["yes"]


def decomposition_cells(c):
    """|G2| of the vertical 2-groupoid of the decomposition G' = H1[M0] x
    H2[M0] -> M, which is the sum over arrows m of |H1 at tau t(m)| times
    |H2 at sigma t(m)|."""
    h1 = {u: len(c.src.h.fiber(c.tau[u])) for u in c.m.objects}
    h2 = {u: len(c.dst.h.fiber(c.sigma[u])) for u in c.m.objects}
    return sum(h1[c.m.tgt[m]] * h2[c.m.tgt[m]] for m in c.m.arrows)


def _orbits(items, moves):
    """Connected classes of `items` under the symmetric closure of `moves`."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in moves:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in items}


def leg_equivalence_failures(c, side):
    """Why the decomposition leg onto one side of the crossing is not a weak
    equivalence of vertical 2-groupoids (empty when it is one).

    The decomposition is G' = (H1[M0] x H2[M0] -> M) with boundary
    (u, h1, h2) -> a1(u, h1) b1(u, h2).  The leg onto the source side maps
    u -> tau(u), m -> a2(m), (u, h1, h2) -> h1; the target side uses sigma,
    b2 and h2.  It is a weak equivalence when every object of the side's
    base is joined by an arrow to an image object, and for every pair of
    objects (u, v) of M the map on hom-groupoids M(v, u) -> G(mo v, mo u) is
    a bijection on connected components with equal isotropy orders."""
    xm, moment, leg, sel = ((c.src, c.tau, c.a2, 1) if side == "left"
                            else (c.dst, c.sigma, c.b2, 2))
    g, m = xm.g, c.m
    failures = []
    images = {moment[u] for u in m.objects}
    for y in g.objects:
        if not any(g.src[a] == y and g.tgt[a] in images for a in g.arrows):
            failures.append(("not essentially surjective", y))
    boundary_m = {}
    for u in m.objects:
        loops = []
        for h1 in c.src.h.fiber(c.tau[u]):
            for h2 in c.dst.h.fiber(c.sigma[u]):
                loops.append(((h1, h2)[sel - 1],
                              m.comp[(c.a1[(u, h1)], c.b1[(u, h2)])]))
        boundary_m[u] = loops
    for u in m.objects:
        kernel_m = sum(1 for _, a in boundary_m[u] if a == m.unit[u])
        x = moment[u]
        kernel_g = sum(1 for h in xm.h.fiber(x) if xm.boundary[h] == g.unit[x])
        if kernel_m != kernel_g:
            failures.append(("isotropy order", u, kernel_m, kernel_g))
        for v in m.objects:
            hom_m = [a for a in m.arrows if m.tgt[a] == u and m.src[a] == v]
            hom_g = [a for a in g.arrows
                     if g.tgt[a] == x and g.src[a] == moment[v]]
            cls_m = _orbits(hom_m, [(a, m.comp[(d, a)])
                                    for a in hom_m for _, d in boundary_m[u]])
            cls_g = _orbits(hom_g, [(a, g.comp[(xm.boundary[h], a)])
                                    for a in hom_g for h in xm.h.fiber(x)])
            induced = {}
            for a in hom_m:
                induced.setdefault(cls_m[a], set()).add(cls_g[leg[a]])
            if any(len(targets) != 1 for targets in induced.values()):
                failures.append(("not well defined on components", u, v))
                continue
            hit = [next(iter(t)) for t in induced.values()]
            if len(hit) != len(set(hit)) or set(hit) != set(cls_g.values()):
                failures.append(("not a bijection on components", u, v))
    return failures


def diamond_size(c):
    """|M <> Mbar|: pairs (m, n) of parallel arrows with b2(m) = b2(n),
    divided by the free H2 action h.(m, n) = (b1(h) m, b1(h) n)."""
    total = 0
    for a in c.m.arrows:
        fiber = len(c.dst.h.fiber(c.sigma[c.m.tgt[a]]))
        for b in c.m.arrows:
            if (c.m.src[a], c.m.tgt[a], c.b2[a]) == (c.m.src[b], c.m.tgt[b], c.b2[b]):
                total += 1 / fiber
    return round(total)
