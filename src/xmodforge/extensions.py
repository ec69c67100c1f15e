"""Group extension enumeration by normalized 2-cocycles, and the desk-scale
Morita classification of groupoid A-extensions."""

import itertools

from .errors import CoherenceFailure, SizeLimitExceeded
from .fingrpd import (as_group_bundle, cyclic_groupoid, groupoid_of_parts,
                      validate_groupoid_morphism)
from .util import pair, search_bijection
from . import xmod as xm

DEFAULT_ENUM_CAP = 64

GROUPS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6,
}


def normalized_cocycles(gname, aname):
    """All normalized 2-cocycles f: G x G -> A for cyclic G = Z/n, A = Z/m
    with trivial action, as dicts on all pairs (identity entries are zero),
    ordered by their values on the non-identity pairs (g, h), g major.

    They are solved for rather than searched.  H^2(Z/n, A) is A/nA,
    represented by f_k(g, h) = k [g + h >= n] for k in A (the carry of
    adding representatives; Brown, Cohomology of Groups, 1982, III.1 and
    IV.3).  So every cocycle is f_k + dc with (dc)(g, h) = c(g) + c(h) -
    c(g + h) for some c: G -> A, and it is normalized iff c(0) = (dc)(0, 0)
    = 0.  The m^n candidates (k, c) give every normalized cocycle, some
    more than once; each is kept once and checked again by _is_cocycle."""
    gn, an = GROUPS[gname], GROUPS[aname]
    nonident = range(1, gn)
    found = set()
    for k in range(an):
        for c in itertools.product(range(an), repeat=gn - 1):
            c = (0,) + c
            found.add(tuple((k * (g + h >= gn) + c[g] + c[h] - c[(g + h) % gn]) % an
                            for g in nonident for h in nonident))
    cocycles = []
    for values in sorted(found):
        f = {}
        for g in range(gn):
            f[(0, g)] = 0
            f[(g, 0)] = 0
        f.update(zip(((g, h) for g in nonident for h in nonident), values))
        if not _is_cocycle(f, gn, an):
            raise CoherenceFailure(("not a normalized cocycle", gname, aname, values))
        cocycles.append(f)
    return cocycles


def _is_cocycle(f, gn, an):
    # trivial action: f(h,k) + f(g, h+k) == f(g,h) + f(g+h, k)
    for g in range(gn):
        for h in range(gn):
            for k in range(gn):
                lhs = (f[(h, k)] + f[(g, (h + k) % gn)]) % an
                rhs = (f[(g, h)] + f[((g + h) % gn, k)]) % an
                if lhs != rhs:
                    return False
    return True


def cocycle_extension(gname, aname, f_or_value, cap=DEFAULT_ENUM_CAP):
    """The extension A >-> E ->> G built from a normalized 2-cocycle.

    E = A x G with (a,g)(b,h) = (a + b + f(g,h), g+h). f_or_value may be a
    full cocycle dict or, for |G|=2, the single value f(1,1)."""
    gn, an = GROUPS[gname], GROUPS[aname]
    if gn * an > cap:
        raise SizeLimitExceeded("|G|*|A|", gn * an, cap)
    if isinstance(f_or_value, dict):
        f = f_or_value
    else:
        if gn != 2:
            raise ValueError(f"a single cocycle value needs |G| = 2, not {gn}")
        f = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): int(f_or_value)}
    g = cyclic_groupoid(gn, prefix="g")
    a = cyclic_groupoid(an, prefix="a")

    def lab(ai, gi):
        return pair(f"a{ai}", f"g{gi}")

    def inverse(r):
        ai, gi = r
        return lab((-ai - f[(gi, (-gi) % gn)]) % an, (-gi) % gn)

    def compose(r, r2):
        (ai, gi), (bi, hi) = r, r2
        return lab((ai + bi + f[(gi, hi)]) % an, (gi + hi) % gn)

    parts = {lab(ai, gi): (ai, gi) for ai in range(an) for gi in range(gn)}
    e = groupoid_of_parts(["*"], parts, lambda r: "*", lambda r: "*", inverse,
                          lambda x: lab(0, 0), compose)
    iota = {f"a{ai}": lab(ai, 0) for ai in range(an)}
    pi = {a: f"g{gi}" for a, (_, gi) in parts.items()}
    return xm.validate_extension(as_group_bundle(a), e, g, iota, pi)


def extension_equivalent(e1, e2, node_cap=10**6):
    """Search for a groupoid iso phi: E1 -> E2 with pi2 . phi = pi1 and
    phi . iota1 = iota2; the graph Z_phi is the witness Morita bibundle of
    extensions at desk scale."""
    if len(e1.e.arrows) != len(e2.e.arrows):
        return None
    forced = {e1.iota[a]: e2.iota[a] for a in e1.a.arrows}

    def candidates(x):
        if x in forced:
            return [forced[x]]
        return [y for y in e2.e.arrows if e2.pi[y] == e1.pi[x]]

    def consistent(partial, x, y):
        for x2, y2 in partial.items():
            if e1.e.composable(x, x2):
                img = partial.get(e1.e.comp[(x, x2)])
                if img is not None and e2.e.comp[(y, y2)] != img:
                    return False
            if e1.e.composable(x2, x):
                img = partial.get(e1.e.comp[(x2, x)])
                if img is not None and e2.e.comp[(y2, y)] != img:
                    return False
        return True

    amap = search_bijection(e1.e.arrows, e2.e.arrows, candidates,
                            consistent, node_cap=node_cap)
    if amap is None:
        return None
    phi = validate_groupoid_morphism(e1.e, e2.e, {"*": "*"}, amap)
    for x in e1.e.arrows:  # defensive: re-check both compatibilities
        if e2.pi[amap[x]] != e1.pi[x]:
            raise CoherenceFailure(("extension iso does not commute with pi", x))
    return phi


def enumerate_extensions(gname, aname, cap=DEFAULT_ENUM_CAP):
    """All extensions of the named cyclic group by the named cyclic module
    (trivial action), classified into Morita classes.

    Returns (classes, extensions): classes is a list of lists of cocycle
    indices, extensions the corresponding GroupoidExtension objects."""
    gn, an = GROUPS[gname], GROUPS[aname]
    if gn * an > cap:
        raise SizeLimitExceeded("|G|*|A|", gn * an, cap)
    cocycles = normalized_cocycles(gname, aname)
    exts = [cocycle_extension(gname, aname, f, cap=cap) for f in cocycles]
    classes = []
    for i, ext in enumerate(exts):
        placed = False
        for cl in classes:
            if extension_equivalent(exts[cl[0]], ext) is not None:
                cl.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    return classes, exts
