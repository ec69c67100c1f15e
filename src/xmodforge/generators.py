"""Seeded random generators of small structures for the property suites.

Every connected finite groupoid is a pair groupoid tensored with an isotropy
group, so the groupoid generator glues such blocks; downstream generators
only apply constructions proved to preserve validity, then revalidate.
"""

import itertools

from .errors import ValidationFailure
from .fingrpd import (cyclic_groupoid, group_as_groupoid, groupoid_of_parts,
                      transport_action, trivial_action, trivial_bundle,
                      validate_groupoid)
from .util import pair


def s3_groupoid(prefix="s"):
    elems = ["".join(map(str, p)) for p in itertools.permutations(range(3))]

    def mul(p, q):
        return "".join(p[int(q[i])] for i in range(3))

    def inverse(p):
        out = [""] * 3
        for i, v in enumerate(p):
            out[int(v)] = str(i)
        return "".join(out)

    return group_as_groupoid(elems, mul, inverse, "012", prefix=prefix)


def random_group(rng, max_order=4, prefix="g"):
    """A cyclic group of order 1-4 and at most max_order, drawn uniformly."""
    return cyclic_groupoid(rng.choice(range(1, min(max_order, 4) + 1)), prefix=prefix)


def transitive_block(objects, group, tag):
    """Pair groupoid on `objects` with isotropy `group` at every point."""
    objects = sorted(objects)
    return groupoid_of_parts(
        objects, {pair(tag, y, gamma, x): (y, gamma, x) for y in objects
                  for x in objects for gamma in group.arrows},
        lambda r: r[2], lambda r: r[0], lambda r: pair(tag, r[2], group.inv[r[1]], r[0]),
        lambda x: pair(tag, x, group.unit["*"], x),
        lambda r, r2: pair(tag, r[0], group.comp[(r[1], r2[1])], r2[2]))


def random_groupoid(rng, max_objects=4, max_order=3, max_components=2):
    """Disjoint union of pair-times-group blocks."""
    n_obj = rng.randint(1, max_objects)
    n_comp = rng.randint(1, min(max_components, n_obj))
    cuts = sorted(rng.sample(range(1, n_obj), n_comp - 1)) if n_comp > 1 else []
    sizes, prev = [], 0
    for c in cuts + [n_obj]:
        sizes.append(c - prev)
        prev = c
    blocks = []
    for bi, size in enumerate(sizes):
        objs = [f"x{bi}{k}" for k in range(size)]
        blocks.append(transitive_block(objs, random_group(rng, max_order, f"b{bi}g"),
                                       f"B{bi}"))
    g = blocks[0]
    for extra in blocks[1:]:
        g = _merge(g, extra)
    return g


def _merge(g1, g2):
    """Disjoint union without relabeling (object/arrow labels already disjoint)."""
    return validate_groupoid(
        g1.objects | g2.objects, g1.arrows | g2.arrows,
        {**g1.src, **g2.src}, {**g1.tgt, **g2.tgt}, {**g1.inv, **g2.inv},
        {**g1.unit, **g2.unit}, {**g1.comp, **g2.comp})


def random_cover(rng, g, max_parts=3):
    objs = list(g.objects)
    parts = {}
    n = rng.randint(1, max_parts)
    for i in range(n):
        k = rng.randint(1, len(objs))
        parts[str(i)] = sorted(rng.sample(objs, k))
    covered = set().union(*[set(v) for v in parts.values()])
    leftovers = [x for x in objs if x not in covered]
    if leftovers:
        parts[str(n)] = leftovers
    return parts


def random_surjection(rng, target_objects, max_fiber=2, prefix="z"):
    """(space, mapping) with mapping onto target_objects."""
    space, mapping = [], {}
    for x in sorted(target_objects):
        for k in range(rng.randint(1, max_fiber)):
            z = pair(prefix + str(k), x)
            space.append(z)
            mapping[z] = x
    return space, mapping


def random_abelian_module(rng, g):
    """A g-module: constant abelian bundle with a transport action twisted by
    a (possibly trivial) automorphism along each block's isotropy."""
    from .xmod import module_xmod
    n = rng.choice([2, 3])
    bundle = trivial_bundle(g.objects, cyclic_groupoid(n, prefix="a"))
    invert = rng.random() < 0.5 and n > 2

    def carry(arrow, h):
        x = g.src[arrow]
        _, a = bundle.parts[h]
        if invert and not g.is_unit(arrow):
            k = int(a[1:])
            a = "a" + str((-k) % n)
        return pair(x, a)

    try:
        action = transport_action(g, bundle, carry)
    except ValidationFailure:
        action = trivial_action(g, bundle)
    return module_xmod(g, bundle, action)


def vertical_size(xm):
    """Arrow count of the semidirect middle H x| G."""
    return sum(len(xm.h.fiber(xm.g.tgt[gg])) for gg in xm.g.arrows)


def random_crossed_module(rng, max_objects=3, max_vertical=12):
    from . import xmod
    for _ in range(8):
        kind = rng.choice(["inertia", "module", "identity", "unit", "extension"])
        if kind == "inertia":
            g = random_groupoid(rng, max_objects=max_objects, max_order=3)
            xm = xmod.inertia_xmod(g)
        elif kind == "module":
            g = random_groupoid(rng, max_objects=max_objects, max_order=2)
            xm = random_abelian_module(rng, g)
        elif kind == "identity":
            n = rng.choice([2, 3])
            xm = xmod.identity_xmod(cyclic_groupoid(n))
        elif kind == "extension":
            from .extensions import cocycle_extension
            gname, aname = rng.choice([("Z2", "Z2"), ("Z2", "Z3")])
            f_choices = {"Z2": [0, 1], "Z3": [0, 1, 2]}[aname]
            ext = cocycle_extension(gname, aname, rng.choice(f_choices))
            xm = xmod.extension_xmod(ext)
        else:
            g = random_groupoid(rng, max_objects=max_objects, max_order=3)
            xm = xmod.unit_xmod(g)
        if vertical_size(xm) <= max_vertical:
            return xm
    from . import xmod
    return xmod.identity_xmod(cyclic_groupoid(2))


def random_crossed_extension(rng, max_objects=2, max_middle=24):
    """Crossed extensions built by validity-preserving constructions only.
    Falls back to the plain trivial extension when a construction would blow
    past the middle-groupoid size budget."""
    from . import crossing as cr
    kind = rng.choice(["trivial", "pullback", "hypercover", "mbar", "diamond"])
    xm = random_crossed_module(rng, max_objects=max_objects)
    base = cr.trivial_xext(xm)
    if kind == "trivial" or len(base.m.arrows) * 2 > max_middle:
        return base
    if kind == "pullback":
        space, mapping = random_surjection(rng, base.m.objects)
        if len(base.m.arrows) * len(space) > max_middle * 2:
            return base
        return cr.pullback_crossing(base, space, mapping)
    if kind == "hypercover":
        from . import xmod
        space, mapping = random_surjection(rng, xm.g.objects)
        pb, proj = xmod.pullback_xmod(xm, space, mapping)
        if len(pb.g.arrows) * 2 > max_middle:
            return base
        out = cr.xext_from_hypercover(proj)
        return out if len(out.m.arrows) <= 2 * max_middle else base
    if kind == "mbar":
        return cr.mbar(base)
    other = cr.trivial_xext(xm)
    out = cr.diamond(base, other)
    return out if len(out.m.arrows) <= max_middle else base


def random_crossing(rng, max_objects=2, max_middle=16):
    """Crossings (not necessarily extensions) with surjective moments."""
    from . import crossing as cr
    from . import xmod
    kind = rng.choice(["xext", "strict", "collapse"])
    if kind == "xext":
        out = random_crossed_extension(rng, max_objects=max_objects,
                                       max_middle=max_middle)
    elif kind == "strict":
        xm = random_crossed_module(rng, max_objects=max_objects)
        out = cr.crossing_from_strict(xmod.identity_xmorphism(xm))
    else:
        # a genuinely non-extension crossing: collapse a module (trivial
        # boundary) onto the unit module; alpha1 is then non-injective
        g = random_groupoid(rng, max_objects=max_objects, max_order=2)
        src = random_abelian_module(rng, g)
        dst = xmod.unit_xmod(g)
        chi = xmod.validate_strict_xmorphism(
            src, dst, {x: x for x in g.objects},
            {h: dst.h.unit[src.h.src[h]] for h in src.h.arrows},
            {a: a for a in g.arrows})
        out = cr.crossing_from_strict(chi)
    if len(out.m.arrows) > 2 * max_middle:
        return cr.trivial_xext(xmod.identity_xmod(cyclic_groupoid(2)))
    return out


def random_exchanger(rng, max_objects=2, max_middle=16):
    from . import exchanger as ex
    from . import crossing as cr
    a = random_crossed_extension(rng, max_objects=max_objects,
                                 max_middle=max_middle)
    kind = rng.choice(["trivial", "inverse", "pullback"])
    p = ex.trivial_exchanger(a)
    if kind == "trivial":
        return p
    if kind == "inverse":
        return ex.exchanger_inverse(p)[0]
    space, mapping = random_surjection(rng, a.m.objects)
    if len(a.m.arrows) * len(space) > max_middle * 4:
        return p
    hom = ex.pullback_homomorphism(a, space, mapping)
    return ex.exchanger_from_homomorphism(hom)
