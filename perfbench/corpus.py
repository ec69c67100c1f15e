"""Seeded corpora of GDF documents, one per workload.

Every instance comes from the library's seeded generators.  A round of a
workload is a fixed list of size signatures; set-up draws a fixed-length
pool, shuffles it by the seed and takes the first instances of each
signature, so two seeds give mostly different instances of the same sizes,
and neither the set-up work nor the cost of a round depends much on the
seed.  Each document is rendered once, here; every
operation parses and builds its objects afresh from the text.
"""

import os
import random

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge import fingrpd, gdf, xmod
from xmodforge import generators as gen
from xmodforge.util import pair

# The machine these figures come from switches between two speeds about
# 1.6x apart in phases of seconds.  A median taken inside a narrow band of
# equal-cost operations flips between the band's fast and slow values, so
# each round spreads its costs evenly (roughly log-uniform) around the
# median instead, and puts enough operations on top that the tail is a
# high quantile of the heaviest kind.

# Signatures of one hypercover round: (|G2| of the decomposition's vertical
# 2-groupoid, |M|, |M0|, is_extension) -> count.  Ten sizes costing 1-6 ms,
# three instances each and each listed HYPERCOVER_REPEAT times, hold the
# median, with five smaller instances below and five medium ones
# (10-100 ms) above; six 81-cell instances hold the tail.  The 216-cell
# instance is built on top by pulling a 54-cell extension back to two points.
HYPERCOVER_MEDIAN = {
    (3, 1, 1, False): 3, (4, 2, 1, False): 3, (6, 2, 1, False): 3,
    (8, 4, 2, False): 3, (4, 4, 2, True): 3, (4, 4, 2, False): 3,
    (6, 3, 2, False): 3, (9, 3, 2, False): 3, (12, 4, 2, False): 3,
    (16, 8, 2, False): 3,
}
HYPERCOVER_REPEAT = 3
HYPERCOVER_ROUND = {
    (1, 1, 1, False): 2, (2, 1, 1, False): 3,
    **HYPERCOVER_MEDIAN,
    (16, 4, 1, False): 2, (16, 4, 1, True): 1, (24, 8, 2, False): 1,
    (64, 16, 2, True): 1,
    (54, 6, 1, True): 1, (54, 6, 1, False): 1,
    (81, 9, 1, True): 3, (81, 9, 1, False): 3,
}
HYPERCOVER_POOL = 400

# Exchanger round: operation -> {signature: instances}.  Crossings are keyed
# by (|M|, |M0|, is_extension), exchangers by (|P|, |A.M|, |B.M|, |A.M0|).
# Five operations on three sizes each span 1-90 ms; the 9-point structural
# isomorphisms are the heaviest.
EXCHANGER_ROUND = {
    kind: {sig: 2 for sig in sigs} for kind, sigs in (
        ("diamond", [(4, 1, True), (6, 1, True), (9, 1, True)]),
        ("m_mbar", [(4, 1, True), (6, 1, True), (9, 1, True)]),
        ("unit", [(4, 1, True), (6, 1, True), (9, 1, True)]),
        ("inverse", [(4, 4, 4, 1), (6, 6, 6, 1), (9, 9, 9, 1)]),
        ("structural", [(4, 4, 4, 1), (6, 6, 6, 1), (9, 9, 9, 1)]))
}
CROSSING_POOL = 250
EXCHANGER_POOL = 80

# CLI round: valid documents by signature, plus one document per planted
# fault and the documents whose bundle lacks a `base:` entry.  Each crossing
# document gives a `check` and a `compose --op diamond`, each exchanger
# document a `check` and a `compose --op bullet`; their costs, and those
# of the faults and conversions, spread evenly over 2-8 ms around the
# median.  A round repeats these light operations CLI_REPEAT times and
# then runs the two on the 9-point exchanger once, so that a 30 s run holds
# some 14-17 of the 9-point bullets, the heaviest operation (about 17 ms),
# and the tail (the 11th-largest latency) is one of their lower values.  It
# reads their slow-phase value only when slow phases hold most of the run;
# before that the slow 9-point checks (about 11 ms, 1.6x in a slow phase)
# move in beside the fast bullets.  A high quantile of the bullets (with
# them once or three times in a round of 99 operations, their 86th or 94th
# percentile) flipped between their fast and slow values, 18 and 27 ms,
# from run to run.
CLI_CROSSINGS = {(4, 1, True): 6, (9, 1, True): 2}
CLI_EXCHANGERS = {(4, 4, 4, 1): 2, (9, 9, 9, 1): 1}
CLI_HEAVY = (9, 9, 9, 1)
CLI_REPEAT = 14
CLI_XMODS = {(4, 2, 2): 2, (9, 3, 3): 1}
XMOD_POOL = 40
CLI_FAULTS = ("CR1Failure", "CR2Failure", "CR3Failure", "CR4Failure",
              "E1Failure", "E2Failure")


class Item:
    """One operation of a round: its kind, size signature, GDF text, the
    name of the block it acts on, and kind-specific details."""

    def __init__(self, kind, sig, text, name="", **extra):
        self.kind = kind
        self.sig = sig
        self.text = text
        self.name = name
        self.extra = extra


class SetupError(Exception):
    pass


def render(blocks):
    return gdf.print_gdf(gdf.document_of(blocks))


def take(pool, signature, round_counts, draw_more, limit=4000):
    """Instances for each signature of `round_counts`, first come first
    served from `pool`; draws more (appending to the pool) only when the
    pool runs short.  Returns {signature: [instances]}."""
    out = {s: [] for s in round_counts}
    i = 0
    while any(len(out[s]) < n for s, n in round_counts.items()):
        if i == len(pool):
            if len(pool) >= limit:
                missing = [s for s, n in round_counts.items() if len(out[s]) < n]
                raise SetupError(f"no instances of {missing} in {limit} draws")
            pool.append(draw_more())
        x = pool[i]
        i += 1
        s = None if x is None else signature(x)
        if s in out and len(out[s]) < round_counts[s]:
            out[s].append(x)
    return out


def _stream(seed, tag, draw, n):
    """`n` draws from a stream that does not depend on the seed, in an order
    the seed shuffles, and a function that draws more from that stream.
    Draw costs are heavy-tailed, so a seeded stream would make the set-up
    work vary with the seed (1.1-1.9 s for the same exchanger round);
    this way every seed pays the same work and the seed picks the
    instances."""
    rng = random.Random(f"pool/{tag}")
    pool = [draw(rng) for _ in range(n)]
    random.Random(f"{seed}/{tag}").shuffle(pool)
    return pool, (lambda: draw(rng))


def crossing_sig(c):
    return (len(c.m.arrows), len(c.m.objects), c.is_extension)


def decomposition_sig(c):
    cells = sum(len(c.src.h.fiber(c.tau[c.m.tgt[m]]))
                * len(c.dst.h.fiber(c.sigma[c.m.tgt[m]])) for m in c.m.arrows)
    return (cells,) + crossing_sig(c)


def xmod_sig(xm):
    return (gen.vertical_size(xm), len(xm.g.arrows), len(xm.h.arrows))


def exchanger_sig(p):
    return (len(p.p.space), len(p.source.m.arrows), len(p.target.m.arrows),
            len(p.source.m.objects))


def _draw_exchanger(rng):
    # Some pullback exchangers trip an internal orbit assertion in
    # exchanger_from_homomorphism (see CHANGES.md); they are left out.
    try:
        return gen.random_exchanger(rng)
    except AssertionError:
        return None


def endo_exchanger_sig(p):
    """Signature of an exchanger A => A over a same-base A, else None."""
    if p.source is not p.target or not p.source.same_base():
        return None
    return exchanger_sig(p)


def crossing_doc(name, c):
    return render(gdf.crossing_blocks(name, c))


def endo_exchanger_doc(name, p):
    blocks = gdf.crossing_blocks("A", p.source)
    blocks += gdf.exchanger_blocks(name, p, src_name="A", dst_name="A")
    return render(blocks)


# -- hypercover ----------------------------------------------------------------


def hypercover_corpus(seed):
    pool, more = _stream(seed, "hypercover", gen.random_crossing, HYPERCOVER_POOL)
    want = dict(HYPERCOVER_ROUND)
    base_sig = (54, 6, 1, True)
    want[base_sig] += 1
    picked = take(pool, decomposition_sig, want, more)
    base = picked[base_sig].pop()
    x = next(iter(base.m.objects))
    space = [pair("z0", x), pair("z1", x)]
    big = cr.pullback_crossing(base, space, {z: x for z in space})
    heavy = [Item("hypercover", decomposition_sig(big), crossing_doc("M", big), "M")]
    light = []
    for sig in HYPERCOVER_ROUND:
        copies = HYPERCOVER_REPEAT if sig in HYPERCOVER_MEDIAN else 1
        part = heavy if sig not in HYPERCOVER_MEDIAN and sig[0] >= 16 else light
        part += [Item("hypercover", sig, crossing_doc("M", c), "M")
                 for c in picked[sig]] * copies
    # The light operations, which hold the median, take about half a second
    # of a round of some fifteen seconds.  Run one after the other they would
    # fall in one machine speed phase; spread between the heavy operations,
    # each chunk a cross-section of their sizes, they meet many.  The heavy
    # ones alternate from the largest and the smallest, so that the chunks
    # are about as far apart in time as the round allows.
    heavy.sort(key=lambda item: item.sig[0])
    n = len(heavy)
    heavy = [heavy[k // 2] if k % 2 else heavy[-1 - k // 2] for k in range(n)]
    return [item for k, h in enumerate(heavy) for item in light[k::n] + [h]]


# -- exchanger -------------------------------------------------------------------


def exchanger_doc(name, p):
    return render(gdf.exchanger_blocks(name, p))


def exchanger_corpus(seed):
    crossings, more_c = _stream(seed, "crossing", gen.random_crossing, CROSSING_POOL)
    exchangers, more_e = _stream(seed, "exchanger", _draw_exchanger, EXCHANGER_POOL)
    on_crossing = (crossings, more_c, crossing_sig, crossing_doc, "M")
    sources = {"diamond": on_crossing, "m_mbar": on_crossing, "unit": on_crossing,
               "inverse": (exchangers, more_e, exchanger_sig, exchanger_doc, "P"),
               "structural": (exchangers, more_e, endo_exchanger_sig,
                              endo_exchanger_doc, "P")}
    items = []
    for kind, counts in EXCHANGER_ROUND.items():
        pool, more, signature, doc, name = sources[kind]
        for sig, xs in take(pool, signature, counts, more).items():
            items += [Item(kind, sig, doc(name, x), name) for x in xs]
    return items


# -- cli -------------------------------------------------------------------------


def _pair_doc(c):
    """X, Y, M: X -x- Y and Mbar: Y -x- X, sharing the crossed-module blocks."""
    blocks = gdf.xmod_blocks("X", c.src)
    dst_name = "X"
    if c.dst is not c.src:
        blocks += gdf.xmod_blocks("Y", c.dst)
        dst_name = "Y"
    blocks += gdf.crossing_blocks("M", c, "X", dst_name)
    blocks += gdf.crossing_blocks("Mbar", cr.mbar(c), dst_name, "X")
    return render(blocks)


def _exchanger_pair_doc(p):
    """A, P: A => A and its inverse Pbar: A => A."""
    pbar = exm.exchanger_inverse(p)[0]
    blocks = gdf.crossing_blocks("A", p.source)
    blocks += gdf.exchanger_blocks("P", p, "A", "A")
    blocks += gdf.exchanger_blocks("Pbar", pbar, "A", "A")
    return render(blocks)


def _planted_crossing(code):
    """A crossing document that breaks exactly the named axiom first.

    CR1-CR3 start from the trivial extension O of a crossed module (middle
    H x| G with a1(h) = (h^-1, d h), b1(h) = (h, 1), a2 = projection,
    b2 = d(h) g).  CR1 sends a1 of the unit to a1 of a non-unit; CR2
    replaces b2 by the projection, so b2 a1(h) = d h is not a unit (on the
    inertia module of C2, where d is the identity); CR3 collapses b1 onto
    units (on a module, d = 1, so that no square fails first).  CR4
    declares the inversion action of C2 on Z/3 but builds the
    direct-product middle.  These are criterion 10's corruptions."""
    c2 = fingrpd.cyclic_groupoid(2)
    if code == "CR4Failure":
        bundle = fingrpd.trivial_bundle(["*"], fingrpd.cyclic_groupoid(3, prefix="a"))

        def carry(arrow, h):
            if c2.is_unit(arrow):
                return h
            _, a = fingrpd.unpair(h)
            return pair("*", "a" + str((-int(a[1:])) % 3))

        xm_inv = xmod.module_xmod(c2, bundle, fingrpd.transport_action(c2, bundle, carry))
        direct = fingrpd.semidirect_product(fingrpd.trivial_action(c2, bundle))
        a1 = {("*", h): pair(bundle.inv[h], "c0") for h in bundle.arrows}
        b1 = {("*", h): pair(h, "c0") for h in bundle.arrows}
        a2 = {m: fingrpd.unpair(m)[1] for m in direct.arrows}
        bad = cr.Crossing(xm_inv, xm_inv, direct, {"*": "*"}, {"*": "*"},
                          a1, a2, b1, dict(a2))
        return render(gdf.crossing_blocks("M", bad))
    if code == "CR3Failure":
        bundle = fingrpd.trivial_bundle(["*"], fingrpd.cyclic_groupoid(2, prefix="a"))
        xm = xmod.module_xmod(c2, bundle, fingrpd.trivial_action(c2, bundle))
    else:
        xm = xmod.inertia_xmod(c2)
    o = cr.trivial_xext(xm)
    a1, b1, b2 = dict(o.a1), dict(o.b1), dict(o.b2)
    unit, other = sorted(xm.h.fiber("*"), key=lambda h: h != xm.h.unit["*"])
    if code == "CR1Failure":
        a1[("*", unit)] = a1[("*", other)]
    elif code == "CR2Failure":
        b2 = dict(o.a2)
    else:
        b1 = {(u, h): o.m.unit[u] for (u, h) in b1}
    bad = cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, a1, o.a2, b1, b2)
    return render(gdf.crossing_blocks("M", bad))


def _e1_doc():
    """E1: the graph bibundle of the map O(module) -> O(unit module) of C2
    that kills the module Z/2; H1 then acts on P without moving it."""
    c2 = fingrpd.cyclic_groupoid(2)
    bundle = fingrpd.trivial_bundle(["*"], fingrpd.cyclic_groupoid(2, prefix="a"))
    a_ext = cr.trivial_xext(xmod.module_xmod(c2, bundle, fingrpd.trivial_action(c2, bundle)))
    b_ext = cr.trivial_xext(xmod.unit_xmod(c2))
    fmap = {m: pair(b_ext.dst.h.unit["*"], fingrpd.unpair(m)[1]) for m in a_ext.m.arrows}
    f = fingrpd.validate_groupoid_morphism(a_ext.m, b_ext.m, {"*": "*"}, fmap)
    cand = exm.SemiExchanger(a_ext, b_ext, bb.bibundle_from_hom(f))
    blocks = gdf.crossing_blocks("A", a_ext) + gdf.crossing_blocks("B", b_ext)
    return render(blocks + gdf.exchanger_blocks("P", cand, "A", "B"))


def _e2_doc():
    """E2: the identity exchanger of O(inertia C2) with its right action
    twisted by the swap of the Klein middle."""
    o = cr.trivial_xext(xmod.inertia_xmod(fingrpd.cyclic_groupoid(2)))
    m = o.m
    swap = {}
    for mm in m.arrows:
        h, g = fingrpd.unpair(mm)
        swap[mm] = pair("c" + g[1:], "c" + h[1:])
    ract = {(z, n): m.comp[(z, swap[n])] for z in m.arrows
            for n in m.arrows_to(m.src[z])}
    lact = {(g, z): m.comp[(g, z)] for z in m.arrows
            for g in m.arrows_from(m.tgt[z])}
    p = bb.Bibundle(m, m, m.arrows, {z: m.tgt[z] for z in m.arrows},
                    {z: m.src[z] for z in m.arrows}, lact, ract)
    blocks = gdf.crossing_blocks("A", o)
    return render(blocks + gdf.exchanger_blocks("P", exm.SemiExchanger(o, o, p),
                                                "A", "A"))


def _missing_base_docs():
    """Two documents whose first bundle block lacks its first `base:` entry.
    They do not depend on the seed."""
    out = []
    for blocks in (gdf.xmod_blocks("X", xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))),
                   gdf.crossing_blocks("M", cr.trivial_xext(
                       xmod.identity_xmod(fingrpd.cyclic_groupoid(3))))):
        bundle = next(b for b in blocks if b.kind == "bundle")
        bundle.entries["base"] = sorted(bundle.entries["base"])[1:]
        out.append(render(blocks))
    return out


def cli_corpus(seed, workdir):
    """Documents written under `workdir`; each item's argv names its file.
    The planted faults and the missing-base documents do not depend on the
    seed."""
    crossings, more_c = _stream(seed, "crossing", gen.random_crossing, CROSSING_POOL)
    exchangers, more_e = _stream(seed, "exchanger", _draw_exchanger, EXCHANGER_POOL)
    xmods, more_x = _stream(seed, "xmod", gen.random_crossed_module, XMOD_POOL)
    items = []

    def add(kind, sig, text, argv, **extra):
        path = os.path.join(workdir, f"{len(items):03d}-{kind}.gdf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        items.append(Item(kind, sig, text,
                          argv=[a.replace("FILE", path) for a in argv], **extra))

    for sig, cs in take(crossings, crossing_sig, CLI_CROSSINGS, more_c).items():
        for c in cs:
            text = _pair_doc(c)
            add("check", sig, text, ["check", "FILE"], expect_exit=0)
            add("diamond", sig, text, ["compose", "FILE", "--op", "diamond",
                                       "--inputs", "M", "Mbar", "--name", "D"],
                expect_exit=0)
    for sig, ps in take(exchangers, endo_exchanger_sig, CLI_EXCHANGERS, more_e).items():
        for p in ps:
            text = _exchanger_pair_doc(p)
            add("check", sig, text, ["check", "FILE"], expect_exit=0)
            add("bullet", sig, text, ["compose", "FILE", "--op", "bullet",
                                      "--inputs", "P", "Pbar", "--name", "PP"],
                expect_exit=0)
    for sig, xms in take(xmods, xmod_sig, CLI_XMODS, more_x).items():
        for xm in xms:
            add("convert", sig, render(gdf.xmod_blocks("X", xm)),
                ["convert", "FILE", "--direction", "xmod2gpd", "--name", "X"],
                expect_exit=0)
    for code in CLI_FAULTS:
        text = {"E1Failure": _e1_doc, "E2Failure": _e2_doc}.get(
            code, lambda: _planted_crossing(code))()
        add("fault", (code,), text, ["check", "FILE"], expect_exit=1, expect_code=code)
    for text in _missing_base_docs():
        add("missing_base", ("base",), text, ["check", "FILE"], expect_exit=1,
            expect_raise="KeyError")
    light = [item for item in items if item.sig != CLI_HEAVY]
    return light * CLI_REPEAT + [item for item in items if item.sig == CLI_HEAVY]
