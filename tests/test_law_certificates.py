"""The generator certificates of the action laws, the crossed-module
axioms, the crossing's leg homomorphisms and CR4, and equivariance of
strict morphisms (util.law_failures).  Each check is compared with the
sweeps it replaced (law_oracles) on generated crossed modules, crossings
and strict morphisms, on every single-entry corruption of their act,
boundary, leg and lmap tables, on corruptions that keep a table bijective,
homomorphic or functorial so that the laws after its own check run (two
act images swapped; the action, the boundary, a1, b1 or lmap conjugated
at one point), and on the criterion-10 corruptions; a spy shows that the
certificates ran and caught corruptions.  A failure
planted where a strict subset of the generators cannot see it shows what
each dropped generator kind would let through."""

import itertools
import random

import pytest

from xmodforge import crossing as cr
from xmodforge import fingrpd, generators, util, xmod
from xmodforge.fingrpd import (ActionByAutomorphisms, as_group_bundle, cyclic_groupoid,
                               group_as_groupoid, transport_action, trivial_action,
                               trivial_bundle)
from xmodforge.util import pair

import law_oracles as oracle


def described(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


# -- generated inputs --------------------------------------------------------


def keep_generators(*groupoids):
    """Ask each validated groupoid for its generators, so that it keeps
    them and the certificates that read them run."""
    for g in groupoids:
        assert g.validated and g.gens() is not None


def generated_inputs():
    """Crossings, the crossed modules they hold and strict morphisms, all
    validated: 40 generated crossings, whose groups are cyclic, with their
    decompositions' crossed modules and projections, then the trivial
    crossed extension of S3 as a crossed module over itself, where
    conjugation moves things, and the inertia crossed module of S3 over two
    objects, with their identity morphisms."""
    for seed in range(40):
        c = generators.random_crossing(random.Random(seed), max_objects=2, max_middle=24)
        gprime, left, right = cr.decompose_crossing(c)
        yield c, [gprime, c.src, c.dst], [left, right]
    s3 = generators.s3_groupoid()
    xm = xmod.identity_xmod(s3)
    pq = xmod.inertia_xmod(generators.transitive_block(["p", "q"], s3, "T"))
    yield cr.trivial_xext(xm), [xm, pq], [identity_between(xm, xm), identity_between(pq, pq)]


def identity_between(dom, cod):
    """The identity maps as a strict morphism from dom to cod, two crossed
    modules on the same tables but for their actions and boundaries."""
    return xmod.StrictXMorphism(dom, cod, {x: x for x in dom.g.objects},
                                {h: h for h in dom.h.arrows}, {g: g for g in dom.g.arrows})


def other(rng, choices, value):
    """Another of choices than value, or None when there is none."""
    rest = [x for x in choices if x != value]
    return rng.choice(rest) if rest else None


def act_corruptions(xm, rng):
    """Each act entry in turn sent to another element of its target fibre."""
    g, h, act = xm.g, xm.h, xm.action.act
    for (gg, hh), k in act.items():
        bad = other(rng, h.fiber(g.src[gg]), k)
        if bad is not None:
            yield {**act, (gg, hh): bad}


def boundary_corruptions(xm, rng):
    """Each boundary entry in turn sent to another loop at its point."""
    g, h = xm.g, xm.h
    for hh, b in xm.boundary.items():
        bad = other(rng, g.loops(h.src[hh]), b)
        if bad is not None:
            yield xmod.CrossedModule(g, h, {**xm.boundary, hh: bad}, xm.action)


def leg_corruptions(c, rng):
    """Each a1, a2, b1 and b2 entry in turn sent to another arrow with the
    same ends."""
    m = c.m
    legs = {"a1": c.a1, "a2": c.a2, "b1": c.b1, "b2": c.b2}
    for name, table in legs.items():
        g = m if name[1] == "1" else (c.src.g if name == "a2" else c.dst.g)
        for key, value in table.items():
            bad = other(rng, g.hom(g.src[value], g.tgt[value]), value)
            if bad is None:
                continue
            tables = dict(legs, **{name: {**table, key: bad}})
            yield cr.Crossing(c.src, c.dst, m, c.tau, c.sigma, tables["a1"], tables["a2"],
                              tables["b1"], tables["b2"], c.is_extension)


def act_swaps(xm, rng):
    """Each fibre map h -> h^g in turn with the images of two elements
    swapped: it stays a bijection, so the laws after it run."""
    g, h, act = xm.g, xm.h, xm.action.act
    for gg in g.arrows:
        fiber = h.fiber(g.tgt[gg])
        if len(fiber) > 1:
            h1, h2 = rng.sample(fiber, 2)
            yield {**act, (gg, h1): act[(gg, h2)], (gg, h2): act[(gg, h1)]}


def act_twists(xm, rng):
    """The action conjugated at one point x by a bijection s of the fibre
    there that swaps two elements other than the unit: h^g becomes
    s((s^-1 h)^g), s read as the identity away from x.  It stays
    functorial, but its fibre maps need not be homomorphisms."""
    g, h, act = xm.g, xm.h, xm.action.act
    for x in g.objects:
        others = [k for k in h.fiber(x) if not h.is_unit(k)]
        if len(others) < 2:
            continue
        a, b = rng.sample(others, 2)
        swap = {a: b, b: a}
        twisted = {}
        for gg, hh in act:
            v = act[(gg, swap.get(hh, hh) if g.tgt[gg] == x else hh)]
            twisted[(gg, hh)] = swap.get(v, v) if g.src[gg] == x else v
        yield twisted


def conjugated(table, loops, comp, inv, point):
    """The table with each value v replaced by x^-1 v x, x the loop that
    loops gives at point(key, v), when it gives one."""
    out = {}
    for key, v in table.items():
        x = loops.get(point(key, v))
        out[key] = v if x is None else comp[(comp[(inv[x], v)], x)]
    return out


def boundary_twists(xm):
    """The boundary conjugated at one point by a loop of G there: it stays a
    functor, so the axioms run."""
    g, h = xm.g, xm.h
    for u in g.objects:
        for x in g.loops(u):
            if not g.is_unit(x):
                yield xmod.CrossedModule(
                    g, h, conjugated(xm.boundary, {u: x}, g.comp, g.inv,
                                     lambda hh, _: h.src[hh]), xm.action)


def leg1_twists(c, rng):
    """a1, then b1, conjugated at one object by a loop of M there: each
    stays a homomorphism, so the laws after the legs run."""
    m = c.m
    for name in ("a1", "b1"):
        for u in m.objects:
            loops = [x for x in m.loops(u) if not m.is_unit(x)]
            for x in rng.sample(loops, min(8, len(loops))):
                tables = {"a1": c.a1, "b1": c.b1}
                tables[name] = conjugated(tables[name], {u: x}, m.comp, m.inv,
                                          lambda key, _: key[0])
                yield cr.Crossing(c.src, c.dst, m, c.tau, c.sigma, tables["a1"], c.a2,
                                  tables["b1"], c.b2, c.is_extension)


def lmap_twists(chi):
    """lmap conjugated at one point by an element of the codomain's fibre
    there: it stays a functor, so equivariance runs."""
    h2 = chi.cod.h
    for y in h2.objects:
        for k in h2.fiber(y):
            if not h2.is_unit(k):
                yield xmod.StrictXMorphism(
                    chi.dom, chi.cod, chi.omap,
                    conjugated(chi.lmap, {y: k}, h2.comp, h2.inv, lambda _, v: h2.src[v]),
                    chi.rmap)


def lmap_corruptions(chi, rng):
    """Each lmap entry in turn sent to another element of its fibre."""
    h2 = chi.cod.h
    for hh, k in chi.lmap.items():
        bad = other(rng, h2.fiber(h2.src[k]), k)
        if bad is not None:
            yield xmod.StrictXMorphism(chi.dom, chi.cod, chi.omap,
                                       {**chi.lmap, hh: bad}, chi.rmap)


# -- the criterion-10 corruptions -------------------------------------------


def criterion_10_crossings():
    """The crossings of criterion 10's CR1-CR4 and CR3' controls, with the
    extension flag that decides whether CR3' is checked."""
    c2 = cyclic_groupoid(2)
    o = cr.trivial_xext(xmod.inertia_xmod(c2))
    out = []
    a1 = dict(o.a1)
    a1[("*", "c0")] = a1[("*", "c1")]
    out.append(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, a1, o.a2, o.b1, o.b2))
    b2 = {mm: o.m.parts[mm][1] for mm in o.m.arrows}
    out.append(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, o.a1, o.a2, o.b1, b2))
    b1 = {k: o.m.unit[k[0]] for k in o.b1}
    out.append(cr.Crossing(o.src, o.dst, o.m, o.tau, o.sigma, o.a1, o.a2, b1, o.b2))
    b3 = trivial_bundle(["*"], cyclic_groupoid(3, prefix="a"))

    def invert(arrow, h):
        return h if c2.is_unit(arrow) else pair("*", "a" + str(-int(b3.parts[h][1][1:]) % 3))

    xm_inv = xmod.module_xmod(c2, b3, transport_action(c2, b3, invert))
    direct = fingrpd.semidirect_product(trivial_action(c2, b3))
    ident = {"*": "*"}
    a1 = {("*", h): pair(b3.inv[h], "c0") for h in b3.arrows}
    b1 = {("*", h): pair(h, "c0") for h in b3.arrows}
    a2 = {mm: direct.parts[mm][1] for mm in direct.arrows}
    out.append(cr.Crossing(xm_inv, xm_inv, direct, ident, ident, a1, a2, b1, dict(a2)))
    o_mod = cr.trivial_xext(xm_inv)
    a1 = {k: o_mod.m.unit[k[0]] for k in o_mod.a1}
    out.append(cr.Crossing(o_mod.src, o_mod.dst, o_mod.m, o_mod.tau, o_mod.sigma,
                           a1, o_mod.a2, o_mod.b1, o_mod.b2, extension=True))
    return out


# -- the oracle comparison ---------------------------------------------------


@pytest.fixture
def spied(monkeypatch):
    """(law name, certificate ran, violations found) per law_failures call
    of the checks, in call order."""
    calls = []

    def spy(law, certificate, every):
        found = util.law_failures(law, certificate, every)
        calls.append((law.__name__, certificate is not None, bool(found)))
        return found

    for module in (fingrpd, xmod, cr):
        monkeypatch.setattr(module, "law_failures", spy)
    return calls


def caught(calls):
    """Per law, the calls whose certificate ran and found a failure."""
    out = {}
    for name, ran, found in calls:
        out[name] = out.get(name, 0) + (ran and found)
    return out


def test_the_certificates_match_the_sweeps(spied):
    rng = random.Random(5)
    checked = 0
    for c, modules, chis in generated_inputs():
        keep_generators(c.m, *(part for xm in modules for part in (xm.g, xm.h)))
        assert cr.check_crossing(c, prime=c.is_extension) == []
        for xm in modules:
            assert xmod.check_crossed_module(xm) == []
            assert fingrpd.check_action(xm.g, xm.h, xm.action.act) == []
            for act in itertools.chain(act_corruptions(xm, rng), act_swaps(xm, rng),
                                       act_twists(xm, rng)):
                assert described(fingrpd.check_action(xm.g, xm.h, act)) == \
                    described(oracle.action_violations(xm.g, xm.h, act))
                bad = xmod.CrossedModule(xm.g, xm.h, xm.boundary,
                                         ActionByAutomorphisms(xm.g, xm.h, act))
                assert described(xmod.check_crossed_module(bad)) == \
                    described(oracle.crossed_module_violations(bad))
                checked += 1
            for bad in itertools.chain(boundary_corruptions(xm, rng), boundary_twists(xm)):
                assert described(xmod.check_crossed_module(bad)) == \
                    described(oracle.crossed_module_violations(bad))
                checked += 1
        for bad in itertools.chain(leg_corruptions(c, rng), leg1_twists(c, rng)):
            assert described(cr.check_crossing(bad, prime=bad.is_extension)) == \
                described(oracle.crossing_violations(bad, prime=bad.is_extension))
            checked += 1
        for chi in chis:
            assert xmod.check_strict_xmorphism(chi) == []
            for bad in itertools.chain(lmap_corruptions(chi, rng), lmap_twists(chi)):
                assert described(xmod.check_strict_xmorphism(bad)) == \
                    described(oracle.strict_xmorphism_violations(bad))
                checked += 1
    for bad in criterion_10_crossings():
        got = described(cr.check_crossing(bad, prime=bad.is_extension))
        assert got and got == described(oracle.crossing_violations(bad, prime=bad.is_extension))
    assert checked >= 2500
    # each certificate ran and found corruptions, which the sweep then listed
    found = caught(spied)
    for law, least in {"_unfunctorial": 150, "_unhomomorphic": 20, "_axiom1_failures": 10,
                       "_axiom2_failures": 10, "_leg1_unhom": 50, "_leg2_unhom": 200,
                       "_cr4_failures": 10, "_unequivariant": 10, "_uncomposed": 300}.items():
        assert found.get(law, 0) >= least, (law, found)


# -- planted failures that a dropped generator lets through -----------------


def product_group(n, m, prefix):
    """Z/n x Z/m as a one-object groupoid, (i, j) labelled prefix + "ij"."""
    def mul(a, b):
        return f"{(int(a[0]) + int(b[0])) % n}{(int(a[1]) + int(b[1])) % m}"

    return group_as_groupoid([f"{i}{j}" for i in range(n) for j in range(m)], mul,
                             lambda a: f"{-int(a[0]) % n}{-int(a[1]) % m}", "00",
                             prefix=prefix)


def z3_squared():
    """Z/3 x Z/3 as a group bundle over one point, keeping its generators
    v01 and v10."""
    bundle = as_group_bundle(product_group(3, 3, "v"))
    assert bundle.gens() == ["v01", "v10"]
    return bundle


def z2_squared(prefix):
    """Z/2 x Z/2 as a one-object groupoid, keeping its generators."""
    g = product_group(2, 2, prefix)
    assert g.gens() == [prefix + "01", prefix + "10"]
    return g


def shifted(label):
    """(i, j) -> (i, j + 1) for i = 2, else (i, j), on Z/3 x Z/3: a bijection
    fixing the unit that commutes with adding v01, but no homomorphism,
    since v10 + v10 = v20 goes to v21."""
    i, j = int(label[1]), int(label[2])
    return f"v{i}{(j + (i == 2)) % 3}"


def module(g, bundle, maps):
    """The crossed module of an action of g on an abelian bundle, g's arrow
    gg acting by the map maps(gg), with the trivial boundary."""
    act = {(gg, h): maps(gg)(h) for gg in g.arrows for h in bundle.arrows}
    return xmod.module_xmod(g, bundle, fingrpd.validate_action(g, bundle, act))


def direct_crossing(src):
    """The crossing from src, a crossed module over one object, to
    unit_xmod(src.g) through the direct product M = H x G, with a1 the
    inclusion and a2, b2 the projection; M keeps its generators.  CR4
    fails at (m, h) exactly when h^{a2 m} != h."""
    g, h = src.g, src.h
    parts = {pair(k, gg): (k, gg) for k in h.arrows for gg in g.arrows}
    m = fingrpd.groupoid_of_parts(
        ["*"], parts, lambda r: "*", lambda r: "*",
        lambda r: pair(h.inv[r[0]], g.inv[r[1]]), lambda x: pair(h.unit[x], g.unit[x]),
        lambda r, r2: pair(h.comp[(r[0], r2[0])], g.comp[(r[1], r2[1])]))
    keep_generators(m)
    dst = xmod.unit_xmod(g)
    a2 = {a: r[1] for a, r in parts.items()}
    return cr.Crossing(src, dst, m, {"*": "*"}, {"*": "*"},
                       {("*", k): pair(k, g.unit["*"]) for k in h.arrows}, a2,
                       {("*", e): m.unit["*"] for e in dst.h.arrows}, dict(a2))


def assert_dropping_misses(check, oracle_check, law, groupoid, keep):
    """check finds the planted failures of law, as the sweep does, with all
    of groupoid's generators, and none of them once it keeps only keep."""
    found = described(check())
    assert found == described(oracle_check())
    assert any(law(*v) for v in found)
    assert set(keep) < set(groupoid.gens(find=False))
    groupoid._gens = keep
    assert not any(law(*v) for v in described(check()))


def code_is(code, tag=None):
    return lambda c, w, _: c == code and (tag is None or w[0] == tag)


def test_a_dropped_base_generator_misses_unfunctoriality():
    # s1 = b01 and s2 = b10 act by two transpositions of Z/2 x Z/2 that do
    # not commute, and b11 by s1's after s2's: the pairs (g, s1) compose,
    # but b11 = b01 b10 should act by s2's after s1's
    base, bundle = z2_squared("b"), as_group_bundle(z2_squared("v"))
    swap1, swap2 = {"v01": "v10", "v10": "v01"}, {"v10": "v11", "v11": "v10"}
    maps = {"b00": {}, "b01": swap1, "b10": swap2,
            "b11": {h: swap1.get(swap2.get(h, h), swap2.get(h, h)) for h in bundle.arrows}}
    act = {(g, h): maps[g].get(h, h) for g in base.arrows for h in bundle.arrows}
    assert_dropping_misses(lambda: fingrpd.check_action(base, bundle, act),
                           lambda: oracle.action_violations(base, bundle, act),
                           code_is("NotFunctorial"), base, ["b01"])


def test_a_dropped_fibre_generator_misses_a_fibre_map_that_is_no_homomorphism():
    # c1 acts by shifted, which c1 c1 c1 = c0 undoes; it respects adding
    # v01, so only the generator v10 shows that it is no homomorphism
    base, bundle = cyclic_groupoid(3), z3_squared()
    keep_generators(base)
    act = {}
    for h in bundle.arrows:
        act[("c0", h)] = h
        act[("c1", h)] = shifted(h)
        act[("c2", h)] = shifted(shifted(h))
    assert_dropping_misses(lambda: fingrpd.check_action(base, bundle, act),
                           lambda: oracle.action_violations(base, bundle, act),
                           code_is("NotHomomorphism"), bundle, ["v01"])


def conjugated_boundary():
    """S3 over itself with the boundary h -> x^-1 h x, x = s021 the first
    generator: a functor, but axiom 1 holds only at the g that commute with
    x, and axiom 2 only at the h that do."""
    xm = xmod.identity_xmod(generators.s3_groupoid())
    g, x = xm.g, "s021"
    keep_generators(g, xm.h)
    boundary = {h: g.comp[(g.comp[(g.inv[x], b)], x)] for h, b in xm.boundary.items()}
    return xmod.CrossedModule(g, xm.h, boundary, xm.action)


@pytest.mark.parametrize("side, code", [("g", "Axiom1Failure"), ("h", "Axiom2Failure")])
def test_a_dropped_generator_misses_an_axiom_failure(side, code):
    bad = conjugated_boundary()
    assert_dropping_misses(lambda: xmod.check_crossed_module(bad),
                           lambda: oracle.crossed_module_violations(bad),
                           code_is(code), getattr(bad, side), ["s021"])


def test_a_dropped_fibre_generator_misses_a_leg_that_is_no_homomorphism():
    src = module(cyclic_groupoid(2), z3_squared(), lambda gg: lambda h: h)
    c = direct_crossing(src)
    a1 = {key: pair(shifted(key[1]), "c0") for key in c.a1}
    bad = cr.Crossing(c.src, c.dst, c.m, c.tau, c.sigma, a1, c.a2, c.b1, c.b2)
    assert_dropping_misses(lambda: cr.check_crossing(bad), lambda: oracle.crossing_violations(bad),
                           code_is("BadLeg", "a1-hom"), src.h, ["v01"])


def test_a_dropped_middle_generator_misses_a_leg_that_is_no_functor():
    # s1 -> c2 and s2 -> c1 in Z/4, and s2 s1 -> c3: composites with s1 on
    # the right are preserved, but s2 s2 = 1 goes to c0, not to c1 + c1
    m, z4 = z2_squared("m"), cyclic_groupoid(4)
    src, dst = xmod.unit_xmod(z4), xmod.unit_xmod(m)
    s1, s2 = m.gens()
    a2 = {"m00": "c0", s1: "c2", s2: "c1", m.comp[(s2, s1)]: "c3"}
    bad = cr.Crossing(src, dst, m, {"*": "*"}, {"*": "*"},
                      {("*", e): "m00" for e in src.h.arrows}, a2,
                      {("*", e): "m00" for e in dst.h.arrows}, {a: a for a in m.arrows})
    assert_dropping_misses(lambda: cr.check_crossing(bad), lambda: oracle.crossing_violations(bad),
                           code_is("BadLeg", "a2-hom"), m, [s1])


def negate_second(gg):
    """c1 acts on Z/3 x Z/3 by (i, j) -> (i, -j): it fixes v10, not v01."""
    return lambda h: h if gg == "c0" else f"v{h[1]}{-int(h[2]) % 3}"


def test_a_dropped_fibre_generator_misses_a_cr4_failure():
    c = direct_crossing(module(cyclic_groupoid(2), z3_squared(), negate_second))
    assert_dropping_misses(lambda: cr.check_crossing(c), lambda: oracle.crossing_violations(c),
                           code_is("CR4Failure"), c.src.h, ["v10"])


def test_a_dropped_middle_generator_misses_a_cr4_failure():
    # Z/2 x Z/2 acts on Z/3 through a character that is -1 at a2 of one
    # generator t of M = Z/3 x Z/2 x Z/2 and 1 at a2 of the others: CR4
    # fails exactly at the m that act by -1, t among them
    g, bundle = z2_squared("b"), as_group_bundle(cyclic_groupoid(3, prefix="k"))
    plain = direct_crossing(module(g, bundle, lambda gg: lambda h: h))
    gens = plain.m.gens()

    def character(kernel):
        return {b: 1 if b in ("b00", kernel) else -1 for b in g.arrows}

    t, sign = next((t, character(kernel)) for t in gens for kernel in ("b01", "b10", "b11")
                   if character(kernel)[plain.a2[t]] == -1
                   and all(character(kernel)[plain.a2[s]] == 1 for s in gens if s != t))
    c = direct_crossing(module(g, bundle, lambda gg: lambda h: h if sign[gg] == 1
                               else bundle.inv[h]))
    assert_dropping_misses(lambda: cr.check_crossing(c), lambda: oracle.crossing_violations(c),
                           code_is("CR4Failure"), c.m, [s for s in c.m.gens() if s != t])


def test_a_dropped_base_generator_misses_a_map_that_is_not_equivariant():
    # the identity from Z/3 with b10 and b11 acting by inversion to Z/3
    # with the trivial action: equivariant at b01 alone
    g, bundle = z2_squared("b"), as_group_bundle(cyclic_groupoid(3, prefix="k"))
    keep_generators(bundle)
    dom = module(g, bundle, lambda gg: lambda h: h if gg in ("b00", "b01") else bundle.inv[h])
    chi = identity_between(dom, module(g, bundle, lambda gg: lambda h: h))
    assert_dropping_misses(lambda: xmod.check_strict_xmorphism(chi),
                           lambda: oracle.strict_xmorphism_violations(chi),
                           code_is("NotEquivariant"), g, ["b01"])


def test_a_dropped_fibre_generator_misses_a_map_that_is_not_equivariant():
    g, bundle = cyclic_groupoid(2), z3_squared()
    keep_generators(g)
    chi = identity_between(module(g, bundle, negate_second),
                           module(g, bundle, lambda gg: lambda h: h))
    assert_dropping_misses(lambda: xmod.check_strict_xmorphism(chi),
                           lambda: oracle.strict_xmorphism_violations(chi),
                           code_is("NotEquivariant"), bundle, ["v10"])
