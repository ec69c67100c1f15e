import os
import random
import subprocess
import sys

import pytest

from xmodforge import bibundle as bb
from xmodforge import exchanger as exm
from xmodforge import cli, fingrpd, gdf, generators, util
from xmodforge.errors import EmptyComposite, ValidationFailure, Violation
from xmodforge.fingrpd import (cyclic_groupoid, identity_morphism, unit_groupoid,
                               validate_groupoid_morphism)
from xmodforge.util import cls_label, pair

from quotient_oracles import UnionFind

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def hom_c2_to_c4():
    c2, c4 = cyclic_groupoid(2), cyclic_groupoid(4)
    amap = {"c0": "c0", "c1": "c2"}
    return validate_groupoid_morphism(c2, c4, {"*": "*"}, amap)


def test_identity_bibundle_valid_and_morita(c2):
    z = bb.identity_bibundle(c2)
    ok, _ = bb.is_morita(z)
    assert ok


def test_graph_of_identity_valid(c2):
    z = bb.bibundle_from_hom(identity_morphism(c2))
    ok, _ = bb.is_morita(z)
    assert ok


def test_corrupted_bibundle_not_transitive(c2):
    # two disjoint copies of the identity bibundle over one phi-fiber:
    # no right arrow carries copy A to copy B
    z0 = bb.identity_bibundle(c2)
    space = [pair("A", z) for z in z0.space] + [pair("B", z) for z in z0.space]

    def tagmap(table, act="l"):
        out = {}
        for tag in ("A", "B"):
            for k, v in table.items():
                if act == "l":
                    out[(k[0], pair(tag, k[1]))] = pair(tag, v)
                else:
                    out[(pair(tag, k[0]), k[1])] = pair(tag, v)
        return out

    zb = bb.Bibundle(c2, c2, space,
                     {pair(t, z): z0.lmom[z] for t in "AB" for z in z0.space},
                     {pair(t, z): z0.rmom[z] for t in "AB" for z in z0.space},
                     tagmap(z0.lact, "l"), tagmap(z0.ract, "r"))
    violations = bb.check_bibundle(zb)
    assert any(v.code == "NotTransitive" for v in violations)


def test_not_free_witness(c2):
    # single point acted on trivially by C2 on the right: stabilizer = C2
    u = unit_groupoid(["x"])
    zb = bb.Bibundle(u, c2, ["z"], {"z": "x"}, {"z": "*"},
                     {((u.unit["x"]), "z"): "z"},
                     {("z", "c0"): "z", ("z", "c1"): "z"})
    violations = bb.check_bibundle(zb)
    assert any(v.code == "NotFree" for v in violations)


def test_non_commuting_witness(s3):
    z0 = bb.identity_bibundle(s3)
    # right action by left inverse-translation commutes only for abelian groups
    ract = {(z, n): s3.comp[(s3.inv[n], z)] for z in z0.space for n in s3.arrows}
    zb = bb.Bibundle(s3, s3, z0.space, z0.lmom, z0.rmom, z0.lact, ract)
    violations = bb.check_bibundle(zb)
    assert any(v.code == "NonCommuting" for v in violations)


def test_g_function_identity_bibundle(c2):
    z = bb.identity_bibundle(c2)
    g = bb.g_function(z)
    for (a, a2), n in g.items():
        # oracle: solve a2 = a.n by enumeration happened inside; closed form:
        assert n == c2.comp[(c2.inv[a], a2)]
        assert g[(a, a)] == c2.unit[z.rmom[a]]


def test_g_function_graph(c2):
    z = bb.bibundle_from_hom(identity_morphism(c2))
    g = bb.g_function(z)
    for (z1, z2), n in g.items():
        x1, n1 = fingrpd.unpair(z1)
        x2, n2 = fingrpd.unpair(z2)
        assert x1 == x2
        assert n == c2.comp[(c2.inv[n1], n2)]


def test_g_cocycle_property(c4):
    z = bb.bibundle_from_hom(hom_c2_to_c4())
    g = bb.g_function(z)
    for (a, a2) in list(g):
        for a3 in z.space:
            if z.lmom[a3] == z.lmom[a]:
                lhs = g[(a, a3)]
                rhs = z.right.comp[(g[(a, a2)], g[(a2, a3)])]
                assert lhs == rhs


def test_phi_Z_graph_formula(c2):
    z = bb.bibundle_from_hom(identity_morphism(c2))
    f, dom, cod = bb.phi_Z(z)
    for a in dom.arrows:
        z1, m, z2 = util.unpair(a, 3)
        _, n1 = fingrpd.unpair(z1)
        _, n2 = fingrpd.unpair(z2)
        want = c2.comp[(c2.comp[(c2.inv[n1], m)], n2)]  # n1^-1 f(m) n2
        assert util.unpair(f.amap[a], 3)[1] == want


def test_phi_Z_identity_bibundle_iso(c2):
    z = bb.identity_bibundle(c2)
    f, _, _ = bb.phi_Z(z)
    ok, ninj, nsur = bb.phi_Z_bijective(f)
    assert ok


def test_phi_Z_non_morita_not_bijective(c2):
    to_point = unit_groupoid(["*"])
    f0 = validate_groupoid_morphism(c2, to_point, {"*": "*"},
                                    {a: to_point.unit["*"] for a in c2.arrows})
    z = bb.bibundle_from_hom(f0)
    ok, wit = bb.is_morita(z)
    assert not ok  # two left-orbits in one rmom-fiber
    f, _, _ = bb.phi_Z(z)
    bij, ninj, nsur = bb.phi_Z_bijective(f)
    assert not bij


def test_morita_iff_phi_bijective(c2, c4):
    for zb in (bb.identity_bibundle(c4), bb.bibundle_from_hom(hom_c2_to_c4())):
        f, _, _ = bb.phi_Z(zb)
        assert bb.is_morita(zb)[0] == bb.phi_Z_bijective(f)[0]


def test_compose_unit_law(c2):
    z = bb.bibundle_from_hom(identity_morphism(c2))
    i = bb.identity_bibundle(c2)
    iz = bb.compose_bibundles(i, z)
    # I . Z ~ Z via [m, z] -> m.z
    found = bb.search_equivariant_iso(iz, z)
    assert found is not None


def test_compose_with_inverse_is_identity_bibundle(c2):
    z = bb.identity_bibundle(c2)
    zbar = bb.inverse_bibundle(z)
    zz = bb.compose_bibundles(z, zbar)
    assert bb.search_equivariant_iso(zz, bb.identity_bibundle(c2)) is not None


def test_compose_graphs_is_graph_of_composite(c2, c4):
    f = hom_c2_to_c4()
    g = validate_groupoid_morphism(
        c4, c2, {"*": "*"},
        {"c0": "c0", "c1": "c1", "c2": "c0", "c3": "c1"})
    zf, zg = bb.bibundle_from_hom(f), bb.bibundle_from_hom(g)
    zfg = bb.compose_bibundles(zf, zg)
    zgf = bb.bibundle_from_hom(f.then(g))
    assert bb.search_equivariant_iso(zfg, zgf) is not None


def test_graph_size_inclusion(c2, c4):
    zf = bb.bibundle_from_hom(hom_c2_to_c4())
    assert len(zf.space) == 4


def test_is_morita_graph_iff_iso(c2):
    zid = bb.bibundle_from_hom(identity_morphism(c2))
    assert bb.is_morita(zid)[0]


def test_compose_associative_up_to_canonical_bijection(c2):
    z = bb.identity_bibundle(c2)
    left = bb.compose_bibundles(bb.compose_bibundles(z, z), z)
    right = bb.compose_bibundles(z, bb.compose_bibundles(z, z))
    assert bb.search_equivariant_iso(left, right) is not None


def test_morita_witness_builds_bibundle(s3):
    g = fingrpd.pair_groupoid(["a", "b"])
    h = fingrpd.unit_groupoid(["u"])
    z = bb.morita_witness(g, h)
    assert z is not None
    # self-witnesses glue isotropy theta(s) after the arrow into y
    rng = random.Random(5)
    for g in [g, s3] + [generators.random_groupoid(rng) for _ in range(8)]:
        z = bb.morita_witness(g, g)
        assert z is not None
        assert bb.check_bibundle(z) == [] and bb.is_morita(z)[0]
    z4, klein = cyclic_groupoid(4), fingrpd.semidirect_product(
        fingrpd.trivial_action(cyclic_groupoid(2),
                               fingrpd.as_group_bundle(cyclic_groupoid(2, prefix="h"))))
    assert bb.morita_witness(z4, klein) is None


# -- oracles: the point-by-point checker and the label quotient ---------------


def reference_check_bibundle(zb):
    """check_bibundle as a point-by-point sweep over the action tables."""
    violations = []
    left, right = zb.left, zb.right
    space = set(zb.space)
    for z in zb.space:
        if zb.lmom.get(z) not in left.objects or zb.rmom.get(z) not in right.objects:
            violations.append(Violation("BadMoment", (z,)))
    if violations:
        return violations
    for z in zb.space:
        for m in sorted(left.arrows):
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
    for z in zb.space:
        for n in sorted(right.arrows):
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
    if violations:
        return violations
    for z in zb.space:
        if zb.lact[(left.unit[zb.lmom[z]], z)] != z:
            violations.append(Violation("BadUnitAction", ("left", z)))
        if zb.ract[(z, right.unit[zb.rmom[z]])] != z:
            violations.append(Violation("BadUnitAction", ("right", z)))
    for m1, m2 in left.composable_pairs():
        for z in zb.space:
            if left.src[m2] == zb.lmom[z]:
                if zb.lact[(left.comp[(m1, m2)], z)] != zb.lact[(m1, zb.lact[(m2, z)])]:
                    violations.append(Violation("NotAction", ("left", m1, m2, z)))
    for n1, n2 in right.composable_pairs():
        for z in zb.space:
            if zb.rmom[z] == right.tgt[n1]:
                if zb.ract[(z, right.comp[(n1, n2)])] != zb.ract[(zb.ract[(z, n1)], n2)]:
                    violations.append(Violation("NotAction", ("right", z, n1, n2)))
    for z in zb.space:
        for m in left.arrows_from(zb.lmom[z]):
            if zb.rmom[zb.lact[(m, z)]] != zb.rmom[z]:
                violations.append(Violation("NonCommuting", (m, z), "rmom moved by left action"))
        for n in right.arrows_to(zb.rmom[z]):
            if zb.lmom[zb.ract[(z, n)]] != zb.lmom[z]:
                violations.append(Violation("NonCommuting", (z, n), "lmom moved by right action"))
    if violations:
        return violations
    for z in zb.space:
        for m in left.arrows_from(zb.lmom[z]):
            for n in right.arrows_to(zb.rmom[z]):
                if zb.ract[(zb.lact[(m, z)], n)] != zb.lact[(m, zb.ract[(z, n)])]:
                    violations.append(Violation("NonCommuting", (m, z, n)))
    if violations:
        return violations
    reach = {z: {} for z in zb.space}
    for (z, n), z2 in zb.ract.items():
        reach[z].setdefault(z2, []).append(n)
    for z in zb.space:
        for n in reach[z].get(z, ()):
            if not right.is_unit(n):
                violations.append(Violation("NotFree", (z, n, right.unit[zb.rmom[z]])))
    for x in left.objects:
        fiber = zb.lfiber(x)
        for z in fiber:
            for z2 in fiber:
                sols = reach[z].get(z2, ())
                if not sols:
                    violations.append(Violation("NotTransitive", (z, z2)))
                elif len(sols) > 1:
                    violations.append(Violation("NotFree", (z, sols[0], sols[1])))
    return violations


def reference_g_function(zb):
    """g_function as its own sweep, raising at the first failed pair."""
    reach = {z: {} for z in zb.space}
    for (z, n), z2 in zb.ract.items():
        reach[z].setdefault(z2, []).append(n)
    table = {}
    for x in zb.left.objects:
        fiber = zb.lfiber(x)
        for z in fiber:
            for z2 in fiber:
                sols = reach[z].get(z2, ())
                if not sols:
                    raise ValidationFailure([Violation("NotTransitive", (z, z2))])
                if len(sols) > 1:
                    raise ValidationFailure([Violation("NotFree", (z, sols[0], sols[1]))])
                table[(z, z2)] = sols[0]
    return table


def reference_morita_failures(zb):
    """is_morita's witnesses as a sweep over each right-moment fibre."""
    violations = []
    reach = {z: {} for z in zb.space}
    for (m, z), z2 in zb.lact.items():
        reach[z].setdefault(z2, []).append(m)
    for y in zb.right.objects:
        fiber = [z for z in zb.space if zb.rmom[z] == y]
        for z in fiber:
            for z2 in fiber:
                sols = reach[z].get(z2, ())
                if not sols:
                    violations.append(Violation("NotTransitive", (z, z2), "left"))
                elif len(sols) > 1:
                    violations.append(Violation("NotFree", (z, sols[0], sols[1]), "left"))
    return violations


def reference_compose_bibundles(z1, z2):
    """compose_bibundles as a union-find over the pair labels themselves,
    scanning all of Z2 for every (a, n)."""
    if z1.right is not z2.left and set(z1.right.arrows) != set(z2.left.arrows):
        raise ValidationFailure([Violation("MiddleMismatch", None)])
    n = z1.right
    pairs = [pair(a, b) for a in z1.space for b in z2.space
             if z1.rmom[a] == z2.lmom[b]]
    if not pairs:
        raise EmptyComposite("fibered product of bibundle spaces is empty")
    uf = UnionFind(pairs)
    for a in z1.space:
        for nn in n.arrows_to(z1.rmom[a]):
            an = z1.ract[(a, nn)]
            for b in z2.space:
                if z2.lmom[b] == n.src[nn]:
                    uf.union(pair(an, b), pair(a, z2.lact[(nn, b)]))
    cmap = uf.class_map()

    def cl(a, b):
        return cls_label(cmap[pair(a, b)])

    space = sorted({cls_label(rep) for rep in cmap.values()})
    reps = {cls_label(rep): fingrpd.unpair(rep) for rep in set(cmap.values())}
    lmom = {c: z1.lmom[reps[c][0]] for c in space}
    rmom = {c: z2.rmom[reps[c][1]] for c in space}
    lact, ract = {}, {}
    for c in space:
        a, b = reps[c]
        for m in z1.left.arrows_from(lmom[c]):
            lact[(m, c)] = cl(z1.lact[(m, a)], b)
        for nn in z2.right.arrows_to(rmom[c]):
            ract[(c, nn)] = cl(a, z2.ract[(b, nn)])
    out = bb.Bibundle(z1.left, z2.right, space, lmom, rmom, lact, ract)
    violations = reference_check_bibundle(out)
    if violations:
        raise ValidationFailure(violations)
    out.parts = reps
    out.pair_class = {p: cls_label(r) for p, r in cmap.items()}
    return out


def _report(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


def _point_to(g):
    point = unit_groupoid(["*"])
    return validate_groupoid_morphism(g, point, {x: "*" for x in g.objects},
                                      {a: point.unit["*"] for a in g.arrows})


@pytest.fixture(scope="module")
def generated_bibundles():
    """Identity, graph and Morita-witness bibundles of random groupoids (up
    to four objects), and the carriers of random exchangers and their
    inverses (pullback carriers have several moments)."""
    rng = random.Random(11)
    out = []
    for _ in range(6):
        g = generators.random_groupoid(rng)
        out += [bb.identity_bibundle(g), bb.bibundle_from_hom(_point_to(g)),
                bb.morita_witness(g, g)]
    erng = random.Random(3)
    while len(out) < 30:
        ex = generators.random_exchanger(erng)
        out += [ex.p, bb.inverse_bibundle(ex.p)]
    assert sum(len(z.left.objects) > 1 for z in out) >= 8
    return out


def _with(zb, **tables):
    parts = dict(space=zb.space, lmom=zb.lmom, rmom=zb.rmom, lact=zb.lact, ract=zb.ract)
    parts.update(tables)
    return bb.Bibundle(zb.left, zb.right, **parts)


def _corruptions(zb, rng):
    """Single-entry rewrites and swaps of the action tables, and the right
    action conjugated by a transposition of two points over the same
    moments, which keeps every law but the commuting one."""
    twins = [(z, w) for z in zb.space for w in zb.space if z < w
             and (zb.lmom[z], zb.rmom[z]) == (zb.lmom[w], zb.rmom[w])]
    for z, w in rng.sample(twins, min(3, len(twins))):
        def swap(p, z=z, w=w):
            return {z: w, w: z}.get(p, p)
        yield _with(zb, ract={(p, n): swap(zb.ract[(swap(p), n)]) for p, n in zb.ract})
    for side in ("lact", "ract"):
        keys = sorted(getattr(zb, side))
        for _ in range(12):
            table = dict(getattr(zb, side))
            table[rng.choice(keys)] = rng.choice(zb.space)
            yield _with(zb, **{side: table})
        for _ in range(6):
            if len(keys) > 1:
                table = dict(getattr(zb, side))
                k1, k2 = rng.sample(keys, 2)
                table[k1], table[k2] = table[k2], table[k1]
                yield _with(zb, **{side: table})


def _law_form(v):
    return v.code + ("-%d" % len(v.witness) if v.code == "NonCommuting" else
                     "-" + v.witness[0] if v.code == "NotAction" else "")


def test_check_bibundle_matches_sweep_on_generated_and_corrupted(generated_bibundles):
    rng = random.Random(5)
    forms = set()
    for zb in generated_bibundles:
        assert _report(bb.check_bibundle(zb)) == _report(reference_check_bibundle(zb)) == []
        for bad in _corruptions(zb, rng):
            want = reference_check_bibundle(bad)
            assert _report(bb.check_bibundle(bad)) == _report(want)
            forms |= {_law_form(v) for v in want}
    # every law checked on rows was broken, and found, on some input
    assert {"NotAction-left", "NotAction-right", "NonCommuting-3"} <= forms


def reference_law_failures(zb):
    """The action, moment-invariance and commuting laws, swept point by
    point on tables of the right shape, whatever else fails."""
    failures = []
    left, right = zb.left, zb.right
    for m1, m2 in left.composable_pairs():
        for z in zb.lfiber(left.src[m2]):
            if zb.lact[(left.comp[(m1, m2)], z)] != zb.lact[(m1, zb.lact[(m2, z)])]:
                failures.append(("left", m1, m2, z))
    for n1, n2 in right.composable_pairs():
        for z in zb.space:
            if zb.rmom[z] == right.tgt[n1] and \
                    zb.ract[(z, right.comp[(n1, n2)])] != zb.ract[(zb.ract[(z, n1)], n2)]:
                failures.append(("right", z, n1, n2))
    for z in zb.space:
        failures += [(m, z) for m in left.arrows_from(zb.lmom[z])
                     if zb.rmom[zb.lact[(m, z)]] != zb.rmom[z]]
        failures += [(z, n) for n in right.arrows_to(zb.rmom[z])
                     if zb.lmom[zb.ract[(z, n)]] != zb.lmom[z]]
    if failures:  # m.z.n is not defined where a moment moves
        return failures
    return [(m, z, n) for z in zb.space for m in left.arrows_from(zb.lmom[z])
            for n in right.arrows_to(zb.rmom[z])
            if zb.ract[(zb.lact[(m, z)], n)] != zb.lact[(m, zb.ract[(z, n)])]]


SHAPE_CODES = {"MissingActionEntry", "SpuriousActionEntry", "BadActionImage"}


def _shape_corruptions(zb, rng):
    """An entry dropped, and an entry for an arrow out of another object."""
    key = rng.choice(sorted(zb.lact))
    yield _with(zb, lact={k: v for k, v in zb.lact.items() if k != key})
    z = rng.choice(zb.space)
    others = [m for m in zb.left.arrows if zb.left.src[m] != zb.lmom[z]]
    if others:
        yield _with(zb, lact={**zb.lact, (others[0], z): z})


LAW_BODIES = ("_not_left_action", "_not_right_action", "_moved", "_noncommuting")


@pytest.fixture
def law_runs(monkeypatch):
    """The runs of check_bibundle's law bodies, in order: (body, the left
    instances, the right instances), each "generators" when it is given
    the generators of its end, "all" when it is given every arrow."""
    runs = []

    def given(xs, end):
        return "generators" if xs is end.gens() else "all" if list(xs) == list(end.arrows) \
            else "other"

    for name in LAW_BODIES:
        def run(zb, rows, ms, ns, body=getattr(bb, name), name=name):
            runs.append((name, given(ms, zb.left), given(ns, zb.right)))
            return body(zb, rows, ms, ns)
        monkeypatch.setattr(bb, name, run)
    return runs


def test_certificates_match_the_sweeps_on_generated_and_corrupted(generated_bibundles,
                                                                   law_runs):
    # each certificate says yes exactly when its sweep finds nothing; the
    # law certificate is the law bodies run on the generators, and it says
    # no exactly when the bodies then run on every arrow
    rng = random.Random(5)
    verdicts = set()
    for zb in generated_bibundles:
        for case in [zb, *_corruptions(zb, rng), *_shape_corruptions(zb, rng)]:
            shape = not SHAPE_CODES & {v.code for v in reference_check_bibundle(case)}
            assert bb._shape_certifies(case) == shape
            if shape and not bb._translation_certifies(case):
                laws = reference_law_failures(case) == []
                del law_runs[:]
                bb.check_bibundle(_with(case))
                first = [run for run in law_runs if run[1:] == ("generators", "generators")]
                assert law_runs[:len(first)] == first and first
                assert all(run[1:] == ("all", "all") for run in law_runs[len(first):])
                assert (len(first) == len(law_runs)) == laws
                if laws:
                    assert [name for name, _, _ in first] == list(LAW_BODIES)
                verdicts.add(("laws", laws))
            verdicts.add(("shape", shape))
        # keyed outside the tables: the reference has no check for it
        z = zb.space[0]
        for case in (_with(zb, lact={**zb.lact, ("no arrow", z): z}),
                     _with(zb, ract={**zb.ract, (z, "no arrow"): z})):
            assert not bb._shape_certifies(case) and bb._shape_sweep(case)
    assert verdicts == {(kind, ok) for kind in ("shape", "laws") for ok in (True, False)}
    # several generators at both ends, on several inputs
    assert sum(len(zb.left.gens()) > 1 and len(zb.right.gens()) > 1
               for zb in generated_bibundles) >= 5


def test_the_law_bodies_list_the_oracles_failures(generated_bibundles):
    # each body, given every arrow, lists the instances that the
    # point-by-point oracle finds failing; given the generators, it lists
    # only instances with generators in them
    rng = random.Random(9)
    kinds = set()
    for zb in generated_bibundles[::2]:
        for case in [zb, *_corruptions(zb, rng)]:
            if SHAPE_CODES & {v.code for v in reference_check_bibundle(case)}:
                continue
            rows, zs = bb._rows(case), case.space
            left, right = case.left, case.right
            ms, ns = left.arrows, right.arrows
            found = [("left", m1, m2, zs[i]) for m1, m2, i in
                     bb._not_left_action(case, rows, ms, ns)]
            found += [("right", zs[i], n1, n2) for n1, n2, i in
                      bb._not_right_action(case, rows, ms, ns)]
            found += [(a, zs[i]) if side == "left" else (zs[i], a)
                      for i, side, a in bb._moved(case, rows, ms, ns)]
            if not found:
                found = [(m, zs[i], n) for i, m, n in bb._noncommuting(case, rows, ms, ns)]
            want = reference_law_failures(case)
            assert sorted(found) == sorted(want)
            kinds |= {len(w) for w in want}
            ms, ns = left.gens(), right.gens()
            assert {m1 for m1, _, _ in bb._not_left_action(case, rows, ms, ns)} <= set(ms)
            assert {n2 for _, n2, _ in bb._not_right_action(case, rows, ms, ns)} <= set(ns)
            assert {a for _, _, a in bb._moved(case, rows, ms, ns)} <= set(ms) | set(ns)
    assert kinds == {2, 3, 4}


def test_the_certificates_decide_every_valid_generated_bibundle(generated_bibundles,
                                                                monkeypatch, law_runs):
    def sweep(*args):
        pytest.fail("a sweep ran on a valid bibundle")

    monkeypatch.setattr(bb, "_shape_sweep", sweep)
    for zb in generated_bibundles:
        case = _with(zb)  # unchecked, so that the check runs again
        del law_runs[:]
        assert bb.check_bibundle(case) == []
        # each law body ran once, on the generators of both ends, unless
        # the translation certificate passed the bibundle first
        assert law_runs == [] if _is_translation(zb) else \
            [(name, "generators", "generators") for name in LAW_BODIES]
        # the check keeps the right division, which g_function then reads
        assert case.divisions["right"] == (reference_g_function(case), [])
        assert bb.g_function(case) is case.divisions["right"][0]


def _unvalidated(g):
    return fingrpd.Groupoid(g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp)


def test_a_bibundle_over_unvalidated_ends_takes_the_sweeps(generated_bibundles, law_runs):
    rng = random.Random(3)
    for zb in generated_bibundles[::3]:
        raw = bb.Bibundle(_unvalidated(zb.left), _unvalidated(zb.right), zb.space,
                          zb.lmom, zb.rmom, zb.lact, zb.ract)
        assert raw.left.gens() is None and raw.right.gens() is None
        for case in [raw, *_corruptions(raw, rng)]:
            del law_runs[:]
            assert _report(bb.check_bibundle(case)) == _report(reference_check_bibundle(case))
            # no body ran on generators: every run was given every arrow
            assert all(run[1:] == ("all", "all") for run in law_runs)
            if case is raw:
                assert [name for name, _, _ in law_runs] == list(LAW_BODIES)


def _g_report(g_function, zb):
    try:
        return list(g_function(zb).items())
    except ValidationFailure as e:
        return _report(e.violations)


def test_division_matches_the_three_sweeps(generated_bibundles):
    # check_bibundle, is_morita and g_function read one division; each
    # gives what its own sweep gave, in the same order
    rng = random.Random(7)
    forms = set()
    for zb in generated_bibundles:
        cases = [zb, *_corruptions(zb, rng)]
        # the witnesses follow the action tables' order, so read them reversed
        # too; test_check_bibundle_matches_sweep_on_generated_and_corrupted
        # compares check_bibundle on tables in their own order
        flipped = [_with(case, lact=dict(reversed(case.lact.items())),
                         ract=dict(reversed(case.ract.items()))) for case in cases]
        for case in flipped:
            assert _report(bb.check_bibundle(case)) == _report(reference_check_bibundle(case))
        for case in cases + flipped:
            want = reference_morita_failures(case)
            assert _report(bb.is_morita(case)[1]) == _report(want)
            assert _g_report(bb.g_function, case) == _g_report(reference_g_function, case)
            table, violations = bb.division(case, "right")
            if not violations:
                assert list(table.items()) == list(reference_g_function(case).items())
            forms |= {(v.code, v.detail) for v in want + violations}
    assert {("NotTransitive", ""), ("NotFree", ""),
            ("NotTransitive", "left"), ("NotFree", "left")} <= forms


def test_division_left_table_solves_the_left_action(generated_bibundles):
    for zb in generated_bibundles:
        table, violations = bb.division(zb, "left")
        if violations:
            continue
        fibres = {}
        for z in zb.space:
            fibres.setdefault(zb.rmom[z], []).append(z)
        assert set(table) == {(z, z2) for fib in fibres.values() for z in fib for z2 in fib}
        for (z, z2), m in table.items():
            assert zb.lact[(m, z)] == z2


def reference_division(zb, side):
    """division(zb, side) as a sweep over each fibre's pairs of the lists
    of solutions, in the order of the action table."""
    right = side == "right"
    reach = {z: {} for z in zb.space}
    for key, z2 in (zb.ract if right else zb.lact).items():
        z, arrow = key if right else key[::-1]
        reach[z].setdefault(z2, []).append(arrow)
    mom, detail = (zb.lmom, "") if right else (zb.rmom, "left")
    table, violations = {}, []
    for x in sorted((zb.left if right else zb.right).objects):
        fiber = [z for z in zb.space if mom[z] == x]
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


def test_kept_divisions_are_the_sweeps_tables_in_their_order(generated_bibundles):
    # a division, kept on a checked bibundle or read from a corrupted one
    # whose tables keep their shape, is the sweep's, entry for entry and in
    # its order, and so are its violations
    rng = random.Random(13)
    paths = set()
    for zb in generated_bibundles:
        assert zb.divisions is not None
        cases = [zb] + [case for case in _corruptions(zb, rng)
                        if not SHAPE_CODES & {v.code for v in reference_check_bibundle(case)}]
        cases += [_with(case, lact=dict(reversed(case.lact.items())),
                        ract=dict(reversed(case.ract.items()))) for case in cases[1:4]]
        for case in cases:
            for side in ("right", "left"):
                table, violations = bb.division(case, side)
                want = reference_division(case, side)
                assert list(table.items()) == list(want[0].items())
                assert _report(violations) == _report(want[1])
                paths |= {v.code for v in violations} or {"unique"}
    assert paths == {"unique", "NotTransitive", "NotFree"}


def _is_translation(zb):
    return zb.left is zb.right and zb.lact == zb.left.comp


def test_the_translation_certificate_decides_identity_bibundles(generated_bibundles,
                                                                  monkeypatch):
    identities = [zb for zb in generated_bibundles if _is_translation(zb)]
    assert len(identities) >= 6
    rng = random.Random(5)
    for zb in identities:
        raw = _unvalidated(zb.left)
        plain = bb.Bibundle(raw, raw, zb.space, zb.lmom, zb.rmom, zb.lact, zb.ract)
        assert not bb._translation_certifies(plain)
        assert bb.check_bibundle(plain) == []
        for case in _corruptions(zb, rng):
            # a corruption that the certificate let through would pass
            assert _report(bb.check_bibundle(case)) == _report(reference_check_bibundle(case))

    def rows(*args):
        pytest.fail("the rows of an identity bibundle were built")

    monkeypatch.setattr(bb, "_rows", rows)
    for zb in identities:
        case = _with(zb)
        assert bb._translation_certifies(case)
        assert bb.check_bibundle(case) == []
        assert list(case.divisions["right"][0].items()) == \
            list(reference_g_function(case).items())
        assert case.divisions["right"][1] == []


def test_action_entries_outside_the_tables_are_spurious(c2, tmp_path, capsys):
    # keyed by a point or an arrow the bibundle lacks: a violation, which
    # `xmodforge check` reports with exit 1, not a KeyError
    z = bb.identity_bibundle(c2)
    bad = _with(z, lact={**z.lact, ("c0", "w"): "c0"}, ract={**z.ract, ("c0", "zz"): "c0"})
    assert _report(bb.check_bibundle(bad)) == [
        ("SpuriousActionEntry", ("left", "c0", "w"), ""),
        ("SpuriousActionEntry", ("right", "c0", "zz"), "")]
    for side in ("lact", "ract"):
        path = tmp_path / f"{side}.gdf"
        path.write_text(gdf.print_gdf(gdf.document_of(
            gdf.bibundle_blocks("Z", _with(z, **{side: getattr(bad, side)})))))
        assert cli.main(["check", str(path)]) == 1
        assert "SpuriousActionEntry" in capsys.readouterr().out


def _cyclic_on_three(prefix):
    """Z/3 acting on three points by translation."""
    g = cyclic_groupoid(3, prefix=prefix)
    return g, {(f"{prefix}{k}", f"z{i}"): f"z{(i + k) % 3}" for k in range(3) for i in range(3)}


def _three_points(left, right, lact, ract):
    zs = ["z0", "z1", "z2"]
    return bb.Bibundle(left, right, zs, {z: "*" for z in zs}, {z: "*" for z in zs},
                       lact, ract)


def test_oracle_left_action_law_only(c2):
    # c1 translates by one step, so c1.c1 = c0 acts as a translation by two
    n3, trans = _cyclic_on_three("n")
    ract = {(z, n): w for (n, z), w in trans.items()}
    lact = {(m, f"z{i}"): f"z{(i + int(m[1:])) % 3}" for m in c2.arrows for i in range(3)}
    zb = _three_points(c2, n3, lact, ract)
    got = bb.check_bibundle(zb)
    assert {(v.code, v.witness[0]) for v in got} == {("NotAction", "left")}
    assert _report(got) == _report(reference_check_bibundle(zb))


def test_oracle_right_action_law_only(c2):
    m3, lact = _cyclic_on_three("m")
    ract = {(f"z{i}", n): f"z{(i + int(n[1:])) % 3}" for n in c2.arrows for i in range(3)}
    zb = _three_points(m3, c2, lact, ract)
    got = bb.check_bibundle(zb)
    assert {(v.code, v.witness[0]) for v in got} == {("NotAction", "right")}
    assert _report(got) == _report(reference_check_bibundle(zb))


def test_oracle_commuting_law_only(s3):
    z0 = bb.identity_bibundle(s3)
    ract = {(z, n): s3.comp[(s3.inv[n], z)] for z in z0.space for n in s3.arrows}
    zb = _with(z0, ract=ract)
    got = bb.check_bibundle(zb)
    assert {(v.code, len(v.witness)) for v in got} == {("NonCommuting", 3)}
    assert _report(got) == _report(reference_check_bibundle(zb))


def test_oracle_moment_invariance_only(c2):
    # C2 swaps two points whose other moments differ: both actions are
    # actions and commute wherever both are defined, but a moment moves
    ends = unit_groupoid(["y0", "y1"])
    zs = {"z0": "y0", "z1": "y1"}
    swap = {("c0", z): z for z in zs} | {("c1", "z0"): "z1", ("c1", "z1"): "z0"}
    for zb in (bb.Bibundle(c2, ends, zs, dict.fromkeys(zs, "*"), zs, swap,
                           {(z, ends.unit[y]): z for z, y in zs.items()}),
               bb.Bibundle(ends, c2, zs, zs, dict.fromkeys(zs, "*"),
                           {(ends.unit[y], z): z for z, y in zs.items()},
                           {(z, n): w for (n, z), w in swap.items()})):
        got = bb.check_bibundle(zb)
        assert {(v.code, len(v.witness)) for v in got} == {("NonCommuting", 2)}
        assert _report(got) == _report(reference_check_bibundle(zb))


def _tables(zb):
    return (zb.space, zb.lmom, zb.rmom, list(zb.lact.items()), list(zb.ract.items()),
            zb.parts, zb.pair_class)


def test_compose_bibundles_matches_label_quotient(generated_bibundles):
    # the oracle glues along every arrow of the middle groupoid; validated
    # factors are glued along its generators, unchecked copies along every
    # arrow too
    composed = by_gens = 0
    for zb in generated_bibundles:
        pairs = [(bb.identity_bibundle(zb.left), zb), (zb, bb.identity_bibundle(zb.right))]
        if bb.is_morita(zb)[0]:
            zbar = bb.inverse_bibundle(zb)
            pairs += [(zb, zbar), (zbar, zb)]
        pairs += [(_with(z1), _with(z2)) for z1, z2 in pairs[:1]]
        for z1, z2 in pairs:
            assert _tables(bb.compose_bibundles(z1, z2)) == \
                _tables(reference_compose_bibundles(z1, z2))
            composed += 1
            by_gens += z1.divisions is not None and z2.divisions is not None and \
                len(z1.right.gens()) < len(z1.right.arrows)
    rng = random.Random(2)
    while composed < 100:
        ex = generators.random_exchanger(rng)
        exbar = exm.exchanger_inverse(ex)[0]
        assert _tables(bb.compose_bibundles(ex.p, exbar.p)) == \
            _tables(reference_compose_bibundles(ex.p, exbar.p))
        composed += 1
    assert by_gens >= 40


def test_compose_bibundles_names_classes_by_least_label():
    # '+' sorts before ',', so "(e+,e+)" < "(e,e)" although ("e", "e") < ("e+", "e+")
    g = fingrpd.validate_groupoid(
        ["*"], ["e", "e+"], {"e": "*", "e+": "*"}, {"e": "*", "e+": "*"},
        {"e": "e", "e+": "e+"}, {"*": "e"},
        {("e", "e"): "e", ("e", "e+"): "e+", ("e+", "e"): "e+", ("e+", "e+"): "e"})
    z = bb.identity_bibundle(g)
    out = bb.compose_bibundles(z, z)
    assert out.space == ["{(e+,e)}", "{(e+,e+)}"]
    assert _tables(out) == _tables(reference_compose_bibundles(z, z))


def test_compose_bibundles_rejects_like_label_quotient(c2, c4):
    mid = unit_groupoid(["p", "q"])
    x, y = unit_groupoid(["x"]), unit_groupoid(["y"])
    over_p = bb.Bibundle(x, mid, ["a"], {"a": "x"}, {"a": "p"}, {("x", "a"): "a"},
                         {("a", "p"): "a"})
    over_q = bb.Bibundle(mid, y, ["b"], {"b": "q"}, {"b": "y"}, {("q", "b"): "b"},
                         {("b", "y"): "b"})
    cases = [(bb.identity_bibundle(c2), bb.identity_bibundle(c4), ValidationFailure),
             (over_p, over_q, EmptyComposite)]
    for z1, z2, error in cases:
        with pytest.raises(error) as new:
            bb.compose_bibundles(z1, z2)
        with pytest.raises(error) as old:
            reference_compose_bibundles(z1, z2)
        assert str(new.value) == str(old.value)


OPTIMIZED_SCRIPT = """
import sys
if __debug__:
    sys.exit("not running under -O")
from xmodforge import bibundle as bb, crossing, exchanger as exm, fingrpd, xmod
from xmodforge.errors import CoherenceFailure, ValidationFailure

c2, point = fingrpd.cyclic_groupoid(2), fingrpd.unit_groupoid(["x"])
# C2 fixes the only point: right division z = z.n has two solutions
zb = bb.Bibundle(point, c2, ["z"], {"z": "x"}, {"z": "*"},
                 {("x", "z"): "z"}, {("z", "c0"): "z", ("z", "c1"): "z"})
try:
    bb.g_function(zb)
except ValidationFailure as e:
    print(e.codes)
ident = exm.trivial_exchanger(crossing.trivial_xext(xmod.inertia_xmod(c2)))
collapse = exm.ExchangerMorphism(ident, ident, {p: ident.p.space[0] for p in ident.p.space})
try:
    exm._require_bijective(collapse=collapse)
except CoherenceFailure as e:
    print("CoherenceFailure", e)
# the label algebra: a malformed label, a wrong arity, a missing brace
from xmodforge.util import strip_class, unpair
for label, parse in (("a,b", unpair), ("(a,b)", lambda x: unpair(x, 3)),
                     ("(a)", strip_class)):
    try:
        parse(label)
    except CoherenceFailure as e:
        print("CoherenceFailure", e)
"""


def test_typed_errors_survive_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['NotFree']", "CoherenceFailure ('not bijective', 'collapse')",
        "CoherenceFailure ('not a tuple label', 'a,b')",
        "CoherenceFailure ('expected a tuple label of arity', 3, '(a,b)')",
        "CoherenceFailure ('not a class label', '(a)')"]


HASH_SEED_SCRIPT = """
import sys
from xmodforge import bibundle as bb, cli, fingrpd, gdf
zb = bb.identity_bibundle(fingrpd.cyclic_groupoid(4))
missing = {("c1", "c0"), ("c2", "c0"), ("c3", "c0")}
lact = {k: v for k, v in zb.lact.items() if k not in missing}
bad = bb.Bibundle(zb.left, zb.right, zb.space, zb.lmom, zb.rmom, lact, zb.ract)
with open(sys.argv[1], "w") as fh:
    fh.write(gdf.print_gdf(gdf.document_of(gdf.bibundle_blocks("Z", bad))))
sys.exit(cli.main(["check", sys.argv[1]]))
"""


def test_check_witness_does_not_depend_on_the_hash_seed(tmp_path):
    witnesses = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT,
                               str(tmp_path / f"z{seed}.gdf")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        witnesses.append([line for line in proc.stdout.splitlines() if "witness" in line])
    assert witnesses[0] == witnesses[1] == [
        "       MissingActionEntry: FAIL witness=('left', 'c1', 'c0')"]
