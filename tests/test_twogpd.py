import os
import random
from collections import Counter

import pytest

from test_relabel import Relabel
from xmodforge import gdf, twogpd, xmod
from xmodforge.crossing import decompose_crossing
from xmodforge.errors import ValidationFailure, Violation
from xmodforge.fingrpd import (Groupoid, as_group_bundle, cyclic_groupoid,
                               group_as_groupoid, pair_groupoid, trivial_action,
                               unit_groupoid, unpair, validate_action)
from xmodforge.generators import (random_cover, random_crossed_extension,
                                  random_crossed_module, random_crossing,
                                  random_groupoid)
from xmodforge.twogpd import (check_strong_equivalence, check_transformation2,
                              check_weak_equivalence, cover_2groupoid,
                              cover_projection, from_groupoid, identity_hom2,
                              identity_transformation2, validate_strict_hom2)
from xmodforge.util import pair


U = {"1": ["a"], "2": ["a", "b"]}


def brute_cover_cells(g, cover):
    """Independent enumeration of the cover 2-groupoid's cells straight from
    the definition (pairs of chart indices around each arrow)."""
    one = {(i, gg, j) for i in cover for j in cover for gg in g.arrows
           if g.tgt[gg] in cover[i] and g.src[gg] in cover[j]}
    two = {(i1, i2, gg, gg, j1, j2)
           for i1 in cover for i2 in cover for j1 in cover for j2 in cover
           for gg in g.arrows
           if g.tgt[gg] in cover[i1] and g.tgt[gg] in cover[i2]
           and g.src[gg] in cover[j1] and g.src[gg] in cover[j2]}
    return one, two


def test_from_groupoid_counts(pair2, c2):
    assert len(from_groupoid(pair2).g2) == 4
    assert len(from_groupoid(c2).g2) == 2
    empty = from_groupoid(unit_groupoid([]))
    assert len(empty.g2) == 0


def test_cover_2groupoid_pair2_counts(pair2):
    tg = cover_2groupoid(pair2, U)
    one, two = brute_cover_cells(pair2, U)
    assert len(tg.g1) == len(one) == 9
    assert len(tg.g2) == len(two) == 25


def test_cover_singleton_cover(pair2):
    tg = cover_2groupoid(pair2, {"0": sorted(pair2.objects)})
    assert len(tg.g1) == len(pair2.arrows)
    assert len(tg.g2) == len(pair2.arrows)


def test_cover_not_a_cover(pair2):
    with pytest.raises(ValidationFailure) as e:
        cover_2groupoid(pair2, {"1": ["a"]})
    assert any(v.code == "NotACover" for v in e.value.violations)


def test_corrupt_starH_interchange(c2):
    tg = from_groupoid(c2)
    cells = sorted(tg.g2)
    bad = dict(tg.hcomp)
    e1 = pair("1", "c1")
    bad[(e1, e1)] = e1  # should be 1_{c0}
    broken = twogpd.TwoGroupoid(tg.level1, tg.vertical, bad, tg.hinv)
    violations = twogpd.check_2groupoid(broken)
    assert any(v.code in ("InterchangeFailure", "BadHComposite", "HNonAssociative",
                          "BadHInverse") for v in violations)


def test_an_hcomp_entry_that_names_no_cell_is_a_violation(c2):
    # as a GDF block may write it: a composite or a key that is no cell
    tg = from_groupoid(c2)
    e1 = pair("1", "c1")
    for key, value, code in [((e1, e1), "(c", "BadHComposite"),
                             (("(c", e1), e1, "SpuriousHComposite")]:
        bad = dict(tg.hcomp)
        bad[key] = value
        broken = twogpd.TwoGroupoid(tg.level1, tg.vertical, bad, tg.hinv)
        assert code in [v.code for v in twogpd.check_2groupoid(broken)]


def test_cover_projection_identities(pair2):
    f, dom, cod = cover_projection(pair2, U)
    # phi^1(i,g,j) = phi^2(i,i,g,g,j,j) = g
    for a in dom.g1:
        i, gg, j = unpair(a)
        cell = pair(i, i, gg, gg, j, j)
        assert f.m2[cell] == pair("1", gg)
        assert f.m1[a] == gg


def test_cover_projection_whisker_case(pair2):
    # (1,2,g,g,1,2) with g: a<-a maps to g g^-1 g = g
    f, dom, cod = cover_projection(pair2, U)
    g = pair("a", "a")
    cell = pair("1", "2", g, g, "1", "2")
    assert cell in dom.g2
    assert f.m2[cell] == pair("1", g)


def test_cover_projection_weak_equivalence(pair2):
    f, _, _ = cover_projection(pair2, U)
    report = check_weak_equivalence(f)
    assert report == {"WE1": True, "WE2": True, "WE3": True}


def test_identity_hom_weak_equivalence(pair2):
    tg = from_groupoid(pair2)
    report = check_weak_equivalence(identity_hom2(tg))
    assert all(report.values())


def test_cell_ends_off_the_cells_do_not_reach_the_weak_equivalence():
    # a document's src2 and tgt2 lines may name a label that is no cell;
    # the 2-groupoid check does not read it, and neither does WE1-WE3
    block = gdf.two_groupoid_block("T", xmod.xmod_to_2groupoid(
        xmod.inertia_xmod(cyclic_groupoid(3))))
    cell, one_cell = next(iter(block.entries["src2"])).split("=")
    block.entries["src2"].append(f"ghost={one_cell}")
    block.entries["tgt2"].append(f"ghost={one_cell}")
    tg = gdf.build_document(gdf.parse_gdf(gdf.print_gdf(gdf.document_of([block]))))["T"]
    assert "ghost" in tg.s2 and "ghost" not in tg.g2
    assert check_weak_equivalence(identity_hom2(tg)) == {"WE1": True, "WE2": True, "WE3": True}


def test_object_inclusion_weak_equivalence(pair2):
    dom = from_groupoid(unit_groupoid(["a"]))
    cod = from_groupoid(pair2)
    f = validate_strict_hom2(
        dom, cod, {"a": "a"},
        {dom.unit1["a"]: cod.unit1["a"]},
        {dom.vunit[dom.unit1["a"]]: cod.vunit[cod.unit1["a"]]})
    report = check_weak_equivalence(f)
    assert report == {"WE1": True, "WE2": True, "WE3": True}


def test_we1_failure():
    dom = from_groupoid(unit_groupoid(["x"]))
    cod = from_groupoid(unit_groupoid(["x", "y"]))
    f = validate_strict_hom2(
        dom, cod, {"x": "x"},
        {dom.unit1["x"]: cod.unit1["x"]},
        {dom.vunit[dom.unit1["x"]]: cod.vunit[cod.unit1["x"]]})
    report = check_weak_equivalence(f)
    assert report["WE1"] is False


def test_we2_failure(c2):
    dom = from_groupoid(unit_groupoid(["*"]))
    cod = from_groupoid(c2)
    f = validate_strict_hom2(
        dom, cod, {"*": "*"},
        {dom.unit1["*"]: cod.unit1["*"]},
        {dom.vunit[dom.unit1["*"]]: cod.vunit[cod.unit1["*"]]})
    report = check_weak_equivalence(f)
    assert report["WE1"] is True
    assert report["WE2"] is False


def test_we3_failure():
    # collapse the two 2-cells of the (Z/2 -> 1) module's vertical 2-groupoid
    # onto the point: the cell map is 2-to-1, breaking WE3 injectivity
    from xmodforge import xmod
    from xmodforge.fingrpd import (as_group_bundle, cyclic_groupoid,
                                   trivial_action, trivial_bundle)
    base = unit_groupoid(["*"])
    bundle = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    xm = xmod.module_xmod(base, bundle, trivial_action(base, bundle))
    dom = xmod.xmod_to_2groupoid(xm)
    cod = from_groupoid(unit_groupoid(["*"]))
    ex = cod.unit1["*"]
    f = validate_strict_hom2(
        dom, cod, {"*": "*"},
        {g: ex for g in dom.g1},
        {a: cod.vunit[ex] for a in dom.g2})
    report = check_weak_equivalence(f)
    assert report["WE1"] is True and report["WE2"] is True
    assert report["WE3"] is False


def test_transformation_identity(pair2):
    tg = from_groupoid(pair2)
    f = identity_hom2(tg)
    v = identity_transformation2(f)
    assert check_transformation2(v, f, f) == []


def test_transformation_composite_law_probe(pair2):
    tg = from_groupoid(pair2)
    f = identity_hom2(tg)
    v = identity_transformation2(f)
    for g, h in tg.level1.composable_pairs():
        y = tg.t[h]
        vbar_y = tg.s2[v[tg.unit1[y]]]
        rhs = tg.hchain(v[g], tg.vunit[tg.inv1[vbar_y]], v[h])
        assert v[tg.comp1[(g, h)]] == rhs


def test_transformation_corrupted(c2):
    tg = from_groupoid(c2)
    f = identity_hom2(tg)
    v = identity_transformation2(f)
    v["c1"] = tg.vunit["c0"]  # wrong cell on the nonunit arrow
    violations = check_transformation2(v, f, f)
    assert violations
    assert any(v_.code in ("T2AxiomII", "T2AxiomIII", "T2AxiomIV")
               for v_ in violations)


def test_strong_equivalence_identity(pair2):
    tg = from_groupoid(pair2)
    f = identity_hom2(tg)
    u = identity_transformation2(f)
    assert check_strong_equivalence(f, f, u, dict(u)) == []


def test_strong_implies_weak(pair2):
    tg = from_groupoid(pair2)
    f = identity_hom2(tg)
    u = identity_transformation2(f)
    if check_strong_equivalence(f, f, u, dict(u)) == []:
        assert all(check_weak_equivalence(f).values())


def test_strong_equivalence_corrupted_u(c2):
    tg = from_groupoid(c2)
    f = identity_hom2(tg)
    u = identity_transformation2(f)
    bad = dict(u)
    bad["c1"] = tg.vunit["c0"]
    violations = check_strong_equivalence(f, f, bad, dict(u))
    assert any(v.code.startswith("U:") for v in violations)


def test_interchange_exhaustive_on_cover(pair2):
    # validation of the cover 2-groupoid includes the interchange sweep
    tg = cover_2groupoid(pair2, U)
    assert twogpd.check_2groupoid(tg) == []
    assert tg.strict_bigons is False


def test_cover_projection_random_pairs(rng):
    from xmodforge.generators import random_groupoid, random_cover
    for _ in range(8):
        g = random_groupoid(rng, max_objects=4, max_order=3)
        cover = random_cover(rng, g)
        f, _, _ = cover_projection(g, cover)
        assert all(check_weak_equivalence(f).values())


# -- check_2groupoid against the direct sweep --------------------------------


def reference_laws(tg):
    """h-associativity, interchange and 1_g *h 1_h = 1_{gh} by the direct
    sweep: every v-composable (a1, b1), every h-successor a2 of a1 and b2
    of b1, skipping the quadruples whose (a2, b2) is not v-composable."""
    violations = []
    hnext = {}
    for (a, b) in tg.hcomp:
        hnext.setdefault(a, []).append(b)
    for (a, b), ab in tg.hcomp.items():
        for c in hnext.get(b, ()):
            if tg.hcomp[(ab, c)] != tg.hcomp[(a, tg.hcomp[(b, c)])]:
                violations.append(Violation("HNonAssociative", (a, b, c)))
    for (a1, b1), v1 in tg.vcomp.items():
        for a2 in hnext.get(a1, ()):
            for b2 in hnext.get(b1, ()):
                if (a2, b2) not in tg.vcomp:
                    continue
                lhs = tg.vcomp.get((tg.hcomp[(a1, a2)], tg.hcomp[(b1, b2)]))
                rhs = tg.hcomp.get((v1, tg.vcomp[(a2, b2)]))
                if lhs is None or rhs is None or lhs != rhs:
                    violations.append(
                        Violation("InterchangeFailure", (a1, a2, b1, b2)))
    for g, h in tg.level1.composable_pairs():
        if tg.hcomp[(tg.vunit[g], tg.vunit[h])] != tg.vunit[tg.comp1[(g, h)]]:
            violations.append(Violation("BadHUnit", (g, h), "vunit not h-multiplicative"))
    return violations


def listed(violations):
    return [(v.code, v.witness, v.detail) for v in violations]


def assert_matches_reference(tg):
    """check_2groupoid lists what the cell checks and the direct sweep list,
    in the same order; on strict bigons the whiskering certificate holds
    exactly when the sweep finds nothing.  Returns the sweep's list."""
    got = listed(twogpd.check_2groupoid(tg))
    cells, gens = twogpd._check_cells(tg)
    if cells:
        assert got == listed(cells)
        return []
    laws = listed(reference_laws(tg))
    assert got == laws
    if tg.strict_bigons:
        assert twogpd._whiskering_certifies(tg, *gens) == (laws == [])
    return laws


def quotient_xmod(n, k):
    """Z/n -> Z/k, reduction mod k, trivial action: a boundary that is
    neither trivial nor injective, so parallel cells are not loops."""
    g = cyclic_groupoid(k, prefix="g")
    h = as_group_bundle(cyclic_groupoid(n, prefix="h"))
    return xmod.validate_crossed_module(
        g, h, {f"h{i}": f"g{i % k}" for i in range(n)}, trivial_action(g, h))


def generated_2groupoids():
    z4 = quotient_xmod(4, 2)
    pulled, _ = xmod.pullback_xmod(z4, ["p", "q"], {"p": "*", "q": "*"})
    out = [xmod.xmod_to_2groupoid(xm) for xm in (z4, quotient_xmod(6, 3), pulled)]
    for seed in range(8):
        rng = random.Random(seed)
        out += [xmod.xmod_to_2groupoid(random_crossed_module(rng)) for _ in range(4)]
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as fh:
            env = gdf.build_document(gdf.parse_gdf(fh.read()))
        for obj in env.values():
            if isinstance(obj, xmod.CrossedModule):
                out.append(xmod.xmod_to_2groupoid(obj))
            elif isinstance(obj, Groupoid):
                out.append(from_groupoid(obj))
    return out


def raw_vertical(tg, **tables):
    """An unvalidated copy of tg's vertical groupoid with the tables named
    (src, tgt, inv, unit or comp) replaced: check_2groupoid checks it, as
    it checks a level read from GDF."""
    v = tg.vertical
    return Groupoid(v.objects, v.arrows, *(tables.get(name, getattr(v, name))
                                           for name in ("src", "tgt", "inv", "unit", "comp")))


def corrupted(tg, table, key, value):
    tables = {name: dict(getattr(tg, name)) for name in ("vunit", "vcomp", "hcomp")}
    tables[table][key] = value
    vertical = raw_vertical(tg, unit=tables["vunit"], comp=tables["vcomp"])
    return twogpd.TwoGroupoid(tg.level1, vertical, tables["hcomp"], tg.hinv)


def test_check_2groupoid_matches_sweep_on_generated():
    tgs = generated_2groupoids()
    assert any(len(tg.g0) > 1 for tg in tgs)
    for tg in tgs:
        assert tg.strict_bigons
        assert assert_matches_reference(tg) == []


def test_check_2groupoid_matches_sweep_on_covers():
    rng = random.Random(7)
    loose = 0
    for _ in range(8):
        g = random_groupoid(rng, max_objects=3, max_order=3)
        tg = cover_2groupoid(g, random_cover(rng, g))
        loose += not tg.strict_bigons
        assert assert_matches_reference(tg) == []
    assert loose >= 4


def test_check_2groupoid_matches_sweep_on_corruptions():
    """Single entries of hcomp, vcomp or vunit replaced by another cell with
    the same s2 and t2, so that some corruptions pass the cell checks and
    the certificate has to reject them."""
    rng = random.Random(11)
    law_codes = set()
    tried = 0
    for tg in generated_2groupoids():
        parallel = {}
        for c in sorted(tg.g2):
            parallel.setdefault((tg.s2[c], tg.t2[c]), []).append(c)
        for table in ("hcomp", "vcomp", "vunit"):
            entries = sorted(getattr(tg, table).items())
            for key, value in rng.sample(entries, min(12, len(entries))):
                others = [c for c in parallel[(tg.s2[value], tg.t2[value])] if c != value]
                if others:
                    tried += 1
                    laws = assert_matches_reference(
                        corrupted(tg, table, key, rng.choice(others)))
                    law_codes.update(code for code, _, _ in laws)
        # 1_g *h 1_h for the first pair of non-identities with gh not an
        # identity: the h-unit and h-inverse checks read no such entry
        for (g, h), gh in sorted(tg.comp1.items()):
            others = [c for c in parallel[(gh, gh)] if c != tg.vunit[gh]]
            if others and not (tg.is_unit1(g) or tg.is_unit1(h) or tg.is_unit1(gh)):
                tried += 1
                laws = assert_matches_reference(
                    corrupted(tg, "hcomp", (tg.vunit[g], tg.vunit[h]), others[0]))
                law_codes.update(code for code, _, _ in laws)
                break
    assert tried >= 200
    assert law_codes == {"HNonAssociative", "InterchangeFailure", "BadHUnit"}


def cyclic_2groupoid(n, k, d, hx):
    """One object, 1-cells g_i for i in Z/k, 2-cells (x, i): g_i => g_{i+dx}
    for x in Z/n, vertical composite (x1 + x2, i), horizontal composite
    (hx(x1, i1, x2, i2), i1 + i2).  The checks before the laws pass when
    dn = 0 and d hx(x1, i1, x2, i2) = d (x1 + x2) mod k, and hx(x, i, 0, 0)
    = hx(0, 0, x, i) = x, and when (x, i) has a two-sided h-inverse
    (y, -i), which hinv lists.  hx = x1 + x2 gives the 2-groupoid of the
    crossed module Z/n -> Z/k, x -> dx, with trivial action."""
    g = [f"g{i}" for i in range(k)]
    cell = lambda x, i: f"{x % n}|{i % k}"
    pairs = [(x, i) for x in range(n) for i in range(k)]
    level1 = Groupoid(
        ["*"], g, dict.fromkeys(g, "*"), dict.fromkeys(g, "*"),
        {g[i]: g[-i % k] for i in range(k)}, {"*": g[0]},
        {(g[i], g[j]): g[(i + j) % k] for i in range(k) for j in range(k)})
    vertical = Groupoid(
        g, [cell(x, i) for x, i in pairs],
        {cell(x, i): g[i] for x, i in pairs},
        {cell(x, i): g[(d * x + i) % k] for x, i in pairs},
        {cell(x, i): cell(-x, d * x + i) for x, i in pairs},
        {g[i]: cell(0, i) for i in range(k)},
        {(cell(x1, d * x2 + i), cell(x2, i)): cell(x1 + x2, i)
         for x1 in range(n) for x2, i in pairs})
    return twogpd.TwoGroupoid(
        level1, vertical,
        {(cell(x1, i1), cell(x2, i2)): cell(hx(x1, i1, x2, i2), i1 + i2)
         for x1, i1 in pairs for x2, i2 in pairs},
        {cell(x, i): cell(next(y for y in range(n) if hx(x, i, y, -i % k) % n == 0), -i)
         for x, i in pairs})


# an involution of Z/5 that commutes with negation but is no automorphism,
# so that x1 + SWAP12(x2) has horizontal inverses and (W2) holds
SWAP12 = [0, 2, 1, 4, 3]
# i -> NEG_OFF_0[i] is no homomorphism, and NEG_OFF_0[-i] inverts NEG_OFF_0[i]
NEG_OFF_0 = [lambda x: x, lambda x: -x, lambda x: -x]
# L(j, (x, i)) = (LEFT_BY_BASE[j][i] x, i + j) on Z/5 over Z/3, R trivial:
# LEFT_BY_BASE[1] = (2, 4, 2) multiplies to 1 around the circle, so L is a
# left action by automorphisms with two-sided h-inverses, but the factor
# depends on the base 1-cell i, which R moves: R(L(g, b), k) != L(g, R(b, k))
LEFT_BY_BASE = [[1, 1, 1], [2, 4, 2], [3, 3, 4]]


@pytest.mark.parametrize("n, k, d, hx, law", [
    # Z/4 -> Z/2 with Z/2 acting by negation: no Peiffer identity, so
    # a *h b = R(a, h') . L(g, b) but not L(g', b) . R(a, h) in (D)
    (4, 2, 1, lambda x1, i1, x2, i2: x1 + (-1) ** i1 * x2, "InterchangeFailure"),
    # the same with the other whiskering order: only the first form of (D) fails
    (4, 2, 1, lambda x1, i1, x2, i2: x1 + (-1) ** (i1 + x1) * x2, "InterchangeFailure"),
    # L(g, -), then R(-, h), does not preserve vertical composition: (W1)
    (5, 2, 0, lambda x1, i1, x2, i2: x1 + (SWAP12[x2] if i1 else x2), "InterchangeFailure"),
    (5, 2, 0, lambda x1, i1, x2, i2: (SWAP12[x1] if i2 else x1) + x2, "InterchangeFailure"),
    # L(g, L(h, c)) != L(gh, c), then R(R(a, h), k) != R(a, hk): (W2)
    (3, 3, 0, lambda x1, i1, x2, i2: x1 + NEG_OFF_0[i1](x2), "HNonAssociative"),
    (3, 3, 0, lambda x1, i1, x2, i2: NEG_OFF_0[i2](x1) + x2, "HNonAssociative"),
    # the third form of (W2) alone: every other law the certificate reads holds
    (5, 3, 0, lambda x1, i1, x2, i2: x1 + LEFT_BY_BASE[i1][i2] * x2, "HNonAssociative"),
])
def test_check_2groupoid_matches_sweep_on_twisted_whiskers(n, k, d, hx, law):
    tg = cyclic_2groupoid(n, k, d, hx)
    assert twogpd._check_cells(tg)[0] == []
    assert law in {code for code, _, _ in assert_matches_reference(tg)}


def test_cyclic_2groupoid_of_a_crossed_module():
    tg = cyclic_2groupoid(4, 2, 1, lambda x1, i1, x2, i2: x1 + x2)
    assert assert_matches_reference(tg) == []


def test_check_2groupoid_matches_sweep_with_a_stray_hcomp_key():
    # "x" has the s2 and t2 of the cell c and all of its h-composites but is
    # no cell: the cell checks pass, the certificate refuses, and the sweep
    # must still list what the reference lists
    tg = cyclic_2groupoid(4, 2, 1, lambda x1, i1, x2, i2: x1 + x2)
    c = "0|0"
    hcomp = {}
    for (a, b), ab in tg.hcomp.items():
        for x in ({a, "x"} if a == c else {a}):
            for y in ({b, "x"} if b == c else {b}):
                hcomp[(x, y)] = ab
    vertical = raw_vertical(tg, src={**tg.s2, "x": tg.s2[c]}, tgt={**tg.t2, "x": tg.t2[c]})
    stray = twogpd.TwoGroupoid(tg.level1, vertical, hcomp, tg.hinv)
    cells, gens = twogpd._check_cells(stray)
    assert cells == []
    assert not twogpd._whiskering_certifies(stray, *gens)
    assert listed(twogpd.check_2groupoid(stray)) == listed(reference_laws(stray)) == []


def test_a_vertical_groupoid_off_the_1_cells_is_checked_on_them():
    # a validated vertical groupoid with an object that is no 1-cell: its
    # tables are checked on the 1-cells, as raw tables are, and the cell
    # on the stray object has ends outside them
    tg = from_groupoid(cyclic_groupoid(2))
    stray = unit_groupoid([*tg.g1, "zz"])
    assert stray.validated
    got = twogpd.check_2groupoid(twogpd.TwoGroupoid(tg.level1, stray, {}, {}))
    assert listed(got) == [("Level2:BadArrowEndpoints", ("(id,zz)",), "")]


def test_check_2groupoid_rejects_a_wrong_h_inverse():
    # (h0,g1) *h (h2,g1) = (h2,g0) runs between identity 1-cells but is not
    # the identity 2-cell (h0,g0), so (h2,g1) is no h-inverse of (h0,g1)
    tg = xmod.xmod_to_2groupoid(quotient_xmod(4, 2))
    assert tg.hcomp[("(h0,g1)", "(h2,g1)")] == "(h2,g0)"
    bad = twogpd.TwoGroupoid(tg.level1, tg.vertical, tg.hcomp,
                             {**tg.hinv, "(h0,g1)": "(h2,g1)"})
    assert ("BadHInverse", ("(h0,g1)", "(h2,g1)", "(h2,g0)"), "") in listed(
        twogpd.check_2groupoid(bad))
    assert twogpd.check_2groupoid(tg) == []


# -- whiskered 2-groupoids against the all-pairs hcomp -----------------------


def reference_hcomp(xm):
    """The horizontal composition of xmod_to_2groupoid(xm) by the all-pairs
    loop: (h, g) *h (h', g') = (h h'^{g^-1}, g g') for every pair of cells
    with t(g') = s(g), cells in the builder's order."""
    g, h = xm.g, xm.h
    cells = xmod.xmod_to_2groupoid(xm).parts[2]
    label = {parts: cell for cell, parts in cells.items()}
    hcomp = {}
    for a, (ha, ga) in cells.items():
        for b, (hb, gb) in cells.items():
            if g.tgt[gb] == g.src[ga]:
                hcomp[(a, b)] = label[(h.comp[(ha, xm.act(g.inv[ga], hb))],
                                       g.comp[(ga, gb)])]
    return hcomp


def oracle_crossed_modules():
    """The crossed modules of seeds 0-39 of random_crossed_module and those
    of the decompositions of seeds 0-19 of random_crossing."""
    out = [random_crossed_module(random.Random(seed)) for seed in range(40)]
    for seed in range(20):
        c = random_crossing(random.Random(seed))
        gprime, _, _ = decompose_crossing(c)
        out += [gprime, c.src, c.dst]
    return out


def test_whiskered_hcomp_is_the_all_pairs_table():
    sizes = set()
    for xm in oracle_crossed_modules():
        tg = xmod.xmod_to_2groupoid(xm)
        want = reference_hcomp(xm)
        assert isinstance(tg.hcomp, twogpd.WhiskeredHComp)
        assert dict(tg.hcomp) == want
        assert list(tg.hcomp) == list(want) and len(tg.hcomp) == len(want)
        assert all(((a, b) in tg.hcomp) == ((a, b) in want)
                   for a in tg.g2 for b in tg.g2)
        a = next(iter(tg.g2))
        assert a not in tg.hcomp and (a, a, a) not in tg.hcomp and None not in tg.hcomp
        assert tg.certified is not None
        sizes.add(len(tg.g2))
    assert max(sizes) >= 50 and len(sizes) >= 10


def reference_vertical_groupoid(xm):
    """The vertical groupoid's tables by the hand-written loops that built
    them before groupoid_of_parts: (cells, s2, t2, vinv, vunit, vcomp)."""
    g, h = xm.g, xm.h
    cells, label, s2, t2 = {}, {}, {}, {}
    for gg in g.arrows:
        for hh in h.fiber(g.tgt[gg]):
            a = pair(hh, gg)
            cells[a] = (hh, gg)
            label[(hh, gg)] = a
            s2[a] = gg
            t2[a] = g.comp[(xm.boundary[hh], gg)]
    vinv = {a: label[(h.inv[hh], t2[a])] for a, (hh, _) in cells.items()}
    vunit = {gg: label[(h.unit[g.tgt[gg]], gg)] for gg in g.arrows}
    by_t2 = {}
    for b in cells:
        by_t2.setdefault(t2[b], []).append(b)
    vcomp = {}
    for a, (ka, ga) in cells.items():
        for b in by_t2.get(ga, ()):
            kb, gb = cells[b]
            vcomp[(a, b)] = label[(h.comp[(ka, kb)], gb)]
    return cells, s2, t2, vinv, vunit, vcomp


def reference_cover_levels(g, cover):
    """The two levels of cover_2groupoid(g, cover) by the hand-written
    loops that built them before groupoid_of_parts, the all-pairs comp1
    loop included: ((objects, g1, s, t, inv1, unit1, comp1), (g2, s2, t2,
    vinv, vunit, vcomp)), each dict in the order the loops filled it."""
    idx = sorted(cover)
    objects = {pair(str(i), x): (str(i), x) for i in idx for x in sorted(cover[i])}
    g1, s, t, inv1 = {}, {}, {}, {}
    for i in idx:
        for j in idx:
            for gg in g.arrows:
                if g.tgt[gg] in cover[i] and g.src[gg] in cover[j]:
                    a = pair(str(i), gg, str(j))
                    g1[a] = (str(i), gg, str(j))
                    s[a] = pair(str(j), g.src[gg])
                    t[a] = pair(str(i), g.tgt[gg])
                    inv1[a] = pair(str(j), g.inv[gg], str(i))
    unit1 = {x: pair(i, g.unit[y], i) for x, (i, y) in objects.items()}
    comp1 = {}
    for a, (i, ga, j) in g1.items():
        for b, (j2, gb, k) in g1.items():
            if j == j2 and g.src[ga] == g.tgt[gb]:
                comp1[(a, b)] = pair(i, g.comp[(ga, gb)], k)
    cell = lambda i1, i2, gg, j1, j2: pair(i1, i2, gg, gg, j1, j2)
    g2, s2, t2, vinv = {}, {}, {}, {}
    for gg in g.arrows:
        iis = [str(i) for i in idx if g.tgt[gg] in cover[i]]
        jjs = [str(j) for j in idx if g.src[gg] in cover[j]]
        for i1 in iis:
            for i2 in iis:
                for j1 in jjs:
                    for j2 in jjs:
                        a = cell(i1, i2, gg, j1, j2)
                        g2[a] = (i1, i2, gg, gg, j1, j2)
                        s2[a] = pair(i1, gg, j1)
                        t2[a] = pair(i2, gg, j2)
                        vinv[a] = cell(i2, i1, gg, j2, j1)
    vunit = {a: cell(i, i, gg, j, j) for a, (i, gg, j) in g1.items()}
    by_t2 = {}
    for b, (k1, k2, gb, _, l1, l2) in g2.items():
        by_t2.setdefault((gb, k2, l2), []).append(b)
    vcomp = {}
    for a, (i1, i2, ga, _, j1, j2) in g2.items():
        for b in by_t2.get((ga, i1, j1), ()):
            k1, _, _, _, l1, _ = g2[b]
            vcomp[(a, b)] = cell(k1, i2, ga, l1, j2)
    return (objects, g1, s, t, inv1, unit1, comp1), (g2, s2, t2, vinv, vunit, vcomp)


def assert_level_is(level, arrows, src, tgt, inv, unit, comp):
    """level's tables are the oracle's, entry for entry and in insertion
    order, and its arrows are the oracle's."""
    assert set(level.arrows) == set(arrows)
    for got, want in ((level.src, src), (level.tgt, tgt), (level.inv, inv),
                      (level.unit, unit), (level.comp, comp)):
        assert list(got.items()) == list(want.items())


def test_vertical_groupoid_is_the_hand_written_loops():
    for xm in oracle_crossed_modules():
        cells, *tables = reference_vertical_groupoid(xm)
        vertical = xmod.vertical_groupoid(xm)
        assert vertical.parts == cells and list(vertical.parts) == list(cells)
        assert vertical.objects == xm.g.arrows
        assert_level_is(vertical, cells, *tables)
        tg = xmod.xmod_to_2groupoid(xm)
        assert tg.level1 is xm.g
        assert_level_is(tg.vertical, cells, *tables)
        assert tg.parts[2] is tg.vertical.parts


def test_cover_levels_are_the_hand_written_loops():
    rng = random.Random(37)
    sizes = set()
    for _ in range(20):
        g = random_groupoid(rng, max_objects=4, max_order=3)
        cover = random_cover(rng, g)
        (objects, g1, *level1), (g2, *vertical) = reference_cover_levels(g, cover)
        tg = cover_2groupoid(g, cover)
        assert tg.level1.objects == set(objects) and tg.vertical.objects == set(g1)
        assert_level_is(tg.level1, g1, *level1)
        assert_level_is(tg.vertical, g2, *vertical)
        assert tg.parts == {0: objects, 1: g1, 2: g2}
        sizes.add(len(g2))
    assert len(sizes) >= 8


def test_stored_unit_pairs_need_no_comparison_of_their_own():
    """Every stored hcomp entry 1_g *h 1_h of the 2-groupoids of the oracle
    crossed modules and of quotient_xmod replaced by each other cell with
    the same ends.  The certificate compares no such entry with 1_{gh},
    since (V) follows from the laws it checks: the check lists what the
    cell checks list or, past them, what the forced sweep lists, and never
    passes.  The two 54-cell 2-groupoids are left out: they pass too, but
    their 80 sweeps take half a minute."""
    z4 = quotient_xmod(4, 2)
    pulled, _ = xmod.pullback_xmod(z4, ["p", "q"], {"p": "*", "q": "*"})
    tried, swept = 0, 0
    for xm in oracle_crossed_modules() + [z4, quotient_xmod(6, 3), pulled]:
        tg = xmod.xmod_to_2groupoid(xm)
        if len(tg.g2) > 50:
            continue
        hcomp = dict(tg.hcomp)
        parallel = {}
        for c in tg.g2:
            parallel.setdefault((tg.s2[c], tg.t2[c]), []).append(c)
        for (g, h), gh in tg.comp1.items():
            for c in parallel[(gh, gh)]:
                if c == tg.vunit[gh]:
                    continue
                bad = twogpd.TwoGroupoid(tg.level1, tg.vertical,
                                         {**hcomp, (tg.vunit[g], tg.vunit[h]): c}, tg.hinv)
                cells = twogpd._check_cells(bad)[0]
                got = listed(twogpd.check_2groupoid(bad))
                assert got and got == listed(cells or twogpd._sweep_laws(bad))
                tried += 1
                swept += not cells
    assert tried >= 300 and swept >= 40


def whiskered(tg, side, a, k, c):
    """The whiskered tg, on its own levels, with one whisker replaced:
    R(a, k) or L(k, a) becomes c."""
    right, left = ({x: dict(row) for x, row in table.items()} for table in tg.whiskers)
    (right if side == "right" else left)[a][k] = c
    return twogpd.TwoGroupoid(tg.level1, tg.vertical, None, tg.hinv, (right, left))


def stored_twin(tg):
    return twogpd.TwoGroupoid(tg.level1, tg.vertical, dict(tg.hcomp), tg.hinv)


def test_whisker_corruptions_match_the_stored_twin(monkeypatch):
    """Single-entry corruptions of R or L by a cell with the same ends (all
    of them on the small 2-groupoids and at the unit cells) and by a cell
    with other ends (a sample): one that breaks the ends is a BadWhisker,
    one that keeps them is checked as the stored-hcomp twin is, and a
    corrupted unit whisker that passes the cell checks sends the check to
    the sweep."""
    sweeps = []
    sweep = twogpd._sweep_laws
    monkeypatch.setattr(twogpd, "_sweep_laws", lambda tg: sweeps.append(tg) or sweep(tg))
    rng = random.Random(31)
    z4 = quotient_xmod(4, 2)
    pulled, _ = xmod.pullback_xmod(z4, ["p", "q"], {"p": "*", "q": "*"})
    # (crossed module, the shares of the corruptions kept at unit cells
    # and at the others): all of them on the small ones
    xms = [(z4, (1, 1)), (quotient_xmod(6, 3), (1, 0.2)), (pulled, (0.5, 0.05))]
    xms += [(random_crossed_module(random.Random(seed)), (1, 1)) for seed in range(6)]
    codes, broken, kept, units = set(), 0, 0, 0
    for xm, shares in xms:
        tg = xmod.xmod_to_2groupoid(xm)
        units_cells = set(tg.vunit.values())
        for side, table in zip(("right", "left"), tg.whiskers):
            for a, row in table.items():
                for k, value in row.items():
                    for c in sorted(tg.g2):
                        if c == value:
                            continue
                        same_ends = (tg.s2[c], tg.t2[c]) == (tg.s2[value], tg.t2[value])
                        if rng.random() > (0.03 if not same_ends else
                                           shares[a not in units_cells]):
                            continue
                        bad = whiskered(tg, side, a, k, c)
                        del sweeps[:]
                        got = listed(twogpd.check_2groupoid(bad))
                        if not same_ends:
                            broken += 1
                            assert got == [("BadWhisker", (a, k, c), side)]
                            continue
                        kept += 1
                        assert got == listed(twogpd.check_2groupoid(stored_twin(bad)))
                        codes.update(code for code, _, _ in got)
                        if a in units_cells and twogpd._check_cells(bad)[0] == []:
                            # past the cell checks, which read R(a, 1) and
                            # L(1, a), the certificate must decline
                            units += 1
                            assert sweeps[:1] == [bad] and got
    assert broken >= 100 and kept >= 100 and units >= 10
    assert codes >= {"HNonAssociative", "InterchangeFailure", "BadHUnit"}


def test_whisker_tables_of_the_wrong_shape_are_bad_whiskers():
    tg = xmod.xmod_to_2groupoid(quotient_xmod(4, 2))
    right, left = tg.whiskers
    a = "(h1,g0)"
    rows = ({**right, "stray": right[a]}, {x: row for x, row in left.items() if x != a})

    def missing_one(table):
        out = {x: dict(row) for x, row in table.items()}
        del out[a]["g1"]
        return out

    for whiskers, want in [
            (rows, [(("stray",), "right"), ((a,), "left")]),
            ((missing_one(right), left), [((a,), "right")]),
            ((right, missing_one(left)), [((a,), "left")])]:
        bad = twogpd.TwoGroupoid(tg.level1, tg.vertical, None, tg.hinv, whiskers)
        got = twogpd.check_2groupoid(bad)
        assert {v.code for v in got} == {"BadWhisker"}
        assert [(v.witness, v.detail) for v in got] == want


# -- check_strict_hom2 against the direct sweep ------------------------------


def reference_hom_laws(f):
    """check_strict_hom2's vcomp and hcomp loops before the certificate:
    every entry of both tables of the domain."""
    d, c = f.dom, f.cod
    violations = []
    for (a, b), ab in d.vcomp.items():
        if c.vcomp.get((f.m2[a], f.m2[b])) != f.m2[ab]:
            violations.append(Violation("NotFunctorial", (a, b), "vcomp"))
    for (a, b), ab in d.hcomp.items():
        if c.hcomp.get((f.m2[a], f.m2[b])) != f.m2[ab]:
            violations.append(Violation("NotFunctorial", (a, b), "hcomp"))
    return violations


IMAGE_CHECKS = {"BadObjectImage", "BadArrowImage", "BadCellImage"}


def assert_hom_matches_reference(f):
    """check_strict_hom2 lists the earlier checks and then what the direct
    sweep lists, in the same order; on certified ends with the earlier
    checks passing, the certificate holds exactly when the sweep finds
    nothing.  Returns the sweep's list."""
    got = listed(twogpd.check_strict_hom2(f))
    earlier = [v for v in got if v[2] not in ("vcomp", "hcomp")]
    if any(code in IMAGE_CHECKS or detail in ("level-1 endpoints", "s2/t2")
           for code, _, detail in earlier):
        assert got == earlier
        return []
    laws = listed(reference_hom_laws(f))
    assert got == earlier + laws
    if f.dom.certified and f.cod.certified and not earlier:
        # the law bodies find a failing generator pair exactly when the
        # sweep finds a failure, and each one they find is the sweep's
        failures = generator_failures(f)
        assert (failures == []) == (laws == [])
        assert {("NotFunctorial", ab, law) for law, ab in failures} <= set(laws)
    return laws


def generator_failures(f):
    """The failing generator pairs of check_strict_hom2's certificate, as
    (law, pair): its law bodies run on the generator pairs of f.dom, which
    are entries of the law's table."""
    out = []
    for law, pairs in twogpd._generator_pairs(f.dom):
        assert set(pairs) <= set(getattr(f.dom, law))
        out += [(law, ab) for ab in twogpd._unpreserved(f, law, pairs)]
    return out


def generated_homs():
    out = [identity_hom2(tg) for tg in generated_2groupoids()]
    for seed in range(8):
        c = random_crossed_extension(random.Random(seed))
        _, chi_left, chi_right = decompose_crossing(c)
        out += [xmod.hom2_from_xmorphism(chi)[0] for chi in (chi_left, chi_right)]
    for tg in generated_2groupoids()[:12]:
        out += list(xmod.roundtrip_iso(tg))
    return out


def with_cell_map(f, m2):
    return twogpd.StrictHom2(f.dom, f.cod, f.m0, f.m1, m2)


def test_check_strict_hom2_matches_sweep_on_generated():
    homs = generated_homs()
    assert all(f.dom.certified and f.cod.certified for f in homs)
    assert sum(len(f.dom.g0) > 1 for f in homs) >= 10
    for f in homs:
        assert assert_hom_matches_reference(f) == []


def test_check_strict_hom2_matches_sweep_on_corruptions():
    """Single m2 entries replaced by another cell of the codomain with the
    same s2 and t2, so that the earlier checks pass and the composite laws
    decide."""
    rng = random.Random(19)
    details, tried = set(), 0
    for f in generated_homs():
        parallel = {}
        for c in sorted(f.cod.g2):
            parallel.setdefault((f.cod.s2[c], f.cod.t2[c]), []).append(c)
        for a in rng.sample(sorted(f.m2), min(12, len(f.m2))):
            b = f.m2[a]
            others = [c for c in parallel[(f.cod.s2[b], f.cod.t2[b])] if c != b]
            if others:
                tried += 1
                laws = assert_hom_matches_reference(
                    with_cell_map(f, {**f.m2, a: rng.choice(others)}))
                details.update(detail for _, _, detail in laws)
    assert tried >= 200
    assert details == {"vcomp", "hcomp"}


def test_hom_certificate_needs_both_ends_certified_on_raw_tables():
    # an hcomp entry of two non-identity cells corrupted in raw tables that
    # never passed check_2groupoid: the certificate reads only whiskers, so
    # it would pass, and the sweep must run and list the entry
    tg = xmod.xmod_to_2groupoid(quotient_xmod(4, 2))
    assert tg.certified is not None
    key = next((a, b) for (a, b) in sorted(tg.hcomp)
               if a not in tg.vunit.values() and b not in tg.vunit.values())
    value = tg.hcomp[key]
    other = next(c for c in sorted(tg.g2) if c != value and
                 (tg.s2[c], tg.t2[c]) == (tg.s2[value], tg.t2[value]))
    raw = corrupted(tg, "hcomp", key, other)
    assert raw.certified is None
    ident = ({x: x for x in tg.g0}, {g: g for g in tg.g1}, {a: a for a in tg.g2})
    into, out_of = twogpd.StrictHom2(tg, raw, *ident), twogpd.StrictHom2(raw, tg, *ident)
    assert generator_failures(into) == []
    for f in (into, out_of):
        laws = assert_hom_matches_reference(f)
        assert ("NotFunctorial", key, "hcomp") in laws


def test_hom_certificate_skips_cover_ends():
    rng = random.Random(23)
    loose = 0
    for _ in range(8):
        g = random_groupoid(rng, max_objects=3, max_order=2)
        f, dom, cod = cover_projection(g, random_cover(rng, g))
        loose += not dom.strict_bigons
        # a cover with one chart has strict bigons and is certified
        assert (dom.certified is not None) == dom.strict_bigons
        assert cod.certified is not None
        if dom.strict_bigons:
            continue
        for hom in (f, identity_hom2(dom)):
            assert assert_hom_matches_reference(hom) == []
        # a raw copy of the cover with one hcomp entry moved to another cell
        key = sorted(dom.hcomp)[len(dom.hcomp) // 2]
        other = next(c for c in sorted(dom.g2) if c != dom.hcomp[key])
        raw = corrupted(dom, "hcomp", key, other)
        ident = ({x: x for x in dom.g0}, {a: a for a in dom.g1}, {a: a for a in dom.g2})
        for hom in (twogpd.StrictHom2(dom, raw, *ident), twogpd.StrictHom2(raw, dom, *ident)):
            assert ("NotFunctorial", key, "hcomp") in assert_hom_matches_reference(hom)
    assert loose >= 4


def relabelled_2groupoid(r, tg):
    level1 = Groupoid(map(r, tg.g0), map(r, tg.g1),
                      *(r.table(t) for t in (tg.s, tg.t, tg.inv1, tg.unit1, tg.comp1)))
    vertical = Groupoid(level1.arrows, map(r, tg.g2),
                        *(r.table(t) for t in (tg.s2, tg.t2, tg.vinv, tg.vunit, tg.vcomp)))
    return twogpd.TwoGroupoid(level1, vertical, r.table(tg.hcomp), r.table(tg.hinv))


def test_2groupoid_and_hom_verdicts_do_not_depend_on_the_labels():
    rng = random.Random(29)
    for seed, f in enumerate(generated_homs()[::3]):
        parallel = {}
        for c in sorted(f.cod.g2):
            parallel.setdefault((f.cod.s2[c], f.cod.t2[c]), []).append(c)
        a = rng.choice(sorted(f.m2))
        others = [c for c in parallel[(f.cod.s2[f.m2[a]], f.cod.t2[f.m2[a]])] if c != f.m2[a]]
        for m2 in [f.m2] + [{**f.m2, a: c} for c in others[:1]]:
            r = Relabel(seed)
            dom, cod = relabelled_2groupoid(r, f.dom), relabelled_2groupoid(r, f.cod)
            for tg, renamed in ((f.dom, dom), (f.cod, cod)):
                assert Counter(v.code for v in twogpd.check_2groupoid(renamed)) == \
                    Counter(v.code for v in twogpd.check_2groupoid(tg))
            assert dom.certified and cod.certified
            renamed = twogpd.StrictHom2(dom, cod, *(r.table(t) for t in (f.m0, f.m1, m2)))
            want = Counter(v.code for v in twogpd.check_strict_hom2(with_cell_map(f, m2)))
            assert Counter(v.code for v in twogpd.check_strict_hom2(renamed)) == want
            assert_hom_matches_reference(renamed)


@pytest.mark.parametrize("whisker", ["left", "right"])
def test_hom_certificate_checks_both_whiskers(whisker):
    # Z/3 rotates the three involutions of V4, and f swaps two of them on
    # the cells over each 1-cell k: the same two everywhere, so that f
    # preserves "." and the right whiskers but not the left ones, which act
    # through the rotation; or the swap conjugated by the rotation of k,
    # so that f preserves the left whiskers but not the right ones
    g = cyclic_groupoid(3, prefix="g")
    v4 = as_group_bundle(group_as_groupoid(range(4), lambda a, b: a ^ b, lambda a: a,
                                           0, prefix="v"))
    rotate = [{f"v{a}": f"v{[0, 2, 3, 1][a]}" for a in range(4)}]
    rotate = [{h: h for h in rotate[0]}, rotate[0], {h: rotate[0][r] for h, r in rotate[0].items()}]
    act = {(f"g{k}", h): rotate[k][h] for k in range(3) for h in rotate[0]}
    tg = xmod.xmod_to_2groupoid(xmod.module_xmod(g, v4, validate_action(g, v4, act)))
    swap = {"v0": "v0", "v1": "v2", "v2": "v1", "v3": "v3"}
    back = [{r: h for h, r in rot.items()} for rot in rotate]
    over = {f"g{k}": (swap if whisker == "left" else
                      {h: back[k][swap[rotate[k][h]]] for h in swap}) for k in range(3)}
    label = {parts: cell for cell, parts in tg.parts[2].items()}
    f = twogpd.StrictHom2(tg, tg, {x: x for x in tg.g0}, {k: k for k in tg.g1},
                          {cell: label[(over[k][h], k)] for cell, (h, k) in tg.parts[2].items()})
    assert tg.certified is not None
    laws = assert_hom_matches_reference(f)
    assert laws and {detail for _, _, detail in laws} == {"hcomp"}
