import os
import random

import pytest

from xmodforge import gdf, twogpd, xmod
from xmodforge.errors import ValidationFailure, Violation
from xmodforge.fingrpd import (Groupoid, as_group_bundle, cyclic_groupoid,
                               pair_groupoid, trivial_action, unit_groupoid,
                               unpair)
from xmodforge.generators import random_cover, random_crossed_module, random_groupoid
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
    broken = twogpd.TwoGroupoid(tg.g0, tg.g1, tg.s, tg.t, tg.inv1, tg.unit1,
                                tg.comp1, tg.g2, tg.s2, tg.t2, tg.vinv,
                                tg.vunit, tg.vcomp, bad, tg.hinv)
    violations = twogpd.check_2groupoid(broken)
    assert any(v.code in ("InterchangeFailure", "BadHComposite", "HNonAssociative",
                          "BadHInverse") for v in violations)


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
    for g, h in tg.level1().composable_pairs():
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
    for g, h in tg.level1().composable_pairs():
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
    cells = twogpd._check_cells(tg)
    if cells:
        assert got == listed(cells)
        return []
    laws = listed(reference_laws(tg))
    assert got == laws
    if tg.strict_bigons:
        assert twogpd._whiskering_certifies(tg) == (laws == [])
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


def corrupted(tg, table, key, value):
    tables = {name: dict(getattr(tg, name)) for name in ("vunit", "vcomp", "hcomp")}
    tables[table][key] = value
    return twogpd.TwoGroupoid(tg.g0, tg.g1, tg.s, tg.t, tg.inv1, tg.unit1,
                              tg.comp1, tg.g2, tg.s2, tg.t2, tg.vinv,
                              tables["vunit"], tables["vcomp"], tables["hcomp"],
                              tg.hinv)


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
    return twogpd.TwoGroupoid(
        ["*"], g, dict.fromkeys(g, "*"), dict.fromkeys(g, "*"),
        {g[i]: g[-i % k] for i in range(k)}, {"*": g[0]},
        {(g[i], g[j]): g[(i + j) % k] for i in range(k) for j in range(k)},
        [cell(x, i) for x, i in pairs],
        {cell(x, i): g[i] for x, i in pairs},
        {cell(x, i): g[(d * x + i) % k] for x, i in pairs},
        {cell(x, i): cell(-x, d * x + i) for x, i in pairs},
        {g[i]: cell(0, i) for i in range(k)},
        {(cell(x1, d * x2 + i), cell(x2, i)): cell(x1 + x2, i)
         for x1 in range(n) for x2, i in pairs},
        {(cell(x1, i1), cell(x2, i2)): cell(hx(x1, i1, x2, i2), i1 + i2)
         for x1, i1 in pairs for x2, i2 in pairs},
        {cell(x, i): cell(next(y for y in range(n) if hx(x, i, y, -i % k) % n == 0), -i)
         for x, i in pairs})


# an involution of Z/5 that commutes with negation but is no automorphism,
# so that x1 + SWAP12(x2) has horizontal inverses and (W2) holds
SWAP12 = [0, 2, 1, 4, 3]
# i -> NEG_OFF_0[i] is no homomorphism, and NEG_OFF_0[-i] inverts NEG_OFF_0[i]
NEG_OFF_0 = [lambda x: x, lambda x: -x, lambda x: -x]


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
])
def test_check_2groupoid_matches_sweep_on_twisted_whiskers(n, k, d, hx, law):
    tg = cyclic_2groupoid(n, k, d, hx)
    assert twogpd._check_cells(tg) == []
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
    stray = twogpd.TwoGroupoid(tg.g0, tg.g1, tg.s, tg.t, tg.inv1, tg.unit1,
                               tg.comp1, tg.g2, {**tg.s2, "x": tg.s2[c]},
                               {**tg.t2, "x": tg.t2[c]}, tg.vinv, tg.vunit,
                               tg.vcomp, hcomp, tg.hinv)
    assert twogpd._check_cells(stray) == []
    assert not twogpd._whiskering_certifies(stray)
    assert listed(twogpd.check_2groupoid(stray)) == listed(reference_laws(stray)) == []


def test_check_2groupoid_rejects_a_wrong_h_inverse():
    # (h0,g1) *h (h2,g1) = (h2,g0) runs between identity 1-cells but is not
    # the identity 2-cell (h0,g0), so (h2,g1) is no h-inverse of (h0,g1)
    tg = xmod.xmod_to_2groupoid(quotient_xmod(4, 2))
    assert tg.hcomp[("(h0,g1)", "(h2,g1)")] == "(h2,g0)"
    bad = twogpd.TwoGroupoid(tg.g0, tg.g1, tg.s, tg.t, tg.inv1, tg.unit1,
                             tg.comp1, tg.g2, tg.s2, tg.t2, tg.vinv, tg.vunit,
                             tg.vcomp, tg.hcomp, {**tg.hinv, "(h0,g1)": "(h2,g1)"})
    assert ("BadHInverse", ("(h0,g1)", "(h2,g1)", "(h2,g0)"), "") in listed(
        twogpd.check_2groupoid(bad))
    assert twogpd.check_2groupoid(tg) == []
