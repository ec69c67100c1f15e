import random

import pytest

from xmodforge import bibundle as bb
from xmodforge import crossing as cr
from xmodforge import exchanger as ex
from xmodforge import fingrpd, generators, xmod
from xmodforge.errors import NotComposable, ValidationFailure, XModForgeError
from xmodforge.fingrpd import cyclic_groupoid, trivial_bundle, trivial_action, unpair
from xmodforge.util import pair as mkpair, strip_class

import exchanger_oracles as oracle


@pytest.fixture
def sc2(c2):
    return xmod.inertia_xmod(c2)


@pytest.fixture
def o_sc2(sc2):
    return cr.trivial_xext(sc2)


@pytest.fixture
def i_o(o_sc2):
    return ex.trivial_exchanger(o_sc2)


def two_point_pullback(o_sc2):
    return ex.pullback_homomorphism(
        o_sc2, ["z0", "z1"],
        {"z0": sorted(o_sc2.m.objects)[0], "z1": sorted(o_sc2.m.objects)[0]})


def test_identity_hom_is_equivalence(o_sc2):
    hom = ex.identity_homomorphism(o_sc2)
    assert ex.check_xext_homomorphism(hom) == []
    assert ex.is_xext_equivalence(hom)


def test_pullback_hom_is_equivalence(o_sc2):
    hom = two_point_pullback(o_sc2)
    assert ex.is_xext_equivalence(hom)


def test_collapsed_phi_fails_scm2(o_sc2):
    hom = ex.identity_homomorphism(o_sc2)
    bad_amap = {mm: o_sc2.m.unit[o_sc2.m.src[mm]] if
                o_sc2.m.src[mm] == o_sc2.m.tgt[mm] else mm
                for mm in o_sc2.m.arrows}
    bad_phi = fingrpd.GroupoidMorphism(o_sc2.m, o_sc2.m,
                                       {x: x for x in o_sc2.m.objects}, bad_amap)
    bad = ex.XExtHomomorphism(o_sc2, o_sc2, hom.chi1, bad_phi, hom.chi2)
    violations = ex.check_xext_homomorphism(bad)
    assert violations
    codes = {v.code for v in violations}
    assert codes & {"SCM1Failure", "SCM2Failure", "PrismFaceFailure",
                    "Phi:NotFunctorial"}


def test_unit_equivalence_degenerate_point():
    u = xmod.unit_xmod(fingrpd.unit_groupoid(["x", "y"]))
    a = cr.trivial_xext(u)
    hom = ex.unit_equivalence(a)
    assert ex.is_xext_equivalence(hom)
    # M has only unit arrows: Phi^M is the identity up to pair labels
    for arrow, img in hom.phi.amap.items():
        assert arrow == img


def test_unit_equivalence_o_sc2(o_sc2):
    hom = ex.unit_equivalence(o_sc2)
    assert ex.is_xext_equivalence(hom)


def test_trivial_exchanger_is_exchanger(i_o):
    assert ex.check_exchanger(i_o) == []


def test_p_phi_of_equivalence_is_exchanger(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    assert ex.check_exchanger(p) == []


def collapse_candidate():
    # collapse morphism: Z_f for f: A x| C2 -> C2 kills the H1-action freeness
    c2 = cyclic_groupoid(2)
    bundle = trivial_bundle(["*"], cyclic_groupoid(2, prefix="a"))
    module = xmod.module_xmod(c2, bundle, trivial_action(c2, bundle))
    a = cr.trivial_xext(module)
    b = cr.trivial_xext(xmod.unit_xmod(c2))
    fmap = {}
    for mm in a.m.arrows:
        h, g = unpair(mm)
        fmap[mm] = mkpair(b.dst.h.unit["*"], g)
    f = fingrpd.validate_groupoid_morphism(a.m, b.m, {"*": "*"}, fmap)
    return ex.SemiExchanger(a, b, bb.bibundle_from_hom(f))


def test_e1_failure_freeness():
    violations = ex.check_semi_exchanger(collapse_candidate())
    assert any(v.code == "E1Failure" and v.witness[0] == "left-not-free"
               for v in violations)


def test_only_a_validated_exchanger_skips_e1_e2(o_sc2, monkeypatch):
    # a raw semi-exchanger is checked again, so one that fails E1 does not
    # invert; one that validate_semi_exchanger passed is not
    raw = collapse_candidate()
    assert not raw.validated
    assert "E1Failure" in {v.code for v in ex.check_exchanger(raw)}
    with pytest.raises(ValidationFailure) as failed:
        ex.exchanger_inverse(raw)
    assert "E1Failure" in failed.value.codes
    p = ex.exchanger_from_homomorphism(two_point_pullback(o_sc2))
    assert p.validated

    def again(_):
        pytest.fail("E1/E2 checked again on a validated exchanger")

    monkeypatch.setattr(ex, "check_semi_exchanger", again)
    assert ex.check_exchanger(p) == []
    ex.exchanger_inverse(p)


def test_e1_failure_orbit_mismatch(o_sc2):
    # twist the right action by the swap (a,g) -> (g,a) of the Klein middle
    m = o_sc2.m
    swap = {}
    for mm in m.arrows:
        h, g = unpair(mm)
        swap[mm] = mkpair("c" + g[1:], "c" + h[1:])
    ract = {(z, n): m.comp[(z, swap[n])] for z in m.arrows
            for n in m.arrows_to(m.src[z])}
    p = bb.validate_bibundle(m, m, m.arrows,
                             {z: m.tgt[z] for z in m.arrows},
                             {z: m.src[z] for z in m.arrows},
                             {(g, z): m.comp[(g, z)] for z in m.arrows
                              for g in m.arrows_from(m.tgt[z])}, ract)
    cand = ex.SemiExchanger(o_sc2, o_sc2, p)
    violations = ex.check_semi_exchanger(cand)
    assert any("orbit-mismatch" in str(v.witness) for v in violations)


def test_exchanger_from_identity_hom_is_trivial(o_sc2, i_o):
    hom = ex.identity_homomorphism(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    # P_Phi of the identity is I_M up to the (x, m) labeling
    assert bb.search_equivariant_iso(p.p, i_o.p) is not None


def test_vertical_compose_unit_laws(i_o):
    assoc, r_p, l_p = ex.structural_isos(i_o, i_o, i_o)
    assert r_p.is_bijective() and l_p.is_bijective() and assoc.is_bijective()


def test_structural_isos_composes_each_pair_once(i_o, monkeypatch):
    # six composites: (P.P).P and P.(P.P), two each, and I.P, P.I
    calls = []
    compose = bb.compose_bibundles
    monkeypatch.setattr(bb, "compose_bibundles",
                        lambda p, q: calls.append((p, q)) or compose(p, q))
    assoc, r_p, l_p = ex.structural_isos(i_o, i_o, i_o)
    assert len(calls) == 6
    monkeypatch.undo()
    # the associator read off a composite of its own: [[p, q], t] for [p, [q, t]]
    outer = bb.compose_bibundles(i_o.p, i_o.p)
    left = ex.vertical_compose(ex.vertical_compose(i_o, i_o), i_o)
    want = {}
    for c in assoc.src.p.space:
        pz, inner = unpair(strip_class(c))
        qz, tz = unpair(strip_class(inner))
        want[c] = left.p.pair_class[mkpair(outer.pair_class[mkpair(pz, qz)], tz)]
    assert assoc.eta == want
    assert r_p.eta == {c: i_o.p.lact[unpair(strip_class(c))] for c in r_p.src.p.space}
    assert l_p.eta == {c: i_o.p.ract[unpair(strip_class(c))] for c in l_p.src.p.space}


def test_exchanger_inverse_witnesses(i_o):
    pbar, m1, m2 = ex.exchanger_inverse(i_o)
    assert m1.is_bijective() and m2.is_bijective()
    assert ex.check_exchanger(pbar) == []


def test_inverse_of_trivial_is_trivial_up_to_inv(i_o, o_sc2):
    pbar, _, _ = ex.exchanger_inverse(i_o)
    # Ibar = I via p -> p^-1
    eta = {p: o_sc2.m.inv[p] for p in pbar.p.space}
    mor = ex.validate_exchanger_morphism(pbar, ex.trivial_exchanger(o_sc2), eta)
    assert mor.is_bijective()


def test_double_inverse_identity(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    pbar, _, _ = ex.exchanger_inverse(p)
    pbarbar, _, _ = ex.exchanger_inverse(pbar)
    assert pbarbar.p.lact == p.p.lact and pbarbar.p.ract == p.p.ract


def test_exchanger_decompose_trivial(i_o, o_sc2):
    pext, hom_a, hom_b = ex.exchanger_decompose(i_o)
    assert ex.is_xext_equivalence(hom_a)
    assert ex.is_xext_equivalence(hom_b)
    # P for I_M is the pullback of A along t on the middle groupoid
    pb = cr.pullback_crossing(ex.same_base_form(o_sc2), sorted(o_sc2.m.arrows),
                              {mm: o_sc2.m.tgt[mm] for mm in o_sc2.m.arrows})
    assert len(pext.m.objects) == len(pb.m.objects)
    assert fingrpd.search_groupoid_iso(pext.m, pb.m) is not None


def test_exchanger_decompose_p_phi(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    pext, hom_a, hom_b = ex.exchanger_decompose(p)
    assert ex.is_xext_equivalence(hom_a)
    assert ex.is_xext_equivalence(hom_b)


def test_horizontal_diamond_trivial(i_o, o_sc2):
    hd = ex.horizontal_diamond(i_o, i_o)
    i_d = ex.trivial_exchanger(cr.diamond(o_sc2, o_sc2))
    assert bb.search_equivariant_iso(hd.p, i_d.p) is not None
    assert ex.check_exchanger(hd) == []


def test_horizontal_diamond_exchanger_closure(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)
    # normalize to a same-base column by decomposing through its extension:
    # the pullback hom's source is same-base over Z, target over M^0; the
    # diamond needs same-base columns, so use I's with matching columns
    i1 = ex.trivial_exchanger(o_sc2)
    hd = ex.horizontal_diamond(i1, i1)
    ok, _ = bb.is_morita(hd.p)
    assert ok


def test_horizontal_diamond_rejects_mismatched_bases(o_sc2):
    hom = two_point_pullback(o_sc2)
    p = ex.exchanger_from_homomorphism(hom)  # source over Z, target over M^0
    with pytest.raises(NotComposable):
        ex.horizontal_diamond(p, p)


def test_eta_square(i_o):
    sq = ex.eta_square(i_o, i_o, i_o, i_o)
    assert sq.is_bijective()


def test_morphism_compositions_identity(i_o):
    eta = ex.identity_morphism_of(i_o)
    for kind in ("horizontal", "vertical", "spatial"):
        out = ex.morphism_compose(kind, eta, eta)
        assert out.is_bijective()


def test_interchange_of_morphism_compositions(i_o):
    eta = ex.identity_morphism_of(i_o)
    left = ex.morphism_compose("horizontal",
                               ex.morphism_compose("spatial", eta, eta),
                               ex.morphism_compose("spatial", eta, eta))
    right = ex.morphism_compose("spatial",
                                ex.morphism_compose("horizontal", eta, eta),
                                ex.morphism_compose("horizontal", eta, eta))
    assert left.eta == right.eta


def test_actions_commute_lemma(i_o):
    assert ex.actions_commute(i_o) == []


def test_unit_witnesses_trivial(o_sc2):
    w = ex.unit_witnesses(o_sc2)
    for key in ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit", "mu_Lbar_to_unit"):
        assert w[key].is_bijective()
    assert all(not v for v in w["reports"].values())


def test_unit_witnesses_from_identity_morphism(sc2):
    m = cr.crossing_from_strict(xmod.identity_xmorphism(sc2))
    w = ex.unit_witnesses(m)
    for key in ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit", "mu_Lbar_to_unit"):
        assert w[key].is_bijective()


def test_unit_witnesses_property(rng):
    from xmodforge.generators import random_crossing
    for _ in range(5):
        m = random_crossing(rng)
        w = ex.unit_witnesses(m)
        assert all(w[k].is_bijective() for k in
                   ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit",
                    "mu_Lbar_to_unit"))


def test_generated_exchanger_inverse_property(rng):
    from xmodforge.generators import random_exchanger
    for _ in range(5):
        p = random_exchanger(rng)
        pbar, m1, m2 = ex.exchanger_inverse(p)
        assert m1.is_bijective() and m2.is_bijective()


def test_pphi_orbit_spaces(o_sc2):
    hom = two_point_pullback(o_sc2)
    # _check_pphi_orbits asserts the explicit orbit-space bijections
    p = ex.exchanger_from_homomorphism(hom)
    assert ex.check_semi_exchanger(p) == []


def central_translation(i_o, o_sc2):
    """A non-identity exchanger morphism I -> I: right translation by the
    central loop of the Klein middle groupoid."""
    m = o_sc2.m
    c = mkpair("c1", "c0")
    eta = {p: m.comp[(p, c)] if m.src[p] == m.src[c] else m.comp[(p, c)]
           for p in i_o.p.space}
    return ex.validate_exchanger_morphism(i_o, i_o, eta)


def test_thm_2cat_interchange_nonidentity(i_o, o_sc2):
    # (eta1 *h zeta1) *v (eta2 *h zeta2) == (eta1 *v eta2) *h (zeta1 *v zeta2)
    eta1 = central_translation(i_o, o_sc2)
    zeta1 = ex.identity_morphism_of(i_o)
    eta2 = ex.identity_morphism_of(i_o)
    zeta2 = ex.identity_morphism_of(i_o)
    lhs = ex.morphism_compose(
        "vertical", ex.morphism_compose("horizontal", eta1, zeta1),
        ex.morphism_compose("horizontal", eta2, zeta2))
    rhs = ex.morphism_compose(
        "horizontal", ex.morphism_compose("vertical", eta1, eta2),
        ex.morphism_compose("vertical", zeta1, zeta2))
    assert lhs.eta == rhs.eta
    assert lhs.eta != ex.identity_morphism_of(lhs.src).eta



def _unchecked(e):
    """e over an unchecked copy of its carrier, which keeps no division."""
    p = e.p
    return ex.SemiExchanger(e.source, e.target, bb.Bibundle(
        p.left, p.right, p.space, p.lmom, p.rmom, p.lact, p.ract))


def _quotient_tables(zb):
    return (zb.space, zb.lmom, zb.rmom, list(zb.lact.items()), list(zb.ract.items()),
            zb.parts, zb.pair_class)


def test_generator_gluing_matches_gluing_along_every_arrow():
    # validated carriers are glued along generators, unchecked copies of
    # them along every arrow of N and every (h2, h5): the same quotients
    built = diamonds = 0
    for seed in range(30):
        e = generators.random_exchanger(random.Random(seed))
        ebar = ex.exchanger_inverse(e)[0]
        for p, q in ((e, ebar), (ebar, e), (e, e)):
            if p.target is not q.source:
                continue
            assert _quotient_tables(ex.vertical_compose(p, q).p) == \
                _quotient_tables(ex.vertical_compose(_unchecked(p), _unchecked(q)).p)
            built += 1
        try:
            want = ex.horizontal_diamond(_unchecked(e), _unchecked(e))
        except XModForgeError as err:
            with pytest.raises(type(err)) as got:
                ex.horizontal_diamond(e, e)
            assert str(got.value) == str(err)
            continue
        assert _quotient_tables(ex.horizontal_diamond(e, e).p) == _quotient_tables(want.p)
        diamonds += 1
    assert built >= 60 and diamonds >= 8


def _eta_square_rebuilding_every_diamond(p1, p2, q1, q2):
    # eta_square as it reads without shared diamonds: each horizontal
    # diamond builds both of its diamonds of crossings
    dp, dq = ex.horizontal_diamond(p1, p2), ex.horizontal_diamond(q1, q2)
    lhs = ex.vertical_compose(dp, dq)
    bq1, bq2 = ex.vertical_compose(p1, q1), ex.vertical_compose(p2, q2)
    rhs = ex.horizontal_diamond(bq1, bq2)
    eta = {}
    for c in lhs.p.space:
        dmc, dqc = lhs.p.parts[c]
        (pz1, pz2), (qz1, qz2) = dp.p.parts[dmc], dq.p.parts[dqc]
        eta[c] = rhs.p.pair_class[mkpair(bq1.p.pair_class[mkpair(pz1, qz1)],
                                         bq2.p.pair_class[mkpair(pz2, qz2)])]
    return lhs, rhs, eta


def test_shared_diamonds_give_the_same_squares():
    # horizontal_diamond over given diamonds of crossings, and eta_square,
    # which shares its three, against building every diamond again
    squares = 0
    for seed in range(40):
        e = generators.random_exchanger(random.Random(seed))
        try:
            want = ex.horizontal_diamond(e, e)
        except XModForgeError:
            continue
        given = (cr.diamond(e.source, e.source), cr.diamond(e.target, e.target))
        got = ex.horizontal_diamond(e, e, given)
        assert got.source is given[0] and got.target is given[1]
        assert _quotient_tables(got.p) == _quotient_tables(want.p)
        if len(e.p.space) <= 8:
            _assert_same_square((e, e, e, e))
            squares += 1
    # R, L: A <> O => A and their inverses run between different crossings
    for seed in range(8):
        c = generators.random_crossed_extension(random.Random(seed), max_objects=2,
                                                max_middle=8)
        w = ex.unit_witnesses(c)
        for p, q in ((w["R"], w["Rbar"]), (w["L"], w["Lbar"])):
            assert p.source is not p.target and q.source is p.target
            _assert_same_square((p, p, q, q))
            squares += 1
    assert squares >= 24


def _assert_same_square(exchangers):
    lhs, rhs, eta = _eta_square_rebuilding_every_diamond(*exchangers)
    sq = ex.eta_square(*exchangers)
    assert sq.eta == eta and sq.is_bijective()
    for got, want in ((sq.src, lhs), (sq.dst, rhs)):
        assert _quotient_tables(got.p) == _quotient_tables(want.p)
        for end in ("source", "target"):
            g, w = getattr(got, end).m, getattr(want, end).m
            assert (list(g.arrows), g.comp) == (list(w.arrows), w.comp)


# -- each construction written once, against the loops it replaced ------------


def _exchanger_tables(e):
    p = e.p
    return ([list(c.m.arrows) for c in (e.source, e.target)], list(p.space),
            list(p.lmom.items()), list(p.rmom.items()), list(p.lact.items()),
            list(p.ract.items()))


def _morphism_tables(mor):
    return list(mor.eta.items()), _exchanger_tables(mor.src), _exchanger_tables(mor.dst)


def _unit_tables(w):
    return ([(k, _morphism_tables(v) if k.startswith("mu_") else _exchanger_tables(v))
             for k, v in w.items() if k != "reports"],
            [(k, [(v.code, v.witness, v.detail) for v in vs])
             for k, vs in w["reports"].items()])


def _outcome(tables, build, *args):
    """The tables of what build(*args) returns, or the type and message of
    what it raises."""
    try:
        return tables(build(*args))
    except XModForgeError as err:
        return type(err).__name__, str(err)


def test_unit_witnesses_match_the_four_block_oracle():
    # R/Rbar and L/Lbar are one side construction run on b, then on a
    kinds = set()
    for seed in range(40):
        c = generators.random_crossing(random.Random(seed))
        got = _outcome(_unit_tables, ex.unit_witnesses, c)
        assert got == _outcome(_unit_tables, oracle.unit_witnesses, c)
        kinds.add((c.is_extension, any(v for _, v in got[1])))
    # extensions and crossings that are not, some with E1/E2 failures
    assert {(True, False), (False, True)} <= kinds


def _moved(table, space, lmom, rmom, rng):
    """table with the value at one random key replaced by another point
    over the same moments, so that every lookup still succeeds."""
    key = rng.choice(sorted(table))
    twins = [z for z in space if z != table[key] and
             (lmom[z], rmom[z]) == (lmom[table[key]], rmom[table[key]])]
    return {**table, key: rng.choice(twins)} if twins else table


def test_actions_commute_and_unitors_match_their_oracles():
    rng = random.Random(11)
    witnessed = 0
    for seed in range(30):
        p = generators.random_exchanger(random.Random(seed))
        pbar = ex.exchanger_inverse(p)[0]
        _, r_p, l_p = ex.structural_isos(p, pbar, p)
        assert [_morphism_tables(m) for m in (r_p, l_p)] == \
            [_morphism_tables(m) for m in oracle.unitors(p)]
        z = p.p
        for side in ("lact", "ract"):
            moved = _moved(getattr(z, side), z.space, z.lmom, z.rmom, rng)
            bad = ex.SemiExchanger(p.source, p.target, bb.Bibundle(
                z.left, z.right, z.space, z.lmom, z.rmom,
                moved if side == "lact" else z.lact, moved if side == "ract" else z.ract))
            for e in (p, pbar, bad):
                want = oracle.actions_commute(e)
                assert ex.actions_commute(e) == want
                witnessed += bool(want)
    assert witnessed >= 10


def test_morphism_compose_matches_its_oracle():
    outcomes = set()
    for seed in range(30):
        p = generators.random_exchanger(random.Random(seed))
        pbar, m1, m2 = ex.exchanger_inverse(p)
        _, r_p, l_p = ex.structural_isos(p, pbar, p)
        i_p, i_pbar = ex.identity_morphism_of(p), ex.identity_morphism_of(pbar)
        pairs = [(i_p, i_p), (i_p, i_pbar), (i_pbar, i_p), (m1, m1), (m2, m2),
                 (r_p, i_p), (r_p, l_p), (m1, i_p)]
        for kind in ("horizontal", "vertical", "spatial", "diagonal"):
            for eta, zeta in pairs:
                got = _outcome(_morphism_tables, ex.morphism_compose, kind, eta, zeta)
                assert got == _outcome(_morphism_tables, oracle.morphism_compose,
                                       kind, eta, zeta)
                outcomes.add((kind, isinstance(got[0], str)))
    # each kind both composes and raises on some pair
    assert outcomes == {(kind, raised) for kind in ("horizontal", "vertical", "spatial")
                        for raised in (False, True)} | {("diagonal", True)}
