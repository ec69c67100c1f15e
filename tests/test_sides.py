"""The side-generic crossing and exchanger checkers against the twin-loop
checkers they replaced, the mirror symmetry they rely on, and the hash-seed
independence of their witnesses.

The reference checkers below are the a-/b-twin versions, changed only so
that every loop that emits a witness runs in label order."""

import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge import generators, xmod
from xmodforge.errors import Violation
from xmodforge.fingrpd import check_groupoid_morphism

from law_oracles import stray_keys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


# -- oracles: the twin-loop checkers ------------------------------------------


def _leg_domain(xm, moment, m):
    for u in sorted(m.objects):
        for hh in xm.h.fiber(moment[u]):
            yield u, hh


def reference_check_crossing(c, prime=False):
    violations = []
    m = c.m
    src, dst = c.src, c.dst
    objs, arrows = sorted(m.objects), sorted(m.arrows)
    for u in objs:
        if c.tau.get(u) not in src.g.objects or c.sigma.get(u) not in dst.g.objects:
            violations.append(Violation("BadMoment", (u,)))
    if violations:
        return violations

    for u, hh in _leg_domain(src, c.tau, m):
        mm = c.a1.get((u, hh))
        if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
            violations.append(Violation("BadLeg", ("a1", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        mm = c.b1.get((u, hh))
        if mm not in m.arrows or m.src[mm] != u or m.tgt[mm] != u:
            violations.append(Violation("BadLeg", ("b1", u, hh)))
    for mm in arrows:
        g1 = c.a2.get(mm)
        if g1 not in src.g.arrows or src.g.tgt[g1] != c.tau[m.tgt[mm]] \
                or src.g.src[g1] != c.tau[m.src[mm]]:
            violations.append(Violation("BadLeg", ("a2", mm)))
        g2 = c.b2.get(mm)
        if g2 not in dst.g.arrows or dst.g.tgt[g2] != c.sigma[m.tgt[mm]] \
                or dst.g.src[g2] != c.sigma[m.src[mm]]:
            violations.append(Violation("BadLeg", ("b2", mm)))
    violations += stray_keys(("tau", c.tau, objs), ("sigma", c.sigma, objs),
                             ("a1", c.a1, list(_leg_domain(src, c.tau, m))),
                              ("b1", c.b1, list(_leg_domain(dst, c.sigma, m))),
                              ("a2", c.a2, arrows), ("b2", c.b2, arrows))
    if violations:
        return violations

    for u in objs:
        if c.a1[(u, src.h.unit[c.tau[u]])] != m.unit[u]:
            violations.append(Violation("CR1Failure", ("a1", u)))
        if c.b1[(u, dst.h.unit[c.sigma[u]])] != m.unit[u]:
            violations.append(Violation("CR1Failure", ("b1", u)))
        if c.a2[m.unit[u]] != src.g.unit[c.tau[u]]:
            violations.append(Violation("CR1Failure", ("a2", u)))
        if c.b2[m.unit[u]] != dst.g.unit[c.sigma[u]]:
            violations.append(Violation("CR1Failure", ("b2", u)))

    for u in objs:
        for ha in src.h.fiber(c.tau[u]):
            for hb in src.h.fiber(c.tau[u]):
                prod = src.h.comp[(ha, hb)]
                if c.a1[(u, prod)] != m.comp[(c.a1[(u, ha)], c.a1[(u, hb)])]:
                    violations.append(Violation("BadLeg", ("a1-hom", u, ha, hb)))
        for ha in dst.h.fiber(c.sigma[u]):
            for hb in dst.h.fiber(c.sigma[u]):
                prod = dst.h.comp[(ha, hb)]
                if c.b1[(u, prod)] != m.comp[(c.b1[(u, ha)], c.b1[(u, hb)])]:
                    violations.append(Violation("BadLeg", ("b1-hom", u, ha, hb)))
    for ma, mb in m.composable_pairs():
        if c.a2[m.comp[(ma, mb)]] != src.g.comp[(c.a2[ma], c.a2[mb])]:
            violations.append(Violation("BadLeg", ("a2-hom", ma, mb)))
        if c.b2[m.comp[(ma, mb)]] != dst.g.comp[(c.b2[ma], c.b2[mb])]:
            violations.append(Violation("BadLeg", ("b2-hom", ma, mb)))
    if violations:
        return violations

    for u, hh in _leg_domain(src, c.tau, m):
        if not dst.g.is_unit(c.b2[c.a1[(u, hh)]]):
            violations.append(Violation("CR2Failure", ("b2.a1", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        if not src.g.is_unit(c.a2[c.b1[(u, hh)]]):
            violations.append(Violation("CR2Failure", ("a2.b1", u, hh)))

    for u, hh in _leg_domain(src, c.tau, m):
        if c.a2[c.a1[(u, hh)]] != src.boundary[hh]:
            violations.append(Violation("SquareFailure", ("a", u, hh)))
    for u, hh in _leg_domain(dst, c.sigma, m):
        if c.b2[c.b1[(u, hh)]] != dst.boundary[hh]:
            violations.append(Violation("SquareFailure", ("b", u, hh)))

    b1_img = set(c.b1.values())
    if len(b1_img) != len(c.b1):
        violations.append(Violation("CR3Failure", ("b1-not-injective",)))
    for u1 in objs:
        for u2 in objs:
            for g1 in src.g.hom(c.tau[u2], c.tau[u1]):
                if not any(m.tgt[mm] == u1 and m.src[mm] == u2
                           and c.a2[mm] == g1 for mm in m.arrows):
                    violations.append(Violation("CR3Failure",
                                                ("a2-not-surjective", u1, g1, u2)))
    a2_kernel = {mm for mm in m.arrows
                 if src.g.is_unit(c.a2[mm]) and m.src[mm] == m.tgt[mm]}
    if a2_kernel != b1_img:
        violations.append(Violation(
            "CR3Failure", ("kernel-vs-image", tuple(sorted(a2_kernel ^ b1_img)))))

    for mm in arrows:
        u1, u2 = m.tgt[mm], m.src[mm]
        for hh in src.h.fiber(c.tau[u1]):
            lhs = c.a1[(u2, src.act(c.a2[mm], hh))]
            rhs = m.comp[(m.comp[(m.inv[mm], c.a1[(u1, hh)])], mm)]
            if lhs != rhs:
                violations.append(Violation("CR4Failure", ("a", mm, hh)))
        for hh in dst.h.fiber(c.sigma[u1]):
            lhs = c.b1[(u2, dst.act(c.b2[mm], hh))]
            rhs = m.comp[(m.comp[(m.inv[mm], c.b1[(u1, hh)])], mm)]
            if lhs != rhs:
                violations.append(Violation("CR4Failure", ("b", mm, hh)))

    if prime:
        violations += reference_check_cr3_prime(c)
    return violations


def reference_check_cr3_prime(c):
    violations = []
    m, src, dst = c.m, c.src, c.dst
    objs = sorted(m.objects)
    a1_img = set(c.a1.values())
    if len(a1_img) != len(c.a1):
        violations.append(Violation("CR3PrimeFailure", ("a1-not-injective",)))
    for u1 in objs:
        for u2 in objs:
            for g2 in dst.g.hom(c.sigma[u2], c.sigma[u1]):
                if not any(m.tgt[mm] == u1 and m.src[mm] == u2
                           and c.b2[mm] == g2 for mm in m.arrows):
                    violations.append(Violation("CR3PrimeFailure",
                                                ("b2-not-surjective", u1, g2, u2)))
    b2_kernel = {mm for mm in m.arrows
                 if dst.g.is_unit(c.b2[mm]) and m.src[mm] == m.tgt[mm]}
    if b2_kernel != a1_img:
        violations.append(Violation(
            "CR3PrimeFailure", ("kernel-vs-image", tuple(sorted(b2_kernel ^ a1_img)))))
    return violations


def _left_h_action(ex, leg, bund, mom):
    out = {}
    for p in ex.p.space:
        u = ex.p.lmom[p]
        for hh in bund.fiber(mom[u]):
            out[((u, hh), p)] = ex.p.lact[(leg[(u, hh)], p)]
    return out


def _right_h_action(ex, leg, bund, mom):
    out = {}
    for p in ex.p.space:
        v = ex.p.rmom[p]
        for hh in bund.fiber(mom[v]):
            out[(p, (v, hh))] = ex.p.ract[(p, leg[(v, hh)])]
    return out


def reference_check_semi_exchanger(ex):
    violations = []
    a, b = ex.source, ex.target
    pairs = [("E1", a.a1, a.src.h, a.tau, b.a1, b.src.h, b.tau),
             ("E2", a.b1, a.dst.h, a.sigma, b.b1, b.dst.h, b.sigma)]
    for code, lleg, lbund, lmom, rleg, rbund, rmom in pairs:
        left = _left_h_action(ex, lleg, lbund, lmom)
        right = _right_h_action(ex, rleg, rbund, rmom)
        for ((u, hh), p), q in left.items():
            if q == p and hh != lbund.unit[lmom[u]]:
                violations.append(Violation(code + "Failure", ("left-not-free", p, hh)))
        for (p, (v, hh)), q in right.items():
            if q == p and hh != rbund.unit[rmom[v]]:
                violations.append(Violation(code + "Failure", ("right-not-free", p, hh)))
        lorbits, rorbits = {}, {}
        for (_, p), q in left.items():
            lorbits.setdefault(p, set()).add(q)
        for (p, _), q in right.items():
            rorbits.setdefault(p, set()).add(q)
        for p in ex.p.space:
            lorbit = lorbits.get(p, set())
            rorbit = rorbits.get(p, set())
            if lorbit != rorbit:
                violations.append(Violation(code + "Failure",
                                            ("orbit-mismatch", p,
                                             tuple(sorted(lorbit ^ rorbit)))))
    return violations


def reference_check_xext_homomorphism(hom):
    violations = []
    a, b = hom.src, hom.dst
    chi1, phi, chi2 = hom.chi1, hom.phi, hom.chi2
    violations += [Violation("Chi1:" + v.code, v.witness, v.detail)
                   for v in xmod.check_strict_xmorphism(chi1)]
    violations += [Violation("Chi2:" + v.code, v.witness, v.detail)
                   for v in xmod.check_strict_xmorphism(chi2)]
    violations += [Violation("Phi:" + v.code, v.witness, v.detail)
                   for v in check_groupoid_morphism(phi)]
    if violations:
        return violations

    objs = sorted(a.m.objects)
    for u in objs:
        if b.tau[phi.omap[u]] != chi1.omap[a.tau[u]]:
            violations.append(Violation("PrismMomentFailure", ("tau", u)))
        if b.sigma[phi.omap[u]] != chi2.omap[a.sigma[u]]:
            violations.append(Violation("PrismMomentFailure", ("sigma", u)))
    if violations:
        return violations

    for (u, h1), mm in sorted(a.a1.items()):
        if phi.amap[mm] != b.a1[(phi.omap[u], chi1.lmap[h1])]:
            violations.append(Violation("PrismFaceFailure", ("a1", u, h1)))
    for mm, g1 in sorted(a.a2.items()):
        if chi1.rmap[g1] != b.a2[phi.amap[mm]]:
            violations.append(Violation("PrismFaceFailure", ("a2", mm)))
    for (u, h2), mm in sorted(a.b1.items()):
        if phi.amap[mm] != b.b1[(phi.omap[u], chi2.lmap[h2])]:
            violations.append(Violation("PrismFaceFailure", ("b1", u, h2)))
    for mm, g2 in sorted(a.b2.items()):
        if chi2.rmap[g2] != b.b2[phi.amap[mm]]:
            violations.append(Violation("PrismFaceFailure", ("b2", mm)))

    for u in objs:
        up = phi.omap[u]
        src_fiber = {a.a1[(u, h1)] for h1 in a.src.h.fiber(a.tau[u])}
        dst_fiber = {b.a1[(up, h3)] for h3 in b.src.h.fiber(b.tau[up])}
        image = {phi.amap[mm] for mm in src_fiber}
        if len(image) != len(src_fiber) or image != dst_fiber:
            violations.append(Violation("SCM1Failure", (u,)))
        src_fiber2 = {a.b1[(u, h2)] for h2 in a.dst.h.fiber(a.sigma[u])}
        dst_fiber2 = {b.b1[(up, h4)] for h4 in b.dst.h.fiber(b.sigma[up])}
        image2 = {phi.amap[mm] for mm in src_fiber2}
        if len(image2) != len(src_fiber2) or image2 != dst_fiber2:
            violations.append(Violation("SCM2Failure", (u,)))
    return violations


# -- generated inputs and their corruptions -----------------------------------


LEGS = ("tau", "sigma", "a1", "a2", "b1", "b2")


def _outcome(check, *args):
    """The (code, witness, detail) list, or the exception a malformed input
    raised, so that the two checkers can be compared on either."""
    try:
        return [(v.code, v.witness, v.detail) for v in check(*args)]
    except (KeyError, TypeError) as e:
        return type(e).__name__


def _rebuilt(c, **tables):
    parts = {name: getattr(c, name) for name in LEGS}
    parts.update(tables)
    return type(c)(c.src, c.dst, c.m, *(parts[name] for name in LEGS))


def _codomain(c, name):
    return sorted({"tau": c.src.g.objects, "sigma": c.dst.g.objects,
                   "a1": c.m.arrows, "b1": c.m.arrows,
                   "a2": c.src.g.arrows, "b2": c.dst.g.arrows}[name]) + ["?"]


def _corruptions(c, rng, per_table):
    """Single-entry rewrites of tau, sigma and the four legs that keep
    every key; a value outside the codomain is among the choices."""
    for name in LEGS:
        table = getattr(c, name)
        keys = sorted(table)
        for _ in range(per_table):
            bad = dict(table)
            bad[rng.choice(keys)] = rng.choice(_codomain(c, name))
            yield _rebuilt(c, **{name: bad})


def _crossings(seed):
    rng = random.Random(seed)
    return [generators.random_crossing(rng), generators.random_crossed_extension(rng)]


@pytest.fixture(scope="module")
def exchangers():
    out, rng = [], random.Random(7)
    while len(out) < 8:
        out.append(generators.random_exchanger(rng))
    return out


def test_check_crossing_matches_the_twin_checker():
    rng = random.Random(1)
    codes = set()
    for seed in range(20):
        for c in _crossings(seed):
            for bad in [c, *_corruptions(c, rng, 4)]:
                for prime in (False, True):
                    want = _outcome(reference_check_crossing, bad, prime)
                    assert _outcome(cr.check_crossing, bad, prime) == want
                    codes |= {v[0] for v in want} if isinstance(want, list) else set()
            assert _outcome(cr.check_cr3_prime, c) == \
                _outcome(reference_check_cr3_prime, c)
    assert {"BadMoment", "BadLeg", "CR1Failure", "CR2Failure", "SquareFailure",
            "CR3Failure", "CR4Failure", "CR3PrimeFailure"} <= codes


def _semi_corruptions(ex, rng):
    """Single-entry rewrites of the carrier's action tables and of the legs
    of both crossings, keeping every key."""
    for side in ("lact", "ract"):
        for _ in range(6):
            table = dict(getattr(ex.p, side))
            table[rng.choice(sorted(table))] = rng.choice(ex.p.space)
            p = type(ex.p)(ex.p.left, ex.p.right, ex.p.space, ex.p.lmom,
                           ex.p.rmom, **{"lact": ex.p.lact, "ract": ex.p.ract,
                                         side: table})
            yield exm.SemiExchanger(ex.source, ex.target, p)
    for end in ("source", "target"):
        c = getattr(ex, end)
        for bad in _corruptions(c, rng, 1):
            ends = {"source": ex.source, "target": ex.target, end: bad}
            yield exm.SemiExchanger(ends["source"], ends["target"], ex.p)


def test_check_semi_exchanger_matches_the_twin_checker(exchangers):
    rng = random.Random(2)
    codes = set()
    for ex in exchangers:
        for bad in [ex, *_semi_corruptions(ex, rng)]:
            want = _outcome(reference_check_semi_exchanger, bad)
            assert _outcome(exm.check_semi_exchanger, bad) == want
            codes |= {v[0] for v in want} if isinstance(want, list) else set()
    assert {"E1Failure", "E2Failure"} <= codes


def _homomorphisms(exchangers):
    """Identity, pullback and unit homomorphisms of generated crossed
    extensions, and the two legs of decomposed exchangers (small ones: the
    unit equivalence and the decomposition grow fast with |M|)."""
    rng = random.Random(3)
    for seed in range(8):
        a = generators.random_crossed_extension(random.Random(seed))
        yield exm.identity_homomorphism(a)
        space, mapping = generators.random_surjection(rng, a.m.objects)
        yield exm.pullback_homomorphism(a, space, mapping)
        if len(a.m.arrows) <= 4:
            yield exm.unit_equivalence(a)
    for ex in exchangers:
        if len(ex.p.space) <= 4:
            yield from exm.exchanger_decompose(ex)[1:]


def test_check_xext_homomorphism_matches_the_twin_checker(exchangers):
    rng = random.Random(4)
    codes = set()
    for hom in _homomorphisms(exchangers):
        cases = [hom]
        for end in ("src", "dst"):
            for bad in _corruptions(getattr(hom, end), rng, 1):
                ends = {"src": hom.src, "dst": hom.dst, end: bad}
                cases.append(exm.XExtHomomorphism(ends["src"], ends["dst"],
                                                  hom.chi1, hom.phi, hom.chi2))
        amap = dict(hom.phi.amap)
        amap[rng.choice(sorted(amap))] = rng.choice(sorted(hom.phi.cod.arrows))
        phi = type(hom.phi)(hom.phi.dom, hom.phi.cod, hom.phi.omap, amap)
        cases.append(exm.XExtHomomorphism(hom.src, hom.dst, hom.chi1, phi, hom.chi2))
        for bad in cases:
            want = _outcome(reference_check_xext_homomorphism, bad)
            assert _outcome(exm.check_xext_homomorphism, bad) == want
            codes |= {v[0] for v in want} if isinstance(want, list) else set()
    assert {"PrismMomentFailure", "PrismFaceFailure", "SCM1Failure",
            "SCM2Failure"} <= codes


# -- mirror symmetry ----------------------------------------------------------


SWAP_AB = str.maketrans("ab", "ba")
SWAP_CODE = {"CR3Failure": "CR3PrimeFailure", "CR3PrimeFailure": "CR3Failure"}


def _swap(c):
    return cr.Crossing(c.dst, c.src, c.m, c.sigma, c.tau, c.b1, c.b2, c.a1, c.a2)


def _mirrored(violations):
    """Each violation as it reads on the swapped crossing: side letters in
    the witness tag exchanged, CR3 and CR3' exchanged."""
    out = []
    for v in violations:
        witness = v.witness
        if v.code != "BadMoment":
            tag = re.sub(r"^[ab][12]?(\.[ab][12])?",
                         lambda hit: hit.group().translate(SWAP_AB), witness[0])
            witness = (tag, *witness[1:])
        out.append((SWAP_CODE.get(v.code, v.code), witness, v.detail))
    return Counter(out)


def test_check_crossing_is_symmetric_under_the_side_swap():
    rng = random.Random(6)
    for seed in range(20, 35):
        for c in _crossings(seed):
            for bad in [c, *_corruptions(c, rng, 3)]:
                try:
                    got = cr.check_crossing(bad, prime=True)
                except (KeyError, TypeError):
                    continue
                swapped = Counter((v.code, v.witness, v.detail)
                                  for v in cr.check_crossing(_swap(bad), prime=True))
                assert swapped == _mirrored(got)


# -- witnesses in label order -------------------------------------------------


CR4_SCRIPT = """
import sys
from xmodforge import cli, crossing as cr, fingrpd, gdf, xmod
from xmodforge.util import pair, unpair
c2 = fingrpd.cyclic_groupoid(2)
bundle = fingrpd.trivial_bundle(["*"], fingrpd.cyclic_groupoid(3, prefix="a"))

def carry(arrow, h):
    if c2.is_unit(arrow):
        return h
    return pair("*", "a" + str((-int(unpair(h)[1][1:])) % 3))

# the inversion action of C2 on Z/3, but the direct-product middle
xm = xmod.module_xmod(c2, bundle, fingrpd.transport_action(c2, bundle, carry))
direct = fingrpd.semidirect_product(fingrpd.trivial_action(c2, bundle))
a1 = {("*", h): pair(bundle.inv[h], "c0") for h in bundle.arrows}
b1 = {("*", h): pair(h, "c0") for h in bundle.arrows}
a2 = {m: unpair(m)[1] for m in direct.arrows}
bad = cr.Crossing(xm, xm, direct, {"*": "*"}, {"*": "*"}, a1, a2, b1, dict(a2))
with open(sys.argv[1], "w") as fh:
    fh.write(gdf.print_gdf(gdf.document_of(gdf.crossing_blocks("M", bad))))
sys.exit(cli.main(["check", sys.argv[1]]))
"""


def test_cr4_witness_does_not_depend_on_the_hash_seed(tmp_path):
    witnesses = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", CR4_SCRIPT,
                               str(tmp_path / f"m{seed}.gdf")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        witnesses.add(tuple(line for line in proc.stdout.splitlines()
                            if "witness" in line))
    assert len(witnesses) == 1
    (lines,) = witnesses
    assert lines == ("       CR4Failure: FAIL witness=('a', '((*,a0),c1)', '(*,a1)')",)


def test_strict_xmorphism_witness_does_not_depend_on_the_hash_seed():
    # check_strict_xmorphism iterates the label set of the bundle's arrows
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "faults", "z4maps.gdf")
    outputs = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "xmodforge.cli", "check", fixture],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        outputs.add(re.sub(r"\d+\.\d+s\)", "s)", proc.stdout))
    assert len(outputs) == 1
    (out,) = outputs
    assert "       BoundaryNotRespected: FAIL witness=('c1',)\n" in out
