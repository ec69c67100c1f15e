"""Label invariance: a checker's verdict depends on the tables, not on the
labels.  Every label of a generated input is renamed by a seeded injection
into opaque atoms, which puts the labels in a new order; the violation codes
and the verdicts of the quotient constructions, the inverse and the
decompositions must not change, also when the atoms contain ',' or an
unbalanced ')', the separator and a bracket of tuple labels.  The CLI tests
write such a renamed exchanger as a document."""

import random
from collections import Counter

import pytest

from xmodforge import bibundle as bb
from xmodforge import cli, gdf, generators
from xmodforge import crossing as cr
from xmodforge import exchanger as exm
from xmodforge import xmod as xmd
from xmodforge.errors import XModForgeError
from xmodforge.fingrpd import ActionByAutomorphisms, search_groupoid_iso
from xmodforge.xmod import CrossedModule

# ',' is the tuple separator; ')' leaves an atom's brackets unbalanced
SUFFIXES = (",r", ")r")


class Relabel:
    """A seeded injection of labels into atoms "q<n>" + suffix, applied to
    groupoids, bundles, actions, crossed modules, crossings and bibundles.
    An object shared by two others is renamed once, so the renamed objects
    share it too."""

    def __init__(self, seed, suffix=""):
        self.rng = random.Random(seed)
        self.suffix = suffix
        self.atoms = {}
        self.taken = set()
        self.memo = {}

    def __call__(self, label):
        if label not in self.atoms:
            atom = None
            while atom is None or atom in self.taken:
                atom = f"q{self.rng.randrange(10 ** 6)}{self.suffix}"
            self.taken.add(atom)
            self.atoms[label] = atom
        return self.atoms[label]

    def key(self, k):
        return tuple(map(self, k)) if isinstance(k, tuple) else self(k)

    def table(self, d):
        return {self.key(k): self.key(v) for k, v in d.items()}

    def _once(self, obj, build):
        if id(obj) not in self.memo:
            self.memo[id(obj)] = (obj, build(obj))
        return self.memo[id(obj)][1]

    def groupoid(self, g):
        """A Groupoid or a GroupBundle, without re-validating it."""
        return self._once(g, lambda g: type(g)(
            [self(x) for x in g.objects], [self(a) for a in g.arrows],
            self.table(g.src), self.table(g.tgt), self.table(g.inv),
            self.table(g.unit), self.table(g.comp)))

    def action(self, a):
        return self._once(a, lambda a: ActionByAutomorphisms(
            self.groupoid(a.base), self.groupoid(a.bundle), self.table(a.act)))

    def xmod(self, xm):
        return self._once(xm, lambda xm: CrossedModule(
            self.groupoid(xm.g), self.groupoid(xm.h), self.table(xm.boundary),
            self.action(xm.action)))

    def crossing(self, c):
        return self._once(c, lambda c: type(c)(
            self.xmod(c.src), self.xmod(c.dst), self.groupoid(c.m),
            self.table(c.tau), self.table(c.sigma), self.table(c.a1),
            self.table(c.a2), self.table(c.b1), self.table(c.b2)))

    def bibundle(self, zb):
        return self._once(zb, lambda zb: bb.Bibundle(
            self.groupoid(zb.left), self.groupoid(zb.right), map(self, zb.space),
            self.table(zb.lmom), self.table(zb.rmom), self.table(zb.lact),
            self.table(zb.ract)))

    def exchanger(self, ex):
        return self._once(ex, lambda ex: exm.SemiExchanger(
            self.crossing(ex.source), self.crossing(ex.target), self.bibundle(ex.p)))


LEGS = ("tau", "sigma", "a1", "a2", "b1", "b2")


def corrupted(c, rng):
    """c with one entry of tau, sigma or a leg rewritten, every key kept; a
    value outside the codomain is among the choices."""
    name = rng.choice(LEGS)
    codomain = {"tau": c.src.g.objects, "sigma": c.dst.g.objects,
                "a1": c.m.arrows, "b1": c.m.arrows,
                "a2": c.src.g.arrows, "b2": c.dst.g.arrows}[name]
    tables = {leg: dict(getattr(c, leg)) for leg in LEGS}
    tables[name][rng.choice(sorted(tables[name]))] = rng.choice([*codomain, "?"])
    return type(c)(c.src, c.dst, c.m, *(tables[leg] for leg in LEGS))


def codes(c):
    try:
        return Counter(v.code for v in cr.check_crossing(c, prime=True))
    except (KeyError, TypeError) as e:
        return type(e).__name__


def diamond_middle(c):
    """The middle groupoid of diamond(c, mbar(c)), or the error raised."""
    try:
        return cr.diamond(c, cr.mbar(c)).m
    except XModForgeError as e:
        return type(e).__name__


def semidirect_groupoid(c, side):
    """The groupoid of crossed_semidirect(c, side), or the error raised."""
    try:
        return cr.crossed_semidirect(c, side)[0]
    except XModForgeError as e:
        return type(e).__name__


def same_groupoid(want, got):
    """Whether got is the error want names, or a groupoid isomorphic to want."""
    if isinstance(want, str):
        return got == want
    return search_groupoid_iso(want, got) is not None


def test_check_crossing_codes_do_not_depend_on_the_labels():
    cases = 0
    for seed in range(30):
        rng = random.Random(seed)
        for c in (generators.random_crossing(rng),
                  generators.random_crossed_extension(rng)):
            for bad in (c, corrupted(c, rng), corrupted(c, rng)):
                assert codes(Relabel(seed).crossing(bad)) == codes(bad)
                cases += 1
    assert cases == 180


def test_diamond_does_not_depend_on_the_labels():
    verdicts = Counter()
    for seed in range(30):
        c = generators.random_crossed_extension(random.Random(seed))
        want = diamond_middle(c)
        for suffix in ("", ",r"):
            assert same_groupoid(want, diamond_middle(Relabel(seed, suffix).crossing(c)))
        verdicts[isinstance(want, str)] += 1
    assert verdicts[False] > 0


def test_crossed_semidirect_with_commas_in_the_labels():
    built = 0
    for seed in range(30):
        c = generators.random_crossed_extension(random.Random(seed))
        renamed = Relabel(seed, ",r").crossing(c)
        for side in ("H1", "H2"):
            want = semidirect_groupoid(c, side)
            assert same_groupoid(want, semidirect_groupoid(renamed, side))
            built += not isinstance(want, str)
    assert built > 0


def test_bibundle_quotients_with_commas_in_the_labels():
    # a Morita witness between a random groupoid and itself, and the bullet
    # composite of an exchanger's carrier with its inverse
    rng, found = random.Random(7), 0
    for seed in range(30):
        g = generators.random_groupoid(rng)
        rename = Relabel(seed, ",r")
        want = bb.morita_witness(g, g)
        got = bb.morita_witness(rename.groupoid(g), rename.groupoid(g))
        assert (want is None) == (got is None)
        if want is not None:
            assert len(got.space) == len(want.space) and bb.is_morita(got)[0]
            found += 1
    assert found > 0
    for seed in range(10):
        ex = generators.random_exchanger(random.Random(seed))
        p, pbar = ex.p, exm.exchanger_inverse(ex)[0].p
        rename = Relabel(seed, ",r")
        want = bb.compose_bibundles(p, pbar)
        got = bb.compose_bibundles(rename.bibundle(p), rename.bibundle(pbar))
        assert bb.search_equivariant_iso(rename.bibundle(want), got) is not None


def test_decompose_crossing_with_commas_in_the_labels():
    # the decomposition bundle is read at its parts, so no label is split
    for seed in range(20):
        c = generators.random_crossed_extension(random.Random(seed))
        want = cr.decompose_crossing(c)[0].h
        got = cr.decompose_crossing(Relabel(seed, ",r").crossing(c))[0].h
        assert sorted(map(len, map(got.fiber, got.objects))) == \
            sorted(map(len, map(want.fiber, want.objects)))


def verdict(build, *args):
    """What build(*args) gives, reduced by the caller, or the error raised."""
    try:
        return build(*args)
    except XModForgeError as e:
        return type(e).__name__


def inverse_verdict(ex):
    _, m1, m2 = exm.exchanger_inverse(ex)
    return m1.is_bijective(), m2.is_bijective()


def decompose_verdict(ex):
    pext = exm.exchanger_decompose(ex)[0]
    return len(pext.m.arrows), len(pext.src.h.arrows), len(pext.dst.h.arrows)


def hypercover_verdict(c):
    _, chi_left, chi_right = cr.decompose_crossing(c)
    return xmd.is_hypercover(chi_left), xmd.is_hypercover(chi_right)


def hdiamond_verdict(ex):
    # the carrier may be another component (it depends on label order), so
    # only whether the result is an exchanger is compared
    return exm.check_exchanger(exm.horizontal_diamond(ex, ex)) == []


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_exchanger_inverse_and_decomposition_with_tuple_characters(suffix):
    # the decomposition is run on the carriers of at most 8 points: its
    # middle has |P|^2 |M| arrows, and seeds 0-19 take about 6 s in all
    # (seed 7, 2,048 arrows, about 1.7 s), most of it in checking the middle
    built = Counter()
    for seed in range(20):
        ex = generators.random_exchanger(random.Random(seed))
        renamed = Relabel(seed, suffix).exchanger(ex)
        reads = (inverse_verdict, decompose_verdict)[:1 + (len(ex.p.space) <= 8)]
        for read in reads:
            want = verdict(read, ex)
            assert verdict(read, renamed) == want
            built[read.__name__] += not isinstance(want, str)
    assert built == {"inverse_verdict": 20, "decompose_verdict": 13}


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_decomposition_projections_are_hypercovers_with_tuple_characters(suffix):
    for seed in range(20):
        c = generators.random_crossed_extension(random.Random(seed))
        want = verdict(hypercover_verdict, c)
        assert want == (True, True)
        assert verdict(hypercover_verdict, Relabel(seed, suffix).crossing(c)) == want


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_horizontal_diamond_with_tuple_characters(suffix):
    composed = 0
    for seed in range(20):
        ex = generators.random_exchanger(random.Random(seed))
        if verdict(hdiamond_verdict, ex) is True:
            assert verdict(hdiamond_verdict, Relabel(seed, suffix).exchanger(ex)) is True
            composed += 1
    assert composed > 0


@pytest.mark.parametrize("argv", [
    ["compose", "FILE", "--op", "hdiamond", "--inputs", "P", "P"],
    ["decompose", "FILE", "--name", "P"],
], ids=["hdiamond", "decompose"])
def test_cli_on_an_exchanger_with_commas_in_the_labels(argv, tmp_path, capsys):
    # random_exchanger(Random(0)), and the same with every label renamed to
    # an atom ending in ",r", as a document: both compose or decompose
    ex = generators.random_exchanger(random.Random(0))
    path = tmp_path / "in.gdf"
    for doc in (ex, Relabel(0, ",r").exchanger(ex)):
        path.write_text(gdf.print_gdf(gdf.document_of(gdf.exchanger_blocks("P", doc))))
        assert cli.main([str(path) if a == "FILE" else a for a in argv]) == cli.EXIT_OK
        assert gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
