"""Label invariance: a checker's verdict depends on the tables, not on the
labels.  Every label of a generated input is renamed by a seeded injection
into opaque atoms, which puts the labels in a new order; the violation codes
and the diamond's verdict must not change."""

import random
from collections import Counter

from xmodforge import crossing as cr
from xmodforge import generators
from xmodforge.errors import XModForgeError
from xmodforge.fingrpd import ActionByAutomorphisms, search_groupoid_iso
from xmodforge.xmod import CrossedModule


class Relabel:
    """A seeded injection of labels into atoms "q<n>", applied to groupoids,
    bundles, actions, crossed modules and crossings.  An object shared by two
    others is renamed once, so the renamed objects share it too."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.atoms = {}
        self.taken = set()
        self.memo = {}

    def __call__(self, label):
        if label not in self.atoms:
            atom = None
            while atom is None or atom in self.taken:
                atom = f"q{self.rng.randrange(10 ** 6)}"
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
        want, got = diamond_middle(c), diamond_middle(Relabel(seed).crossing(c))
        if isinstance(want, str):
            assert got == want
        else:
            assert search_groupoid_iso(want, got) is not None
        verdicts[isinstance(want, str)] += 1
    assert verdicts[False] > 0
