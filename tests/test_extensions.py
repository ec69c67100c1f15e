"""extensions.normalized_cocycles, which solves for the cocycles, against the
brute force that tests every table of values."""

import itertools

import pytest

from xmodforge import extensions


def brute_force_cocycles(gname, aname):
    """Every table of values on the non-identity pairs, in product order,
    kept when it is a cocycle."""
    gn, an = extensions.GROUPS[gname], extensions.GROUPS[aname]
    nonident = range(1, gn)
    cocycles = []
    for values in itertools.product(range(an), repeat=(gn - 1) ** 2):
        f = {}
        for g in range(gn):
            f[(0, g)] = 0
            f[(g, 0)] = 0
        f.update(zip(((g, h) for g in nonident for h in nonident), values))
        if extensions._is_cocycle(f, gn, an):
            cocycles.append(f)
    return cocycles


@pytest.mark.parametrize("gname, aname", [
    ("Z1", "Z3"), ("Z3", "Z1"), ("Z2", "Z2"), ("Z3", "Z3"), ("Z4", "Z2"),
    ("Z4", "Z3"), ("Z2", "Z6"), ("Z3", "Z6")])
def test_normalized_cocycles_match_the_brute_force(gname, aname):
    got = extensions.normalized_cocycles(gname, aname)
    want = brute_force_cocycles(gname, aname)
    assert [list(f.items()) for f in got] == [list(f.items()) for f in want]


def test_z6_by_z3_cocycles_are_solved_for():
    # 3^25 tables for the brute force; the cocycles are the m^(n-1) = 3^5
    # normalized ones: |B^2| = 3^5 / gcd(6, 3) coboundaries times |H^2| = 3
    gn, an = 6, 3
    cocycles = extensions.normalized_cocycles("Z6", "Z3")
    assert len(cocycles) == 3 ** 5
    assert all(extensions._is_cocycle(f, gn, an) for f in cocycles)
    keys = [(g, h) for g in range(1, gn) for h in range(1, gn)]
    values = [tuple(f[k] for k in keys) for f in cocycles]
    assert values == sorted(set(values))


def test_z5_by_z3_extensions_form_one_class():
    # H^2(Z/5, Z/3) = Z/gcd(5, 3) = 0: all 3^4 extensions are equivalent
    classes, exts = extensions.enumerate_extensions("Z5", "Z3")
    assert len(exts) == 3 ** 4
    assert classes == [list(range(3 ** 4))]
