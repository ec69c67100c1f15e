#!/usr/bin/env python3
"""Shows that every output check of the benchmark rejects a planted wrong
answer, and accepts the right one.

    python3 perfbench/selftest.py [--seed 1]

For one item of each kind, the right result must pass `workloads.check`
and each planted wrong result must fail it.  On the documents that a known
fault makes raise, only that fault's exception is accepted.  Exits 1 if any check misses.
"""

import argparse
import copy
import os
import shutil
import sys

import run


def planted_morphism(mor):
    """The same exchanger morphism with every point sent to one image."""
    bad = copy.copy(mor)
    image = next(iter(mor.eta.values()))
    bad.eta = {p: image for p in mor.eta}
    return bad


def shrunk(crossing):
    """A copy of a crossing whose middle groupoid lost one arrow."""
    bad = copy.copy(crossing)
    bad.m = copy.copy(crossing.m)
    bad.m.arrows = sorted(crossing.m.arrows)[1:]
    return bad


def cases(wl, item, result, other):
    """(label, wrong result) pairs for one item; `other` is the result of
    an item of the same kind and a different size."""
    gt = wl.gt
    k = item.kind
    if "argv" in item.extra:
        code, out = result
        yield "wrong exit code", (code + 1, out)
        if k == "fault":
            yield "wrong violation code", (code, out.replace(item.extra["expect_code"], "CR0Failure"))
        if k == "check":
            yield "a failing report line", (code, out.replace("[PASS]", "[FAIL]", 1))
        if k in ("diamond", "bullet", "convert"):
            yield "not byte-stable", (code, out.replace("\n", "\n\n", 1))
        if k == "diamond":
            d_m = gt.read_blocks(out)["D_M"][1]
            unit = d_m["unit"][0].split("=")[1]
            comp = next(t for t in d_m["comp"] if not t.startswith(unit + "."))
            lhs, value = comp.rsplit("=", 1)
            wrong = next(a for a in d_m["arrows"] if a != value)
            yield "a broken composite", (code, out.replace(comp, f"{lhs}={wrong}", 1))
        if k == "bullet":
            space = gt.read_blocks(out)["PP"][1]["space"]
            yield "a lost point", (code, out.replace(f" {space[-1]}\n", "\n", 1)
                                   if f" {space[-1]}\n" in out else out.replace(space[-1], "", 1))
        if k == "convert":
            cells = gt.read_blocks(out)["X_2gpd"][1]["cells"]
            yield "a lost cell", (code, out.replace(f" {cells[-1]}", "", 1))
        return
    if k == "hypercover":
        gprime, left, right = result
        yield "chi_left refuted", (gprime, False, right)
        yield "wrong decomposition", (other[0], left, right)
        return
    if k == "diamond":
        yield "a lost arrow", shrunk(result)
        return
    if k == "m_mbar":
        phi, psi, d1, d2, w = result
        bad = copy.copy(phi)
        first = next(iter(phi.amap.values()))
        bad.amap = {a: first for a in phi.amap}
        yield "Phi1 not bijective", (bad, psi, d1, d2, w)
        yield "a lost arrow", (phi, psi, shrunk(d1), d2, w)
        return
    if k == "inverse":
        pbar, m1, m2 = result
        yield "P.Pbar => I not bijective", (pbar, planted_morphism(m1), m2)
        return
    if k == "structural":
        yield "associator not bijective", (planted_morphism(result[0]),) + result[1:]
        return
    if k == "unit":
        bad = dict(result)
        bad["mu_L_to_unit"] = planted_morphism(result["mu_L_to_unit"])
        yield "mu_L not bijective", bad
        return
    raise KeyError(k)


def planted_tables(wl, item):
    """The hypercover leg check on tables whose source base groupoid gains
    an object that no arrow reaches."""
    c = wl.gt.CrossingTables(wl.gt.read_blocks(item.text), item.name)
    c.src.g.objects.append("unreached")
    return wl.gt.leg_equivalence_failures(c, "left")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args(argv).seed
    missed = 0
    workdir = run.ROOT / ".perfbench_run" / f"selftest-{os.getpid()}"
    try:
        for workload in run.WORKLOADS:
            wl, items = run.setup(workload, seed, workdir)
            seen = set()
            for item in items:
                key = (item.kind, "argv" in item.extra)
                if key in seen:
                    continue
                seen.add(key)
                if item.kind == "missing_base":
                    for label, error in (("the known KeyError", KeyError("h")),
                                         ("another exception", TypeError("h"))):
                        caught = wl.raise_problems(item, error)
                        wrong = label == "another exception"
                        print(f"{workload:10} {item.kind:12} raised {label}: "
                              f"{f'rejected ({caught})' if caught else 'accepted'}")
                        missed += bool(caught) != wrong
                    continue
                result = wl.operation(item)(item)
                other_item = next((o for o in items if o.kind == item.kind
                                   and o.sig != item.sig and "argv" not in o.extra), None)
                other = wl.operation(other_item)(other_item) if other_item else None
                problems = wl.check(item, result)
                print(f"{workload:10} {item.kind:12} right answer: "
                      f"{'accepted' if not problems else problems}")
                missed += bool(problems)
                for label, wrong in cases(wl, item, result, other):
                    caught = wl.check(item, wrong)
                    print(f"{workload:10} {item.kind:12} {label}: "
                          f"{f'rejected ({caught})' if caught else 'MISSED'}")
                    missed += not caught
                if item.kind == "hypercover":
                    caught = planted_tables(wl, item)
                    print(f"{workload:10} {item.kind:12} unreached source object: "
                          f"{f'rejected ({caught})' if caught else 'MISSED'}")
                    missed += not caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all planted wrong answers rejected" if not missed else f"{missed} checks missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
