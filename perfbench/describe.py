#!/usr/bin/env python3
"""Prints the make-up of one round of each workload's corpus.

    python3 perfbench/describe.py [--seed 1]

Per workload: one line per operation kind and size signature with its
count in a round, then histograms of |G1| (arrows of the middle groupoid M,
or of the base groupoid G for a crossed module), |G2| (cells of the
vertical 2-groupoid that the operation builds or checks), |Z| (points of
the exchanger's bibundle) and the document size in KiB.
"""

import argparse
import os
import shutil
from collections import Counter

import run


def sizes(gt, item):
    """(|G1|, |G2|, |Z|) read from the item's GDF tables; None when the
    document has no such part."""
    blocks = gt.read_blocks(item.text)

    def first(kind):
        return next((name for name, (k, _) in blocks.items() if k == kind), None)

    g1 = g2 = z = None
    if first("exchanger"):
        z = len(blocks[first("exchanger")][1]["space"])
    if first("crossing"):
        c = gt.CrossingTables(blocks, first("crossing"))
        g1, g2 = len(c.m.arrows), gt.decomposition_cells(c)
    elif first("xmod"):
        xm = gt.XModTables(blocks, first("xmod"))
        g1, g2 = len(xm.g.arrows), gt.vertical_cells(xm)
    return g1, g2, z


def histogram(values):
    counts = Counter(v for v in values if v is not None)
    return "  ".join(f"{v}:{n}" for v, n in sorted(counts.items())) or "-"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args(argv).seed
    workdir = run.ROOT / ".perfbench_run" / f"describe-{os.getpid()}"
    try:
        for workload in run.WORKLOADS:
            wl, items = run.setup(workload, seed, workdir)
            print(f"## {workload} (seed {seed}): {len(items)} operations per round")
            for (kind, sig), n in sorted(Counter((i.kind, i.sig) for i in items).items(),
                                         key=str):
                print(f"  {n} x {kind} {sig}")
            rows = [sizes(wl.gt, i) for i in items]
            for label, col in (("|G1|", 0), ("|G2|", 1), ("|Z|", 2)):
                print(f"  {label:5} {histogram(r[col] for r in rows)}")
            kib = [round(len(i.text.encode()) / 1024, 1) for i in items]
            print(f"  KiB   {histogram(kib)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
