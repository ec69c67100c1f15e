"""The operations of each workload and the checks on their outputs.

An operation takes one corpus item, parses and builds its objects from the
GDF text, and calls the library.  Only the operation is timed.  `summary`
reduces a result to a small comparable value; `check` tests a result
against properties that the method must have, computed by `gdftables` from
the input's GDF tables rather than by the library.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import gdftables as gt
from xmodforge import cli, gdf, xmod
from xmodforge import crossing as cr
from xmodforge import exchanger as exm

import corpus


def build(item):
    return gdf.build_document(gdf.parse_gdf(item.text))[item.name]


# -- operations ------------------------------------------------------------------


def op_hypercover(item):
    c = build(item)
    gprime, chi_left, chi_right = cr.decompose_crossing(c)
    left = xmod.is_hypercover(chi_left)
    right = xmod.is_hypercover(chi_right) if c.is_extension else None
    return gprime, left, right


def op_diamond(item):
    c = build(item)
    return cr.diamond(c, cr.mbar(c))


def op_m_mbar(item):
    return cr.verify_m_mbar(build(item), want_witness=False)


def op_inverse(item):
    return exm.exchanger_inverse(build(item))


def op_structural(item):
    p = build(item)
    return exm.structural_isos(p, p, p) + (exm.eta_square(p, p, p, p),)


def op_unit(item):
    return exm.unit_witnesses(build(item))


def op_cli(item):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(item.extra["argv"])
    return code, out.getvalue()


OPS = {
    "hypercover": op_hypercover,
    "diamond": op_diamond, "m_mbar": op_m_mbar, "inverse": op_inverse,
    "structural": op_structural, "unit": op_unit,
}

CORPORA = {
    "hypercover": corpus.hypercover_corpus,
    "exchanger": corpus.exchanger_corpus,
    "cli": corpus.cli_corpus,
}


def operation(item):
    if "argv" in item.extra:
        return op_cli
    return OPS[item.kind]


def raise_problems(item, error):
    """Problems with an operation that raised: only the exception that a
    known fault of the program raises on the item is accepted."""
    want = item.extra.get("expect_raise")
    if type(error).__name__ == want:
        return []
    return [f"raised {error!r}" + (f", expected {want}" if want else "")]


# -- summaries ---------------------------------------------------------------------

_ELAPSED = re.compile(r", [0-9.]+s\)$", re.M)


def summary(item, result):
    """A small value that every repeat of the operation must reproduce."""
    if "argv" in item.extra:
        code, out = result
        return code, _ELAPSED.sub(")", out)
    k = item.kind
    if k == "hypercover":
        gprime, left, right = result
        return left, right, len(gprime.g.arrows), len(gprime.h.arrows)
    if k == "diamond":
        return result.is_extension, len(result.m.arrows), len(result.m.objects)
    if k == "m_mbar":
        phi, psi, d1, d2, _ = result
        return len(phi.amap), len(psi.amap), len(d1.m.arrows), len(d2.m.arrows)
    if k == "inverse":
        pbar, m1, m2 = result
        return len(pbar.p.space), len(m1.eta), len(m2.eta)
    if k == "structural":
        return tuple(len(mor.eta) for mor in result)
    if k == "unit":
        return tuple(sorted((key, len(result[key].eta)) for key in result
                            if key.startswith("mu_")))
    raise KeyError(k)


# -- checks ------------------------------------------------------------------------


def _bijective(mor):
    return gt.is_bijection(mor.eta, mor.src.p.space, mor.dst.p.space)


def check(item, result):
    """Problems found in the result (empty when it is right)."""
    if "argv" in item.extra:
        return check_cli(item, *result)
    blocks = gt.read_blocks(item.text)
    k = item.kind
    if k == "hypercover":
        gprime, left, right = result
        c = gt.CrossingTables(blocks, item.name)
        problems = []
        if left is not True:
            problems.append("chi_left is not a hypercover")
        if c.is_extension and right is not True:
            problems.append("chi_right of an extension is not a hypercover")
        cells = sum(len(gprime.h.fiber(gprime.g.tgt[g])) for g in gprime.g.arrows)
        if cells != gt.decomposition_cells(c):
            problems.append(f"|G2| {cells} != {gt.decomposition_cells(c)}")
        problems += gt.leg_equivalence_failures(c, "left")
        if c.is_extension:
            problems += gt.leg_equivalence_failures(c, "right")
        return problems
    if k == "diamond":
        c = gt.CrossingTables(blocks, item.name)
        problems = [] if result.is_extension else ["diamond is not an extension"]
        if len(result.m.arrows) != gt.diamond_size(c):
            problems.append(f"|M<>Mbar| {len(result.m.arrows)} != {gt.diamond_size(c)}")
        if set(result.m.objects) != set(c.m.objects):
            problems.append("diamond objects differ from M's")
        return problems
    if k == "m_mbar":
        phi, psi, d1, d2, _ = result
        c = gt.CrossingTables(blocks, item.name)
        problems = []
        if not gt.is_bijection(phi.amap, d1.m.arrows, phi.cod.arrows):
            problems.append("Phi1 is not bijective")
        if any(psi.amap.get(phi.amap[a]) != a for a in d1.m.arrows):
            problems.append("Psi1 Phi1 is not the identity")
        if any(phi.amap.get(psi.amap[a]) != a for a in phi.cod.arrows):
            problems.append("Phi1 Psi1 is not the identity")
        if not len(d1.m.arrows) == len(d2.m.arrows) == gt.diamond_size(c):
            problems.append("diamond sizes disagree")
        return problems
    if k == "inverse":
        pbar, m1, m2 = result
        exch = blocks[item.name][1]
        size = {side: len(gt.Tables(blocks[blocks[exch[key][0]][1]["groupoid"][0]][1]).arrows)
                for side, key in (("A", "source"), ("B", "target"))}
        problems = []
        for name, mor, side in (("P.Pbar => I", m1, "A"), ("Pbar.P => I", m2, "B")):
            if not _bijective(mor):
                problems.append(f"{name} is not bijective")
            if len(mor.dst.p.space) != size[side]:
                problems.append(f"{name}: |I| {len(mor.dst.p.space)} != |M| {size[side]}")
        if len(pbar.p.space) != len(exch["space"]):
            problems.append("|Pbar| != |P|")
        return problems
    if k == "structural":
        problems = [f"{name} is not bijective" for name, mor
                    in zip(("associator", "r", "l", "eta-square"), result)
                    if not _bijective(mor)]
        size = len(blocks[item.name][1]["space"])
        for name, mor in zip(("associator", "r", "l"), result[:3]):
            if len(mor.src.p.space) != size:
                problems.append(f"{name}: |source| {len(mor.src.p.space)} != |P| {size}")
        return problems
    if k == "unit":
        c = gt.CrossingTables(blocks, item.name)
        problems = []
        for key in ("mu_R_to_unit", "mu_Rbar_to_unit", "mu_L_to_unit", "mu_Lbar_to_unit"):
            mor = result[key]
            if not _bijective(mor):
                problems.append(f"{key} is not bijective")
            if len(mor.dst.p.space) != len(mor.dst.source.m.arrows):
                problems.append(f"{key}: target is not an identity exchanger")
        for key in ("mu_Rbar_to_unit", "mu_Lbar_to_unit"):
            if len(result[key].dst.p.space) != len(c.m.arrows):
                problems.append(f"{key}: |I| != |M|")
        return problems
    raise KeyError(k)


def _reprint_problems(out):
    try:
        again = gdf.print_gdf(gdf.parse_gdf(out))
    except Exception as e:  # the output must parse; report any failure
        return [f"output does not re-parse: {e!r}"]
    return [] if again == out else ["parse . print is not byte-identical"]


def check_cli(item, code, out):
    want = item.extra["expect_exit"]
    if code != want:
        return [f"exit code {code}, expected {want}"]
    k = item.kind
    lines = out.splitlines()
    if k == "check":
        bad = [line for line in lines if not line.startswith("[PASS]")]
        return [f"unexpected report line {line!r}" for line in bad]
    if k == "fault":
        failed = [line for line in lines if line.startswith("[FAIL]")]
        want_code = item.extra["expect_code"]
        codes = [line.split(":")[0].strip() for line in lines
                 if line.startswith("       ")]
        if len(failed) != 1 or codes != [want_code]:
            return [f"expected one failing block with {want_code}, got {failed} {codes}"]
        return []
    if k == "missing_base":
        return []
    problems = _reprint_problems(out)
    blocks = gt.read_blocks(out)
    source = gt.read_blocks(item.text)
    if k == "diamond":
        d_m = gt.Tables(blocks["D_M"][1])
        problems += [f"D_M breaks {ax}" for ax in gt.groupoid_axiom_failures(d_m)]
        if blocks["D"][1].get("extension") != ["yes"]:
            problems.append("M<>Mbar is not printed as an extension")
        want_size = gt.diamond_size(gt.CrossingTables(source, "M"))
        if len(d_m.arrows) != want_size:
            problems.append(f"|D_M| {len(d_m.arrows)} != {want_size}")
    elif k == "bullet":
        pp = blocks["PP"][1]
        a_m = gt.Tables(blocks[blocks[pp["source"][0]][1]["groupoid"][0]][1])
        problems += [f"PP source middle breaks {ax}"
                     for ax in gt.groupoid_axiom_failures(a_m)]
        if len(pp["space"]) != len(a_m.arrows):
            problems.append(f"|P.Pbar| {len(pp['space'])} != |I| {len(a_m.arrows)}")
    elif k == "convert":
        tg = blocks["X_2gpd"][1]
        level1 = gt.Tables(tg)
        vertical = gt.Tables({"objects": tg["arrows"], "arrows": tg["cells"],
                              "src": tg["src2"], "tgt": tg["tgt2"], "inv": tg["vinv"],
                              "unit": tg["vunit"], "comp": tg["vcomp"]})
        problems += [f"level 1 breaks {ax}" for ax in gt.groupoid_axiom_failures(level1)]
        problems += [f"vertical groupoid breaks {ax}"
                     for ax in gt.groupoid_axiom_failures(vertical)]
        want_cells = gt.vertical_cells(gt.XModTables(source, "X"))
        if len(tg["cells"]) != want_cells:
            problems.append(f"|G2| {len(tg['cells'])} != {want_cells}")
    return problems
