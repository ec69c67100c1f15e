"""Command-line entry points: check, compose, convert, decompose,
enumerate-extensions, morita-witness.

Exit codes: 0 pass, 1 validation failure, 2 I/O or syntax error,
3 size cap exceeded.
"""

import argparse
import functools
import json
import sys
import time

from . import bibundle as bb
from . import crossing as cr
from . import extensions as extmod
from . import fingrpd, gdf, twogpd
from . import xmod as xmd
from .errors import (NotComposable, SizeLimitExceeded, ValidationFailure,
                     XModForgeError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SYNTAX = 2
EXIT_CAP = 3


def _load(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise gdf.GDFSyntaxError(0, str(e))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bytes before the first bad one decode; count their lines as
        # parse_gdf does
        line = len((data[:e.start].decode("utf-8") + "x").splitlines())
        raise gdf.GDFSyntaxError(line, f"byte 0x{data[e.start]:02x} is not UTF-8") from None
    return gdf.parse_gdf(text)


class Report:
    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.checks = []
        self.elapsed = 0.0

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def add(self, check, ok, witness=None):
        self.checks.append((check, ok, witness))

    def as_dict(self):
        return {
            "name": self.name, "kind": self.kind, "passed": self.passed,
            "elapsed": round(self.elapsed, 6),
            "checks": [{"check": c, "passed": ok,
                        "witness": None if w is None else repr(w)}
                       for c, ok, w in self.checks],
        }

    def lines(self):
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.kind} {self.name} "
               f"({len(self.checks)} checks, {self.elapsed:.3f}s)"]
        for c, ok, w in self.checks:
            if not ok:
                out.append(f"       {c}: FAIL witness={w!r}")
        return out


def _report_block(b, env):
    rep = Report(b.name, b.kind)
    t0 = time.perf_counter()
    try:
        obj = gdf.build_block(b, env)
        env[b.name] = obj
        # building validated the axioms (CR3' for an extension) and raised
        # on the first violation, so here they have passed
        if b.kind == "crossing":
            extra = ("CR3'",) if obj.is_extension else ()
            for ax in ("CR1", "CR2", "CR3", "CR4") + extra:
                rep.add(ax, True)
            rep.add("ImagesCommute", cr.images_commute(obj) == [])
        elif b.kind == "exchanger":
            rep.add("E1", True)
            rep.add("E2", True)
            ok, wit = bb.is_morita(obj.p)
            rep.add("Morita", ok, None if ok else wit[0].witness)
        else:
            rep.add("validate", True)
    except ValidationFailure as e:
        v = e.violations[0]
        rep.add(v.code, False, v.witness)
    except (gdf.UnresolvedReference, gdf.DuplicateName) as e:
        rep.add("resolve", False, str(e))
    rep.elapsed = time.perf_counter() - t0
    return rep


def cmd_check(args):
    doc = _load(args.file)
    env = {}
    reports = []
    for b in doc.blocks:
        if args.kind and b.kind != args.kind:
            continue
        reports.append(_report_block(b, env))
    if args.json_report:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for r in reports:
            for line in r.lines():
                print(line)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VALIDATION


def _input(env, names, i, need, *kinds):
    """The object the i-th of `names` names. A missing input or an unknown
    name raises UnresolvedReference (exit 2); an object that is none of
    `kinds` raises NotComposable(need) (exit 1)."""
    name = names[i] if i < len(names) else f"<input {i + 1}>"
    if name not in env:
        raise gdf.UnresolvedReference(name, "command line")
    if not isinstance(env[name], kinds):
        raise NotComposable(need)
    return env[name]


def cmd_compose(args):
    from . import exchanger as exm
    doc = _load(args.file)
    env = gdf.build_document(doc)
    op = args.op
    names = args.inputs
    if op == "diamond":
        m, n = (_input(env, names, i, "diamond needs two crossings", cr.Crossing)
                for i in (0, 1))
        out = cr.diamond(m, n)
        blocks = gdf.crossing_blocks(args.name, out)
    elif op == "bullet":
        need = "bullet needs two exchangers or two bibundles"
        p = _input(env, names, 0, need, exm.SemiExchanger, bb.Bibundle)
        q = _input(env, names, 1, need, type(p))
        if isinstance(p, exm.SemiExchanger):
            out = exm.vertical_compose(p, q)
            blocks = gdf.exchanger_blocks(args.name, out)
        else:
            out = bb.compose_bibundles(p, q)
            blocks = gdf.bibundle_blocks(args.name, out)
    elif op == "hdiamond":
        p, q = (_input(env, names, i, "hdiamond needs two exchangers",
                       exm.SemiExchanger) for i in (0, 1))
        out = exm.horizontal_diamond(p, q)
        blocks = gdf.exchanger_blocks(args.name, out)
    elif op == "semidirect":
        obj = _input(env, names, 0, "semidirect needs a crossing or an action",
                     cr.Crossing, fingrpd.ActionByAutomorphisms)
        if isinstance(obj, cr.Crossing):
            out, _ = cr.crossed_semidirect(obj, side=args.side)
        else:
            out = fingrpd.semidirect_product(obj)
        blocks = [gdf.groupoid_block(args.name, out)]
    elif op.startswith("pullback:"):
        mor = _input(env, [op.split(":", 1)[1]], 0, "pullback needs a morphism",
                     gdf.MorphismBlock, xmd.StrictXMorphism)
        omap = mor.omap or mor.amap
        obj = _input(env, names, 0, "pullback needs a crossing, an xmod or a "
                     "groupoid", cr.Crossing, xmd.CrossedModule, fingrpd.Groupoid)
        space = sorted(omap)
        if isinstance(obj, cr.Crossing):
            out = cr.pullback_crossing(obj, space, omap)
            blocks = gdf.crossing_blocks(args.name, out)
        elif isinstance(obj, xmd.CrossedModule):
            out, _ = xmd.pullback_xmod(obj, space, omap)
            blocks = gdf.xmod_blocks(args.name, out)
        else:
            out = fingrpd.pullback_groupoid(obj, space, omap)
            blocks = [gdf.groupoid_block(args.name, out)]
    else:
        raise NotComposable(f"unknown op {op!r}")
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    return EXIT_OK


def cmd_convert(args):
    doc = _load(args.file)
    env = gdf.build_document(doc)
    if args.direction == "xmod2gpd":
        obj = _input(env, [args.name], 0, "xmod2gpd needs an xmod",
                     xmd.CrossedModule)
        out = xmd.xmod_to_2groupoid(obj)
        blocks = [gdf.two_groupoid_block(args.name + "_2gpd", out)]
    elif args.direction == "2gpd2xmod":
        obj = _input(env, [args.name], 0, "2gpd2xmod needs a two-groupoid",
                     twogpd.TwoGroupoid)
        out = xmd.twogpd_to_xmod(obj)
        blocks = gdf.xmod_blocks(args.name + "_xmod", out)
    else:
        raise NotComposable(f"unknown direction {args.direction!r}")
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    return EXIT_OK


def cmd_decompose(args):
    from . import exchanger as exm
    doc = _load(args.file)
    env = gdf.build_document(doc)
    obj = _input(env, [args.name], 0, "decompose needs a crossing or an exchanger",
                 exm.SemiExchanger, cr.Crossing)
    if isinstance(obj, exm.SemiExchanger):
        pext, hom_a, hom_b = exm.exchanger_decompose(obj)
        blocks = gdf.crossing_blocks(args.name + "_P", pext)
        report = {"legA": exm.check_xext_equivalence(hom_a),
                  "legB": exm.check_xext_equivalence(hom_b)}
    else:
        gprime, chl, chr_ = cr.decompose_crossing(obj)
        blocks = gdf.xmod_blocks(args.name + "_Gprime", gprime)
        report = {"chiLeftHypercover": xmd.is_hypercover(chl),
                  "chiRightHypercover": xmd.is_hypercover(chr_)
                  if obj.is_extension else None}
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    if args.json_report:
        print(json.dumps(report, indent=2), file=sys.stderr)
    return EXIT_OK


def cmd_enumerate_extensions(args):
    classes, exts = extmod.enumerate_extensions(args.group, args.module,
                                                cap=args.cap_enum)
    print(f"# {len(classes)} Morita classes of {args.module}-extensions "
          f"of {args.group} (trivial action) "
          f"out of {len(exts)} normalized cocycles")
    blocks = []
    crossings = []
    for idx, cl in enumerate(classes):
        rep_ext = exts[cl[0]]
        blocks += gdf.extension_blocks(f"class{idx}", rep_ext)
        if args.cross_check:
            crossings.append(cr.extension_to_crossing(
                rep_ext, fiber_cap=args.cap_fiber))
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    # inequivalent middle groupoids separate two classes; equivalent ones
    # decide nothing, since the middle groupoid forgets iota and pi
    if args.cross_check:
        for i in range(len(crossings)):
            for j in range(i + 1, len(crossings)):
                wit = bb.morita_witness(crossings[i].m, crossings[j].m,
                                        node_cap=args.cap_iso)
                verdict = "inequivalent" if wit is None else \
                    "Morita equivalent, so they do not separate the pair"
                print(f"# classes {i},{j}: middle groupoids {verdict}")
    return EXIT_OK


def cmd_morita_witness(args):
    doc = _load(args.file)
    env = gdf.build_document(doc)
    g, h = (_input(env, [name], 0, "morita-witness needs two groupoids",
                   fingrpd.Groupoid) for name in (args.left, args.right))
    wit = bb.morita_witness(g, h, node_cap=args.cap_iso)
    if wit is None:
        print("# not Morita equivalent")
        return EXIT_VALIDATION
    blocks = gdf.bibundle_blocks("witness", wit)
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    return EXIT_OK


def make_parser():
    ap = argparse.ArgumentParser(
        prog="xmodforge",
        description="Exact finite-groupoid algebra: validate and compose "
                    "groupoids, 2-groupoids, crossed modules, crossings, "
                    "and exchangers stored in GDF files.")
    ap.add_argument("--cap-fiber", type=int, default=12,
                    help="Aut-bundle fiber enumeration cap")
    ap.add_argument("--cap-enum", type=int, default=64,
                    help="extension enumeration cap on |G|*|A|")
    ap.add_argument("--cap-iso", type=int, default=10 ** 6,
                    help="isomorphism search node cap")
    ap.add_argument("--json-report", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every block of a GDF file")
    p.add_argument("file")
    p.add_argument("--kind", choices=gdf.KINDS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compose", help="compose structures from a GDF file")
    p.add_argument("file")
    p.add_argument("--op", required=True,
                   help="diamond | bullet | hdiamond | semidirect | pullback:<map>")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--name", default="out")
    p.add_argument("--side", default="H1", choices=["H1", "H2"])
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("convert", help="xmod <-> 2-groupoid conversions")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--direction", required=True,
                   choices=["xmod2gpd", "2gpd2xmod"])
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decompose",
                       help="decompose a crossing or an exchanger")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("enumerate-extensions",
                       help="classify A-extensions of a cyclic group")
    p.add_argument("--group", required=True, choices=sorted(extmod.GROUPS))
    p.add_argument("--module", required=True, choices=sorted(extmod.GROUPS))
    p.add_argument("--action", default="trivial", choices=["trivial"])
    p.add_argument("--cross-check", action="store_true",
                   help="compare the middle groupoids of the classes' "
                        "crossings pair by pair")
    p.set_defaults(func=cmd_enumerate_extensions)

    p = sub.add_parser("morita-witness",
                       help="search a Morita bibundle between two groupoids")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_morita_witness)
    return ap


@functools.lru_cache(maxsize=None)
def _parser():
    """One parser per process: parsing keeps no state in it."""
    return make_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except gdf.GDFSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except (gdf.UnresolvedReference, gdf.DuplicateName) as e:
        print(f"document error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except SizeLimitExceeded as e:
        print(f"size cap: {e}", file=sys.stderr)
        return EXIT_CAP
    except ValidationFailure as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NotComposable as e:
        print(f"not composable: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except XModForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
