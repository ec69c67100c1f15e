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
from . import fingrpd, gdf
from . import xmod as xmd
from .errors import (NotComposable, SizeLimitExceeded, ValidationFailure,
                     XModForgeError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SYNTAX = 2
EXIT_CAP = 3


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return gdf.parse_gdf(fh.read())
    except OSError as e:
        raise gdf.GDFSyntaxError(0, str(e))


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


CROSSING_AXES = ("CR1", "CR2", "CR3", "CR4", "CR3Prime", "Square", "BadLeg",
                 "BadMoment")


def _report_block(b, env):
    rep = Report(b.name, b.kind)
    t0 = time.perf_counter()
    try:
        obj = gdf._BUILDERS[b.kind](b, env)
        env[b.name] = obj
        if b.kind == "crossing":
            c = obj
            violations = cr.check_crossing(c, prime=c.is_extension)
            seen = {}
            for v in violations:
                seen.setdefault(v.code, v.witness)
            for ax in ("CR1", "CR2", "CR3", "CR4"):
                code = ax + "Failure"
                rep.add(ax, code not in seen, seen.get(code))
            if c.is_extension:
                rep.add("CR3'", "CR3PrimeFailure" not in seen,
                        seen.get("CR3PrimeFailure"))
            rep.add("ImagesCommute", cr.images_commute(c) == [])
        elif b.kind == "exchanger":
            from . import exchanger as exm
            violations = exm.check_semi_exchanger(obj)
            e1 = [v for v in violations if v.code == "E1Failure"]
            e2 = [v for v in violations if v.code == "E2Failure"]
            rep.add("E1", not e1, e1[0].witness if e1 else None)
            rep.add("E2", not e2, e2[0].witness if e2 else None)
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


def _build_env(doc):
    return gdf.build_document(doc)


def cmd_compose(args):
    doc = _load(args.file)
    env = _build_env(doc)
    op = args.op
    names = args.inputs
    if op == "diamond":
        m, n = env[names[0]], env[names[1]]
        out = cr.diamond(m, n)
        blocks = gdf.crossing_blocks(args.name, out)
    elif op == "bullet":
        from . import exchanger as exm
        p, q = env[names[0]], env[names[1]]
        if isinstance(p, exm.SemiExchanger):
            out = exm.vertical_compose(p, q)
            blocks = gdf.exchanger_blocks(args.name, out)
        else:
            out = bb.compose_bibundles(p, q)
            blocks = gdf.bibundle_blocks(args.name, out)
    elif op == "hdiamond":
        from . import exchanger as exm
        out = exm.horizontal_diamond(env[names[0]], env[names[1]])
        blocks = gdf.exchanger_blocks(args.name, out)
    elif op == "semidirect":
        obj = env[names[0]]
        if isinstance(obj, cr.Crossing):
            out, _ = cr.crossed_semidirect(obj, side=args.side)
        elif isinstance(obj, fingrpd.ActionByAutomorphisms):
            out = fingrpd.semidirect_product(obj)
        else:
            raise NotComposable("semidirect needs a crossing or an action")
        blocks = [gdf.groupoid_block(args.name, out)]
    elif op.startswith("pullback:"):
        mapname = op.split(":", 1)[1]
        mor = env[mapname]
        omap = mor.omap if hasattr(mor, "omap") and mor.omap else mor.amap
        obj = env[names[0]]
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
    env = _build_env(doc)
    obj = env[args.name]
    if args.direction == "xmod2gpd":
        out = xmd.xmod_to_2groupoid(obj)
        blocks = [gdf.two_groupoid_block(args.name + "_2gpd", out)]
    elif args.direction == "2gpd2xmod":
        out = xmd.twogpd_to_xmod(obj)
        blocks = gdf.xmod_blocks(args.name + "_xmod", out)
    else:
        raise NotComposable(f"unknown direction {args.direction!r}")
    sys.stdout.write(gdf.print_gdf(gdf.document_of(blocks)))
    return EXIT_OK


def cmd_decompose(args):
    from . import exchanger as exm
    doc = _load(args.file)
    env = _build_env(doc)
    obj = env[args.name]
    if isinstance(obj, exm.SemiExchanger):
        pext, hom_a, hom_b = exm.exchanger_decompose(obj)
        blocks = gdf.crossing_blocks(args.name + "_P", pext)
        report = {"legA": exm.check_xext_equivalence(hom_a),
                  "legB": exm.check_xext_equivalence(hom_b)}
    elif isinstance(obj, cr.Crossing):
        gprime, chl, chr_ = cr.decompose_crossing(obj)
        blocks = gdf.xmod_blocks(args.name + "_Gprime", gprime)
        report = {"chiLeftHypercover": xmd.is_hypercover(chl),
                  "chiRightHypercover": xmd.is_hypercover(chr_)
                  if obj.is_extension else None}
    else:
        raise NotComposable("decompose needs a crossing or an exchanger")
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
    if args.cross_check:
        for i in range(len(crossings)):
            for j in range(i + 1, len(crossings)):
                wit = bb.morita_witness(crossings[i].m, crossings[j].m,
                                        node_cap=args.cap_iso)
                verdict = "EQUIVALENT?!" if wit is not None else "inequivalent"
                print(f"# classes {i},{j}: middle groupoids {verdict}")
                if wit is not None:
                    return EXIT_VALIDATION
    return EXIT_OK


def cmd_morita_witness(args):
    doc = _load(args.file)
    env = _build_env(doc)
    g, h = env[args.left], env[args.right]
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
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--action", default="trivial", choices=["trivial"])
    p.add_argument("--cross-check", action="store_true",
                   help="verify distinct classes give exchanger-inequivalent "
                        "crossings")
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
