"""GDF (Groupoid Description Format): a UTF-8 line-oriented text format.

Grammar: `#` starts a comment; a block is `kind name {` ... `}`; entries are
`key: tok tok ...`; map entries are `f=a` pairs; composition tables are
`g.h=k` with the convention src(g) = tgt(h). Names may not contain
whitespace, '.', '=', '#', '{', '}' at the top level (generated class labels
use balanced braces inside parentheses, which is allowed inside a token).

SCHEMA states the format once: each kind's keys in print order and how
each key's tokens read.  The parser, the printer, the reader and the
writers all follow it.  The canonical printer is deterministic: keys in
schema order, tokens sorted unless the schema keeps their order, eight
tokens per line; parse . print is the identity on canonical documents byte
for byte.
"""

from . import bibundle as bbmod
from . import crossing as crmod
from . import twogpd as tgmod
from . import xmod as xmmod
from . import fingrpd
from .errors import ValidationFailure, Violation, XModForgeError


class GDFSyntaxError(XModForgeError):
    def __init__(self, line, msg):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class UnresolvedReference(XModForgeError):
    def __init__(self, name, block):
        super().__init__(f"block {block!r} references unknown name {name!r}")


class DuplicateName(XModForgeError):
    def __init__(self, name, line):
        super().__init__(f"duplicate block name {name!r} at line {line}")


# how a key's tokens read: LABELS as they are, printed sorted; ORDERED as
# they are, printed in file order; MAP `f=a` entries; TABLE `g.h=k` entries;
# FLAG `yes` or `no`.  A class reads one reference to an earlier block whose
# object is an instance of it, and a one-element list [class] several such
# references, printed in file order.
LABELS, ORDERED, MAP, TABLE, FLAG = "labels", "ordered", "map", "table", "flag"

# every block kind's keys, in print order, and how each reads
SCHEMA = {
    "groupoid": {"objects": LABELS, "arrows": LABELS, "src": MAP, "tgt": MAP,
                 "inv": MAP, "unit": MAP, "comp": TABLE},
    "bundle": {"objects": LABELS, "arrows": LABELS, "base": MAP, "inv": MAP,
               "unit": MAP, "comp": TABLE},
    "action": {"groupoid": fingrpd.Groupoid, "bundle": fingrpd.GroupBundle,
               "act": TABLE},
    "two-groupoid": {"objects": LABELS, "arrows": LABELS, "src": MAP, "tgt": MAP,
                     "inv": MAP, "unit": MAP, "comp": TABLE, "cells": LABELS,
                     "src2": MAP, "tgt2": MAP, "vinv": MAP, "vunit": MAP,
                     "vcomp": TABLE, "hcomp": TABLE, "hinv": MAP},
    "xmod": {"groupoid": fingrpd.Groupoid, "bundle": fingrpd.GroupBundle,
             "boundary": MAP, "act": TABLE},
    "bibundle": {"left": fingrpd.Groupoid, "right": fingrpd.Groupoid,
                 "space": LABELS, "lmom": MAP, "rmom": MAP, "lact": TABLE,
                 "ract": TABLE},
    "crossing": {"source": xmmod.CrossedModule, "target": xmmod.CrossedModule,
                 "groupoid": fingrpd.Groupoid, "extension": FLAG, "tau": MAP,
                 "sigma": MAP, "a1": TABLE, "a2": MAP, "b1": TABLE, "b2": MAP},
    "exchanger": {"source": crmod.Crossing, "target": crmod.Crossing,
                  "space": LABELS, "lmom": MAP, "rmom": MAP, "lact": TABLE,
                  "ract": TABLE},
    # from and to may name a block of any kind
    "morphism": {"from": object, "to": object, "objects": MAP, "left": MAP,
                 "right": MAP, "map": MAP},
    "zigzag": {"modules": [xmmod.CrossedModule], "arrows": [xmmod.StrictXMorphism],
               "dirs": ORDERED},
}
KINDS = tuple(SCHEMA)

# the keys a block may leave out
OPTIONAL = {"two-groupoid": ["hinv"], "crossing": ["extension"],
            "morphism": list(SCHEMA["morphism"])}


class Block:
    def __init__(self, kind, name, entries, line):
        self.kind = kind
        self.name = name
        self.entries = entries  # key -> list of tokens
        self.line = line
        # (key, line number, tokens on it) for each key line, in file order,
        # as parse_gdf read them: one append per line keeps the parser fast
        self.lines = []

    def line_of(self, key, index=0):
        """The line that holds the key's token at index: the key's first
        line when no line holds one, and the block's own line when the
        block was not parsed."""
        spans = [(line, count) for k, line, count in self.lines if k == key]
        for line, count in spans:
            if index < count:
                return line
            index -= count
        return spans[0][0] if spans else self.line


class GDFDocument:
    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.by_name = {}
        for b in blocks:
            if b.name in self.by_name:
                raise DuplicateName(b.name, b.line)
            self.by_name[b.name] = b


def _check_token(tok, line):
    if any(ch in tok for ch in " \t=#") or "." in tok:
        raise GDFSyntaxError(line, f"illegal characters in name {tok!r}")


def parse_gdf(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.endswith("{"):
            if current is not None:
                raise GDFSyntaxError(lineno, "nested block")
            head = stripped[:-1].split()
            if len(head) != 2:
                raise GDFSyntaxError(lineno, "block header must be 'kind name {'")
            kind, name = head
            if kind not in KINDS:
                raise GDFSyntaxError(lineno, f"unknown block kind {kind!r}")
            _check_token(name, lineno)
            current, schema = Block(kind, name, {}, lineno), SCHEMA[kind]
            entries, lines = current.entries, current.lines
            continue
        if stripped == "}":
            if current is None:
                raise GDFSyntaxError(lineno, "'}' outside of a block")
            if len(entries) < len(schema):  # every key read is in the schema
                for key in schema:
                    if key not in entries and key not in OPTIONAL.get(current.kind, ()):
                        raise GDFSyntaxError(current.line,
                                             f"missing '{key}:' line in "
                                             f"{current.kind} {current.name}")
            blocks.append(current)
            current = None
            continue
        if current is None:
            raise GDFSyntaxError(lineno, "content outside of a block")
        key, colon, rest = stripped.partition(":")
        if not colon:
            raise GDFSyntaxError(lineno, "expected 'key: tokens'")
        key = key.strip()
        if key not in schema:
            raise GDFSyntaxError(lineno,
                                 f"unknown key {key!r} in {current.kind}")
        toks = rest.split()
        if "{" in rest and any(tok.endswith("{") for tok in toks):
            # printed last on its line, such a token would open a block
            raise GDFSyntaxError(lineno, "a token may not end with '{'")
        if key in entries:
            entries[key] += toks
        else:
            entries[key] = toks
        lines.append((key, lineno, len(toks)))
    if current is not None:
        raise GDFSyntaxError(current.line, "unterminated block")
    return GDFDocument(blocks)


def print_gdf(doc):
    out = []
    for b in doc.blocks:
        out.append(f"{b.kind} {b.name} {{")
        for key, how in SCHEMA[b.kind].items():
            if key not in b.entries:
                continue
            toks = b.entries[key]
            toks = list(toks) if how == ORDERED or isinstance(how, list) else sorted(toks)
            for i in range(0, len(toks), 8):
                out.append(f"  {key}: " + " ".join(toks[i:i + 8]))
            if not toks:
                # a key with no tokens keeps its bare line, so that it parses back
                out.append(f"  {key}:")
        out.append("}")
    return "\n".join(out) + "\n"


def _pairs(block, key):
    out = {}
    for i, tok in enumerate(block.entries[key]):
        if "=" not in tok:
            raise GDFSyntaxError(block.line_of(key, i), f"expected key=value, got {tok!r}")
        k, v = tok.rsplit("=", 1)
        out[k] = v
    return out


def _comp_pairs(block, key):
    out = {}
    for i, tok in enumerate(block.entries[key]):
        if "=" not in tok:
            raise GDFSyntaxError(block.line_of(key, i), f"expected g.h=k, got {tok!r}")
        k, v = tok.rsplit("=", 1)
        if "." not in k:
            raise GDFSyntaxError(block.line_of(key, i),
                                 f"expected g.h on the left of {tok!r}")
        g, h = k.split(".", 1)
        out[(g, h)] = v
    return out


# -- reader (GDF -> validated objects) ---------------------------------------


def build_document(doc):
    """Validate and construct every block, in order. Returns {name: object}."""
    env = {}
    for b in doc.blocks:
        env[b.name] = build_block(b, env)
    return env


def build_block(block, env):
    """Validate and construct one block against the objects built so far."""
    values = _read(block, env)
    if block.kind == "morphism":
        # what it builds depends on what it names, and a bad name is reported
        return _morphism(block, *values)
    return _BUILDERS[block.kind](*values)


def _read(block, env):
    """The values of the block's keys, in key order, read as SCHEMA says;
    a missing key reads as None."""
    values = []
    for key, how in SCHEMA[block.kind].items():
        toks = block.entries.get(key)
        if toks is None or how in (LABELS, ORDERED):
            values.append(toks)
        elif how == MAP:
            values.append(_pairs(block, key))
        elif how == TABLE:
            values.append(_comp_pairs(block, key))
        elif isinstance(how, list):
            values.append([_ref(env, name, block, how[0]) for name in toks])
        elif how == FLAG:
            values.append(_one(block, key, toks, ("yes", "no")) == "yes")
        else:
            values.append(_ref(env, _one(block, key, toks), block, how))
    return values


def _one(block, key, toks, choices=None):
    """The one token of a reference or flag line; a line with no token, with
    more than one, or with a flag other than the choices is a syntax error,
    reported at the key's line, the line of its second token or that of
    the flag."""
    if not toks:
        problem, want, at = "without a token", "", 0
    elif len(toks) > 1:
        problem, want, at = f"with {len(toks)} tokens", "; it takes one", 1
    elif choices and toks[0] not in choices:
        problem, want, at = f"with {toks[0]!r}", f"; it takes {' or '.join(choices)}", 0
    else:
        return toks[0]
    raise GDFSyntaxError(block.line_of(key, at), f"'{key}:' line {problem} in "
                                                 f"{block.kind} {block.name}{want}")


def _ref(env, name, block, want):
    if name not in env or not isinstance(env[name], want):
        raise UnresolvedReference(name, block.name)
    return env[name]


def _bundle(objects, arrows, base, inv, unit, comp):
    return fingrpd.validate_group_bundle(objects, arrows, base, dict(base), inv, unit, comp)


def _xmod(base, bundle, boundary, act):
    action = fingrpd.validate_action(base, bundle, act)
    return xmmod.validate_crossed_module(base, bundle, boundary, action)


def _two_groupoid(objects, arrows, src, tgt, inv, unit, comp,
                  cells, src2, tgt2, vinv, vunit, vcomp, hcomp, hinv):
    # raw levels: check_2groupoid checks them, with Level1:/Level2: codes
    level1 = fingrpd.Groupoid(objects, arrows, src, tgt, inv, unit, comp)
    vertical = fingrpd.Groupoid(level1.arrows, cells, src2, tgt2, vinv, vunit, vcomp)
    if hinv is None:
        # derived from hcomp, vunit and vinv, as make_2groupoid derives it
        return tgmod.make_2groupoid(level1, vertical, hcomp)
    return tgmod.validate_2groupoid(tgmod.TwoGroupoid(level1, vertical, hcomp, hinv))


def _crossing(source, target, m, extension, tau, sigma, a1, a2, b1, b2):
    return crmod.validate_crossing(source, target, m, tau, sigma, a1, a2, b1, b2,
                                   bool(extension))


def _exchanger(source, target, space, lmom, rmom, lact, ract):
    from . import exchanger as exmod
    p = bbmod.validate_bibundle(source.m, target.m, space, lmom, rmom, lact, ract)
    return exmod.validate_semi_exchanger(source, target, p)


class MorphismBlock:
    """Loosely-typed morphism data, an object map and an arrow map;
    interpreted by the operation using it."""

    def __init__(self, omap, amap):
        self.omap, self.amap = omap, amap


def _morphism(b, frm, to, omap, lmap, rmap, amap):
    omap = omap or {}
    if isinstance(frm, xmmod.CrossedModule) and to is not None and lmap and rmap:
        # a strict morphism of crossed modules: its target is one too
        if not isinstance(to, xmmod.CrossedModule):
            raise UnresolvedReference(b.entries["to"][0], b.name)
        return xmmod.validate_strict_xmorphism(frm, to, omap, lmap, rmap)
    return MorphismBlock(omap, amap or {})


def _zigzag(modules, arrows, dirs):
    for i, chi in enumerate(arrows):
        if not xmmod.is_hypercover(chi):
            raise ValidationFailure([Violation("NotAHypercover", (i,))])
    return crmod.ZigZag(modules, arrows, dirs)


_BUILDERS = {
    "groupoid": fingrpd.validate_groupoid,
    "bundle": _bundle,
    "action": fingrpd.validate_action,
    "two-groupoid": _two_groupoid,
    "xmod": _xmod,
    "bibundle": bbmod.validate_bibundle,
    "crossing": _crossing,
    "exchanger": _exchanger,
    "zigzag": _zigzag,
}


# -- writers (objects -> GDF blocks) ------------------------------------------


def _block(kind, name, values):
    """The block of the values, given in key order and written as SCHEMA
    says; a None value leaves its key out."""
    entries = {}
    for (key, how), value in zip(SCHEMA[kind].items(), values, strict=True):
        if value is None:
            continue
        if how == MAP:
            entries[key] = [f"{k}={v}" for k, v in value.items()]
        elif how == TABLE:
            entries[key] = [f"{g}.{h}={k}" for (g, h), k in value.items()]
        elif how == FLAG:
            entries[key] = ["yes" if value else "no"]
        elif isinstance(how, type):
            entries[key] = [value]
        else:
            entries[key] = list(value)
    return Block(kind, name, entries, 0)


def _tables(g):
    return [g.objects, g.arrows, g.src, g.tgt, g.inv, g.unit, g.comp]


def groupoid_block(name, g):
    return _block("groupoid", name, _tables(g))


def bundle_block(name, h):
    return _block("bundle", name, [h.objects, h.arrows, h.src, h.inv, h.unit, h.comp])


def xmod_blocks(name, xm):
    gname, hname = f"{name}_G", f"{name}_H"
    return [groupoid_block(gname, xm.g), bundle_block(hname, xm.h),
            _block("xmod", name, [gname, hname, xm.boundary, xm.action.act])]


def two_groupoid_block(name, tg):
    # the vertical groupoid's objects are the 1-cells, written once
    return _block("two-groupoid", name, _tables(tg.level1) + _tables(tg.vertical)[1:]
                  + [tg.hcomp, tg.hinv])


def _bibundle_values(zb):
    return [zb.space, zb.lmom, zb.rmom, zb.lact, zb.ract]


def bibundle_blocks(name, zb):
    left_name, right_name = f"{name}_L", f"{name}_R"
    return [groupoid_block(left_name, zb.left), groupoid_block(right_name, zb.right),
            _block("bibundle", name, [left_name, right_name] + _bibundle_values(zb))]


def crossing_blocks(name, c, src_name=None, dst_name=None):
    blocks = []
    if src_name is None:
        src_name = f"{name}_src"
        blocks += xmod_blocks(src_name, c.src)
    if dst_name is None:
        dst_name = f"{name}_dst"
        blocks += xmod_blocks(dst_name, c.dst)
    mname = f"{name}_M"
    blocks.append(groupoid_block(mname, c.m))
    blocks.append(_block("crossing", name, [
        src_name, dst_name, mname, c.is_extension, c.tau, c.sigma, c.a1, c.a2, c.b1, c.b2]))
    return blocks


def exchanger_blocks(name, ex, src_name=None, dst_name=None):
    blocks = []
    if src_name is None:
        src_name = f"{name}_A"
        blocks += crossing_blocks(src_name, ex.source)
    if dst_name is None:
        dst_name = f"{name}_B"
        blocks += crossing_blocks(dst_name, ex.target)
    blocks.append(_block("exchanger", name, [src_name, dst_name] + _bibundle_values(ex.p)))
    return blocks


def extension_blocks(name, ext):
    """A groupoid A-extension as bundle/groupoid/groupoid + morphism blocks."""
    return [bundle_block(f"{name}_A", ext.a),
            groupoid_block(f"{name}_E", ext.e),
            groupoid_block(f"{name}_G", ext.g),
            _block("morphism", f"{name}_iota",
                   [f"{name}_A", f"{name}_E", None, None, None, ext.iota]),
            _block("morphism", f"{name}_pi",
                   [f"{name}_E", f"{name}_G", None, None, None, ext.pi])]


def document_of(blocks):
    return GDFDocument(blocks)
