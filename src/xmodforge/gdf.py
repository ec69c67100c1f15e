"""GDF (Groupoid Description Format): a UTF-8 line-oriented text format.

Grammar: `#` starts a comment; a block is `kind name {` ... `}`; entries are
`key: tok tok ...`; map entries are `f=a` pairs; composition tables are
`g.h=k` with the convention src(g) = tgt(h). Names may not contain
whitespace, '.', '=', '#', '{', '}' at the top level (generated class labels
use balanced braces inside parentheses, which is allowed inside a token).

The canonical printer is deterministic: fixed key order per kind, sorted
tokens, eight tokens per line; parse . print is the identity on canonical
documents byte for byte.
"""

from . import bibundle as bbmod
from . import crossing as crmod
from . import twogpd as tgmod
from . import xmod as xmmod
from . import fingrpd
from .errors import XModForgeError


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


KINDS = ("groupoid", "bundle", "action", "two-groupoid", "xmod", "bibundle",
         "crossing", "exchanger", "morphism", "zigzag")

KEY_ORDER = {
    "groupoid": ["objects", "arrows", "src", "tgt", "inv", "unit", "comp"],
    "bundle": ["objects", "arrows", "base", "inv", "unit", "comp"],
    "action": ["groupoid", "bundle", "act"],
    "two-groupoid": ["objects", "arrows", "src", "tgt", "inv", "unit", "comp",
                     "cells", "src2", "tgt2", "vinv", "vunit", "vcomp",
                     "hcomp", "hinv"],
    "xmod": ["groupoid", "bundle", "boundary", "act"],
    "bibundle": ["left", "right", "space", "lmom", "rmom", "lact", "ract"],
    "crossing": ["source", "target", "groupoid", "extension", "tau", "sigma",
                 "a1", "a2", "b1", "b2"],
    "exchanger": ["source", "target", "space", "lmom", "rmom", "lact", "ract"],
    "morphism": ["from", "to", "objects", "left", "right", "map"],
    "zigzag": ["modules", "arrows", "dirs"],
}

# the keys a block may leave out
OPTIONAL = {"two-groupoid": ["hinv"], "crossing": ["extension"],
            "morphism": KEY_ORDER["morphism"]}
REQUIRED = {kind: [key for key in keys if key not in OPTIONAL.get(kind, ())]
            for kind, keys in KEY_ORDER.items()}


class Block:
    def __init__(self, kind, name, entries, line):
        self.kind = kind
        self.name = name
        self.entries = entries  # key -> list of tokens, or a label set
        self.line = line


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
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
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
            current = Block(kind, name, {}, lineno)
            continue
        if stripped == "}":
            if current is None:
                raise GDFSyntaxError(lineno, "'}' outside of a block")
            for key in REQUIRED[current.kind]:
                if key not in current.entries:
                    raise GDFSyntaxError(current.line,
                                         f"missing '{key}:' line in "
                                         f"{current.kind} {current.name}")
            blocks.append(current)
            current = None
            continue
        if current is None:
            raise GDFSyntaxError(lineno, "content outside of a block")
        if ":" not in stripped:
            raise GDFSyntaxError(lineno, "expected 'key: tokens'")
        key, rest = stripped.split(":", 1)
        key = key.strip()
        if key not in KEY_ORDER[current.kind]:
            raise GDFSyntaxError(lineno,
                                 f"unknown key {key!r} in {current.kind}")
        toks = rest.split()
        if "{" in rest and any(tok.endswith("{") for tok in toks):
            # printed last on its line, such a token would open a block
            raise GDFSyntaxError(lineno, "a token may not end with '{'")
        current.entries.setdefault(key, []).extend(toks)
    if current is not None:
        raise GDFSyntaxError(current.line, "unterminated block")
    return GDFDocument(blocks)


_ORDERED_KEYS = {("zigzag", "modules"), ("zigzag", "arrows"), ("zigzag", "dirs")}


def print_gdf(doc):
    out = []
    for b in doc.blocks:
        out.append(f"{b.kind} {b.name} {{")
        for key in KEY_ORDER[b.kind]:
            if key not in b.entries:
                continue
            toks = b.entries[key]
            toks = list(toks) if (b.kind, key) in _ORDERED_KEYS else sorted(toks)
            for i in range(0, len(toks), 8):
                out.append(f"  {key}: " + " ".join(toks[i:i + 8]))
            if not toks:
                # a key with no tokens keeps its bare line, so that it parses back
                out.append(f"  {key}:")
        out.append("}")
    return "\n".join(out) + "\n"


def _pairs(tokens, line=0):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise GDFSyntaxError(line, f"expected key=value, got {tok!r}")
        k, v = tok.rsplit("=", 1)
        out[k] = v
    return out


def _comp_pairs(tokens, line=0):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise GDFSyntaxError(line, f"expected g.h=k, got {tok!r}")
        k, v = tok.rsplit("=", 1)
        if "." not in k:
            raise GDFSyntaxError(line, f"expected g.h on the left of {tok!r}")
        g, h = k.split(".", 1)
        out[(g, h)] = v
    return out


# -- builders (GDF -> validated objects) -------------------------------------


def build_document(doc):
    """Validate and construct every block, in order. Returns {name: object}."""
    env = {}
    for b in doc.blocks:
        env[b.name] = build_block(b, env)
    return env


def build_block(block, env):
    """Validate and construct one block against the objects built so far."""
    return _BUILDERS[block.kind](block, env)


def _first(block, key, default=None):
    """The first token of the block's `key:` line, default when there is no
    such line; a line without tokens is a syntax error."""
    if key not in block.entries:
        return default
    if not block.entries[key]:
        raise GDFSyntaxError(block.line, f"'{key}:' line without a token in "
                                         f"{block.kind} {block.name}")
    return block.entries[key][0]


def _ref(env, name, block, want=None):
    if name not in env:
        raise UnresolvedReference(name, block.name)
    obj = env[name]
    if want is not None and not isinstance(obj, want):
        raise UnresolvedReference(name, block.name)
    return obj


def _build_groupoid(b, env):
    e = b.entries
    return fingrpd.validate_groupoid(
        e["objects"], e["arrows"], _pairs(e["src"], b.line),
        _pairs(e["tgt"], b.line), _pairs(e["inv"], b.line),
        _pairs(e["unit"], b.line), _comp_pairs(e["comp"], b.line))


def _build_bundle(b, env):
    e = b.entries
    base = _pairs(e["base"], b.line)
    return fingrpd.validate_group_bundle(
        e["objects"], e["arrows"], base, dict(base),
        _pairs(e["inv"], b.line), _pairs(e["unit"], b.line),
        _comp_pairs(e["comp"], b.line))


def _build_action(b, env):
    e = b.entries
    base = _ref(env, _first(b, "groupoid"), b, fingrpd.Groupoid)
    bundle = _ref(env, _first(b, "bundle"), b, fingrpd.GroupBundle)
    act = _comp_pairs(e["act"], b.line)
    return fingrpd.validate_action(base, bundle, act)


def _build_xmod(b, env):
    e = b.entries
    base = _ref(env, _first(b, "groupoid"), b, fingrpd.Groupoid)
    bundle = _ref(env, _first(b, "bundle"), b, fingrpd.GroupBundle)
    act = _comp_pairs(e["act"], b.line)
    action = fingrpd.validate_action(base, bundle, act)
    boundary = _pairs(e["boundary"], b.line)
    return xmmod.validate_crossed_module(base, bundle, boundary, action)


def _build_two_groupoid(b, env):
    e = b.entries
    tg = tgmod.TwoGroupoid(
        e["objects"], e["arrows"], _pairs(e["src"], b.line),
        _pairs(e["tgt"], b.line), _pairs(e["inv"], b.line),
        _pairs(e["unit"], b.line), _comp_pairs(e["comp"], b.line),
        e["cells"], _pairs(e["src2"], b.line), _pairs(e["tgt2"], b.line),
        _pairs(e["vinv"], b.line), _pairs(e["vunit"], b.line),
        _comp_pairs(e["vcomp"], b.line), _comp_pairs(e["hcomp"], b.line),
        _pairs(e.get("hinv", []), b.line))
    return tgmod.validate_2groupoid(tg)


def _build_bibundle(b, env):
    e = b.entries
    left = _ref(env, _first(b, "left"), b, fingrpd.Groupoid)
    right = _ref(env, _first(b, "right"), b, fingrpd.Groupoid)
    lact = _comp_pairs(e["lact"], b.line)
    ract = _comp_pairs(e["ract"], b.line)
    return bbmod.validate_bibundle(
        left, right, e["space"], _pairs(e["lmom"], b.line),
        _pairs(e["rmom"], b.line), lact, ract)


def _build_crossing(b, env):
    e = b.entries
    src = _ref(env, _first(b, "source"), b, xmmod.CrossedModule)
    dst = _ref(env, _first(b, "target"), b, xmmod.CrossedModule)
    m = _ref(env, _first(b, "groupoid"), b, fingrpd.Groupoid)
    a1 = _comp_pairs(e["a1"], b.line)
    b1 = _comp_pairs(e["b1"], b.line)
    args = (src, dst, m, _pairs(e["tau"], b.line), _pairs(e["sigma"], b.line),
            a1, _pairs(e["a2"], b.line), b1, _pairs(e["b2"], b.line))
    extension = _first(b, "extension", "no") == "yes"
    if extension:
        return crmod.validate_crossed_extension(*args)
    return crmod.validate_crossing(*args)


def _build_exchanger(b, env):
    from . import exchanger as exmod
    e = b.entries
    src = _ref(env, _first(b, "source"), b, crmod.Crossing)
    dst = _ref(env, _first(b, "target"), b, crmod.Crossing)
    lact = _comp_pairs(e["lact"], b.line)
    ract = _comp_pairs(e["ract"], b.line)
    p = bbmod.validate_bibundle(
        src.m, dst.m, e["space"], _pairs(e["lmom"], b.line),
        _pairs(e["rmom"], b.line), lact, ract)
    return exmod.validate_semi_exchanger(src, dst, p)


class MorphismBlock:
    """Loosely-typed morphism data; interpreted by the operation using it."""

    def __init__(self, frm, to, omap, lmap, rmap, amap):
        self.frm, self.to = frm, to
        self.omap, self.lmap, self.rmap, self.amap = omap, lmap, rmap, amap


def _build_morphism(b, env):
    e = b.entries
    frm = _first(b, "from")
    to = _first(b, "to")
    data = MorphismBlock(
        frm, to,
        _pairs(e.get("objects", []), b.line),
        _pairs(e.get("left", []), b.line),
        _pairs(e.get("right", []), b.line),
        _pairs(e.get("map", []), b.line))
    src, dst = (None if name is None else _ref(env, name, b) for name in (frm, to))
    if isinstance(src, xmmod.CrossedModule) and dst is not None and data.lmap and data.rmap:
        # a strict morphism of crossed modules: its target is one too
        return xmmod.validate_strict_xmorphism(
            src, _ref(env, to, b, xmmod.CrossedModule), data.omap, data.lmap, data.rmap)
    return data


def _build_zigzag(b, env):
    from .errors import ValidationFailure, Violation
    e = b.entries
    modules = [_ref(env, n, b, xmmod.CrossedModule) for n in e["modules"]]
    arrows = [_ref(env, n, b) for n in e["arrows"]]
    for i, chi in enumerate(arrows):
        if not xmmod.is_hypercover(chi):
            raise ValidationFailure([Violation("NotAHypercover", (i,))])
    return crmod.ZigZag(modules, arrows, list(e["dirs"]))


_BUILDERS = {
    "groupoid": _build_groupoid,
    "bundle": _build_bundle,
    "action": _build_action,
    "two-groupoid": _build_two_groupoid,
    "xmod": _build_xmod,
    "bibundle": _build_bibundle,
    "crossing": _build_crossing,
    "exchanger": _build_exchanger,
    "morphism": _build_morphism,
    "zigzag": _build_zigzag,
}


# -- writers (objects -> GDF blocks) ------------------------------------------


def _map_toks(d):
    return sorted(f"{k}={v}" for k, v in d.items())


def _comp_toks(d):
    return sorted(f"{g}.{h}={k}" for (g, h), k in d.items())


def groupoid_block(name, g):
    return Block("groupoid", name, {
        "objects": g.objects, "arrows": g.arrows,
        "src": _map_toks(g.src), "tgt": _map_toks(g.tgt),
        "inv": _map_toks(g.inv), "unit": _map_toks(g.unit),
        "comp": _comp_toks(g.comp)}, 0)


def bundle_block(name, h):
    return Block("bundle", name, {
        "objects": h.objects, "arrows": h.arrows,
        "base": _map_toks(h.src), "inv": _map_toks(h.inv),
        "unit": _map_toks(h.unit), "comp": _comp_toks(h.comp)}, 0)


def xmod_blocks(name, xm):
    gname, hname = f"{name}_G", f"{name}_H"
    return [
        groupoid_block(gname, xm.g),
        bundle_block(hname, xm.h),
        Block("xmod", name, {
            "groupoid": [gname], "bundle": [hname],
            "boundary": _map_toks(xm.boundary),
            "act": _comp_toks(xm.action.act)}, 0),
    ]


def two_groupoid_block(name, tg):
    return Block("two-groupoid", name, {
        "objects": tg.g0, "arrows": tg.g1,
        "src": _map_toks(tg.s), "tgt": _map_toks(tg.t),
        "inv": _map_toks(tg.inv1), "unit": _map_toks(tg.unit1),
        "comp": _comp_toks(tg.comp1), "cells": tg.g2,
        "src2": _map_toks(tg.s2), "tgt2": _map_toks(tg.t2),
        "vinv": _map_toks(tg.vinv), "vunit": _map_toks(tg.vunit),
        "vcomp": _comp_toks(tg.vcomp), "hcomp": _comp_toks(tg.hcomp),
        "hinv": _map_toks(tg.hinv)}, 0)


def bibundle_blocks(name, zb, left_name=None, right_name=None):
    blocks = []
    if left_name is None:
        left_name = f"{name}_L"
        blocks.append(groupoid_block(left_name, zb.left))
    if right_name is None:
        right_name = f"{name}_R"
        blocks.append(groupoid_block(right_name, zb.right))
    blocks.append(Block("bibundle", name, {
        "left": [left_name], "right": [right_name],
        "space": sorted(zb.space), "lmom": _map_toks(zb.lmom),
        "rmom": _map_toks(zb.rmom), "lact": _comp_toks(zb.lact),
        "ract": _comp_toks(zb.ract)}, 0))
    return blocks


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
    blocks.append(Block("crossing", name, {
        "source": [src_name], "target": [dst_name], "groupoid": [mname],
        "extension": ["yes" if c.is_extension else "no"],
        "tau": _map_toks(c.tau), "sigma": _map_toks(c.sigma),
        "a1": _comp_toks(c.a1), "a2": _map_toks(c.a2),
        "b1": _comp_toks(c.b1), "b2": _map_toks(c.b2)}, 0))
    return blocks


def exchanger_blocks(name, ex, src_name=None, dst_name=None):
    blocks = []
    if src_name is None:
        src_name = f"{name}_A"
        blocks += crossing_blocks(src_name, ex.source)
    if dst_name is None:
        dst_name = f"{name}_B"
        blocks += crossing_blocks(dst_name, ex.target)
    blocks.append(Block("exchanger", name, {
        "source": [src_name], "target": [dst_name],
        "space": sorted(ex.p.space), "lmom": _map_toks(ex.p.lmom),
        "rmom": _map_toks(ex.p.rmom), "lact": _comp_toks(ex.p.lact),
        "ract": _comp_toks(ex.p.ract)}, 0))
    return blocks


def extension_blocks(name, ext):
    """A groupoid A-extension as bundle/groupoid/groupoid + morphism blocks."""
    blocks = [bundle_block(f"{name}_A", ext.a),
              groupoid_block(f"{name}_E", ext.e),
              groupoid_block(f"{name}_G", ext.g),
              Block("morphism", f"{name}_iota", {
                  "from": [f"{name}_A"], "to": [f"{name}_E"],
                  "map": _map_toks(ext.iota)}, 0),
              Block("morphism", f"{name}_pi", {
                  "from": [f"{name}_E"], "to": [f"{name}_G"],
                  "map": _map_toks(ext.pi)}, 0)]
    return blocks


def document_of(blocks):
    return GDFDocument(blocks)
