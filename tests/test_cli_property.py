"""Property test of the exit-code contract: documents mutated token by token
and argument vectors mutated entry by entry end in a documented exit code
(0-3) and never in a traceback, and every document the parser accepts
prints to text that parses and prints back byte for byte.

argparse ends a malformed argument vector by raising SystemExit(2), which
counts as exit code 2."""

import contextlib
import io
import os
import re
from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmodforge import bibundle as bb
from xmodforge import cli, crossing, gdf, xmod
from xmodforge import exchanger as exm
from xmodforge.fingrpd import cyclic_groupoid
from xmodforge.generators import random_exchanger

TESTS = os.path.dirname(os.path.abspath(__file__))


def _read(*parts):
    with open(os.path.join(TESTS, *parts), encoding="utf-8") as fh:
        return fh.read()


def _generated():
    """A document with an exchanger and a bibundle, the kinds the fixtures
    lack, so that bullet, hdiamond and decompose reach their builders."""
    c2 = cyclic_groupoid(2)
    ex = exm.trivial_exchanger(crossing.trivial_xext(xmod.inertia_xmod(c2)))
    blocks = gdf.exchanger_blocks("P", ex) + gdf.bibundle_blocks("Z", bb.identity_bibundle(c2))
    return gdf.print_gdf(gdf.document_of(blocks))


def _exchanger():
    """A non-trivial exchanger: its carrier has nine points, and its two
    crossings differ."""
    ex = random_exchanger(Random(5))
    return gdf.print_gdf(gdf.document_of(gdf.exchanger_blocks("P", ex)))


def _typed():
    """A document with two-groupoid, action and morphism blocks, so that
    2gpd2xmod, semidirect on an action and pullback reach their builders."""
    sc2 = xmod.inertia_xmod(cyclic_groupoid(2))
    act = sorted(f"{g}.{h}={k}" for (g, h), k in sc2.action.act.items())
    ident = ["c0=c0", "c1=c1"]
    blocks = gdf.xmod_blocks("SC2", sc2) + [
        gdf.two_groupoid_block("T", xmod.xmod_to_2groupoid(sc2)),
        gdf.Block("action", "A", {"groupoid": ["SC2_G"], "bundle": ["SC2_H"],
                                  "act": act}, 0),
        gdf.Block("morphism", "chi", {"from": ["SC2"], "to": ["SC2"], "objects": ["*=*"],
                                      "left": ident, "right": ident}, 0),
        gdf.Block("morphism", "two", {"objects": ["z0=*", "z1=*"]}, 0)]
    return gdf.print_gdf(gdf.document_of(blocks))


DOCUMENTS = [_read("fixtures", name) for name in ("osc2.gdf", "pair2.gdf", "sc2.gdf")] + \
    [_read("faults", "z4maps.gdf"), _generated(), _exchanger(), _typed()]
# characters a character edit writes: GDF punctuation, label characters, space
ALPHABET = "=.,:(){}*# \nacz0189_-"


def _tokens(text):
    return re.findall(r"\s+|\S+", text)


def _mutate(text, edits):
    """Apply token swaps, deletions, insertions and character edits; the
    integers are reduced modulo the current number of tokens."""
    toks = _tokens(text)
    for op, i, j, ch in edits:
        words = [k for k, t in enumerate(toks) if not t.isspace()]
        if not words:
            break
        a, b = words[i % len(words)], words[j % len(words)]
        if op == "swap":
            toks[a], toks[b] = toks[b], toks[a]
        elif op == "delete":
            del toks[a]
        elif op == "insert":
            toks[a:a] = [toks[b], " "]
        else:
            word = toks[a]
            k = j % (len(word) + 1)
            toks[a] = word[:k] + ch + word[k + (op == "replace"):]
    return "".join(toks)


def _names(text):
    return re.findall(r"^[a-z-]+ (\S+) \{", text, re.M) + ["NOPE"]


def _argvs(path, names):
    n1, n2 = names
    return [
        ["check", path], ["--json-report", "check", path],
        ["check", path, "--kind", "crossing"],
        ["compose", path, "--op", "diamond", "--inputs", n1, n2],
        ["compose", path, "--op", "bullet", "--inputs", n1, n2],
        ["compose", path, "--op", "hdiamond", "--inputs", n1, n2],
        ["compose", path, "--op", "semidirect", "--inputs", n1, "--side", "H2"],
        ["compose", path, "--op", "pullback:" + n2, "--inputs", n1],
        ["convert", path, "--name", n1, "--direction", "xmod2gpd"],
        ["convert", path, "--name", n1, "--direction", "2gpd2xmod"],
        ["decompose", path, "--name", n1],
        ["--json-report", "decompose", path, "--name", n1],
        ["morita-witness", path, "--left", n1, "--right", n2],
    ]


EDITS = st.lists(st.tuples(st.sampled_from(["swap", "delete", "insert", "replace", "add"]),
                           st.integers(0, 999), st.integers(0, 999),
                           st.sampled_from(ALPHABET)), max_size=3)
# entries an argv edit may write in place of another, or drop in
ARGV_WORDS = ["--op", "--inputs", "--name", "--kind", "--bogus", "-", "", "check",
              "diamond", "pullback:", "Z9", "--cap-iso", "0", "--cap-fiber", "-1"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), doc=st.integers(0, len(DOCUMENTS) - 1), edits=EDITS,
       command=st.integers(0, 12),
       argv_edit=st.one_of(st.none(), st.tuples(st.integers(0, 99),
                                                st.sampled_from(ARGV_WORDS + [None]))))
def test_mutated_documents_and_argv_end_in_an_exit_code(tmp_path_factory, data, doc,
                                                         edits, command, argv_edit):
    text = _mutate(DOCUMENTS[doc], edits)
    path = str(tmp_path_factory.mktemp("cli") / "in.gdf")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    names = _names(DOCUMENTS[doc])
    pick = (data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names)))
    argv = _argvs(path, pick)[command]
    if argv_edit is not None:
        k, word = argv_edit
        if word is None:
            del argv[k % len(argv)]
        else:
            argv[k % len(argv)] = word
    assert _run(argv) in (0, 1, 2, 3)
    try:
        parsed = gdf.parse_gdf(text)
    except (gdf.GDFSyntaxError, gdf.DuplicateName):
        return
    printed = gdf.print_gdf(parsed)
    assert gdf.print_gdf(gdf.parse_gdf(printed)) == printed
