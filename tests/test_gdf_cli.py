import hashlib
import json
import os
import re
import subprocess
import sys
from random import Random

import pytest

from xmodforge import cli, crossing as cr, fingrpd, gdf, xmod
from xmodforge.generators import random_crossed_module

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(argv):
    return cli.main(argv)


def test_parse_pair2_fixture():
    with open(fixture("pair2.gdf")) as fh:
        text = fh.read()
    doc = gdf.parse_gdf(text)
    env = gdf.build_document(doc)
    assert len(env["PAIR2"].arrows) == 4


def test_print_parse_idempotent_on_fixtures():
    for name in ("pair2.gdf", "sc2.gdf", "osc2.gdf"):
        with open(fixture(name)) as fh:
            text = fh.read()
        assert gdf.print_gdf(gdf.parse_gdf(text)) == text


def test_missing_tgt_is_syntax_error():
    text = "groupoid G {\n  objects: x\n  arrows: e\n  src: e=x\n" \
           "  inv: e=e\n  unit: x=e\n  comp: e.e=e\n}\n"
    with pytest.raises(gdf.GDFSyntaxError) as e:
        gdf.parse_gdf(text)
    assert "tgt" in str(e.value)
    assert e.value.line == 1


def test_unresolved_reference():
    text = "xmod X {\n  groupoid: NOPE\n  bundle: NOPE\n" \
           "  boundary: a=b\n  act: a.b=c\n}\n"
    doc = gdf.parse_gdf(text)
    with pytest.raises(gdf.UnresolvedReference):
        gdf.build_document(doc)


def test_duplicate_name():
    block = "groupoid G {\n  objects: x\n  arrows: e\n  src: e=x\n" \
            "  tgt: e=x\n  inv: e=e\n  unit: x=e\n  comp: e.e=e\n}\n"
    with pytest.raises(gdf.DuplicateName):
        gdf.parse_gdf(block + block)


def test_canonical_printing_deterministic(tmp_path):
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    t1 = gdf.print_gdf(gdf.document_of(gdf.xmod_blocks("SC2", sc2)))
    sc2b = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    t2 = gdf.print_gdf(gdf.document_of(gdf.xmod_blocks("SC2", sc2b)))
    assert t1 == t2


def test_cmd_check_pass(capsys):
    assert run_cli(["check", fixture("sc2.gdf")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] xmod SC2" in out


def test_cmd_check_crossing_itemized(capsys):
    assert run_cli(["check", fixture("osc2.gdf")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] crossing OSC2 (6 checks" in out


def test_cmd_check_corrupted_fails(tmp_path, capsys):
    with open(fixture("sc2.gdf")) as fh:
        text = fh.read()
    bad = text.replace("act: c0.c0=c0 c0.c1=c1 c1.c0=c0 c1.c1=c1",
                       "act: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0")
    p = tmp_path / "bad.gdf"
    p.write_text(bad)
    assert run_cli(["check", str(p)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cmd_check_bundle_missing_base_fails(tmp_path, capsys):
    # a bundle arrow without its `base:` entry is a validation failure
    blocks = gdf.xmod_blocks("X", xmod.inertia_xmod(fingrpd.cyclic_groupoid(2)))
    bundle = next(b for b in blocks if b.kind == "bundle")
    bundle.entries["base"] = sorted(bundle.entries["base"])[1:]
    p = tmp_path / "nobase.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(blocks)))
    assert run_cli(["check", str(p)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "BadArrowEndpoints" in out


def test_cmd_check_syntax_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.gdf"
    p.write_text("groupoid G {\n  objects x\n}\n")
    assert run_cli(["check", str(p)]) == cli.EXIT_SYNTAX


def test_cmd_check_missing_file_exit_code(capsys):
    assert run_cli(["check", "/nonexistent.gdf"]) == cli.EXIT_SYNTAX


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("line", [1, 3, 8])
def test_a_byte_that_is_not_utf8_is_a_syntax_error_on_its_line(line, ending, tmp_path, capsys):
    with open(fixture("pair2.gdf"), "rb") as fh:
        lines = fh.read().splitlines()
    lines[0] += " # \u00e9".encode()  # a comment that is UTF-8
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    p = tmp_path / "latin.gdf"
    p.write_bytes(ending.join(lines) + ending)
    assert run_cli(["check", str(p)]) == cli.EXIT_SYNTAX
    err = capsys.readouterr().err
    assert err == f"syntax error: line {line}: byte 0xff is not UTF-8\n"


def test_cap_exit_code(capsys):
    assert run_cli(["--cap-enum", "2", "enumerate-extensions",
                    "--group", "Z2", "--module", "Z2"]) == cli.EXIT_CAP


def test_json_report(capsys):
    assert run_cli(["--json-report", "check", fixture("pair2.gdf")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["name"] == "PAIR2"
    assert data[0]["passed"] is True


def test_cmd_compose_diamond(capsys):
    code = run_cli(["compose", fixture("osc2.gdf"), "--op", "diamond",
                    "--inputs", "OSC2", "OSC2", "--name", "D"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    doc = gdf.parse_gdf(out)
    env = gdf.build_document(doc)
    assert env["D"].is_extension


def test_cmd_compose_bullet_identity(tmp_path, capsys):
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    o = cr.trivial_xext(sc2)
    from xmodforge import exchanger as exm
    i = exm.trivial_exchanger(o)
    blocks = gdf.exchanger_blocks("I", i)
    p = tmp_path / "exch.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(blocks)))
    code = run_cli(["compose", str(p), "--op", "bullet",
                    "--inputs", "I", "I", "--name", "II"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    env = gdf.build_document(gdf.parse_gdf(out))
    from xmodforge import bibundle as bb
    assert bb.search_equivariant_iso(env["II"].p, i.p) is not None


def test_cmd_compose_pullback(tmp_path, capsys):
    with open(fixture("sc2.gdf")) as fh:
        text = fh.read()
    text += ("morphism two {\n  objects: z0=* z1=*\n}\n")
    p = tmp_path / "in.gdf"
    p.write_text(text)
    code = run_cli(["compose", str(p), "--op", "pullback:two",
                    "--inputs", "SC2", "--name", "PB"])
    assert code == cli.EXIT_OK
    env = gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
    assert len(env["PB"].g.arrows) == 8


def test_cmd_convert_roundtrip_byte_stable(capsys):
    run_cli(["convert", fixture("sc2.gdf"), "--name", "SC2",
             "--direction", "xmod2gpd"])
    first = capsys.readouterr().out
    run_cli(["convert", fixture("sc2.gdf"), "--name", "SC2",
             "--direction", "xmod2gpd"])
    second = capsys.readouterr().out
    assert first == second
    env = gdf.build_document(gdf.parse_gdf(first))
    assert len(env["SC2_2gpd"].g2) == 4


# sha256 of `convert --direction xmod2gpd` on the fixtures, recorded when
# the 2-groupoid still stored every hcomp entry: the table computed from the
# whiskers prints the same bytes
CONVERT_SHA256 = {
    ("sc2.gdf", "SC2"): "3a5ff7cd9beed38c51b4f570459b0ec37216a370ffe3272c7a00dcc6b2cc0b96",
    ("osc2.gdf", "OSC2_src"): "bc84d80ae71f76b5980f9163ccc949c56e10156b73feffc5a8efdedc0a53ee93",
    ("osc2.gdf", "OSC2_dst"): "5333ee3e3c06ed0fc0b160111896a371de449277f3c867807b970a44f1a45357",
}


@pytest.mark.parametrize("name, xm", sorted(CONVERT_SHA256))
def test_cmd_convert_output_is_the_recorded_bytes(name, xm, capsys):
    assert run_cli(["convert", fixture(name), "--name", xm,
                    "--direction", "xmod2gpd"]) == cli.EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CONVERT_SHA256[(name, xm)]


def _without_hinv(text):
    return re.sub(r"^  hinv:.*\n", "", text, flags=re.M)


@pytest.mark.parametrize("name, xm", sorted(CONVERT_SHA256))
def test_a_two_groupoid_block_without_hinv_derives_it(name, xm, tmp_path, capsys):
    # the derived hinv is the printed one, and a block left without hinv
    # and with a table entry missing still ends in exit code 1
    assert run_cli(["convert", fixture(name), "--name", xm,
                    "--direction", "xmod2gpd"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    tg_name = f"{xm}_2gpd"
    printed = gdf.build_document(gdf.parse_gdf(text))[tg_name].hinv
    p = tmp_path / "tg.gdf"
    p.write_text(_without_hinv(text))
    assert run_cli(["check", str(p)]) == cli.EXIT_OK
    assert "[PASS] two-groupoid" in capsys.readouterr().out
    derived = gdf.build_document(gdf.parse_gdf(p.read_text()))[tg_name].hinv
    assert list(derived.items()) == list(printed.items())
    for key in ("src2", "tgt2", "vinv", "vunit", "inv", "hcomp"):
        line = re.search(rf"^  {key}: (\S+)", p.read_text(), re.M)
        p.write_text(_without_hinv(text).replace(line.group(0), f"  {key}:", 1))
        assert run_cli(["check", str(p)]) == cli.EXIT_VALIDATION
        assert "[FAIL] two-groupoid" in capsys.readouterr().out


def test_the_derived_hinv_is_the_printed_one_on_generated_modules():
    for seed in range(40):
        tg = xmod.xmod_to_2groupoid(random_crossed_module(Random(seed)))
        text = gdf.print_gdf(gdf.document_of([gdf.two_groupoid_block("T", tg)]))
        derived = gdf.build_document(gdf.parse_gdf(_without_hinv(text)))["T"]
        assert list(derived.hinv.items()) == list(tg.hinv.items())


def test_cmd_convert_back(tmp_path, capsys):
    run_cli(["convert", fixture("sc2.gdf"), "--name", "SC2",
             "--direction", "xmod2gpd"])
    text = capsys.readouterr().out
    p = tmp_path / "tg.gdf"
    p.write_text(text)
    assert run_cli(["convert", str(p), "--name", "SC2_2gpd",
                    "--direction", "2gpd2xmod"]) == cli.EXIT_OK
    env = gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
    back = env["SC2_2gpd_xmod"]
    assert len(back.h.arrows) == 2


def test_cmd_convert_invalid_input_fails_check_first(tmp_path, capsys):
    p = tmp_path / "bad.gdf"
    with open(fixture("sc2.gdf")) as fh:
        text = fh.read()
    # corrupt the base groupoid's composition: c1.c1=c1 breaks inverses
    p.write_text(text.replace("comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0",
                              "comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c1", 1))
    assert run_cli(["convert", str(p), "--name", "SC2",
                    "--direction", "xmod2gpd"]) == cli.EXIT_VALIDATION


def test_cmd_decompose(capsys):
    assert run_cli(["decompose", fixture("osc2.gdf"),
                    "--name", "OSC2"]) == cli.EXIT_OK
    env = gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
    assert "OSC2_Gprime" in env


def test_cmd_enumerate_counts(capsys):
    assert run_cli(["enumerate-extensions", "--group", "Z2",
                    "--module", "Z2", "--cross-check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# 2 Morita classes" in out
    assert "inequivalent" in out
    assert run_cli(["enumerate-extensions", "--group", "Z2",
                    "--module", "Z3"]) == cli.EXIT_OK
    assert "# 1 Morita classes" in capsys.readouterr().out


@pytest.mark.parametrize("group, classes", [("Z3", 3), ("Z4", 4)])
def test_cross_check_does_not_fail_on_equivalent_middles(group, classes, capsys):
    # two classes of Z/n by Z/n have Morita equivalent middle groupoids;
    # the middle groupoid forgets iota and pi, so that decides nothing, and
    # every pair is still compared
    assert run_cli(["enumerate-extensions", "--group", group, "--module", group,
                    "--cross-check"]) == cli.EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("# classes")]
    assert len(lines) == classes * (classes - 1) // 2
    assert any(line.endswith("do not separate the pair") for line in lines)
    assert "?!" not in "".join(lines)


def test_cmd_enumerate_trivial_group(capsys):
    assert run_cli(["enumerate-extensions", "--group", "Z1",
                    "--module", "Z3"]) == cli.EXIT_OK
    assert "# 1 Morita classes" in capsys.readouterr().out


def test_cmd_morita_witness(tmp_path, capsys):
    g = fingrpd.pair_groupoid(["x", "y"])
    h = fingrpd.unit_groupoid(["u"])
    blocks = [gdf.groupoid_block("A", g), gdf.groupoid_block("B", h)]
    p = tmp_path / "mw.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(blocks)))
    assert run_cli(["morita-witness", str(p), "--left", "A",
                    "--right", "B"]) == cli.EXIT_OK
    env = gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
    assert "witness" in env


def test_cmd_morita_witness_pair2_fixture(capsys):
    assert run_cli(["morita-witness", fixture("pair2.gdf"), "--left", "PAIR2",
                    "--right", "PAIR2"]) == cli.EXIT_OK
    env = gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))
    assert len(env["witness"].space) == 4


def test_cmd_morita_witness_negative(tmp_path, capsys):
    g = fingrpd.cyclic_groupoid(4)
    klein = fingrpd.semidirect_product(fingrpd.trivial_action(
        fingrpd.cyclic_groupoid(2),
        fingrpd.as_group_bundle(fingrpd.cyclic_groupoid(2, prefix="h"))))
    blocks = [gdf.groupoid_block("A", g), gdf.groupoid_block("B", klein)]
    p = tmp_path / "mw2.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(blocks)))
    assert run_cli(["morita-witness", str(p), "--left", "A",
                    "--right", "B"]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv, code", [
    (["compose", "pair2.gdf", "--op", "bullet", "--inputs", "PAIR2", "PAIR2"], 1),
    (["compose", "pair2.gdf", "--op", "diamond", "--inputs", "PAIR2", "PAIR2"], 1),
    (["compose", "pair2.gdf", "--op", "hdiamond", "--inputs", "PAIR2", "PAIR2"], 1),
    (["convert", "pair2.gdf", "--name", "PAIR2", "--direction", "xmod2gpd"], 1),
    (["compose", "pair2.gdf", "--op", "pullback:f", "--inputs", "PAIR2"], 2),
    (["morita-witness", "pair2.gdf", "--left", "PAIR2", "--right", "NOPE"], 2),
    (["decompose", "osc2.gdf", "--name", "NOPE"], 2),
    (["compose", "osc2.gdf", "--op", "diamond", "--inputs", "OSC2"], 2),
    (["enumerate-extensions", "--group", "Z7", "--module", "Z2"], 2),
])
def test_bad_cli_inputs_end_in_an_exit_code(argv, code, capsys):
    # a wrong kind of input exits 1, a missing or unknown one 2 (argparse
    # rejects an unknown group by SystemExit)
    argv = [fixture(a) if a.endswith(".gdf") else a for a in argv]
    try:
        got = run_cli(argv)
    except SystemExit as e:
        got = e.code
    assert got == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", ["OSC2", "OSC2_M", "OSC2_src"])
def test_pullback_to_an_unknown_object_exits_1(name, tmp_path, capsys):
    # a crossing, a groupoid and an xmod: each pullback checks the map first
    with open(fixture("osc2.gdf")) as fh:
        text = fh.read()
    p = tmp_path / "in.gdf"
    p.write_text(text + "morphism f {\n  objects: z0=NOPE z1=*\n}\n")
    code = run_cli(["compose", str(p), "--op", "pullback:f", "--inputs", name])
    assert code == cli.EXIT_VALIDATION
    assert "BadObjectImage witness=('z0',)" in capsys.readouterr().err


@pytest.mark.parametrize("morphism, name", [
    ("  from: NOPE\n  to: OSC2_M\n", "NOPE"),
    # from an xmod, with both leg maps, to a groupoid
    ("  from: OSC2_src\n  to: OSC2_M\n  objects: *=*\n  left: c0=c0 c1=c1\n"
     "  right: c0=c0 c1=c1\n", "OSC2_M"),
], ids=["unknown-from", "xmod-to-groupoid"])
def test_a_bad_morphism_reference_names_the_block(morphism, name, tmp_path, capsys):
    with open(fixture("osc2.gdf")) as fh:
        text = fh.read()
    p = tmp_path / "in.gdf"
    p.write_text(text + "morphism f {\n" + morphism + "}\n")
    message = f"block 'f' references unknown name '{name}'"
    assert run_cli(["check", str(p)]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().out
    assert run_cli(["compose", str(p), "--op", "pullback:f", "--inputs", "OSC2_M"]) == 2
    assert f"document error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["morita-witness", "--left", "OSC2_M", "--right", "OSC2_M"],
    ["compose", "--op", "diamond", "--inputs", "OSC2", "OSC2"],
    ["compose", "--op", "semidirect", "--inputs", "OSC2"],
    ["decompose", "--name", "OSC2"],
], ids=["morita-witness", "diamond", "semidirect", "decompose"])
def test_quotients_of_labels_with_commas(argv, tmp_path, capsys):
    # the middle groupoid's arrows (cX,cY) renamed to atoms mcXcY,r, which
    # contain the tuple separator; the output builds again
    with open(fixture("osc2.gdf")) as fh:
        text = re.sub(r"\((c\d),(c\d)\)", r"m\1\2,r", fh.read())
    assert "mc0c1,r" in text
    p = tmp_path / "commas.gdf"
    p.write_text(text)
    assert run_cli([argv[0], str(p), *argv[1:]]) == cli.EXIT_OK
    assert gdf.build_document(gdf.parse_gdf(capsys.readouterr().out))


@pytest.mark.parametrize("cap, code", [(0, cli.EXIT_CAP), (10 ** 6, cli.EXIT_OK)])
def test_cap_iso_bounds_the_isotropy_search_of_morita_witness(cap, code, capsys):
    argv = [f"--cap-iso={cap}", "morita-witness", fixture("osc2.gdf"),
            "--left", "OSC2_M", "--right", "OSC2_M"]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert ("size cap: " in err) == (code == cli.EXIT_CAP)


@pytest.mark.parametrize("path, old, new, code", [
    # a reference line without a name: exit 2, not an IndexError
    ("fixtures/sc2.gdf", "  groupoid: SC2_G", "  groupoid:", 2),
    # a token ending in '{' would be printed last on its line, as a header
    ("fixtures/pair2.gdf", "  objects: a b", "  objects: { a b", 2),
    # an object map whose keys are arrows: exit 1, not a KeyError
    ("faults/z4maps.gdf", "  objects: *=*\n  left:", "  left: *=*\n  objects:", 1),
    # a strict morphism without its object map: exit 1, not a TypeError
    ("faults/z4maps.gdf", "  objects: *=*\n", "", 1),
])
def test_malformed_entries_end_in_an_exit_code(path, old, new, code, tmp_path, capsys):
    with open(os.path.join(os.path.dirname(__file__), path)) as fh:
        text = fh.read()
    assert text.count(old) == 1
    p = tmp_path / "in.gdf"
    p.write_text(text.replace(old, new))
    assert run_cli(["check", str(p)]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("fixture_name, old, new, message", [
    ("sc2.gdf", "  groupoid: SC2_G", "  groupoid:",
     "'groupoid:' line without a token in xmod SC2"),
    ("osc2.gdf", "  source: OSC2_src", "  source: OSC2_src OSC2_dst",
     "'source:' line with 2 tokens in crossing OSC2; it takes one"),
    ("osc2.gdf", "  extension: yes", "  extension: yes yes",
     "'extension:' line with 2 tokens in crossing OSC2; it takes one"),
    # read as "no" once, which checked a plain crossing without CR3'
    ("osc2.gdf", "  extension: yes", "  extension: true",
     "'extension:' line with 'true' in crossing OSC2; it takes yes or no"),
])
def test_reference_and_flag_lines_hold_one_token(fixture_name, old, new, message,
                                                 tmp_path, capsys):
    with open(fixture(fixture_name)) as fh:
        text = fh.read()
    assert text.count(old) == 1
    p = tmp_path / "in.gdf"
    p.write_text(text.replace(old, new))
    assert run_cli(["check", str(p)]) == cli.EXIT_SYNTAX
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fixture_name, old, new, message", [
    # a table token without '=', on the first comp: line
    ("sc2.gdf", "  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nbundle",
     "  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0 boundary\n}\nbundle",
     "line 8: expected g.h=k, got 'boundary'"),
    # a map token without '='
    ("sc2.gdf", "  inv: c0=c0 c1=c1\n  unit: *=c0\n  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nxmod",
     "  inv: c0=c0 c1\n  unit: *=c0\n  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nxmod",
     "line 14: expected key=value, got 'c1'"),
    # a key on two lines, the bad token on the second
    ("sc2.gdf", "  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nbundle",
     "  comp: c0.c0=c0 c0.c1=c1\n  comp: c1.c0=c1 c1c1=c0\n}\nbundle",
     "line 9: expected g.h on the left of 'c1c1=c0'"),
    ("sc2.gdf", "  groupoid: SC2_G", "  groupoid:",
     "line 19: 'groupoid:' line without a token"),
    # the second reference is the one too many
    ("osc2.gdf", "  source: OSC2_src", "  source: OSC2_src\n  source: OSC2_dst",
     "line 59: 'source:' line with 2 tokens"),
    ("osc2.gdf", "  extension: yes", "  extension: true",
     "line 61: 'extension:' line with 'true'"),
])
def test_a_bad_token_is_reported_at_its_own_line(fixture_name, old, new, message,
                                                 tmp_path, capsys):
    with open(fixture(fixture_name)) as fh:
        text = fh.read()
    assert text.count(old) == 1
    p = tmp_path / "in.gdf"
    p.write_text(text.replace(old, new))
    assert run_cli(["check", str(p)]) == cli.EXIT_SYNTAX
    assert message in capsys.readouterr().err


def test_an_empty_entry_line_prints_and_parses_back():
    with open(fixture("sc2.gdf")) as fh:
        text = fh.read().replace("  unit: *=c0\n  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nxmod",
                                 "  unit:\n  comp: c0.c0=c0 c0.c1=c1 c1.c0=c1 c1.c1=c0\n}\nxmod")
    printed = gdf.print_gdf(gdf.parse_gdf(text))
    assert printed == text
    assert gdf.print_gdf(gdf.parse_gdf(printed)) == printed


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "xmodforge.cli", "check",
                           fixture("pair2.gdf")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def _zigzag_file(tmp_path, blocks=(), **zigzag):
    """SC2, its identity morphism chi, the blocks, then a zigzag zz whose
    keys default to modules SC2 SC2, arrows chi, dirs fwd."""
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    ident = ["c0=c0", "c1=c1"]
    doc = gdf.xmod_blocks("SC2", sc2) + [gdf.Block("morphism", "chi", {
        "from": ["SC2"], "to": ["SC2"], "objects": ["*=*"], "left": ident,
        "right": ident}, 0)] + list(blocks)
    doc.append(gdf.Block("zigzag", "zz", {
        "modules": ["SC2", "SC2"], "arrows": ["chi"], "dirs": ["fwd"], **zigzag}, 0))
    p = tmp_path / "zz.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(doc)))
    return str(p)


def test_zigzag_block_builds_and_folds(tmp_path):
    path = _zigzag_file(tmp_path)
    with open(path) as fh:
        env = gdf.build_document(gdf.parse_gdf(fh.read()))
    folded = cr.zigzag_to_xext(env["zz"])
    assert folded.is_extension
    assert run_cli(["check", path]) == cli.EXIT_OK


def test_zigzag_block_rejects_non_hypercover(tmp_path):
    sc2 = xmod.inertia_xmod(fingrpd.cyclic_groupoid(2))
    extra = fingrpd.disjoint_union(sc2.g, fingrpd.unit_groupoid(["y"]))
    big = xmod.inertia_xmod(extra)
    blocks = gdf.xmod_blocks("SC2", sc2) + gdf.xmod_blocks("BIG", big)
    blocks.append(gdf.Block("morphism", "chi", {
        "from": ["SC2"], "to": ["BIG"],
        "objects": ["*=(A,*)"],
        "left": ["c0=(A,c0)", "c1=(A,c1)"],
        "right": ["c0=(A,c0)", "c1=(A,c1)"]}, 0))
    blocks.append(gdf.Block("zigzag", "zz", {
        "modules": ["SC2", "BIG"], "arrows": ["chi"], "dirs": ["fwd"]}, 0))
    p = tmp_path / "zz2.gdf"
    p.write_text(gdf.print_gdf(gdf.document_of(blocks)))
    assert run_cli(["check", str(p)]) == cli.EXIT_VALIDATION


def test_zigzag_block_rejects_mismatched_lengths_under_optimize(tmp_path):
    # two directions for one arrow: exit 1, also where asserts are stripped
    p = _zigzag_file(tmp_path, dirs=["fwd", "bwd"])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
    proc = subprocess.run([sys.executable, "-O", "-m", "xmodforge.cli", "check", p],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
    assert "BadZigZagLength: FAIL witness=(2, 1, 2)" in proc.stdout


C3 = gdf.xmod_blocks("C3", xmod.inertia_xmod(fingrpd.cyclic_groupoid(3)))


@pytest.mark.parametrize("zigzag, blocks, found", [
    # arrows that are no strict morphisms: a loose morphism block, a groupoid
    ({"arrows": ["loose"]}, [gdf.Block("morphism", "loose", {"map": ["c0=c0", "c1=c1"]}, 0)],
     "references unknown name 'loose'"),
    ({"arrows": ["SC2_G"]}, [], "references unknown name 'SC2_G'"),
    ({"dirs": ["sideways"]}, [], "BadZigZagDirection: FAIL witness=(0, 'sideways')"),
    # chi runs SC2 -> SC2, not C3 -> C3
    ({"modules": ["C3", "C3"]}, C3, "BadZigZagArrow: FAIL witness=(0, 'fwd')"),
])
def test_a_zigzag_block_checks_what_it_is_given(zigzag, blocks, found, tmp_path, capsys):
    assert run_cli(["check", _zigzag_file(tmp_path, blocks, **zigzag)]) == cli.EXIT_VALIDATION
    assert found in capsys.readouterr().out


def test_the_crossing_writer_prints_the_fixture_it_was_read_from():
    with open(fixture("osc2.gdf")) as fh:
        text = fh.read()
    c = gdf.build_document(gdf.parse_gdf(text))["OSC2"]
    assert gdf.print_gdf(gdf.document_of(gdf.crossing_blocks("OSC2", c))) == text
