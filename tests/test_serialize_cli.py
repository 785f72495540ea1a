import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from kanforge import serialize as io
from kanforge import examples as ex
from kanforge import cli
from kanforge import acceptance as ac
from kanforge import nerves as nv
from kanforge import simplicial as sp


@pytest.mark.parametrize("name", ex.example_ids())
def test_every_example_round_trips(name):
    obj = ex.build(name)
    text = io.dumps(obj)
    canon, stable = io.roundtrip_text(text)
    assert stable
    assert canon == text
    assert canon.endswith("\n")


def test_unknown_key_rejected():
    doc = json.loads(io.dumps(ex.build("delta1")))
    doc["mystery"] = 1
    with pytest.raises(io.ParseError):
        io.loads(json.dumps(doc))


def test_reordered_keys_canonicalize():
    text = io.dumps(ex.build("s1"))
    doc = json.loads(text)
    scrambled = json.dumps(doc, sort_keys=False, indent=2)
    canon, stable = io.roundtrip_text(scrambled)
    assert stable and canon == text


def test_misaligned_face_rejected():
    doc = json.loads(io.dumps(ex.build("delta1")))
    doc["face"]["1.0"] = doc["face"]["1.0"][:-1]
    with pytest.raises(io.ParseError):
        io.loads(json.dumps(doc))


def test_wrong_format_rejected():
    doc = json.loads(io.dumps(ex.build("z2")))
    doc["format"] = 2
    with pytest.raises(io.ParseError):
        io.loads(json.dumps(doc))


# -- the command line ----------------------------------------------------------


def dump(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    path.write_text(io.dumps(ex.build(name)), encoding="utf-8")
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", dump(tmp_path, "delta2")]) == 0
    assert "valid sset" in capsys.readouterr().out


def test_cli_kan_exit_one_names_horn(tmp_path, capsys):
    assert cli.main(["kan", "--dim", "1", dump(tmp_path, "delta1")]) == 1
    out = capsys.readouterr().out
    assert "unfillable horn" in out


def test_cli_kan_groupoid_nerve_passes(tmp_path):
    assert cli.main(["kan", "--dim", "1", dump(tmp_path, "nerve-z2")]) == 0


def test_cli_classify(tmp_path, capsys):
    assert cli.main(["classify", "--n", "1", dump(tmp_path, "nerve-z3")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_kan_groupoid"] is True


def test_cli_nerve_and_pi(tmp_path, capsys):
    gpath = dump(tmp_path, "groupoid-z3")
    npath = str(tmp_path / "n.json")
    assert cli.main(["nerve", gpath, "--to-dim", "3", "-o", npath]) == 0
    assert cli.main(["pi", "--m", "1", npath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 3


def test_cli_pi_refuses_without_kan(tmp_path):
    assert cli.main(["pi", "--m", "1", "--base", "0",
                     dump(tmp_path, "delta1")]) == 1


def test_cli_add_and_det(tmp_path, capsys):
    s1 = dump(tmp_path, "s1")
    z3 = dump(tmp_path, "z3")
    assert cli.main(["add", s1, z3]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3 and doc["bijection_verified"]
    g = dump(tmp_path, "disc-z2")
    assert cli.main(["det", s1, g]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2 == doc["oracle_count"]


def test_cli_loop_and_cosq(tmp_path, capsys):
    npath = dump(tmp_path, "nerve-z2")
    assert cli.main(["loop", npath, "--variant", "plain"]) == 0
    capsys.readouterr()
    assert cli.main(["cosq", "--prime", "1", npath]) == 0


def test_cli_segal_nerve(tmp_path, capsys):
    g = dump(tmp_path, "disc-z2")
    out = str(tmp_path / "ns.json")
    assert cli.main(["segal-nerve", g, "--pmax", "2", "--qmax", "2",
                     "-o", out]) == 0
    assert cli.main(["validate", out]) == 0


def test_cli_segal_nerve_clips_qmax_past_three(tmp_path, capsys):
    # structural simplices stop at dimension 3: the region is clipped
    g = dump(tmp_path, "disc-z2")
    capsys.readouterr()
    docs = []
    for qmax in ("3", "4"):
        assert cli.main(["segal-nerve", g, "--qmax", qmax]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] and docs[0] == docs[1]


# sha1 of `kanforge segal-nerve --pmax P --qmax Q` on each canned 2-group,
# recorded before the Segal nerve held its cells as places; its standard
# output and the file `-o` writes are the same bytes
SEGAL_NERVE_SHA1 = {
    ("disc-z2", 2, 3): "60055fc497342719e373d0f8be0ffba464f9ae48",
    ("disc-z2", 3, 2): "aa60ece493cdffe15b88ddae2c21c9969c2f04e5",
    ("disc-z2", 1, 3): "e5178070efc7c6e9ad45bd69d627afbbc3af9bec",
    ("disc-z3", 2, 3): "474e356063039561ece31a3519b57f830b393f00",
    ("disc-z3", 3, 2): "98184ab1ed2149920c82857b822b3ce75a37b4a3",
    ("disc-z3", 1, 3): "372d2b75e0fc7157d553aa9ce550029ca3a52a99",
    ("oneobj-z2", 2, 3): "d25d4e451c721c76ac8268fcd83e74f43c581f83",
    ("oneobj-z2", 3, 2): "4d6fb57960fe715a207ededc6f97447102498199",
    ("oneobj-z2", 1, 3): "b55a34c2134f1f4453a6dc8b9d73d07a6ba2e7d1",
    ("oneobj-z3", 2, 3): "f40dabe88fa719f8c0b5cb1414cea73ce0a64602",
    ("oneobj-z3", 3, 2): "f40dabe88fa719f8c0b5cb1414cea73ce0a64602",
    ("oneobj-z3", 1, 3): "2a066ddb1830c8a6f4700391b7ec32a519f32c51",
    ("disc-z2-x-oneobj-z2", 2, 3): "988e3f1010494c609d43df8c422e02a021b0b118",
    ("disc-z2-x-oneobj-z2", 3, 2): "e68148e8b2fb81dd609d6d83bdb6e8c1fa66fd20",
    ("disc-z2-x-oneobj-z2", 1, 3): "44be72ef72bb473fcf13b3543cf5584b26e06644",
}


@pytest.mark.parametrize("name,pmax,qmax", list(SEGAL_NERVE_SHA1))
def test_cli_segal_nerve_output_is_pinned(tmp_path, capsys, name, pmax, qmax):
    g = dump(tmp_path, name)
    out = tmp_path / "ns.json"
    argv = ["segal-nerve", "--pmax", str(pmax), "--qmax", str(qmax)]
    capsys.readouterr()
    assert cli.main(argv + [g]) == 0
    printed = capsys.readouterr()
    assert cli.main(argv + ["-o", str(out), g]) == 0
    assert capsys.readouterr().out == printed.err == ""
    want = SEGAL_NERVE_SHA1[name, pmax, qmax]
    assert hashlib.sha1(printed.out.encode("utf-8")).hexdigest() == want
    assert hashlib.sha1(out.read_bytes()).hexdigest() == want


def test_cli_examples_list(capsys):
    assert cli.main(["examples", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "s1" in out and "disc-z2" in out


def test_cli_roundtrip_deterministic(tmp_path, capsys):
    path = dump(tmp_path, "oneobj-z2")
    assert cli.main(["roundtrip", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["roundtrip", path]) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_single(capsys):
    assert cli.main(["verify", "simplex-counts"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS simplex-counts")


def test_cli_verify_grho_with_file(tmp_path, capsys):
    g = dump(tmp_path, "oneobj-z2")
    assert cli.main(["verify", "grho", "--file", g]) == 0
    out = capsys.readouterr().out
    assert "PASS grho" in out and "pi2(N)" in out


@pytest.mark.parametrize("names", [["coskeleton"], ["simplex-counts", "grho"],
                                   []])
def test_cli_verify_file_is_for_grho_only(tmp_path, capsys, names):
    # --file names an object for grho alone; any other selection is
    # refused, not run on the canned corpus
    g = dump(tmp_path, "oneobj-z2")
    assert cli.main(["verify", "--file", g] + names) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --file applies to 'verify grho' only, " \
        "not to %s\n" % (" ".join(names) or "every criterion")


def test_cli_bad_input_exit_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["examples", "dump", "no-such-id"]) == 2
    assert cli.main(["classify", "--n", "1", str(tmp_path / "missing.json")]) == 2


def rows_of(doc, *path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name,path,row,bad", [
    ("z2", ["table"], ["2", "0", "2"], "2"),
    ("disc-z2", ["base", "comp"], ["zz", "i0", "i0"], "zz"),
    ("disc-z2", ["tensor", "objects"], ["o0", "zz", "o0"], "zz"),
    ("disc-z2", ["tensor", "morphisms"], ["zz", "i1", "i1"], "zz"),
    ("disc-z2", ["assoc"], ["o0", "o1", "zz", "i1"], "zz")],
    ids=["group-table", "category-comp", "tensor-objects",
         "tensor-morphisms", "assoc"])
def test_cli_validate_rejects_a_row_naming_an_unlisted_id(tmp_path, capsys,
                                                          name, path, row,
                                                          bad):
    # the row is the table's only one that names an id the document does
    # not list; before it was checked, validate passed such a file
    doc = json.loads(io.dumps(ex.build(name)))
    rows_of(doc, *path).append(row)
    where = tmp_path / "unlisted.json"
    where.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(where)]) == 2
    what = {"table": "group table", "comp": "category comp",
            "objects": "tensor objects", "morphisms": "tensor morphisms",
            "assoc": "two_group assoc"}[path[-1]]
    assert capsys.readouterr().err == \
        "error: parse error in %s: %s row %r names the unlisted id %r\n" \
        % (where, what, row, bad)


def test_cli_malformed_budget_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KANFORGE_BUDGET", "10k")
    assert cli.main(["add", dump(tmp_path, "s1"), dump(tmp_path, "z2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "KANFORGE_BUDGET='10k'" in captured.err
    assert cli.main(["validate", dump(tmp_path, "delta1")]) == 2


@pytest.mark.parametrize("verb,group,search", [
    ("det", "oneobj-z2", "determinant enumeration"),
    ("add", "z2", "additive enumeration")])
def test_cli_budget_line_names_the_cap(tmp_path, capsys, monkeypatch, verb,
                                       group, search):
    monkeypatch.setenv("KANFORGE_BUDGET", "5")
    assert cli.main([verb, dump(tmp_path, "t11"), dump(tmp_path, group)]) == 2
    assert capsys.readouterr().out == \
        "budget exceeded: %s exceeded 5 evaluations\n" % search


def test_cli_verify_fibrancy_budget_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("KANFORGE_BUDGET", "10")
    assert cli.main(["verify", "fibrancy"]) == 2
    assert "budget exceeded: fibrancy boundary-horn lift search" in \
        capsys.readouterr().out


def broken_t11(tmp_path):
    """t11 with one face entry rewired: d_0 of a 2-simplex now names
    another edge, so d_0 d_0 != d_0 d_1 there."""
    doc = json.loads(io.dumps(ex.build("t11")))
    face = doc["face"]["2.0"]
    slot = next(i for i, e in enumerate(face) if e != face[0])
    face[slot] = face[0]
    path = tmp_path / "t11-broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert not io.loads(path.read_text(encoding="utf-8"))[0].validate().ok
    return path


def assert_refused(path, capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: " % path)
    assert "identity fails" in captured.err


def test_cli_add_and_det_reject_a_space_that_breaks_the_identities(
        tmp_path, capsys):
    # the map searches take the simplicial identities as given, so the
    # space is refused up front
    path = broken_t11(tmp_path)
    for verb, group in (("add", "z2"), ("det", "disc-z2")):
        assert cli.main([verb, str(path), dump(tmp_path, group)]) == 2
        assert_refused(path, capsys)


def truncated(tmp_path, name, dim):
    path = tmp_path / ("%s-%d.json" % (name, dim))
    path.write_text(io.dumps(sp.truncate(ex.build(name), dim)),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("verb,group,space,message", [
    ("det", "disc-z2", "delta2", "determinants need a reduced complex"),
    ("add", "z2", "delta2", "additive functions need a reduced complex"),
    ("det", "disc-z2", ("s1", 2), "determinants need dim >= 3"),
    ("add", "z2", ("s1", 1), "additive functions need dim >= 2")])
def test_cli_add_and_det_refuse_a_space_the_search_does_not_fit(
        tmp_path, capsys, verb, group, space, message):
    # a simplicial set that is not reduced, or is truncated below the
    # dimension the search reads, is an input error
    path = (truncated(tmp_path, *space) if isinstance(space, tuple)
            else dump(tmp_path, space))
    assert cli.main([verb, path, dump(tmp_path, group)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_cli_cosq_and_loop_reject_a_space_that_breaks_the_identities(
        tmp_path, capsys):
    # both constructions read faces and degeneracies as a simplicial set's,
    # so neither writes a document for a space that is not one
    path = broken_t11(tmp_path)
    out = tmp_path / "out.json"
    for argv in (["cosq", "--prime", "1"], ["cosq", "--to-dim", "4"],
                 ["loop"], ["loop", "--variant", "reduced"]):
        assert cli.main(argv + ["-o", str(out), str(path)]) == 2
        assert_refused(path, capsys)
        assert not out.exists()


def test_cli_main_is_reentrant(tmp_path, capsys):
    # many calls in one process: no call's options, defaults or errors
    # reach the next
    g = dump(tmp_path, "disc-z2")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["nerve", "--to-dim", "4", "-o", str(a), g]) == 0
    assert cli.main(["det", g]) == 2                 # one file short
    assert "usage: kanforge det" in capsys.readouterr().err
    assert cli.main(["nerve", "-o", str(b), g]) == 0
    for _ in range(2):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: kanforge")
    assert cli.main(["validate", str(b)]) == 0
    assert capsys.readouterr().out == "valid sset\n"
    levels_a = io.loads(a.read_text(encoding="utf-8"))[0].levels
    levels_b = io.loads(b.read_text(encoding="utf-8"))[0].levels
    # the default --to-dim 3 holds again after --to-dim 4
    assert (len(levels_a), len(levels_b)) == (5, 4)
    assert levels_b == levels_a[:4]


# help, usage errors, a verb that refuses its input and a verb that
# reads none, each with its exit code
PARSER_ARGVS = [(["--help"], 0), (["bogus"], 2), (["classify", "x"], 2),
                (["validate", "--help"], 0), (["kan", "--dim", "-1", "f"], 2),
                (["verify", "nosuch"], 2), ([], 2), (["examples", "list"], 0),
                (["nerve", "--to-dim", "x", "f"], 2)]


def run_cli(argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_is_built_once_and_lazily():
    assert cli.build_parser() is cli.build_parser()
    # importing the module builds no parser
    probe = ("import kanforge.cli as c; "
             "print(c.build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))] + sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


def test_cli_shared_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    valid = ["classify", "--n", "2", dump(tmp_path, "s1")]
    for argv, code in PARSER_ARGVS + [(valid, 0)]:
        first = run_cli(argv, capsys)
        assert first[0] == code and (first[1] or first[2])
        assert run_cli(argv, capsys) == first
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert run_cli(argv, capsys) == first


def test_cli_usage_error_leaves_the_next_call_alone(tmp_path, capsys):
    valid = ["classify", "--n", "2", dump(tmp_path, "s1")]
    want = run_cli(valid, capsys)
    assert want[0] == 0 and want[1]
    for argv, code in PARSER_ARGVS:
        assert run_cli(argv, capsys)[0] == code
        assert run_cli(valid, capsys) == want


@pytest.mark.parametrize("argv,line", [
    (["verify", "nosuch"], "error: unknown criterion 'nosuch'\n"),
    # every name is checked before any criterion runs
    (["verify", "fibrancy", "nosuch"], "error: unknown criterion 'nosuch'\n"),
    (["examples", "dump", "nosuch"], "error: unknown example 'nosuch'\n")],
    ids=["verify", "verify-after-a-known-name", "examples-dump"])
def test_cli_unknown_name_exit_two(capsys, argv, line):
    assert run_cli(argv, capsys) == (2, "", line)


def test_cli_verify_lets_a_criterion_key_error_through(monkeypatch):
    # a KeyError from inside a criterion is a fault, not a usage error
    def broken():
        return {}["missing"]
    monkeypatch.setattr(ac, "CRITERIA", ac.CRITERIA + [("broken", broken)])
    with pytest.raises(KeyError, match="missing"):
        cli.main(["verify", "broken"])


@pytest.mark.parametrize("argv,option", [
    (["nerve", "--to-dim", "-1"], "--to-dim"),
    (["segal-nerve", "--pmax", "-1"], "--pmax"),
    (["segal-nerve", "--qmax", "-1"], "--qmax"),
    (["classify", "--n", "-1"], "--n"),
    (["kan", "--dim", "-1"], "--dim"),
    (["pi", "--m", "-1"], "--m"),
    (["cosq", "--to-dim", "-1"], "--to-dim"),
    (["cosq", "--prime", "-1"], "--prime")])
def test_cli_negative_dimension_exit_two(tmp_path, capsys, argv, option):
    src = dump(tmp_path, "disc-z2" if argv[0] in ("nerve", "segal-nerve")
               else "s1")
    out = tmp_path / "out.json"
    extra = ["-o", str(out)] if argv[0] in ("nerve", "segal-nerve", "cosq") \
        else []
    assert cli.main(argv + extra + [src]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: dimension -1 is negative" % option in captured.err
    assert not out.exists()


@pytest.mark.parametrize("kind,key,value", [
    ("s1", "dim", -1), ("s1", "dim", "2"),
    ("bisimplicial", "P", -1), ("bisimplicial", "Q", -1)])
def test_loads_rejects_a_negative_dimension(tmp_path, capsys, kind, key,
                                            value):
    if kind == "bisimplicial":
        doc = json.loads(io.dumps(nv.p2_star(ex.build("s1"), 1)))
    else:
        doc = json.loads(io.dumps(ex.build(kind)))
    doc[key] = value
    with pytest.raises(io.ParseError, match="not a dimension >= 0"):
        io.loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "not a dimension >= 0" in capsys.readouterr().err


def test_nerve_of_dimension_zero_validates(tmp_path, capsys):
    # the nerve of a category once kept a level 1 beside level 0
    for name in ("disc-z2", "groupoid-z2"):
        out = tmp_path / ("n0-%s.json" % name)
        assert cli.main(["nerve", "--to-dim", "0", "-o", str(out),
                         dump(tmp_path, name)]) == 0
        assert cli.main(["validate", str(out)]) == 0
        assert capsys.readouterr().out == "valid sset\n"


def test_cli_kan_and_classify_on_the_empty_complex(tmp_path, capsys):
    # no cells at all: every horn map is trivially onto and one-to-one
    empty = sp.TruncatedSSet(
        2, [[], [], []], {(k, i): {} for k in (1, 2) for i in range(k + 1)},
        {(k, j): {} for k in (0, 1) for j in range(k + 1)})
    path = tmp_path / "empty.json"
    path.write_text(io.dumps(empty), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["kan", "--dim", "1", str(path)]) == 0
    assert cli.main(["classify", "--n", "0", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == ["horn (2,%d): surjective=True injective=True" % k
                        for k in range(3)]
    assert json.loads(out[4]) == {
        "checked_dims": "alpha on 0..1, kan on 1..1", "n": 0,
        "n_coskeletal": True, "n_kan_groupoid": True, "n_minimal": True,
        "weakly_n_coskeletal": True}


def topless_delta2(tmp_path):
    """delta2 with level 2 emptied: the degeneracies of the edges land
    outside it."""
    doc = json.loads(io.dumps(sp.standard_simplex(2, 2)))
    doc["levels"][2] = []
    doc["face"] = {k: ([] if k.startswith("2.") else v)
                   for k, v in doc["face"].items()}
    path = tmp_path / "topless.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [["kan", "--dim", "1"],
                                  ["classify", "--n", "1"], ["pi", "--m", "0"],
                                  ["pi", "--m", "1"]])
def test_cli_kan_classify_pi_reject_a_file_that_is_not_a_simplicial_set(
        tmp_path, capsys, argv):
    for path in (broken_t11(tmp_path), topless_delta2(tmp_path)):
        want = io.loads(path.read_text(encoding="utf-8"))[0].validate()
        assert cli.main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s: %s\n" % (path, want.violations[0])


def malformed_documents():
    """(name, a function that makes the document) with one malformed
    operator table, level list, cell id, flag, group table, morphism or
    tensor each."""
    def edited(build, edit):
        def make():
            doc = json.loads(io.dumps(build()))
            edit(doc)
            return doc
        return make

    def example(name):
        return functools.partial(ex.build, name)

    def repeat_01(doc):
        # level 1 lists 01 twice, each array out of it aligned, and no
        # coskeletal flag: the cells' maps agree, so validation passes
        level = doc["levels"][1]
        for table in (doc["face"], doc["degen"]):
            for key, arr in table.items():
                if key.startswith("1."):
                    arr.append(arr[level.index("01")])
        level.append("01")
        del doc["coskeletal_at"]

    delta2 = example("delta2")

    def star():
        return nv.p2_star(ex.build("s1"), 2)

    cases = [
        ("level-out-of-range", edited(delta2, lambda d: d["face"].update(
            {"7.0": d["face"]["1.0"]}))),
        ("negative-level", edited(delta2, lambda d: d["face"].update(
            {"-2.0": d["face"]["1.0"]}))),
        ("part-not-an-integer", edited(delta2, lambda d: d["face"].update(
            {"x.0": d["face"]["1.0"]}))),
        ("three-parts", edited(delta2, lambda d: d["face"].update(
            {"1.0.3": d["face"]["1.0"]}))),
        ("index-out-of-range", edited(delta2, lambda d: d["degen"].update(
            {"1.2": d["degen"]["1.0"]}))),
        ("array-not-a-list", edited(delta2, lambda d: d["face"].update(
            {"1.0": 5}))),
        ("bisimplicial-rows-short", edited(star, lambda d: d["levels"].pop())),
        ("hface-level-out-of-range", edited(star, lambda d: d["hface"].update(
            {"9.9.0": d["hface"]["1.1.0"]}))),
        ("image-not-a-string", edited(delta2, lambda d: d["face"]["1.0"]
                                      .__setitem__(0, [1]))),
        ("cell-id-not-a-string", edited(delta2, lambda d: d["levels"][0]
                                        .__setitem__(0, {"a": 1}))),
        ("repeated-cell-id", edited(example("delta1"), repeat_01)),
        ("coskeletal-at-not-a-dimension", edited(delta2, lambda d: d.update(
            coskeletal_at="x"))),
        ("base-not-a-string", edited(delta2, lambda d: d.update(base=["0"]))),
        ("bisimplicial-cell-id-not-a-string", edited(
            star, lambda d: d["levels"][1][1].__setitem__(0, 7))),
        ("group-table-not-a-list", edited(example("z2"), lambda d: d.update(
            table=5))),
        ("groupoid-morphism-without-id", edited(
            example("groupoid-z2"), lambda d: d["morphisms"][0].pop("id"))),
        ("two-group-tensor-a-list", edited(
            example("disc-z2"), lambda d: d.update(tensor=[]))),
        # well-formed documents whose tables name what is not there
        ("group-table-missing-a-row", edited(example("z2"), lambda d: d[
            "table"].pop())),
        ("groupoid-composite-not-a-morphism", edited(
            example("groupoid-z2"),
            lambda d: d["comp"][0].__setitem__(2, "x"))),
        ("two-group-unit-not-an-object", edited(
            example("disc-z2"), lambda d: d.update(unit_object="x"))),
    ]
    return [pytest.param(name, doc, id=name) for name, doc in cases]


@pytest.mark.parametrize("name,make", malformed_documents())
def test_cli_validate_malformed_operator_tables_exit_two(tmp_path, name, make):
    doc = make()
    # a separate interpreter, so that a traceback would show as one
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(io.__file__))] +
        os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-m", "kanforge.cli", "validate",
                          str(path)], capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: parse error in %s: " % path)
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("pmax,edit,violation", [
    (1, lambda d: d["vdegen"].pop("0.0.0"), "missing vdegen map (0,0,0)"),
    (2, lambda d: d["hface"]["2.2.2"].__setitem__(-1, "nowhere"),
     "hface (2,2,2)(%s) lands outside level (1,2)")],
    ids=["vdegen-missing", "hface-outside"])
def test_cli_validate_reports_a_broken_bisimplicial_set(tmp_path, capsys, pmax,
                                                        edit, violation):
    star = nv.p2_star(ex.build("s1"), pmax)
    doc = json.loads(io.dumps(star))
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    if "%s" in violation:
        violation %= star.level(2, 2)[-1]
    assert capsys.readouterr().out == "violation: %s\n" % violation


def test_cli_pi_and_loop_reject_a_base_that_is_not_a_vertex(tmp_path, capsys):
    # a --base outside level 0 is a usage error, named as validate names
    # it, not a traceback out of the degeneracy tables
    npath = str(tmp_path / "n4.json")
    assert cli.main(["nerve", "--to-dim", "4", "-o", npath,
                     dump(tmp_path, "oneobj-z2")]) == 0
    for argv in (["pi", "--m", "1", "--base", "zz", npath],
                 ["loop", "--base", "zz", dump(tmp_path, "s1")]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: base zz is not a 0-simplex\n"


def test_cli_pi_names_a_coskeletal_flag_too_high_to_extend(tmp_path, capsys):
    # nerve --to-dim 1 writes coskeletal_at 3 at dim 1: the flag is
    # there, but level 2 is not, so the complex cannot be extended
    npath = str(tmp_path / "n1.json")
    assert cli.main(["nerve", "--to-dim", "1", "-o", npath,
                     dump(tmp_path, "disc-z2")]) == 0
    assert json.loads(open(npath, encoding="utf-8").read())[
        "coskeletal_at"] == 3
    assert cli.main(["pi", "--m", "1", npath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: need level 3 but truncation stops at 1 "
                            "(coskeletal_at=3 extends only from level 2)\n")


def category_doc(kind, objects, morphisms, identity, comp):
    return {"format": 1, "kind": kind, "objects": objects,
            "morphisms": [{"id": f, "src": s, "tgt": t}
                          for f, s, t in morphisms],
            "identity": identity, "comp": comp}


@pytest.mark.parametrize("kind", ["groupoid", "category"])
def test_cli_groupoid_without_inv_names_a_missing_identity(tmp_path, capsys,
                                                            kind):
    # without inv, the inverses were derived through the identity of y
    # before validation, and validate and nerve died with a KeyError
    path = tmp_path / "no-id.json"
    path.write_text(json.dumps(category_doc(
        kind, ["x", "y"], [["1", "x", "x"], ["2", "y", "y"]], {"x": "1"},
        [["1", "1", "1"], ["2", "2", "2"]])), encoding="utf-8")
    for verb in (["validate"], ["nerve"]):
        assert cli.main(verb + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parse error in %s: category axioms " \
            "fail: missing identity at y\n" % path


@pytest.mark.parametrize("objects,morphisms,line", [
    (["x", "x"], [["f", "x", "x"]], "object id 'x'"),
    (["x"], [["f", "x", "x"], ["f", "x", "x"]], "morphism id 'f'"),
    (["x"], [[1, "x", "x"], ["1", "x", "x"]], "morphism id '1'")],
    ids=["object", "morphism", "spelled-alike"])
def test_cli_category_refuses_a_repeated_id(tmp_path, capsys, objects,
                                            morphisms, line):
    # a repeated id once validated, and its nerve was a file that the
    # loader refused: its cells [f] and [f] (or [1] and [1]) clashed
    f = morphisms[0][0]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(category_doc(
        "category", objects, morphisms, {"x": f}, [[f, f, f]])),
        encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: parse error in %s: category " \
        "lists the %s twice\n" % (path, line)


def test_cli_nerve_of_numeric_morphism_ids_loads_and_validates(tmp_path,
                                                               capsys):
    # each id of a chain is spelled by str; ints once raised a TypeError
    path, out = tmp_path / "numeric.json", tmp_path / "nerve.json"
    path.write_text(json.dumps(category_doc(
        "category", ["x", "y"], [[1, "x", "x"], [2, "y", "y"], [3, "x", "y"]],
        {"x": 1, "y": 2}, [[1, 1, 1], [2, 2, 2], [3, 1, 3], [2, 3, 3]])),
        encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["nerve", "-o", str(out), str(path)]) == 0
    assert cli.main(["validate", str(out)]) == 0
    assert capsys.readouterr().out == "valid category\nvalid sset\n"
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["levels"][1] == ["[1]", "[2]", "[3]"]
    assert doc["levels"][2] == ["[1;1]", "[1;3]", "[2;2]", "[3;2]"]


def test_cli_roundtrip_of_mixed_morphism_ids(tmp_path, capsys):
    # ids that mix numbers and strings once stopped roundtrip with a
    # TypeError (exit 1) where sorting compared them; numbers sort first
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(category_doc(
        "category", ["x", "y"],
        [[1, "x", "x"], ["b", "x", "y"], [3, "y", "y"]], {"x": 1, "y": 3},
        [[1, 1, 1], ["b", 1, "b"], [3, "b", "b"], [3, 3, 3]])),
        encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid category\n")
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["comp"] == [[1, 1, 1], [3, 3, 3], [3, "b", "b"], ["b", 1, "b"]]
    # a map with keys of both kinds; keys of one kind sort as sort_keys
    assert io.canonical_dumps({"b": [{3: 0, 1: 1}], 2: {"y": 0, "x": 1}}) \
        == '{"2":{"x":1,"y":0},"b":[{"1":1,"3":0}]}\n'


def test_cli_roundtrip_of_a_groupoid_with_numeric_morphism_ids(tmp_path,
                                                               capsys):
    # inv is written as a JSON map, whose keys are strings: the inverse
    # of 1 was once looked up under "1", and the round trip exited 2
    # with "no inverse for 1"
    path = tmp_path / "z2.json"
    doc = category_doc("groupoid", ["x"], [[1, "x", "x"], [2, "x", "x"]],
                       {"x": 1}, [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]])
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid groupoid\n")
    assert json.loads(out.split("\n", 1)[1])["inv"] == {"1": 1, "2": 2}


def test_cli_validate_reads_numeric_object_ids_as_map_keys(tmp_path, capsys):
    # the identity of the object 0 was once looked up under the key "0"
    # and reported missing
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(category_doc(
        "category", [0], [["i", 0, 0]], {"0": "i"}, [["i", "i", "i"]])),
        encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid category\n"


def test_cli_two_group_with_numeric_object_ids_round_trips(tmp_path, capsys):
    # lunit and runit are keyed by the objects 0 and 1, spelled "0", "1"
    text = json.dumps(io.two_group_to_doc(ex.build("disc-z2")))
    for obj in ("o0", "o1"):
        text = text.replace('"%s": ' % obj, '"%s": ' % obj[1:]) \
            .replace('"%s"' % obj, obj[1:])
    path = tmp_path / "numeric.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid two_group\n")
    assert json.loads(out.split("\n", 1)[1])["lunit"] == {"0": "i0",
                                                          "1": "i1"}


@pytest.mark.parametrize("name", ex.CANNED_TWO_GROUPS)
def test_cli_monoidal_document_round_trips_as_monoidal(tmp_path, capsys,
                                                       name):
    doc = io.two_group_to_doc(ex.build(name))
    doc["kind"] = "monoidal"
    path = tmp_path / "monoidal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid monoidal\n"
    assert cli.main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == doc
    path.write_text(out, encoding="utf-8")
    assert cli.main(["roundtrip", str(path)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("edit,line", [
    (lambda d: d["identity"].update(z="i0"), "category identity"),
    (lambda d: d["inv"].update(z="i0"), "groupoid inv"),
    (lambda d: d["lunit"].update(z="i0"), "lunit")],
    ids=["identity", "inv", "lunit"])
def test_cli_validate_names_a_map_key_that_is_no_listed_id(tmp_path, capsys,
                                                           edit, line):
    g = io.two_group_to_doc(ex.build("disc-z2"))
    doc = g if line == "lunit" else g["base"]
    edit(doc)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: parse error in %s: %s names " \
        "the unlisted id 'z'\n" % (path, line)
