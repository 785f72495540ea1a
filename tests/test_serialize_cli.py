import json
import os
import subprocess
import sys

import pytest

from kanforge import serialize as io
from kanforge import examples as ex
from kanforge import cli
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


def test_cli_bad_input_exit_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["examples", "dump", "no-such-id"]) == 2
    assert cli.main(["classify", "--n", "1", str(tmp_path / "missing.json")]) == 2


def test_cli_malformed_budget_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KANFORGE_BUDGET", "10k")
    assert cli.main(["add", dump(tmp_path, "s1"), dump(tmp_path, "z2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "KANFORGE_BUDGET='10k'" in captured.err
    assert cli.main(["validate", dump(tmp_path, "delta1")]) == 2


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
    out = tmp_path / "n0.json"
    assert cli.main(["nerve", "--to-dim", "0", "-o", str(out),
                     dump(tmp_path, "disc-z2")]) == 0
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
    """(name, document) with one malformed operator table, level list,
    cell id, flag, group table, morphism or tensor each."""
    def edited(obj, edit):
        doc = json.loads(io.dumps(obj))
        edit(doc)
        return doc

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

    delta2 = ex.build("delta2")
    star = nv.p2_star(ex.build("s1"), 2)
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
        ("repeated-cell-id", edited(ex.build("delta1"), repeat_01)),
        ("coskeletal-at-not-a-dimension", edited(delta2, lambda d: d.update(
            coskeletal_at="x"))),
        ("base-not-a-string", edited(delta2, lambda d: d.update(base=["0"]))),
        ("bisimplicial-cell-id-not-a-string", edited(
            star, lambda d: d["levels"][1][1].__setitem__(0, 7))),
        ("group-table-not-a-list", edited(ex.build("z2"), lambda d: d.update(
            table=5))),
        ("groupoid-morphism-without-id", edited(
            ex.build("groupoid-z2"), lambda d: d["morphisms"][0].pop("id"))),
        ("two-group-tensor-a-list", edited(
            ex.build("disc-z2"), lambda d: d.update(tensor=[]))),
        # well-formed documents whose tables name what is not there
        ("group-table-missing-a-row", edited(ex.build("z2"), lambda d: d[
            "table"].pop())),
        ("groupoid-composite-not-a-morphism", edited(
            ex.build("groupoid-z2"),
            lambda d: d["comp"][0].__setitem__(2, "x"))),
        ("two-group-unit-not-an-object", edited(
            ex.build("disc-z2"), lambda d: d.update(unit_object="x"))),
    ]
    return [pytest.param(name, doc, id=name) for name, doc in cases]


@pytest.mark.parametrize("name,doc", malformed_documents())
def test_cli_validate_malformed_operator_tables_exit_two(tmp_path, name, doc):
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
