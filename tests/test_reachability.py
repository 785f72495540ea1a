"""Every top-level definition in src/kanforge is reached from cli.main.

A definition is reached when cli.main is, or when a reached definition
mentions its name as a Name or as an Attribute (`sp.column` reaches
every top-level `column`).  Module-level statements that define nothing
run on import, so their names are reached too.  The scan parses the
sources with ast and imports nothing, so a module that fails to import
still gets a report.  A helper that only tests read belongs in
tests/reference.py, not in src/."""

import ast
import pathlib
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kanforge"
ROOT = "kanforge.cli.main"

# "module.name" -> the reason it stays in src/ although nothing reaches it.
ALLOWED = {}


def module_name(path):
    return "kanforge" if path.stem == "__init__" else "kanforge." + path.stem


def defined_names(node):
    """The names a top-level statement binds, or None if it binds none."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [n.id for t in targets for n in ast.walk(t)
             if isinstance(n, ast.Name)]
    return names or None


def mentioned(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def scan():
    """(the definitions as {"module.name": node}, the reached ones)."""
    defs, by_name, roots = {}, {}, [ROOT]
    for path in sorted(SRC.glob("*.py")):
        mod = module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = defined_names(node)
            if names is None:
                key = "%s.<line %d>" % (mod, node.lineno)
                defs[key] = node
                roots.append(key)
                continue
            for name in names:
                key = "%s.%s" % (mod, name)
                defs[key] = node
                by_name.setdefault(name, []).append(key)
    reached, todo = set(), [r for r in roots if r in defs]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo.extend(k for m in mentioned(defs[key])
                    for k in by_name.get(m, ()) if k not in reached)
    return defs, reached


def test_every_definition_in_src_is_reached_from_cli_main():
    start = time.perf_counter()
    defs, reached = scan()
    assert ROOT in defs
    unreached = sorted(set(defs) - reached - set(ALLOWED))
    assert unreached == [], "not reached from %s: %s" % (
        ROOT, ", ".join(unreached))
    assert time.perf_counter() - start < 1.0


def test_every_allowed_name_has_a_reason_and_is_still_unreached():
    defs, reached = scan()
    for key, reason in ALLOWED.items():
        assert isinstance(reason, str) and reason.strip(), key
        assert key in defs and key not in reached, key
