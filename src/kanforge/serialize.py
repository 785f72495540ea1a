"""JSON interchange for every structure the CLI reads or writes.

Canonical form: sorted keys, compact separators, UTF-8, newline
terminated.  Operator maps are keyed "k.i" (or "p.q.i") with arrays
aligned to the id order of the source level.  Unknown keys are rejected.
"""

import itertools
import json

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from .groups import FiniteGroup


class ParseError(Exception):
    pass


def canonical_dumps(obj):
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
    except TypeError:   # map keys that mix numbers and strings
        text = json.dumps(_in_id_order(obj), separators=(",", ":"),
                          ensure_ascii=False)
    return text + "\n"


def _id_order(x):
    """Numbers first, then strings; ids of one kind sort as sorted()."""
    return isinstance(x, str), x


def _in_id_order(obj):
    """obj with the items of every map in _id_order of their keys."""
    if isinstance(obj, dict):
        return {k: _in_id_order(obj[k]) for k in sorted(obj, key=_id_order)}
    return list(map(_in_id_order, obj)) if isinstance(obj, list) else obj


def _reject_unknown(doc, allowed, where):
    extra = set(doc) - set(allowed)
    if extra:
        raise ParseError("unknown keys %s in %s" % (sorted(extra), where))


def _need(doc, key, where):
    if key not in doc:
        raise ParseError("missing key %r in %s" % (key, where))
    return doc[key]


def _need_dim(doc, key, where):
    dim = _need(doc, key, where)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError("%s %r in %s is not a dimension >= 0"
                         % (key, dim, where))
    return dim


def _need_lists(value, count, what):
    if not isinstance(value, list) or len(value) != count or \
            not all(isinstance(v, list) for v in value):
        raise ParseError("%s is not a list of %d lists" % (what, count))
    return value


# the JSON types that can name an element, object or morphism (a bool
# is neither: its type is bool)
_ID_TYPES = {str, int, float}


def _need_id(value, what):
    if type(value) not in _ID_TYPES:
        raise ParseError("%s is not an id: %r" % (what, value))
    return value


def _need_ids(value, what):
    """value, a list of ids."""
    if not isinstance(value, list) or not set(map(type, value)) <= _ID_TYPES:
        raise ParseError("%s is not a list of ids" % what)
    return value


def _need_rows(value, width, what):
    """value, a list of rows of `width` ids each."""
    if not isinstance(value, list) or not set(map(type, value)) <= {list} or \
            not set(map(len, value)) <= {width} or \
            not set(map(type, itertools.chain.from_iterable(value))) <= \
            _ID_TYPES:
        raise ParseError("%s is not a list of rows of %d ids" % (what, width))
    return value


def _need_listed(rows, columns, what):
    """rows, each of whose n-th ids lies in the set columns[n]; the first
    row that names an id not listed there raises ParseError naming `what`
    and the row."""
    if all(set(col) <= ids for col, ids in zip(zip(*rows), columns)):
        return rows
    row = next(row for row in rows
               if any(v not in ids for v, ids in zip(row, columns)))
    bad = next(v for v, ids in zip(row, columns) if v not in ids)
    raise ParseError("%s row %r names the unlisted id %r" % (what, row, bad))


def _need_id_map(value, ids, what):
    """value, an object whose values are ids, keyed by the ids of `ids`:
    a JSON key is a string, so each key is read as the listed id spelled
    (str) alike, which _need_once keeps unique; a key that spells none
    raises ParseError naming `what` and the key."""
    if not isinstance(value, dict) or \
            not set(map(type, value.values())) <= _ID_TYPES:
        raise ParseError("%s is not an object of ids" % what)
    spelled = {str(i): i for i in ids}
    bad = [key for key in value if str(key) not in spelled]
    if bad:
        raise ParseError("%s names the unlisted id %r" % (what, bad[0]))
    return {spelled[str(key)]: v for key, v in value.items()}


def _need_once(ids, what):
    """ids, no two of which are spelled (str) alike, so that 1 and "1"
    clash as the cells named by them would; else ParseError naming
    `what` and the first id met a second time."""
    seen = set()
    for spelled in map(str, ids):
        if spelled in seen:
            raise ParseError("%s %r twice" % (what, spelled))
        seen.add(spelled)
    return ids


def _need_cells(cells, what):
    """cells, a list of string ids none of which repeats; anything else
    raises ParseError naming `what`."""
    if not set(map(type, cells)) <= {str}:
        bad = next(c for c in cells if type(c) is not str)
        raise ParseError("%s holds a cell id that is not a string: %r"
                         % (what, bad))
    # the cells are strings, so a repeat shows in their set
    if len(set(cells)) != len(cells):
        _need_once(cells, "%s lists the cell id" % what)
    return cells


def _read_operators(doc, name, levels, step, where):
    """The operator table doc[name] as {key: {cell: image}}.  Each key
    spells a level l of `levels` and an index i with dots ("k.i" or
    "p.q.i"); l + step must be a level too, 0 <= i <= the coordinate of
    l that step moves, and the array lists the images of the cells of l
    in their order, each a string.  Anything else raises ParseError
    naming the key."""
    table = _need(doc, name, where)
    if not isinstance(table, dict):
        raise ParseError("%s in %s is not an object" % (name, where))
    axis = [t != 0 for t in step].index(True)
    out = {}
    for key, arr in table.items():
        try:
            parts = tuple(int(t) for t in key.split("."))
        except ValueError:
            parts = ()
        if len(parts) != len(step) + 1 or ".".join(map(str, parts)) != key:
            raise ParseError("%s key %r is not %d dot-separated integers"
                             % (name, key, len(step) + 1))
        level, i = parts[:-1], parts[-1]
        if level not in levels or \
                tuple(a + b for a, b in zip(level, step)) not in levels:
            raise ParseError("%s %s maps between levels that are not stored"
                             % (name, key))
        if not 0 <= i <= level[axis]:
            raise ParseError("%s %s: index %d is out of range 0..%d"
                             % (name, key, i, level[axis]))
        cells = levels[level]
        if not isinstance(arr, list) or len(arr) != len(cells):
            raise ParseError("%s %s misaligned: not a list of %d ids, one per "
                             "cell of its level" % (name, key, len(cells)))
        if not set(map(type, arr)) <= {str}:
            raise ParseError("%s %s holds an image that is not a string"
                             % (name, key))
        out[parts] = dict(zip(cells, arr))
    return out


# -- truncated simplicial sets ----------------------------------------------


def sset_to_doc(x):
    """The document of X under its string ids (sp.named_lists: a complex
    on places is named here, with no dict table built)."""
    ids, images, base = sp.named_lists(x)
    doc = {"format": 1, "kind": "sset", "dim": x.dim, "levels": ids}
    for name, table in (("face", x.face), ("degen", x.degen)):
        doc[name] = {"%d.%d" % key: images[(name,) + key] for key in table}
    if x.coskeletal_at is not None:
        doc["coskeletal_at"] = x.coskeletal_at
    if base is not None:
        doc["base"] = base
    return doc


def sset_from_doc(doc):
    _reject_unknown(doc, {"format", "kind", "dim", "levels", "face", "degen",
                          "coskeletal_at", "base"}, "sset")
    if doc.get("format") != 1 or doc.get("kind") != "sset":
        raise ParseError("not a format-1 sset document")
    dim = _need_dim(doc, "dim", "sset")
    levels = _need_lists(_need(doc, "levels", "sset"), dim + 1, "sset levels")
    by_level = {(k,): _need_cells(cells, "sset level %d" % k)
                for k, cells in enumerate(levels)}
    face = _read_operators(doc, "face", by_level, (-1,), "sset")
    degen = _read_operators(doc, "degen", by_level, (1,), "sset")
    cosk = _need_dim(doc, "coskeletal_at", "sset") \
        if "coskeletal_at" in doc else None
    base = doc.get("base")
    if "base" in doc and type(base) is not str:
        raise ParseError("base %r in sset is not a cell id" % (base,))
    return sp.TruncatedSSet(dim, levels, face, degen, coskeletal_at=cosk,
                            base=base)


# -- groups -------------------------------------------------------------------


def group_to_doc(g):
    return {"format": 1, "kind": "group",
            "elements": [str(e) for e in g.elements],
            "table": [[str(a), str(b), str(g.mul(a, b))]
                      for a in g.elements for b in g.elements],
            "unit": str(g.unit)}


def group_from_doc(doc):
    _reject_unknown(doc, {"format", "kind", "elements", "table", "unit"},
                    "group")
    if doc.get("kind") != "group":
        raise ParseError("not a group document")
    els = _need_ids(_need(doc, "elements", "group"), "group elements")
    table = {(a, b): c for a, b, c in _need_listed(
        _need_rows(_need(doc, "table", "group"), 3, "group table"),
        [set(els)] * 3, "group table")}
    g = FiniteGroup(els, table, _need_id(_need(doc, "unit", "group"),
                                         "group unit"))
    errs = g.validate()
    if errs:
        raise ParseError("group axioms fail: %s" % errs[0])
    return g


# -- categories, groupoids, monoidal structures, 2-groups ---------------------


def category_to_doc(c):
    doc = {"format": 1,
           "kind": "groupoid" if isinstance(c, ca.FinGroupoid) else "category",
           "objects": list(c.objects),
           "morphisms": [{"id": f, "src": c.src[f], "tgt": c.tgt[f]}
                         for f in c.morphisms],
           "identity": {x: c.ident[x] for x in c.objects},
           "comp": sorted(([g, f, gf] for (g, f), gf in c.comp_table.items()),
                          key=lambda row: list(map(_id_order, row[:2])))}
    if isinstance(c, ca.FinGroupoid):
        doc["inv"] = {f: c.inv_table[f] for f in c.morphisms}
    return doc


def category_from_doc(doc):
    _reject_unknown(doc, {"format", "kind", "objects", "morphisms", "identity",
                          "comp", "inv"}, "category")
    kind = doc.get("kind")
    if kind not in ("category", "groupoid"):
        raise ParseError("not a category document")
    objects = _need_once(_need_ids(_need(doc, "objects", "category"),
                                   "category objects"),
                         "category lists the object id")
    morphs = _need(doc, "morphisms", "category")
    if not isinstance(morphs, list) or \
            not all(isinstance(m, dict) for m in morphs):
        raise ParseError("category morphisms is not a list of objects")
    for m in morphs:
        _reject_unknown(m, {"id", "src", "tgt"}, "category morphism")
        for key in ("id", "src", "tgt"):
            _need_id(_need(m, key, "category morphism"),
                     "category morphism %s" % key)
    ids = _need_once([m["id"] for m in morphs],
                     "category lists the morphism id")
    src = {m["id"]: m["src"] for m in morphs}
    tgt = {m["id"]: m["tgt"] for m in morphs}
    ident = _need_id_map(_need(doc, "identity", "category"), objects,
                         "category identity")
    comp = {(g, f): gf for g, f, gf in _need_listed(
        _need_rows(_need(doc, "comp", "category"), 3, "category comp"),
        [set(ids)] * 3, "category comp")}
    if kind == "groupoid":
        inv = doc.get("inv")
        cat = ca.FinGroupoid(objects, ids, src, tgt, ident, comp,
                             inv=None if inv is None else
                             _need_id_map(inv, ids, "groupoid inv"))
    else:
        cat = ca.FinCategory(objects, ids, src, tgt, ident, comp)
    errs = cat.validate()
    if errs:
        raise ParseError("category axioms fail: %s" % errs[0])
    return cat


def two_group_to_doc(g):
    """The document of a monoidal structure, of kind "two_group" when g
    is a certified TwoGroup and "monoidal" otherwise."""
    kind = "two_group" if isinstance(g, ca.TwoGroup) else "monoidal"
    doc = {"format": 1, "kind": kind,
           "base": category_to_doc(g.base),
           "unit_object": g.unit,
           "tensor": {
               "objects": [[x, y, g.t(x, y)]
                           for x in g.base.objects for y in g.base.objects],
               "morphisms": [[f, k, g.tm(f, k)]
                             for f in g.base.morphisms
                             for k in g.base.morphisms]},
           "assoc": [[x, y, z, g.a(x, y, z)]
                     for x in g.base.objects for y in g.base.objects
                     for z in g.base.objects],
           "lunit": {x: g.l(x) for x in g.base.objects},
           "runit": {x: g.r(x) for x in g.base.objects}}
    return doc


def two_group_from_doc(doc):
    _reject_unknown(doc, {"format", "kind", "base", "unit_object", "tensor",
                          "assoc", "lunit", "runit"}, "two_group")
    if doc.get("kind") not in ("two_group", "monoidal"):
        raise ParseError("not a 2-group document")
    base = _need(doc, "base", "two_group")
    if not isinstance(base, dict):
        raise ParseError("base in two_group is not an object")
    base = category_from_doc(base)
    tensor = _need(doc, "tensor", "two_group")
    if not isinstance(tensor, dict):
        raise ParseError("tensor in two_group is not an object")
    _reject_unknown(tensor, {"objects", "morphisms"}, "two_group tensor")
    objs, mors = set(base.objects), set(base.morphisms)
    tobj = {(x, y): t for x, y, t in _need_listed(_need_rows(
        _need(tensor, "objects", "two_group tensor"), 3, "tensor objects"),
        [objs] * 3, "tensor objects")}
    tmor = {(f, k): t for f, k, t in _need_listed(_need_rows(
        _need(tensor, "morphisms", "two_group tensor"), 3,
        "tensor morphisms"), [mors] * 3, "tensor morphisms")}
    assoc = {(x, y, z): m for x, y, z, m in _need_listed(_need_rows(
        _need(doc, "assoc", "two_group"), 4, "two_group assoc"),
        [objs] * 3 + [mors], "two_group assoc")}
    mon = ca.MonoidalStructure(
        base, tobj, tmor,
        _need_id(_need(doc, "unit_object", "two_group"), "unit_object"),
        assoc, *[_need_id_map(_need(doc, key, "two_group"), base.objects,
                              key) for key in ("lunit", "runit")])
    if doc.get("kind") == "monoidal":
        errs = mon.validate()
        if errs:
            raise ParseError("monoidal axioms fail: %s" % errs[0])
        return mon
    try:
        return ca.certify_two_group(mon)
    except ca.CatError as exc:
        raise ParseError("2-group certification fails: %s" % exc)


# -- bisimplicial (rectangular truncations only) ------------------------------


def bisimplicial_to_doc(bx):
    pmax = bx.P
    qmax = bx.Q
    region = nv.rectangle(pmax, qmax)
    if region - set(bx.region):
        raise ParseError("only rectangular truncations serialize")
    bx = nv.named(bx)
    doc = {"format": 1, "kind": "bisimplicial", "P": pmax, "Q": qmax,
           "levels": [[list(bx.level(p, q)) for q in range(qmax + 1)]
                      for p in range(pmax + 1)]}
    for name in nv.BisimplicialTrunc.OPERATORS:
        doc[name] = {"%d.%d.%d" % key: [m[s] for s in bx.level(*key[:2])]
                     for key, m in getattr(bx, name).items()}
    return doc


def bisimplicial_from_doc(doc):
    _reject_unknown(doc, {"format", "kind", "P", "Q", "levels", "hface",
                          "vface", "hdegen", "vdegen"}, "bisimplicial")
    if doc.get("kind") != "bisimplicial":
        raise ParseError("not a bisimplicial document")
    pmax, qmax = _need_dim(doc, "P", "bi"), _need_dim(doc, "Q", "bi")
    rows = _need_lists(_need(doc, "levels", "bi"), pmax + 1,
                       "bisimplicial levels")
    for p, row in enumerate(rows):
        _need_lists(row, qmax + 1, "bisimplicial levels row %d" % p)
    region = nv.rectangle(pmax, qmax)
    levels = {(p, q): _need_cells(rows[p][q], "bisimplicial level (%d,%d)"
                                  % (p, q)) for (p, q) in region}
    return nv.BisimplicialTrunc(region, levels, *[
        _read_operators(doc, name, levels, step, "bi")
        for name, step in nv.BisimplicialTrunc.OPERATORS.items()])


# -- front door ----------------------------------------------------------------


_KINDS = {
    "sset": sset_from_doc,
    "group": group_from_doc,
    "category": category_from_doc,
    "groupoid": category_from_doc,
    "two_group": two_group_from_doc,
    "monoidal": two_group_from_doc,
    "bisimplicial": bisimplicial_from_doc,
}


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("format") != 1:
        raise ParseError("unsupported format (want 1)")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError("unknown kind %r" % kind)
    return _KINDS[kind](doc), kind


def dumps(obj):
    if isinstance(obj, sp.TruncatedSSet):
        return canonical_dumps(sset_to_doc(obj))
    if isinstance(obj, FiniteGroup):
        return canonical_dumps(group_to_doc(obj))
    if isinstance(obj, ca.MonoidalStructure):
        return canonical_dumps(two_group_to_doc(obj))
    if isinstance(obj, ca.FinCategory):
        return canonical_dumps(category_to_doc(obj))
    if isinstance(obj, nv.BisimplicialTrunc):
        return canonical_dumps(bisimplicial_to_doc(obj))
    raise ParseError("cannot serialize %r" % type(obj))


def roundtrip_text(text):
    """parse -> canonical serialize -> parse; returns the canonical text
    and whether re-serialization is byte-stable."""
    obj, _ = loads(text)
    out = dumps(obj)
    obj2, _ = loads(out)
    return out, dumps(obj2) == out
