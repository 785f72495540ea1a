"""Nerve constructions and bisimplicial plumbing.

The monoidal/2-group nerve follows the coherence-simplex description: a
q-simplex is a family of objects X_ij (i<j) plus pairing morphisms
al_ijk : X_ij (x) X_jk -> X_ik subject to the associativity square, and
the simplicial operators are reindexing with inverse unitors inserted on
collapsed indices.  The Segal nerve is stored column-major through the
groupoid of q-simplices: N_S(G)_{p,q} = (p-chains in the groupoid of
q-simplices of G).
"""

import functools
import itertools
import operator

from . import simplicial as sp
from . import catalg as ca


class NerveError(Exception):
    pass


class NotOneKanGroupoid(NerveError):
    pass


class NotTwoKanGroupoid(NerveError):
    pass


# -- nerve of a small category ---------------------------------------------


def _chain_id(parts):
    return "[" + ";".join(parts) + "]"


def _chain_face(c, m, i, comp):
    """d_i of the chain c (a tuple) of m >= 2 composable arrows, first
    arrow first: drop the first (i = 0) or last (i = m) arrow, else
    replace c[i - 1], c[i] by comp(c[i], c[i - 1])."""
    if i == 0:
        return c[1:]
    if i == m:
        return c[:-1]
    return c[:i - 1] + (comp(c[i], c[i - 1]),) + c[i + 1:]


def _chain_degen(c, j, unit_at_src, unit_at_tgt):
    """s_j of the chain c (a tuple) of m >= 1 arrows: the identity of its
    j-th object inserted at place j, unit_at_src(c[0]) for j = 0 and
    unit_at_tgt(c[j - 1]) after."""
    if j == 0:
        return (unit_at_src(c[0]),) + c
    return c[:j] + (unit_at_tgt(c[j - 1]),) + c[j:]


def nerve_category(cat, to_dim):
    """Level m = composable chains of m morphisms; carries the
    2-coskeletal flag."""
    errs = cat.validate()
    if errs:
        raise NerveError("category does not validate: %s" % errs[0])
    # level 0 holds the objects, level m >= 1 the chains of m morphisms
    chains = [list(cat.objects), [(f,) for f in cat.morphisms]]
    for m in range(2, to_dim + 1):
        chains.append([c + (f,) for c in chains[m - 1] for f in cat.morphisms
                       if cat.src[f] == cat.tgt[c[-1]]])
    levels = [chains[0]] + [list(map(_chain_id, cs)) for cs in chains[1:]]

    def op(name, m, i):
        cs = chains[m]
        if name == "face" and m == 1:
            images = [(cat.tgt if i == 0 else cat.src)[c[0]] for c in cs]
        elif name == "face":
            images = [_chain_id(_chain_face(c, m, i, cat.comp)) for c in cs]
        elif m == 0:
            images = [_chain_id((cat.ident[x],)) for x in cs]
        else:
            images = [_chain_id(_chain_degen(c, i, unit_at_src, unit_at_tgt))
                      for c in cs]
        return dict(zip(levels[m], images))

    def unit_at_src(f):
        return cat.ident[cat.src[f]]

    def unit_at_tgt(f):
        return cat.ident[cat.tgt[f]]

    base = cat.objects[0] if len(cat.objects) == 1 else None
    out = sp.build_sset(to_dim, levels, op, coskeletal_at=2, base=base)
    out._mor1 = {_chain_id((f,)): f for f in cat.morphisms}
    out._chain1 = {f: _chain_id((f,)) for f in cat.morphisms}
    return out


def groupoid_from_nerve(w):
    """Rebuild a groupoid from a 1-Kan-groupoid: composition is the
    middle face of the unique inner-horn filler."""
    rep = sp.classify(w, 1)
    if not rep.n_kan_groupoid:
        raise NotOneKanGroupoid("input fails the 1-Kan-groupoid test: %r" % rep)
    objects = list(w.level(0))
    morphs = list(w.level(1))
    src = {f: w.d(1, 1, f) for f in morphs}
    tgt = {f: w.d(1, 0, f) for f in morphs}
    ident = {x: w.s(0, 0, x) for x in objects}
    comp = {}
    for eta in w.level(2):
        g, gf, f = w.d(2, 0, eta), w.d(2, 1, eta), w.d(2, 2, eta)
        key = (g, f)
        if key in comp and comp[key] != gf:
            raise NotOneKanGroupoid("non-unique inner-horn fillers")
        comp[key] = gf
    for g in morphs:
        for f in morphs:
            if src[g] == tgt[f] and (g, f) not in comp:
                raise NotOneKanGroupoid("unfillable inner horn (%s,%s)" % (g, f))
    grpd = ca.FinGroupoid(objects, morphs, src, tgt, ident, comp, name="from-nerve")
    errs = grpd.validate()
    if errs:
        raise NotOneKanGroupoid("reconstruction invalid: %s" % errs[0])
    return grpd


# -- nerve of a monoidal category / 2-group --------------------------------


def _q2_struct(m, x01, x12, xi):
    return ("q2", x01, x12, xi)


def _pairs(q):
    """The pairs i < j of [q], in sorted order: the slots of a family."""
    return [(i, j) for i in range(q + 1) for j in range(i + 1, q + 1)]


def _triples(q):
    """The triples i < j < k of [q], in sorted order."""
    return [(i, j, k) for (i, j) in _pairs(q) for k in range(j + 1, q + 1)]


def _simplex_keys(g, q):
    """The structural q-simplices of a 2-group (q <= 3) on g.int_index:
    objects X_ij and pairing morphisms al_ijk : X_ij (x) X_jk -> X_ik
    whose associativity squares commute.  Each is (object int per pair,
    al int per triple), pairs and triples in sorted order; they come
    ordered by X_01, X_12, X_23, al_012, al_123, al_023, al_013."""
    ix = g.int_index
    objs = range(len(ix.objects))
    if q == 0:
        return [((), ())]
    if q == 1:
        return [((x,), ()) for x in objs]
    tobj, tgt = ix.tobj, ix.tgt
    out_of = [[] for _ in objs]
    for f, x in enumerate(ix.src):
        out_of[x].append(f)
    if q == 2:
        return [((x01, tgt[al], x12), (al,))
                for x01 in objs for x12 in objs
                for al in out_of[tobj[(x01, x12)]]]
    if q != 3:
        raise NerveError("structural simplices stop at dimension 3")
    comp, tm, ident = ix.comp, ix.tm, ix.ident
    out = []
    for x01 in objs:
        for x12 in objs:
            for x23 in objs:
                a = ix.assoc[x01][x12][x23]
                for al012 in out_of[tobj[(x01, x12)]]:
                    x02 = tgt[al012]
                    rhs_right = tm[(al012, ident[x23])]
                    for al123 in out_of[tobj[(x12, x23)]]:
                        x13 = tgt[al123]
                        lhs_right = comp[(tm[(ident[x01], al123)], a)]
                        for al023 in out_of[tobj[(x02, x23)]]:
                            x03 = tgt[al023]
                            rhs = comp[(al023, rhs_right)]
                            # equal composites also have equal targets
                            for al013 in out_of[tobj[(x01, x13)]]:
                                if comp[(al013, lhs_right)] == rhs:
                                    out.append(((x01, x02, x03, x12, x13, x23),
                                                (al012, al013, al023, al123)))
    return out


def _key_structs(g, q, keys):
    """The structural simplices of keys on ids: ("q0",), ("q1", X_01),
    ("q2", X_01, X_12, al_012) and
    ("q3", X_01, X_12, X_23, al_123, al_023, al_013, al_012)."""
    ix = g.int_index
    ob, mo = ix.objects, ix.morphisms
    if q == 0:
        return [("q0",)]
    if q == 1:
        return [("q1", ob[x[0]]) for x, _ in keys]
    if q == 2:
        return [("q2", ob[x[0]], ob[x[2]], mo[al[0]]) for x, al in keys]
    return [("q3", ob[x[0]], ob[x[3]], ob[x[5]],
             mo[al[3]], mo[al[2]], mo[al[1]], mo[al[0]]) for x, al in keys]


def _key_index(keys):
    """The simplex int of each key, keyed by objects + als in one tuple;
    in simplex order."""
    return {objs + als: s for s, (objs, als) in enumerate(keys)}


def _gather(spec):
    """ext -> tuple(ext[n] for n in spec), by itemgetter where it returns
    a tuple."""
    if len(spec) >= 2:
        return operator.itemgetter(*spec)
    return lambda ext: tuple([ext[n] for n in spec])


def _reindex_table(ix, index_from, index_to, phi, q_from, q_to):
    """Simplex int -> simplex int under the reindexing along the monotone
    phi : [q_to] -> [q_from], between the levels whose _key_index are
    index_from and index_to.

    A target pair (i, j) reads the source pair (phi i, phi j), or the unit
    where phi i = phi j.  A target triple (i, j, k) reads the source
    triple, or the inverse unitor of its (i, k) object: l^-1 where
    phi i = phi j, r^-1 where phi j = phi k.  So each cell is one gather
    over (objects, als, unit, inverse unitors) and one lookup."""
    pairs_from, triples_from = _pairs(q_from), _triples(q_from)
    pslot = {pr: n for n, pr in enumerate(pairs_from)}
    tslot = {t: len(pairs_from) + n for n, t in enumerate(triples_from)}
    unit_slot = len(pairs_from) + len(triples_from)

    def pair(i, j):
        return unit_slot if phi[i] == phi[j] else pslot[(phi[i], phi[j])]

    spec = [pair(i, j) for (i, j) in _pairs(q_to)]
    unitors = []        # (inverse-unitor table, ext slot of its object)
    for (i, j, k) in _triples(q_to):
        if phi[i] == phi[j] or phi[j] == phi[k]:
            spec.append(unit_slot + 1 + len(unitors))
            unitors.append((ix.lunit_inv if phi[i] == phi[j]
                            else ix.runit_inv, pair(i, k)))
        else:
            spec.append(tslot[(phi[i], phi[j], phi[k])])
    gather = _gather(spec)
    unit = (ix.unit,)
    if not unitors:
        return [index_to[gather(key + unit)] for key in index_from]
    table = []
    for key in index_from:
        ext = key + unit
        ext += tuple([inv[ext[n]] for inv, n in unitors])
        table.append(index_to[gather(ext)])
    return table


def _delta(i, q):
    """delta_i : [q-1] -> [q], skip i."""
    return tuple(v if v < i else v + 1 for v in range(q))


def _sigma(j, q):
    """sigma_j : [q+1] -> [q], repeat j."""
    return tuple(v if v <= j else v - 1 for v in range(q + 2))


def monoidal_simplices(m, q):
    """Structural q-simplices of a 2-group, for q <= 3 (_key_structs of
    _simplex_keys)."""
    return _key_structs(m, q, _simplex_keys(m, q))


def _struct_id(st):
    if st[0] == "q0":
        return "*"
    return "%s(%s)" % (st[0], ",".join(map(str, st[1:])))


def nerve_2group(g, to_dim):
    """The reduced nerve of a monoidal groupoid, 3-coskeletal; levels
    above 3 come from the coskeletal extension.  Up to level 3 each face
    and degeneracy is one _reindex_table on g.int_index, and every value
    is the target level's own id object."""
    cap = min(to_dim, 3)
    ix = g.int_index
    keys = [_simplex_keys(g, q) for q in range(cap + 1)]
    structs = [_key_structs(g, q, keys[q]) for q in range(cap + 1)]
    ids = [[_struct_id(st) for st in structs[q]] for q in range(cap + 1)]
    index = [_key_index(k) for k in keys]

    def operator_map(q, phi, q_to):
        to = ids[q_to]
        return dict(zip(ids[q], [to[n] for n in _reindex_table(
            ix, index[q], index[q_to], phi, q, q_to)]))

    def op(name, q, i):
        if name == "face":
            return operator_map(q, _delta(i, q), q - 1)
        return operator_map(q, _sigma(i, q), q + 1)

    out = sp.build_sset(cap, ids, op, coskeletal_at=3, base="*")
    if to_dim > cap:
        out = sp.coskeletal_extend(out, to_dim)
    out._struct = {q: dict(zip(ids[q], structs[q])) for q in range(cap + 1)}
    return out


# -- Duskin reconstruction --------------------------------------------------


class _NerveOps:
    """Horn-filler helpers on a reduced 2-Kan-groupoid."""

    def __init__(self, z):
        self.z = z
        self.star = z.level(0)[0]
        self.unit = z.s(0, 0, self.star)          # unit object = s_0(*)
        self.unit2 = z.s(1, 0, self.unit)         # s_0 s_0 (*)
        self._fill2_cache = {}
        self._fill3_cache = {}

    def fill2(self, k, horn):
        key = (k, horn)
        if key not in self._fill2_cache:
            self._fill2_cache[key] = sp.horn_fillers(self.z, 1, k, horn)
        return self._fill2_cache[key]

    def fill3_unique(self, k, horn):
        key = (k, horn)
        if key not in self._fill3_cache:
            fillers = sp.horn_fillers(self.z, 2, k, horn)
            if len(fillers) != 1:
                raise NotTwoKanGroupoid(
                    "horn at dim 2 has %d fillers" % len(fillers))
            self._fill3_cache[key] = fillers[0]
        return self._fill3_cache[key]

    def pairing(self, x, y):
        """Chosen filler of the inner horn (d2, d0) = (x, y): first in id
        order; its middle face is the reconstructed tensor object."""
        fillers = self.fill2(1, (y, None, x))
        if not fillers:
            raise NotTwoKanGroupoid("no pairing simplex for (%s,%s)" % (x, y))
        return fillers[0]

    def diff(self, u, v):
        """For 2-simplices u, v with d2 u = d2 v and d0 u = d0 v, the
        unique comparison 2-simplex in Hom(d1 v, d1 u)."""
        z = self.z
        b = z.d(2, 0, u)
        a0 = z.s(1, 1, b)
        eta = self.fill3_unique(1, (a0, None, u, v))
        return z.d(3, 1, eta)

    def compose(self, g2, f2):
        """g after f for arrow 2-simplices (d0 = degenerate unit)."""
        eta = self.fill3_unique(2, (self.unit2, g2, None, f2))
        return self.z.d(3, 2, eta)


def two_group_from_nerve(z):
    """Rebuild a 2-group from a reduced 2-Kan-groupoid.

    Objects are the 1-simplices, morphisms X -> Y the 2-simplices with
    faces (unit, Y, X), the tensor is the middle face of a chosen inner
    filler and all coherence cells come from unique dim-2 horn fillers.
    The output is accepted only if it certifies as a 2-group and the
    rebuilt nerve is isomorphic to the input in the stored range.
    """
    if not z.is_reduced():
        raise NotTwoKanGroupoid("input is not reduced")
    rep = sp.classify(z, 2)
    if not rep.n_kan_groupoid:
        raise NotTwoKanGroupoid("input fails the 2-Kan-groupoid test: %r" % rep)
    ops = _NerveOps(z)
    objects = list(z.level(1))
    morphs = [s for s in z.level(2) if z.d(2, 0, s) == ops.unit]
    src = {f: z.d(2, 2, f) for f in morphs}
    tgt = {f: z.d(2, 1, f) for f in morphs}
    ident = {x: z.s(1, 1, x) for x in objects}
    comp = {}
    for g2 in morphs:
        for f2 in morphs:
            if src[g2] == tgt[f2]:
                comp[(g2, f2)] = ops.compose(g2, f2)
    base = ca.FinGroupoid(objects, morphs, src, tgt, ident, comp,
                          name="duskin")
    errs = base.validate()
    if errs:
        raise NotTwoKanGroupoid("reconstructed groupoid invalid: %s" % errs[0])

    pair = {}
    tobj = {}
    for x in objects:
        for y in objects:
            p = ops.pairing(x, y)
            pair[(x, y)] = p
            tobj[(x, y)] = z.d(2, 1, p)

    def left_whisker(x, g2):
        y, y2 = src[g2], tgt[g2]
        eta = ops.fill3_unique(1, (g2, None, pair[(x, y2)], pair[(x, y)]))
        return z.d(3, 1, eta)

    def right_whisker(f2, y):
        x, x2 = src[f2], tgt[f2]
        a0 = z.s(1, 0, y)
        eta = ops.fill3_unique(1, (a0, None, pair[(x, y)], f2))
        w = z.d(3, 1, eta)
        return ops.diff(pair[(x2, y)], w)

    tmor = {}
    for f2 in morphs:
        for g2 in morphs:
            lw = left_whisker(src[f2], g2)
            rw = right_whisker(f2, tgt[g2])
            tmor[(f2, g2)] = ops.compose(rw, lw)

    assoc = {}
    for x in objects:
        for y in objects:
            for zz in objects:
                eta = ops.fill3_unique(
                    1, (pair[(y, zz)], None, pair[(x, tobj[(y, zz)])], pair[(x, y)]))
                raw = z.d(3, 1, eta)
                assoc[(x, y, zz)] = ops.diff(raw, pair[(tobj[(x, y)], zz)])
    lunit = {x: ops.diff(pair[(ops.unit, x)], z.s(1, 0, x)) for x in objects}
    runit = {x: ops.diff(pair[(x, ops.unit)], z.s(1, 1, x)) for x in objects}

    mon = ca.MonoidalStructure(base, tobj, tmor, ops.unit, assoc, lunit, runit,
                               name="duskin")
    g = ca.certify_two_group(mon)

    # round trip: the rebuilt nerve must be isomorphic to the input
    rebuilt = nerve_2group(g, min(z.dim, 3))
    comps = {0: {ops.star: "*"}, 1: {x: _struct_id(("q1", x)) for x in objects}}
    lvl2 = {}
    for zeta in z.level(2):
        x, y = z.d(2, 2, zeta), z.d(2, 0, zeta)
        xi = ops.diff(zeta, pair[(x, y)])
        lvl2[zeta] = _struct_id(_q2_struct(g, x, y, xi))
    comps[2] = lvl2
    top = min(z.dim, 3)
    if top >= 3:
        idx = {rebuilt.faces(3, s): s for s in rebuilt.level(3)}
        lvl3 = {}
        for eta in z.level(3):
            want = tuple(lvl2[z.d(3, i, eta)] for i in range(4))
            if want not in idx:
                raise NotTwoKanGroupoid("round trip fails at a 3-simplex")
            lvl3[eta] = idx[want]
        comps[3] = lvl3
    if not _is_simplicial_map(z, rebuilt, comps, top):
        raise NotTwoKanGroupoid("round trip map is not simplicial")
    for k in range(top + 1):
        vals = list(comps[k].values())
        if len(set(vals)) != len(vals) or set(vals) != set(rebuilt.level(k)):
            raise NotTwoKanGroupoid("round trip map is not bijective at level %d" % k)
    return g


def _is_simplicial_map(x, y, comps, top):
    """Whether the levelwise dicts comps[k], k <= top, commute with every
    face and degeneracy of X and Y within levels 0..top."""
    return not any(sp.identity_failures(x.level(k), [
        ((x_ops[k, i], comps[k + step]), (comps[k], y_ops[k, i]), None)
        for x_ops, y_ops, step in ((x.face, y.face, -1),
                                   (x.degen, y.degen, 1))
        if 0 <= k + step <= top for i in range(k + 1)])
        for k in range(top + 1))


# -- groupoid of q-simplices and the Segal nerve ----------------------------


def q_simplex_groupoid(g, q):
    """The groupoid of q-simplices of a 2-group, as a FinCategory table,
    read off the int tables of _SegalLevels."""
    lv = _SegalLevels(g, q)
    if q > lv.qmax:
        raise NerveError("structural simplices stop at dimension 3")
    objects, names = lv.obj_names[q], lv.mor_names[q]
    src, tgt, fam = lv.src[q], lv.tgt[q], lv.fam[q]
    # morphisms in the order they are enumerated: by source, then family
    morphs = [names[m] for m in sorted(range(len(names)),
                                       key=lambda m: (src[m], fam[m]))]
    ident = dict(zip(objects, [names[m] for m in lv.identity_table(q)]))
    before, after = lv.chain_columns(2, q)
    comp = dict(zip(zip(map(names.__getitem__, after),
                        map(names.__getitem__, before)),
                    map(names.__getitem__, lv.composite(q, after, before))))
    inv = {names[m]: names[lv.inverse(q, m)] for m in range(len(names))}
    return ca.FinGroupoid(objects, morphs,
                          {names[m]: objects[s] for m, s in enumerate(src)},
                          {names[m]: objects[t] for m, t in enumerate(tgt)},
                          ident, comp, inv=inv,
                          name="simplex-groupoid-%d" % q)


# -- bisimplicial sets -------------------------------------------------------


class BisimplicialTrunc:
    """Bisimplicial set over a finite downward-closed region of index
    pairs (p, q).

    levels[(p,q)]  list of ids
    hface[(p,q,i)] level (p,q) -> (p-1,q);  vface likewise vertically
    hdegen[(p,q,j)] level (p,q) -> (p+1,q) where the target level exists
    """

    # each operator table and the step from its source level to its target
    OPERATORS = {"hface": (-1, 0), "vface": (0, -1), "hdegen": (1, 0),
                 "vdegen": (0, 1)}
    LABELS = {"hface": "dh", "vface": "dv", "hdegen": "sh", "vdegen": "sv"}

    def __init__(self, region, levels, hface, vface, hdegen, vdegen):
        self._hold(region, {k: list(v) for k, v in levels.items()},
                   *[{k: dict(v) for k, v in table.items()}
                     for table in (hface, vface, hdegen, vdegen)])

    @classmethod
    def _adopt(cls, region, levels, hface, vface, hdegen, vdegen):
        """The BisimplicialTrunc that holds these level lists and operator
        dicts themselves, not copies (see sp.TruncatedSSet._adopt)."""
        out = cls.__new__(cls)
        out._hold(region, levels, hface, vface, hdegen, vdegen)
        return out

    def _hold(self, region, levels, hface, vface, hdegen, vdegen):
        self.region = set(region)
        self.levels = levels
        self.hface, self.vface = hface, vface
        self.hdegen, self.vdegen = hdegen, vdegen
        self._face_tables = {}
        self._face_indexes = {}

    def face_table(self, p, q, direction):
        """dict id -> (d_0 x, .., d_n x) over level (p, q) for the
        horizontal ("h", n = p) or vertical ("v", n = q) faces, built once
        (the object is immutable); empty where n == 0."""
        key = (p, q, direction)
        table = self._face_tables.get(key)
        if table is None:
            n, ops = (p, self.hface) if direction == "h" else (q, self.vface)
            table = self._face_tables[key] = sp.tabulate_faces(
                self.levels[(p, q)], [ops[p, q, i] for i in range(n + 1) if n])
        return table

    def face_index(self, p, q, has_h, has_v):
        """dict face key -> the cells of level (p, q) with that key, each
        list sorted.  The key is the flat tuple of the horizontal faces
        followed by the vertical ones; a direction whose has_ flag is
        False contributes no faces, so the flags fix both lengths and the
        key is unambiguous.  Built once per (p, q, has_h, has_v) (the
        object is immutable)."""
        key = (p, q, has_h, has_v)
        index = self._face_indexes.get(key)
        if index is None:
            hf = self.face_table(p, q, "h") if has_h else None
            vf = self.face_table(p, q, "v") if has_v else None
            index = {}
            for s in self.levels[(p, q)]:
                faces = (hf[s] if has_h else ()) + (vf[s] if has_v else ())
                index.setdefault(faces, []).append(s)
            for cells in index.values():
                cells.sort()
            self._face_indexes[key] = index
        return index

    @property
    def P(self):
        return max(p for p, _ in self.region)

    @property
    def Q(self):
        return max(q for _, q in self.region)

    def level(self, p, q):
        return self.levels[(p, q)]

    def dh(self, p, q, i, x):
        return self.hface[(p, q, i)][x]

    def dv(self, p, q, i, x):
        return self.vface[(p, q, i)][x]

    def sh(self, p, q, j, x):
        return self.hdegen[(p, q, j)][x]

    def sv(self, p, q, j, x):
        return self.vdegen[(p, q, j)][x]

    def row(self, p):
        """The vertical simplicial set X_{p,*} within the region."""
        return self._line(lambda k: (p, k), 1, "v")

    def column(self, q):
        """The horizontal simplicial set X_{*,q} within the region."""
        return self._line(lambda k: (k, q), 0, "h")

    def _line(self, at, axis, direction):
        """The simplicial set of the levels at(0), at(1), .. of the
        region (at(k)[axis] == k) with the operators of `direction`; it
        shares this object's level lists and operator dicts."""
        dim = max(pq[axis] for pq in self.region if at(pq[axis]) == pq)
        levels = [self.levels[at(k)] for k in range(dim + 1)]
        return sp.build_sset(
            dim, levels,
            lambda name, k, i: getattr(self, direction + name)[at(k) + (i,)],
            base=levels[0][0] if len(levels[0]) == 1 else None)

    def is_pre_monoid(self):
        return all(len(self.levels[(p, 0)]) == 1
                   for (p, q) in self.region if q == 0)

    @classmethod
    def _span(cls, name, p, q):
        """The indices of the `name` operators out of level (p, q)."""
        return range((q if cls.OPERATORS[name][0] == 0 else p) + 1)

    def _commute(self, pairs):
        """Where a b = b a fails, for each pair (a, b) of operator tables
        of the two directions, at each level where both sides exist."""
        errs = []
        for p, q in sorted(self.region):
            for a, b in pairs:
                (ap, aq), (bp, bq) = self.OPERATORS[a], self.OPERATORS[b]
                if {(p + ap, q + aq), (p + bp, q + bq),
                        (p + ap + bp, q + aq + bq)} <= self.region:
                    opa, opb = getattr(self, a), getattr(self, b)
                    errs += ["%s %s do not commute at %s" % (
                        self.LABELS[a], self.LABELS[b], x)
                        for x, _ in sp.identity_failures(
                            self.levels[(p, q)],
                            [((opa[p, q, i], opb[p + ap, q + aq, j]),
                              (opb[p, q, j], opa[p + bp, q + bq, i]), None)
                             for i in self._span(a, p, q)
                             for j in self._span(b, p, q)])]
        return errs

    def validate(self):
        """Violations, as a list: totality of each level and operator
        dict first; then the mixed face identities, each row and column
        as a simplicial set (at most three violations each, and the only
        check of the h and v dd identities), the mixed degeneracies."""
        errs = []
        index = {pq: set(cells) for pq, cells in self.levels.items()}
        for pq in sorted(self.region):
            cells = self.levels.get(pq)
            if cells is None:
                errs.append("missing level (%d,%d)" % pq)
                continue
            for name, p, q, i in bi_operator_keys(self.region, [pq]):
                dp, dq = self.OPERATORS[name]
                target = (p + dp, q + dq)
                # a missing target level is reported on its own
                if target in index:
                    errs += sp.totality_failures(
                        name, "(%d,%d,%d)" % (p, q, i),
                        getattr(self, name).get((p, q, i)), cells,
                        index[target], "(%d,%d)" % target)
        if errs:
            return errs
        errs = self._commute([("hface", "vface")])
        for p in sorted({p for p, _ in self.region}):
            errs += ["row %d: %s" % (p, e)
                     for e in self.row(p).validate().violations[:3]]
        for q in sorted({q for _, q in self.region}):
            errs += ["column %d: %s" % (q, e)
                     for e in self.column(q).validate().violations[:3]]
        errs += self._commute([("hdegen", "vdegen")])
        return errs + self._commute([("hface", "vdegen"), ("vface", "hdegen")])


def bi_operator_keys(region, at=None):
    """(table, p, q, i) for every operator out of the levels `at` (all
    of region, in its order, by default) whose target level lies in
    region: level by level, the tables in OPERATORS order, 0 <= i <= the
    coordinate the table moves."""
    return [(name, p, q, i) for p, q in (region if at is None else at)
            for name, (dp, dq) in BisimplicialTrunc.OPERATORS.items()
            if (p + dp, q + dq) in region
            for i in BisimplicialTrunc._span(name, p, q)]


def build_bisimplicial(region, levels, op):
    """The BisimplicialTrunc over region whose table `table` holds
    op(table, p, q, i) at (p, q, i) for each key of
    bi_operator_keys(region).  It holds the lists of `levels` and the
    dicts op returns as they are, not copies."""
    tables = {name: {} for name in BisimplicialTrunc.OPERATORS}
    for name, p, q, i in bi_operator_keys(region):
        tables[name][p, q, i] = op(name, p, q, i)
    return BisimplicialTrunc._adopt(region, dict(levels), *tables.values())


def rectangle(pmax, qmax):
    return {(p, q) for p in range(pmax + 1) for q in range(qmax + 1)}


def mu3_region(extra=0):
    return {(p, q) for p in range(4) for q in range(4) if p + q <= 3 + extra}


def box(a_sset, b_sset, region=None):
    """Box product: level (p,q) = A_p x B_q with horizontal (resp.
    vertical) operators from A (resp. B)."""
    if region is None:
        region = rectangle(a_sset.dim, b_sset.dim)

    def bid(x, y):
        return "(%s#%s)" % (x, y)

    cols = {(p, q): sp.pair_columns(a_sset.level(p), b_sset.level(q))
            for p, q in region}
    levels = {pq: list(map(bid, xs, ys)) for pq, (xs, ys) in cols.items()}

    def op(name, p, q, i):
        xs, ys = cols[p, q]
        if name[0] == "h":
            xs = sp.column(xs, (getattr(a_sset, name[1:])[p, i],))
        else:
            ys = sp.column(ys, (getattr(b_sset, name[1:])[q, i],))
        return dict(zip(levels[p, q], map(bid, xs, ys)))

    return build_bisimplicial(region, levels, op)


def diag(bx):
    """Diagonal simplicial set: level n = X_{n,n}, d_i = dh_i dv_i."""
    n_max = 0
    while (n_max + 1, n_max + 1) in bx.region:
        n_max += 1
    levels = [bx.level(n, n) for n in range(n_max + 1)]
    return sp.build_sset(n_max, levels, lambda name, n, i: sp.relabel(
        levels[n], getattr(bx, "h" + name)[n, n, i],
        dst=getattr(bx, "v" + name)[n + sp.STEPS[name], n, i]))


def restrict_region(bx, region):
    """bx over the levels of region that it stores, sharing their level
    lists and operator dicts."""
    region = {k for k in region if k in bx.region}
    return build_bisimplicial(region, {k: bx.levels[k] for k in region},
                              lambda name, p, q, i: getattr(bx, name)[p, q, i])


def p2_star(k_sset, pmax):
    """The pre-monoid with constant rows induced by a reduced complex:
    level (p,q) = K_q."""
    region = rectangle(pmax, k_sset.dim)
    levels = {(p, q): list(k_sset.level(q)) for p, q in region}

    def op(name, p, q, i):
        cells = levels[p, q]
        if name[0] == "h":
            return dict(zip(cells, cells))
        return sp.relabel(cells, getattr(k_sset, name[1:])[q, i])

    return build_bisimplicial(region, levels, op)


# -- the Segal nerve ---------------------------------------------------------


class _SegalLevels:
    """The groupoids of q-simplices of a 2-group (q <= 3) on dense ints.

    Objects of q are numbered in monoidal_simplices order.  A morphism of
    q is its source object and its family, one base-groupoid morphism int
    per pair i < j (pairs in sorted order).  Morphisms are numbered in the
    string order of their ids, so the p-chains of morphism ints in
    lexicographic order are level (p, q) of the Segal nerve in level
    order.  A level of p >= 1 is held as p columns of morphism ints, first
    arrow first (chain_columns).  A chain's place in its level is a sum of
    one weight per slot (chain_places), read from the counts of chains
    that start at each object (chain_counts): its first arrow m weighs
    the number of chains whose first arrow is below m, and each later
    arrow the number of chains that agree with it up to that slot and
    take an arrow below it there, out of the same object.  String ids are
    made once per object and morphism; composition (composite, a column
    at a time) and the operator tables map ints to ints, each table built
    once per (operator, q).  The base groupoid's ints are the 2-group's
    shared g.int_index (catalg.IntIndex).
    """

    def __init__(self, g, qmax):
        self.g = g
        # monoidal_simplices stops at dimension 3
        self.qmax = qmax = min(qmax, 3)
        self._ix = g.int_index
        self.base_mor = self._ix.morphisms
        # per q: objects (structs, obj_names, _simplex_keys, _key_index)
        # and morphisms (src, tgt, fam, mor_names, (src, *fam) -> int)
        self.structs, self.obj_names = {}, {}
        self._keys, self._key_index = {}, {}
        self.src, self.tgt, self.fam, self.mor_names = {}, {}, {}, {}
        self._mor_of = {}
        for q in range(qmax + 1):
            self._build(q)
        self._chain_counts, self._chain_weights = {}, {}
        self._identity = {}
        self._vmap_obj = {}
        self._vmap_mor = {}

    def _build(self, q):
        """Objects and morphisms of q.  A morphism is a family f_ij, one
        arrow out of each object X_ij of its source; its target has the
        objects tgt f_ij and the pairing morphisms be = f_ik . al .
        (f_ij (x) f_jk)^-1, the ones that make the squares f_ik . al =
        be . (f_ij (x) f_jk) commute.  Each be exists and runs between
        the target's objects, so every family is a morphism."""
        g, ix = self.g, self._ix
        keys = self._keys[q] = _simplex_keys(g, q)
        structs = self.structs[q] = _key_structs(g, q, keys)
        obj_names = self.obj_names[q] = [_struct_id(st) for st in structs]
        slot = {pr: n for n, pr in enumerate(_pairs(q))}
        squares = [(slot[(i, j)], slot[(j, k)], slot[(i, k)])
                   for (i, j, k) in _triples(q)]
        obj_of_key = self._key_index[q] = _key_index(keys)
        mtgt, comp, inv, tm = ix.tgt, ix.comp, ix.inv, ix.tm
        out_of = [[] for _ in ix.objects]
        for f, x in enumerate(ix.src):
            out_of[x].append(f)
        src, tgt, fams = [], [], []
        for s, (objs, als) in enumerate(keys):
            for fam in itertools.product(*[out_of[x] for x in objs]):
                src.append(s)
                tgt.append(obj_of_key[tuple([mtgt[f] for f in fam]) + tuple(
                    [comp[(comp[(fam[ik], al)], inv[tm[(fam[ij], fam[jk])]])]
                     for (ij, jk, ik), al in zip(squares, als)])])
                fams.append(fam)
        base_names = ["%s" % (f,) for f in self.base_mor]
        names = ["f(%s|%s)" % (obj_names[s],
                               ",".join([base_names[f] for f in fam]))
                 for s, fam in zip(src, fams)]
        order = sorted(range(len(names)), key=names.__getitem__)
        self.src[q] = [src[m] for m in order]
        self.tgt[q] = [tgt[m] for m in order]
        self.fam[q] = [fams[m] for m in order]
        self.mor_names[q] = [names[m] for m in order]
        self._mor_of[q] = {(s,) + fam: m for m, (s, fam) in
                           enumerate(zip(self.src[q], self.fam[q]))}

    def chain_counts(self, q, r):
        """starts[x], the number of r-chains of q that start at object x;
        built once per (q, r)."""
        table = self._chain_counts.setdefault(q, [[1] * len(self.structs[q])])
        while len(table) <= r:
            prev, starts = table[-1], [0] * len(self.structs[q])
            for s, t in zip(self.src[q], self.tgt[q]):
                starts[s] += prev[t]
            table.append(starts)
        return table[r]

    def chain_weights(self, q, r):
        """(first, later), the place weights of the arrows of q followed
        by r more: first[m] is the number of (r + 1)-chains whose first
        arrow is below m; later[m] the same over the arrows out of m's
        source only (m's offset in its source's out-list).  Both come
        from chain_counts(q, r); built once per (q, r)."""
        key = (q, r)
        weights = self._chain_weights.get(key)
        if weights is None:
            starts = self.chain_counts(q, r)
            sizes = list(map(starts.__getitem__, self.tgt[q]))
            first = list(itertools.accumulate(sizes, initial=0))
            first.pop()
            later, local = [], [0] * len(starts)
            for s, n in zip(self.src[q], sizes):
                later.append(local[s])
                local[s] += n
            weights = self._chain_weights[key] = (first, later)
        return weights

    def level_size(self, p, q):
        """|p-chains| via counting, no materialization."""
        return sum(self.chain_counts(q, p))

    def chain_columns(self, p, q):
        """The p-chains (p >= 1) of the q-simplex groupoid in level order,
        as a tuple of p columns of morphism ints, first arrow first.  Each
        step lists, after each chain in order, the arrows out of its
        end."""
        tgt = self.tgt[q]
        out_of = [[] for _ in self.structs[q]]
        for m, s in enumerate(self.src[q]):
            out_of[s].append(m)
        cols = [list(range(len(tgt)))]
        for _ in range(p - 1):
            nexts = list(map(out_of.__getitem__, map(tgt.__getitem__,
                                                     cols[-1])))
            counts = list(map(len, nexts))
            cols = [list(itertools.chain.from_iterable(
                map(itertools.repeat, col, counts))) for col in cols]
            cols.append(list(itertools.chain.from_iterable(nexts)))
        return tuple(cols)

    def chain_places(self, q, cols):
        """The place in its level of each chain of q whose arrows are read
        from cols (p iterables of morphism ints, first arrow first): the
        first weight of its first arrow plus the later weights of the
        others.  A 1-chain's place is its arrow."""
        p = len(cols)
        if p == 1:
            return list(cols[0])
        places = list(map(self.chain_weights(q, p - 1)[0].__getitem__,
                          cols[0]))
        for k in range(1, p):
            later = self.chain_weights(q, p - 1 - k)[1]
            places = list(map(operator.add, places,
                              map(later.__getitem__, cols[k])))
        return places

    def composite(self, q, after, before):
        """The column of after[n] . before[n], componentwise: one
        comp_rows gather per slot and one _mor_of lookup per cell."""
        rows = self._ix.comp_rows
        # each slot of the families, as a column over the morphisms
        comps = [map(operator.getitem, map(rows.__getitem__,
                                           map(fs.__getitem__, after)),
                     map(fs.__getitem__, before))
                 for fs in zip(*self.fam[q])]
        return list(map(self._mor_of[q].__getitem__,
                        zip(map(self.src[q].__getitem__, before), *comps)))

    def units_at(self, q, ends, col):
        """The identity of object ends[m] for each arrow m of the column
        col, as an iterator (ends is src[q] or tgt[q])."""
        return map(self.identity_table(q).__getitem__,
                   map(ends.__getitem__, col))

    def inverse(self, q, m):
        inv = self._ix.inv
        return self._mor_of[q][(self.tgt[q][m],) +
                               tuple([inv[f] for f in self.fam[q][m]])]

    def identity_table(self, q):
        """object int -> int of its identity morphism, in level q."""
        table = self._identity.get(q)
        if table is None:
            ident, mor_of = self._ix.ident, self._mor_of[q]
            table = [mor_of[(s,) + tuple([ident[x] for x in objs])]
                     for s, (objs, _) in enumerate(self._keys[q])]
            self._identity[q] = table
        return table

    def vmap_obj_table(self, phi, q_from, q_to):
        """object int -> object int under the reindexing along phi."""
        key = (phi, q_from, q_to)
        table = self._vmap_obj.get(key)
        if table is None:
            table = _reindex_table(self._ix, self._key_index[q_from],
                                   self._key_index[q_to], phi, q_from, q_to)
            self._vmap_obj[key] = table
        return table

    def vmap_mor_table(self, phi, q_from, q_to):
        """morphism int -> morphism int under the reindexing along phi:
        components on collapsed pairs become the unit's identity."""
        key = (phi, q_from, q_to)
        table = self._vmap_mor.get(key)
        if table is None:
            objs = self.vmap_obj_table(phi, q_from, q_to)
            # the source slot of each target pair; a collapsed pair reads
            # the unit's identity from an extra last slot
            slot = {pr: n for n, pr in enumerate(_pairs(q_from))}
            spec = [len(slot) if phi[i] == phi[j] else slot[(phi[i], phi[j])]
                    for (i, j) in _pairs(q_to)]
            gather = _gather(spec)
            unit = (self._ix.unit_ident,)
            mor_of = self._mor_of[q_to]
            table = [mor_of[(objs[s],) + gather(fam + unit)]
                     for s, fam in zip(self.src[q_from], self.fam[q_from])]
            self._vmap_mor[key] = table
        return table


def segal_nerve(g, pmax, qmax, level_budget=50000):
    """Materialize the Segal nerve over the largest downward-closed
    region inside the (pmax, min(qmax, 3)) rectangle whose levels fit
    the budget.  The levels and operators are computed on the int tables
    of _SegalLevels, a level of p >= 1 as p columns of morphism ints;
    string ids are made once per cell, and every face and degeneracy
    value is the target level's own id object."""
    lv = _SegalLevels(g, qmax)
    region = set()
    for q in range(lv.qmax + 1):
        for p in range(pmax + 1):
            if lv.level_size(p, q) > level_budget:
                break
            down_ok = (p == 0 or (p - 1, q) in region) and \
                      (q == 0 or (p, q - 1) in region)
            if not down_ok:
                break
            region.add((p, q))
    # the cells of each level in level order: the object ints at p = 0,
    # whose place is the int, and p columns of morphism ints at p >= 1,
    # whose places lv.chain_places reads
    cols, levels = {}, {}
    for (p, q) in region:
        if p == 0:
            levels[(p, q)] = lv.obj_names[q]
        else:
            cols[(p, q)] = cs = lv.chain_columns(p, q)
            names = lv.mor_names[q]
            levels[(p, q)] = names if p == 1 else list(map(_chain_id, zip(
                *[map(names.__getitem__, col) for col in cs])))
        if len(set(levels[(p, q)])) != len(levels[(p, q)]):
            raise NerveError("ids of level (%d,%d) of the Segal nerve clash: "
                             "the 2-group's ids run together" % (p, q))

    def vmap(p, q, phi, q_to):
        if p == 0:
            return lv.vmap_obj_table(phi, q, q_to)
        mors = lv.vmap_mor_table(phi, q, q_to)
        return lv.chain_places(q_to, [map(mors.__getitem__, col)
                                      for col in cols[(p, q)]])

    def op(name, p, q, i):
        cs, (dp, dq) = cols.get((p, q)), BisimplicialTrunc.OPERATORS[name]
        if name == "vface":
            targets = vmap(p, q, _delta(i, q), q - 1)
        elif name == "vdegen":
            targets = vmap(p, q, _sigma(i, q), q + 1)
        elif name == "hface" and p == 1:
            targets = lv.tgt[q] if i == 0 else lv.src[q]
        elif name == "hface":
            targets = lv.chain_places(q, _chain_face(
                cs, p, i, functools.partial(lv.composite, q)))
        elif p == 0:
            targets = lv.identity_table(q)
        else:
            targets = lv.chain_places(q, _chain_degen(
                cs, i, functools.partial(lv.units_at, q, lv.src[q]),
                functools.partial(lv.units_at, q, lv.tgt[q])))
        to = levels[(p + dp, q + dq)]
        return dict(zip(levels[(p, q)], map(to.__getitem__, targets)))

    out = build_bisimplicial(region, levels, op)
    out._segal_levels = lv
    return out


# -- bisimplicial maps --------------------------------------------------------


def enumerate_bimaps(x_bx, y_bx, region=None, budget=None):
    """All bisimplicial maps over the region (default: region of X,
    intersected with that of Y), by sp.map_search over the levels in
    (p + q, p) order.

    Precondition: X and Y satisfy the simplicial identities.  A
    degenerate cell is forced from its first presentation (horizontal
    before vertical, least index first); the others are chosen from Y's
    face_index, keyed by the images of their faces that stay inside the
    region, with map_search's forward checking.  On a region that is not
    downward closed, the operators that leave it constrain nothing, and
    the first presentation alone decides a degenerate cell's image.
    Y's index is built only for levels where X has a free cell, so a
    level of Y whose source cells are all forced is read only at the
    forced images."""
    region = set(region) if region is not None else set(x_bx.region)
    region &= set(y_bx.region)
    order = sorted(region, key=lambda pq: (pq[0] + pq[1], pq[0]))
    tick = sp.budget_ticker(budget, "bisimplicial enumeration exceeded cap")
    levels = []
    index = {}
    for (p, q) in order:
        # per direction whose faces stay inside the region: the level
        # below, the number of degeneracies from it, the operator dicts
        has_h = p >= 1 and (p - 1, q) in region
        has_v = q >= 1 and (p, q - 1) in region
        dirs = []
        if has_h:
            dirs.append(((p - 1, q), p, "h", x_bx.hdegen, y_bx.hdegen))
        if has_v:
            dirs.append(((p, q - 1), q, "v", x_bx.vdegen, y_bx.vdegen))
        forced = {}
        for src, n, _, x_deg, y_deg in dirs:
            for j in range(n):
                y_map = y_deg[src + (j,)]
                for a, sa in x_deg[src + (j,)].items():
                    forced.setdefault(sa, (sa, src, a, y_map))
        tables = [(src, x_bx.face_table(p, q, hv)) for src, _, hv, _, _ in dirs]
        cells = x_bx.level(p, q)
        free = [(s, tuple([(src, f) for src, table in tables
                           for f in table[s]]))
                for s in cells if s not in forced]
        levels.append(((p, q), [forced[s] for s in cells if s in forced], free))
        if free:
            index[(p, q)] = y_bx.face_index(p, q, has_h, has_v)
    return sp.map_search(levels, index, tick)


def mu3_determined(x_bx, y_bx, budget=None):
    """Restriction of maps X -> Y to the (p+q <= 3)-region is bijective
    over the common region."""
    full = enumerate_bimaps(x_bx, y_bx, budget=budget)
    mu = mu3_region() & set(x_bx.region) & set(y_bx.region)
    small = enumerate_bimaps(x_bx, y_bx, region=mu, budget=budget)
    def restrict(m):
        return tuple(sorted((k, tuple(sorted(v.items())))
                            for k, v in m.items() if k in mu))
    imgs = {restrict(m) for m in full}
    alls = {restrict(m) for m in small}
    return len(full) == len(imgs) and imgs == alls


# -- fibrancy of a pre-monoid -------------------------------------------------


class FibrancyReport:
    def __init__(self):
        self.items = []     # (label, ok, detail)

    def add(self, label, ok, detail=""):
        self.items.append((label, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    def __repr__(self):
        return "FibrancyReport(%s)" % ", ".join(
            "%s=%s" % (l, o) for l, o, _ in self.items)


def segal_fibrancy_check(x_bx, n=2, budget=None):
    """Evaluate the four fibrancy conditions for pre-monoids within the
    stored region:

    (i)   every simplex-map-induced row map is a weak equivalence
          (pi_1 always, pi_2 where rows reach vertical depth 3); the map
          is applied only to the pi_m representatives of the source row,
    (ii)  every row is an n-Kan-groupoid (within range),
    (iii) boundary(p) x horn(q) extension at p = q = 2,
    (iv)  relative box-horn surjectivity at p in {1,2}, q = 2.

    The searches of (iii) and (iv) share one budget (`budget`, else
    sp.enumeration_budget()), ticked once per candidate tried; past it
    SearchBudgetExceeded names the search.
    """
    rep = FibrancyReport()
    if not x_bx.is_pre_monoid():
        rep.add("pre-monoid", False, "row 0 is not a point")
        return rep
    pmax = max(p for p, q in x_bx.region if q == 0)
    rows = {}
    for p in range(pmax + 1):
        rows[p] = x_bx.row(p)

    # (ii) rows are n-Kan-groupoids within their stored depth
    for p, r in rows.items():
        cls = sp.classify(r, n)
        rep.add("row-%d-kan-groupoid" % p, cls.n_kan_groupoid,
                "dims %s" % cls.checked_dims)

    # (i) structural maps: all monotone phi : [l] -> [k], k,l <= pmax
    pis = {}
    for p, r in rows.items():
        entry = {}
        for m in (1, 2):
            try:
                entry[m] = sp.pi_with_classes(r, m)
            except sp.SimplicialError as exc:
                entry[m] = None
                rep.add("row-%d-pi%d-available" % (p, m), True,
                        "skipped: %s" % exc)
        pis[p] = entry

    for k in range(pmax + 1):
        for l in range(pmax + 1):
            for phi in sp._monotone_maps(l, k):
                steps = _h_operator_steps(phi, k)
                for m in (1, 2):
                    if pis[k][m] is None or pis[l][m] is None:
                        continue
                    image = _h_operator_image(x_bx, steps, m,
                                              pis[k][m][0].elements)
                    ok = _pi_iso_under_map(pis[k][m], pis[l][m], image)
                    rep.add("weq-phi%s-pi%d" % (phi, m), ok)

    # (iii) and (iv) via the explicit prism-tuple descriptions of the
    # corner Hom sets
    tick = sp.budget_ticker(budget,
                            "fibrancy {} search exceeded {cap} evaluations")
    for k in range(3):
        rep.add("(iii)-k%d" % k, _boundary_horn_extension(x_bx, 2, 2, k, tick))
    for p in (1, 2):
        tables = _relative_horn_tables(x_bx, p, 2)
        for k in range(3):
            rep.add("(iv)-p%d-k%d" % (p, k),
                    _relative_horn_extension(x_bx, p, 2, k, tables, tick))
    return rep


def _h_boundary_tuples(x_bx, p, q):
    """Maps boundary(Delta^p) (box) Delta^q -> X: (p+1)-tuples in
    X_{p-1,q} with the horizontal compatibility relations."""
    return sp.compatible_tuples(x_bx.level(p - 1, q),
                                x_bx.face_table(p - 1, q, "h"), p - 1)


def _boundary_horn_extension(x_bx, p, q, k, tick):
    """Surjectivity of Hom(bd Delta^p (x) Delta^q, X) ->
    Hom(bd Delta^p (x) Lambda^{q,k}, X); tick(search) is called once per
    candidate tried."""
    if (p - 1, q) not in x_bx.region or (p - 1, q - 1) not in x_bx.region:
        return True     # outside the stored region
    # index level (p-1, q) by vertical horn key (None in slot k)
    vq = x_bx.face_table(p - 1, q, "v")
    idx = {}
    for x in x_bx.level(p - 1, q):
        fx = vq[x]
        idx.setdefault(fx[:k] + (None,) + fx[k + 1:], []).append(x)
    # targets: (p+1)-tuples of vertical horn tuples at (p-1, q-1) with
    # horizontal compatibility, read componentwise
    horns = sp.compatible_tuples(x_bx.level(p - 1, q - 1),
                                 x_bx.face_table(p - 1, q - 1, "v"), q - 1,
                                 skip=k)
    row_faces = {}
    if p - 1 >= 1:
        hf = x_bx.face_table(p - 1, q - 1, "h")
        row_faces = {row: tuple(tuple(None if a is None else hf[a][i]
                                      for a in row) for i in range(p))
                     for row in horns}
    targets = sp.compatible_tuples(horns, row_faces, p - 1)

    hq = x_bx.face_table(p - 1, q, "h")
    for tgt in targets:
        # lift each row to level (p-1, q) with matching horn and keep the
        # horizontal boundary relations
        found = [False]
        def lift(i, partial):
            if i == p + 1:
                found[0] = True
                return
            for cand in idx.get(tgt[i], []):
                tick("boundary-horn lift")
                if p - 1 >= 1 and any(hq[cand][a] != hq[partial[a]][i - 1]
                                      for a in range(i)):
                    continue
                partial.append(cand)
                lift(i + 1, partial)
                partial.pop()
                if found[0]:
                    return
        lift(0, [])
        if not found[0]:
            return False
    return True


def _relative_horn_tables(x_bx, p, q):
    """What _relative_horn_extension needs for every horn index k: the
    maps a = (a_0..a_p) from bd Delta^p (x) Delta^q to X, each with, per
    vertical slot j, the cells b of X_{p,q-1} with dh_i b = dv_j a_i for
    all i; and per k the set of (horizontal faces, vertical faces without
    slot k) of the cells of X_{p,q}.  None outside the stored region."""
    if any(t not in x_bx.region for t in [(p, q), (p - 1, q), (p, q - 1)]):
        return None
    bidx = {}
    for b, hkey in x_bx.face_table(p, q - 1, "h").items():
        bidx.setdefault(hkey, []).append(b)
    va = x_bx.face_table(p - 1, q, "v")
    a_cands = [(a, [bidx.get(tuple(va[ai][j] for ai in a), [])
                    for j in range(q + 1)])
               for a in _h_boundary_tuples(x_bx, p, q)]
    hf = x_bx.face_table(p, q, "h")
    vf = x_bx.face_table(p, q, "v")
    horn_keys = [{(hf[x], vf[x][:k] + vf[x][k + 1:]) for x in x_bx.level(p, q)}
                 for k in range(q + 1)]
    return a_cands, horn_keys


def _relative_horn_extension(x_bx, p, q, k, tables, tick):
    """Surjectivity of Hom(Delta^p (x) Delta^q, X) onto the fibre product
    of Hom(bd Delta^p (x) Delta^q, X) and Hom(Delta^p (x) Lambda^{q,k}, X);
    `tables` is _relative_horn_tables(x_bx, p, q), and tick(search) is
    called once per candidate tried."""
    if tables is None:
        return True     # outside the stored region
    a_cands, horn_keys = tables
    filled = horn_keys[k]
    slots = [j for j in range(q + 1) if j != k]
    for a_tuple, cands in a_cands:
        # candidate vertical data: b_j in X_{p,q-1} with
        # dh_i b_j = dv_j a_i for all i, plus the vertical horn relations
        cand_lists = [cands[j] for j in slots]
        def rec(m, partial):
            if m == q:
                return (a_tuple, tuple(partial)) in filled
            j = slots[m]
            for cand in cand_lists[m]:
                tick("relative box-horn")
                ok = True
                if q - 1 >= 1:
                    for mi in range(m):
                        i = slots[mi]
                        if x_bx.dv(p, q - 1, i, cand) != \
                           x_bx.dv(p, q - 1, j - 1, partial[mi]):
                            ok = False
                            break
                if ok:
                    partial.append(cand)
                    good = rec(m + 1, partial)
                    partial.pop()
                    if not good:
                        return False
            return True
        if not rec(0, []):
            return False
    return True


def _h_operator_steps(phi, p_from):
    """The horizontal operator induced by a monotone map
    phi : [l] -> [p_from], as the ("d" or "s", p, index) steps of its
    epi-mono factorization in the order they apply."""
    image = sorted(set(phi))
    steps = []
    p = p_from
    # faces first: remove indices not in the image, from the top down
    for v in range(p_from, -1, -1):
        if v not in image:
            steps.append(("d", p, v))
            p -= 1
    # the cell now lives in dimension len(image)-1; insert degeneracies
    # wherever phi repeats
    for i in range(len(phi) - 2, -1, -1):
        if phi[i] == phi[i + 1]:
            steps.append(("s", p, image.index(phi[i])))
            p += 1
    return steps


def _h_operator_image(x_bx, steps, q, cells):
    """dict cell -> its image under the horizontal operator `steps`
    (from _h_operator_steps), for the given cells of one level at
    vertical level q."""
    ops = [(x_bx.hface if kind == "d" else x_bx.hdegen)[(p, q, i)]
           for kind, p, i in steps]
    image = {}
    for s in cells:
        t = s
        for op in ops:
            t = op[t]
        image[s] = t
    return image


def _pi_iso_under_map(pik, pil, image):
    """Given precomputed (group, sphere->class) data on source and target
    rows and the images of the source representatives under a row map,
    decide whether the induced map on pi_m is a group isomorphism."""
    gk, _ = pik
    gl, cls_l = pil
    mapping = {s: cls_l[image[s]] for s in gk.elements}
    if len(set(mapping.values())) != len(gl.elements) or \
            set(mapping.values()) != set(gl.elements):
        return False
    return all(mapping[gk.mul(a, b)] == gl.mul(mapping[a], mapping[b])
               for a in gk.elements for b in gk.elements)


# -- the loop-space comparison ------------------------------------------------


def loop_gamma(g, to_dim=3):
    """The natural comparison: loops in the 2-group nerve against the
    nerve of the underlying groupoid.  Returns (map, omega, ngrpd) and
    raises if the comparison fails to be a levelwise bijection."""
    ng = nerve_2group(g, to_dim + 1)
    om = sp.loop_space(ng, variant="plain", base="*")
    nsg = nerve_category(g.base, om.dim)
    struct = ng._struct
    c = g.base
    comps = {0: {}, 1: {}}
    for x in om.level(0):
        comps[0][x] = struct[1][x][1]
    for xi_id in om.level(1):
        st = struct[2][xi_id]
        _, x01, x12, xi = st
        mor = c.comp(g.mor_inverse(g.l(x12)), c.inv(xi))
        comps[1][xi_id] = _chain_id((mor,))
    # extend upward by filling from faces (both sides are weakly
    # 1-coskeletal in range)
    for k in range(2, om.dim + 1):
        idx = {}
        for s in nsg.level(k):
            idx.setdefault(nsg.faces(k, s), []).append(s)
        mp = {}
        for s in om.level(k):
            want = tuple(comps[k - 1][om.d(k, i, s)] for i in range(k + 1))
            cands = idx.get(want, [])
            if len(cands) != 1:
                raise NerveError("comparison does not extend at level %d" % k)
            mp[s] = cands[0]
        comps[k] = mp
    if not _is_simplicial_map(om, nsg, comps, om.dim):
        raise NerveError("comparison map is not simplicial")
    for k in range(om.dim + 1):
        vals = list(comps[k].values())
        if len(set(vals)) != len(vals) or set(vals) != set(nsg.level(k)):
            raise NerveError("comparison map is not bijective at level %d" % k)
    return comps, om, nsg
