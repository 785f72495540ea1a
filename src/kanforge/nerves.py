"""Nerve constructions and bisimplicial plumbing.

The monoidal/2-group nerve follows the coherence-simplex description: a
q-simplex is a family of objects X_ij (i<j) plus pairing morphisms
al_ijk : X_ij (x) X_jk -> X_ik subject to the associativity square, and
the simplicial operators are reindexing with inverse unitors inserted on
collapsed indices.  The Segal nerve is stored column-major through the
groupoid of q-simplices: N_S(G)_{p,q} = (p-chains in the groupoid of
q-simplices of G).
"""

import collections.abc
import functools
import itertools
import math
import operator

from . import simplicial as sp
from . import catalg as ca
from .groups import bijective


class NerveError(Exception):
    pass


class NotOneKanGroupoid(NerveError):
    pass


class NotTwoKanGroupoid(NerveError):
    pass


# -- nerve of a small category ---------------------------------------------


def _chain_id(parts):
    return "[" + ";".join(parts) + "]"


class _ChainNerve:
    """The nerve of a category on dense ints: src and tgt list the end
    objects of the morphisms 0, 1, .., compose(after, before) is the
    column of after[n] . before[n] and ident lists the identity of each
    object.  Level 0 is the objects, level p >= 1 the p-chains of
    composable morphisms in lexicographic order of their morphism ints,
    first arrow first, held as p columns of morphism ints (columns).  A
    chain's place is a sum of one weight per arrow (places), from the
    counts of the chains that start at each object (counts): its first
    arrow m weighs the number of chains whose first arrow is below m,
    each later arrow the number of chains that agree with it up to that
    slot and take an arrow below it there, out of the same object.  Each
    face and degeneracy is the list of its target places; counts,
    weights and columns are built once per level."""

    def __init__(self, src, tgt, compose, ident):
        self.src, self.tgt, self.compose, self.ident = src, tgt, compose, ident
        # the runs of consecutive morphisms out of one object, in order:
        # (object, start, stop), a run starting where the source changes
        starts = list(itertools.compress(range(len(src)), map(
            operator.ne, src, itertools.chain([None], src))))
        self._runs = list(zip(map(src.__getitem__, starts), starts,
                              starts[1:] + [len(src)]))
        self._counts, self._weights = [[1] * len(ident)], {}
        self._columns = [(), (range(len(src)),)]

    def counts(self, r):
        """starts[x], the number of r-chains that start at object x: over
        the arrows out of x, the (r - 1)-chains at their targets."""
        while len(self._counts) <= r:
            prev, starts = self._counts[-1].__getitem__, [0] * len(self.ident)
            for s, start, stop in self._runs:
                starts[s] += sum(map(prev, self.tgt[start:stop]))
            self._counts.append(starts)
        return self._counts[r]

    def weights(self, r):
        """(first, later), the place weights of the arrows followed by r
        more: first[m] counts the (r + 1)-chains whose first arrow is
        below m, later[m] only those whose first arrow leaves m's source
        (over each run, first less the chains of its earlier runs)."""
        if r not in self._weights:
            first = list(itertools.accumulate(
                map(self.counts(r).__getitem__, self.tgt), initial=0))
            shifts, local = [], [0] * len(self.ident)
            for s, start, stop in self._runs:
                shifts.append(itertools.repeat(first[start] - local[s],
                                               stop - start))
                local[s] += first[stop] - first[start]
            later = list(map(operator.sub, first,
                             itertools.chain.from_iterable(shifts)))
            self._weights[r] = (first[:-1], later)
        return self._weights[r]

    def size(self, p):
        return sum(self.counts(p))

    def columns(self, p):
        """Level p >= 1 as p columns: each step lists, after each chain in
        order, the arrows out of its end."""
        if len(self._columns) <= p:
            out_of = [[] for _ in self.ident]
            for s, start, stop in self._runs:
                out_of[s] += range(start, stop)
        while len(self._columns) <= p:
            cols = self._columns[-1]
            nexts = list(map(out_of.__getitem__,
                             map(self.tgt.__getitem__, cols[-1])))
            counts = list(map(len, nexts))
            self._columns.append(tuple(
                list(itertools.chain.from_iterable(
                    map(itertools.repeat, col, counts))) for col in cols)
                + (list(itertools.chain.from_iterable(nexts)),))
        return self._columns[p]

    def places(self, cols, via=None):
        """The place of each chain whose arrows are read from cols (p >= 1
        iterables of morphism ints, first arrow first), each arrow taken
        through the list via first where given: one gather per column,
        through its slot's weights, composed with via beforehand."""
        p = len(cols)
        if p == 1:
            return list(cols[0] if via is None else map(via.__getitem__,
                                                        cols[0]))
        tables = [self.weights(p - 1)[0]] + [self.weights(p - 1 - k)[1]
                                             for k in range(1, p)]
        if via is not None:
            tables = [list(map(table.__getitem__, via)) for table in tables]
        places = map(tables[0].__getitem__, cols[0])
        for table, col in zip(tables[1:], cols[1:]):
            places = map(operator.add, places, map(table.__getitem__, col))
        return list(places)

    def namer(self, p, mor_names):
        """place -> the _chain_id of its chain in level p >= 1, the arrows
        under mor_names (strings); only the cells named are spelled."""
        cols = self.columns(p)
        return lambda c: _chain_id([mor_names[col[c]] for col in cols])

    def face(self, p, i):
        """d_i out of level p >= 1: the target (i = 0) or source at p = 1;
        above, the chain less its first (i = 0) or last (i = p) arrow, or
        with arrows i - 1 and i composed."""
        if p == 1:
            return self.tgt if i == 0 else self.src
        c = self.columns(p)
        return self.places(c[1:] if i == 0 else c[:-1] if i == p else
                           c[:i - 1] + (self.compose(c[i], c[i - 1]),)
                           + c[i + 1:])

    def degen(self, p, j):
        """s_j out of level p: the identities at p = 0; above, the chain
        with the identity of its j-th object inserted at place j."""
        if p == 0:
            return self.ident
        c = self.columns(p)
        ends, col = (self.src, c[0]) if j == 0 else (self.tgt, c[j - 1])
        return self.places(c[:j] + (map(self.ident.__getitem__, map(
            ends.__getitem__, col)),) + c[j:])


def _category_chains(cat):
    """The _ChainNerve of cat, objects and morphisms numbered in the
    order of cat.objects and cat.morphisms."""
    oi = {x: n for n, x in enumerate(cat.objects)}
    mi = {f: n for n, f in enumerate(cat.morphisms)}
    comp = {(mi[g], mi[f]): mi[gf] for (g, f), gf in cat.comp_table.items()}
    return _ChainNerve(
        [oi[cat.src[f]] for f in cat.morphisms],
        [oi[cat.tgt[f]] for f in cat.morphisms],
        lambda after, before: list(map(comp.__getitem__, zip(after, before))),
        [mi[cat.ident[x]] for x in cat.objects])


def nerve_category(cat, to_dim):
    """The nerve of cat up to level to_dim, 2-coskeletal, on sp.Places
    (_category_chains): level 0 lists the objects in cat.objects order,
    level 1 one cell per morphism in cat.morphisms order, with d_0 its
    target and d_1 its source, so a consumer finds the cell of an object
    or a morphism by zipping the two.  Ids are made only by a level's
    names, for output: the objects, and above the _chain_id of the
    morphisms' ids (each spelled by str)."""
    errs = cat.validate()
    if errs:
        raise NerveError("category does not validate: %s" % errs[0])
    chains, mor_names = _category_chains(cat), list(map(str, cat.morphisms))
    levels = [sp.Places(len(cat.objects), lambda: cat.objects.__getitem__)]
    levels += [sp.Places(chains.size(m), functools.partial(
        chains.namer, m, mor_names)) for m in range(1, to_dim + 1)]
    return sp.build_sset(to_dim, levels, lambda name, m, i: getattr(
        chains, name)(m, i), coskeletal_at=2,
        base=0 if len(cat.objects) == 1 else None)


def groupoid_from_nerve(w):
    """Rebuild a groupoid from a 1-Kan-groupoid: composition is the
    middle face of the unique inner-horn filler.  The groupoid's objects
    and morphisms are the ids of the cells of levels 0 and 1."""
    if not sp.kan_groupoid(w, 1)[0]:
        raise NotOneKanGroupoid("input fails the 1-Kan-groupoid test: %r"
                                % sp.classify(w, 1))
    # cell -> id on levels 0 and 1, whether the cells are places or ids
    obj, mor = [dict(zip(cells, map(sp.namer(cells), cells)))
                for cells in (w.level(0), w.level(1))]
    objects, morphs = list(obj.values()), list(mor.values())
    src = sp.relabel(w.level(1), w.face[1, 1], mor, obj)
    tgt = sp.relabel(w.level(1), w.face[1, 0], mor, obj)
    ident = sp.relabel(w.level(0), w.degen[0, 0], obj, mor)
    comp = {}
    for g, gf, f in w.face_table(2).values():
        key = (mor[g], mor[f])
        if key in comp and comp[key] != mor[gf]:
            raise NotOneKanGroupoid("non-unique inner-horn fillers")
        comp[key] = mor[gf]
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


@functools.cache
def _pairs(q):
    """The pairs i < j of [q], in sorted order: the slots of a family."""
    return tuple((i, j) for i in range(q + 1) for j in range(i + 1, q + 1))


@functools.cache
def _triples(q):
    """The triples i < j < k of [q], in sorted order."""
    return tuple((i, j, k) for (i, j) in _pairs(q)
                 for k in range(j + 1, q + 1))


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
                for al in out_of[tobj[x01][x12]]]
    if q != 3:
        raise NerveError("structural simplices stop at dimension 3")
    comp, tm, ident = ix.comp_rows, ix.tm, ix.ident
    out = []
    for x01 in objs:
        for x12 in objs:
            for x23 in objs:
                a = ix.assoc[x01][x12][x23]
                for al012 in out_of[tobj[x01][x12]]:
                    x02 = tgt[al012]
                    rhs_right = tm[al012][ident[x23]]
                    for al123 in out_of[tobj[x12][x23]]:
                        x13 = tgt[al123]
                        lhs_right = comp[tm[ident[x01]][al123]][a]
                        for al023 in out_of[tobj[x02][x23]]:
                            x03 = tgt[al023]
                            rhs = comp[al023][rhs_right]
                            # equal composites also have equal targets
                            for al013 in out_of[tobj[x01][x13]]:
                                if comp[al013][lhs_right] == rhs:
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


def _level_names(g, q, keys):
    """place -> the _struct_id of its simplex (of keys) at level q."""
    return list(map(_struct_id, _key_structs(g, q, keys))).__getitem__


def nerve_2group(g, to_dim):
    """The reduced nerve of a monoidal groupoid, 3-coskeletal, on
    sp.Places; levels above 3 come from the coskeletal extension.  Level
    q <= 3 has one cell per structural simplex in monoidal_simplices(g,
    q) order: a consumer finds the structure of a cell, or the cell of a
    structure, by zipping the two.  Up to level 3 each face and
    degeneracy is the list _reindex_table gives on g.int_index.  Ids
    (_struct_id) are made only by a level's names, for output."""
    cap = min(to_dim, 3)
    ix = g.int_index
    keys = [_simplex_keys(g, q) for q in range(cap + 1)]
    index = [_key_index(k) for k in keys]
    levels = [sp.Places(len(keys[q]), functools.partial(
        _level_names, g, q, keys[q])) for q in range(cap + 1)]

    def op(name, q, i):
        q_to, phi = (q - 1, _delta(i, q)) if name == "face" else \
            (q + 1, _sigma(i, q))
        return _reindex_table(ix, index[q], index[q_to], phi, q, q_to)

    out = sp.build_sset(cap, levels, op, coskeletal_at=3, base=0)
    if to_dim > cap:
        out = sp.coskeletal_extend(out, to_dim)
    return out


# -- Duskin reconstruction --------------------------------------------------


class _NerveOps:
    """Horn-filler helpers on a reduced 2-Kan-groupoid.  The fillers of a
    horn (a tuple with None in slot k) are read from the complex's horn
    index, z.face_index(level, k), built once per level and k."""

    def __init__(self, z):
        self.z = z
        self.star = z.level(0)[0]
        self.unit = z.degen[0, 0][self.star]      # unit object = s_0(*)
        self.unit2 = z.degen[1, 0][self.unit]     # s_0 s_0 (*)

    def fill3_unique(self, k, horn):
        fillers = self.z.face_index(3, k).get(horn, ())
        if len(fillers) != 1:
            raise NotTwoKanGroupoid(
                "horn at dim 2 has %d fillers" % len(fillers))
        return fillers[0]

    def pairing(self, x, y):
        """Chosen filler of the inner horn (d2, d0) = (x, y): first in id
        order; its middle face is the reconstructed tensor object."""
        fillers = self.z.face_index(2, 1).get((y, None, x))
        if not fillers:
            raise NotTwoKanGroupoid("no pairing simplex for (%s,%s)" % (x, y))
        return fillers[0]

    def diff(self, u, v):
        """For 2-simplices u, v with d2 u = d2 v and d0 u = d0 v, the
        unique comparison 2-simplex in Hom(d1 v, d1 u)."""
        z = self.z
        a0 = z.degen[1, 1][z.face[2, 0][u]]
        eta = self.fill3_unique(1, (a0, None, u, v))
        return z.face[3, 1][eta]

    def compose(self, g2, f2):
        """g after f for arrow 2-simplices (d0 = degenerate unit)."""
        eta = self.fill3_unique(2, (self.unit2, g2, None, f2))
        return self.z.face[3, 2][eta]


def two_group_from_nerve(z):
    """Rebuild a 2-group from a reduced 2-Kan-groupoid.

    Objects are the 1-simplices, morphisms X -> Y the 2-simplices with
    faces (unit, Y, X), the tensor is the middle face of a chosen inner
    filler and all coherence cells come from unique dim-2 horn fillers.
    The output is accepted only if it certifies as a 2-group and the
    rebuilt nerve is isomorphic to the input in the stored range.  Its
    cells are the input's, read through their ids (sp.named) to level 3.
    """
    if not z.is_reduced():
        raise NotTwoKanGroupoid("input is not reduced")
    if not sp.kan_groupoid(z, 2)[0]:
        raise NotTwoKanGroupoid("input fails the 2-Kan-groupoid test: %r"
                                % sp.classify(z, 2))
    z = sp.named(sp.truncate(z, min(z.dim, 3)))
    ops = _NerveOps(z)
    objects = list(z.level(1))
    d0, d1, d2 = [z.face[2, i] for i in range(3)]
    morphs = list(itertools.compress(z.level(2), map(functools.partial(
        operator.eq, ops.unit), sp.column(z.level(2), (d0,)))))
    src, tgt = sp.relabel(morphs, d2), sp.relabel(morphs, d1)
    ident = sp.relabel(objects, z.degen[1, 1])
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
            tobj[(x, y)] = d1[p]
    d31 = z.face[3, 1]

    def left_whisker(x, g2):
        y, y2 = src[g2], tgt[g2]
        eta = ops.fill3_unique(1, (g2, None, pair[(x, y2)], pair[(x, y)]))
        return d31[eta]

    def right_whisker(f2, y):
        x, x2 = src[f2], tgt[f2]
        a0 = z.degen[1, 0][y]
        eta = ops.fill3_unique(1, (a0, None, pair[(x, y)], f2))
        return ops.diff(pair[(x2, y)], d31[eta])

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
                assoc[(x, y, zz)] = ops.diff(d31[eta],
                                             pair[(tobj[(x, y)], zz)])
    lunit = {x: ops.diff(pair[(ops.unit, x)], z.degen[1, 0][x])
             for x in objects}
    runit = {x: ops.diff(pair[(x, ops.unit)], ident[x]) for x in objects}

    mon = ca.MonoidalStructure(base, tobj, tmor, ops.unit, assoc, lunit, runit,
                               name="duskin")
    g = ca.certify_two_group(mon)

    # round trip: the rebuilt nerve must be isomorphic to the input; its
    # cells are found by structure, in monoidal_simplices order
    top = min(z.dim, 3)
    rebuilt = nerve_2group(g, top)
    cell1 = dict(zip([st[1] for st in monoidal_simplices(g, 1)],
                     rebuilt.level(1)))
    cell2 = dict(zip(monoidal_simplices(g, 2), rebuilt.level(2)))
    comps = {0: {ops.star: rebuilt.level(0)[0]},
             1: {x: cell1[x] for x in objects}}
    comps[2] = {zeta: cell2["q2", x, y, ops.diff(zeta, pair[(x, y)])]
                for zeta, (y, _, x) in z.face_table(2).items()}
    if top >= 3 and sp.lift_by_faces(z, rebuilt, comps, [3]) is not None:
        raise NotTwoKanGroupoid("round trip fails at a 3-simplex")
    _check_levelwise_iso(z, rebuilt, comps, top, NotTwoKanGroupoid,
                         "round trip map")
    return g


def _check_levelwise_iso(x, y, comps, top, error, what):
    """Raise error unless the levelwise dicts comps[k], k <= top, make a
    simplicial map X -> Y that is bijective on every level."""
    if not _is_simplicial_map(x, y, comps, top):
        raise error("%s is not simplicial" % what)
    for k in range(top + 1):
        if not bijective(comps[k].values(), y.level(k)):
            raise error("%s is not bijective at level %d" % (what, k))


def _is_simplicial_map(x, y, comps, top):
    """Whether the levelwise dicts comps[k], k <= top, commute with every
    face and degeneracy of X and Y within levels 0..top."""
    return not any(sp.identity_failures(x.level(k), [
        ((x_ops[k, i], comps[k + step]), (comps[k], y_ops[k, i]), None)
        for x_ops, y_ops, step in ((x.face, y.face, -1),
                                   (x.degen, y.degen, 1))
        if 0 <= k + step <= top for i in range(k + 1)])
        for k in range(top + 1))


# -- bisimplicial sets -------------------------------------------------------


class BisimplicialTrunc:
    """Bisimplicial set over a finite downward-closed region of index
    pairs (p, q).

    levels[(p,q)]  list of ids
    hface[(p,q,i)] level (p,q) -> (p-1,q);  vface likewise vertically
    hdegen[(p,q,j)] level (p,q) -> (p+1,q) where the target level exists

    As for sp.TruncatedSSet, a derived object may hold a level as
    sp.Places and each operator out of it as a list of target places,
    and the object holds the level dict and operator tables it is given,
    not copies.  A derived object's tables are _OnRead
    (build_bisimplicial): each operator is made on its first read, and
    one never read costs nothing.  It is read only through its levels,
    its operator tables (d^h_i of a cell c of level (p, q) is
    hface[p, q, i][c], and so on) and the caches face_table and
    face_index.
    """

    # each operator table and the step from its source level to its target
    OPERATORS = {"hface": (-1, 0), "vface": (0, -1), "hdegen": (1, 0),
                 "vdegen": (0, 1)}
    LABELS = {"hface": "dh", "vface": "dv", "hdegen": "sh", "vdegen": "sv"}

    def __init__(self, region, levels, hface, vface, hdegen, vdegen):
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
            cells = self.levels[(p, q)]
            index = self._face_indexes[key] = sp.group_cells(cells, [
                (hf[s] if has_h else ()) + (vf[s] if has_v else ())
                for s in cells])
        return index

    @property
    def P(self):
        return max(p for p, _ in self.region)

    @property
    def Q(self):
        return max(q for _, q in self.region)

    def level(self, p, q):
        return self.levels[(p, q)]

    def row(self, p):
        """The vertical simplicial set X_{p,*} within the region."""
        return self._line(lambda k: (p, k), 1, "v")

    def column(self, q):
        """The horizontal simplicial set X_{*,q} within the region."""
        return self._line(lambda k: (k, q), 0, "h")

    def _line(self, at, axis, direction):
        """The simplicial set of the levels at(0), at(1), .. of the
        region (at(k)[axis] == k) with the operators of `direction`; it
        shares this object's level lists and operator tables."""
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


class _OnRead(collections.abc.Mapping):
    """A table over `keys`, in their order, whose value at a key is
    make(key), made on the key's first read and then kept; `in` and
    `get` answer from the keys alone."""

    def __init__(self, keys, make):
        self._keys, self._make, self._made = dict.fromkeys(keys), make, {}

    def __getitem__(self, key):
        if key not in self._made:
            if key not in self._keys:
                raise KeyError(key)
            self._made[key] = self._make(key)
        return self._made[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def __contains__(self, key):
        return key in self._keys

    def get(self, key, default=None):
        return self[key] if key in self._keys else default


def build_bisimplicial(region, levels, op):
    """The BisimplicialTrunc over region whose table `table` holds
    op(table, p, q, i) at (p, q, i) for each key of
    bi_operator_keys(region), made on the key's first read (_OnRead).
    It holds the lists of `levels` and the tables op returns as they
    are, not copies."""
    keys = bi_operator_keys(region)
    return BisimplicialTrunc(region, dict(levels), *[
        _OnRead([key[1:] for key in keys if key[0] == name],
                lambda key, name=name: op(name, *key))
        for name in BisimplicialTrunc.OPERATORS])


def rectangle(pmax, qmax):
    return {(p, q) for p in range(pmax + 1) for q in range(qmax + 1)}


def mu3_region():
    return {(p, q) for p in range(4) for q in range(4) if p + q <= 3}


def restrict_region(bx, region):
    """bx over the levels of region that it stores, sharing their level
    lists and operator tables."""
    region = {k for k in region if k in bx.region}
    return build_bisimplicial(region, {k: bx.levels[k] for k in region},
                              lambda name, p, q, i: getattr(bx, name)[p, q, i])


def named(bx):
    """bx with every cell under its string id, in the same level, key
    and cell order; bx itself when no level is sp.Places."""
    if not any(isinstance(cells, sp.Places) for cells in bx.levels.values()):
        return bx
    ids = {pq: list(map(sp.namer(cells), cells))
           for pq, cells in bx.levels.items()}
    tables = [{(p, q, i): dict(zip(ids[p, q], sp.column(
        bx.levels[p, q], (mp, ids[p + dp, q + dq]))))
               for (p, q, i), mp in getattr(bx, name).items()}
              for name, (dp, dq) in BisimplicialTrunc.OPERATORS.items()]
    return BisimplicialTrunc(bx.region, ids, *tables)


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

# The digits that fix a target q-simplex, grouped by the family slots
# they read, per group (slots, spine slots, key triple): the targets of
# the arrows at the spine slots (X_01, X_12, X_23), then the pairing
# morphism be of the key triple (ij, jk, ik, t), triple t of _triples(q)
# with its pairs at slots ij, jk and ik (be_012, be_123, be_023).  X_02,
# X_13 and X_03 are the targets of those be, and be_013 follows from the
# associativity square.
_TARGET_DIGITS = {0: [((), (), None)], 1: [((0,), (0,), None)],
                  2: [((0, 1, 2), (0, 2), (0, 2, 1, 0))],
                  3: [((0, 1, 3), (0, 3), (0, 3, 1, 0)),
                      ((3, 4, 5), (5,), (3, 5, 4, 3)),
                      ((1, 2, 5), (), (1, 5, 2, 2))]}


def _pack(d, digits, base):
    """The code of the digits of group d: read in base `base` (every
    digit is below it) and shifted past the at most three digits of each
    earlier group, so that distinct keys sum to distinct codes."""
    return functools.reduce(lambda c, v: c * base + v, digits, 0) * \
        base ** (3 * d)


def _digit_column(ix, tinv, arrows, groups, d, al):
    """The code of the digits of group d of groups (_TARGET_DIGITS) for
    each family of a source whose slot-n arrows run through arrows[n], in
    product order: a table over the group's slots, expanded to every slot
    by sp.product_column.  al is the source's pairing morphism of the
    group's key triple, tinv the tensor row table inverted."""
    slots, spine, triple = groups[d]
    rows, table = ix.comp_rows, []
    for fs in itertools.product(*[arrows[n] for n in slots]):
        f = dict(zip(slots, fs))
        digits = [ix.tgt[f[n]] for n in spine]
        if triple:
            ij, jk, ik, _ = triple
            # be = f_ik . al . (f_ij (x) f_jk)^-1
            digits.append(rows[rows[f[ik]][al]][tinv[f[ij]][f[jk]]])
        table.append(_pack(d, digits, len(ix.src)))
    return sp.product_column(table, list(map(len, arrows)), slots)


def _family_index(start, strides, offset, rank, srcs, fams):
    """The morphism int of each (source, family) of a q, its source object
    read from srcs and its slot-n arrow from fams[n], each an iterable:
    the rank of its place in product order (see _SegalLevels)."""
    srcs = list(srcs)
    places = map(start.__getitem__, srcs)
    for slot_strides, col in zip(strides, fams):
        places = map(operator.add, places, map(
            operator.mul, map(slot_strides.__getitem__, srcs),
            map(offset.__getitem__, col)))
    return list(map(rank.__getitem__, places))


def _composite(index, src, fam, rows, after, before):
    """The column of after[n] . before[n] of a q-simplex groupoid,
    componentwise: one comp_rows gather per slot, then index."""
    return index(map(src.__getitem__, before), [map(
        operator.getitem, map(rows.__getitem__, map(fs.__getitem__, after)),
        map(fs.__getitem__, before)) for fs in fam])


class _SegalLevels:
    """The groupoids of q-simplices of a 2-group (q <= 3) on dense ints.

    Objects of q are numbered in monoidal_simplices order.  A morphism of
    q is its source object and its family, one base-groupoid morphism int
    per pair i < j (pairs in sorted order); the families of q are held as
    one column per slot (fam[q][n][m] is the slot-n arrow of morphism m).
    Morphisms are numbered in the string order of their ids, so the
    p-chains of morphism ints in lexicographic order are level (p, q) of
    the Segal nerve in level order.  In product order, each source's
    families run through the arrows out of its objects as
    itertools.product does, one run of places per source; a quantity
    that reads a few slots of a family is a small table per source over
    those slots, expanded to the run by list repetition
    (sp.product_column), and the rank list of q maps a place to its
    morphism int.  A (source, family) is found by arithmetic (index): its
    place is the source's start plus, per slot, the arrow's offset among
    the arrows out of its source object times the slot's stride at that
    source.  Column q of the Segal nerve is the nerve of the groupoid of
    q-simplices, chains[q] (a _ChainNerve on src[q] and tgt[q], with
    _composite, a column at a time, and the identity of each object):
    level (p, q) in level order, its size, its columns and the places of
    its chains, and its horizontal faces and degeneracies.  String ids
    are made once per object and morphism, and for a level only by
    namer; the operator tables map ints to ints, each built once per
    (operator, q).  The base groupoid's ints are the 2-group's shared
    g.int_index (catalg.IntIndex).
    """

    def __init__(self, g, qmax):
        self.g = g
        # monoidal_simplices stops at dimension 3
        self.qmax = qmax = min(qmax, 3)
        ix = self._ix = g.int_index
        # the arrows out of each base object, and each arrow's offset
        # among the arrows out of its source
        self._out_of = [[] for _ in ix.objects]
        for f, x in enumerate(ix.src):
            self._out_of[x].append(f)
        self._offset = [0] * len(ix.src)
        for arrows in self._out_of:
            for n, f in enumerate(arrows):
                self._offset[f] = n
        # the tensor row table, inverted: _tinv[f][h] = (f (x) h)^-1
        self._tinv = [list(map(ix.inv.__getitem__, row)) for row in ix.tm]
        # per q: objects (structs, obj_names, _simplex_keys, _key_index),
        # morphisms (src, tgt, fam, mor_names) and their index (per source
        # its start, the number of arrows out of each of its objects and
        # per slot its stride, and the rank list)
        self.structs, self.obj_names = {}, {}
        self._keys, self._key_index = {}, {}
        self.src, self.tgt, self.fam, self.mor_names = {}, {}, {}, {}
        self._start, self._sizes, self._strides = {}, {}, {}
        self._rank = {}
        self.index, self.chains = {}, {}
        for q in range(qmax + 1):
            self._build(q)
            # index[q] and the composite read q's tables, not self: a chain
            # nerve holding self would make a cycle, kept past its last use
            index = self.index[q] = functools.partial(
                _family_index, self._start[q], self._strides[q], self._offset,
                self._rank[q])
            objs = [k for k, _ in self._keys[q]]
            self.chains[q] = _ChainNerve(
                self.src[q], self.tgt[q], functools.partial(
                    _composite, index, self.src[q], self.fam[q],
                    ix.comp_rows),
                index(range(len(objs)), [map(ix.ident.__getitem__, col)
                                         for col in zip(*objs)]))
        self._vmap_obj = {}
        self._vmap_mor = {}

    def _build(self, q):
        """Objects and morphisms of q.  A morphism is a family f_ij, one
        arrow out of each object X_ij of its source; its target has the
        objects tgt f_ij and the pairing morphisms be = f_ik . al .
        (f_ij (x) f_jk)^-1, the ones that make the squares f_ik . al =
        be . (f_ij (x) f_jk) commute.  Each be exists and runs between
        the target's objects, so every family is a morphism.  A target is
        fixed by the objects of the spine pairs and the be of the key
        triples (_TARGET_DIGITS): per source, each group of digits is a
        table over the at most three slots it reads, expanded to product
        order (_digit_column; made once per group, al, objects at the
        group's slots and numbers of arrows out of the source's objects),
        and the groups' columns are summed into one code per family and
        looked up once.  The families are held as columns; the ids, which
        fix the order, are the only strings made per family, and the
        joined arrow ids are made once per tuple of objects."""
        g, ix, out_of = self.g, self._ix, self._out_of
        keys = self._keys[q] = _simplex_keys(g, q)
        structs = self.structs[q] = _key_structs(g, q, keys)
        obj_names = self.obj_names[q] = [_struct_id(st) for st in structs]
        self._key_index[q] = _key_index(keys)
        npairs, groups = len(_pairs(q)), _TARGET_DIGITS[q]
        base_names = ["%s" % (f,) for f in ix.morphisms]
        # per tuple of objects: the arrows out of each and their numbers
        # (sizes), the families in product order as a column per slot,
        # their joined ids "arrow,..,arrow)", the stride of each slot, and
        # per group the key of its digit columns less al; per group, the
        # digit column of each source, summed at the end
        shapes, digits = {}, {}
        src, names, starts, all_sizes = [], [], [], []
        fam, strides = [[] for _ in range(npairs)], [[] for _ in range(npairs)]
        codes = [[] for _ in groups]
        for s, (objs, als) in enumerate(keys):
            shape = shapes.get(objs)
            if shape is None:
                arrows = list(map(out_of.__getitem__, objs))
                ids = [list(map(base_names.__getitem__, fs)) for fs in arrows]
                sizes = tuple(map(len, arrows))
                shape = shapes[objs] = (
                    arrows, sizes, sp.product_columns(arrows),
                    [j + ")" for j in map(",".join, itertools.product(*ids))],
                    [math.prod(sizes[n + 1:]) for n in range(npairs)],
                    [(d, sizes) + tuple(map(objs.__getitem__, slots))
                     for d, (slots, _, _) in enumerate(groups)])
            arrows, sizes, cols, joined, sts, digit_keys = shape
            starts.append(len(src))
            all_sizes.append(sizes)
            src += [s] * len(joined)
            names += map(("f(" + obj_names[s] + "|").__add__, joined)
            for n in range(npairs):
                fam[n] += cols[n]
                strides[n].append(sts[n])
            for d, (_, _, triple) in enumerate(groups):
                al = als[triple[3]] if triple else None
                col = digits.get((digit_keys[d], al))
                if col is None:
                    col = digits[digit_keys[d], al] = _digit_column(
                        ix, self._tinv, arrows, groups, d, al)
                codes[d].append(col)
        obj_of_code = {sum(_pack(d, [objs[n] for n in spine] + (
            [als[triple[3]]] if triple else []), len(ix.src))
            for d, (_, spine, triple) in enumerate(groups)): s
            for s, (objs, als) in enumerate(keys)}
        tgt = list(map(obj_of_code.__getitem__, functools.reduce(
            functools.partial(map, operator.add),
            map(itertools.chain.from_iterable, codes))))
        order = sorted(range(len(names)), key=names.__getitem__)
        reorder = _gather(order)
        self.src[q], self.tgt[q], self.mor_names[q], *self.fam[q] = [
            list(reorder(col)) for col in [src, tgt, names] + fam]
        self._start[q], self._sizes[q], self._strides[q] = \
            starts, all_sizes, strides
        rank = self._rank[q] = [0] * len(order)
        for m, place in enumerate(order):
            rank[place] = m


    def namer(self, pq):
        """place -> string id on level pq = (p, q) of the Segal nerve:
        the object's name at p = 0, the morphism's at p = 1, and above,
        the chain id of the names of the chain's arrows."""
        p, q = pq
        if p == 0:
            return self.obj_names[q].__getitem__
        names = self.mor_names[q]
        if p == 1:
            return names.__getitem__
        return self.chains[q].namer(p, names)

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
        components on collapsed pairs become the unit's identity.  The
        image of a family lies at its image source's start plus, per
        target pair, the pair's stride there times the offset of the
        arrow the pair reads (index): the arrow at the source slot phi
        sends the pair to, or the unit's identity where phi collapses
        it.  The arrows out of an object have the offsets 0, 1, .., and
        the image source's objects are the source's at the slots read and
        the unit elsewhere, so the places less the start depend only on
        the numbers of arrows out of the source's objects: one column per
        tuple of those, over its families in product order."""
        key = (phi, q_from, q_to)
        table = self._vmap_mor.get(key)
        if table is None:
            objs = self.vmap_obj_table(phi, q_from, q_to)
            slot = {pr: n for n, pr in enumerate(_pairs(q_from))}
            # the source slot each target pair reads; None where collapsed
            reads = [slot.get((phi[i], phi[j])) for (i, j) in _pairs(q_to)]
            unit = self._offset[self._ix.unit_ident]
            start, strides = self._start[q_to], self._strides[q_to]
            sizes, shapes, places = self._sizes[q_from], {}, []
            for s, t in enumerate(objs):
                if sizes[s] not in shapes:
                    shapes[sizes[s]] = [sum(
                        stride[t] * (unit if k is None else offsets[k])
                        for stride, k in zip(strides, reads))
                        for offsets in itertools.product(*map(range,
                                                              sizes[s]))]
                places += map(start[t].__add__, shapes[sizes[s]])
            table = self._vmap_mor[key] = [0] * len(places)
            for m, image in zip(self._rank[q_from],
                                map(self._rank[q_to].__getitem__, places)):
                table[m] = image
        return table


# the most cells segal_nerve builds in one level
LEVEL_BUDGET = 50000


def segal_nerve(g, pmax, qmax):
    """Materialize the Segal nerve over the largest downward-closed
    region inside the (pmax, min(qmax, 3)) rectangle whose levels fit
    LEVEL_BUDGET.  Level (p, q) is sp.Places in level order, and each face
    and degeneracy the list of its target places, computed on the int
    tables of _SegalLevels (column q the chain nerve lv.chains[q]) on
    its first read (build_bisimplicial).  The string ids of a level are
    made only by its names (_SegalLevels.namer), for serialize and
    sp.named."""
    lv = _SegalLevels(g, qmax)
    region = set()
    for q in range(lv.qmax + 1):
        for p in range(pmax + 1):
            if lv.chains[q].size(p) > LEVEL_BUDGET:
                break
            down_ok = (p == 0 or (p - 1, q) in region) and \
                      (q == 0 or (p, q - 1) in region)
            if not down_ok:
                break
            region.add((p, q))
    levels = {}
    # whether a morphism id of q holds ';', scanned once per q
    semicolon = functools.cache(lambda q: ";" in "".join(lv.mor_names[q]))
    for (p, q) in region:
        levels[(p, q)] = sp.Places(lv.chains[q].size(p),
                                   functools.partial(lv.namer, (p, q)))
        # sorted ids clash where two neighbours are equal; the morphism ids
        # are sorted, and distinct names without ';' make distinct chain ids
        if p == 1:
            ids = lv.mor_names[q]
        elif p == 0 or semicolon(q):
            ids = sorted(map(lv.namer((p, q)), levels[(p, q)]))
        else:
            ids = []
        if any(map(operator.eq, ids, itertools.islice(ids, 1, None))):
            raise NerveError("ids of level (%d,%d) of the Segal nerve "
                             "clash: the 2-group's ids run together"
                             % (p, q))

    def vmap(p, q, phi, q_to):
        if p == 0:
            return lv.vmap_obj_table(phi, q, q_to)
        return lv.chains[q_to].places(lv.chains[q].columns(p),
                                      lv.vmap_mor_table(phi, q, q_to))

    def op(name, p, q, i):
        if name == "vface":
            return vmap(p, q, _delta(i, q), q - 1)
        if name == "vdegen":
            return vmap(p, q, _sigma(i, q), q + 1)
        return getattr(lv.chains[q], name[1:])(p, i)

    out = build_bisimplicial(region, levels, op)
    out._segal_levels = lv
    return out


# -- bisimplicial maps --------------------------------------------------------


def enumerate_bimaps(x_bx, y_bx, region=None):
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
    tick = sp.budget_ticker("bisimplicial enumeration exceeded {cap} evaluations")
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
                below = x_bx.level(*src)
                for a, sa in zip(below, sp.column(
                        below, (x_deg[src + (j,)],))):
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


def mu3_determined(x_bx, y_bx):
    """Restriction of maps X -> Y to the (p+q <= 3)-region is bijective
    over the common region."""
    full = enumerate_bimaps(x_bx, y_bx)
    mu = mu3_region() & set(x_bx.region) & set(y_bx.region)
    small = enumerate_bimaps(x_bx, y_bx, region=mu)
    def restrict(m):
        return tuple(sorted((k, tuple(sorted(v.items())))
                            for k, v in m.items() if k in mu))
    return bijective([restrict(m) for m in full], [restrict(m) for m in small])


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


def segal_fibrancy_check(x_bx):
    """Evaluate the four fibrancy conditions for pre-monoids within the
    stored region:

    (i)   every simplex-map-induced row map is a weak equivalence
          (pi_1 always, pi_2 where rows reach vertical depth 3); the map
          is applied, a column at a time, only to the pi_m
          representatives of the source row,
    (ii)  every row is a 2-Kan-groupoid (within range),
    (iii) boundary(p) x horn(q) extension at p = q = 2,
    (iv)  relative box-horn surjectivity at p in {1,2}, q = 2.

    (iii) and (iv) are each decided as "every element of an enumerated
    domain lies in a set of images", under one budget guard (the one
    enumeration cap, sp.enumeration_budget()) ticked before the work it
    counts; past the cap SearchBudgetExceeded names the search.
    """
    rep = FibrancyReport()
    if not x_bx.is_pre_monoid():
        rep.add("pre-monoid", False, "row 0 is not a point")
        return rep
    pmax = max(p for p, q in x_bx.region if q == 0)
    rows = {}
    for p in range(pmax + 1):
        rows[p] = x_bx.row(p)

    # (ii) rows are 2-Kan-groupoids within their stored depth
    for p, r in rows.items():
        ok, checked = sp.kan_groupoid(r, 2)
        rep.add("row-%d-kan-groupoid" % p, ok, "dims %s" % checked)

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
                    gk, _ = pis[k][m]
                    gl, cls_l = pis[l][m]
                    # each representative's class under the operator
                    chain = [(x_bx.hface if kind == "d" else x_bx.hdegen)[
                        p, m, i] for kind, p, i in steps] + [cls_l]
                    ok = gk.iso_failure(gl, dict(zip(gk.elements, sp.column(
                        gk.elements, chain)))) is None
                    rep.add("weq-phi%s-pi%d" % (phi, m), ok)

    # the rows and their caches (face codes, Kan rows) are freed before
    # the searches build their tables
    del rows, pis
    # (iii) and (iv) via the explicit prism-tuple descriptions of the
    # corner Hom sets
    tick = sp.budget_ticker("fibrancy {} search exceeded {cap} evaluations")
    for k, ok in enumerate(_boundary_horn_extension(x_bx, tick)):
        rep.add("(iii)-k%d" % k, ok)
    for p in (1, 2):
        tables = _relative_horn_tables(x_bx, p, 2)
        for k in range(3):
            rep.add("(iv)-p%d-k%d" % (p, k),
                    _relative_horn_extension(tables, k, tick))
    return rep


def _h_boundary_tuples(x_bx, p, q):
    """Maps boundary(Delta^p) (box) Delta^q -> X: the (p+1)-tuples in
    X_{p-1,q} with the horizontal compatibility relations, as
    sp.compatible_tuples lists them, one column of cells per slot."""
    cells = x_bx.level(p - 1, q)
    fcols = [sp.column(cells, (x_bx.hface[p - 1, q, i],))
             for i in range(p)] if p - 1 else []
    return [sp.cells_at(cells, col)
            for col in sp.compatible_tuples(len(cells), fcols, p - 1)]


def _boundary_horn_extension(x_bx, tick):
    """Per horn index k = 0, 1, 2, whether Hom(bd Delta^2 (x) Delta^2, X)
    maps onto Hom(bd Delta^2 (x) Lambda^{2,k}, X): every compatible
    triple of vertical k-horns at (1, 1) is the horn triple of a map
    _h_boundary_tuples(x_bx, 2, 2).  A horn is its face code in row 1
    less slot k, packed as sp.face_codes packs face tuples, place 0 at
    slot k.  tick(search, n=...) counts each k's horn triples before
    they are tested.  True outside the stored region."""
    if (1, 2) not in x_bx.region or (1, 1) not in x_bx.region:
        return [True] * 3
    row = x_bx.row(1)
    fc = sp.face_codes(row, 1)
    acols = _h_boundary_tuples(x_bx, 2, 2)
    cells = x_bx.level(1, 1)
    out = []
    for k in range(3):
        # the images: the horns of the maps, read off each cell's code
        horn = sp.tabled(x_bx.level(1, 2), list(map(
            operator.sub, fc.codes,
            map(operator.mul, fc.cols[k], itertools.repeat(fc.n ** (2 - k))))))
        images = set(zip(*[sp.column(col, (horn,)) for col in acols]))
        # the domain: the vertical k-horns, packed, in the triples their
        # horizontal faces make compatible
        hcols = sp.horn_tuples(row, 1, k)
        zeros = [0] * len(hcols[k - 1])     # slot k - 1 is not skipped
        codes = sp._pack([zeros if col is None else col for col in hcols],
                         fc.n)
        hfaces = [list(zip(*[sp.column(sp.cells_at(cells, col),
                                       (x_bx.hface[1, 1, i],))
                             for col in hcols if col is not None]))
                  for i in range(2)]
        targets = sp.compatible_tuples(len(codes), hfaces, 1)
        tick("boundary-horn lift", n=len(targets[0]))
        out.append(images.issuperset(zip(*[sp.column(col, (codes,))
                                           for col in targets])))
    return out


def _relative_horn_tables(x_bx, p, q):
    """What _relative_horn_extension needs for every horn index k, as
    (acols, cands, horn_keys, vfaces): the maps a = (a_0..a_p) from
    bd Delta^p (x) Delta^q to X, the columns of _h_boundary_tuples
    (acols[i][t] is a_i of the t-th map); per vertical slot j, the column
    cands[j] whose t-th entry lists the cells b of X_{p,q-1} with
    dh_i b = dv_j a_i for all i, a the t-th map, as x_bx.face_index
    groups them; per k the set of (horizontal faces, vertical faces
    without slot k) of the cells of X_{p,q}; and the vertical faces of
    the cells of X_{p,q-1} (empty where q - 1 == 0).  None outside the
    stored region."""
    if any(t not in x_bx.region for t in [(p, q), (p - 1, q), (p, q - 1)]):
        return None
    bidx = x_bx.face_index(p, q - 1, True, False)
    acols = _h_boundary_tuples(x_bx, p, q)
    # per vertical slot j, the keys (dv_j a_0, .., dv_j a_p) zipped from
    # the columns mapped through dv_j
    cands = [list(map(bidx.get, zip(*[
        sp.column(col, (x_bx.vface[p - 1, q, j],)) for col in acols]),
        itertools.repeat([]))) for j in range(q + 1)]
    hkeys = list(x_bx.face_table(p, q, "h").values())
    cells = x_bx.level(p, q)
    vcols = [sp.column(cells, (x_bx.vface[p, q, j],)) for j in range(q + 1)]
    horn_keys = [set(zip(hkeys, zip(*(vcols[:k] + vcols[k + 1:]))))
                 for k in range(q + 1)]
    return acols, cands, horn_keys, x_bx.face_table(p, q - 1, "v")


def _relative_horn_extension(tables, k, tick):
    """Surjectivity of Hom(Delta^p (x) Delta^q, X) onto the fibre product
    of Hom(bd Delta^p (x) Delta^q, X) and Hom(Delta^p (x) Lambda^{q,k}, X);
    `tables` is _relative_horn_tables(x_bx, p, q), q >= 1.

    One search over every boundary tuple a at once, a slot at a time:
    the vertical data are b_j in X_{p,q-1} with dh_i b_j = dv_j a_i for
    all i (the candidate columns of the tables), and the vertical horn
    relations dv_i b_j = dv_{j-1} b_i (i < j) filter each slot's
    candidates through one bucket keyed on the tuple and the faces dv_i
    the relations read.  Every horn so built must have a filler.  Before
    each slot is assigned, tick(search, n=...) counts the candidates it
    considers: those of the slot for every assignment of the slots
    before it.  True outside the stored region."""
    if tables is None:
        return True     # outside the stored region
    acols, cands, horn_keys, vfaces = tables
    slots = [j for j in range(len(cands)) if j != k]
    cols = [cands[j] for j in slots]
    first = operator.itemgetter(0)
    # per depth m >= 1, the assignments (t, b_0, .., b_{m-1}) of the
    # first m slots that keep the relations, t the tuple's place
    col = cols[0]
    tick("relative box-horn", n=sum(map(len, col)))
    level = [(t, b) for t in itertools.compress(range(len(col)), col)
             for b in col[t]]
    for m in range(1, len(slots)):
        col, j, earlier = cols[m], slots[m], slots[:m]
        sizes = list(map(len, map(col.__getitem__, map(first, level))))
        tick("relative box-horn", n=sum(sizes))
        # the assignments whose tuple has candidates for slot m
        live = list(itertools.compress(level, sizes))
        bucket = {}
        for t in set(map(first, live)):
            for b in col[t]:
                bucket.setdefault((t, tuple(map(vfaces[b].__getitem__,
                                                earlier))), []).append(b)
        level = [c + (b,) for c in live for b in bucket.get(
            (c[0], tuple([vfaces[a][j - 1] for a in c[1:]])), ())]
    return horn_keys[k].issuperset(
        (tuple([a[c[0]] for a in acols]), c[1:]) for c in level)


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


# -- the loop-space comparison ------------------------------------------------


def loop_gamma(g):
    """The natural comparison: loops in the 2-group nerve against the
    nerve of the underlying groupoid.  Returns (map, omega, ngrpd) and
    raises if the comparison fails to be a levelwise bijection."""
    ng = nerve_2group(g, 4)
    om = sp.loop_space(ng, variant="plain", base=ng.base)
    nsg = nerve_category(g.base, om.dim)
    c = g.base
    # om's level n keeps the (n+1)-simplices of ng with last face at the
    # base in order (all objects; the 2-simplices with X_01 the unit), so
    # its cells zip with their structures, as nsg's with c's
    obj = dict(zip(om.level(0), [st[1] for st in monoidal_simplices(g, 1)]))
    struct2 = dict(zip(om.level(1), [st for st in monoidal_simplices(g, 2)
                                     if st[1] == g.unit]))
    cell0 = dict(zip(c.objects, nsg.level(0)))
    cell1 = dict(zip(c.morphisms, nsg.level(1)))
    comps = {0: {x: cell0[obj[x]] for x in om.level(0)}, 1: {}}
    for xi_id in om.level(1):
        _, x01, x12, xi = struct2[xi_id]
        mor = c.comp(g.mor_inverse(g.l(x12)), c.inv(xi))
        comps[1][xi_id] = cell1[mor]
    # extend upward by filling from faces (both sides are weakly
    # 1-coskeletal in range)
    upper = range(2, om.dim + 1)
    bad = sp.lift_by_faces(om, nsg, comps, upper)
    if bad is not None:
        raise NerveError("comparison does not extend at level %d" % bad)
    _check_levelwise_iso(om, nsg, comps, om.dim, NerveError, "comparison map")
    return comps, om, nsg
