"""Finite categories, groupoids, monoidal structures and 2-groups.

All structure is explicit tables; every axiom is decided by exhaustive
scans.  Composition convention: comp(g, f) = g after f, so src(g.f) =
src(f) and tgt(g.f) = tgt(g).  Unitor directions follow the coherence
diagrams used throughout: l_X : X -> unit (x) X and r_X : X -> X (x) unit.
"""

import functools

from .groups import FiniteGroup


class CatError(Exception):
    pass


class NotGroupoidBase(CatError):
    pass


class FinCategory:
    def __init__(self, objects, morphisms, src, tgt, ident, comp, name="C"):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp_table = dict(comp)    # (g, f) -> g.f for composable pairs
        self.name = name

    def comp(self, g, f):
        return self.comp_table[(g, f)]

    def id_of(self, x):
        return self.ident[x]

    def composable(self, g, f):
        return self.src[g] == self.tgt[f]

    def hom(self, x, y):
        return sorted(f for f in self.morphisms
                      if self.src[f] == x and self.tgt[f] == y)

    def validate(self):
        errs = []
        for x in self.objects:
            e = self.ident.get(x)
            if e is None or e not in self.src:
                errs.append("missing identity at %s" % x)
                continue
            if self.src[e] != x or self.tgt[e] != x:
                errs.append("identity of %s has wrong endpoints" % x)
        for f in self.morphisms:
            if self.src.get(f) not in self.objects or self.tgt.get(f) not in self.objects:
                errs.append("endpoints of %s undefined" % f)
        if errs:
            return errs
        for g in self.morphisms:
            for f in self.morphisms:
                if self.composable(g, f):
                    gf = self.comp_table.get((g, f))
                    if gf is None:
                        errs.append("composite %s.%s undefined" % (g, f))
                    elif self.src.get(gf) != self.src[f] or \
                            self.tgt.get(gf) != self.tgt[g]:
                        errs.append("composite %s.%s has wrong endpoints" % (g, f))
        if errs:
            return errs
        for f in self.morphisms:
            if self.comp(f, self.id_of(self.src[f])) != f:
                errs.append("right unit law fails at %s" % f)
            if self.comp(self.id_of(self.tgt[f]), f) != f:
                errs.append("left unit law fails at %s" % f)
        for h in self.morphisms:
            for g in self.morphisms:
                if not self.composable(h, g):
                    continue
                for f in self.morphisms:
                    if not self.composable(g, f):
                        continue
                    if self.comp(self.comp(h, g), f) != self.comp(h, self.comp(g, f)):
                        errs.append("associativity fails at (%s,%s,%s)" % (h, g, f))
        return errs


class FinGroupoid(FinCategory):
    def __init__(self, objects, morphisms, src, tgt, ident, comp, inv=None, name="G"):
        super().__init__(objects, morphisms, src, tgt, ident, comp, name=name)
        if inv is None:
            inv = {}
            for f in self.morphisms:
                for g in self.morphisms:
                    if (self.src[g] == self.tgt[f] and self.tgt[g] == self.src[f]
                            and self.comp_table.get((g, f)) == self.ident[self.src[f]]
                            and self.comp_table.get((f, g)) == self.ident[self.tgt[f]]):
                        inv[f] = g
                        break
        self.inv_table = dict(inv)

    def inv(self, f):
        return self.inv_table[f]

    def validate(self):
        errs = super().validate()
        if errs:
            return errs
        for f in self.morphisms:
            g = self.inv_table.get(f)
            if g not in self.src:
                errs.append("no inverse for %s" % f)
                continue
            if self.comp_table.get((g, f)) != self.id_of(self.src[f]) or \
               self.comp_table.get((f, g)) != self.id_of(self.tgt[f]):
                errs.append("inverse law fails at %s" % f)
        return errs

    def iso_classes(self):
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f in self.morphisms:
            a, b = find(self.src[f]), find(self.tgt[f])
            if a != b:
                parent[max(a, b)] = min(a, b)
        classes = {}
        for x in self.objects:
            classes.setdefault(find(x), []).append(x)
        return classes


def groupoid_pi1(grpd, a):
    """Automorphisms of `a` under composition, as a FiniteGroup."""
    els = grpd.hom(a, a)
    table = {(f, g): grpd.comp(f, g) for f in els for g in els}
    return FiniteGroup(els, table, grpd.id_of(a), name="pi1(%s)" % grpd.name)


class MonoidalStructure:
    """A category with explicit tensor, unit and coherence data."""

    def __init__(self, base, tensor_obj, tensor_mor, unit, assoc, lunit, runit,
                 name="M"):
        self.base = base
        self.tensor_obj = dict(tensor_obj)      # (X, Y) -> obj
        self.tensor_mor = dict(tensor_mor)      # (f, g) -> mor
        self.unit = unit
        self.assoc = dict(assoc)                # (X,Y,Z) -> a: (XY)Z -> X(YZ)
        self.lunit = dict(lunit)                # X -> l_X : X -> 1X
        self.runit = dict(runit)                # X -> r_X : X -> X1
        self.name = name

    # shorthands
    def t(self, x, y):
        return self.tensor_obj[(x, y)]

    def tm(self, f, g):
        return self.tensor_mor[(f, g)]

    def a(self, x, y, z):
        return self.assoc[(x, y, z)]

    def l(self, x):
        return self.lunit[x]

    def r(self, x):
        return self.runit[x]

    def mor_inverse(self, f):
        if isinstance(self.base, FinGroupoid):
            return self.base.inv(f)
        c = self.base
        for g in c.morphisms:
            if (c.src[g] == c.tgt[f] and c.tgt[g] == c.src[f]
                    and c.comp(g, f) == c.id_of(c.src[f])
                    and c.comp(f, g) == c.id_of(c.tgt[f])):
                return g
        raise CatError("%s is not invertible" % f)

    @functools.cached_property
    def int_index(self):
        """The structure on dense ints, built on first use (IntIndex).
        A structure is never changed once made, so one index serves
        every later search and nerve."""
        return IntIndex(self)

    def validate(self):
        c = self.base
        errs = list(c.validate())
        if errs:
            return errs
        for x in c.objects:
            for y in c.objects:
                if (x, y) not in self.tensor_obj or self.t(x, y) not in c.objects:
                    errs.append("tensor undefined on (%s,%s)" % (x, y))
        if self.unit not in c.objects:
            errs.append("unit %s is not an object" % (self.unit,))
        if errs:
            return errs
        for f in c.morphisms:
            for g in c.morphisms:
                fg = self.tensor_mor.get((f, g))
                if fg is None:
                    errs.append("tensor undefined on morphisms (%s,%s)" % (f, g))
                elif c.src.get(fg) != self.t(c.src[f], c.src[g]) or \
                        c.tgt.get(fg) != self.t(c.tgt[f], c.tgt[g]):
                    errs.append("tensor of (%s,%s) has wrong endpoints" % (f, g))
        if errs:
            return errs
        # functoriality
        for x in c.objects:
            for y in c.objects:
                if self.tm(c.id_of(x), c.id_of(y)) != c.id_of(self.t(x, y)):
                    errs.append("tensor does not preserve identities at (%s,%s)" % (x, y))
        for f2 in c.morphisms:
            for f1 in c.morphisms:
                if not c.composable(f2, f1):
                    continue
                for g2 in c.morphisms:
                    for g1 in c.morphisms:
                        if not c.composable(g2, g1):
                            continue
                        lhs = self.tm(c.comp(f2, f1), c.comp(g2, g1))
                        rhs = c.comp(self.tm(f2, g2), self.tm(f1, g1))
                        if lhs != rhs:
                            errs.append("tensor not functorial at (%s,%s,%s,%s)"
                                        % (f2, f1, g2, g1))
        # coherence morphisms endpoints + iso
        for x in c.objects:
            lx = self.lunit.get(x)
            rx = self.runit.get(x)
            if c.src.get(lx) != x or c.tgt[lx] != self.t(self.unit, x):
                errs.append("left unitor of %s malformed" % x)
            if c.src.get(rx) != x or c.tgt[rx] != self.t(x, self.unit):
                errs.append("right unitor of %s malformed" % x)
        for x in c.objects:
            for y in c.objects:
                for z in c.objects:
                    axyz = self.assoc.get((x, y, z))
                    if c.src.get(axyz) != self.t(self.t(x, y), z) or \
                       c.tgt[axyz] != self.t(x, self.t(y, z)):
                        errs.append("associator of (%s,%s,%s) malformed" % (x, y, z))
        if errs:
            return errs
        for x in c.objects:
            try:
                self.mor_inverse(self.l(x))
                self.mor_inverse(self.r(x))
            except CatError:
                errs.append("unitor at %s not invertible" % x)
        for key in self.assoc:
            try:
                self.mor_inverse(self.assoc[key])
            except CatError:
                errs.append("associator at %r not invertible" % (key,))
        if errs:
            return errs
        # naturality of a, l, r
        for f in c.morphisms:
            x, x2 = c.src[f], c.tgt[f]
            if c.comp(self.l(x2), f) != c.comp(self.tm(c.id_of(self.unit), f), self.l(x)):
                errs.append("left unitor not natural at %s" % f)
            if c.comp(self.r(x2), f) != c.comp(self.tm(f, c.id_of(self.unit)), self.r(x)):
                errs.append("right unitor not natural at %s" % f)
        for f in c.morphisms:
            for g in c.morphisms:
                for h in c.morphisms:
                    x, y, z = c.src[f], c.src[g], c.src[h]
                    x2, y2, z2 = c.tgt[f], c.tgt[g], c.tgt[h]
                    lhs = c.comp(self.a(x2, y2, z2), self.tm(self.tm(f, g), h))
                    rhs = c.comp(self.tm(f, self.tm(g, h)), self.a(x, y, z))
                    if lhs != rhs:
                        errs.append("associator not natural at (%s,%s,%s)" % (f, g, h))
        # pentagon
        for w in c.objects:
            for x in c.objects:
                for y in c.objects:
                    for z in c.objects:
                        top = c.comp(self.a(w, x, self.t(y, z)),
                                     self.a(self.t(w, x), y, z))
                        bottom = c.comp(self.tm(c.id_of(w), self.a(x, y, z)),
                                        c.comp(self.a(w, self.t(x, y), z),
                                               self.tm(self.a(w, x, y), c.id_of(z))))
                        if top != bottom:
                            errs.append("pentagon fails at (%s,%s,%s,%s)" % (w, x, y, z))
        # triangle
        for x in c.objects:
            for y in c.objects:
                lhs = c.comp(self.a(x, self.unit, y),
                             self.tm(self.r(x), c.id_of(y)))
                rhs = self.tm(c.id_of(x), self.l(y))
                if lhs != rhs:
                    errs.append("triangle fails at (%s,%s)" % (x, y))
        if errs:
            return errs
        # derived consistency checks (consequences of pentagon+triangle)
        if self.l(self.unit) != self.r(self.unit):
            errs.append("derived check failed: l_1 != r_1")
        for x in c.objects:
            for y in c.objects:
                lhs = c.comp(self.a(x, y, self.unit), self.r(self.t(x, y)))
                if lhs != self.tm(c.id_of(x), self.r(y)):
                    errs.append("derived right-unit triangle fails at (%s,%s)" % (x, y))
                lhs = c.comp(self.a(self.unit, x, y),
                             self.tm(self.l(x), c.id_of(y)))
                if lhs != self.l(self.t(x, y)):
                    errs.append("derived left-unit triangle fails at (%s,%s)" % (x, y))
        return errs


class IntIndex:
    """A monoidal groupoid on dense ints.

    Objects are numbered in base.objects order and morphisms in
    base.morphisms order (`objects`, `morphisms` and the inverse maps
    `obj_int`, `mor_int`).  `src`, `tgt`, `inv` and `ident` (the
    identity of each object) are lists; `comp` maps (g, f) to g.f for
    composable pairs, `tm` maps (f, g) to f (x) g and `tobj` (x, y) to
    x (x) y; `unit` is the unit object and `unit_ident` its identity.
    Built on first use: the tables of the determinant searches
    (`comp_rows`, the whiskerings `left` and `right`, `assoc`, `homs`,
    each hom-set in id order, and `tri_cands`, the hom-sets of triangles)
    and the inverse unitors of the nerve's reindexing (`lunit_inv`,
    `runit_inv`).
    """

    def __init__(self, m):
        c = m.base
        self.objects = list(c.objects)
        self.morphisms = list(c.morphisms)
        oi = self.obj_int = {x: i for i, x in enumerate(self.objects)}
        mi = self.mor_int = {f: i for i, f in enumerate(self.morphisms)}
        self.src = [oi[c.src[f]] for f in self.morphisms]
        self.tgt = [oi[c.tgt[f]] for f in self.morphisms]
        self.comp = {(mi[b], mi[a]): mi[ba]
                     for (b, a), ba in c.comp_table.items()}
        self.inv = [mi[m.mor_inverse(f)] for f in self.morphisms]
        self.tm = {(mi[a], mi[b]): mi[ab]
                   for (a, b), ab in m.tensor_mor.items()}
        self.tobj = {(oi[x], oi[y]): oi[xy]
                     for (x, y), xy in m.tensor_obj.items()}
        self.ident = [mi[c.id_of(x)] for x in self.objects]
        self.unit = oi[m.unit]
        self.unit_ident = self.ident[self.unit]
        self._assoc = m.assoc
        self._lunit, self._runit = m.lunit, m.runit

    @functools.cached_property
    def comp_rows(self):
        """comp_rows[h][f] = h.f, None where h and f do not compose."""
        mors = range(len(self.morphisms))
        return [[self.comp.get((h, f)) for f in mors] for h in mors]

    @functools.cached_property
    def left(self):
        """left[x][f] = id_x (x) f."""
        return [[self.tm[(i, f)] for f in range(len(self.morphisms))]
                for i in self.ident]

    @functools.cached_property
    def right(self):
        """right[x][f] = f (x) id_x."""
        return [[self.tm[(f, i)] for f in range(len(self.morphisms))]
                for i in self.ident]

    @functools.cached_property
    def assoc(self):
        """assoc[x][y][z] = a_{x,y,z} : (x (x) y) (x) z -> x (x) (y (x) z)."""
        objs, mi = self.objects, self.mor_int
        return [[[mi[self._assoc[(x, y, z)]] for z in objs] for y in objs]
                for x in objs]

    @functools.cached_property
    def lunit_inv(self):
        """lunit_inv[x] = l_x^-1 : 1 (x) x -> x."""
        return [self.inv[self.mor_int[self._lunit[x]]] for x in self.objects]

    @functools.cached_property
    def runit_inv(self):
        """runit_inv[x] = r_x^-1 : x (x) 1 -> x."""
        return [self.inv[self.mor_int[self._runit[x]]] for x in self.objects]

    @functools.cached_property
    def homs(self):
        """homs[x][y]: the morphisms x -> y in id order, as base.hom
        lists them."""
        objs = range(len(self.objects))
        out = [[[] for _ in objs] for _ in objs]
        for f in sorted(range(len(self.morphisms)),
                        key=self.morphisms.__getitem__):
            out[self.src[f]][self.tgt[f]].append(f)
        return out

    @functools.cached_property
    def tri_cands(self):
        """tri_cands[o0][o1][o2] = homs[o2 (x) o0][o1], the values T may
        take on a triangle whose faces d_0, d_1, d_2 have D-values o0,
        o1, o2."""
        homs, tobj = self.homs, self.tobj
        objs = range(len(self.objects))
        return [[[homs[tobj[(o2, o0)]][o1] for o2 in objs] for o1 in objs]
                for o0 in objs]


class TwoGroup(MonoidalStructure):
    """A monoidal groupoid with inversion witnesses for every object."""

    def __init__(self, base, tensor_obj, tensor_mor, unit, assoc, lunit, runit,
                 iota_d=None, iota_g=None, alpha=None, beta=None, name="G"):
        super().__init__(base, tensor_obj, tensor_mor, unit, assoc, lunit, runit,
                         name=name)
        self.iota_d = iota_d    # obj -> obj     with alpha_X : X (x) iota_d X -> 1
        self.iota_g = iota_g    # obj -> obj     with beta_X : iota_g X (x) X -> 1
        self.alpha_w = alpha
        self.beta_w = beta

    def certified(self):
        return None not in (self.iota_d, self.iota_g, self.alpha_w, self.beta_w)


class CertifyFailure(CatError):
    def __init__(self, obj):
        super().__init__("object %s is not invertible" % obj)
        self.obj = obj


def certify_two_group(m):
    """Search inversion witnesses; first witness in id order wins.

    Returns a TwoGroup on success and raises CertifyFailure naming a
    non-invertible object otherwise.
    """
    errs = m.validate()
    if errs:
        raise CatError("monoidal validation failed: %s" % errs[0])
    if not isinstance(m.base, FinGroupoid):
        raise NotGroupoidBase("base category is not a groupoid")
    c = m.base
    iota_d, alpha = {}, {}
    iota_g, beta = {}, {}
    for x in sorted(c.objects):
        found = False
        for x2 in sorted(c.objects):
            for phi in c.hom(m.t(x, x2), m.unit):
                iota_d[x], alpha[x] = x2, phi
                found = True
                break
            if found:
                break
        if not found:
            raise CertifyFailure(x)
        found = False
        for x2 in sorted(c.objects):
            for phi in c.hom(m.t(x2, x), m.unit):
                iota_g[x], beta[x] = x2, phi
                found = True
                break
            if found:
                break
        if not found:
            raise CertifyFailure(x)
    # extend the witnesses to morphisms and verify naturality squares:
    # for f : X -> Y there must be a unique g with alpha_Y . (f (x) g) = alpha_X
    for f in c.morphisms:
        x, y = c.src[f], c.tgt[f]
        sols = [g for g in c.hom(iota_d[x], iota_d[y])
                if c.comp(alpha[y], m.tm(f, g)) == alpha[x]]
        if len(sols) != 1:
            raise CertifyFailure(x)
        sols = [g for g in c.hom(iota_g[x], iota_g[y])
                if c.comp(beta[y], m.tm(g, f)) == beta[x]]
        if len(sols) != 1:
            raise CertifyFailure(x)
    return TwoGroup(m.base, m.tensor_obj, m.tensor_mor, m.unit, m.assoc,
                    m.lunit, m.runit, iota_d=iota_d, iota_g=iota_g,
                    alpha=alpha, beta=beta, name=m.name)


def pi0_two_group(g):
    """Objects up to isomorphism with the tensor-induced product."""
    classes = g.base.iso_classes()
    rep = {}
    for r, members in classes.items():
        for x in members:
            rep[x] = r
    # well-definedness: isomorphic factors give isomorphic tensors
    for x in g.base.objects:
        for x2 in g.base.objects:
            if rep[x] != rep[x2]:
                continue
            for y in g.base.objects:
                if rep[g.t(x, y)] != rep[g.t(x2, y)]:
                    raise CatError("pi0 product ill-defined on the left")
                if rep[g.t(y, x)] != rep[g.t(y, x2)]:
                    raise CatError("pi0 product ill-defined on the right")
    reps = sorted(classes)
    table = {(p, q): rep[g.t(p, q)] for p in reps for q in reps}
    grp = FiniteGroup(reps, table, rep[g.unit], name="pi0(%s)" % g.name)
    errs = grp.validate()
    if errs:
        raise CatError("pi0 is not a group: %s" % errs[0])
    return grp


def pi1_two_group(g):
    """Endomorphisms of the unit object under composition (abelian)."""
    grp = groupoid_pi1(g.base, g.unit)
    grp.name = "pi1(%s)" % g.name
    if not grp.is_abelian():
        raise CatError("pi1 of a 2-group must be commutative")
    return grp


class LaxUnitaryFunctor:
    """Unit-preserving lax monoidal functor with explicit components."""

    def __init__(self, source, target, obj_map, mor_map, m_comp, name="F"):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self.m_comp = dict(m_comp)      # (X, Y) -> F(X)(x)F(Y) -> F(X(x)Y)
        self.name = name

    def fo(self, x):
        return self.obj_map[x]

    def fm(self, f):
        return self.mor_map[f]

    def m(self, x, y):
        return self.m_comp[(x, y)]

    def validate(self):
        src, tgt = self.source, self.target
        cs, ct = src.base, tgt.base
        errs = []
        for x in cs.objects:
            if self.obj_map.get(x) not in ct.objects:
                errs.append("object image of %s undefined" % x)
        for f in cs.morphisms:
            ff = self.mor_map.get(f)
            if ff is None or ct.src[ff] != self.fo(cs.src[f]) \
                    or ct.tgt[ff] != self.fo(cs.tgt[f]):
                errs.append("morphism image of %s malformed" % f)
        if errs:
            return errs
        for x in cs.objects:
            if self.fm(cs.id_of(x)) != ct.id_of(self.fo(x)):
                errs.append("identities not preserved at %s" % x)
        for g in cs.morphisms:
            for f in cs.morphisms:
                if cs.composable(g, f):
                    if self.fm(cs.comp(g, f)) != ct.comp(self.fm(g), self.fm(f)):
                        errs.append("composition not preserved at (%s,%s)" % (g, f))
        if self.fo(src.unit) != tgt.unit:
            errs.append("unit object not preserved")
        for x in cs.objects:
            for y in cs.objects:
                mc = self.m_comp.get((x, y))
                if mc is None or \
                   ct.src[mc] != tgt.t(self.fo(x), self.fo(y)) or \
                   ct.tgt[mc] != self.fo(src.t(x, y)):
                    errs.append("lax component at (%s,%s) malformed" % (x, y))
        if errs:
            return errs
        # naturality of m
        for f in cs.morphisms:
            for g in cs.morphisms:
                x, y = cs.src[f], cs.src[g]
                x2, y2 = cs.tgt[f], cs.tgt[g]
                lhs = ct.comp(self.fm(src.tm(f, g)), self.m(x, y))
                rhs = ct.comp(self.m(x2, y2), tgt.tm(self.fm(f), self.fm(g)))
                if lhs != rhs:
                    errs.append("m not natural at (%s,%s)" % (f, g))
        # hexagon
        for x in cs.objects:
            for y in cs.objects:
                for z in cs.objects:
                    lhs = ct.comp(self.fm(src.a(x, y, z)),
                                  ct.comp(self.m(src.t(x, y), z),
                                          tgt.tm(self.m(x, y),
                                                 ct.id_of(self.fo(z)))))
                    rhs = ct.comp(self.m(x, src.t(y, z)),
                                  ct.comp(tgt.tm(ct.id_of(self.fo(x)),
                                                 self.m(y, z)),
                                          tgt.a(self.fo(x), self.fo(y), self.fo(z))))
                    if lhs != rhs:
                        errs.append("hexagon fails at (%s,%s,%s)" % (x, y, z))
        # unit coherence
        for x in cs.objects:
            if ct.comp(self.m(src.unit, x), tgt.l(self.fo(x))) != self.fm(src.l(x)):
                errs.append("left unit coherence fails at %s" % x)
            if ct.comp(self.m(x, src.unit), tgt.r(self.fo(x))) != self.fm(src.r(x)):
                errs.append("right unit coherence fails at %s" % x)
        return errs


def identity_lax(g):
    c = g.base
    return LaxUnitaryFunctor(
        g, g,
        {x: x for x in c.objects},
        {f: f for f in c.morphisms},
        {(x, y): c.id_of(g.t(x, y)) for x in c.objects for y in c.objects},
        name="id")


def compose_lax(g_fun, f_fun):
    """Composite g_fun . f_fun with the composed lax components
    m^{GF}_{X,Y} = G(m^F_{X,Y}) . m^G_{FX,FY}."""
    if f_fun.target is not g_fun.source:
        raise CatError("functors not composable")
    src, mid, tgt = f_fun.source, f_fun.target, g_fun.target
    obj = {x: g_fun.fo(f_fun.fo(x)) for x in src.base.objects}
    mor = {f: g_fun.fm(f_fun.fm(f)) for f in src.base.morphisms}
    m = {}
    for x in src.base.objects:
        for y in src.base.objects:
            m[(x, y)] = tgt.base.comp(
                g_fun.fm(f_fun.m(x, y)),
                g_fun.m(f_fun.fo(x), f_fun.fo(y)))
    return LaxUnitaryFunctor(src, tgt, obj, mor, m,
                             name="%s.%s" % (g_fun.name, f_fun.name))


def pi0_map(f_fun):
    g, h = pi0_two_group(f_fun.source), pi0_two_group(f_fun.target)
    rep_h = {}
    for r, members in f_fun.target.base.iso_classes().items():
        for x in members:
            rep_h[x] = r
    mapping = {}
    for r, members in f_fun.source.base.iso_classes().items():
        mapping[r] = rep_h[f_fun.fo(r)]
    return g, h, mapping


def pi1_map(f_fun):
    g, h = pi1_two_group(f_fun.source), pi1_two_group(f_fun.target)
    return g, h, {phi: f_fun.fm(phi) for phi in g.elements}


def is_weak_equivalence(f_fun):
    """True iff pi0 F and pi1 F are group isomorphisms."""
    errs = f_fun.validate()
    if errs:
        raise CatError("functor does not validate: %s" % errs[0])
    g0, h0, m0 = pi0_map(f_fun)
    if len(set(m0.values())) != len(m0) or set(m0.values()) != set(h0.elements):
        return False
    for a in g0.elements:
        for b in g0.elements:
            if m0[g0.mul(a, b)] != h0.mul(m0[a], m0[b]):
                return False
    g1, h1, m1 = pi1_map(f_fun)
    if len(set(m1.values())) != len(m1) or set(m1.values()) != set(h1.elements):
        return False
    for a in g1.elements:
        for b in g1.elements:
            if m1[g1.mul(a, b)] != h1.mul(m1[a], m1[b]):
                return False
    return True


def translation_bijectivity_check(g):
    """For every object X the translations Y -> X(x)Y and Y -> Y(x)X are
    bijections on iso classes and on each hom-set (finite equivalence
    check)."""
    classes = g.base.iso_classes()
    rep = {}
    for r, members in classes.items():
        for x in members:
            rep[x] = r
    reps = sorted(classes)
    for x in g.base.objects:
        for side in ("left", "right"):
            imgs = set()
            for yrep in reps:
                t = g.t(x, yrep) if side == "left" else g.t(yrep, x)
                imgs.add(rep[t])
            if imgs != set(reps):
                return False
        for y in g.base.objects:
            for y2 in g.base.objects:
                homs = g.base.hom(y, y2)
                lt = {g.tm(g.base.id_of(x), f) for f in homs}
                if len(lt) != len(homs):
                    return False
                rt = {g.tm(f, g.base.id_of(x)) for f in homs}
                if len(rt) != len(homs):
                    return False
    return True


# -- canned constructions --------------------------------------------------


def one_object_groupoid(group):
    """A group as a groupoid with one object.

    Composition is diagram order (g after f = f*g in the group), which is
    the identification that makes a 2-chain of the nerve compose to the
    product of its edge labels in their chain order.
    """
    obj = "*"
    morphs = ["m%s" % (e,) for e in group.elements]
    code = {e: "m%s" % (e,) for e in group.elements}
    dec = {v: k for k, v in code.items()}
    comp = {}
    for f in morphs:
        for g2 in morphs:
            comp[(g2, f)] = code[group.mul(dec[f], dec[g2])]
    return FinGroupoid([obj], morphs, {f: obj for f in morphs},
                       {f: obj for f in morphs}, {obj: code[group.unit]},
                       comp,
                       inv={code[e]: code[group.inv(e)] for e in group.elements},
                       name="B(%s)" % group.name)


def indiscrete_groupoid(points):
    """Exactly one morphism between any two objects."""
    points = list(points)
    morphs = ["<%s<%s>" % (y, x) for x in points for y in points]
    src = {}
    tgt = {}
    for x in points:
        for y in points:
            src["<%s<%s>" % (y, x)] = x
            tgt["<%s<%s>" % (y, x)] = y
    ident = {x: "<%s<%s>" % (x, x) for x in points}
    comp = {}
    for f in morphs:
        for g2 in morphs:
            if src[g2] == tgt[f]:
                comp[(g2, f)] = "<%s<%s>" % (tgt[g2], src[f])
    inv = {f: "<%s<%s>" % (src[f], tgt[f]) for f in morphs}
    return FinGroupoid(points, morphs, src, tgt, ident, comp, inv=inv,
                       name="Indisc(%d)" % len(points))


def poset_interval_category():
    """The poset [1] = {0 < 1} as a category (valid, not a groupoid)."""
    objects = ["0", "1"]
    morphs = ["id0", "id1", "u"]
    src = {"id0": "0", "id1": "1", "u": "0"}
    tgt = {"id0": "0", "id1": "1", "u": "1"}
    ident = {"0": "id0", "1": "id1"}
    comp = {("id0", "id0"): "id0", ("id1", "id1"): "id1",
            ("u", "id0"): "u", ("id1", "u"): "u"}
    return FinCategory(objects, morphs, src, tgt, ident, comp, name="[1]")


def discrete_two_group(group):
    """Disc(K): objects = K, identity morphisms only, strict structure."""
    objs = ["o%s" % (e,) for e in group.elements]
    code = {e: "o%s" % (e,) for e in group.elements}
    dec = {v: k for k, v in code.items()}
    morphs = ["i%s" % (e,) for e in group.elements]
    src = {"i%s" % (e,): code[e] for e in group.elements}
    tgt = dict(src)
    ident = {code[e]: "i%s" % (e,) for e in group.elements}
    comp = {(f, f): f for f in morphs}
    base = FinGroupoid(objs, morphs, src, tgt, ident, comp,
                       inv={f: f for f in morphs}, name="Disc(%s)" % group.name)
    tobj = {(code[a], code[b]): code[group.mul(a, b)]
            for a in group.elements for b in group.elements}
    tmor = {(ident[code[a]], ident[code[b]]): ident[code[group.mul(a, b)]]
            for a in group.elements for b in group.elements}
    unit = code[group.unit]
    assoc = {(code[a], code[b], code[c]): ident[code[group.mul(group.mul(a, b), c)]]
             for a in group.elements for b in group.elements for c in group.elements}
    lunit = {code[a]: ident[code[a]] for a in group.elements}
    runit = {code[a]: ident[code[a]] for a in group.elements}
    m = MonoidalStructure(base, tobj, tmor, unit, assoc, lunit, runit,
                          name="Disc(%s)" % group.name)
    return certify_two_group(m)


def one_object_two_group(abelian_group):
    """OneObj(A): one object, morphisms A, tensor of morphisms = product."""
    if not abelian_group.is_abelian():
        raise CatError("one-object 2-groups need an abelian group")
    base = one_object_groupoid(abelian_group)
    obj = base.objects[0]
    code = {e: "m%s" % (e,) for e in abelian_group.elements}
    tobj = {(obj, obj): obj}
    tmor = {(code[a], code[b]): code[abelian_group.mul(a, b)]
            for a in abelian_group.elements for b in abelian_group.elements}
    unit = obj
    e = base.id_of(obj)
    assoc = {(obj, obj, obj): e}
    lunit = {obj: e}
    runit = {obj: e}
    m = MonoidalStructure(base, tobj, tmor, unit, assoc, lunit, runit,
                          name="OneObj(%s)" % abelian_group.name)
    return certify_two_group(m)


def product_two_group(g, h):
    """Componentwise product 2-group."""
    cg, ch = g.base, h.base
    def po(x, y):
        return "(%s|%s)" % (x, y)
    objs = [po(x, y) for x in cg.objects for y in ch.objects]
    morphs = [po(f, k) for f in cg.morphisms for k in ch.morphisms]
    src = {po(f, k): po(cg.src[f], ch.src[k])
           for f in cg.morphisms for k in ch.morphisms}
    tgt = {po(f, k): po(cg.tgt[f], ch.tgt[k])
           for f in cg.morphisms for k in ch.morphisms}
    ident = {po(x, y): po(cg.id_of(x), ch.id_of(y))
             for x in cg.objects for y in ch.objects}
    comp = {}
    for f2 in cg.morphisms:
        for f1 in cg.morphisms:
            if not cg.composable(f2, f1):
                continue
            for k2 in ch.morphisms:
                for k1 in ch.morphisms:
                    if not ch.composable(k2, k1):
                        continue
                    comp[(po(f2, k2), po(f1, k1))] = \
                        po(cg.comp(f2, f1), ch.comp(k2, k1))
    inv = {po(f, k): po(cg.inv(f), ch.inv(k))
           for f in cg.morphisms for k in ch.morphisms}
    base = FinGroupoid(objs, morphs, src, tgt, ident, comp, inv=inv,
                       name="%sx%s" % (cg.name, ch.name))
    tobj = {}
    for x1 in cg.objects:
        for y1 in ch.objects:
            for x2 in cg.objects:
                for y2 in ch.objects:
                    tobj[(po(x1, y1), po(x2, y2))] = \
                        po(g.t(x1, x2), h.t(y1, y2))
    tmor = {}
    for f1 in cg.morphisms:
        for k1 in ch.morphisms:
            for f2 in cg.morphisms:
                for k2 in ch.morphisms:
                    tmor[(po(f1, k1), po(f2, k2))] = \
                        po(g.tm(f1, f2), h.tm(k1, k2))
    unit = po(g.unit, h.unit)
    assoc = {}
    for x1 in cg.objects:
        for y1 in ch.objects:
            for x2 in cg.objects:
                for y2 in ch.objects:
                    for x3 in cg.objects:
                        for y3 in ch.objects:
                            assoc[(po(x1, y1), po(x2, y2), po(x3, y3))] = \
                                po(g.a(x1, x2, x3), h.a(y1, y2, y3))
    lunit = {po(x, y): po(g.l(x), h.l(y)) for x in cg.objects for y in ch.objects}
    runit = {po(x, y): po(g.r(x), h.r(y)) for x in cg.objects for y in ch.objects}
    m = MonoidalStructure(base, tobj, tmor, unit, assoc, lunit, runit,
                          name="%sx%s" % (g.name, h.name))
    return certify_two_group(m)
