"""Reference maps that only the tests read: the tuples that the place
columns of compatible_tuples list, a complex with its levels in a
seeded order, alpha^m as a dict, the face codes by one rank dict, the
Kan rows by their definition, the Kan report over every checkable
dimension, the box product of two complexes and the diagonal of a
bisimplicial set, the key of a map by its sorted items, the
enriched-hom builder keyed by sorted map items, both enriched homs as
they were built on quotients and pair ids, the map search as a
recursion with one tick per evaluation, the shift (decalage), the
disjoint union, the retraction check of the shift, the translation
check of a 2-group, a budget tick that counts n per call by search
name, the 2-groups K(Z/2, Z/2) with given coherence data, the
string-keyed monoidal validation, the groupoid of q-simplices of a
2-group read off the Segal nerve's int tables, the nerve of a category
built chain by chain on string ids, the direct product and trivial
group, lax unitary functors with the weak-equivalence test on their
pi_0 and pi_1 maps, the identity and composite lax functors, and the
searches that recheck every constraint: the map search with its tick
count, and the pairwise determinant morphism searches with their
closure into classes."""

import collections
import itertools
import random

from kanforge import catalg as ca
from kanforge import determinants as dt
from kanforge import groups as gr
from kanforge import nerves as nv
from kanforge import simplicial as sp


def tuple_rows(cells, cols):
    """The tuples of cells that the place columns cols of
    sp.compatible_tuples list (None in a skipped slot's column and
    entry), in their order."""
    n = len(next(col for col in cols if col is not None))
    return list(zip(*[itertools.repeat(None, n) if col is None else
                      [cells[a] for a in col] for col in cols]))


def listed_tuples(cells, faces, m, skip=None, count=False):
    """sp.compatible_tuples over the cells of a list with the face dict
    faces (cell -> (d_0 cell, .., d_m cell)), as tuple_rows, or their
    number."""
    fcols = [[faces[c][i] for c in cells] for i in range(m + 1)] if m else []
    got = sp.compatible_tuples(len(cells), fcols, m, skip, count)
    return got if count else tuple_rows(cells, got)


class Ticks(collections.Counter):
    """A tick(search, n=1), as sp.budget_ticker makes them, that adds n
    to the count of search and never raises."""

    def __call__(self, search, n=1):
        self[search] += n


def permuted(x, seed):
    """x with every level list in a seeded order, and the same ids,
    tables, base and coskeletal flag."""
    rng = random.Random(seed)
    levels = [rng.sample(list(cells), len(cells)) for cells in x.levels]
    return sp.build_sset(x.dim, levels,
                         lambda name, k, i: getattr(x, name)[k, i],
                         x.coskeletal_at, x.base)


def boundary_alpha(x_sset, m):
    """alpha^m: level[m+1] -> boundary tuples, x -> (d_0 x, .., d_{m+1} x)."""
    if m + 1 > x_sset.dim:
        raise sp.DimensionOutOfRange("alpha^%d needs level %d" % (m, m + 1))
    return dict(x_sset.face_table(m + 1))


def rank_face_codes(x_sset, m):
    """sp.face_codes(x_sset, m) as (n, inside, cols, codes), each face
    of level m+1 given its place by one rank dict over level m; a face
    outside level m takes the next place, in order of first appearance
    (column by column, cell by cell)."""
    below, cells = x_sset.levels[m], x_sset.levels[m + 1]
    rank = dict(zip(below, range(len(below))))
    n_below = len(rank)
    cols = [[rank.setdefault(x_sset.face[m + 1, i][c], len(rank))
             for c in cells] for i in range(m + 2)]
    n = len(rank)
    codes = [sum(col[c] * n ** (m + 1 - i) for i, col in enumerate(cols))
             for c in range(len(cells))]
    return n, n == n_below, cols, codes


def definitional_tuples(x_sset, m, skip=None):
    """The maps from the boundary of the (m+1)-simplex (from its k-horn
    when skip = k, with None in slot k): the tuples of level m cells with
    d_i a_j = d_{j-1} a_i for i < j, filtered from itertools.product in
    level order."""
    slots = [j for j in range(m + 2) if j != skip]
    out = []
    for combo in itertools.product(x_sset.level(m), repeat=len(slots)):
        t = dict(zip(slots, combo))
        if m and any(x_sset.face[m, i][t[j]] != x_sset.face[m, j - 1][t[i]]
                     for i in slots for j in slots if i < j):
            continue
        out.append(tuple(t.get(j) for j in range(m + 2)))
    return out


def definitional_faces(x_sset, m):
    """cell of level m+1 -> (d_0 cell, .., d_{m+1} cell), one d call each."""
    return {c: tuple(x_sset.face[m + 1, i][c] for i in range(m + 2))
            for c in x_sset.level(m + 1)}


def definitional_faces_compatible(x_sset, m):
    """Every face tuple of level m+1 is a boundary tuple of level m."""
    return set(definitional_faces(x_sset, m).values()) <= \
        set(definitional_tuples(x_sset, m))


def definitional_alpha_bijective(x_sset, m):
    """(surjective, injective) of alpha^m: level m+1 -> boundary tuples.
    Onto means the face tuples are exactly the boundary tuples (a face
    tuple that is not one leaves alpha^m without a target); one-to-one
    means no two cells share a face tuple."""
    image = list(definitional_faces(x_sset, m).values())
    return (set(image) == set(definitional_tuples(x_sset, m)),
            len(set(image)) == len(image))


def definitional_kan_row(x_sset, m):
    """(flags, witness, minimal) of the Kan row in dimension m, by
    definition.  Per k: alpha^{m,k} is onto when every k-horn has a
    cell of level m+1 with that horn (the witness is the first horn in
    level order that has none) and one-to-one when no two cells share a
    horn (the witness is the last cell, in level order, whose horn an
    earlier cell has, with the first such cell).  Minimal: any two cells
    that share a k-horn share their k-th face, for every k."""
    faces = definitional_faces(x_sset, m)
    cells = list(faces)
    flags, witness = {}, {}
    minimal = True
    for k in range(m + 2):
        def horn(c):
            return faces[c][:k] + (None,) + faces[c][k + 1:]
        inj = True
        for pos, s in enumerate(cells):
            same = [f for f in cells[:pos] if horn(f) == horn(s)]
            if same:
                inj = False
                witness[(k, "inj")] = (same[0], s)
        minimal = minimal and all(
            faces[a][k] == faces[b][k]
            for a, b in itertools.combinations(cells, 2) if horn(a) == horn(b))
        horns = {horn(c) for c in cells}
        missing = [h for h in definitional_tuples(x_sset, m, skip=k)
                   if h not in horns]
        if missing:
            witness[(k, "surj")] = missing[0]
        flags[k] = (not missing, inj)
    return flags, witness, minimal


class KanReport:
    """Kan rows for every checkable dimension plus the derived flags:
    the largest m with Kan extension in 1..m, and the least dimension
    from which fillers are unique through the checked range."""

    def __init__(self, rows):
        self.rows = rows                   # m -> KanRow
        top = max(rows) if rows else 0
        self.is_kan_up_to = 0
        for m in range(1, top + 1):
            if m in rows and rows[m].kan:
                self.is_kan_up_to = m
            else:
                break
        self.strict_from = None
        for m in sorted(rows, reverse=True):
            if all(i for _, i in rows[m].flags.values()):
                self.strict_from = m
            else:
                break

    def __repr__(self):
        return "KanReport(kan_up_to=%d, strict_from=%s, dims=%s)" % (
            self.is_kan_up_to, self.strict_from, sorted(self.rows))


def kan_report(x_sset):
    """Kan status for every dimension the truncation can decide."""
    top = x_sset.dim - 1
    if x_sset.coskeletal_at is not None:
        top = max(top, x_sset.dim)
    rows = {m: sp.kan_status(x_sset, m) for m in range(top + 1)}
    return KanReport(rows)


def box(a_sset, b_sset, region=None):
    """Box product: level (p,q) = A_p x B_q with horizontal (resp.
    vertical) operators from A (resp. B)."""
    if region is None:
        region = nv.rectangle(a_sset.dim, b_sset.dim)

    def bid(x, y):
        return "(%s#%s)" % (x, y)

    cols = {(p, q): sp.product_columns([a_sset.level(p), b_sset.level(q)])
            for p, q in region}
    levels = {pq: list(map(bid, xs, ys)) for pq, (xs, ys) in cols.items()}

    def op(name, p, q, i):
        xs, ys = cols[p, q]
        if name[0] == "h":
            xs = sp.column(xs, (getattr(a_sset, name[1:])[p, i],))
        else:
            ys = sp.column(ys, (getattr(b_sset, name[1:])[q, i],))
        return dict(zip(levels[p, q], map(bid, xs, ys)))

    return nv.build_bisimplicial(region, levels, op)


def diag(bx):
    """Diagonal simplicial set: level n = X_{n,n}, d_i = dh_i dv_i."""
    n_max = 0
    while (n_max + 1, n_max + 1) in bx.region:
        n_max += 1
    levels = [bx.level(n, n) for n in range(n_max + 1)]
    return sp.build_sset(n_max, levels, lambda name, n, i: sp.relabel(
        levels[n], getattr(bx, "h" + name)[n, n, i],
        dst=getattr(bx, "v" + name)[n + sp.STEPS[name], n, i]))


def map_key(f):
    """The SSetMap f as its sorted (cell, image) items, level by level:
    the key every sort of maps reproduces without sorting items."""
    return tuple(tuple(sorted(f.components[k].items()))
                 for k in sorted(f.components))


def canon(comps):
    """A map given as dict level -> dict cell -> image, as a sortable
    key that does not depend on dict order: its sorted items per level."""
    return tuple((lvl, tuple(sorted(cells.items())))
                 for lvl, cells in sorted(comps.items()))


def canon_transported_hom(maps, pull, prefix):
    """determinants._transported_hom with every map keyed by canon, each
    precomposite built as a dict before it is keyed, and each coface and
    codegeneracy listed by its definition."""
    n_max = len(maps) - 1
    levels = [["%s%d_%d" % (prefix, n, i) for i in range(len(maps[n]))]
              for n in range(n_max + 1)]
    ranks = [{canon(f): i for i, f in enumerate(found)} for found in maps]

    def op(name, n, i):
        n_to = n + sp.STEPS[name]
        # delta_i : [n - 1] -> [n] misses i; sigma_i : [n + 1] -> [n]
        # hits i twice
        vert = ([v for v in range(n + 1) if v != i] if name == "face"
                else sorted([*range(n + 1), i]))
        moved = pull(n_to, n, vert)
        return {levels[n][idx]: levels[n_to][ranks[n_to][canon(
            {lvl: {cell: f[lvl][img] for cell, img in row.items()}
             for lvl, row in moved.items()})]]
            for idx, f in enumerate(maps[n])}

    return sp.build_sset(n_max, levels, op)


def position_pull(sources):
    """determinants._pull over the sources of an enriched hom (as
    _transported_hom reads them), as the pull canon_transported_hom
    reads: a dict level -> dict cell -> cell."""
    def pull(n_to, n, vert):
        return {lvl: dict(zip(cells, map(
            sources[n][pos][1].__getitem__,
            dt._pull(len(cells), k, n_to, n, vert))))
            for pos, (lvl, cells, k) in enumerate(sources[n_to])}
    return pull


def _pair_id(a, b):
    return "(%s|%s)" % (a, b)


def _post(vert, n_to, k):
    """dict phi -> vert . phi over the k-simplices phi of Delta^{n_to},
    on the ids of sp.standard_simplex."""
    return {sp._mid(t): sp._mid([vert[v] for v in t])
            for t in sp._monotone_maps(k, n_to)}


def reference_enriched_hom0(x_sset, y_sset, n_max):
    """The reduced enriched hom as it was built on quotients: level n
    names the maps (X x Delta^n)/(* x Delta^n) -> Y out of
    sp.quotient_by_subcomplex, sorted by their sorted (cell, image)
    items over the ids of Y, and the class of (x, phi) goes to the class
    of (x, vert . phi); built by canon_transported_hom."""
    y_sset = sp.named(y_sset)
    d = x_sset.dim
    sub = sp.sq0_subcomplex(x_sset)
    quots, pairs, collapsed = [], [], []
    for n in range(n_max + 1):
        dn = sp.standard_simplex(n, d)
        pairs.append({_pair_id(a, b): (a, b) for k in range(d + 1)
                      for a in x_sset.level(k) for b in dn.level(k)})
        ids = [[_pair_id(a, b) for a in sub[k] for b in dn.level(k)]
               for k in range(d + 1)]
        quots.append(sp.quotient_by_subcomplex(sp.product(x_sset, dn), ids))
        # the quotient relabels every collapsed cell to the least id of
        # its level
        collapsed.append([dict.fromkeys(l, min(l, default=None)) for l in ids])

    def pull(n_to, n, vert):
        out = {}
        for k in range(d + 1):
            post, moved = _post(vert, n_to, k), {}
            for c in quots[n_to].level(k):
                a, phi = pairs[n_to][c]
                pid = _pair_id(a, post[phi])
                moved[c] = collapsed[n][k].get(pid, pid)
            out[k] = moved
        return out

    maps = [[f.components for f in sorted(
        sp.enumerate_maps(quot, y_sset, upto=d), key=map_key)]
        for quot in quots]
    return canon_transported_hom(maps, pull, "h")


def reference_hom1_enriched(x_bx, ns, n_max):
    """The direction-1 enriched hom as it was built on pair tables:
    level n names the bisimplicial maps X x p1*(Delta^n) -> ns, sorted by
    the sorted (cell, image) items over the ids of ns, and (x|phi) goes
    to (x|vert . phi); built by canon_transported_hom."""
    region = set(x_bx.region) & set(ns.region)
    top = max(p for p, q in region)
    prods, pairs = [], []
    for n in range(n_max + 1):
        dn = sp.standard_simplex(n, top)
        prods.append(dt._bi_product_p1(x_bx, dn, region))
        pairs.append({_pair_id(a, b): (a, b) for p, q in region
                      for a in x_bx.level(p, q) for b in dn.level(p)})
    names = {pq: sp.namer(ns.level(*pq)) for pq in region}

    def key(f):
        return canon({pq: dict(zip(comp, map(names[pq], comp.values())))
                      for pq, comp in f.items()})

    maps = [sorted(nv.enumerate_bimaps(prod, ns, region=region), key=key)
            for prod in prods]

    def pull(n_to, n, vert):
        out = {}
        for p, q in region:
            post = _post(vert, n_to, p)
            out[p, q] = {c: _pair_id(pairs[n_to][c][0],
                                     post[pairs[n_to][c][1]])
                         for c in prods[n_to].level(p, q)}
        return out

    return canon_transported_hom(maps, pull, "H")


def recursive_map_search(levels, index, tick, pins=None):
    """simplicial.map_search as a recursion, one call per level entered
    and per free cell opened, testing every scheduled constraint with
    holds(); tick() is called once per evaluation."""
    pins = pins or {}
    comps = {lvl: {} for lvl, _, _ in levels}
    order = [(lvl, cell[0]) for lvl, forced, free in levels
             for cell in forced + free]

    def key_of(faces):
        # the faces as (that level's image dict, cell), read at run time
        return tuple([(comps[lvl], cell) for lvl, cell in faces])

    schedule = sp.completion_schedule(
        order, (((index[lvl], key_of(faces)), faces)
                for lvl, _, free in levels for _, faces in free if faces))
    plan = []
    for lvl, forced, free in levels:
        plan.append((
            comps[lvl],
            [(cell, comps[src], a, degen) for cell, src, a, degen in forced],
            [(cell, pins.get((lvl, cell)), index.get(lvl), key_of(faces))
             for cell, faces in free],
            [con for cell, _, _, _ in forced for con in schedule[(lvl, cell)]],
            [schedule[(lvl, cell)] for cell, _ in free]))
    results = []
    last = len(plan)

    def holds(checks):
        return all(tuple([comp[cell] for comp, cell in key]) in idx
                   for idx, key in checks)

    def enter(li):
        if li == last:
            results.append({lvl: dict(comp) for lvl, comp in comps.items()})
            return
        comp, forced, free, forced_checks, _ = plan[li]
        try:
            for cell, src, a, degen in forced:
                comp[cell] = degen[src[a]]
            if not holds(forced_checks):
                return
            cand_lists = []
            for _, pin, idx, key in free:
                tick()
                cands = idx.get(tuple([c[f] for c, f in key]), ())
                if pin is not None:
                    cands = [v for v in cands if v in pin]
                if not cands:
                    return
                cand_lists.append(cands)
            choose(li, 0, cand_lists)
        finally:
            comp.clear()

    def choose(li, pos, cand_lists):
        comp, _, free, _, free_checks = plan[li]
        if pos == len(free):
            enter(li + 1)
            return
        cell = free[pos][0]
        checks = free_checks[pos]
        for v in cand_lists[pos]:
            tick()
            comp[cell] = v
            if holds(checks):
                choose(li, pos + 1, cand_lists)
            del comp[cell]

    enter(0)
    return results


def shift(x_sset):
    """The decalage: level n = old level n+1 with faces d_0..d_n and
    degeneracies s_0..s_{n-1}."""
    if x_sset.dim < 1:
        raise sp.DimensionOutOfRange("shift needs dim >= 1")
    base = None
    if x_sset.is_reduced():
        base = x_sset.degen[0, 0][x_sset.level(0)[0]]
    return sp.build_sset(x_sset.dim - 1, x_sset.levels[1:],
                      lambda name, k, i: getattr(x_sset, name)[k + 1, i],
                      base=base)


def disjoint_union(x_sset, y_sset):
    """Levelwise union with ids L:x and R:y of the (named) cells."""
    x_sset, y_sset = sp.named(x_sset), sp.named(y_sset)

    def tagged(k, chain):
        return ["%s:%s" % (tag, s) for tag, z in (("L", x_sset), ("R", y_sset))
                for s in sp.column(z.level(k), chain(z))]

    dim = min(x_sset.dim, y_sset.dim)
    levels = [tagged(k, lambda z: ()) for k in range(dim + 1)]
    return sp.build_sset(dim, levels, lambda name, k, i: dict(zip(
        levels[k], tagged(k, lambda z: (getattr(z, name)[k, i],)))))


def shift_retraction_check(x_sset):
    """Verify alpha_X . beta_X = id on the vertex level and that
    H(t)_n = s_n..s_t d_t..d_n is a combinatorial homotopy from
    beta.alpha to the identity of the shifted complex.  Every map is a
    chain of face and degeneracy dicts, checked by identity_failures."""
    dim = x_sset.dim - 1
    if dim < 0:
        return ["shift undefined"]
    d, s = x_sset.face, x_sset.degen

    def h(t, n):
        # H(t)_n on level n of the shift = X_{n+1}; d_n acts first
        return ([d[i + 1, i] for i in range(n, t - 1, -1)] +
                [s[i, i] for i in range(t, n + 1)])

    def alpha(n):       # d_0^{n+1} : X_{n+1} -> X_0
        return [d[k, 0] for k in range(n + 1, 0, -1)]

    def beta(n):        # s_0^{n+1} : X_0 -> X_{n+1}
        return [s[k, 0] for k in range(n + 1)]

    # (level, identities) in the order reported; each tag is its
    # message with {} for the cell
    checks = [(0, [(beta(n) + alpha(n), (),
                    "alpha.beta != id at {} (n=%d)" % n)
                   for n in range(dim + 1)])]
    checks += [(n + 1, [(h(n + 1, n), (), "H(n+1) != id at {} (n=%d)" % n),
                        (h(0, n), alpha(n) + beta(n),
                         "H(0) != beta.alpha at {} (n=%d)" % n)])
               for n in range(dim + 1)]
    # the homotopy identities of the combinatorial-homotopy lemma
    checks += [(n + 1, [(h(t, n) + [d[n + 1, i]],
                         [d[n + 1, i]] + h(t if t <= i else t - 1, n - 1),
                         "homotopy d-identity fails (n=%d,t=%d,i=%d,{})"
                         % (n, t, i))
                        for t in range(n + 2) for i in range(n + 1)])
               for n in range(1, dim + 1)]
    checks += [(n + 1, [(h(t, n) + [s[n + 1, j]],
                         [s[n + 1, j]] + h(t if t <= j else t + 1, n + 1),
                         "homotopy s-identity fails (n=%d,t=%d,j=%d,{})"
                         % (n, t, j))
                        for t in range(n + 2) for j in range(n + 1)])
               for n in range(dim)]
    return [tag.format(x) for k, identities in checks
            for x, tag in sp.identity_failures(x_sset.level(k), identities)]


def translation_bijectivity_check(g):
    """For every object X the translations Y -> X(x)Y and Y -> Y(x)X are
    bijections on iso classes and on each hom-set (finite equivalence
    check)."""
    rep = g.base.iso_rep()
    reps = sorted(set(rep.values()))
    for x in g.base.objects:
        if not (gr.bijective([rep[g.t(x, y)] for y in reps], reps) and
                gr.bijective([rep[g.t(y, x)] for y in reps], reps)):
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


def k22_monoidal(w, lunit, runit, name):
    """The monoidal groupoid K(Z/2, Z/2): objects o0, o1, Aut(x) = Z/2
    (morphism k<x>_<a>), tensor (x, a) (x) (y, b) = (x + y, a + b), unit
    o0, with a_{x,y,z} = (x + y + z, w(x, y, z)), l_x = (x, lunit(x))
    and r_x = (x, runit(x)).  Not validated: a w that is not a
    normalised 3-cocycle breaks the pentagon or the triangle."""
    els = (0, 1)

    def mor(x, a):
        return "k%d_%d" % (x, a)

    objs = ["o%d" % x for x in els]
    morphs = [mor(x, a) for x in els for a in els]
    src = {mor(x, a): objs[x] for x in els for a in els}
    comp = {(mor(x, b), mor(x, a)): mor(x, (a + b) % 2)
            for x in els for a in els for b in els}
    base = ca.FinGroupoid(objs, morphs, src, dict(src),
                          {objs[x]: mor(x, 0) for x in els}, comp,
                          inv={f: f for f in morphs}, name="K(Z2,Z2)")
    tobj = {(objs[x], objs[y]): objs[(x + y) % 2] for x in els for y in els}
    tmor = {(mor(x, a), mor(y, b)): mor((x + y) % 2, (a + b) % 2)
            for x in els for a in els for y in els for b in els}
    assoc = {(objs[x], objs[y], objs[z]): mor((x + y + z) % 2, w(x, y, z))
             for x in els for y in els for z in els}
    return ca.MonoidalStructure(
        base, tobj, tmor, objs[0], assoc,
        {objs[x]: mor(x, lunit(x)) for x in els},
        {objs[x]: mor(x, runit(x)) for x in els}, name=name)


def unitor_twisted_monoidal():
    """K(Z/2, Z/2) with the coboundary associator w = dc of the 2-cochain
    c(x, y) = [x != 0 and y == 0]: l_x = c(0, x) = id and r_x = c(x, 0),
    so r_1 is not an identity while l_1 is."""
    def c(x, y):
        return int(x != 0 and y == 0)

    def dc(x, y, z):
        return (c(y, z) + c((x + y) % 2, z) + c(x, (y + z) % 2) + c(x, y)) % 2

    return k22_monoidal(dc, lambda x: c(0, x), lambda x: c(x, 0),
                        "K(Z2,Z2)-dc")


def monoidal_errors(m):
    """MonoidalStructure.validate as it was before it ran on int rows: a
    frozen copy that decides every axiom through the string-keyed
    shorthands t, tm, a, l, r and mor_inverse, in the same order and
    with the same messages."""
    c = m.base
    errs = list(c.validate())
    if errs:
        return errs
    for x in c.objects:
        for y in c.objects:
            if (x, y) not in m.tensor_obj or m.t(x, y) not in c.objects:
                errs.append("tensor undefined on (%s,%s)" % (x, y))
    if m.unit not in c.objects:
        errs.append("unit %s is not an object" % (m.unit,))
    if errs:
        return errs
    for f in c.morphisms:
        for g in c.morphisms:
            fg = m.tensor_mor.get((f, g))
            if fg is None:
                errs.append("tensor undefined on morphisms (%s,%s)" % (f, g))
            elif c.src.get(fg) != m.t(c.src[f], c.src[g]) or \
                    c.tgt.get(fg) != m.t(c.tgt[f], c.tgt[g]):
                errs.append("tensor of (%s,%s) has wrong endpoints" % (f, g))
    if errs:
        return errs
    # functoriality
    for x in c.objects:
        for y in c.objects:
            if m.tm(c.id_of(x), c.id_of(y)) != c.id_of(m.t(x, y)):
                errs.append("tensor does not preserve identities at (%s,%s)" % (x, y))
    for f2 in c.morphisms:
        for f1 in c.morphisms:
            if not c.composable(f2, f1):
                continue
            for g2 in c.morphisms:
                for g1 in c.morphisms:
                    if not c.composable(g2, g1):
                        continue
                    lhs = m.tm(c.comp(f2, f1), c.comp(g2, g1))
                    rhs = c.comp(m.tm(f2, g2), m.tm(f1, g1))
                    if lhs != rhs:
                        errs.append("tensor not functorial at (%s,%s,%s,%s)"
                                    % (f2, f1, g2, g1))
    # coherence morphisms endpoints + iso
    for x in c.objects:
        lx = m.lunit.get(x)
        rx = m.runit.get(x)
        if c.src.get(lx) != x or c.tgt[lx] != m.t(m.unit, x):
            errs.append("left unitor of %s malformed" % x)
        if c.src.get(rx) != x or c.tgt[rx] != m.t(x, m.unit):
            errs.append("right unitor of %s malformed" % x)
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                axyz = m.assoc.get((x, y, z))
                if c.src.get(axyz) != m.t(m.t(x, y), z) or \
                   c.tgt[axyz] != m.t(x, m.t(y, z)):
                    errs.append("associator of (%s,%s,%s) malformed" % (x, y, z))
    if errs:
        return errs
    for x in c.objects:
        try:
            m.mor_inverse(m.l(x))
            m.mor_inverse(m.r(x))
        except ca.CatError:
            errs.append("unitor at %s not invertible" % x)
    for key in m.assoc:
        try:
            m.mor_inverse(m.assoc[key])
        except ca.CatError:
            errs.append("associator at %r not invertible" % (key,))
    if errs:
        return errs
    # naturality of a, l, r
    for f in c.morphisms:
        x, x2 = c.src[f], c.tgt[f]
        if c.comp(m.l(x2), f) != c.comp(m.tm(c.id_of(m.unit), f), m.l(x)):
            errs.append("left unitor not natural at %s" % f)
        if c.comp(m.r(x2), f) != c.comp(m.tm(f, c.id_of(m.unit)), m.r(x)):
            errs.append("right unitor not natural at %s" % f)
    for f in c.morphisms:
        for g in c.morphisms:
            for h in c.morphisms:
                x, y, z = c.src[f], c.src[g], c.src[h]
                x2, y2, z2 = c.tgt[f], c.tgt[g], c.tgt[h]
                lhs = c.comp(m.a(x2, y2, z2), m.tm(m.tm(f, g), h))
                rhs = c.comp(m.tm(f, m.tm(g, h)), m.a(x, y, z))
                if lhs != rhs:
                    errs.append("associator not natural at (%s,%s,%s)" % (f, g, h))
    # pentagon
    for w in c.objects:
        for x in c.objects:
            for y in c.objects:
                for z in c.objects:
                    top = c.comp(m.a(w, x, m.t(y, z)),
                                 m.a(m.t(w, x), y, z))
                    bottom = c.comp(m.tm(c.id_of(w), m.a(x, y, z)),
                                    c.comp(m.a(w, m.t(x, y), z),
                                           m.tm(m.a(w, x, y), c.id_of(z))))
                    if top != bottom:
                        errs.append("pentagon fails at (%s,%s,%s,%s)" % (w, x, y, z))
    # triangle
    for x in c.objects:
        for y in c.objects:
            lhs = c.comp(m.a(x, m.unit, y),
                         m.tm(m.r(x), c.id_of(y)))
            rhs = m.tm(c.id_of(x), m.l(y))
            if lhs != rhs:
                errs.append("triangle fails at (%s,%s)" % (x, y))
    if errs:
        return errs
    # derived consistency checks (consequences of pentagon+triangle)
    if m.l(m.unit) != m.r(m.unit):
        errs.append("derived check failed: l_1 != r_1")
    for x in c.objects:
        for y in c.objects:
            lhs = c.comp(m.a(x, y, m.unit), m.r(m.t(x, y)))
            if lhs != m.tm(c.id_of(x), m.r(y)):
                errs.append("derived right-unit triangle fails at (%s,%s)" % (x, y))
            lhs = c.comp(m.a(m.unit, x, y),
                         m.tm(m.l(x), c.id_of(y)))
            if lhs != m.l(m.t(x, y)):
                errs.append("derived left-unit triangle fails at (%s,%s)" % (x, y))
    return errs


def q_simplex_groupoid(g, q):
    """The groupoid of q-simplices of a 2-group, as a FinCategory table,
    read off the int tables of nerves._SegalLevels."""
    lv = nv._SegalLevels(g, q)
    if q > lv.qmax:
        raise nv.NerveError("structural simplices stop at dimension 3")
    objects, names = lv.obj_names[q], lv.mor_names[q]
    src, tgt = lv.src[q], lv.tgt[q]
    # morphisms in the order they are enumerated: by source, then family
    morphs = list(map(names.__getitem__, lv._rank[q]))
    chains = lv.chains[q]
    ident = dict(zip(objects, map(names.__getitem__, chains.ident)))
    before, after = chains.columns(2)
    comp = dict(zip(zip(map(names.__getitem__, after),
                        map(names.__getitem__, before)),
                    map(names.__getitem__, chains.compose(after, before))))
    # the inverse of a morphism has the inverse of each family member
    inverse = lv.index[q](lv.tgt[q], [map(lv._ix.inv.__getitem__, fs)
                                      for fs in lv.fam[q]])
    inv = dict(zip(names, map(names.__getitem__, inverse)))
    return ca.FinGroupoid(objects, morphs,
                          {names[m]: objects[s] for m, s in enumerate(src)},
                          {names[m]: objects[t] for m, t in enumerate(tgt)},
                          ident, comp, inv=inv,
                          name="simplex-groupoid-%d" % q)


def reference_chain_face(c, m, i, comp):
    """d_i of the chain c (a tuple) of m >= 2 composable arrows, first
    arrow first: drop the first (i = 0) or last (i = m) arrow, else
    replace c[i - 1], c[i] by comp(c[i], c[i - 1])."""
    if i == 0:
        return c[1:]
    if i == m:
        return c[:-1]
    return c[:i - 1] + (comp(c[i], c[i - 1]),) + c[i + 1:]


def reference_chain_degen(c, j, unit_at_src, unit_at_tgt):
    """s_j of the chain c (a tuple) of m >= 1 arrows: the identity of its
    j-th object inserted at place j, unit_at_src(c[0]) for j = 0 and
    unit_at_tgt(c[j - 1]) after."""
    if j == 0:
        return (unit_at_src(c[0]),) + c
    return c[:j] + (unit_at_tgt(c[j - 1]),) + c[j:]


def reference_nerve_category(cat, to_dim):
    """The nerve of cat as built chain by chain on string ids: level m >= 1
    lists the chains of m morphisms as tuples in lexicographic order of
    cat.morphisms, first arrow first, each under its _chain_id, and every
    face and degeneracy is a dict of ids.  (It kept a stray level 1 at
    to_dim = 0, which a dim-0 document cannot hold; the levels stop at
    to_dim here.)"""
    errs = cat.validate()
    if errs:
        raise nv.NerveError("category does not validate: %s" % errs[0])
    chains = [list(cat.objects), [(f,) for f in cat.morphisms]]
    for m in range(2, to_dim + 1):
        chains.append([c + (f,) for c in chains[m - 1] for f in cat.morphisms
                       if cat.src[f] == cat.tgt[c[-1]]])
    levels = [chains[0]] + [list(map(nv._chain_id, cs)) for cs in chains[1:]]

    def op(name, m, i):
        cs = chains[m]
        if name == "face" and m == 1:
            images = [(cat.tgt if i == 0 else cat.src)[c[0]] for c in cs]
        elif name == "face":
            images = [nv._chain_id(reference_chain_face(c, m, i, cat.comp))
                      for c in cs]
        elif m == 0:
            images = [nv._chain_id((cat.ident[x],)) for x in cs]
        else:
            images = [nv._chain_id(reference_chain_degen(
                c, i, lambda f: cat.ident[cat.src[f]],
                lambda f: cat.ident[cat.tgt[f]])) for c in cs]
        return dict(zip(levels[m], images))

    base = cat.objects[0] if len(cat.objects) == 1 else None
    return sp.build_sset(to_dim, levels[:to_dim + 1], op, coskeletal_at=2,
                         base=base)


def direct_product(g, h):
    els = [(a, b) for a in g.elements for b in h.elements]
    table = {((a1, b1), (a2, b2)): (g.mul(a1, a2), h.mul(b1, b2))
             for (a1, b1) in els for (a2, b2) in els}
    return gr.FiniteGroup(els, table, (g.unit, h.unit),
                          name="%sx%s" % (g.name, h.name))


def trivial_group():
    return gr.FiniteGroup(["e"], {("e", "e"): "e"}, "e", name="1")


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


def pi0_map(f_fun):
    g, h = ca.pi0_two_group(f_fun.source), ca.pi0_two_group(f_fun.target)
    rep_h = f_fun.target.base.iso_rep()
    return g, h, {r: rep_h[f_fun.fo(r)] for r in g.elements}


def pi1_map(f_fun):
    g, h = ca.pi1_two_group(f_fun.source), ca.pi1_two_group(f_fun.target)
    return g, h, {phi: f_fun.fm(phi) for phi in g.elements}


def is_weak_equivalence(f_fun):
    """True iff pi0 F and pi1 F are group isomorphisms."""
    errs = f_fun.validate()
    if errs:
        raise ca.CatError("functor does not validate: %s" % errs[0])
    for side in (pi0_map, pi1_map):
        g, h, mapping = side(f_fun)
        if g.iso_failure(h, mapping):
            return False
    return True


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
        raise ca.CatError("functors not composable")
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


# -- the searches against references that recheck every constraint ------------
#
# Each reference is the search as it stood before completion schedules:
# after every assignment it retests every constraint whose variables are
# all assigned.  The map search returns its results and the budget ticks
# it used.


def reference_candidate_index(y_sset, k):
    """dict full-face-tuple -> sorted ids at level k of Y."""
    idx = {}
    for s in y_sset.level(k):
        idx.setdefault(y_sset.face_table(k)[s], []).append(s)
    for v in idx.values():
        v.sort()
    return idx


def reference_maps(x, y, upto):
    d = upto
    if y.dim < d:
        y = sp._ensure_depth(y, d)
    ticks = [0]
    indices = {k: reference_candidate_index(y, k) for k in range(1, d + 1)}
    pres_at = []
    for k in range(d + 1):
        pres = {}
        for j in range(k):
            for a, sa in x.degen[(k - 1, j)].items():
                pres.setdefault(sa, []).append((j, a))
        pres_at.append(pres)
    supports = [dict() for _ in range(d + 1)]
    for k in range(1, d + 1):
        for s in x.level(k):
            for f in set(x.face_table(k)[s]):
                supports[k - 1].setdefault(f, []).append((k, s))
    results = []
    comps = [dict() for _ in range(d + 1)]

    def forward_ok(k, s):
        for (k2, hi) in supports[k].get(s, ()):
            want = tuple(comps[k2 - 1].get(f) for f in x.face_table(k2)[hi])
            if None not in want and want not in indices[k2]:
                return False
        return True

    def assign_level(k):
        if k > d:
            results.append(sp.SSetMap(x, y, {kk: dict(comps[kk])
                                             for kk in range(d + 1)}))
            return
        frees = []
        for s in x.level(k):
            if s not in pres_at[k]:
                frees.append(s)
                continue
            vals = {y.degen[k - 1, j][comps[k - 1][a]]
                    for (j, a) in pres_at[k][s]}
            if len(vals) != 1:
                comps[k] = {}
                return
            v = vals.pop()
            if y.face_table(k)[v] != tuple(comps[k - 1][f]
                                           for f in x.face_table(k)[s]):
                comps[k] = {}
                return
            comps[k][s] = v
        if k < d and not all(forward_ok(k, s) for s in list(comps[k])):
            comps[k] = {}
            return
        cand_lists = []
        for s in frees:
            ticks[0] += 1
            if k == 0:
                cands = list(y.level(0))
            else:
                want = tuple(comps[k - 1][f] for f in x.face_table(k)[s])
                cands = indices[k].get(want, [])
            if not cands:
                comps[k] = {}
                return
            cand_lists.append(cands)

        def choose(idx):
            if idx == len(frees):
                assign_level(k + 1)
                return
            s = frees[idx]
            for v in cand_lists[idx]:
                ticks[0] += 1
                comps[k][s] = v
                if k >= d or forward_ok(k, s):
                    choose(idx + 1)
                del comps[k][s]

        choose(0)
        comps[k] = {}

    assign_level(0)
    if x.base is not None and y.base is not None:
        results = [f for f in results if f(0, x.base) == y.base]
    return results, ticks[0]


def reference_det_morphisms(x, g, det1, det2):
    c = g.base
    (d1, t1), (d2, t2) = det1, det2
    loop0 = x.degen[0, 0][x.level(0)[0]]
    edges = [e for e in x.level(1) if e != loop0]
    assign = {loop0: c.id_of(g.unit)}
    out, ticks = [], [0]

    def nat_ok(t):
        fs = x.face_table(2)[t]
        if any(f not in assign for f in fs):
            return True
        h0, h1, h2 = [assign[f] for f in fs]
        return c.comp(h1, t1[t]) == c.comp(t2[t], g.tm(h2, h0))

    def rec(i):
        ticks[0] += 1
        if i == len(edges):
            out.append(dict(assign))
            return
        for h in c.hom(d1[edges[i]], d2[edges[i]]):
            assign[edges[i]] = h
            if all(nat_ok(t) for t in x.level(2)):
                rec(i + 1)
            del assign[edges[i]]

    rec(0)
    return out, ticks[0]


def reference_column1(x_bx):
    """The column X_{*,1}, truncated at dimension 2."""
    col1 = x_bx.column(1)
    return sp.TruncatedSSet(2, [col1.level(k) for k in range(3)],
                            {k: v for k, v in col1.face.items() if k[0] <= 2},
                            {k: v for k, v in col1.degen.items() if k[0] <= 1},
                            base=col1.base)


def reference_segal_det_morphisms(x_bx, g):
    """det_morphisms(det1, det2), the homotopies X_{*,1} x Delta^1 ->
    N(g.base) of the 2-truncations from det1 to det2: every map of the
    cylinder, listed once by reference_maps, then the endpoint,
    pointedness and id-level naturality filters."""
    c = g.base
    nsg = nv.nerve_category(c, 2)
    mor1 = dict(zip(nsg.level(1), c.morphisms))
    col1_t = reference_column1(x_bx)
    d1 = sp.standard_simplex(1, 2)
    homotopies, _ = reference_maps(sp.product(col1_t, d1), nsg, 2)
    cells = [(k, e) for k in range(3) for e in col1_t.level(k)]
    # the homotopies by their ends, the delta_1 end (at "11..") first
    by_ends = {}
    for h in homotopies:
        by_ends.setdefault(tuple(h(k, "(%s|%s)" % (e, end * (k + 1)))
                                 for end in "10" for k, e in cells),
                           []).append(h)

    def det_morphisms(det1, det2):
        (dm1, t1), (dm2, t2) = det1, det2
        out = []
        for h in by_ends.get(tuple(dm(k, e) for dm in (dm1, dm2)
                                   for k, e in cells), ()):
            def ev(k, e, phi):
                return h(k, "(%s|%s)" % (e, phi))
            if any(ev(k, x_bx.vdegen[k, 0, 0][x_bx.level(k, 0)[0]], phi) !=
                   nsg.deg_base(k, c.objects.index(g.unit))
                   for k in range(3) for phi in d1.level(k)):
                continue
            good = True
            for z in x_bx.level(1, 2):
                top, bot = x_bx.hface[1, 2, 1][z], x_bx.hface[1, 2, 0][z]
                h0, h1, h2 = [mor1[ev(1, x_bx.vface[1, 2, j][z], "01")]
                              for j in range(3)]
                if c.comp(h1, t1[top]) != c.comp(t2[bot], g.tm(h2, h0)):
                    good = False
                    break
            if good:
                out.append(h)
        return out

    return det_morphisms


def reference_det_classes(x, g, dets):
    """The classes of dets under the exists-a-morphism relation: every
    ordered pair searched by reference_det_morphisms, then closed by
    gr.equivalence_classes once the relation is verified an
    equivalence; each class the sorted indices of its members, by least
    member."""
    return _closure(len(dets), lambda i, j: bool(
        reference_det_morphisms(x, g, dets[i], dets[j])[0]))


def reference_segal_classes(x_bx, g, dets):
    """reference_det_classes for the Segal determinants dets, by
    reference_segal_det_morphisms."""
    det_morphisms = reference_segal_det_morphisms(x_bx, g)
    return _closure(len(dets), lambda i, j: bool(
        det_morphisms(dets[i], dets[j])))


def _closure(n, related):
    def fail(law, _):
        return AssertionError("relation not %s" % law)
    classes = {}
    for i, r in gr.equivalence_classes(range(n), related, fail).items():
        classes.setdefault(r, []).append(i)
    return list(classes.values())
