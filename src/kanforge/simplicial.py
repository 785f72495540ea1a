"""Finite truncated simplicial sets.

A TruncatedSSet stores explicit finite levels up to a cutoff dimension
together with total face/degeneracy maps.  All predicates (simplicial
identities, Kan extension, coskeletality, minimality) are decided by
exhaustive scans over the stored range; every report records the range
it actually checked.

Face/degeneracy identities used throughout (the duals of the generating
relations of the simplex category):

    d_i d_j = d_{j-1} d_i            i < j
    s_i s_j = s_{j+1} s_i            i <= j
    d_i s_j = s_{j-1} d_i            i < j
    d_i s_j = id                     i in {j, j+1}
    d_i s_j = s_j d_{i-1}            i > j + 1
"""

import os
from itertools import repeat

from .groups import FiniteGroup


class SimplicialError(Exception):
    pass


class DimensionOutOfRange(SimplicialError):
    pass


class BadHornIndex(SimplicialError):
    pass


class NotCoskeletal(SimplicialError):
    pass


class NotSubcomplex(SimplicialError):
    pass


class NotKan(SimplicialError):
    pass


class SearchBudgetExceeded(SimplicialError):
    pass


class MalformedBudget(SimplicialError):
    pass


DEFAULT_BUDGET = 10 ** 7


def enumeration_budget():
    """The enumeration cap: KANFORGE_BUDGET if set, else DEFAULT_BUDGET.
    A value that is not a non-negative integer raises MalformedBudget."""
    raw = os.environ.get("KANFORGE_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise MalformedBudget(
            "KANFORGE_BUDGET=%r is not a non-negative integer" % raw)
    return cap


class ValidationReport:
    def __init__(self, violations, checked):
        self.violations = violations
        self.checked = checked

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok, checked=%r)" % (self.checked,)
        return "ValidationReport(%d violations)" % len(self.violations)


class TruncatedSSet:
    """Levelwise finite simplicial set truncated at `dim`.

    levels[k]   list of simplex ids (strings), 0 <= k <= dim
    face[k,i]   dict id -> id, level k -> level k-1, 1 <= k <= dim, 0 <= i <= k
    degen[k,j]  dict id -> id, level k -> level k+1, 0 <= k < dim, 0 <= j <= k
    coskeletal_at  optional c asserting the object is c-coskeletal
    base        optional 0-simplex id (pointed variant)
    """

    def __init__(self, dim, levels, face, degen, coskeletal_at=None, base=None):
        self._hold(dim, [list(l) for l in levels],
                   {k: dict(v) for k, v in face.items()},
                   {k: dict(v) for k, v in degen.items()}, coskeletal_at, base)

    @classmethod
    def _adopt(cls, dim, levels, face, degen, coskeletal_at, base):
        """The TruncatedSSet that holds these level lists and operator
        dicts themselves, not copies: for a builder that hands over
        tables it has just made, or that it shares with an object they
        came from.  Nothing writes into a table after construction."""
        out = cls.__new__(cls)
        out._hold(dim, levels, face, degen, coskeletal_at, base)
        return out

    def _hold(self, dim, levels, face, degen, coskeletal_at, base):
        if dim < 0:
            raise DimensionOutOfRange("dimension %d is negative" % dim)
        self.dim = dim
        self.levels = levels
        self.face = face
        self.degen = degen
        self.coskeletal_at = coskeletal_at
        self.base = base
        self._index = [set(l) for l in self.levels]
        self._face_tables = {}
        self._faces_compatible = {}
        self._kan_rows = {}

    # -- basic access ----------------------------------------------------

    def level(self, k):
        if not (0 <= k <= self.dim):
            raise DimensionOutOfRange("no level %d in a %d-truncation" % (k, self.dim))
        return self.levels[k]

    def d(self, k, i, x):
        return self.face[(k, i)][x]

    def s(self, k, j, x):
        return self.degen[(k, j)][x]

    def faces(self, k, x):
        return self.face_table(k)[x]

    def face_table(self, k):
        """dict id -> (d_0 x, .., d_k x) over level k, built once (the
        object is immutable); empty at level 0, which has no faces."""
        table = self._face_tables.get(k)
        if table is None:
            table = self._face_tables[k] = tabulate_faces(
                self.levels[k], [self.face[k, i] for i in range(k + 1) if k])
        return table

    def deg_base(self, n, a=None):
        """The totally degenerate n-simplex s_0^n(a)."""
        a = self.base if a is None else a
        if a is None:
            raise SimplicialError("no base simplex chosen")
        x = a
        for k in range(n):
            x = self.s(k, 0, x)
        return x

    def is_reduced(self):
        return len(self.levels[0]) == 1

    def degenerate_ids(self, k):
        """Ids in level k that are in the image of some degeneracy."""
        if k == 0:
            return set()
        out = set()
        for j in range(k):
            out.update(self.degen[(k - 1, j)].values())
        return out

    def nondegenerate_counts(self):
        return [len(self.levels[k]) - len(self.degenerate_ids(k))
                for k in range(self.dim + 1)]

    # -- validation -------------------------------------------------------

    def validate(self):
        errs = []
        for name, k, i in operator_keys(self.dim):
            step = STEPS[name]
            errs += totality_failures(
                LABELS[name], "(%d,%d)" % (k, i),
                getattr(self, name).get((k, i)), self.levels[k],
                self._index[k + step], k + step)
        if errs:
            return ValidationReport(errs, "totality only (maps missing)")
        d, s = self.face, self.degen
        # (name, level, identities tagged (i, j)) in the order reported,
        # with the identities of the module docstring
        checks = [("dd", k, dd_identities(d, k))
                  for k in range(2, self.dim + 1)]
        checks += [("ss", k, [((s[k, j], s[k + 1, i]),
                               (s[k, i], s[k + 1, j + 1]), (i, j))
                              for j in range(k + 1) for i in range(j + 1)])
                   for k in range(self.dim - 1)]
        checks += [("ds", k, [((s[k, j], d[k + 1, i]),
                               () if j <= i <= j + 1 else
                               (d[k, i], s[k - 1, j - 1]) if i < j else
                               (d[k, i - 1], s[k - 1, j]), (i, j))
                              for j in range(k + 1) for i in range(k + 2)])
                   for k in range(self.dim)]
        for name, k, identities in checks:
            errs += ["%s identity fails at %s (k=%d,i=%d,j=%d)"
                     % (name, x, k, i, j)
                     for x, (i, j) in identity_failures(self.levels[k],
                                                        identities)]
        if not errs:
            # faces land in their levels and the dd identities hold
            self._faces_compatible.update(dict.fromkeys(range(self.dim), True))
        if self.base is not None and self.base not in self._index[0]:
            errs.append("base %s is not a 0-simplex" % self.base)
        if self.coskeletal_at is not None and not errs:
            # faces_compatible holds, so alpha^m is decided by count
            c = self.coskeletal_at
            for m in range(max(c, 0), self.dim):
                if alpha_bijective(self, m) != (True, True):
                    errs.append("coskeletal_at=%d violated: alpha^%d not bijective" % (c, m))
        return ValidationReport(errs, "identities in dims <= %d" % self.dim)


# -- operator tables ---------------------------------------------------------
#
# Every derived complex is built by build_sset, which fills the tables
# listed by operator_keys; validate requires the same keys.

# each operator table, the step from its source level to its target
# level, and its name in reports
STEPS = {"face": -1, "degen": 1}
LABELS = {"face": "face", "degen": "degeneracy"}


def operator_keys(dim):
    """(table, k, i) for every operator a dim-truncation carries: faces
    (k, i) for 1 <= k <= dim, then degeneracies (k, j) for k < dim, each
    with 0 <= i <= k, in that order."""
    return [(name, k, i) for name, step in STEPS.items()
            for k in range(dim + 1) if 0 <= k + step <= dim
            for i in range(k + 1)]


def build_sset(dim, levels, op, coskeletal_at=None, base=None):
    """The TruncatedSSet whose table `table` holds op(table, k, i) at
    (k, i) for each key of operator_keys(dim).  It holds the lists of
    `levels` and the dicts op returns as they are, not copies."""
    tables = {name: {} for name in STEPS}
    for name, k, i in operator_keys(dim):
        tables[name][k, i] = op(name, k, i)
    return TruncatedSSet._adopt(dim, list(levels), tables["face"],
                                tables["degen"], coskeletal_at, base)


def truncate(x_sset, dim):
    """The truncation of X at dim <= X.dim: levels 0..dim and the
    operators among them, with X's coskeletal flag and base.  It shares
    X's level lists and operator dicts."""
    if not 0 <= dim <= x_sset.dim:
        raise DimensionOutOfRange(
            "cannot truncate a %d-truncation at %d" % (x_sset.dim, dim))
    return build_sset(dim, x_sset.levels[:dim + 1],
                      lambda name, k, i: getattr(x_sset, name)[k, i],
                      x_sset.coskeletal_at, x_sset.base)


# -- column-wise checks --------------------------------------------------
#
# A whole level goes through the operator dicts at once; the cells are
# walked one by one only to name a failure.

_UNDEFINED = object()


def column(cells, chain):
    """The images of cells under the dicts of chain, first to last, as
    one list."""
    for mp in chain:
        cells = list(map(mp.__getitem__, cells))
    return cells


def relabel(cells, mp, src=None, dst=None):
    """{src[c]: dst[mp[c]]} over cells, src and dst the identity where
    None, one column at a time.  Where src sends two cells to one key,
    the key keeps its first place and takes the last image."""
    keys = cells if src is None else column(cells, (src,))
    chain = (mp,) if dst is None else (mp, dst)
    return dict(zip(keys, column(cells, chain)))


def pair_columns(xs, ys):
    """The pairs of xs x ys in lexicographic order, as two columns."""
    return [a for a in xs for _ in ys], list(ys) * len(xs)


def tabulate_faces(cells, maps):
    """dict cell -> (m_0 cell, .., m_n cell) over cells, zipped from one
    column per map; empty when there are no maps."""
    return dict(zip(cells, zip(*[column(cells, (mp,)) for mp in maps])))


def totality_failures(name, key, mp, cells, target, level):
    """The violations of the operator dict mp (the `name` map `key`, or
    None when missing) on cells: a cell it is undefined on, or one it
    sends outside the set target of level `level`; in cell order."""
    if mp is None:
        return ["missing %s map %s" % (name, key)]
    images = list(map(mp.get, cells, repeat(_UNDEFINED)))
    if target.issuperset(images):
        return []
    return ["%s %s undefined on %s" % (name, key, x) if y is _UNDEFINED
            else "%s %s(%s) lands outside level %s" % (name, key, x, level)
            for x, y in zip(cells, images) if y not in target]


def identity_failures(cells, identities):
    """(cell, tag) for each cell on which an identity (lhs, rhs, tag)
    fails, the two chains of dicts sending it to different cells; sorted
    by (cell position, identity index).  Both sides are computed a whole
    column at a time, and the cells are walked only where they differ."""
    bad = []
    for n, (lhs, rhs, _) in enumerate(identities):
        got, want = column(cells, lhs), column(cells, rhs)
        if got != want:
            bad += [(pos, n) for pos, (a, b) in enumerate(zip(got, want))
                    if a != b]
    return [(cells[pos], identities[n][2]) for pos, n in sorted(bad)]


def dd_identities(face, k):
    """d_i d_j = d_{j-1} d_i on level k for i < j, tagged (i, j), over
    face dicts keyed (level, index)."""
    return [((face[k, j], face[k - 1, i]), (face[k, i], face[k - 1, j - 1]),
             (i, j)) for j in range(1, k + 1) for i in range(j)]


# -- boundary / horn tuples ---------------------------------------------


def compatible_tuples(cells, faces, m, skip=None, count=False):
    """All (m+2)-tuples (a_0..a_{m+1}) of cells with d_i a_j = d_{j-1} a_i
    for i < j, slot `skip` (if given) left out and set to None; with
    count=True only their number, and no tuple is built.

    faces maps each cell to (d_0 a, .., d_m a) and is not read when
    m == 0, where there are no conditions.  The candidates for slot j
    are bucketed by the faces the earlier slots force on them, each
    bucket in the order of `cells`.  Every prefix is extended one slot
    at a time, so the tuples come out in lexicographic level order; in
    count mode the last slot adds up the sizes of the prefixes' buckets.
    """
    slots = [j for j in range(m + 2) if j != skip]
    last = slots[-1]
    cell_faces = [faces[a] for a in cells] if m else []
    prefixes = [(None,) if skip == 0 else ()]
    for pos, j in enumerate(slots):
        if not prefixes:
            break
        prior = slots[:pos] if m else []
        # what a cell adds to a prefix: itself, then None when the next
        # slot is the skipped one
        tail = (None,) if j + 1 == skip else ()
        if not prior:
            if count and j == last:
                return len(prefixes) * len(cells)
            ext = [(a,) + tail for a in cells]
            prefixes = [p + e for p in prefixes for e in ext]
            continue
        # keys are zipped from columns, one comprehension per earlier
        # slot rather than one per cell or prefix
        bucket = {}
        for key, a in zip(zip(*[[fa[i] for fa in cell_faces] for i in prior]),
                          cells):
            bucket.setdefault(key, []).append((a,) + tail)
        keys = zip(*[[faces[p[i]][j - 1] for p in prefixes] for i in prior])
        if count and j == last:
            sizes = {key: len(v) for key, v in bucket.items()}
            return sum([sizes.get(key, 0) for key in keys])
        prefixes = [p + e for p, key in zip(prefixes, keys)
                    for e in bucket.get(key, ())]
    return len(prefixes) if count else prefixes


def boundary_tuples(x_sset, m):
    """All (m+2)-tuples (a_0..a_{m+1}) of m-simplices with
    d_i a_j = d_{j-1} a_i for i < j; the maps from the boundary of the
    (m+1)-simplex.  Tuples come out in lexicographic level order; the
    face table of level m is built once per (immutable) complex."""
    if not (0 <= m <= x_sset.dim):
        raise DimensionOutOfRange("boundary tuples need level %d" % m)
    return compatible_tuples(x_sset.level(m), x_sset.face_table(m), m)


def horn_tuples(x_sset, m, k):
    """Maps out of the k-horn of the (m+1)-simplex, as tuples of length
    m+2 with None in slot k.  Tuples come out in lexicographic level
    order; the face table of level m is built once per (immutable)
    complex."""
    if not (0 <= m <= x_sset.dim):
        raise DimensionOutOfRange("horn tuples need level %d" % m)
    if not (0 <= k <= m + 1):
        raise BadHornIndex("horn index %d out of range for m=%d" % (k, m))
    return compatible_tuples(x_sset.level(m), x_sset.face_table(m), m, skip=k)


def boundary_alpha(x_sset, m):
    """alpha^m: level[m+1] -> boundary tuples, x -> (d_0 x, .., d_{m+1} x)."""
    if m + 1 > x_sset.dim:
        raise DimensionOutOfRange("alpha^%d needs level %d" % (m, m + 1))
    return dict(x_sset.face_table(m + 1))


def horn_alpha(x_sset, m, k):
    """alpha^{m,k}: level[m+1] -> horn tuples (None in slot k)."""
    if m + 1 > x_sset.dim:
        raise DimensionOutOfRange("alpha^{%d,%d} needs level %d" % (m, k, m + 1))
    return {x: t[:k] + (None,) + t[k + 1:]
            for x, t in x_sset.face_table(m + 1).items()}


def horn_fillers(x_sset, m, k, horn):
    """All x in level m+1 whose faces match the horn tuple (None at k)."""
    alpha = horn_alpha(x_sset, m, k)
    return sorted(x for x, t in alpha.items() if t == horn)


class KanRow:
    """Kan status of one dimension: per horn index k, surjectivity and
    injectivity of alpha^{m,k}, and the minimality condition in
    dimension m."""

    def __init__(self, m, flags, witness, minimal):
        self.m = m
        self.flags = flags          # k -> (surjective, injective)
        self.witness = witness
        self.minimal = minimal

    @property
    def kan(self):
        return all(s for s, _ in self.flags.values())

    @property
    def strict(self):
        return all(s and i for s, i in self.flags.values())

    @property
    def unique_fillers(self):
        return all(i for _, i in self.flags.values())


def faces_compatible(x_sset, m):
    """Whether every face tuple of level m+1 is a boundary tuple of
    level m: its entries lie in level m and d_i a_j = d_{j-1} a_i for
    i < j (the dd identities on level m+1).  Then the image of alpha^m,
    and with slot k dropped that of alpha^{m,k}, lies among the
    compatible tuples, so alpha is onto iff the image is as large as
    their count.  Decided once per (immutable) complex and m."""
    ok = x_sset._faces_compatible.get(m)
    if ok is None:
        cells, face = x_sset.levels[m + 1], x_sset.face
        ok = all(x_sset._index[m].issuperset(column(cells, (face[m + 1, j],)))
                 for j in range(m + 2))
        if ok and m:
            ok = not identity_failures(cells, dd_identities(face, m + 1))
        x_sset._faces_compatible[m] = ok
    return ok


def alpha_bijective(x_sset, m):
    """(surjective, injective) for alpha^m: x -> (d_0 x, .., d_{m+1} x)
    on level m+1.  Boundary tuples are distinct, so "onto" is an equal
    count plus membership; membership holds when faces_compatible does,
    and only otherwise are the boundary tuples listed."""
    table = x_sset.face_table(m + 1)
    image = set(table.values())
    inj = len(image) == len(table)
    if faces_compatible(x_sset, m):
        surj = len(image) == compatible_tuples(
            x_sset.level(m), x_sset.face_table(m), m, count=True)
    else:
        tuples = boundary_tuples(x_sset, m)
        surj = len(image) == len(tuples) and all(t in image for t in tuples)
    return surj, inj


def kan_status(x_sset, m):
    """Decide surjectivity/injectivity of alpha^{m,k} for 0 <= k <= m+1,
    and minimality in dimension m.

    Per k, the cells of level m+1 are keyed by their horn (faces with
    None in slot k): a repeated key breaks injectivity, and, if the two
    cells' k-th faces differ, minimality.  When faces_compatible holds,
    alpha^{m,k} is onto iff the count of horn tuples equals the number
    of keys; the horns are listed, to name the first one without a
    filler, only when the count is larger or the condition fails.

    If level m+1 is not stored but the complex carries a coskeletal flag,
    the complex is extended first.  The row is computed once per (immutable)
    complex and m; later calls return the same KanRow.
    """
    row = x_sset._kan_rows.get(m)
    if row is not None:
        return row
    x = _ensure_depth(x_sset, m + 1)
    table = x.face_table(m + 1)
    cols = list(zip(*table.values())) or [()] * (m + 2)
    nones = (None,) * len(table)
    counted = faces_compatible(x, m)
    flags, witness = {}, {}
    minimal = True
    for k in range(m + 2):
        horns = list(zip(*cols[:k], nones, *cols[k + 1:]))
        seen = set(horns)
        inj = len(seen) == len(horns)
        if not inj:
            # each repeat against the first cell with its horn; the
            # witness is the last repeat
            first = {}
            for (s, t), h in zip(table.items(), horns):
                f = first.setdefault(h, s)
                if f != s:
                    witness[(k, "inj")] = (f, s)
                    if t[k] != table[f][k]:
                        minimal = False
        surj = counted and len(seen) == compatible_tuples(
            x.level(m), x.face_table(m), m, skip=k, count=True)
        if not surj:
            surj = True
            for h in horn_tuples(x, m, k):
                if h not in seen:
                    surj = False
                    witness[(k, "surj")] = h
                    break
        flags[k] = (surj, inj)
    row = x_sset._kan_rows[m] = KanRow(m, flags, witness, minimal)
    return row


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
            if rows[m].unique_fillers:
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
    rows = {m: kan_status(x_sset, m) for m in range(top + 1)}
    return KanReport(rows)


def _ensure_depth(x_sset, depth):
    if x_sset.dim >= depth:
        return x_sset
    if x_sset.coskeletal_at is not None and x_sset.coskeletal_at <= x_sset.dim + 1:
        return coskeletal_extend(x_sset, depth)
    raise DimensionOutOfRange(
        "need level %d but truncation stops at %d (no coskeletal flag)"
        % (depth, x_sset.dim))


def minimality_at(x_sset, m):
    """Minimality condition in dimension m: simplices of level m+1 whose
    faces agree away from slot k also agree at slot k.  Read from the
    memoised Kan row, whose pass over each alpha^{m,k} decides it."""
    return kan_status(x_sset, m).minimal


class ClassifyReport:
    def __init__(self, n, n_coskeletal, weakly_n_coskeletal, n_minimal,
                 n_kan_groupoid, checked_dims, detail):
        self.n = n
        self.n_coskeletal = n_coskeletal
        self.weakly_n_coskeletal = weakly_n_coskeletal
        self.n_minimal = n_minimal
        self.n_kan_groupoid = n_kan_groupoid
        self.checked_dims = checked_dims
        self.detail = detail

    def __repr__(self):
        return ("ClassifyReport(n=%d, cosk=%s, weak=%s, min=%s, kan_grpd=%s, dims=%s)"
                % (self.n, self.n_coskeletal, self.weakly_n_coskeletal,
                   self.n_minimal, self.n_kan_groupoid, self.checked_dims))


def classify(x_sset, n):
    """Coskeletal / weakly coskeletal / minimal / n-Kan-groupoid flags.

    n_kan_groupoid is decided per the characterisation: weakly
    n-coskeletal, Kan extension in dimensions 1..n+1 and minimality in
    dimension n.  Checks run over the stored range only.
    """
    x = x_sset
    detail = {}
    top = x.dim - 1      # largest m with level m+1 stored

    cosk = True
    for m in range(n, top + 1):
        s, i = alpha_bijective(x, m)
        detail[("alpha", m)] = (s, i)
        if not (s and i):
            cosk = False
    weak = True
    if n <= top and not detail[("alpha", n)][1]:
        weak = False
    for m in range(n + 1, top + 1):
        s, i = detail[("alpha", m)]
        if not (s and i):
            weak = False
    minimal = True
    for m in range(n, top + 1):
        ok = minimality_at(x, m)
        detail[("minimal", m)] = ok
        if not ok:
            minimal = False
    kan_ok = True
    for m in range(1, min(n + 1, top) + 1):
        row = kan_status(x, m)
        detail[("kan", m)] = row.flags
        if not row.kan:
            kan_ok = False
    min_at_n = detail.get(("minimal", n))
    groupoid = bool(weak and kan_ok and (min_at_n is not False))
    checked = "alpha on %d..%d, kan on 1..%d" % (n, top, min(n + 1, top))
    return ClassifyReport(n, cosk, weak, minimal, groupoid, checked, detail)


# -- coskeletal machinery -------------------------------------------------


def _tuple_id(parts):
    return "(" + ",".join(parts) + ")"


def coskeletal_extend(x_sset, to_dim):
    """Extend levels above the stored cutoff with boundary tuples.

    New faces are projections; new degeneracies follow
    s_i(a) = (b_0..b_{m+1}) with b_k = s_{i-1} d_k a for k < i,
    b_k = a for k in {i, i+1} and b_k = s_i d_{k-1} a for k > i+1.
    """
    if x_sset.coskeletal_at is None:
        raise NotCoskeletal("complex carries no coskeletal flag")
    if x_sset.coskeletal_at > x_sset.dim + 1:
        raise NotCoskeletal("flag %d exceeds stored dim+1" % x_sset.coskeletal_at)
    if to_dim <= x_sset.dim:
        return x_sset
    # the constructor copies, so the new levels and maps are added to
    # shallow copies of the input's
    levels = list(x_sset.levels)
    face = dict(x_sset.face)
    degen = dict(x_sset.degen)
    cur = x_sset
    for new_dim in range(x_sset.dim + 1, to_dim + 1):
        m = new_dim - 1
        tuples = boundary_tuples(cur, m)
        ids = [_tuple_id(t) for t in tuples]
        levels.append(ids)
        for i in range(new_dim + 1):
            face[(new_dim, i)] = {x: t[i] for x, t in zip(ids, tuples)}
        # s_j a is a boundary tuple when the identities hold; its id is
        # spelled out only when it is not
        id_of = dict(zip(tuples, ids))
        faces = cur.face_table(m)
        for j in range(m + 1):
            below, above = degen.get((m - 1, j - 1)), degen.get((m - 1, j))
            mapping = {}
            for a in levels[m]:
                fa = faces[a] if m else ()
                parts = tuple([below[f] for f in fa[:j]]) + (a, a) + \
                    tuple([above[f] for f in fa[j + 1:]])
                mapping[a] = id_of.get(parts) or _tuple_id(parts)
            degen[(m, j)] = mapping
        cur = TruncatedSSet(new_dim, levels, face, degen,
                            coskeletal_at=x_sset.coskeletal_at, base=x_sset.base)
    return cur


def csq_prime(x_sset, n):
    """Quotient level n+1 by the equal-faces relation and rebuild the
    levels above coskeletally.  Returns (Y, level_maps) where level_maps
    sends old ids to new ids on levels 0..n+1."""
    if n + 1 > x_sset.dim:
        raise DimensionOutOfRange("csq' needs level %d" % (n + 1))
    x = x_sset
    # classes of the equal-faces relation on level n+1
    byfaces = {}
    for s in x.level(n + 1):
        byfaces.setdefault(x.faces(n + 1, s), []).append(s)
    rep = {}
    for cls in byfaces.values():
        r = min(cls)
        for s in cls:
            rep[s] = r
    levels = x.levels[:n + 1] + [sorted(set(rep.values()))]

    def op(name, k, i):
        # the operators into and out of level n+1 go through the classes
        mp = getattr(x, name)[k, i]
        if k == n + 1:
            return relabel(x.level(k), mp, src=rep)
        if name == "degen" and k == n:
            return relabel(x.level(k), mp, dst=rep)
        return mp

    out = build_sset(n + 1, levels, op, coskeletal_at=n + 1, base=x.base)
    if x.dim > n + 1:
        out = coskeletal_extend(out, x.dim)
    maps = {k: {s: s for s in x.levels[k]} for k in range(n + 1)}
    maps[n + 1] = dict(rep)
    return out, maps


# -- shift and loop spaces -------------------------------------------------


def shift(x_sset):
    """The decalage: level n = old level n+1 with faces d_0..d_n and
    degeneracies s_0..s_{n-1}."""
    if x_sset.dim < 1:
        raise DimensionOutOfRange("shift needs dim >= 1")
    base = None
    if x_sset.is_reduced():
        base = x_sset.s(0, 0, x_sset.level(0)[0])
    return build_sset(x_sset.dim - 1, x_sset.levels[1:],
                      lambda name, k, i: getattr(x_sset, name)[k + 1, i],
                      base=base)


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
            for x, tag in identity_failures(x_sset.level(k), identities)]


def loop_space(x_sset, variant="plain", base=None):
    """Combinatorial loop space.

    plain:   level n = simplices of level n+1 whose last face is the
             totally degenerate base.
    reduced: input must be reduced; additionally every iterated face
             d_{i_j} (indices 0 <= i_j <= top-1 at each step) lands on
             the degenerate 1-simplex.
    """
    x = x_sset
    if x.dim < 2:
        raise DimensionOutOfRange("loop space needs dim >= 2")
    if variant == "reduced" and not x.is_reduced():
        raise SimplicialError("reduced loop space needs a reduced complex")
    a = base if base is not None else (x.base or (x.level(0)[0] if x.is_reduced() else None))
    if a is None:
        raise SimplicialError("no base point")
    dim = x.dim - 1
    keep = []
    star1 = x.deg_base(1, a)
    for n in range(dim + 1):
        bn = x.deg_base(n, a)
        lvl = []
        for s in x.level(n + 1):
            if x.d(n + 1, n + 1, s) != bn:
                continue
            if variant == "reduced" and n == 0 and s != star1:
                # level 0 of the reduced variant is the degenerate loop only
                continue
            if variant == "reduced" and n >= 1:
                frontier = {s}
                for k in range(n + 1, 1, -1):       # d_i, 0 <= i <= k - 1
                    frontier = {x.d(k, i, t) for t in frontier
                                for i in range(k)}
                if frontier != {star1}:
                    continue
            lvl.append(s)
        keep.append(lvl)
    out = build_sset(dim, keep, lambda name, k, i: relabel(
        keep[k], getattr(x, name)[k + 1, i]), base=star1)
    if not all(out._index[k - 1].issuperset(mp.values())
               for (k, _), mp in out.face.items()):
        raise SimplicialError("loop space not closed under faces")
    return out


# -- homotopy groups -------------------------------------------------------


def pi0(x_sset):
    """Coequalizer of d_0, d_1 : level 1 -> level 0."""
    parent = {v: v for v in x_sset.level(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    if x_sset.dim >= 1:
        for e in x_sset.level(1):
            union(x_sset.d(1, 0, e), x_sset.d(1, 1, e))
    classes = {}
    for v in x_sset.level(0):
        classes.setdefault(find(v), []).append(v)
    return sorted(classes)


def pi(x_sset, m, base=None):
    """Combinatorial homotopy group in dimension m >= 1 at the base.

    Requires Kan certification in dimensions 1..m+1 (extending a flagged
    coskeletal complex when the top level is missing); refuses otherwise.
    """
    return pi_with_classes(x_sset, m, base)[0]


def pi_with_classes(x_sset, m, base=None):
    """Like pi() but also returns the sphere -> class-representative map."""
    a = base if base is not None else x_sset.base
    if m == 0:
        return pi0(x_sset), {}
    if a is None:
        raise SimplicialError("pi_m needs a base 0-simplex")
    x = _ensure_depth(x_sset, m + 2) if (
        x_sset.coskeletal_at is not None and x_sset.dim < m + 2) else x_sset
    if x.dim < m + 1:
        raise DimensionOutOfRange("pi_%d needs level %d" % (m, m + 1))
    certified_to = min(m + 1, x.dim - 1)
    for mm in range(1, certified_to + 1):
        if not kan_status(x, mm).kan:
            raise NotKan("Kan extension fails in dimension %d" % mm)
    if certified_to < m:
        raise NotKan("cannot certify Kan up to dimension %d (range stops at %d)"
                     % (m, certified_to))

    bm = x.deg_base(m, a)
    bm1 = x.deg_base(m - 1, a)
    spheres = [s for s in x.level(m)
               if all(x.d(m, i, s) == bm1 for i in range(m + 1))]
    sset = set(spheres)
    upper = x.face_table(m + 1).values()

    # identification relation via level m+1
    rel = set()
    for fs in upper:
        if all(fs[i] == bm for i in range(m)) and fs[m] in sset and fs[m + 1] in sset:
            rel.add((fs[m + 1], fs[m]))
    for s in spheres:
        if (s, s) not in rel:
            raise NotKan("homotopy relation not reflexive at %s" % s)
    if any((b2, a2) not in rel for (a2, b2) in rel):
        raise NotKan("homotopy relation not symmetric")
    for (p, q) in list(rel):
        for (q2, r) in list(rel):
            if q2 == q and (p, r) not in rel:
                raise NotKan("homotopy relation not transitive")
    classes = {}
    for s in spheres:
        cls = min(t for t in spheres if (s, t) in rel)
        classes[s] = cls
    reps = sorted(set(classes.values()))

    # product via the filler condition: for z in level m+1 with
    # d_{m+1} z = x, d_{m-1} z = y and lower faces at the base,
    # x*y = d_m z.
    table = {}
    for fs in upper:
        if any(fs[i] != bm for i in range(m - 1)):
            continue
        if fs[m + 1] in sset and fs[m - 1] in sset and fs[m] in sset:
            key = (classes[fs[m + 1]], classes[fs[m - 1]])
            val = classes[fs[m]]
            if key in table and table[key] != val:
                raise NotKan("product not well defined at %r" % (key,))
            table[key] = val
    for p in reps:
        for q in reps:
            if (p, q) not in table:
                raise NotKan("product undefined at (%s, %s)" % (p, q))
    unit = classes[bm]
    g = FiniteGroup(reps, table, unit, name="pi_%d" % m)
    errs = g.validate()
    if errs:
        raise NotKan("group axioms fail: %s" % errs[0])
    return g, classes


# -- standard complexes ----------------------------------------------------


def _monotone_maps(k, n):
    """Nondecreasing maps [k] -> [n], as tuples."""
    out = []
    def rec(prefix):
        if len(prefix) == k + 1:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, n + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()
    rec([])
    return out


def _mid(t):
    return "".join(str(v) for v in t)


def standard_simplex(n, dim):
    """The n-simplex truncated at `dim`; simplices are digit strings of
    nondecreasing vertex sequences."""
    maps = [_monotone_maps(k, n) for k in range(dim + 1)]
    levels = [[_mid(t) for t in ts] for ts in maps]

    def op(name, k, i):
        # d_i drops vertex i, s_i repeats it
        cut = (i, i + 1) if name == "face" else (i + 1, i)
        return dict(zip(levels[k], [_mid(t[:cut[0]] + t[cut[1]:])
                                    for t in maps[k]]))

    return build_sset(dim, levels, op, coskeletal_at=0 if n == 0 else n)


def generated_subcomplex(x_sset, seeds):
    """Ids per level of the smallest subcomplex containing the seeds.

    seeds: dict level -> iterable of ids.
    """
    keep = [set() for _ in range(x_sset.dim + 1)]
    stack = []
    for k, ids in seeds.items():
        for s in ids:
            if s not in keep[k]:
                keep[k].add(s)
                stack.append((k, s))
    while stack:
        k, s = stack.pop()
        if k >= 1:
            for i in range(k + 1):
                t = x_sset.d(k, i, s)
                if t not in keep[k - 1]:
                    keep[k - 1].add(t)
                    stack.append((k - 1, t))
        if k < x_sset.dim:
            for j in range(k + 1):
                t = x_sset.s(k, j, s)
                if t not in keep[k + 1]:
                    keep[k + 1].add(t)
                    stack.append((k + 1, t))
    return [sorted(l) for l in keep]


def is_subcomplex(x_sset, ids_per_level):
    sets = [set(l) for l in ids_per_level]
    while len(sets) < x_sset.dim + 1:
        sets.append(set())
    for k in range(x_sset.dim + 1):
        cells = list(sets[k])
        if not x_sset._index[k].issuperset(cells) or not all(
                sets[k + step].issuperset(column(cells, (ops[k, i],)))
                for ops, step in ((x_sset.face, -1), (x_sset.degen, 1))
                if 0 <= k + step <= x_sset.dim for i in range(k + 1)):
            return False
    return True


def boundary_simplex(n, dim):
    """The boundary of the n-simplex, as a subcomplex of it."""
    full = standard_simplex(n, dim)
    seeds = {}
    if n >= 1:
        faces = [t for t in _monotone_maps(n - 1, n)
                 if len(set(t)) == n]  # injective (n-1)-faces
        seeds[n - 1] = [_mid(t) for t in faces]
    else:
        seeds[0] = []
    ids = generated_subcomplex(full, seeds)
    return restrict_to_subcomplex(full, ids)


def horn_complex(n, k, dim):
    """The k-horn of the n-simplex: the facets are the injective maps
    missing exactly one vertex, and the one missing vertex k is dropped."""
    full = standard_simplex(n, dim)
    faces = [t for t in _monotone_maps(n - 1, n)
             if len(set(t)) == n and (set(range(n + 1)) - set(t)) != {k}]
    ids = generated_subcomplex(full, {n - 1: [_mid(t) for t in faces]})
    return restrict_to_subcomplex(full, ids)


def restrict_to_subcomplex(x_sset, ids_per_level):
    if not is_subcomplex(x_sset, ids_per_level):
        raise NotSubcomplex("ids are not closed under faces/degeneracies")
    levels = [sorted(l) for l in ids_per_level]
    base = x_sset.base if x_sset.base in set(levels[0]) else None
    return build_sset(x_sset.dim, levels, lambda name, k, i: relabel(
        levels[k], getattr(x_sset, name)[k, i]), base=base)


def product(x_sset, y_sset):
    """Levelwise product with pair ids (x|y)."""
    dim = min(x_sset.dim, y_sset.dim)
    def pid(a, b):
        return "(%s|%s)" % (a, b)
    cols = [pair_columns(x_sset.level(k), y_sset.level(k))
            for k in range(dim + 1)]
    levels = [list(map(pid, xs, ys)) for xs, ys in cols]

    def op(name, k, i):
        xs, ys = cols[k]
        return dict(zip(levels[k], map(
            pid, column(xs, (getattr(x_sset, name)[k, i],)),
            column(ys, (getattr(y_sset, name)[k, i],)))))

    base = None
    if x_sset.base is not None and y_sset.base is not None:
        base = pid(x_sset.base, y_sset.base)
    cosk = None
    if x_sset.coskeletal_at is not None and y_sset.coskeletal_at is not None:
        cosk = max(x_sset.coskeletal_at, y_sset.coskeletal_at)
    return build_sset(dim, levels, op, coskeletal_at=cosk, base=base)


def disjoint_union(x_sset, y_sset):
    def tagged(k, chain):
        return ["%s:%s" % (tag, s) for tag, z in (("L", x_sset), ("R", y_sset))
                for s in column(z.level(k), chain(z))]

    dim = min(x_sset.dim, y_sset.dim)
    levels = [tagged(k, lambda z: ()) for k in range(dim + 1)]
    return build_sset(dim, levels, lambda name, k, i: dict(zip(
        levels[k], tagged(k, lambda z: (getattr(z, name)[k, i],)))))


def quotient_by_subcomplex(x_sset, ids_per_level):
    """Collapse a subcomplex to a point levelwise; class representatives
    are the least ids."""
    if not is_subcomplex(x_sset, ids_per_level):
        raise NotSubcomplex("quotient needs a subcomplex")
    sets = [set(l) for l in ids_per_level]
    while len(sets) < x_sset.dim + 1:
        sets.append(set())
    rep = []
    for k in range(x_sset.dim + 1):
        r = min(sets[k], default=None)
        rep.append({s: (r if s in sets[k] else s) for s in x_sset.level(k)})
    levels = [sorted(set(rep[k].values())) for k in range(x_sset.dim + 1)]
    base = min(sets[0], default=None)
    return build_sset(x_sset.dim, levels, lambda name, k, i: relabel(
        x_sset.level(k), getattr(x_sset, name)[k, i], rep[k],
        rep[k + STEPS[name]]), base=base)


def sq0_subcomplex(x_sset):
    """The subcomplex generated by all vertices (totally degenerate part)."""
    return generated_subcomplex(x_sset, {0: x_sset.level(0)})


def reduce_by_vertices(x_sset):
    """X / sq_0 X: identify all totally degenerate simplices levelwise."""
    return quotient_by_subcomplex(x_sset, sq0_subcomplex(x_sset))


def sphere(m, dim):
    """Delta^m / boundary, truncated at `dim`."""
    full = standard_simplex(m, dim)
    if m == 0:
        return full
    bnd = boundary_simplex(m, dim)
    ids = [sorted(bnd.level(k)) for k in range(dim + 1)]
    return quotient_by_subcomplex(full, ids)


def constant_sset(points, dim):
    return build_sset(dim, [points] * (dim + 1),
                      lambda *_: dict(zip(points, points)), coskeletal_at=0)


# -- simplicial map enumeration -------------------------------------------


class SSetMap:
    """Levelwise map between truncated simplicial sets."""

    def __init__(self, src, dst, components):
        self.src = src
        self.dst = dst
        self.components = components    # level -> dict id -> id

    def __call__(self, k, s):
        return self.components[k][s]

    def key(self):
        return tuple(tuple(sorted(self.components[k].items()))
                     for k in sorted(self.components))

    def is_iso(self):
        for k, comp in self.components.items():
            vals = list(comp.values())
            if len(set(vals)) != len(vals):
                return False
            if set(vals) != set(self.dst.level(k)):
                return False
        return True


def budget_ticker(budget, message):
    """The budget guard of one search: a tick(*fields) that counts one
    evaluation per call and raises SearchBudgetExceeded once the count
    passes `budget` (None: enumeration_budget()), with the text
    message.format(*fields, cap=<the cap>)."""
    cap = enumeration_budget() if budget is None else budget
    count = 0

    def tick(*fields):
        nonlocal count
        count += 1
        if count > cap:
            raise SearchBudgetExceeded(message.format(*fields, cap=cap))
    return tick


def completion_schedule(order, constraints):
    """The forward-checking schedule of a backtracking search.

    `order` lists the free variables in the order the search assigns
    them; `constraints` yields (constraint, variables) pairs, and a
    variable not in `order` counts as assigned before the search.
    Returns a dict that maps each variable of `order` to the constraints
    whose last variable it is, and None to the constraints with no free
    variable, each list in the order given.  A search that tests
    schedule[v] right after assigning v, and schedule[None] once before
    its first choice, tests every constraint once, when it first becomes
    decidable (Haralick & Elliott, AI 14, 1980).  It prunes the same
    tree as a search that retests every complete constraint after every
    assignment.
    """
    rank = {v: i for i, v in enumerate(order)}
    schedule = {v: [] for v in order}
    schedule[None] = []
    for con, variables in constraints:
        last = max((rank[v] for v in variables if v in rank), default=None)
        schedule[None if last is None else order[last]].append(con)
    return schedule


def scheduled_search(order, candidates, schedule, holds, assign, emit, tick):
    """The backtracking core of the determinant searches.

    Assigns the variables of `order` in turn, each value of
    candidates(v) stored as assign[v] while the subtree below it runs.
    `schedule` is a completion_schedule over `order` and holds(con)
    tests one of its constraints: schedule[None] at the root, schedule[v]
    right after each value of v.  tick() is called once per node entered
    and emit() once per leaf, i.e. per complete assignment that passed
    every constraint.
    """
    last = len(order)

    def rec(i):
        tick()
        if i == 0 and not all(holds(con) for con in schedule[None]):
            return
        if i == last:
            emit()
            return
        v = order[i]
        checks = schedule[v]
        for val in candidates(v):
            assign[v] = val
            for con in checks:
                if not holds(con):
                    break
            else:
                rec(i + 1)
            del assign[v]

    rec(0)


def map_search(levels, index, tick, pins=None):
    """The one forced/free search for simplicial and bisimplicial maps.

    `levels` lists the source's levels in assignment order, each as
    (level, forced, free).  A forced cell comes as (cell, source level,
    a, degen): one fixed degeneracy presentation of it, from the earlier
    level holding a, and its image is degen[image of a].  A free cell
    comes as (cell, faces), `faces` a tuple of (level, cell) pairs of
    earlier levels, and takes each cell of index[level][images of its
    faces] in turn; when it is pinned, only those in the collection
    pins[(level, cell)], still in index order.

    Precondition: source and target satisfy the simplicial identities,
    and the faces of every level lie in levels of the search.  Then every
    degeneracy presentation of a cell gives the same image, and the faces
    of a forced image are the images of the cell's faces, by induction
    on the level (if s_j a = s_i b with j < i, then a = s_{i-1} d_j b
    and b = s_j d_{i-1} a), so neither is checked.

    Forward checking: the face key of each free cell with faces is a
    constraint, filed by completion_schedule under the last of its faces
    in the assignment order, where each level's forced cells come before
    its free ones.  It is tested once, right after that face is set (a
    forced face: once its level's forced cells are set).  tick() is
    called once per free cell as its level's candidate lists are drawn
    up, and once per candidate tried.

    Returns the maps in search order, each a dict level -> dict cell ->
    image with the levels in the order given, forced cells first.
    """
    pins = pins or {}
    comps = {lvl: {} for lvl, _, _ in levels}
    order = [(lvl, cell[0]) for lvl, forced, free in levels
             for cell in forced + free]

    def key_of(faces):
        # the faces as (that level's image dict, cell), read at run time
        return tuple([(comps[lvl], cell) for lvl, cell in faces])

    schedule = completion_schedule(
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


def _candidate_index(y_sset, k):
    """dict full-face-tuple -> sorted ids at level k of Y."""
    idx = {}
    for s in y_sset.level(k):
        idx.setdefault(y_sset.faces(k, s), []).append(s)
    for v in idx.values():
        v.sort()
    return idx


def enumerate_maps(x_sset, y_sset, upto=None, budget=None, pins=None):
    """All simplicial maps tau_d(X) -> tau_d(Y) at d = min dim (or `upto`),
    in deterministic order, by map_search over the levels 0..d.

    Precondition: X and Y satisfy the simplicial identities (the CLI
    validates a loaded source first).  Each degenerate simplex of X is
    forced from its first presentation s_j a (least j); the others are
    chosen in level order from the simplices of Y with the faces
    assigned so far.  `pins` maps (level, simplex of X) to the images
    allowed for it, as in map_search (a degenerate simplex follows its
    presentation and ignores a pin); when both complexes carry a base
    point, X's base vertex is also pinned to Y's.  Forward checking
    follows map_search's completion schedule: a free level-(k+1) simplex
    is tested for a candidate in Y once, right after the last of its
    faces is assigned.
    Raises SearchBudgetExceeded past the evaluation cap.
    """
    d = min(x_sset.dim, y_sset.dim) if upto is None else upto
    if y_sset.dim < d:
        y_sset = _ensure_depth(y_sset, d)
    if x_sset.dim < d:
        raise DimensionOutOfRange("source truncation too shallow")
    tick = budget_ticker(budget, "map enumeration exceeded {cap} evaluations")
    index = {k: _candidate_index(y_sset, k) for k in range(1, d + 1)}
    index[0] = {(): list(y_sset.level(0))}
    levels = []
    for k in range(d + 1):
        forced = {}
        for j in range(k):
            y_deg = y_sset.degen[(k - 1, j)]
            for a, sa in x_sset.degen[(k - 1, j)].items():
                forced.setdefault(sa, (sa, k - 1, a, y_deg))
        faces = x_sset.face_table(k)
        level = x_sset.level(k)
        levels.append((k, [forced[s] for s in level if s in forced],
                       [(s, tuple([(k - 1, f) for f in faces[s]]) if k else ())
                        for s in level if s not in forced]))
    pins = dict(pins or {})
    if x_sset.base is not None and y_sset.base is not None:
        key = (0, x_sset.base)
        pins[key] = {y_sset.base}.intersection(pins.get(key, (y_sset.base,)))
    return [SSetMap(x_sset, y_sset, comps)
            for comps in map_search(levels, index, tick, pins)]


def find_isomorphism(x_sset, y_sset, budget=None):
    """An isomorphism X -> Y of truncations, or None."""
    d = min(x_sset.dim, y_sset.dim)
    for k in range(d + 1):
        if len(x_sset.level(k)) != len(y_sset.level(k)):
            return None
    for f in enumerate_maps(x_sset, y_sset, upto=d, budget=budget):
        if f.is_iso():
            return f
    return None
