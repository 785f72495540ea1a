"""Reference maps that only the tests read: alpha^m as a dict, the
retraction check of the shift (decalage) and the translation check of a
2-group."""

from kanforge import groups as gr
from kanforge import simplicial as sp


def boundary_alpha(x_sset, m):
    """alpha^m: level[m+1] -> boundary tuples, x -> (d_0 x, .., d_{m+1} x)."""
    if m + 1 > x_sset.dim:
        raise sp.DimensionOutOfRange("alpha^%d needs level %d" % (m, m + 1))
    return dict(x_sset.face_table(m + 1))


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
