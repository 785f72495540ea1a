"""Finite groups as explicit multiplication tables.

Everything downstream (homotopy groups, pi_0/pi_1 of 2-groups, the
representability oracles) reports its answer as a FiniteGroup, so the
isomorphism test here is the final arbiter for most acceptance checks.
"""

from itertools import permutations


class FiniteGroup:
    """A group given by elements, a table dict (a, b) -> a*b and a unit."""

    def __init__(self, elements, table, unit, name="group"):
        self.elements = list(elements)
        self.table = dict(table)
        self.unit = unit
        self.name = name

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        for b in self.elements:
            if self.mul(a, b) == self.unit and self.mul(b, a) == self.unit:
                return b
        raise ValueError("no inverse for %r" % (a,))

    def order_of(self, a):
        n, x = 1, a
        while x != self.unit:
            x = self.mul(x, a)
            n += 1
        return n

    def validate(self):
        # the laws read the table, so it must be closed first
        errs = ["table not closed at (%r, %r)" % (a, b)
                for a in self.elements for b in self.elements
                if (a, b) not in self.table or
                self.table[(a, b)] not in self.elements]
        if self.unit not in self.elements:
            errs.append("unit %r is not an element" % (self.unit,))
        if errs:
            return errs
        for a in self.elements:
            if self.mul(a, self.unit) != a or self.mul(self.unit, a) != a:
                errs.append("unit law fails at %r" % (a,))
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        errs.append("associativity fails at (%r,%r,%r)" % (a, b, c))
                        break
        for a in self.elements:
            try:
                self.inv(a)
            except ValueError:
                errs.append("no inverse for %r" % (a,))
        return errs

    def is_abelian(self):
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.elements for b in self.elements)

    def isomorphism_to(self, other):
        """Return a dict giving a group isomorphism self -> other, or None.

        Brute force over unit/order-respecting bijections; fine for the
        desk-scale orders (<= 6) used throughout.
        """
        if len(self) != len(other):
            return None
        mine = [a for a in self.elements if a != self.unit]
        theirs = [b for b in other.elements if b != other.unit]
        my_orders = [self.order_of(a) for a in mine]
        for perm in permutations(theirs):
            if any(other.order_of(b) != o for b, o in zip(perm, my_orders)):
                continue
            f = {self.unit: other.unit}
            f.update(dict(zip(mine, perm)))
            if all(f[self.mul(a, b)] == other.mul(f[a], f[b])
                   for a in self.elements for b in self.elements):
                return f
        return None

    def is_isomorphic_to(self, other):
        return self.isomorphism_to(other) is not None


def cyclic(n):
    els = list(range(n))
    table = {(a, b): (a + b) % n for a in els for b in els}
    return FiniteGroup(els, table, 0, name="Z/%d" % n)


def symmetric(n):
    els = sorted(permutations(range(n)))
    table = {}
    for p in els:
        for q in els:
            table[(p, q)] = tuple(p[q[i]] for i in range(n))
    unit = tuple(range(n))
    return FiniteGroup(els, table, unit, name="S%d" % n)


def direct_product(g, h):
    els = [(a, b) for a in g.elements for b in h.elements]
    table = {((a1, b1), (a2, b2)): (g.mul(a1, a2), h.mul(b1, b2))
             for (a1, b1) in els for (a2, b2) in els}
    return FiniteGroup(els, table, (g.unit, h.unit),
                       name="%sx%s" % (g.name, h.name))


def trivial_group():
    return FiniteGroup(["e"], {("e", "e"): "e"}, "e", name="1")
