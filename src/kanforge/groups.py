"""Finite groups as explicit multiplication tables, and the comparisons
every oracle is decided by.

Everything downstream (homotopy groups, pi_0/pi_1 of 2-groups, the
representability oracles) reports its answer as a FiniteGroup, so the
isomorphism test here is the final arbiter for most acceptance checks.
The comparisons are written once, here: `bijective` (a map onto a given
set), `FiniteGroup.iso_failure` (a group isomorphism), `components` (the
classes of a generated equivalence) and `equivalence_classes` (the
classes of a relation verified to be an equivalence).
"""

from collections import Counter
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

    def iso_failure(self, other, f):
        """Why the dict f, element -> element of other, is not a group
        isomorphism self -> other: "not bijective" or "not a
        homomorphism"; None when it is one."""
        if not bijective([f[a] for a in self.elements], other.elements):
            return "not bijective"
        if any(f[self.mul(a, b)] != other.mul(f[a], f[b])
               for a in self.elements for b in self.elements):
            return "not a homomorphism"
        return None

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
            if self.iso_failure(other, f) is None:
                return f
        return None

    def is_isomorphic_to(self, other):
        return self.isomorphism_to(other) is not None


def bijective(images, onto):
    """Whether images, the image of each source element in turn (None
    where none could be built), is a bijection onto the elements of
    onto: both free of duplicates and equal as sets."""
    distinct = set(images)
    return (None not in distinct and len(distinct) == len(images) == len(onto)
            and distinct == set(onto))


def components(items, pairs):
    """dict item -> the least member of its class, over the classes of
    the equivalence relation on items generated by the pairs (a, b); in
    item order."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in items}


def equivalence_classes(items, related, fail):
    """components of the relation related(a, b), evaluated once on every
    pair of items, after it is verified reflexive, then symmetric, then
    transitive: the pairs inside each class are all related.  The first
    law that fails raises fail(law, witness), law "reflexive",
    "symmetric" or "transitive" and witness the item that is not related
    to itself, or None."""
    items = list(items)
    rel = {(a, b) for a in items for b in items if related(a, b)}
    for a in items:
        if (a, a) not in rel:
            raise fail("reflexive", a)
    if any((b, a) not in rel for a, b in rel):
        raise fail("symmetric", None)
    rep = components(items, rel)
    # rel lies inside the classes it generates, so it holds every pair
    # inside them exactly when it has as many pairs as they have
    if len(rel) != sum(n * n for n in Counter(rep.values()).values()):
        raise fail("transitive", None)
    return rep


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
