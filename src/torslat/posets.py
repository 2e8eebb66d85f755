"""Finite posets and subset lattices.

FinitePoset is the universal output currency of the whole package: silting
orders, torsion-class lattices, compatibility posets and Serre lattices are
all delivered as instances.  Elements keep their construction order; all
derived data (covers, tops, isomorphisms) is deterministic.

The order is stored as one bitmask per element (up[i] = everything >= i), so
relation queries and closure checks are word operations.
"""

from __future__ import annotations

import itertools
import json

from .config import DEFAULTS
from .errors import (
    CertificationFailed,
    CycleDetected,
    DuplicateId,
    NotALattice,
    ParseError,
    SizeCapExceeded,
)

# Full O(n^2)-ish construction of a subset lattice's order is refused above
# this many subsets; the masks themselves can be enumerated far beyond it.
MATERIALIZE_LIMIT = 4096


def _normalize_elements(elements):
    out = []
    for e in elements:
        if isinstance(e, (tuple, list)):
            ident, label = e
        else:
            ident, label = e, e
        out.append((str(ident), str(label)))
    return out


class FinitePoset:
    """Immutable finite poset with labeled elements.

    Invariants checked on construction: ids unique, the relation is
    reflexive, antisymmetric and transitive, and the stored covers are the
    transitive reduction of the strict order.
    """

    __slots__ = ("ids", "labels", "index", "up", "down", "covers")

    def __init__(self, elements, up_masks, covers=None, _validate=True):
        pairs = _normalize_elements(elements)
        self.ids = tuple(p[0] for p in pairs)
        self.labels = tuple(p[1] for p in pairs)
        self.index = {}
        for i, ident in enumerate(self.ids):
            if ident in self.index:
                raise DuplicateId(f"duplicate element id {ident!r}")
            self.index[ident] = i
        n = len(self.ids)
        self.up = tuple(up_masks)
        if len(self.up) != n:
            raise ValueError("up mask count does not match element count")
        down = [0] * n
        for i, m in enumerate(self.up):
            for j in _bits(m):
                down[j] |= 1 << i
        self.down = tuple(down)
        if _validate:
            self._validate_order()
        self.covers = tuple(covers) if covers is not None else self._compute_covers()
        if _validate and covers is not None and self.covers != self._compute_covers():
            raise CertificationFailed("covers are not the transitive reduction")

    # -- construction helpers ------------------------------------------------

    def _validate_order(self):
        n = len(self.ids)
        for i in range(n):
            if not self.up[i] >> i & 1:
                raise ValueError(f"relation not reflexive at {self.ids[i]!r}")
            if self.up[i] & self.down[i] != 1 << i:
                other = _bits(self.up[i] & self.down[i] & ~(1 << i))
                j = next(other)
                raise CycleDetected(
                    f"{self.ids[i]!r} and {self.ids[j]!r} are mutually comparable"
                )
            for j in _bits(self.up[i]):
                if self.up[j] & ~self.up[i]:
                    raise ValueError(
                        f"relation not transitive above {self.ids[i]!r}"
                    )

    def _compute_covers(self):
        n = len(self.ids)
        covers = []
        for a in range(n):  # a runs over bigger elements
            sd = self.down[a] & ~(1 << a)
            for b in _bits(sd):
                between = sd & (self.up[b] & ~(1 << b))
                if not between:
                    covers.append((self.ids[a], self.ids[b]))
        return tuple(covers)

    # -- queries -------------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def label_of(self, ident):
        return self.labels[self.index[ident]]

    def leq(self, a, b):
        """a <= b."""
        ia, ib = self.index[a], self.index[b]
        return bool(self.up[ia] >> ib & 1)

    def leq_idx(self, ia, ib):
        return bool(self.up[ia] >> ib & 1)

    def top(self):
        """The unique maximum's id, or None."""
        maxima = [i for i in range(len(self.ids)) if self.up[i] == 1 << i]
        return self.ids[maxima[0]] if len(maxima) == 1 else None

    def bottom(self):
        minima = [i for i in range(len(self.ids)) if self.down[i] == 1 << i]
        return self.ids[minima[0]] if len(minima) == 1 else None

    def relation_pairs(self):
        """All ordered pairs (a, b) with a <= b, including reflexive ones."""
        out = []
        for i, ident in enumerate(self.ids):
            for j in _bits(self.up[i]):
                out.append((ident, self.ids[j]))
        return out

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "elements": [
                {"id": i, "label": l} for i, l in zip(self.ids, self.labels)
            ],
            "covers": [[a, b] for a, b in self.covers],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data):
        try:
            elements = [(e["id"], e.get("label", e["id"])) for e in data["elements"]]
            pairs = [(b, a) for a, b in data["covers"]]  # cover is larger->smaller
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad poset JSON: {exc}") from exc
        return build_poset(elements, pairs)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def to_dot(self, graph_name="poset"):
        lines = [f"digraph {graph_name} {{"]
        for ident, label in zip(self.ids, self.labels):
            lines.append(f'  "{_dot_escape(ident)}" [label="{_dot_escape(label)}"];')
        for a, b in self.covers:
            lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(elements, relation_pairs):
    """Construct a poset from generating pairs (a, b) meaning a <= b.

    The order is the reflexive-transitive closure; element order is the
    input order.  Raises CycleDetected if the closure is not antisymmetric
    and DuplicateId for repeated element ids.
    """
    pairs = _normalize_elements(elements)
    index = {}
    for i, (ident, _) in enumerate(pairs):
        if ident in index:
            raise DuplicateId(f"duplicate element id {ident!r}")
        index[ident] = i
    n = len(pairs)
    up = [1 << i for i in range(n)]
    succ = [0] * n
    for a, b in relation_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ParseError(f"relation mentions undeclared element {missing!r}")
        succ[index[a]] |= 1 << index[b]
    for i in range(n):
        up[i] |= succ[i]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return FinitePoset(pairs, up)


def hasse_quiver(poset):
    """Cover arrows, drawn from larger to smaller element."""
    return {"nodes": list(poset.ids), "arrows": [list(c) for c in poset.covers]}


def point(ident="pt"):
    return build_poset([ident], [])


def chain(n, prefix="c"):
    """Chain c0 < c1 < ... < c{n-1}."""
    ids = [f"{prefix}{i}" for i in range(n)]
    return build_poset(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)])


def antichain(n, prefix="a"):
    return build_poset([f"{prefix}{i}" for i in range(n)], [])


# ---------------------------------------------------------------------------
# subset lattices


class SubsetLattice:
    """A family of subsets of a base poset's elements, ordered by inclusion.

    Subsets are bitmasks over base element indices.  The order is only
    materialized into a FinitePoset on demand (the family itself may be
    enumerated far beyond what an explicit n x n order table can hold).
    """

    def __init__(self, base, masks, kind):
        self.base = base
        self.masks = list(masks)
        self.kind = kind  # "down" | "up" | "all"
        self._poset = None

    def __len__(self):
        return len(self.masks)

    def members(self, mask):
        return [self.base.ids[i] for i in _bits(mask)]

    def mask_id(self, mask):
        return "{" + ",".join(self.members(mask)) + "}"

    def __contains__(self, mask):
        return mask in set(self.masks)

    def poset(self):
        """Materialize the inclusion order.

        Covers: in a family closed under the defining closure operation,
        covers are exactly one-element enlargements that stay in the family.
        """
        if self._poset is not None:
            return self._poset
        n = len(self.masks)
        if n > MATERIALIZE_LIMIT:
            raise SizeCapExceeded(
                f"refusing to materialize inclusion order on {n} subsets"
            )
        masks = sorted(self.masks, key=lambda m: (bin(m).count("1"), m))
        pos = {m: i for i, m in enumerate(masks)}
        elements = [(self.mask_id(m), self.mask_id(m)) for m in masks]
        up = [0] * n
        for i, mi in enumerate(masks):
            for j, mj in enumerate(masks):
                if mi & ~mj == 0:
                    up[i] |= 1 << j
        covers = []
        for mi in masks:
            under = sorted(
                pos[mi & ~(1 << b)]
                for b in _bits(mi)
                if (mi & ~(1 << b)) in pos
            )
            covers.extend((self.mask_id(mi), self.mask_id(masks[j])) for j in under)
        self._poset = FinitePoset(
            elements, up, covers=tuple(covers), _validate=n <= 256
        )
        return self._poset


def closed_sets(n, closure, config=DEFAULTS):
    """The closed sets of a closure operator on n-bit masks, in ascending
    integer order, by Ganter's NextClosure (*Two basic algorithms in concept
    analysis*, 1984).  After a, the next is closure(bit i and a's bits above
    i) for the lowest i outside a where that closure adds no bit above i:
    at most n closure calls per set.  Raises SizeCapExceeded once more than
    config.subset_cap sets are listed."""
    full = (1 << n) - 1
    a = closure(0)
    out = [a]
    while a != full:
        for i in range(n):
            bit = 1 << i
            if a & bit:
                continue
            b = closure(a & ~(bit - 1) | bit)
            if not (b & ~a) >> (i + 1):
                break
        a = b
        out.append(a)
        if len(out) > config.subset_cap:
            raise SizeCapExceeded(f"more than {config.subset_cap} closed sets")
    return out


def _closed_subsets(poset, closed_up, config):
    """The subsets closed upward (closed_up) or downward, listed by
    closed_sets with the one-pass closure "OR of the cones of the members";
    masks sorted by (popcount, value)."""
    cones = poset.up if closed_up else poset.down

    def closure(mask):
        out = mask
        for i in _bits(mask):
            out |= cones[i]
        return out

    masks = closed_sets(len(poset), closure, config)
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    return masks


def down_sets(poset, config=DEFAULTS):
    """The lattice of down-closed subsets (includes the empty and full sets)."""
    return SubsetLattice(poset, _closed_subsets(poset, False, config), "down")


def specialization_closed(poset, config=DEFAULTS):
    """The lattice of up-closed subsets: reading the poset as a spectrum
    (q <= p iff q is contained in p), these are the specialization-closed
    subsets."""
    return SubsetLattice(poset, _closed_subsets(poset, True, config), "up")


def all_subsets(poset, config=DEFAULTS):
    n = len(poset)
    if 2 ** n > config.subset_cap:
        raise SizeCapExceeded(f"2^{n} subsets exceed the subset cap")
    masks = sorted(range(2 ** n), key=lambda m: (bin(m).count("1"), m))
    return SubsetLattice(poset, masks, "all")


# ---------------------------------------------------------------------------
# constructions


def opposite(poset):
    """Same elements, reversed order."""
    return FinitePoset(
        list(zip(poset.ids, poset.labels)),
        poset.down,
        covers=tuple((b, a) for a, b in poset.covers),
        _validate=False,
    )


class _TuplePoset(FinitePoset):
    """A componentwise order that keeps each element's index tuple over its
    coordinate posets, so two such orders can be matched element by
    element without a search."""

    __slots__ = ("coords", "tuples")


def _componentwise(coords, tuples):
    """The componentwise order on index tuples over the coordinate posets.

    tuples[a][k] indexes coords[k]; element ids and labels are the
    coordinates' ids and labels joined as "(a,b,...)", in the order given.
    up[a] is the AND over k of the tuples whose k-th index lies above
    tuples[a][k]: one mask per coordinate element, no pair of tuples is
    compared.
    """
    n = len(tuples)
    up = [(1 << n) - 1] * n
    for k, c in enumerate(coords):
        at = [0] * len(c)  # at[i]: the tuples whose k-th index is i
        for a, t in enumerate(tuples):
            at[t[k]] |= 1 << a
        above = [0] * len(c)
        for i in range(len(c)):
            for j in _bits(c.up[i]):
                above[i] |= at[j]
        for a, t in enumerate(tuples):
            up[a] &= above[t[k]]
    elements = [
        (
            "(" + ",".join(c.ids[i] for c, i in zip(coords, t)) + ")",
            "(" + ",".join(c.labels[i] for c, i in zip(coords, t)) + ")",
        )
        for t in tuples
    ]
    poset = _TuplePoset(elements, up, _validate=False)
    poset.coords = tuple(coords)
    poset.tuples = tuples
    return poset


def product(posets, config=DEFAULTS):
    """Cartesian product with componentwise order; empty input gives the
    one-point poset."""
    posets = list(posets)
    total = 1
    for p in posets:
        total *= len(p)
        if total > config.map_cap:
            raise SizeCapExceeded("product size exceeds the map cap")
    tuples = list(itertools.product(*(range(len(p)) for p in posets)))
    return _componentwise(posets, tuples)


def hom_poset(x, y, config=DEFAULTS):
    """All order-preserving maps x -> y under the pointwise order.

    Elements are tuples of y-ids listed in x's element order; enumeration
    backtracks over a linear extension of x.
    """
    nx, ny = len(x), len(y)
    ext = sorted(range(nx), key=lambda i: (bin(x.down[i]).count("1"), i))
    pred = []  # for each position in ext: [(earlier position, needs f(e) <= f(this)) ...]
    for pos, i in enumerate(ext):
        below = [q for q in range(pos) if x.leq_idx(ext[q], i)]
        pred.append(below)
    maps = []
    assign = [0] * nx  # by ext position
    full = (1 << ny) - 1

    def rec(pos):
        if pos == nx:
            f = [0] * nx
            for q, i in enumerate(ext):
                f[i] = assign[q]
            maps.append(tuple(f))
            if len(maps) > config.map_cap:
                raise SizeCapExceeded("monotone map count exceeds the map cap")
            return
        cand = full
        for q in pred[pos]:
            cand &= y.up[assign[q]]
        for j in _bits(cand):
            assign[pos] = j
            rec(pos + 1)

    rec(0)
    maps.sort()
    return _componentwise([y] * nx, maps)


def poset_isomorphism(p, q):
    """An order isomorphism p -> q as an id dict, or None.

    Exact backtracking with iterated degree/level invariants as pruning;
    intended for the small golden-diagram comparisons.
    """
    n = len(p)
    if n != len(q):
        return None

    def colors(poset):
        n = len(poset)
        col = [
            (bin(poset.up[i]).count("1"), bin(poset.down[i]).count("1"))
            for i in range(n)
        ]
        for _ in range(n):
            cov_up = [[] for _ in range(n)]
            cov_down = [[] for _ in range(n)]
            for a, b in poset.covers:
                ia, ib = poset.index[a], poset.index[b]
                cov_down[ia].append(col[ib])
                cov_up[ib].append(col[ia])
            nxt = [
                (col[i], tuple(sorted(cov_up[i])), tuple(sorted(cov_down[i])))
                for i in range(n)
            ]
            canon = {c: k for k, c in enumerate(sorted(set(nxt)))}
            nxt = [(canon[c],) for c in nxt]
            if nxt == col:
                break
            col = nxt
        return col

    cp, cq = colors(p), colors(q)
    if sorted(cp) != sorted(cq):
        return None
    order = sorted(range(n), key=lambda i: (cp[i], i))
    image = [None] * n
    placed_p = placed_q = 0  # the elements of p mapped so far, and their images

    def moved(mask):
        out = 0
        for i2 in _bits(mask):
            out |= 1 << image[i2]
        return out

    def ok(i, j):
        """Does i -> j keep every relation with the elements placed so far?"""
        return (
            cp[i] == cq[j]
            and moved(p.up[i] & placed_p) == q.up[j] & placed_q
            and moved(p.down[i] & placed_p) == q.down[j] & placed_q
        )

    # depth-first over order[k] -> j, with an explicit stack: next_j[k] is
    # the next candidate image of order[k]
    next_j = [0] * (n + 1)
    k = 0
    while k < n:
        i = order[k]
        j = next_j[k]
        while j < n and (placed_q >> j & 1 or not ok(i, j)):
            j += 1
        if j < n:
            image[i] = j
            placed_p |= 1 << i
            placed_q |= 1 << j
            next_j[k] = j + 1
            k += 1
            next_j[k] = 0
            continue
        k -= 1  # order[k] has no image left: undo the placement before it
        if k < 0:
            return None
        i = order[k]
        placed_p &= ~(1 << i)
        placed_q &= ~(1 << image[i])
        image[i] = None
    return {p.ids[i]: q.ids[image[i]] for i in range(n)}


class LatticeOps:
    """Meet/join tables for a finite poset; is_lattice reports whether every
    pair has both bounds."""

    def __init__(self, poset):
        self.poset = poset
        n = len(poset)
        self._meet = [[None] * n for _ in range(n)]
        self._join = [[None] * n for _ in range(n)]
        self.is_lattice = True
        for a in range(n):
            for b in range(n):
                m = self._bound(a, b, poset.down)
                j = self._bound(a, b, poset.up)
                self._meet[a][b] = m
                self._join[a][b] = j
                if m is None or j is None:
                    self.is_lattice = False

    @staticmethod
    def _bound(a, b, cone):
        common = cone[a] & cone[b]
        if not common:
            return None
        for c in _bits(common):
            if common & ~cone[c] == 0:
                return c
        return None

    def meet(self, a, b):
        m = self._meet[self.poset.index[a]][self.poset.index[b]]
        if m is None:
            raise NotALattice(f"no meet for {a!r}, {b!r}")
        return self.poset.ids[m]

    def join(self, a, b):
        j = self._join[self.poset.index[a]][self.poset.index[b]]
        if j is None:
            raise NotALattice(f"no join for {a!r}, {b!r}")
        return self.poset.ids[j]


def lattice_ops(poset):
    return LatticeOps(poset)
