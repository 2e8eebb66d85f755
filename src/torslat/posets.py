"""Finite posets and subset lattices.

FinitePoset is the universal output currency of the whole package: silting
orders, torsion-class lattices, compatibility posets and Serre lattices are
all delivered as instances.  Elements keep their construction order; all
derived data (covers, tops, isomorphisms) is deterministic.

Every order is built the same way, from a list of covers (a, b), a above
b: any set of pairs that generates an order contains its transitive
reduction (Aho, Garey and Ullman, *The transitive reduction of a directed
graph*, 1972), so the covers are read off the pairs given and nothing
else is compared.  The order is stored as one bitmask per element (up[i]
= everything >= i, down[i] = everything <= i), so relation queries and
closure checks are word operations.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

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
    """Immutable finite poset with labeled elements, built from its covers.

    covers: pairs of ids (a, b) meaning a is above b.  The order is their
    reflexive-transitive closure.  Self-pairs are ignored, repeated and
    redundant pairs may be given: the stored covers are the given pairs
    that are covers of that order, sorted by the indices of (a, b).
    Raises DuplicateId for a repeated id, ParseError for a pair naming an
    undeclared id and CycleDetected when the pairs close a cycle.
    """

    __slots__ = ("ids", "labels", "index", "up", "down", "covers")

    def __init__(self, elements, covers):
        pairs = _normalize_elements(elements)
        self.ids = tuple(p[0] for p in pairs)
        self.labels = tuple(p[1] for p in pairs)
        self.index = {}
        for i, ident in enumerate(self.ids):
            if ident in self.index:
                raise DuplicateId(f"duplicate element id {ident!r}")
            self.index[ident] = i
        n = len(self.ids)
        above = [0] * n  # above[b]: the elements given as above b
        below = [0] * n
        for a, b in covers:
            a, b = str(a), str(b)
            if a not in self.index or b not in self.index:
                missing = a if a not in self.index else b
                raise ParseError(f"relation mentions undeclared element {missing!r}")
            ia, ib = self.index[a], self.index[b]
            if ia != ib:
                above[ib] |= 1 << ia
                below[ia] |= 1 << ib
        # Kahn's algorithm, top down: an element follows everything above it
        waiting = [bin(m).count("1") for m in above]
        order = [i for i in range(n) if not waiting[i]]
        for i in order:
            for j in _bits(below[i]):
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) < n:
            # every element left over has one left over above it; walk up
            # until an element repeats, which lies on a cycle
            placed, seen = set(order), set()
            i = min(set(range(n)) - placed)
            while i not in seen:
                seen.add(i)
                i = next(a for a in _bits(above[i]) if a not in placed)
            raise CycleDetected(f"the covers close a cycle through {self.ids[i]!r}")
        # one pass each: an element's cone is itself and the cones of the
        # elements given next to it, which are complete by then
        up, down = [0] * n, [0] * n
        for cone, given, walk in ((up, above, order), (down, below, order[::-1])):
            for i in walk:
                m = 1 << i
                for j in _bits(given[i]):
                    m |= cone[j]
                cone[i] = m
        self.up, self.down = tuple(up), tuple(down)
        self.covers = tuple(
            (self.ids[a], self.ids[b])
            for a in range(n)
            for b in _bits(below[a])
            if down[a] & up[b] == 1 << a | 1 << b
        )

    def relabeled(self, labels):
        """The same order with one new label per element, in index order.

        A plain FinitePoset sharing ids, index, up- and down-masks and
        covers with this one; nothing is rebuilt."""
        labels = tuple(str(l) for l in labels)
        if len(labels) != len(self.ids):
            raise ValueError(f"{len(labels)} labels for {len(self.ids)} elements")
        out = object.__new__(FinitePoset)
        out.ids, out.index, out.up, out.down, out.covers = (
            self.ids, self.index, self.up, self.down, self.covers
        )
        out.labels = labels
        return out

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
        """The poset of a to_json_dict dict: ids and labels are strings and
        each cover is a list of two ids; ParseError otherwise."""
        try:
            elements = [(e["id"], e.get("label", e["id"])) for e in data["elements"]]
            covers = data["covers"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad poset JSON: {exc}") from exc
        if not all(isinstance(x, str) for pair in elements for x in pair):
            raise ParseError("bad poset JSON: an id or label is not a string")
        if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)
            for c in covers
        ):
            raise ParseError("bad poset JSON: a cover is not a list of two ids")
        return cls(elements, [tuple(c) for c in covers])

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
    """The poset generated by pairs (a, b) meaning a <= b: FinitePoset of
    the flipped pairs, with the same errors."""
    return FinitePoset(elements, [(b, a) for a, b in relation_pairs])


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

    def __init__(self, base, masks):
        self.base = base
        self.masks = list(masks)
        self._poset = None

    def __len__(self):
        return len(self.masks)

    def members(self, mask):
        return [self.base.ids[i] for i in _bits(mask)]

    def mask_id(self, mask):
        return "{" + ",".join(self.members(mask)) + "}"

    def poset(self):
        """Materialize the inclusion order from its one-element steps.

        Between two nested down-sets (up-sets, subsets) lies a chain of
        members each one element bigger than the last, so the steps
        generate inclusion.  Up to 256 members every up-mask is checked
        against inclusion; CertificationFailed if one differs.
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
        ids = [self.mask_id(m) for m in masks]
        steps = [
            (ids[i], ids[pos[m & ~(1 << b)]])
            for i, m in enumerate(masks)
            for b in _bits(m)
            if (m & ~(1 << b)) in pos
        ]
        poset = FinitePoset(list(zip(ids, ids)), steps)
        if n <= 256:
            for i, mi in enumerate(masks):
                if poset.up[i] != sum(1 << j for j, mj in enumerate(masks) if not mi & ~mj):
                    raise CertificationFailed(
                        f"one-element steps do not generate inclusion above {ids[i]}"
                    )
        self._poset = poset
        return poset


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
    return SubsetLattice(poset, _closed_subsets(poset, False, config))


def specialization_closed(poset, config=DEFAULTS):
    """The lattice of up-closed subsets: reading the poset as a spectrum
    (q <= p iff q is contained in p), these are the specialization-closed
    subsets."""
    return SubsetLattice(poset, _closed_subsets(poset, True, config))


def all_subsets(poset, config=DEFAULTS):
    n = len(poset)
    if 2 ** n > config.subset_cap:
        raise SizeCapExceeded(f"2^{n} subsets exceed the subset cap")
    masks = sorted(range(2 ** n), key=lambda m: (bin(m).count("1"), m))
    return SubsetLattice(poset, masks)


# ---------------------------------------------------------------------------
# constructions


def opposite(poset):
    """Same elements, reversed order."""
    return FinitePoset(
        list(zip(poset.ids, poset.labels)), [(b, a) for a, b in poset.covers]
    )


class _TuplePoset(FinitePoset):
    """A componentwise order that keeps its coordinate posets and each
    element's index tuple over them, so a certificate can check the
    elements tuple by tuple and the order by the coordinates it names."""

    __slots__ = ("coords", "tuples")


def _componentwise(coords, tuples):
    """The componentwise order on index tuples over the coordinate posets.

    tuples[a][k] indexes coords[k]; element ids and labels are the
    coordinates' ids and labels joined as "(a,b,...)", in the order given.
    The order is built from the steps that raise one coordinate by one
    cover of its poset and land on a listed tuple, found through each
    tuple's mixed-radix code: raising coordinate k from i to u adds
    (u - i) * stride[k].

    The steps generate the order on every set of tuples listed here: a
    product, the monotone maps of hom_poset, and the compatible tuples of
    spectra (constraints x_q <= phi(x_p) for q below p, phi monotone).  If
    g < f, raise g by one cover towards f at a coordinate k where they
    differ that is maximal in the source poset or spectrum, to u <= f_k.
    The coordinates p above k agree with f, so every constraint with k
    below still holds (u <= f_k <= phi(f_p) = phi(g_p)); the ones with k
    above hold as phi is monotone.  The result is listed and still <= f.
    So every cover is a step (Aho-Garey-Ullman), and FinitePoset keeps
    exactly those.
    """
    stride = [1] * len(coords)
    for k in range(len(coords) - 1, 0, -1):
        stride[k - 1] = stride[k] * len(coords[k])
    steps_at = []  # steps_at[k][i]: code steps of the covers above i in coords[k]
    for c, s in zip(coords, stride):
        at = [[] for _ in range(len(c))]
        for a, b in c.covers:
            u, i = c.index[a], c.index[b]
            at[i].append((u - i) * s)
        steps_at.append(at)
    codes = [sum(i * s for i, s in zip(t, stride)) for t in tuples]
    where = {code: a for a, code in enumerate(codes)}
    ids = [
        "(" + ",".join(c.ids[i] for c, i in zip(coords, t)) + ")" for t in tuples
    ]
    labels = [
        "(" + ",".join(c.labels[i] for c, i in zip(coords, t)) + ")" for t in tuples
    ]
    steps = []
    for a, t in enumerate(tuples):
        for k, i in enumerate(t):
            for step in steps_at[k][i]:
                b = where.get(codes[a] + step)
                if b is not None:
                    steps.append((ids[b], ids[a]))
    poset = _TuplePoset(list(zip(ids, labels)), steps)
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


def _backtrack(order, sizes, constraints, cap, what):
    """The tuples t with t[i] < sizes[i] that meet every constraint,
    sorted.  Position pos of order assigns t[order[pos]]; each (q, masks)
    in constraints[pos], q < pos, allows only the bits of masks[v], v the
    value assigned at q.  Depth first, with an explicit stack of the
    candidate masks still untried, so no recursion limit bounds the
    length.  SizeCapExceeded past cap tuples."""
    n = len(order)
    if not n:
        return [()]
    value = [0] * n  # by position
    untried = [0] * n

    def candidates(pos):
        m = (1 << sizes[order[pos]]) - 1
        for q, masks in constraints[pos]:
            m &= masks[value[q]]
        return m

    found = []
    untried[0] = candidates(0)
    pos = 0
    while pos >= 0:
        m = untried[pos]
        if not m:
            pos -= 1
            continue
        low = m & -m
        untried[pos] = m ^ low
        value[pos] = low.bit_length() - 1
        if pos + 1 < n:
            pos += 1
            untried[pos] = candidates(pos)
            continue
        t = [0] * n
        for q, i in enumerate(order):
            t[i] = value[q]
        found.append(tuple(t))
        if len(found) > cap:
            raise SizeCapExceeded(f"{what} count exceeds the map cap")
    found.sort()
    return found


def hom_poset(x, y, config=DEFAULTS):
    """All order-preserving maps x -> y under the pointwise order.

    Elements are tuples of y-ids listed in x's element order; enumeration
    backtracks over a linear extension of x.  Each element is pruned by
    its lower covers only: y is transitive, so a map that is monotone on
    covers is monotone.
    """
    ext = sorted(range(len(x)), key=lambda i: (bin(x.down[i]).count("1"), i))
    pos_of = {i: pos for pos, i in enumerate(ext)}
    constraints = [[] for _ in ext]
    for a, b in x.covers:
        constraints[pos_of[x.index[a]]].append((pos_of[x.index[b]], y.up))
    maps = _backtrack(ext, [len(y)] * len(x), constraints, config.map_cap, "monotone map")
    return _componentwise([y] * len(x), maps)


def count_monotone(x, y):
    """|Hom_poset(x, y)|, counted without listing.  x's elements are placed
    along hom_poset's linear extension, each live until its last upper
    cover is placed; counts maps an assignment of the live elements to its
    number of monotone partial maps.  A placed element takes any value
    above the live elements below it: a branch while it stays live, a
    factor otherwise.  g generic points of height one cost |y|^g a step."""
    ext = sorted(range(len(x)), key=lambda i: (bin(x.down[i]).count("1"), i))
    pos_of = {i: pos for pos, i in enumerate(ext)}
    last = [-1] * len(x)  # the position of each element's last upper cover
    for a, b in x.covers:
        last[x.index[b]] = max(last[x.index[b]], pos_of[x.index[a]])
    live, counts = [], Counter({(): 1})  # live: the elements keyed, in order
    for pos, i in enumerate(ext):
        below = [s for s, j in enumerate(live) if x.down[i] >> j & 1]
        keep = [s for s, j in enumerate(live) if last[j] > pos]
        placed = Counter()
        for key, n in counts.items():
            m = (1 << len(y)) - 1
            for s in below:
                m &= y.up[key[s]]
            rest = tuple(key[s] for s in keep)
            if last[i] > pos:
                for v in _bits(m):
                    placed[rest + (v,)] += n
            elif m:
                placed[rest] += n * bin(m).count("1")
        live = [live[s] for s in keep] + ([i] if last[i] > pos else [])
        counts = placed
    return sum(counts.values())


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
