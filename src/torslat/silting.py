"""Two-term complexes of projectives: presilting/silting tests, homotopy
reduction, decomposition, mutation, Bongartz-style completion, exhaustive
enumeration, and silting-module checks.

Conventions (fixed package-wide):
  * cohomological complexes, d^n: C^n -> C^{n+1}; "two-term" means support
    inside degrees {-1, 0};
  * a differential is a sparse dict (n, r, c) -> entry: the entry of d^n
    maps the c-th summand A e_{i} of degree n to the r-th summand A e_{j} of
    degree n+1 and is a nonzero coefficient dict in the corner e_i A e_j
    (right multiplication; see algebras module); an absent key is zero;
  * composition "F then G": (r, c) entry = sum_m F(m, c) * G(r, m);
  * shift: P[k]^n = P^{n+k}, differential scaled by (-1)^k;
  * Hom complex: Hom^k(X, Y) is the product of Hom(X^n, Y^{n+k}) over n,
    with differential delta(f) = d_Y f - (-1)^k f d_X, so that
    Hom_K(X, Y[k]) = H^k(Hom(X, Y)): the chain maps X -> Y are the kernel
    of delta^0 and the null homotopic ones the image of delta^-1;
  * a graded map f: X -> Y (degree 0) is a sparse dict (n, r, c, b) ->
    coefficient, b a corner basis index from the c-th summand of X^n to the
    r-th summand of Y^n: the keys of _map_vars, the form delta returns.
    Chain maps, idempotents and cone maps all take this form, and "f then
    g" is _compose; a differential is the same form with the basis index
    folded into a coefficient dict per entry;
  * cone of f: X -> E has C^n = X^{n+1} (+) E^n with differential
    [[-d_X, 0], [f, d_E]].
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .algebras import AlgebraElement, _signed_terms, _vertex_of
from .config import DEFAULTS
from .errors import (
    CapExceeded,
    CertificationFailed,
    ConeNotTwoTerm,
    IndexOutOfRange,
    NotPresilting,
    NotSilting,
    ParseError,
    ShapeMismatch,
)
from .linalg import (
    IntEchelon,
    det,
    exact_div,
    express_in_span,
    int_nullspace,
    int_rows,
    int_scale,
    intify,
    nullspace,
    vec_add_scaled,
)
from .posets import FinitePoset, build_poset

# ---------------------------------------------------------------------------
# complexes


class Complex:
    """Bounded complex of indecomposable projectives over a path algebra.

    summands: dict degree -> tuple of vertex indices (one per summand);
    only nonempty degrees are stored.
    diff: sparse dict (n, r, c) -> the nonzero coefficient dict, over the
    algebra basis, of d^n from the c-th summand of degree n to the r-th
    summand of degree n + 1; an absent key is a zero entry, and a copied
    empty one is dropped.  Coefficients are ints where integral and
    Fractions otherwise; copied entries are brought to that form, so
    complexes built from integral data compute on ints.  A complex is never
    changed once built, so its key and line index are cached.
    """

    __slots__ = ("algebra", "summands", "diff", "_key", "_index")

    def __init__(self, algebra, summands, diff, validate=True, copy=True):
        self.algebra = algebra
        self._key = self._index = None
        self.summands = {n: tuple(v) for n, v in sorted(summands.items()) if v}
        if copy:
            diff = {key: {b: intify(x) for b, x in e.items() if x} for key, e in diff.items()}
            diff = {key: e for key, e in diff.items() if e}
        # else the caller hands over freshly built, nonempty entry dicts
        self.diff = diff
        if validate:
            self._validate()

    def _validate(self):
        A = self.algebra
        vertices = range(len(A.quiver.vertices))
        if any(v not in vertices for t in self.summands.values() for v in t):
            raise ShapeMismatch("a summand sits at an unknown vertex")
        for (n, r, c), e in self.diff.items():
            cols, tgts = self.summands_at(n), self.summands_at(n + 1)
            if not (0 <= r < len(tgts) and 0 <= c < len(cols)):
                raise ShapeMismatch(f"differential entry {(n, r, c)} lies outside the summands")
            for b in e:
                if A.basis_target(b) != cols[c] or A.basis_source(b) != tgts[r]:
                    raise ShapeMismatch(f"entry ({r},{c}) at degree {n} leaves its corner")
        # d^(n+1) d^n, one product per pair of entries meeting at a summand
        columns = self._lines()[0]
        square = {}
        for (n, m, c), e in self.diff.items():
            for r, e2 in columns.get(n + 1, {}).get(m, ()):
                vec_add_scaled(square.setdefault((n, r, c), {}), A.mul_dicts(e, e2), 1)
        if any(square.values()):
            raise ShapeMismatch("differential does not square to zero")

    def _lines(self):
        """(columns, rows) of the differential by degree: n -> c -> [(r,
        entry)] and n -> r -> [(c, entry)], each list in ascending order."""
        if self._index is None:
            columns, rows = {}, {}
            for (n, r, c), e in sorted(self.diff.items()):
                columns.setdefault(n, {}).setdefault(c, []).append((r, e))
                rows.setdefault(n, {}).setdefault(r, []).append((c, e))
            self._index = columns, rows
        return self._index

    # -- shape queries ------------------------------------------------------

    def degrees(self):
        return tuple(self.summands)

    def is_zero(self):
        return not self.summands

    def is_two_term(self):
        return all(n in (-1, 0) for n in self.summands)

    def size(self):
        return sum(len(t) for t in self.summands.values())

    def summands_at(self, n):
        return self.summands.get(n, ())

    # -- constructions ------------------------------------------------------

    def shift(self, k):
        """P[k]^n = P^{n+k}; odd shifts negate the differential."""
        summands = {n - k: v for n, v in self.summands.items()}
        sign = -1 if k % 2 else 1
        diff = {
            (n - k, r, c): {b: sign * x for b, x in e.items()}
            for (n, r, c), e in self.diff.items()
        }
        return Complex(self.algebra, summands, diff, validate=False, copy=False)

    def key(self):
        """Structural identity: summand layout plus all entries."""
        if self._key is None:
            self._key = (
                tuple(self.summands.items()),
                tuple((key, tuple(sorted(e.items()))) for key, e in sorted(self.diff.items())),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Complex) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        names = self.algebra.quiver.vertices
        parts = (f"{n}:[{','.join('e' + names[v] for v in t)}]" for n, t in self.summands.items())
        return "Complex(" + " ".join(parts) + ")"


def _compose(algebra, f, g):
    """The graded map "f then g": (n, r, c) is the sum over m of f(n, m, c)
    times g(n, r, m), each product f(n, m, c) * g(n, r, m) in the algebra,
    as for the entries of a differential."""
    by_source = {}
    for (n, r, m, b), y in g.items():
        by_source.setdefault((n, m), []).append((r, b, y))
    mul = algebra.mul_basis
    out = {}
    for (n, m, c, a), x in f.items():
        for r, b, y in by_source.get((n, m), ()):
            for p, z in mul(a, b).items():
                key = (n, r, c, p)
                out[key] = out.get(key, 0) + x * y * z
    return {key: x for key, x in out.items() if x}


def two_term(algebra, minus, zero, entries):
    """Two-term complex from summand vertex lists and a matrix of entries.

    minus/zero: vertex names or indices; entries: rows over degree-0
    summands, columns over degree -1 summands, each an AlgebraElement, a
    coefficient dict, or 0.
    """
    mv = tuple(_vertex_of(algebra, t) for t in minus)
    zv = tuple(_vertex_of(algebra, t) for t in zero)
    diff = {}
    entries = list(entries)
    if len(entries) != len(zv) and not (len(zv) == 0 and entries in ([], [[]])):
        raise ShapeMismatch("entry matrix has wrong number of rows")
    for r in range(len(zv)):
        row = list(entries[r])
        if len(row) != len(mv):
            raise ShapeMismatch("entry matrix has wrong number of columns")
        for c, e in enumerate(row):
            if isinstance(e, AlgebraElement):
                if e.algebra is not algebra:
                    raise ShapeMismatch(f"entry ({r},{c}) is an element of another algebra")
                if e.target != mv[c] or e.source != zv[r]:
                    raise ShapeMismatch(
                        f"entry ({r},{c}) lives in the wrong corner"
                    )
                diff[(-1, r, c)] = e.coeffs
            elif isinstance(e, dict):
                diff[(-1, r, c)] = e
            elif e != 0:
                raise ShapeMismatch(f"bad entry {e!r}")
    # the constructor copies the entries and drops the zero ones
    return Complex(algebra, {-1: mv, 0: zv}, diff)


def stalk(algebra, vertices, degree=0):
    """Direct sum of projectives A e_v concentrated in one degree."""
    vt = tuple(_vertex_of(algebra, t) for t in vertices)
    return Complex(algebra, {degree: vt}, {}, validate=False)


def lambda_complex(algebra):
    return stalk(algebra, range(len(algebra.quiver.vertices)), 0)


def lambda_shifted(algebra):
    return stalk(algebra, range(len(algebra.quiver.vertices)), -1)


def direct_sum(parts):
    parts = list(parts)
    if any(p.algebra is not parts[0].algebra for p in parts):
        raise ShapeMismatch("direct sum of complexes over different algebras")
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        raise ValueError("direct_sum needs at least one nonzero part")
    summands, diff = {}, {}
    for p in parts:
        # each part's summands follow those of the parts before it
        off = {n: len(summands.setdefault(n, [])) for n in p.summands}
        for (n, r, c), e in p.diff.items():
            diff[(n, r + off[n + 1], c + off[n])] = dict(e)
        for n, t in p.summands.items():
            summands[n].extend(t)
    return Complex(parts[0].algebra, summands, diff, validate=False, copy=False)


def g_vector(P):
    """[P^0] - [P^{-1}] as a vector over vertices."""
    if not P.is_two_term():
        raise ShapeMismatch("g-vector needs a two-term complex")
    out = [0] * len(P.algebra.quiver.vertices)
    for n, t in P.summands.items():
        for v in t:
            out[v] += 1 if n == 0 else -1
    return tuple(out)


def h0_dim_vector(algebra, P):
    """Dimension vector of H^0(P) by vertex: Hom_K(A e_v, P) = e_v H^0(P).

    delta never mixes the summands A e_v of Lambda, which has no
    differential, so one delta per degree of Hom(Lambda, P), its images
    split by the vertex v of each variable, gives every entry as _hom_dim.
    """
    P = _as_complex(algebra, P)
    lam = lambda_complex(algebra)
    split = {k: [[] for _ in algebra.quiver.vertices] for k in (0, -1)}
    for k, by_vertex in split.items():
        for (_, _, v, _), vec in zip(*_delta(algebra, lam, P, k)):
            by_vertex[v].append(vec)
    return tuple(len(x) - _rank(x) - _rank(y) for x, y in zip(split[0], split[-1]))


# ---------------------------------------------------------------------------
# the Hom complex: chain maps, null homotopies, Hom_K(X, Y[k])


def _map_vars(algebra, X, Y, k):
    """Variables of Hom^k(X, Y), the maps X^n -> Y^(n+k): (n, r, c, b) for
    the corner basis index b from the c-th summand of X^n to the r-th
    summand of Y^(n+k)."""
    corner = algebra.corner_indices
    return [
        (n, r, c, b)
        for n, xs in X.summands.items()
        if n + k in Y.summands
        for r, vy in enumerate(Y.summands[n + k])
        for c, vx in enumerate(xs)
        for b in corner(vx, vy)
    ]


def _delta(algebra, X, Y, k):
    """(var_list, images): the variables of Hom^k(X, Y) and the image of
    each under delta(f) = d_Y f - (-1)^k f d_X, a sparse vector over the
    variables of Hom^(k+1) (keys as in _map_vars, which lists them in
    ascending order).

    The product of a variable with a differential entry depends on the
    variable's row summand (d_Y) or column summand (d_X), not on both, so
    it is computed once per (n, r, r2, b) or (n, c, c2, b) and shared.
    d_Y is read by column and d_X by row, from the line index each complex
    keeps.  The images of one variable never overlap: the d_Y terms land
    in degree n, the d_X terms in degree n - 1.
    """
    var_list = _map_vars(algebra, X, Y, k)
    sign = 1 if k % 2 else -1
    y_columns, x_rows = Y._lines()[0], X._lines()[1]
    by_row = {}  # (n, r, b) -> [(r2, {b} * d_Y entry (r2, r))]
    by_col = {}  # (n, c, b) -> [(c2, d_X entry (c, c2) * {b})]
    images = []
    for n, r, c, b in var_list:
        vec = {}
        column = y_columns.get(n + k)
        if column and r in column:
            terms = by_row.get((n, r, b))
            if terms is None:
                terms = by_row[(n, r, b)] = [
                    (r2, algebra.mul_dicts({b: 1}, e)) for r2, e in column[r]
                ]
            for r2, prod in terms:
                for pb, x in prod.items():
                    vec[(n, r2, c, pb)] = x
        row = x_rows.get(n - 1)
        if row and c in row:
            terms = by_col.get((n, c, b))
            if terms is None:
                terms = by_col[(n, c, b)] = [
                    (c2, algebra.mul_dicts(e, {b: 1})) for c2, e in row[c]
                ]
            for c2, prod in terms:
                for pb, x in prod.items():
                    vec[(n - 1, r, c2, pb)] = sign * x
        images.append(vec)
    return var_list, images


def _rank(vectors):
    ech = IntEchelon()
    for v in int_rows([v for v in vectors if v]):
        ech.insert(v)
    return ech.rank


def _hom_dim(algebra, X, Y, k):
    """dim Hom_K(X, Y[k]) = dim H^k(Hom(X, Y)) = |Hom^k| - rank delta^k -
    rank delta^(k-1); no basis vectors and no shifted complex."""
    var_list, images = _delta(algebra, X, Y, k)
    return len(var_list) - _rank(images) - _rank(_delta(algebra, X, Y, k - 1)[1])


def _chain_maps(algebra, X, Y):
    """Basis of the chain maps X -> Y as graded maps: the kernel of
    delta^0, from its rows (the transposed images) in variable order."""
    var_list, images = _delta(algebra, X, Y, 0)
    rows = {}
    for i, vec in enumerate(images):
        for v, x in vec.items():
            rows.setdefault(v, {})[i] = x
    basis = int_nullspace(int_rows([rows[v] for v in sorted(rows)]), len(var_list))
    return [{var_list[i]: x for i, x in z.items()} for z in basis]


def hom_k_basis(algebra, X, Y):
    """Basis of Hom in the homotopy category as a list of graded maps X -> Y:
    chain maps independent modulo the null homotopies.  Those are the images
    of delta^-1, keyed like the chain maps by the variables of Hom^0, so
    they enter the echelon as they are."""
    X, Y = _as_complex(algebra, X), _as_complex(algebra, Y)
    chains = _chain_maps(algebra, X, Y)
    ech = IntEchelon()
    for vec in int_rows([v for v in _delta(algebra, X, Y, -1)[1] if v]):
        ech.insert(vec)
    return [z for z, zi in zip(chains, int_rows(chains)) if ech.insert(zi) is not None]


def hom_k_dim(algebra, X, Y):
    """dim Hom in the homotopy category; rank-only, no basis vectors."""
    return _hom_dim(algebra, _as_complex(algebra, X), _as_complex(algebra, Y), 0)


def _euler_pairing(algebra, C, D):
    """Alternating sum of hom dimensions across shifts, two-term C and D.

    Additive over summands and shifts, so it only depends on the g-vectors,
    paired through the corner dimensions of the algebra."""
    cart = algebra.cartan_matrix()
    g = g_vector(C)
    h = g_vector(D)
    return sum(
        gi * cart[i][j] * hj
        for i, gi in enumerate(g)
        if gi
        for j, hj in enumerate(h)
        if hj
    )


def hom_shift1_dim(algebra, P, Q):
    """dim Hom_K(P, Q[1]) for two-term P, Q."""
    P, Q = _as_complex(algebra, P), _as_complex(algebra, Q)
    if not P.is_two_term() or not Q.is_two_term():
        raise ShapeMismatch("hom_shift1_dim needs two-term complexes")
    return _hom_dim(algebra, P, Q, 1)


def is_presilting(algebra, P):
    return hom_shift1_dim(algebra, P, P) == 0


def _end_dim_one(algebra, P):
    """Is dim End_K(P) = 1, for a two-term P the caller knows presilting?
    Then it is the euler pairing plus dim Hom_K(P, P[-1]), and 1 certifies
    a reduced P indecomposable with no decompose; its g-vector names its
    class (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm. 5.5)."""
    return _euler_pairing(algebra, P, P) + _hom_dim(algebra, P, P, -1) == 1


# ---------------------------------------------------------------------------
# reduction, cones


def _unit_entries(algebra, summands, diff):
    """(n, r, c) of each differential entry between two summands at one
    vertex with a nonzero trivial-path coefficient, in ascending order."""
    idem = algebra.idempotent_index
    for n, r, c in sorted(diff):
        v = summands[n][c]
        if summands[n + 1][r] == v and diff[(n, r, c)].get(idem(v)):
            yield n, r, c


def _require_reduced(algebra, P):
    """Refuse a complex with a unit entry, which is not reduced."""
    if next(_unit_entries(algebra, P.summands, P.diff), None) is not None:
        raise ShapeMismatch("complex is not reduced: a differential entry is a unit")


def reduce_complex(algebra, P):
    """Homotopy-equivalent complex with radical differential: repeatedly
    eliminate entries with invertible trivial-path coefficient.

    Eliminated summands are marked dead rather than deleted, so candidate
    positions stay valid, and the survivors are renumbered once at the end.
    The entries of each row and column are indexed as they change, and new
    candidates created by a correction are pushed as they appear, so the
    differential is never rescanned.  Corrections run row by row, then
    column by column, in ascending order."""
    P = _as_complex(algebra, P)
    diff = {key: dict(e) for key, e in P.diff.items()}
    rows, columns = {}, {}  # (n, r) -> {c}, (n, c) -> {r}: the keys of diff
    for n, r, c in diff:
        rows.setdefault((n, r), set()).add(c)
        columns.setdefault((n, c), set()).add(r)
    dead = set()  # (degree, index) of each eliminated summand
    idem = algebra.idempotent_index

    # popped from the end: lowest degree, row and column first
    candidates = list(_unit_entries(algebra, P.summands, diff))[::-1]
    while candidates:
        n, r0, c0 = candidates.pop()
        if (n, c0) in dead or (n + 1, r0) in dead:
            continue
        v = P.summands[n][c0]
        u = diff.get((n, r0, c0), {})
        if not u.get(idem(v)):
            continue  # correction killed the unit part since the push
        uinv = algebra.invert_corner(u, v)
        gammas = [
            (c, diff[(n, r0, c)]) for c in sorted(rows[(n, r0)]) if c != c0 and (n, c) not in dead
        ]
        for r in sorted(columns[(n, c0)]):
            if r == r0 or (n + 1, r) in dead:
                continue
            beta = diff[(n, r, c0)]
            for c, gamma in gammas:
                corr = algebra.mul_dicts(algebra.mul_dicts(gamma, uinv), beta)
                cell = diff.setdefault((n, r, c), {})
                vec_add_scaled(cell, corr, -1)  # drops the coefficients that vanish
                if not cell:
                    del diff[(n, r, c)]
                    rows[(n, r)].discard(c)
                    columns[(n, c)].discard(r)
                    continue
                rows[(n, r)].add(c)
                columns[(n, c)].add(r)
                w = P.summands[n][c]
                if w == P.summands[n + 1][r] and cell.get(idem(w)):
                    candidates.append((n, r, c))
        dead.update({(n, c0), (n + 1, r0)})
    summands, index = {}, {}  # index: (degree, old index) -> new index of a survivor
    for n, t in P.summands.items():
        alive = [i for i in range(len(t)) if (n, i) not in dead]
        summands[n] = [t[i] for i in alive]
        index.update({(n, i): j for j, i in enumerate(alive)})
    out = {
        (n, index[(n + 1, r)], index[(n, c)]): e
        for (n, r, c), e in diff.items()
        if (n, c) in index and (n + 1, r) in index
    }
    # inputs are valid complexes and the elimination preserves that, so the
    # square-zero recheck is skipped
    return Complex(algebra, summands, out, validate=False, copy=False)


def cone(algebra, f, X, E):
    """Mapping cone of a chain map f: X -> E, given as a graded map;
    C^n = X^{n+1} (+) E^n.

    The cone is validated, and its differential squares to zero exactly
    when f is a chain map, so any other graded map raises ShapeMismatch,
    as does a key outside X^n x E^n."""
    X, E = _as_complex(algebra, X), _as_complex(algebra, E)
    degs = sorted({n - 1 for n in X.summands} | set(E.summands))
    summands = {n: X.summands_at(n + 1) + E.summands_at(n) for n in degs}
    # X^(n+1) comes first in C^n, so only the entries of E and f move
    xs = {n: len(X.summands_at(n + 1)) for n in degs}
    diff = {(n - 1, r, c): {b: -x for b, x in e.items()} for (n, r, c), e in X.diff.items()}
    for (n, r, c), e in E.diff.items():
        diff[(n, xs[n + 1] + r, xs[n] + c)] = dict(e)
    for (n, r, c, b), x in f.items():
        if not (0 <= r < len(E.summands_at(n)) and 0 <= c < len(X.summands_at(n))):
            raise ShapeMismatch(f"map entry {(n, r, c, b)} lies outside X^{n} x E^{n}")
        if x:
            diff.setdefault((n - 1, xs[n] + r, c), {})[b] = x
    return Complex(algebra, summands, diff, copy=False)


# ---------------------------------------------------------------------------
# decomposition


def _divisors(m):
    m = abs(m)
    out = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            out.add(m // d)
        d += 1
    return out


def _rational_roots(poly):
    """Rational roots of a polynomial with int or Fraction coefficients,
    ascending, each an int where it is integral."""
    _, (scaled,) = int_scale([dict(enumerate(poly))])
    ints = list(scaled.values())
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    roots = set()
    if ints[0] == 0:
        roots.add(0)
        while ints and ints[0] == 0:
            ints.pop(0)
        return sorted(roots | set(_rational_roots(ints)))
    deg = len(ints) - 1
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for num in (p, -p):
                # q^deg poly(num / q), in integers
                if not sum(c * num ** i * q ** (deg - i) for i, c in enumerate(ints)):
                    roots.add(exact_div(num, q))
    return sorted(roots)


def _top(algebra, f):
    """The trivial-path entries of a graded map f."""
    return {key: x for key, x in f.items() if algebra.basis_length(key[3]) == 0}


class _ChainEndomorphisms:
    """Chain endomorphisms of a reduced complex as graded maps, multiplied
    by _compose, with the operations needed for idempotent hunting: a
    minimal polynomial, its rational roots and one solve per split
    (_split_on).

    basis is a list of chain maps whose tops are linearly independent and
    span the algebra of tops, and unit is the identity.  All of them are
    int dicts: the basis may be chain maps times one positive integer,
    which changes no idempotent found (see _split_on).  Fractions appear
    only where a solve returns them, in the minimal polynomial and the c of
    _split_on, and an idempotent e is returned as the int dict D e with
    its positive integer D.
    """

    def __init__(self, algebra, basis, unit):
        self.algebra = algebra
        self.basis = basis
        self.unit = unit

    def min_poly(self, a):
        """(poly, powers): the monic minimal polynomial of a, lowest
        coefficient first, and the powers a^0 .. a^(deg - 1)."""
        ech = IntEchelon()
        ech.insert(self.unit)
        powers = [self.unit]
        cur = self.unit
        while True:
            cur = _compose(self.algebra, cur, a)
            if ech.insert(cur) is None:
                coeffs = express_in_span(powers, cur)
                poly = [-coeffs.get(i, 0) for i in range(len(powers))]
                return poly + [1], powers
            powers.append(cur)

    def find_idempotent(self):
        """(E, D) with E = D e for an idempotent e other than 0 and 1, or
        None.

        Candidates are tried in turn until one splits by _split_on: a
        basis of the centre, then the basis, its pairwise sums and its
        pairwise products, each formed only when every candidate before it
        has failed.  A candidate splits as its top does, so the centre is
        solved on the tops of the basis, and each central top is taken with
        the same combination of the basis: the candidates, and the splits
        they give, are those of the algebra of tops.  The span of the basis
        is no subalgebra, so z b = b z solved over it can give other ones.
        """
        for s in self._candidates():
            found = self._split_on(s)
            if found is not None:
                return found
        return None

    def _candidates(self):
        algebra, basis = self.algebra, self.basis
        dim = len(basis)
        tops = [_top(algebra, x) for x in basis]
        prods = [[_compose(algebra, x, y) for y in tops] for x in tops]
        # centre of the tops: solve z t_k = t_k z for all k
        rows = []
        for k in range(dim):
            comm = {}
            for i in range(dim):
                diff = dict(prods[i][k])
                vec_add_scaled(diff, prods[k][i], -1)
                for key, x in diff.items():
                    comm.setdefault(key, {})[i] = x
            rows.extend(comm.values())
        # each centre vector is scaled to an int one, a positive multiple
        _, central = int_scale(nullspace(rows, dim))
        for zv in central:
            z = {}
            for i, x in zv.items():
                vec_add_scaled(z, basis[i], x)
            yield z
        yield from basis
        for i in range(dim):
            for j in range(i + 1, dim):
                s = dict(basis[i])
                vec_add_scaled(s, basis[j], 1)
                yield s
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    yield _compose(algebra, basis[i], basis[j])

    def _split_on(self, s):
        """The Fitting idempotent e of s as (D e, D), or None.

        Let lam = a / q (q > 0) be the first rational root of the minimal
        polynomial of s, of degree n, and u = (q s - a)^m, m >= n.  By
        Fitting's lemma, which holds in any finite-dimensional algebra,
        Q[s] is the product of the generalised lam-part, where u = 0, and
        the rest, where u is a unit.  So u^2 c = u has a solution c in
        Q[s], found by one exact solve over the columns u^2 s^i (where
        Fractions appear), and e = u c is 0 on the generalised
        lam-eigenspace and 1 on the rest, whichever c is taken.  u = 0
        exactly when the minimal polynomial is a power of x - lam: then s
        has one eigenvalue and gives no split.  A positive multiple t s has
        the roots t lam in the same order and the same eigenspaces, so it
        gives the same e.  Taking tops maps Q[s] onto Q[top s] with a
        nilpotent kernel, so s splits exactly when its top does, and the top
        of e is the Fitting idempotent of the top of s.  D is the least
        positive integer that makes D e an int dict, and D e is checked
        idempotent as (D e)^2 = D (D e).
        """
        algebra = self.algebra
        poly, powers = self.min_poly(s)
        roots = _rational_roots(poly)
        if not roots:
            return None
        lam = roots[0]
        u = {key: lam.denominator * x for key, x in s.items()}
        vec_add_scaled(u, self.unit, -lam.numerator)
        m = 1
        while m < len(powers) and u:
            u, m = _compose(algebra, u, u), 2 * m
        if not u:
            return None
        u2 = _compose(algebra, u, u)
        c = express_in_span([_compose(algebra, u2, x) for x in powers], u)
        if c is None:
            raise CertificationFailed("u^2 c = u has no solution in Q[s]")
        c_el = {}
        for i, x in c.items():
            vec_add_scaled(c_el, powers[i], x)
        d, (e,) = int_scale([_compose(algebra, u, c_el)])
        if _compose(algebra, e, e) != {key: d * x for key, x in e.items()}:
            raise CertificationFailed("Fitting idempotent is not idempotent")
        return e, d


def decompose(algebra, P):
    """Indecomposable summands of a reduced complex; a complex that is not
    reduced raises ShapeMismatch.

    The top of a chain endomorphism is its matrix of trivial-path
    coefficients in each degree.  Taking tops is multiplicative, kills every
    null homotopy (the differential is radical) and has a nilpotent kernel,
    so P splits exactly when the algebra of tops has an idempotent other
    than 0 and 1, and chain maps whose tops form a basis of it are enough
    to search.  The search of _ChainEndomorphisms splits Q[s] for candidate
    chain maps s at a rational eigenvalue, one solve per split (Fitting's
    lemma), and returns an exact idempotent chain map, which is split
    degreewise.  If no splitting idempotent is found the complex is
    returned whole.

    Coefficients are ints wherever they are integral.  The chain maps come
    from _chain_maps, scaled to int graded maps, and the search returns D e
    for an idempotent e, its Fractions kept inside its solves.  e is
    divided out once, so the split stays on ints unless a value is not
    integral, and only such a value is a Fraction.
    """
    P = _as_complex(algebra, P)
    _require_reduced(algebra, P)
    if P.is_zero():
        return []
    ech = IntEchelon()
    chains = int_scale(_chain_maps(algebra, P, P))[1]
    basis = [z for z in chains if ech.insert(_top(algebra, z)) is not None]
    if len(basis) <= 1:
        return [P]
    one = {
        (n, r, r, algebra.idempotent_index(v)): 1
        for n, t in P.summands.items()
        for r, v in enumerate(t)
    }
    found = _ChainEndomorphisms(algebra, basis, one).find_idempotent()
    if found is None:
        return [P]
    e, d = found
    e = {key: exact_div(x, d) for key, x in e.items()}
    one_minus = dict(one)
    vec_add_scaled(one_minus, e, -1)
    left = _split_part(P, e)
    right = _split_part(P, one_minus)
    if left.size() + right.size() != P.size():
        raise CertificationFailed("split lost summands")
    if not left.size() or not right.size():
        raise CertificationFailed("split is not proper")
    return decompose(algebra, left) + decompose(algebra, right)


def _split_part(P, e):
    """Subcomplex carried by an exact idempotent chain endomorphism e.

    Im e is a summand of P, so rad(Im e) is the intersection of Im e with
    rad P, and no element of rad P has a trivial-path coefficient.  A set of
    columns of e therefore generates Im e minimally exactly when their tops
    (trivial-path coefficients) are independent.  In each degree the columns
    are taken vertex by vertex, then by index, and one becomes a generator
    when its top is independent of the tops already chosen.  The
    differential is read off by writing the image of each generator in the
    generators of the next degree, as vectors over (summand, basis index).
    """
    algebra = P.algebra
    columns = {}  # (n, c) -> column c of e in degree n, {r: coefficient dict}
    for (n, r, c, b), x in e.items():
        columns.setdefault((n, c), {}).setdefault(r, {})[b] = x
    gens = {}  # degree -> list of (vertex, column)
    for n, t in P.summands.items():
        # a top lies on the rows of its column's vertex, so one echelon
        # keeps the vertices apart
        ech = IntEchelon()
        chosen = []
        for c in sorted(range(len(t)), key=t.__getitem__):
            unit = algebra.idempotent_index(t[c])
            col = columns.get((n, c), {})
            top = {r: cell[unit] for r, cell in col.items() if unit in cell}
            if top and ech.insert(int_rows([top])[0]) is not None:
                chosen.append((t[c], col))
        if chosen:
            gens[n] = chosen
    summands = {n: tuple(v for v, _ in g) for n, g in gens.items()}
    diff = {}
    d_columns = P._lines()[0]
    for n, g in gens.items():
        if (n + 1) not in gens:
            continue
        g1 = gens[n + 1]
        for ci, (vc, wc) in enumerate(g):
            image = {}
            for m, xm in wc.items():
                for r, d in d_columns.get(n, {}).get(m, ()):
                    for b, x in algebra.mul_dicts(xm, d).items():
                        image[(r, b)] = image.get((r, b), 0) + x
            image = {key: x for key, x in image.items() if x}
            cols = []
            meta = []
            for k, (vk, wk) in enumerate(g1):
                for b in algebra.corner_indices(vc, vk):
                    cols.append({
                        (r, pb): x
                        for r, cell in wk.items()
                        for pb, x in algebra.mul_dicts({b: 1}, cell).items()
                    })
                    meta.append((k, b))
            coeffs = express_in_span(cols, image)
            if coeffs is None:
                raise CertificationFailed("image of generator left the subcomplex")
            for i, (k, b) in enumerate(meta):
                x = coeffs.get(i)
                if x:
                    diff.setdefault((n, k, ci), {})[b] = x
    return Complex(algebra, summands, diff)


# ---------------------------------------------------------------------------
# isomorphism


def _graded_counts(P):
    return Counter((n, v) for n, t in P.summands.items() for v in t)


def _graded_invertible(algebra, X, f):
    """Is a chain endomorphism f of a reduced complex an automorphism?
    Exactly when each block of tops (per degree, per vertex) is an
    invertible matrix."""
    for n, t in X.summands.items():
        for v in set(t):
            at_v = [i for i, w in enumerate(t) if w == v]
            b = algebra.idempotent_index(v)
            block = [{j: f.get((n, r, c, b), 0) for j, c in enumerate(at_v)} for r in at_v]
            if _rank(block) < len(at_v):
                return False
    return True


def complexes_isomorphic(algebra, X, Y):
    """Isomorphism test for reduced complexes via an invertible chain map;
    a complex that is not reduced raises ShapeMismatch.

    The basis-pair scan is complete for indecomposables (local endomorphism
    rings): if the two are isomorphic, some basis map composes with some
    reverse basis map to an invertible endomorphism.  Decomposable inputs
    fall back to summand-by-summand matching.
    """
    X, Y = _as_complex(algebra, X), _as_complex(algebra, Y)
    _require_reduced(algebra, X)
    _require_reduced(algebra, Y)
    if _graded_counts(X) != _graded_counts(Y):
        return False
    if X.is_zero():
        return True
    fwd = hom_k_basis(algebra, X, Y)
    if not fwd:
        return False
    back = hom_k_basis(algebra, Y, X)
    for f in fwd:
        for g in back:
            if _graded_invertible(algebra, X, _compose(algebra, f, g)):
                return True
    xparts = decompose(algebra, X)
    yparts = decompose(algebra, Y)
    if len(xparts) <= 1 and len(yparts) <= 1:
        # both indecomposable, so the scan above was conclusive
        return False
    return _match_multisets(algebra, xparts, yparts)


def _match_multisets(algebra, xs, ys):
    """Krull-Schmidt matching of two lists of indecomposables."""
    if len(xs) != len(ys):
        return False
    remaining = list(ys)
    for x in xs:
        for i, y in enumerate(remaining):
            if _graded_counts(x) == _graded_counts(y) and complexes_isomorphic(algebra, x, y):
                del remaining[i]
                break
        else:
            return False
    return True


def is_silting(algebra, P):
    """Presilting, and then summand_g_key holds one distinct g-vector per
    vertex: presilting summands are isomorphic exactly when their g-vectors
    agree (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm. 5.5)."""
    n = len(algebra.quiver.vertices)
    return is_presilting(algebra, P) and len(set(summand_g_key(algebra, P))) == n


# ---------------------------------------------------------------------------
# silting objects


def _fmt_vecs(vecs, memo=None):
    """"[(1,0),(0,-1)]"; memo maps each vector to its text, as it goes."""
    memo = {} if memo is None else memo
    for v in vecs:
        if v not in memo:
            memo[v] = "(" + ",".join(map(str, v)) + ")"
    return "[" + ",".join(memo[v] for v in vecs) + "]"


class SiltingObject:
    """Basic silting object: a tuple of indecomposable reduced two-term
    complexes, canonically keyed by the sorted multiset of summand
    g-vectors.  Construction certifies it: n distinct g-vectors and a
    presilting total come first, so no two summands are isomorphic
    (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm. 5.5); then a reduced summand
    is indecomposable by _end_dim_one, else by decompose."""

    __slots__ = ("algebra", "summands", "key", "_h0")

    def __init__(self, algebra, summands):
        summands = tuple(summands)
        # the index breaks ties as a stable sort by g-vector would
        order = sorted((g_vector(s), i) for i, s in enumerate(summands))
        self.algebra, self._h0 = algebra, None
        self.summands = tuple(summands[i] for _, i in order)
        self.key = tuple(g for g, _ in order)
        self._validate()

    @classmethod
    def _keyed(cls, algebra, summands, key):
        """The object of summands already sorted by their g-vectors, key."""
        out = cls.__new__(cls)
        out.algebra, out.summands, out.key, out._h0 = algebra, summands, key, None
        return out

    def _validate(self):
        n = len(self.algebra.quiver.vertices)
        if len(self.summands) != n:
            raise NotSilting("summand count != vertex count")
        if len(set(self.key)) != n:
            raise NotSilting("summand g-vectors not distinct")
        if not is_presilting(self.algebra, self.total()):
            raise NotPresilting("object is not presilting")
        for s in self.summands:
            if s.size() == 1:
                continue  # a single projective is reduced and indecomposable
            if next(_unit_entries(self.algebra, s.summands, s.diff), None) is not None:
                raise NotSilting("a summand is not reduced")
            if not _end_dim_one(self.algebra, s) and len(decompose(self.algebra, s)) != 1:
                raise NotSilting("a summand is decomposable")

    def total(self):
        return direct_sum(self.summands)

    def h0_key(self):
        if self._h0 is None:
            self._h0 = _h0_key(self.algebra, self.summands, {})
        return self._h0

    def id_string(self):
        return _fmt_vecs(self.key)

    def label(self):
        return f"g={_fmt_vecs(self.key)};H0={_fmt_vecs(self.h0_key())}"

    def g_matrix_det(self):
        return det([list(v) for v in self.key])

    def __repr__(self):
        return f"SiltingObject({self.id_string()})"


def silting_lambda(algebra):
    summands = [
        stalk(algebra, [v], 0) for v in range(len(algebra.quiver.vertices))
    ]
    return SiltingObject(algebra, summands)


def summand_g_key(algebra, P):
    """Sorted multiset of summand g-vectors of a reduced two-term complex."""
    if isinstance(P, SiltingObject) and P.algebra is algebra:
        return P.key
    parts = decompose(algebra, reduce_complex(algebra, P))
    return tuple(sorted(g_vector(p) for p in parts))


def _as_complex(algebra, P):
    """P as a complex over algebra, a SiltingObject as its total; every public
    entry point refuses a complex over another algebra here."""
    if P.algebra is not algebra:
        raise ShapeMismatch("complex over a different algebra")
    return P.total() if isinstance(P, SiltingObject) else P


# ---------------------------------------------------------------------------
# approximation, mutation, completion


def _h0_key(algebra, summands, memo):
    """Sorted nonzero H0 dimension vectors of the summands; memo maps a
    summand to its vector."""
    dims = []
    for s in summands:
        d = memo.get(s)
        if d is None:
            d = memo[s] = h0_dim_vector(algebra, s)
        dims.append(d)
    return tuple(sorted(d for d in dims if any(d)))


def _exchange_cone(algebra, X, classes, direction, memo):
    """Reduced two-term cone of the all-basis approximation of X by classes.

    "left": the cone of f: X -> (+) R^{dim Hom_K(X, R)}; "right": the
    cocone of g: (+) R^{dim Hom_K(R, X)} -> X.  Every Hom basis map is one
    block of the stacked graded map, its row (left) or column (right)
    indices shifted by the summands of the blocks before it.  This is where a minimal
    approximation would go: the cone here is the exchange summand plus
    copies of classes.  Raises ConeNotTwoTerm if the reduced cone is not
    two-term.  The Hom bases are kept in memo under the keys of their
    complexes; a class with an empty basis adds no block.
    """
    left = direction == "left"
    blocks = []
    for R in classes:
        A, B = (X, R) if left else (R, X)
        pair = (A.key(), B.key())
        if pair not in memo:
            memo[pair] = hom_k_basis(algebra, A, B)
        blocks.extend((R, g) for g in memo[pair])
    if not blocks:
        C = X.shift(1 if left else -1)
    else:
        E = direct_sum([R for R, _ in blocks])
        f = {}
        off = dict.fromkeys(E.summands, 0)
        for R, g in blocks:
            for (n, r, c, b), x in g.items():
                f[(n, r + off[n], c, b) if left else (n, r, c + off[n], b)] = x
            for n, t in R.summands.items():
                off[n] += len(t)
        C = cone(algebra, f, X, E) if left else cone(algebra, f, E, X).shift(-1)
    C = reduce_complex(algebra, C)
    if not C.is_two_term():
        raise ConeNotTwoTerm(
            f"{direction} exchange cone does not reduce to a two-term complex "
            f"(degrees {list(C.summands)})"
        )
    return C


def _new_class_from_cone(algebra, cone_red, keep_classes):
    """The one summand class of a reduced cone not already in keep_classes."""
    if cone_red.is_zero():
        raise CertificationFailed("cone collapsed entirely")
    # the cone sits inside the mutated object, so it is presilting
    if _end_dim_one(algebra, cone_red):
        return cone_red
    fresh = []
    for p in decompose(algebra, cone_red):
        if not any(complexes_isomorphic(algebra, p, q) for q in (*keep_classes, *fresh)):
            fresh.append(p)
    if len(fresh) != 1:
        raise CertificationFailed(
            f"expected one new summand class, got {len(fresh)}"
        )
    return fresh[0]


def _sign_masks(g):
    """(positive, negative) vertex bitmasks of a vector."""
    return tuple(sum(1 << v for v, x in enumerate(g) if s * x > 0) for s in (1, -1))


class _SummandTable:
    """The summands met by the mutations sharing one memo, interned by
    g-vector and named by their place in `complexes`; the objects made of
    them, with `index` mapping each set of n - 1 ids of an object, or of
    ids whose partner a scan found, to the ids completing it; and
    Hom(i, j[1]) = 0 by id pair, when first asked.  Bit j of coherent[i]
    says that g(i) and g(j) are sign-coherent, set as the later of the two
    is interned; bit j of clash[i] that Hom(i, j[1]) or Hom(j, i[1]) was
    found nonzero.  No Hom is asked ahead of a scan: over the Kronecker
    algebra every preprojective is sign-coherent with every other."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.ids = {}  # g-vector -> id
        self.complexes = []
        self.g = []
        self.signs = []  # (positive, negative) vertex bitmask of each g-vector
        self.coherent = []
        self.clash = []
        self.objects = {}  # object key -> ids of its summands
        self.index = {}
        self.vanishing = {}

    def add(self, P):
        """The ids of P's summands, interning the new ones; P is indexed by
        its almost complete parts."""
        if P.key in self.objects:
            return self.objects[P.key]
        ids = []
        for C, g in zip(P.summands, P.key):
            i = self.ids.get(g)
            if i is None:
                i = self.ids[g] = len(self.g)
                self.complexes.append(C)
                self.g.append(g)
                self.signs.append(_sign_masks(g))
                self.coherent.append(0)
                self.clash.append(0)
                pos, neg = self.signs[i]
                for j, (p, m) in enumerate(self.signs):
                    if not (p & neg or m & pos):
                        self.coherent[i] |= 1 << j
                        self.coherent[j] |= 1 << i
            ids.append(i)
        whole = frozenset(ids)
        for i in ids:
            self.index.setdefault(whole - {i}, set()).add(i)
        self.objects[P.key] = ids
        return ids

    def ext_vanishes(self, i, j):
        """Is Hom(i, j[1]) zero?  A nonzero one marks the pair in clash."""
        out = self.vanishing.get((i, j))
        if out is None:
            C = self.complexes
            out = self.vanishing[(i, j)] = not _hom_dim(self.algebra, C[i], C[j], 1)
            if not out:
                self.clash[i] |= 1 << j
                self.clash[j] |= 1 << i
        return out

    def partner(self, ids, k):
        """The known id completing U = ids without ids[k], or None, for ids
        as add returned them: from the index, else from _scan, whose partner
        joins index[U], so the right mutation after a refused left one finds
        it with no second scan."""
        rest = ids[:k] + ids[k + 1:]
        U = frozenset(rest)
        found = self.index[U] - {ids[k]} or self._scan(ids, rest)
        if len(found) > 1:
            raise CertificationFailed(f"{len(found)} exchange partners of one almost complete object")
        self.index[U] |= found
        return next(iter(found), None)

    def _scan(self, ids, rest):
        """The known ids Y outside ids that complete rest.  Candidates are
        sign-coherent with each u in rest (the summands of a presilting T^0
        and T^-1 share no vertex, AIR section 2) and clash with none; for
        them c . g(Y) = det[g(rest); g(Y)] must be +-1 (the g-vectors of a
        silting object are a Z-basis, AIR section 5), c the primitive kernel
        vector of g(rest), and Hom(Y, u[1]) = Hom(u, Y[1]) = 0 certifies Y."""
        cand = (1 << len(self.g)) - 1 - sum(1 << i for i in ids)
        for u in rest:
            cand &= self.coherent[u] & ~self.clash[u]
        if not cand:
            return set()
        (kernel,) = int_nullspace([dict(enumerate(self.g[u])) for u in rest], len(ids))
        # a 1 at its free column makes its least integral multiple primitive
        cof = int_scale([kernel])[1][0].items()
        return {
            y
            for y in range(cand.bit_length())
            if cand >> y & 1
            and abs(sum(x * self.g[y][c] for c, x in cof)) == 1
            and all(self.ext_vanishes(y, u) and self.ext_vanishes(u, y) for u in rest)
        }


def mutate(algebra, P, k, direction, validate=True, memo=None):
    """Replace the k-th summand X by its exchange partner Y.

    direction "left": cone over the approximation into the rest (moves down
    in the silting order); "right": cocone from the rest (moves up).
    Raises ConeNotTwoTerm when there is no two-term silting object on the
    requested side.

    memo is a dict kept across the mutations over one algebra; None starts
    a fresh one.  Its _SummandTable looks Y up before any cone is built: as
    the other completion of a known object with the same rest (there are
    exactly two, Adachi-Iyama-Reiten Thm. 2.18), else as a known summand
    that completes the rest (a summand is determined by its g-vector, Thm.
    5.5).  A known Y lies below exactly when Hom(X, Y[1]) = 0 and above
    exactly when Hom(Y, X[1]) = 0, and one of them must hold.  Only an
    unknown Y comes from the exchange cone, whose Hom bases memo keeps too;
    a cone that gives a known summand raises CertificationFailed.
    """
    if not isinstance(P, SiltingObject):
        raise NotSilting("mutate needs a SiltingObject")
    if type(k) is not int or not 0 <= k < len(P.summands):
        raise IndexOutOfRange(f"summand index {k!r} out of range")
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    X = _as_complex(algebra, P.summands[k])
    rest = P.summands[:k] + P.summands[k + 1:]
    memo = {} if memo is None else memo
    table = memo.get(_SummandTable)
    if table is None:
        table = memo[_SummandTable] = _SummandTable(algebra)
    elif table.algebra is not algebra:
        raise ShapeMismatch("memo holds the summands of a different algebra")
    ids = table.add(P)
    y = table.partner(ids, k)
    if y is None:
        C = _exchange_cone(algebra, X, rest, direction, memo)
        Y = _new_class_from_cone(algebra, C, rest)
        g = g_vector(Y)
        if g in table.ids:
            raise CertificationFailed("the exchange cone gave a known summand")
    else:
        down, up = table.ext_vanishes(ids[k], y), table.ext_vanishes(y, ids[k])
        if down == up:
            raise CertificationFailed("a known exchange partner is not on exactly one side")
        if down != (direction == "left"):
            raise ConeNotTwoTerm(f"the exchange partner is not on the {direction}")
        Y, g = table.complexes[y], table.g[y]
    key = P.key[:k] + P.key[k + 1:]
    i = bisect_right(key, g)
    out = SiltingObject._keyed(algebra, rest[:i] + (Y,) + rest[i:], key[:i] + (g,) + key[i:])
    if validate:
        out._validate()
        upper, lower = (P, out) if direction == "left" else (out, P)
        if hom_shift1_dim(algebra, upper.total(), lower.total()):
            raise CertificationFailed("mutation did not move in its direction")
    table.add(out)
    return out


def _completion(algebra, P):
    """(the g-vectors of P's summands and of the shifted projectives added
    for them, the certified completion); see bongartz_complete."""
    red = reduce_complex(algebra, P)
    if not red.is_zero() and not is_presilting(algebra, red):
        raise NotPresilting("input is not presilting")
    present = {v for t in red.summands.values() for v in t}
    h0 = h0_dim_vector(algebra, red)
    shifted = [stalk(algebra, [v], -1) for v, d in enumerate(h0) if not d and v not in present]
    classes = {}  # one part per g-vector, the first met
    for p in (*decompose(algebra, red), *shifted):
        classes.setdefault(g_vector(p), p)
    inputs = set(classes)
    D = _exchange_cone(algebra, lambda_shifted(algebra), list(classes.values()), "right", {})
    for p in decompose(algebra, D):
        classes.setdefault(g_vector(p), p)
    return inputs, SiltingObject(algebra, classes.values())


def bongartz_complete(algebra, P):
    """Silting object containing the given presilting complex as summands.

    Support-aware: vertices absent from the (reduced) complex whose
    cohomology also vanishes there contribute shifted projectives; the
    remaining slots are filled by the right exchange cone of the shifted
    free module by those classes.  After the presilting test, the input's
    and the cone's parts are kept one per g-vector (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Thm. 5.5), and SiltingObject certifies the result.
    """
    return _completion(algebra, P)[1]


def check_silting_module(algebra, presentation):
    """Does the presented module generate a torsion class of silting type?

    True iff the presentation is presilting and no summand that its
    completion adds has nonzero cohomology.  After the presilting test,
    the completion names the input's summands by g-vector, as in
    bongartz_complete (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm. 5.5).
    """
    try:
        inputs, out = _completion(algebra, presentation)
    except NotPresilting:
        return False
    return not any(
        g not in inputs and any(h0_dim_vector(algebra, s)) for g, s in zip(out.key, out.summands)
    )


def check_presilting_family(algebra, indices):
    """Banded band complexes over a two-arrow Kronecker-type quiver:
    for each i builds (A e_b)^i -> (A e_a)^{i+1} with second-arrow entries
    on the diagonal and negated first-arrow entries below, and reports
    is_presilting."""
    q = algebra.quiver
    if len(q.vertices) != 2 or len(q.arrows) != 2:
        raise ValueError("family check needs two vertices and two arrows")
    (n0, s0, t0), (n1, s1, t1) = q.arrows
    if not (s0 == s1 == 0 and t0 == t1 == 1):
        raise ValueError("family check needs two parallel arrows 0 -> 1")
    x = algebra.arrow_element(n0)
    y = algebra.arrow_element(n1)
    out = []
    for i in indices:
        entries = [
            [y if r == c else -x if r == c + 1 else 0 for c in range(i)] for r in range(i + 1)
        ]
        C = two_term(algebra, [1] * i, [0] * (i + 1), entries)
        out.append(is_presilting(algebra, C))
    return out


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EnumerationResult:
    poset: FinitePoset
    objects: dict
    edges: tuple


@dataclass(frozen=True)
class TauTiltingReport:
    status: str  # "finite" | "unknown"
    count: int | None


def enumerate_2silt(algebra, config=DEFAULTS):
    """All two-term silting objects, by mutation search from the free
    module; order: Q <= P iff Hom(P, Q[1]) = 0.

    Removing one summand leaves an almost complete presilting complex with
    exactly two silting completions, one the left and the other the right
    mutation of the object (Adachi-Iyama-Reiten, tau-tilting theory, Thm.
    2.18).  So each (object, summand) pair is mutated once: left, and right
    only if the left one is refused; a pair whose edge was already found
    from its other end is skipped.  A pair refused in both directions
    raises CertificationFailed.  The mutations share one memo, so mutate
    finds a partner that is already known in its summand table: the other
    completion of a known object, else a known summand completing the rest
    (a summand is determined by its g-vector, Thm. 5.5), scanned with
    bitmasks and one kernel vector, no determinant.  So a cone is built
    once per summand outside the free module, and once more for each left
    cone refused while its partner is still unknown; a partner the scan
    finds for a refused left mutation is indexed for the right one.

    Every mutation found is recorded as an edge pointing down.  For a
    tau-tilting finite algebra these edges form the Hasse quiver of the
    order (Adachi-Iyama-Reiten, Cor. 2.34), so the order is the
    reflexive-transitive closure of the edges and no Hom between two
    silting objects is computed.  The result is certified by checking that
    the edges are exactly the covers of that closure, with the free module
    on top and its shift at the bottom.
    """
    start = silting_lambda(algebra)
    objects = {start.key: start}
    edges = set()
    queue = [start]
    memo = {}
    # (object key, summand index) pairs whose edge is known from either end
    done = set()
    while queue:
        cur = queue.pop(0)
        for k in range(len(cur.summands)):
            if (cur.key, k) in done:
                continue
            try:
                nxt = mutate(algebra, cur, k, "left", validate=False, memo=memo)
            except ConeNotTwoTerm:
                try:
                    nxt = mutate(algebra, cur, k, "right", validate=False, memo=memo)
                except ConeNotTwoTerm:
                    raise CertificationFailed(
                        f"summand {k} of {cur.id_string()} has no two-term "
                        "exchange partner"
                    ) from None
                edges.add((nxt.key, cur.key))
            else:
                edges.add((cur.key, nxt.key))
            (new_g,) = set(nxt.key) - set(cur.key)
            done.add((nxt.key, nxt.key.index(new_g)))
            if nxt.key not in objects:
                objects[nxt.key] = nxt
                if len(objects) > config.silting_cap:
                    raise CapExceeded(
                        f"more than {config.silting_cap} silting objects; "
                        "not certified tau-tilting finite"
                    )
                queue.append(nxt)
    keys = sorted(objects)
    # neighbouring objects share summands: one H0 and one text per distinct
    # summand, g-vector and H0 vector
    h0_memo, text = {}, {}
    ids = {k: _fmt_vecs(k, text) for k in keys}
    for obj in objects.values():
        obj._h0 = _h0_key(algebra, obj.summands, h0_memo)
    elements = [(ids[k], f"g={ids[k]};H0={_fmt_vecs(objects[k]._h0, text)}") for k in keys]
    edge_ids = tuple(sorted((ids[a], ids[b]) for a, b in edges))
    poset = build_poset(elements, [(lower, upper) for upper, lower in edge_ids])
    if edge_ids != tuple(sorted(poset.covers)):
        raise CertificationFailed("mutation edges are not the covers of their order")
    if poset.top() != ids[start.key]:
        raise CertificationFailed("free module is not the unique maximum")
    shifted_key = tuple(sorted(g_vector(s.shift(1)) for s in start.summands))
    if poset.bottom() != _fmt_vecs(shifted_key, text):
        raise CertificationFailed("shifted free module is not the unique minimum")
    return EnumerationResult(
        poset=poset,
        objects={ids[k]: objects[k] for k in keys},
        edges=edge_ids,
    )


def tors_lattice(algebra, config=DEFAULTS):
    """The silting order relabeled by cohomology data: for tau-tilting
    finite algebras this is the lattice of torsion classes."""
    poset = enumerate_2silt(algebra, config).poset
    # each label is "g=[...];H0=[...]", and a g-vector text holds no ";"
    return poset.relabeled(label.partition(";")[2] for label in poset.labels)


def is_tau_tilting_finite(algebra, config=DEFAULTS):
    try:
        result = enumerate_2silt(algebra, config)
    except CapExceeded:
        return TauTiltingReport(status="unknown", count=None)
    return TauTiltingReport(status="finite", count=len(result.poset))


# ---------------------------------------------------------------------------
# complex literal format


_LITERAL_RE = re.compile(
    r"(?:P\s*=\s*)?\[(?P<minus>[^\]]*)\]\s*->\s*\[(?P<zero>[^\]]*)\]\s*;\s*d\s*=\s*(?P<d>.*)\Z",
    re.S,
)


def parse_complex(algebra, text):
    """Parse `P = [e2] -> [e1] ; d = [[1*a]]`: summand lists per degree and
    a matrix of path combinations (rows over degree-0 summands)."""
    m = _LITERAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad complex literal {text!r}")
    minus = _parse_summands(algebra, m.group("minus"))
    zero = _parse_summands(algebra, m.group("zero"))
    rows = _parse_matrix(m.group("d").strip())
    if len(rows) != len(zero):
        raise ParseError(f"matrix has {len(rows)} rows for {len(zero)} summands")
    entries = []
    for r, row in enumerate(rows):
        if len(row) != len(minus):
            raise ParseError(
                f"row {r} has {len(row)} entries for {len(minus)} columns"
            )
        out = []
        for c, cell in enumerate(row):
            out.append(_parse_entry(algebra, cell, minus[c], zero[r]))
        entries.append(out)
    return two_term(algebra, minus, zero, entries)


def _parse_summands(algebra, text):
    text = text.strip()
    if not text:
        return []
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.startswith("e") or tok[1:] not in algebra.quiver.vertex_index:
            raise ParseError(f"bad summand token {tok!r}")
        out.append(algebra.quiver.vertex_index[tok[1:]])
    return out


def _parse_matrix(text):
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad matrix literal {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows = []
    depth = 0
    cur = ""
    for ch in inner:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                rows.append([p.strip() for p in cur.split(",")] if cur.strip() else [])
                continue
        if depth >= 1:
            cur += ch
        elif ch not in ", \n\t":
            raise ParseError(f"bad matrix literal {text!r}")
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    return rows


def _parse_entry(algebra, text, col_vertex, row_vertex):
    text = text.strip()
    if text in ("0", ""):
        return 0
    acc = None
    for coeff, factors in _signed_terms(
        text, algebra.quiver.arrow_index, f"entry {text!r}"
    ):
        el = None
        for f in factors:
            if f in algebra.quiver.arrow_index:
                nxt = algebra.arrow_element(f)
            elif f.startswith("e") and f[1:] in algebra.quiver.vertex_index:
                nxt = algebra.idempotent(algebra.quiver.vertex_index[f[1:]])
            else:
                raise ParseError(f"unknown factor {f!r}")
            try:
                el = nxt if el is None else el * nxt
            except ValueError as exc:
                raise ParseError(f"non-composable path {'*'.join(factors)!r}") from exc
        el = el.scale(coeff)
        try:
            acc = el if acc is None else acc + el
        except ValueError as exc:
            raise ParseError(f"mixed corners in entry {text!r}") from exc
    if acc.target != col_vertex or acc.source != row_vertex:
        raise ParseError(
            f"entry {text!r} does not map summand e{algebra.quiver.vertices[col_vertex]}"
            f" to e{algebra.quiver.vertices[row_vertex]}"
        )
    return acc
