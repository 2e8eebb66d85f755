"""Brute-force module theory over a small prime field.

An independent check on the complex-based machinery: modules are stored as
literal matrix representations over F_p, splitting and isomorphism are
decided by searching for explicit intertwiners, and torsion classes are
the subsets of indecomposable classes closed under literal closure
conditions, listed by NextClosure.  The searches are exhaustive and capped
everywhere; relations affine in a matrix are solved for, not filtered.
They skip only what provably adds nothing: matrix assignments
that cannot be the first of their class, subspace tuples with an unstable
part, cocycles cohomologous to one already taken, the decomposition of
the split middle term x (+) y (its parts are x and y, by Krull-Schmidt),
classes whose arrow ranks do not fit in a module being split, and
combinations of Hom basis maps when testing whether an indecomposable
class splits off.  The last rests on locality: the endomorphism ring of
an indecomposable is local and its non-units form a subspace, so if some
g o f is the identity, the composite of one pair of basis maps is
already invertible.
Without an explicit dimension bound only a short table of certified
algebra shapes is accepted, so the exhaustive searches stay honest.

Matrices are tuples of row tuples with entries reduced mod p; the matrix of
an arrow has one row per target-vertex dimension and one column per
source-vertex dimension, matching left modules over the path algebra.
The builders inside this module make these nested tuples of ints
themselves and hand them to Representation uncopied (copy=False).  The
Hom differential is the exception to dense matrices: its rows are sparse
dicts, variable -> nonzero coefficient, which the modp_* front ends
eliminate as they are.
A subspace of F_p^d has one form throughout: (pivot columns, rows), each
row 1 at its own pivot and 0 at the other pivots.  RREFs have it, and so
do nullspace vectors pivoted at their free columns, so kernels are used
as they come; _reduce serves membership, coordinates and quotients.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

from .config import DEFAULTS
from .errors import (
    CertificationFailed,
    NotRepFiniteWithinBound,
    SearchSpaceExceeded,
    ShapeMismatch,
    SizeCapExceeded,
)
from .linalg import modp_echelon, modp_nullspace, modp_rank
from .posets import _backtrack, _closure_order, closed_sets


def _zero_mat(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _identity_mat(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(p, x, y, a, k, c):
    # x is a-by-k, y is k-by-c
    if k == 0:
        return _zero_mat(a, c)
    return tuple(
        tuple(sum(x[i][t] * y[t][j] for t in range(k)) % p for j in range(c))
        for i in range(a)
    )


def _mat_vec(p, m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)


def _coeff_mod(coeff, p):
    frac = Fraction(coeff)
    if frac.denominator % p == 0:
        raise ValueError(f"coefficient {coeff} is not defined mod {p}")
    return frac.numerator * pow(frac.denominator, p - 2, p) % p


def _field_of(algebra, field):
    if field is None:
        tag = getattr(algebra, "oracle_field", "Q")
        return {"F2": 2, "F3": 3}.get(tag, 2)
    if not _is_int(field) or field not in (2, 3):
        raise ValueError("supported fields are F_2 and F_3, given as 2 or 3")
    return field


def _is_int(x):
    # bool is an int subclass, but True is no field or bound
    return isinstance(x, int) and not isinstance(x, bool)


def _vertex_index(algebra, vertex):
    q = algebra.quiver
    if _is_int(vertex):
        if not 0 <= vertex < len(q.vertices):
            raise ValueError(f"vertex index {vertex} out of range")
        return vertex
    name = str(vertex)
    if name not in q.vertex_index:
        raise ValueError(f"unknown vertex {name!r}")
    return q.vertex_index[name]


class Representation:
    """Quiver representation over F_p on which the relations vanish.

    dims[v] is the dimension at vertex v; mats[a] is the matrix of arrow a.
    """

    __slots__ = ("algebra", "p", "dims", "mats")

    def __init__(self, algebra, p, dims, mats, validate=True, copy=True):
        self.algebra = algebra
        self.p = p
        if copy:
            # a copy, not a conversion: _check refuses what is not an int
            self.dims = tuple(dims)
            self.mats = tuple(tuple(tuple(r) for r in m) for m in mats)
        else:
            # caller hands over canonical nested tuples of ints
            self.dims = dims
            self.mats = mats
        if validate:
            self._check()

    def _check(self):
        q = self.algebra.quiver
        if not _is_int(self.p) or self.p not in (2, 3):
            raise ValueError("supported fields are F_2 and F_3, given as the int 2 or 3")
        if not all(map(_is_int, self.dims)):
            raise ValueError("dimensions must be ints")
        if len(self.dims) != len(q.vertices) or any(d < 0 for d in self.dims):
            raise ShapeMismatch("dimension vector does not match the quiver")
        if len(self.mats) != len(q.arrows):
            raise ShapeMismatch("need one matrix per arrow")
        for a, m in enumerate(self.mats):
            rows = self.dims[q.arrow_target(a)]
            cols = self.dims[q.arrow_source(a)]
            if len(m) != rows or any(len(r) != cols for r in m):
                name = q.arrows[a][0]
                raise ShapeMismatch(f"matrix for arrow {name!r} has the wrong shape")
            if any(not _is_int(e) or not 0 <= e < self.p for r in m for e in r):
                raise ValueError("matrix entries must be ints reduced mod p")
        if not _relations_vanish(self):
            raise ValueError("the relations do not vanish on this representation")

    def path_matrix(self, arrows):
        """Matrix of a path given as arrow indices, rightmost applied first."""
        q = self.algebra.quiver
        a = arrows[-1]
        cur = self.mats[a]
        rows = self.dims[q.arrow_target(a)]
        cols = self.dims[q.arrow_source(a)]
        for a in reversed(arrows[:-1]):
            nxt = self.dims[q.arrow_target(a)]
            cur = _mat_mul(self.p, self.mats[a], cur, nxt, rows, cols)
            rows = nxt
        return cur

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        return (self.dims, self.mats)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.p == other.p
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.p, self.key()))

    def __repr__(self):
        return f"Representation(p={self.p}, dims={self.dims})"


def _relations_vanish(rep, relations=None):
    p = rep.p
    for rel in rep.algebra.relation_terms if relations is None else relations:
        acc = None
        for coeff, arrows in rel:
            c = _coeff_mod(coeff, p)
            if not c:
                continue
            m = rep.path_matrix(arrows)
            if acc is None:
                acc = [[c * e for e in row] for row in m]
            else:
                for i, row in enumerate(m):
                    for j, e in enumerate(row):
                        acc[i][j] += c * e
        if acc is not None and any(e % p for row in acc for e in row):
            return False
    return True


def simple_rep(algebra, vertex, field=None):
    """The one-dimensional representation at a vertex; all arrows act as zero."""
    p = _field_of(algebra, field)
    q = algebra.quiver
    v = _vertex_index(algebra, vertex)
    dims = tuple(1 if i == v else 0 for i in range(len(q.vertices)))
    mats = tuple(
        _zero_mat(dims[q.arrow_target(a)], dims[q.arrow_source(a)])
        for a in range(len(q.arrows))
    )
    return Representation(algebra, p, dims, mats)


def projective_rep(algebra, vertex, field=None):
    """Indecomposable projective at a vertex: paths out of it, arrows acting
    by left multiplication.
    """
    p = _field_of(algebra, field)
    v = _vertex_index(algebra, vertex)
    by_vertex, slot = _projective_layout(algebra, v)
    q = algebra.quiver
    dims = tuple(len(ix) for ix in by_vertex)
    mats = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        m = [[0] * dims[s] for _ in range(dims[t])]
        abidx = next(iter(algebra.arrow_element(q.arrows[a][0]).coeffs))
        for col, bidx in enumerate(by_vertex[s]):
            for out_idx, coeff in algebra.mul_basis(abidx, bidx).items():
                m[slot[out_idx]][col] = _coeff_mod(coeff, p)
        mats.append(tuple(tuple(r) for r in m))
    return Representation(algebra, p, dims, mats)


def _projective_layout(algebra, v):
    """Group the basis paths out of v by target vertex, in basis order."""
    by_vertex = [[] for _ in algebra.quiver.vertices]
    for bidx in algebra.basis_by_source(v):
        by_vertex[algebra.basis_target(bidx)].append(bidx)
    slot = {}
    for ix in by_vertex:
        for pos, bidx in enumerate(ix):
            slot[bidx] = pos
    return [tuple(ix) for ix in by_vertex], slot


def direct_sum_rep(algebra, reps):
    """Block-diagonal sum of representations over the same field."""
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum; build a zero representation directly")
    p = reps[0].p
    for r in reps:
        _same_setting(algebra, reps[0], r)
    q = algebra.quiver
    n = len(q.vertices)
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(n))
    offs = []
    run = [0] * n
    for r in reps:
        offs.append(tuple(run))
        run = [run[v] + r.dims[v] for v in range(n)]
    mats = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        m = [[0] * dims[s] for _ in range(dims[t])]
        for r, off in zip(reps, offs):
            for i, row in enumerate(r.mats[a]):
                for j, e in enumerate(row):
                    m[off[t] + i][off[s] + j] = e
        mats.append(tuple(tuple(row) for row in m))
    return Representation(algebra, p, dims, tuple(mats), validate=False, copy=False)


def _same_setting(algebra, m, n):
    if m.algebra is not algebra or n.algebra is not algebra:
        raise ShapeMismatch("representation belongs to a different algebra")
    if m.p != n.p:
        raise ShapeMismatch("representations live over different fields")


# ---------------------------------------------------------------------------
# Hom and Ext^1 from one differential


def _hom_delta(p, q, m, n):
    """The differential delta(h)_a = n_a h_s - h_t m_a on the maps h: m -> n,
    as (vertex offsets, rows).  Entry (i, k) of h_v is the variable
    offs[v] + i * m_v + k.  There is one row per entry of the blocks
    delta(h)_a, arrow by arrow, each row-major, so a row's index is its
    position in the block.  A row is sparse: a dict from variable to
    nonzero coefficient mod p, and {} where no variable reaches.  Its
    kernel is Hom(m, n); with m = y and n = x its columns span the
    coboundaries of Ext^1(y, x).
    """
    offs = [0]
    for v in range(len(m.dims)):
        offs.append(offs[-1] + n.dims[v] * m.dims[v])
    rows = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        ms, mt = m.dims[s], m.dims[t]
        ma = m.mats[a]
        for i, na_row in enumerate(n.mats[a]):
            start = offs[t] + i * mt
            for j in range(ms):
                # entry (i, j) of delta(h)_a: n_a[i][l] times entry (l, j)
                # of h_s, less m_a[k][j] times entry (i, k) of h_t
                row = {}
                for l, e in enumerate(na_row):
                    if e:
                        row[offs[s] + l * ms + j] = e
                for k, m_row in enumerate(ma):
                    e = m_row[j]
                    if e:
                        # on a loop both terms can reach one variable
                        e = (row.get(start + k, 0) - e) % p
                        if e:
                            row[start + k] = e
                        else:
                            del row[start + k]
                rows.append(row)
    return offs, rows


def _hom_kernel(algebra, m, n):
    """(offs, vectors): Hom(m, n) as the modp_nullspace basis of
    _hom_delta, flat vectors over its variables."""
    offs, rows = _hom_delta(m.p, algebra.quiver, m, n)
    return offs, modp_nullspace(rows, offs[-1], m.p)


def _hom_block(vec, offs, m, n, v):
    """The matrix at vertex v of the map m -> n with flat vector vec."""
    start, cols = offs[v], m.dims[v]
    return tuple(
        tuple(vec[start + i * cols : start + (i + 1) * cols]) for i in range(n.dims[v])
    )


def hom_rep_basis(algebra, m, n):
    """Basis of the intertwiner space m -> n: tuples of per-vertex matrices."""
    _same_setting(algebra, m, n)
    offs, vecs = _hom_kernel(algebra, m, n)
    return [
        tuple(_hom_block(vec, offs, m, n, v) for v in range(len(m.dims)))
        for vec in vecs
    ]


def hom_rep_dim(algebra, m, n):
    return len(hom_rep_basis(algebra, m, n))


def _cocycles(algebra, x, y):
    """The cocycle system of Ext^1(y, x): (offs, free, rows).

    A middle term of a short exact sequence with sub x and quotient y has
    the arrow matrices [[x_a, c_a], [0, y_a]]; the connecting block c_a
    starts at offs[a] of a flat vector, row-major.  The blocks on which
    the relations vanish are the cocycles Z.  Changing the basis by
    [[1, h], [0, 1]] adds the coboundary x_a h_s - h_t y_a to c, so
    cohomologous cocycles give isomorphic middle terms and
    Ext^1(y, x) = Z/B.  Every coset of B meets the blocks that vanish on
    the pivot columns of B's echelon form exactly once; free lists the
    other columns, and rows are the relations, linear in c, on them.  So
    the solutions of rows are one cocycle per class.
    """
    p = x.p
    q = algebra.quiver
    offs = [0]  # where each arrow's block starts in the flat vector
    for a in range(len(q.arrows)):
        offs.append(offs[-1] + x.dims[q.arrow_target(a)] * y.dims[q.arrow_source(a)])
    hom_offs, delta = _hom_delta(p, q, y, x)
    # delta's columns as sparse rows over the positions in the block
    cols = [{} for _ in range(hom_offs[-1])]
    for pos, row in enumerate(delta):
        for k, e in row.items():
            cols[k][pos] = e
    pivots = set(modp_echelon(cols, offs[-1], p)[0])
    free = [k for k in range(offs[-1]) if k not in pivots]
    # the (1, 2) block of a product of the middle term's matrices has one
    # c factor per term: x's path before it, y's path after
    every = {a: offs[a] for a in range(len(q.arrows))}
    rows = [
        [row[k] for k in free]
        for rel in algebra.relation_terms
        for row in _relation_rows(p, q, rel, x, y, every, offs[-1])
    ]
    return offs, free, rows


def ext_dim(algebra, m, n):
    """Dimension of Ext^1(m, n) over F_p: the cocycles of _cocycles(n, m),
    one per class, counted as the free columns less the relations' rank."""
    _same_setting(algebra, m, n)
    _, free, rows = _cocycles(algebra, n, m)
    return len(free) - modp_rank(rows, len(free), m.p)


# ---------------------------------------------------------------------------
# splitting


def _hom_combo(p, basis, coeffs):
    nv = len(basis[0])
    out = []
    for v in range(nv):
        shape = basis[0][v]
        acc = [[0] * len(shape[0] if shape else ()) for _ in range(len(shape))]
        for c, f in zip(coeffs, basis):
            if not c:
                continue
            for i, row in enumerate(f[v]):
                for j, e in enumerate(row):
                    acc[i][j] = (acc[i][j] + c * e) % p
        out.append(tuple(tuple(r) for r in acc))
    return tuple(out)


def _simple_splits(rep, v):
    """Whether the simple at v splits off: a vector killed by the outgoing
    arrows that misses the span of the incoming images."""
    p = rep.p
    q = rep.algebra.quiver
    d = rep.dims[v]
    if d == 0:
        return False
    out_rows = []
    in_vecs = []
    for a in range(len(q.arrows)):
        if q.arrow_source(a) == v and rep.dims[q.arrow_target(a)]:
            out_rows.extend(rep.mats[a])
        if q.arrow_target(a) == v and rep.dims[q.arrow_source(a)]:
            m = rep.mats[a]
            for j in range(rep.dims[q.arrow_source(a)]):
                in_vecs.append([m[i][j] for i in range(d)])
    kernel = modp_nullspace(out_rows, d, p)
    if not kernel:
        return False
    if not in_vecs:
        return True
    images = modp_echelon(in_vecs, d, p)
    return any(any(_reduce(p, images, u)[1]) for u in kernel)


def _splits_off(algebra, c, r):
    """Retraction g: r -> c of a split embedding of c into r, or None.

    Scans pairs of Hom basis maps f_j: c -> r and g_i: r -> c for a unit
    g_i o f_j of End(c); then r = im f_j (+) ker g_i.  The scan is complete
    because c is indecomposable: End(c) is local, so its non-units form the
    subspace rad End(c).  If g o f = 1 for some f and g, expanding both in
    the bases writes 1 as a combination of the g_i o f_j, so one of them
    lies outside rad End(c) and is a unit.  A non-unit of the local ring
    End(c) is nilpotent, hence singular at every vertex where c is nonzero,
    so one such vertex, the first, tells units apart.  Only the blocks of
    the basis maps at that vertex are built for the scan, and the whole
    map only for the g returned.
    """
    p = c.p
    f_offs, fs = _hom_kernel(algebra, c, r)
    if not fs:
        return None
    v, d = next((v, d) for v, d in enumerate(c.dims) if d)
    f_blocks = [_hom_block(f, f_offs, c, r, v) for f in fs]
    g_offs, gs = _hom_kernel(algebra, r, c)
    for g in gs:
        g_block = _hom_block(g, g_offs, r, c, v)
        for f_block in f_blocks:
            if modp_rank(_mat_mul(p, g_block, f_block, d, r.dims[v], d), d, p) == d:
                return tuple(_hom_block(g, g_offs, r, c, u) for u in range(len(c.dims)))
    return None


def _reduce(p, sub, vec):
    """(coords, rest) with vec = sum of coords[i] * rows[i] + rest, for a
    subspace sub = (pivot columns, rows) and vec reduced mod p.  rest is 0
    at the pivots, so vec lies in the span exactly when rest is 0, and its
    other entries are vec's coordinates in the quotient by the span.
    """
    pivs, rows = sub
    coords = [vec[pc] for pc in pivs]
    for c, row in zip(coords, rows):
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    return coords, vec


def _kernel(p, mat, d):
    """Kernel of a matrix with d columns as a subspace: the modp_nullspace
    vectors, each pivoted at its free column, which is its last nonzero
    entry (the columns after it are free and 0 there)."""
    rows = modp_nullspace(mat, d, p)
    return [max(i for i, x in enumerate(u) if x) for u in rows], rows


def _subrep_on_rows(algebra, rep, bases):
    """Representation carried by per-vertex subspaces (pivot columns,
    rows), assumed arrow stable; the rows are its bases."""
    p = rep.p
    q = rep.algebra.quiver
    dims = tuple(len(rows) for _, rows in bases)
    mats = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        cols = []
        for u in bases[s][1]:
            coords, rest = _reduce(p, bases[t], _mat_vec(p, rep.mats[a], u))
            if any(rest):
                raise ValueError("subspace tuple is not arrow stable")
            cols.append(coords)
        mats.append(
            tuple(tuple(col[i] for col in cols) for i in range(dims[t]))
        )
    return Representation(algebra, p, dims, tuple(mats), validate=False, copy=False)


def _kernel_subrep(algebra, rep, hom_mats):
    """Kernel of a morphism out of rep, with its restricted arrow action."""
    bases = [_kernel(rep.p, m, d) for m, d in zip(hom_mats, rep.dims)]
    return _subrep_on_rows(algebra, rep, bases)


def _arrow_ranks(rep):
    """The arrow-rank profile of rep: its dimension vector, then the rank,
    kernel dimension and cokernel dimension of each arrow's matrix."""
    q = rep.algebra.quiver
    out = list(rep.dims)
    for a, m in enumerate(rep.mats):
        d = rep.dims[q.arrow_source(a)]
        r = modp_rank(m, d, rep.p) if any(map(any, m)) else 0
        out += (r, d - r, len(m) - r)
    return tuple(out)


def _decompose(algebra, rep, classes, memo):
    """Sorted class indices of the summands, or None if a piece is unknown.

    The matrix of an arrow on c (+) r is block diagonal, so its rank,
    kernel and cokernel dimensions are the sums of those on c and on r,
    and a class can split off only if no entry of its arrow-rank profile
    exceeds rep's.  The filter never drops a class that splits, so the
    scan meets the same first class as without it.  By the same additivity
    the rest left when class c splits off has rep's profile less c's, so
    only the module first given has its ranks computed.  The classes'
    profiles are computed once per memo, which holds them beside the
    results: one for each module met on the way down.
    """
    profiles = memo.get("profiles")
    if profiles is None:
        profiles = memo["profiles"] = [_arrow_ranks(c) for c in classes]
    peeled = []  # (key, class split off) for each module on the way down
    own = None
    while True:
        key = rep.key()
        if key in memo:
            out = memo[key]
            break
        if rep.is_zero():
            out = memo[key] = ()
            break
        if own is None:
            own = _arrow_ranks(rep)
        for idx, c in enumerate(classes):
            if any(cv > rv for cv, rv in zip(profiles[idx], own)):
                continue
            g = _splits_off(algebra, c, rep)
            if g is not None:
                break
        else:
            out = memo[key] = None
            break
        peeled.append((key, idx))
        rep = _kernel_subrep(algebra, rep, g)
        own = tuple(rv - cv for rv, cv in zip(own, profiles[idx]))
    for key, idx in reversed(peeled):
        if out is not None:
            out = tuple(sorted((idx,) + out))
        memo[key] = out
    return out


# ---------------------------------------------------------------------------
# exhaustive search for indecomposables


_CORPUS_BOUND_NOTE = (
    "no certified dimension bound for this algebra shape; "
    "pass an explicit dim_bound to override"
)


def _certified_bound(algebra):
    """Per-vertex cap guaranteed to reach every indecomposable, for the few
    algebra shapes the cross-check corpus uses.  None for anything else."""
    q = algebra.quiver
    n = len(q.vertices)
    shape = sorted(
        (q.arrow_source(a), q.arrow_target(a)) for a in range(len(q.arrows))
    )
    rels = algebra.relation_terms
    quadratic = all(
        len(arrows) == 2 for rel in rels for _, arrows in rel
    )
    if not shape:
        # semisimple: products of copies of the base field
        return (3,) * n
    if n == 1 and shape == [(0, 0)] and len(rels) == 1 and quadratic:
        # dual numbers: one loop squaring to zero
        return (3,)
    if n == 2 and shape == [(0, 1)] and not rels:
        return (3, 3)
    if n == 2 and shape == [(0, 1), (1, 0)] and len(rels) == 1 and quadratic:
        # one composite of the two opposite arrows killed
        return (3, 3)
    if n == 3 and not rels and len(shape) == 2:
        (s, t), (u, w) = shape
        if len({s, t, u, w}) == 3 and (t == u or w == s):
            # a directed path, so interval modules only; keeps the subset
            # machinery cheap
            return (1, 1, 1)
    return None


def _resolve_bound(algebra, dim_bound):
    n = len(algebra.quiver.vertices)
    if dim_bound is None:
        bound = _certified_bound(algebra)
        if bound is None:
            raise NotRepFiniteWithinBound(_CORPUS_BOUND_NOTE)
        return bound
    if _is_int(dim_bound):
        bound = (dim_bound,) * n
    elif isinstance(dim_bound, (tuple, list)) and all(_is_int(b) for b in dim_bound):
        bound = tuple(dim_bound)
        if len(bound) != n:
            raise ValueError("dim_bound must give one cap per vertex")
    else:
        raise ValueError("dim_bound must be an int or a tuple of ints, one per vertex")
    if any(b < 1 for b in bound):
        raise ValueError("dim_bound must be positive")
    return bound


def _search_size(p, bounds, q, cap):
    """The number of raw representations within bounds, p^(d_t d_s) per
    arrow summed over the nonzero dimension vectors: exact up to cap, and
    counted no further once it passes cap.  Each of the prod(b + 1) - 1
    nonzero vectors adds at least one, so past cap that count is returned
    before any vector is walked."""
    nonzero = prod(b + 1 for b in bounds) - 1
    if nonzero > cap:
        return nonzero
    total = 0
    for dims in product(*(range(b + 1) for b in bounds)):
        if not any(dims):
            continue
        cell = 1
        for a in range(len(q.arrows)):
            cell *= p ** (dims[q.arrow_target(a)] * dims[q.arrow_source(a)])
        total += cell
        if total > cap:
            break
    return total


def _reshape(flat, rows, cols):
    return tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))


def _all_matrices(p, rows, cols):
    return [_reshape(flat, rows, cols) for flat in product(range(p), repeat=rows * cols)]


def _affine_solutions(rows, nvars, p):
    """Solutions x of row . (x, 1) = 0 for every row over F_p, in the order
    of product(range(p), repeat=nvars).  Eliminating from the last entry up
    makes each pivot entry a function of the free entries before it, so two
    solutions first differ at a free entry: counting those keeps the order.
    """
    rows = [row for row in rows if any(row)]
    if not rows:
        return list(product(range(p), repeat=nvars))
    pivs, rref = modp_echelon([row[:nvars][::-1] + row[nvars:] for row in rows], nvars + 1, p)
    if pivs[-1] == nvars:  # 0 = 1
        return []
    pivot = [(nvars - 1 - c, row[:nvars][::-1], row[nvars]) for c, row in zip(pivs, rref)]
    free = sorted(set(range(nvars)) - {k for k, _, _ in pivot})
    out = []
    x = [0] * nvars
    for vals in product(range(p), repeat=len(free)):
        for k, val in zip(free, vals):
            x[k] = val
        for k, coeffs, const in pivot:
            x[k] = -(const + sum(coeffs[j] * x[j] for j in free)) % p
        out.append(tuple(x))
    return out


def _relation_rows(p, q, rel, left, right, offs, width):
    """The entries of a relation as linear equations in the blocks of the
    arrows in offs, whose row-major entries start at their offsets: rows of
    length width + 1, the constant last, zero rows dropped.  Each term
    reads L X R at each position of such an arrow, L a path of left and R
    one of right, or is a constant path of left if it has no such arrow."""
    shape = (left.dims[q.arrow_target(rel[0][1][0])], right.dims[q.arrow_source(rel[0][1][-1])])
    if not all(shape):
        return []
    rows = [[0] * (width + 1) for _ in range(shape[0] * shape[1])]
    for coeff, arrows in rel:
        c = _coeff_mod(coeff, p)
        if not c:
            continue
        spots = [k for k, a in enumerate(arrows) if a in offs]
        if not spots:
            for i, prow in enumerate(left.path_matrix(arrows)):
                for j, e in enumerate(prow):
                    rows[i * shape[1] + j][width] += c * e
        for k in spots:
            a = arrows[k]
            xrows, cols = left.dims[q.arrow_target(a)], right.dims[q.arrow_source(a)]
            if not xrows * cols:
                continue
            pre, post = arrows[:k], arrows[k + 1 :]
            lmat = left.path_matrix(pre) if pre else _identity_mat(xrows)
            rmat = right.path_matrix(post) if post else _identity_mat(cols)
            for i, lrow in enumerate(lmat):
                for r, lv in enumerate(lrow):
                    if not lv:
                        continue
                    for s, rrow in enumerate(rmat):
                        for j, rv in enumerate(rrow):
                            rows[i * shape[1] + j][offs[a] + r * cols + s] += c * lv * rv
    return [row for row in ([e % p for e in row] for row in rows) if any(row)]


def _first_of_each_rank(rows, cols):
    """The first matrix of each rank r = 0..min(rows, cols) in
    _all_matrices' order, for every p: ones at (rows - r + i, cols - 1 - i)
    for i < r, zeros elsewhere.  Listed by rank, which is also that order."""
    out = []
    for r in range(min(rows, cols) + 1):
        m = [[0] * cols for _ in range(rows)]
        for i in range(r):
            m[rows - r + i][cols - 1 - i] = 1
        out.append(tuple(tuple(row) for row in m))
    return out


def _vanishing_tuples(algebra, p, dims):
    """Arrow matrix tuples on dims on which the relations vanish, in the
    order of the full product sweep filtered by them.  The matrices are
    chosen arrow by arrow, and a relation falls due at its highest arrow.
    The relations due at an arrow that occurs at most once in each of their
    terms are affine in its matrix and solved; others (a loop squared, say)
    filter every matrix.  Without relations this is the product sweep."""
    q = algebra.quiver
    n_arrows = len(q.arrows)
    shapes = [(dims[q.arrow_target(a)], dims[q.arrow_source(a)]) for a in range(n_arrows)]
    pruned = bool(q.arrows) and q.arrow_source(0) != q.arrow_target(0)
    full = [
        _first_of_each_rank(*shape) if a == 0 and pruned else _all_matrices(p, *shape)
        for a, shape in enumerate(shapes)
    ]
    if not algebra.relation_terms:
        yield from product(*full)
        return
    due = [[] for _ in range(n_arrows)]
    for rel in algebra.relation_terms:
        due[max(a for _, arrows in rel for a in arrows)].append(rel)
    chosen = [None] * n_arrows
    # reads only the chosen arrows; chosen is filled in place
    partial = Representation(algebra, p, dims, chosen, validate=False, copy=False)

    def options(a):
        if any(arrows.count(a) > 1 for rel in due[a] for _, arrows in rel):
            kept = []
            for m in full[a]:
                chosen[a] = m
                if _relations_vanish(partial, due[a]):
                    kept.append(m)
            return kept
        nvars = shapes[a][0] * shapes[a][1]
        rows = [
            row
            for rel in due[a]
            for row in _relation_rows(p, q, rel, partial, partial, {a: 0}, nvars)
        ]
        if not rows:
            return full[a]
        return [_reshape(x, *shapes[a]) for x in _affine_solutions(rows, nvars, p)]

    stack = [iter(options(0))]  # the options left at each chosen arrow
    while stack:
        a = len(stack) - 1
        chosen[a] = next(stack[-1], None)
        if chosen[a] is None:
            stack.pop()
        elif a == n_arrows - 1:
            yield tuple(chosen)
        else:
            stack.append(iter(options(a + 1)))


def enumerate_indecomposables(algebra, field=None, dim_bound=None, config=DEFAULTS):
    """One canonical representative per indecomposable class within the bound.

    Matrix assignments on every dimension vector on which the relations
    vanish are solved for (_vanishing_tuples) and sieved: a representation
    any known class splits off is decomposable or already seen, and the
    survivors are certified indecomposable by checking the endomorphism
    space for idempotents.  Dimension vectors are visited sorted by total
    dimension then lexicographically, assignments in base-p counter order
    with arrow 0 varying slowest, so the chosen representative of each
    class is the first member of the class in that order.

    Unless arrow 0 is a loop, it only takes the first matrix of each rank.
    GL(d_s) x GL(d_t) at its source and target carries any matrix of rank r
    to any other, so every class has members whose arrow-0 matrix is the
    first one of its rank, and its first member in the full sweep is among
    them.  The pruned sweep therefore meets the same first members in the
    same relative order and returns the same representatives.  A loop is
    acted on by conjugation, and rank does not determine a conjugacy class,
    so a loop keeps every matrix.

    Without dim_bound the bound comes from a short table of certified
    shapes; anything else raises NotRepFiniteWithinBound rather than guess.
    """
    p = _field_of(algebra, field)
    q = algebra.quiver
    bounds = _resolve_bound(algebra, dim_bound)
    if _search_size(p, bounds, q, config.oracle_search_cap) > config.oracle_search_cap:
        raise SearchSpaceExceeded(
            f"more than the cap of {config.oracle_search_cap} raw representations to search"
        )
    cache = getattr(algebra, "_oracle_cache", None)
    if cache is None:
        cache = algebra._oracle_cache = {}
    # the config is in the key because its cocycle cap can make this raise
    key = (p, bounds, config)
    cached = cache.get(key)
    if cached is not None:
        return list(cached)
    n = len(q.vertices)
    dim_vectors = sorted(
        (dv for dv in product(*(range(b + 1) for b in bounds)) if any(dv)),
        key=lambda dv: (sum(dv), dv),
    )
    classes = []
    known_simple = [False] * n
    for dims in dim_vectors:
        for mats in _vanishing_tuples(algebra, p, dims):
            rep = Representation(algebra, p, dims, mats, validate=False, copy=False)
            if any(
                known_simple[v] and dims[v] and _simple_splits(rep, v)
                for v in range(n)
            ):
                continue
            # simple classes went through _simple_splits, which costs about
            # half the two Hom solves of _splits_off
            if any(
                c.total_dim > 1
                and all(cd <= rd for cd, rd in zip(c.dims, dims))
                and _splits_off(algebra, c, rep)
                for c in classes
            ):
                continue
            _assert_indecomposable(algebra, rep, config)
            classes.append(Representation(algebra, p, dims, mats))
            if rep.total_dim == 1:
                known_simple[dims.index(1)] = True
    cache[key] = tuple(classes)
    return classes


def _assert_indecomposable(algebra, rep, config):
    # certificate behind the sieve: no idempotent endomorphism besides 0, 1
    p = rep.p
    basis = hom_rep_basis(algebra, rep, rep)
    if p ** len(basis) > config.oracle_cocycle_cap:
        raise SearchSpaceExceeded(
            f"endomorphism space of dimension {len(basis)} is too large to sweep"
        )
    nv = len(rep.dims)
    ident = tuple(_identity_mat(rep.dims[v]) for v in range(nv))
    zero = tuple(_zero_mat(rep.dims[v], rep.dims[v]) for v in range(nv))
    for combo in product(range(p), repeat=len(basis)):
        f = _hom_combo(p, basis, combo)
        if f == zero or f == ident:
            continue
        sq = tuple(
            _mat_mul(p, f[v], f[v], rep.dims[v], rep.dims[v], rep.dims[v])
            for v in range(nv)
        )
        if sq == f:
            raise CertificationFailed(
                "decomposable representation slipped through the splitting sieve"
            )


# ---------------------------------------------------------------------------
# subsets of classes closed under literal module operations


@lru_cache(maxsize=None)
def _subspaces(p, d):
    """Every subspace of F_p^d as (pivot columns, rows), the rows its RREF."""
    out = [((), ())]
    for k in range(1, d + 1):
        for pivs in combinations(range(d), k):
            free = [
                (ri, c)
                for ri, pc in enumerate(pivs)
                for c in range(pc + 1, d)
                if c not in pivs
            ]
            for assign in product(range(p), repeat=len(free)):
                rows = [[0] * d for _ in range(k)]
                for ri, pc in enumerate(pivs):
                    rows[ri][pc] = 1
                for (ri, c), val in zip(free, assign):
                    rows[ri][c] = val
                out.append((pivs, tuple(tuple(r) for r in rows)))
    return tuple(out)


def _code_mask(p, vecs):
    """The bitmask of the base-p codes sum of v[i] * p^i of vectors v
    reduced mod p."""
    mask = 0
    for v in vecs:
        code = 0
        for x in reversed(v):
            code = code * p + x
        mask |= 1 << code
    return mask


@lru_cache(maxsize=None)
def _vector_masks(p, d):
    """For each subspace of _subspaces(p, d), the bitmask of the codes of
    all p^k of its vectors."""
    out = []
    for _, rows in _subspaces(p, d):
        vecs = [(0,) * d]
        for row in rows:
            vecs = [tuple((x + a * y) % p for x, y in zip(v, row)) for v in vecs for a in range(p)]
        out.append(_code_mask(p, vecs))
    return tuple(out)


def _fit_mask(pairs):
    """The bitmask of the k whose k-th (image codes, vector set) pair has
    every image code in the vector set."""
    return sum(1 << k for k, (img, vset) in enumerate(pairs) if not img & ~vset)


def _stable_tuples(algebra, rep, config=DEFAULTS):
    """Arrow-stable per-vertex subspace tuples of rep, in the order of the
    full product sweep over _subspaces, listed by posets._backtrack over
    the vertices in index order.

    Containment is a bitmask test: per arrow, each source subspace gets
    the mask of the codes of its basis vectors' images, and the images lie
    in a target subspace exactly when that mask is inside the target's
    vector-set mask (_vector_masks).  A loop narrows its vertex's
    candidates to the subspaces it maps into themselves.  Any other arrow
    is a constraint at its later end: per subspace at its earlier end, the
    mask of the subspaces at the later end that fit with it.
    SizeCapExceeded past config.map_cap tuples.
    """
    p = rep.p
    q = algebra.quiver
    nv = len(rep.dims)
    per_vertex = [_subspaces(p, d) for d in rep.dims]
    vsets = [_vector_masks(p, d) for d in rep.dims]
    bases = [(1 << len(subs)) - 1 for subs in per_vertex]
    constraints = [[] for _ in range(nv)]
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        images = [
            _code_mask(p, (_mat_vec(p, rep.mats[a], u) for u in rows))
            for _, rows in per_vertex[s]
        ]
        if s == t:
            bases[s] &= _fit_mask(zip(images, vsets[t]))
        elif s < t:  # per source subspace, the targets that hold its images
            rows = [_fit_mask((img, vset) for vset in vsets[t]) for img in images]
            constraints[t].append((s, rows))
        else:  # per target subspace, the sources whose images it holds
            rows = [_fit_mask((img, vset) for img in images) for vset in vsets[t]]
            constraints[s].append((t, rows))
    found = _backtrack(range(nv), bases, constraints, config.map_cap, "stable subspace tuple")
    return [tuple(subs[k] for subs, k in zip(per_vertex, t)) for t in found]


def _quotient_rep(algebra, rep, choice):
    p = rep.p
    q = algebra.quiver
    comp = []
    for v, (pivs, _) in enumerate(choice):
        comp.append([c for c in range(rep.dims[v]) if c not in pivs])
    dims = tuple(len(c) for c in comp)
    mats = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        cols = []
        for c in comp[s]:
            _, rest = _reduce(p, choice[t], [row[c] for row in rep.mats[a]])
            cols.append([rest[k] for k in comp[t]])
        mats.append(tuple(tuple(col[i] for col in cols) for i in range(dims[t])))
    return Representation(algebra, p, dims, tuple(mats), validate=False, copy=False)


def _extensions(algebra, x, y, config):
    """Middle terms of short exact sequences with sub x and quotient y,
    one for each class of Ext^1(y, x): the solutions of _cocycles, in the
    order of the full sweep.  The cap still applies to all p^nvars blocks.
    """
    p = x.p
    q = algebra.quiver
    offs, free, rows = _cocycles(algebra, x, y)
    nvars = offs[-1]
    if p ** nvars > config.oracle_cocycle_cap:
        raise SearchSpaceExceeded(
            f"{p ** nvars} connecting blocks exceed the cap of {config.oracle_cocycle_cap}"
        )
    dims = tuple(xd + yd for xd, yd in zip(x.dims, y.dims))
    flat = [0] * nvars
    for vals in _affine_solutions([row + [0] for row in rows], len(free), p):
        for k, val in zip(free, vals):
            flat[k] = val
        mats = []
        for a in range(len(q.arrows)):
            s, t = q.arrow_source(a), q.arrow_target(a)
            pos, cols_y = offs[a], y.dims[s]
            m = []
            for i in range(x.dims[t]):
                block_row = flat[pos + i * cols_y : pos + (i + 1) * cols_y]
                m.append(tuple(x.mats[a][i]) + tuple(block_row))
            for i in range(y.dims[t]):
                m.append((0,) * x.dims[s] + tuple(y.mats[a][i]))
            mats.append(tuple(m))
        yield Representation(algebra, p, dims, tuple(mats), validate=False, copy=False)


def _is_split_middle(algebra, x, y, mid):
    """Whether mid is x (+) y laid out block diagonally, x's coordinates
    first, as _extensions lays out its middle terms."""
    q = algebra.quiver
    if mid is None or mid.dims != tuple(a + b for a, b in zip(x.dims, y.dims)):
        return False
    for a, m in enumerate(mid.mats):
        xs, ys = x.dims[q.arrow_source(a)], y.dims[q.arrow_source(a)]
        if m != tuple(r + (0,) * ys for r in x.mats[a]) + tuple((0,) * xs + r for r in y.mats[a]):
            return False
    return True


def _splits(x_dims, choice):
    """Whether a subspace tuple U of x (+) y, x's coordinates first as
    direct_sum_rep lays them out, is the sum of its meets with x and y.
    At a vertex the RREF rows pivoted in the y block lie in y and span
    U meet y; the rows pivoted in the x block are 0 at those pivots, so
    dim U - dim(U meet x) - dim(U meet y) is the rank of their y parts,
    which is 0 exactly when every one of them is 0 on y."""
    return not any(
        pc < d and any(row[d:])
        for d, (pivs, rows) in zip(x_dims, choice)
        for pc, row in zip(pivs, rows)
    )


def _closure_requirements(algebra, classes, config, memo):
    """Tables [i][j] of the classes forced into a closed subset holding
    classes i and j: for torsion classes the quotients of their sum (at
    i <= j) and the extensions of j by i; for Serre, the subobjects too.

    By Goursat's lemma a subrepresentation U of x (+) y is the graph of an
    isomorphism between a subquotient of x and one of y, and U splits as
    (U meet x) (+) (U meet y) exactly when both subquotients are 0.  A
    split U with A = U meet x and B = U meet y gives the quotient
    x/A (+) y/B and the subobject A (+) B, and every pair (A, B) of
    subobjects arises so.  By Krull-Schmidt the parts of x/A (+) y/B are
    those of x/A and those of y/B, so the split tuples of the pair add
    exactly the union of x's and y's own quotient masks, and likewise for
    subobjects.  So each class's stable tuples are swept once, the pair
    tables start from that union, and a pair's sweep builds only the
    tuples that do not split; a pair with disjoint supports has none and
    is skipped.  A split quotient or subobject outside the classes still
    raises, since its unknown part comes from a member's own sweep.

    The extensions of y by x add at least x and y: the zero cocycle, which
    _extensions yields first, gives the split x (+) y, whose parts are
    classes i and j by Krull-Schmidt.  That middle term is only checked to
    be the block-diagonal sum, not decomposed; the middle terms of the
    nonzero cocycles are.
    """
    n = len(classes)

    def parts_mask(rep):
        parts = _decompose(algebra, rep, classes, memo)
        if parts is None:
            raise NotRepFiniteWithinBound(
                "an operation produced a module outside the enumerated classes; "
                "the dimension bound is too small"
            )
        mask = 0
        for idx in parts:
            mask |= 1 << idx
        return mask

    own_q, own_s = [0] * n, [0] * n
    for i, x in enumerate(classes):
        for choice in _stable_tuples(algebra, x, config):
            own_q[i] |= parts_mask(_quotient_rep(algebra, x, choice))
            own_s[i] |= parts_mask(_subrep_on_rows(algebra, x, choice))
    tors = [[own_q[i] | own_q[j] if i <= j else 0 for j in range(n)] for i in range(n)]
    subs = [[own_s[i] | own_s[j] if i <= j else 0 for j in range(n)] for i in range(n)]
    for i, x in enumerate(classes):
        for j in range(i, n):
            y = classes[j]
            if not any(a and b for a, b in zip(x.dims, y.dims)):
                continue
            two = direct_sum_rep(algebra, [x, y])
            for choice in _stable_tuples(algebra, two, config):
                if _splits(x.dims, choice):
                    continue
                tors[i][j] |= parts_mask(_quotient_rep(algebra, two, choice))
                subs[i][j] |= parts_mask(_subrep_on_rows(algebra, two, choice))
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            mids = _extensions(algebra, x, y, config)
            # the zero cocycle comes first; its x (+) y has parts i and j
            if not _is_split_middle(algebra, x, y, next(mids, None)):
                raise CertificationFailed("the first middle term is not the split one")
            tors[i][j] |= 1 << i | 1 << j
            for mid in mids:
                tors[i][j] |= parts_mask(mid)
    serre = [[t | s for t, s in zip(*rows)] for rows in zip(tors, subs)]
    return tors, serre


def _brute_closed_subsets(algebra, field, dim_bound, config, with_subs):
    classes = enumerate_indecomposables(algebra, field, dim_bound, config)
    n = len(classes)
    # torsion classes and Serre subcategories share the requirements; the
    # config is in the key because its cocycle cap can make them raise
    p, bounds = _field_of(algebra, field), _resolve_bound(algebra, dim_bound)
    key = ("closure", p, bounds, config)
    cache = algebra._oracle_cache
    if key not in cache:
        cache[key] = _closure_requirements(algebra, classes, config, {})
    req = cache[key][1 if with_subs else 0]
    both = [[a | b for a, b in zip(row, col)] for row, col in zip(req, zip(*req))]

    def closure(mask):
        # a round applies only the pairs with a member added in the round
        # before; the older pairs are already in
        done = 0
        while mask != done:
            grown = mask
            members = [i for i in range(n) if mask >> i & 1]
            for i in members:
                if not done >> i & 1:
                    row = both[i]
                    for j in members:
                        grown |= row[j]
            done, mask = mask, grown
        return mask

    def closed(mask):
        members = [i for i in range(n) if mask >> i & 1]
        return not any(req[i][j] & ~mask for i in members for j in members)

    try:
        masks = closed_sets(n, closure, config)
    except SizeCapExceeded as exc:
        raise SearchSpaceExceeded(f"{exc} of {n} classes") from exc
    ids = ["{" + ",".join(f"M{i}" for i in range(n) if t >> i & 1) + "}" for t in masks]
    for t, name in zip(masks, ids):
        if not closed(t):
            raise CertificationFailed(f"listed set {name} is not closed")
    return _closure_order(n, masks, closure, ids)


def brute_torsion_classes(algebra, field=None, dim_bound=None, config=DEFAULTS):
    """Poset of subsets of indecomposable classes closed under quotients of
    two-member sums and under extensions, ordered by inclusion.

    The requirement tables take the quotients of a two-member sum x (+) y
    from arrow-stable subspace tuples, which posets._backtrack lists from
    one compatibility mask per arrow and subspace at its earlier end, each
    a bitmask test of image codes against vector sets (_stable_tuples).
    A tuple that is the sum of its meets A with x and B with y gives
    x/A (+) y/B, whose parts are those of a quotient of x and of one of y
    (Krull-Schmidt), and every pair (A, B) gives such a tuple.  So each
    class's own quotients are taken once, a pair's sweep builds only its
    tuples that do not split, and a pair with disjoint supports, all of
    whose tuples split, is skipped; the tables equal those of the sweep
    over every tuple.
    The extensions come from one middle term per class of Ext^1, solved
    for among the blocks that vanish on the pivots of the coboundaries;
    the split one, x (+) y, is not decomposed, since its parts are x and
    y by Krull-Schmidt.
    The two-member truncation is validated by the cross-check suite.  The
    subsets are listed by posets.closed_sets and each is checked against
    the requirement tables; posets._closure_order then builds the order
    generated by the closures of each listed T plus one class, which must
    be listed too (FinitePoset keeps the covers among them), and
    certifies it against inclusion.
    """
    return _brute_closed_subsets(algebra, field, dim_bound, config, False)


def brute_serre(algebra, field=None, dim_bound=None, config=DEFAULTS):
    """Like brute_torsion_classes with subobject closure added."""
    return _brute_closed_subsets(algebra, field, dim_bound, config, True)
