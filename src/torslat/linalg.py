"""Exact linear algebra kernels.

Coefficients are exact rationals under one convention: a value that is
integral is a Python ``int``, and a ``Fraction`` appears only where a
division makes one.  ``intify``, ``exact_div`` and ``int_scale`` keep to
it, every kernel returns its results in that form, and none returns a
float.  Integer arithmetic is several times cheaper than Fraction
arithmetic, and most systems the silting engine meets are integral.

Three eliminators:

* ``IntEchelon``: sparse fraction-free forward echelon over the integers.
  ``nullspace``, ``int_nullspace``, ``solve`` and ``express_in_span`` run
  on it, rows with Fractions first scaled to integers (``int_rows``).  It
  carries the large chain-map systems of the silting engine, whose banded
  differentials couple only a handful of unknowns per equation;
* ``Echelon``: sparse reduced echelon form with pivot rows normalized to
  1, so its rows hold Fractions; used for incremental rank and membership
  where rows arrive one at a time;
* small dense mod-p elimination on coefficient lists, used by the
  brute-force oracle.

``det`` eliminates fraction-free too (Bareiss).  Sparse vectors are dicts
column -> nonzero coefficient.  Everything is deterministic: rows are
processed in the order given and pivots are always the lowest-index column
available, so every route returns the same pivots and the same vectors.
"""

import heapq
import math
from fractions import Fraction

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact scalars and sparse vectors: dict col -> nonzero int or Fraction


def intify(x):
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """a / b, an int when b divides a and a Fraction otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return intify(Fraction(a) / b)


def int_scale(vectors):
    """(d, scaled): the least positive integer d that makes every vector
    integral, and the vectors times d as int dicts."""
    d = 1
    for v in vectors:
        for x in v.values():
            d = math.lcm(d, x.denominator)
    if d == 1:
        return 1, [{c: int(x) for c, x in v.items()} for v in vectors]
    return d, [{c: int(x * d) for c, x in v.items()} for v in vectors]


def vec_add_scaled(target, source, scale):
    """target += scale * source, dropping entries that become zero."""
    if not scale:
        return
    for c, v in source.items():
        w = target.get(c, 0) + scale * v
        if w:
            target[c] = w
        else:
            target.pop(c, None)


class Echelon:
    """Incremental reduced row echelon form over Fraction.

    Rows are sparse dicts.  Pivot columns are chosen as the minimum column
    index of the reduced row; pivot rows are normalized to 1 and kept clear
    of each other's pivot columns, so membership tests need no
    back-substitution pass.
    """

    def __init__(self):
        self.pivots = {}        # pivot col -> row dict
        self._uses = {}         # col -> set of pivot cols whose rows touch it

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return a new dict: row reduced modulo the current span."""
        row = dict(row)
        for c in sorted(row):
            v = row.get(c)
            if not v:
                row.pop(c, None)
                continue
            piv = self.pivots.get(c)
            if piv is not None:
                vec_add_scaled(row, piv, -v)
                row.pop(c, None)
        return row

    def insert(self, row):
        """Insert row; return its pivot column, or None if dependent."""
        rem = self.reduce(row)
        if not rem:
            return None
        p = min(rem)
        inv = ONE / rem[p]
        if inv != ONE:
            rem = {c: v * inv for c, v in rem.items()}
        # keep existing rows clear of the new pivot column
        for q in list(self._uses.get(p, ())):
            other = self.pivots[q]
            coeff = other.pop(p, None)
            if coeff is None:
                continue
            self._unregister(q, p)
            vec_add_scaled(other, rem, -coeff)
            other.pop(p, None)
            for c in rem:
                if c != p and c in other:
                    self._register(q, c)
        self.pivots[p] = rem
        for c in rem:
            if c != p:
                self._register(p, c)
        return p

    def _register(self, pivot_col, col):
        self._uses.setdefault(col, set()).add(pivot_col)

    def _unregister(self, pivot_col, col):
        s = self._uses.get(col)
        if s is not None:
            s.discard(pivot_col)
            if not s:
                del self._uses[col]

    def contains(self, row):
        return not self.reduce(row)


def nullspace(rows, ncols):
    """Right nullspace basis of the system {row . x = 0 for row in rows}.

    Columns are 0..ncols-1; the basis vectors are sparse dicts, one per free
    column, in ascending free-column order.  Rows may hold Fractions: each
    is scaled to integers, which keeps its nullspace, and eliminated
    fraction-free.
    """
    return int_nullspace(int_rows(rows), ncols)


class IntEchelon:
    """Incremental forward echelon over the integers, fraction-free.

    Each stored row is an integer dict defined up to scale and gcd-normalized.
    Only forward elimination is done (rows are not kept clear of later pivot
    columns), which keeps inserts cheap on the large integral chain-map
    systems; nullspace reads back-substitute in descending pivot order.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}        # pivot col -> int row dict

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return a new int dict: row reduced modulo the current span."""
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            # lowest column with a pivot available; fill-in may add columns,
            # so rescan instead of iterating a frozen order
            best = None
            for c in row:
                if c in pivots and (best is None or c < best):
                    best = c
            if best is None:
                break
            piv = pivots[best]
            v = row[best]
            p = piv[best]
            g = math.gcd(p, v)
            mr = p // g
            mp = v // g
            if mr != 1:
                for c in row:
                    row[c] *= mr
            for c, pv in piv.items():
                w = row.get(c, 0) - mp * pv
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        if row:
            g = 0
            for v in row.values():
                g = math.gcd(g, v)
                if g == 1:
                    return row
            if g > 1:
                for c in row:
                    row[c] //= g
        return row

    def insert(self, row):
        """Insert row; return its pivot column, or None if dependent."""
        rem = self.reduce(row)
        if not rem:
            return None
        p = min(rem)
        self.pivots[p] = rem
        return p

    def contains(self, row):
        return not self.reduce(row)

    def nullspace_basis(self, ncols):
        """Nullspace of the inserted rows, one dict per free column.

        Equal vectors to nullspace(): unit at the free column, zero at the
        other free columns, back-substituted values at pivot columns, each
        an int where it is integral.
        """
        uses = self._uses()
        return [
            self._back_substitute(f, uses)
            for f in range(ncols)
            if f not in self.pivots
        ]

    def _uses(self):
        """col -> pivot cols whose rows touch it."""
        uses = {}
        for p, prow in self.pivots.items():
            for c in prow:
                if c != p:
                    uses.setdefault(c, []).append(p)
        return uses

    def _back_substitute(self, f, uses):
        """The nullspace vector with 1 at the non-pivot column f and 0 at
        every other non-pivot column.

        Only pivots reachable through the support chain are visited (a
        pivot row touching column c has pivot <= c, so a descending
        worklist resolves dependencies in order).
        """
        pivots = self.pivots
        v = {f: 1}
        heap = [-p for p in uses.get(f, ())]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            p = -heapq.heappop(heap)
            prow = pivots[p]
            s = 0
            for c, pv in prow.items():
                if c != p:
                    x = v.get(c)
                    if x is not None:
                        s += pv * x
            if s:
                v[p] = exact_div(-s, prow[p])
                for q in uses.get(p, ()):
                    if -q not in seen:
                        seen.add(-q)
                        heapq.heappush(heap, -q)
        return v


def int_rows(rows):
    """Scale sparse Fraction rows to integer rows (per-row lcm of denominators).

    Row scaling preserves rank and nullspace, which is all IntEchelon is for.
    All-int rows pass through unchanged (not copied).
    """
    out = []
    for r in rows:
        if all(type(v) is int for v in r.values()):
            out.append(r)
            continue
        scale = 1
        for v in r.values():
            d = getattr(v, "denominator", 1)
            scale = scale * d // math.gcd(scale, d)
        if scale == 1:
            out.append({c: int(v) for c, v in r.items()})
        else:
            out.append({c: int(v * scale) for c, v in r.items()})
    return out


def int_nullspace(rows, ncols):
    """Like nullspace(), but eliminates over the integers.

    Accepts integer rows; returns sparse dicts equal to what nullspace()
    would produce on the same system, with integral values as ints.
    """
    ech = IntEchelon()
    for r in rows:
        ech.insert(r)
    return ech.nullspace_basis(ncols)


# Augmented column key used by solve(). Must compare greater than every real
# column index so it is only ever picked as a pivot by an inconsistent row.
AUG = float("inf")


def solve(rows, rhs):
    """Solve the linear system rows . x = rhs (rows sparse, rhs a list).

    Returns a sparse solution dict (free variables set to 0), or None if the
    system is inconsistent.  Eliminates fraction-free: each augmented row
    is scaled to integers, which changes neither the pivot columns nor the
    solution.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[AUG] = -b
        aug.append(r)
    ech = IntEchelon()
    for r in int_rows(aug):
        ech.insert(r)
    if AUG in ech.pivots:
        return None  # 0 = 1 row
    sol = ech._back_substitute(AUG, ech._uses())
    del sol[AUG]
    return sol


def express_in_span(columns, target):
    """Write target as a combination of the given column vectors.

    columns and target are sparse dicts over the same coordinate set.
    Returns the coefficient dict (index -> int or Fraction) or None.
    """
    coords = set(target)
    for col in columns:
        coords.update(col)
    eq_rows = []
    rhs = []
    for coord in sorted(coords):
        row = {}
        for j, col in enumerate(columns):
            v = col.get(coord)
            if v:
                row[j] = v
        eq_rows.append(row)
        rhs.append(target.get(coord, 0))
    return solve(eq_rows, rhs)


def det(rows):
    """Determinant of a small dense matrix (lists of ints/Fractions).

    Fraction-free (Bareiss) elimination on the rows scaled to integers, so
    the determinant of an integral matrix is an int.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    scale = 1
    m = []
    for row in rows:
        d, (r,) = int_scale([dict(enumerate(row))])
        scale *= d
        m.append([r[j] for j in range(n)])
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk[k] - mi[k] * pk[j]) // prev
        prev = pk[k]
    return exact_div(sign * prev, scale)


# ---------------------------------------------------------------------------
# generic small prime p: rows are lists of ints in [0, p)


def modp_echelon(rows, ncols, p):
    """RREF over F_p; returns (pivot_cols, rref_rows)."""
    mat = [list(r) for r in rows]
    piv_cols = []
    lead = 0
    r = 0
    while r < len(mat) and lead < ncols:
        sel = None
        for i in range(r, len(mat)):
            if mat[i][lead] % p:
                sel = i
                break
        if sel is None:
            lead += 1
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][lead], p - 2, p) if p > 2 else 1
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][lead] % p:
                f = mat[i][lead] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        piv_cols.append(lead)
        lead += 1
        r += 1
    return piv_cols, mat[: len(piv_cols)]


def modp_nullspace(rows, ncols, p):
    piv_cols, rref = modp_echelon(rows, ncols, p)
    piv_set = set(piv_cols)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for pc, prow in zip(piv_cols, rref):
            if prow[f] % p:
                v[pc] = (-prow[f]) % p
        basis.append(v)
    return basis


def modp_rank(rows, ncols, p):
    piv_cols, _ = modp_echelon(rows, ncols, p)
    return len(piv_cols)


def modp_solve(rows, rhs, ncols, p):
    """One solution of rows . x = rhs over F_p (free vars 0), or None."""
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    piv_cols, rref = modp_echelon(aug, ncols + 1, p)
    if ncols in piv_cols:
        return None
    x = [0] * ncols
    for pc, prow in zip(piv_cols, rref):
        x[pc] = prow[ncols] % p
    return x
