"""Exact linear algebra: one sparse elimination kernel over Q and F_p.

Over Q a value that is integral is a Python ``int``, and a ``Fraction``
appears only where a division makes one; ``intify``, ``exact_div`` and
``int_scale`` keep to it, and no kernel returns a float.  Integer
arithmetic is several times cheaper than Fraction arithmetic, and most
systems the silting engine meets are integral.

``IntEchelon(char)`` is the kernel, with one elimination loop and one
back-substitution.  Characteristic 0 means integer rows standing for
rational ones, eliminated fraction-free; a prime p means residues mod p.
It carries both the large banded chain-map systems of the silting engine
and the small systems of the brute-force oracle over F_2 and F_3.  The
front ends each hide a format: ``Echelon``, ``nullspace``, ``solve`` and
``express_in_span`` take rows with Fractions and scale them to integers
(``int_rows``), and the ``modp_*`` functions take the oracle's rows,
dense lists or sparse dicts, and return dense lists.  They stay separate
entry points, not aliases, because the benchmark (``perfbench/``) traces
each of them by name.

``det`` multiplies the pivot entries of ``Echelon`` normal forms.  Sparse
vectors are dicts column -> nonzero coefficient.  Everything is
deterministic: rows are processed in the order given and pivots are always
the lowest-index column available, so every route returns the same pivots
and the same vectors.
"""

import heapq
import math
from fractions import Fraction

# Augmented column key: it compares greater than every real column index,
# so it is only ever picked as a pivot by an inconsistent row of solve(),
# and Echelon.reduce can follow a marker in it.
AUG = float("inf")


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


# Characteristics already checked: 0 and the primes seen so far.  A kernel
# tests membership first, so the primality test runs once per prime.
_FIELDS = {0}


class IntEchelon:
    """Incremental sparse forward echelon over Q (char 0) or F_p (char p).

    Over Q each stored row is an integer dict defined up to scale and
    gcd-normalized; over F_p it holds residues and its pivot entry is 1.
    Only forward elimination is done (rows are not kept clear of later
    pivot columns), which keeps inserts cheap on the large chain-map
    systems; nullspace reads back-substitute in descending pivot order.
    """

    __slots__ = ("pivots", "char")

    def __init__(self, char=0):
        if char not in _FIELDS:
            if char < 2 or any(char % d == 0 for d in range(2, math.isqrt(char) + 1)):
                raise ValueError(f"characteristic {char} is neither 0 nor a prime")
            _FIELDS.add(char)
        self.pivots = {}        # pivot col -> row dict
        self.char = char

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return a new dict: row reduced modulo the current span, up to
        scale, so it is supported on the non-pivot columns."""
        p = self.char
        if p:
            row = {c: w for c, v in row.items() if (w := v % p)}
        else:
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
            mp = row[best]
            if not p:
                g = math.gcd(piv[best], mp)
                mr = piv[best] // g
                mp //= g
                if mr != 1:
                    for c in row:
                        row[c] *= mr
            for c, pv in piv.items():
                w = row.get(c, 0) - mp * pv
                if p:
                    w %= p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        if row and not p:
            g = 0
            for v in row.values():
                g = math.gcd(g, v)
                if g == 1:
                    return row
            for c in row:
                row[c] //= g
        return row

    def insert(self, row):
        """Insert row; return its pivot column, or None if dependent."""
        rem = IntEchelon.reduce(self, row)  # Echelon.reduce gives rational forms
        if not rem:
            return None
        c = min(rem)
        p = self.char
        if p and rem[c] != 1:
            inv = pow(rem[c], -1, p)
            rem = {col: v * inv % p for col, v in rem.items()}
        self.pivots[c] = rem
        return c

    def nullspace_basis(self, ncols):
        """Nullspace of the inserted rows, one dict per free column.

        Unit at the free column, zero at the other free columns,
        back-substituted values at pivot columns: over Q each is an int
        where it is integral, over F_p a residue.
        """
        uses = self._uses()
        return [
            self._back_substitute(f, uses)
            for f in range(ncols)
            if f not in self.pivots
        ]

    def _uses(self):
        """col -> the negated pivot cols whose rows touch it (heap keys of
        _back_substitute, which visits pivots in descending order)."""
        uses = {}
        for p, prow in self.pivots.items():
            for c in prow:
                if c != p:
                    uses.setdefault(c, []).append(-p)
        return uses

    def _back_substitute(self, f, uses):
        """The nullspace vector with 1 at the non-pivot column f and 0 at
        every other non-pivot column.

        Only pivots reachable through the support chain are visited (a
        pivot row touching column c has pivot <= c, so a descending
        worklist resolves dependencies in order).
        """
        pivots = self.pivots
        char = self.char
        v = {f: 1}
        heap = list(uses.get(f, ()))
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
            if char:
                s %= char
            if s:
                v[p] = char - s if char else exact_div(-s, prow[p])
                for q in uses.get(p, ()):
                    if q not in seen:
                        seen.add(q)
                        heapq.heappush(heap, q)
        return v


class Echelon(IntEchelon):
    """The kernel over Q for rows with Fractions, with exact normal forms.

    The normal form of a vector, the one vector of vector + span supported
    on the non-pivot columns, is what ``IntEchelon.reduce`` leaves of it
    with a marker column added, divided by the marker's final coefficient.
    """

    __slots__ = ()

    def insert(self, row):
        """Insert row; return its pivot column, or None if dependent."""
        return IntEchelon.insert(self, int_rows([row])[0])

    def reduce(self, row):
        """The normal form of row: a new dict, each value an int where it
        is integral."""
        marked = dict(row)
        marked[AUG] = 1
        rem = IntEchelon.reduce(self, int_rows([marked])[0])
        m = rem.pop(AUG)
        return {c: exact_div(v, m) for c, v in rem.items()}


def nullspace(rows, ncols):
    """Right nullspace basis of the system {row . x = 0 for row in rows}.

    Columns are 0..ncols-1; the basis vectors are sparse dicts, one per free
    column, in ascending free-column order.  Rows may hold Fractions: each
    is scaled to integers, which keeps its nullspace, and eliminated
    fraction-free.
    """
    return int_nullspace(int_rows(rows), ncols)


def int_rows(rows):
    """Each sparse row scaled to integers by the lcm of its denominators,
    which keeps its span; all-int rows pass through uncopied."""
    return [r if all(type(v) is int for v in r.values()) else int_scale([r])[1][0] for r in rows]


def int_nullspace(rows, ncols):
    """Like nullspace(), but eliminates over the integers.

    Accepts integer rows; returns sparse dicts equal to what nullspace()
    would produce on the same system, with integral values as ints.
    """
    ech = IntEchelon()
    for r in rows:
        ech.insert(r)
    return ech.nullspace_basis(ncols)


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

    Row by row, the Echelon normal form of a row is it less a combination
    of the rows before, and it is 0 at their pivots.  In the pivot-column
    order these forms make a triangular matrix, so the determinant is the
    product of their pivot entries, each negated when an odd number of
    earlier pivot columns lie above its own.  An integral matrix gives an
    int.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    ech = Echelon()
    out = Fraction(1)
    for row in rows:
        form = ech.reduce({j: x for j, x in enumerate(row) if x})
        if not form:
            return 0
        c = min(form)
        out *= -form[c] if sum(d > c for d in ech.pivots) % 2 else form[c]
        ech.insert(form)
    return intify(out)


# ---------------------------------------------------------------------------
# F_p on the oracle's rows: dense lists of ints of length ncols, or sparse
# dicts col -> int; either is reduced mod p on the way in


def _modp_kernel(rows, ncols, p):
    """The kernel over F_p holding the rows, dense or sparse."""
    ech = IntEchelon(p)
    for r in rows:
        if len(ech.pivots) == ncols:
            break  # the rows already span F_p^ncols
        if type(r) is not dict:
            if not any(r):
                continue
            r = dict(enumerate(r))
        elif not r:
            continue
        ech.insert(r)
    return ech


def modp_echelon(rows, ncols, p):
    """RREF over F_p of rows on ncols columns: (pivot_cols, rref_rows).

    The pivot columns ascend.  The RREF row of pivot c has 1 at c and
    -v_f[c] at each free column f, where v_f is the nullspace vector of f.
    """
    ech = _modp_kernel(rows, ncols, p)
    pivs = sorted(ech.pivots)
    rref = {}
    for c in pivs:
        rref[c] = row = [0] * ncols
        row[c] = 1
    uses = ech._uses()
    for f in range(ncols):
        if f in uses and f not in rref:
            for c, x in ech._back_substitute(f, uses).items():
                if c != f:
                    rref[c][f] = p - x
    return pivs, list(rref.values())


def modp_nullspace(rows, ncols, p):
    """Nullspace basis over F_p as dense lists, one per free column in
    ascending order: 1 there, 0 at the other free columns."""
    basis = []
    for vec in _modp_kernel(rows, ncols, p).nullspace_basis(ncols):
        v = [0] * ncols
        for c, x in vec.items():
            v[c] = x
        basis.append(v)
    return basis


def modp_rank(rows, ncols, p):
    return _modp_kernel(rows, ncols, p).rank


def modp_solve(rows, rhs, ncols, p):
    """One solution of rows . x = rhs over F_p (free vars 0), or None; the
    rows are dense, and the right-hand side is column ncols, eliminated as
    in solve()."""
    ech = _modp_kernel([list(r) + [-b] for r, b in zip(rows, rhs)], ncols + 1, p)
    if ncols in ech.pivots:
        return None  # 0 = 1 row
    sol = ech._back_substitute(ncols, ech._uses())
    return [sol.get(c, 0) for c in range(ncols)]
