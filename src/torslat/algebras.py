"""Finite-dimensional path algebras with admissible relations, over exact
rationals: integral coefficients are ints, the rest Fractions (see linalg).

Composition convention, fixed once and used by every matrix in the package:
the written product ``b*a`` applies ``a`` first, then ``b``.  A path with
source s and target t therefore lies in the corner e_t A e_s, modules are
left modules A e_i, and Hom(A e_i, A e_j) is identified with e_i A e_j
acting by right multiplication.

Paths are stored as tuples of arrow indices in written order (leftmost
applied last).  The monomial order is length-lexicographic by arrow
declaration order; bases and structure constants are deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .config import DEFAULTS
from .errors import (
    CertificationFailed,
    DuplicateId,
    NotAdmissible,
    NotFiniteDimensional,
    ParseError,
    ShapeMismatch,
)
from .linalg import Echelon, det, exact_div, intify, vec_add_scaled

_NAME_RE = re.compile(r"[A-Za-z0-9_.']+\Z")
_RATIONAL_RE = re.compile(r"\d+(/\d+)?\Z")

# associativity is checked on every triple of basis elements up to this
# dimension, on a sample of about 16 indices above it
ASSOCIATIVITY_FULL_DIM = 40


class Quiver:
    """Finite quiver: named vertices and named arrows with endpoints."""

    __slots__ = ("vertices", "arrows", "vertex_index", "arrow_index")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if not self.vertices:
            raise ValueError("a quiver needs at least one vertex")
        self.vertex_index = {}
        for i, v in enumerate(self.vertices):
            if not _NAME_RE.match(v):
                raise ValueError(f"bad vertex name {v!r}")
            if v in self.vertex_index:
                raise DuplicateId(f"duplicate vertex {v!r}")
            self.vertex_index[v] = i
        arrs = []
        self.arrow_index = {}
        for name, src, tgt in arrows:
            name, src, tgt = str(name), str(src), str(tgt)
            if not _NAME_RE.match(name):
                raise ValueError(f"bad arrow name {name!r}")
            if name in self.arrow_index:
                raise DuplicateId(f"duplicate arrow {name!r}")
            if src not in self.vertex_index or tgt not in self.vertex_index:
                raise ValueError(f"arrow {name!r} uses an undeclared vertex")
            self.arrow_index[name] = len(arrs)
            arrs.append((name, self.vertex_index[src], self.vertex_index[tgt]))
        self.arrows = tuple(arrs)

    def arrow_source(self, a):
        return self.arrows[a][1]

    def arrow_target(self, a):
        return self.arrows[a][2]


class AlgebraElement:
    """Element of one corner e_t A e_s: the carrier for differential entries.

    coeffs maps basis index -> nonzero coefficient (an int where integral,
    else a Fraction); every indexed basis path has the declared
    target/source.
    """

    __slots__ = ("algebra", "target", "source", "coeffs")

    def __init__(self, algebra, target, source, coeffs):
        self.algebra = algebra
        self.target = target
        self.source = source
        self.coeffs = {i: c for i, c in coeffs.items() if c}
        for i in self.coeffs:
            if algebra.basis_target(i) != target or algebra.basis_source(i) != source:
                raise ValueError(
                    f"basis path {algebra.basis_names[i]} not in corner "
                    f"e_{algebra.quiver.vertices[target]} A "
                    f"e_{algebra.quiver.vertices[source]}"
                )

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.target == other.target
            and self.source == other.source
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.target, self.source, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        self._same_corner(other)
        out = dict(self.coeffs)
        vec_add_scaled(out, other.coeffs, 1)
        return AlgebraElement(self.algebra, self.target, self.source, out)

    def __sub__(self, other):
        self._same_corner(other)
        out = dict(self.coeffs)
        vec_add_scaled(out, other.coeffs, -1)
        return AlgebraElement(self.algebra, self.target, self.source, out)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = intify(Fraction(s))
        return AlgebraElement(
            self.algebra, self.target, self.source,
            {i: c * s for i, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        """self * other: other applied first."""
        if self.source != other.target:
            raise ValueError("corners do not compose")
        return AlgebraElement(
            self.algebra, self.target, other.source,
            self.algebra.mul_dicts(self.coeffs, other.coeffs),
        )

    def _same_corner(self, other):
        if self.target != other.target or self.source != other.source:
            raise ValueError("elements live in different corners")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            name = self.algebra.basis_names[i]
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")


class PathAlgebra:
    """Quotient of a path algebra by an admissible ideal, built degreewise.

    Basis paths are residue classes of monomial paths; at each length the
    ideal's graded piece is closed under one-arrow extension on both sides
    and reduced to echelon form, and the surviving non-pivot paths become
    basis elements.  Construction stops at the first length with no
    survivors (there are no graded gaps: once a length dies, products with
    arrows keep everything above it inside the ideal).
    """

    def __init__(self, quiver, relations, config=DEFAULTS):
        self.quiver = quiver
        self.config = config
        self.oracle_field = "Q"
        rel_rows = self._check_relations(quiver, relations)
        # validated relations, kept for consumers that need to evaluate them
        # on module data: tuple of term tuples (coeff, arrow index path)
        self.relation_terms = tuple(
            tuple(sorted((coeff, idxs) for (_, idxs), coeff in terms.items()))
            for _, terms in rel_rows
        )
        self._build(rel_rows)
        self._mul_cache = {}
        self._cartan = None
        self._check_idempotents()
        self._check_associativity()

    # -- construction --------------------------------------------------------

    @staticmethod
    def _check_relations(q, relations):
        """Validate admissibility over quiver q; (length, {path: coeff}) rows."""
        out = []
        for rel in relations:
            terms = {}
            length = None
            corner = None
            for coeff, arrows in rel:
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                idxs = []
                for name in arrows:
                    name = str(name)
                    if name not in q.arrow_index:
                        raise NotAdmissible(f"unknown arrow {name!r} in relation")
                    idxs.append(q.arrow_index[name])
                idxs = tuple(idxs)
                if len(idxs) < 2:
                    raise NotAdmissible(
                        "relation has a component of path-length < 2"
                    )
                for a, b in zip(idxs, idxs[1:]):
                    if q.arrow_source(a) != q.arrow_target(b):
                        raise NotAdmissible(
                            "relation contains a non-composable path"
                        )
                if length is None:
                    length = len(idxs)
                elif len(idxs) != length:
                    raise NotAdmissible(
                        "relation mixes path lengths; only length-homogeneous "
                        "relations are supported"
                    )
                tc = (q.arrow_target(idxs[0]), q.arrow_source(idxs[-1]))
                if corner is None:
                    corner = tc
                elif tc != corner:
                    raise NotAdmissible("relation terms are not parallel paths")
                key = (q.arrow_source(idxs[-1]), idxs)
                terms[key] = terms.get(key, 0) + coeff
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                out.append((length, terms))
        return out

    def _build(self, rel_rows):
        q = self.quiver
        nv = len(q.vertices)
        rels_by_len = {}
        for length, terms in rel_rows:
            rels_by_len.setdefault(length, []).append(terms)

        # per length: sorted path list, positions, echelon of the ideal piece
        self._levels = []
        basis_keys = []
        total_paths = 0

        def path_target(key):
            src, arrows = key
            return q.arrow_target(arrows[0]) if arrows else src

        level0 = [(v, ()) for v in range(nv)]
        prev_paths = level0
        prev_rows = []
        length = 0
        while True:
            if length > self.config.length_cap:
                raise NotFiniteDimensional(
                    f"basis still growing at length cap {self.config.length_cap}"
                )
            total_paths += len(prev_paths)
            if total_paths > self.config.path_cap:
                raise NotFiniteDimensional(
                    f"path count exceeded cap {self.config.path_cap}"
                )
            pos = {k: i for i, k in enumerate(prev_paths)}
            ech = Echelon()
            if length >= 2:
                for row in prev_rows:
                    ech.insert(row)
                for terms in rels_by_len.get(length, ()):
                    ech.insert({pos[k]: c for k, c in terms.items()})
            survivors = [
                k for i, k in enumerate(prev_paths) if i not in ech.pivots
            ]
            self._levels.append({"paths": prev_paths, "pos": pos, "ech": ech})
            basis_keys.extend(survivors)
            if not survivors:
                self._levels.pop()  # dead level carries no basis or products
                break
            # extend the ideal and the path list by one arrow on each side
            ideal_rows = sorted(ech.pivots.values(), key=lambda r: min(r))
            next_rows = []
            for row in ideal_rows:
                by_arrow_left = {}
                by_arrow_right = {}
                for i, c in row.items():
                    src, arrows = prev_paths[i]
                    tgt = path_target(prev_paths[i])
                    for a in range(len(q.arrows)):
                        if q.arrow_source(a) == tgt:
                            by_arrow_left.setdefault(a, {})[(src, (a,) + arrows)] = c
                        if q.arrow_target(a) == src:
                            nk = (q.arrow_source(a), arrows + (a,))
                            by_arrow_right.setdefault(a, {})[nk] = c
                next_rows.extend(by_arrow_left[a] for a in sorted(by_arrow_left))
                next_rows.extend(by_arrow_right[a] for a in sorted(by_arrow_right))
            nxt = []
            for key in prev_paths:
                src, arrows = key
                tgt = path_target(key)
                for a in range(len(q.arrows)):
                    if q.arrow_source(a) == tgt:
                        nxt.append((src, (a,) + arrows))
            nxt.sort(key=lambda k: (k[1], k[0]))
            if not nxt:
                break
            prev_paths = nxt
            npos = {k: i for i, k in enumerate(nxt)}
            prev_rows = [
                {npos[k]: c for k, c in r.items()} for r in next_rows
            ]
            length += 1

        self.basis_keys = tuple(basis_keys)
        self.dim = len(basis_keys)
        self._basis_pos = {k: i for i, k in enumerate(basis_keys)}
        self._targets = tuple(path_target(k) for k in basis_keys)
        self._sources = tuple(k[0] for k in basis_keys)
        self.basis_names = tuple(self._path_name(k) for k in basis_keys)
        self._e_index = {}
        for i, (src, arrows) in enumerate(basis_keys):
            if not arrows:
                self._e_index[src] = i
        corners = {}
        for i in range(self.dim):
            corners.setdefault((self._targets[i], self._sources[i]), []).append(i)
        self._corners = {k: tuple(v) for k, v in corners.items()}
        by_source = [[] for _ in q.vertices]
        for i in range(self.dim):
            by_source[self._sources[i]].append(i)
        self._by_source = tuple(tuple(v) for v in by_source)

    def _path_name(self, key):
        src, arrows = key
        if not arrows:
            return f"e{self.quiver.vertices[src]}"
        return "*".join(self.quiver.arrows[a][0] for a in arrows)

    # -- basis queries -------------------------------------------------------

    def basis_source(self, i):
        return self._sources[i]

    def basis_target(self, i):
        return self._targets[i]

    def basis_length(self, i):
        return len(self.basis_keys[i][1])

    def idempotent_index(self, v):
        return self._e_index[v]

    def corner_indices(self, target, source):
        """Basis indices spanning e_target A e_source."""
        return self._corners.get((target, source), ())

    def basis_by_source(self, v):
        """Basis indices of the projective A e_v (paths with source v)."""
        return self._by_source[v]

    # -- elements ------------------------------------------------------------

    def idempotent(self, v):
        return AlgebraElement(self, v, v, {self._e_index[v]: 1})

    def basis_element(self, i):
        return AlgebraElement(
            self, self._targets[i], self._sources[i], {i: 1}
        )

    def arrow_element(self, name):
        a = self.quiver.arrow_index[name]
        key = (self.quiver.arrow_source(a), (a,))
        return self.basis_element(self._basis_pos[key])

    def element(self, terms):
        """Build a corner element from [(coeff, [arrow names])] terms.

        A term with an empty path list is not allowed; use idempotent().
        """
        acc = None
        for coeff, arrows in terms:
            el = None
            for name in arrows:
                nxt = self.arrow_element(name)
                el = nxt if el is None else el * nxt
            if el is None:
                raise ValueError("empty path in element(); use idempotent()")
            el = el.scale(coeff)
            acc = el if acc is None else acc + el
        if acc is None:
            raise ValueError("element() needs at least one term")
        return acc

    # -- multiplication ------------------------------------------------------

    def mul_basis(self, i, j):
        """Structure constants: (basis i) * (basis j), j applied first.

        Integral constants are cached as ints, so products of int
        coefficient dicts stay ints."""
        cached = self._mul_cache.get((i, j))
        if cached is not None:
            return cached
        si, ai = self.basis_keys[i]
        sj, aj = self.basis_keys[j]
        if si != self.basis_target(j):
            out = {}
        else:
            word = (sj, ai + aj)
            length = len(word[1])
            if length >= len(self._levels):
                out = {}
            else:
                lvl = self._levels[length]
                p = lvl["pos"].get(word)
                if p is None:
                    out = {}
                else:
                    rem = lvl["ech"].reduce({p: 1})
                    out = {
                        self._basis_pos[lvl["paths"][c]]: intify(v)
                        for c, v in rem.items()
                    }
        self._mul_cache[(i, j)] = out
        return out

    def mul_dicts(self, a, b):
        out = {}
        for j, cb in b.items():
            for i, ca in a.items():
                prod = self.mul_basis(i, j)
                if prod:
                    vec_add_scaled(out, prod, ca * cb)
        return out

    def invert_corner(self, coeffs, v):
        """Inverse of a corner element e_v A e_v whose trivial-path
        coefficient is nonzero; geometric series against the nilpotent part."""
        ev = self._e_index[v]
        lam = coeffs.get(ev, 0)
        if not lam:
            raise ValueError("corner element is not invertible")
        # x = e_v - a/lam is nilpotent; a^{-1} = (1/lam) * sum x^k
        x = {i: exact_div(-c, lam) for i, c in coeffs.items()}
        x[ev] = x.get(ev, 0) + 1
        x = {i: c for i, c in x.items() if c}
        total = {ev: 1}
        power = x
        while power:
            vec_add_scaled(total, power, 1)
            power = self.mul_dicts(power, x)
        return {i: exact_div(c, lam) for i, c in total.items() if c}

    # -- derived data --------------------------------------------------------

    def cartan_matrix(self):
        """C[i][j] = dim e_i A e_j, indices in vertex declaration order.

        Computed once; every call returns a fresh list of lists."""
        if self._cartan is None:
            nv = len(self.quiver.vertices)
            self._cartan = tuple(
                tuple(len(self.corner_indices(i, j)) for j in range(nv))
                for i in range(nv)
            )
        return [list(row) for row in self._cartan]

    def projective_dim_vector(self, j):
        """Dimension vector of the projective A e_j."""
        nv = len(self.quiver.vertices)
        return tuple(len(self.corner_indices(v, j)) for v in range(nv))

    # -- build-time self checks ---------------------------------------------

    def _check_idempotents(self):
        for b in range(self.dim):
            t, s = self._targets[b], self._sources[b]
            for v in range(len(self.quiver.vertices)):
                e = self._e_index[v]
                if self.mul_basis(e, b) != ({b: 1} if v == t else {}) or (
                    self.mul_basis(b, e) != ({b: 1} if v == s else {})
                ):
                    raise CertificationFailed(
                        f"trivial path {v} does not act as an idempotent on {b}"
                    )

    def _check_associativity(self):
        """(ij)k = i(jk) on the basis, or on a sample of it above
        ASSOCIATIVITY_FULL_DIM.  Only composable triples are multiplied,
        j's source being k's target and i's source j's target: once each
        product ij of a composable pair lies in the corner of i's target
        and j's source, as checked here, both sides of any other triple
        are 0."""
        if self.dim <= ASSOCIATIVITY_FULL_DIM:
            idxs = range(self.dim)
        else:
            step = self.dim // 16 + 1
            idxs = range(0, self.dim, step)
        t, s = self._targets, self._sources
        by_target = {}
        for i in idxs:
            by_target.setdefault(t[i], []).append(i)
        for i in idxs:
            for j in by_target.get(s[i], ()):
                ij = self.mul_basis(i, j)
                if any(t[b] != t[i] or s[b] != s[j] for b in ij):
                    raise CertificationFailed("a product leaves its corner")
                for k in by_target.get(s[j], ()):
                    if self.mul_dicts(ij, {k: 1}) != self.mul_dicts({i: 1}, self.mul_basis(j, k)):
                        raise CertificationFailed("associativity failure")


def build_algebra(quiver, relations, config=DEFAULTS):
    """Path algebra modulo the two-sided ideal generated by the relations.

    relations: iterable of relations, each an iterable of
    (coefficient, [arrow names in written order]) terms.
    """
    return PathAlgebra(quiver, relations, config)


def _vertex_of(algebra, token):
    """The index of a vertex given by its name or its index; a bool, an
    index out of range or an unknown name raises ShapeMismatch."""
    q = algebra.quiver
    if isinstance(token, str) and token in q.vertex_index:
        return q.vertex_index[token]
    # bool is an int subclass, but True names no vertex
    if isinstance(token, int) and not isinstance(token, bool) and 0 <= token < len(q.vertices):
        return token
    raise ShapeMismatch(f"unknown vertex {token!r}")


def hom_projectives(algebra, i, j):
    """Basis of Hom(A e_i, A e_j) as elements of e_i A e_j; a basis map acts
    by right multiplication, and composition is algebra multiplication.
    The vertices are names or indices."""
    i, j = _vertex_of(algebra, i), _vertex_of(algebra, j)
    return [algebra.basis_element(b) for b in algebra.corner_indices(i, j)]


def cartan_matrix(algebra):
    return algebra.cartan_matrix()


def _tits_matrix(quiver):
    """2I - (A + A^T), A the arrow-count matrix: twice the Tits form
    q(x) = sum_v x_v^2 - sum over arrows s -> t of x_s x_t, so that row v
    pairs a vector with the simple root e_v."""
    n = len(quiver.vertices)
    form = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for _, s, t in quiver.arrows:
        form[s][t] -= 1
        form[t][s] -= 1
    return form


def tits_form_positive_definite(quiver):
    """Whether the Tits form of the quiver is positive definite, by
    Sylvester's criterion.  A loop makes the form vanish on its vertex, and
    double arrows or a cycle of the underlying graph make it semidefinite at
    best, so a positive definite form leaves a forest; the trees it allows
    are exactly the simply laced Dynkin trees A, D and E (Gabriel).  A
    disjoint union has a block diagonal form, positive definite exactly
    when each block is, and the criterion reads the whole matrix in any
    vertex order, so it decides each component: the arrowless quivers
    pass."""
    form = _tits_matrix(quiver)
    return all(det([row[:k] for row in form[:k]]) > 0 for k in range(1, len(form) + 1))


# ---------------------------------------------------------------------------
# text format


def parse_algebra(text, config=DEFAULTS):
    """Parse the line-oriented algebra format.

    ::

        field = Q
        vertices = 1 2
        arrow a : 1 -> 2
        relation 1*b*a

    Paths are *-separated arrow names, rightmost applied first; relation
    terms are joined by + or -.  '#' starts a comment.  The field tag (Q,
    F2 or F3) is recorded for the brute-force checker; the algebra itself
    is always built over the rationals.
    """
    field = "Q"
    vertices = None
    arrows = []
    relations = []  # (lineno, expr)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field"):
            key, _, val = line.partition("=")
            if key.strip() != "field" or val.strip() not in ("Q", "F2", "F3"):
                raise ParseError(f"bad field line {raw.strip()!r}", line=lineno)
            field = val.strip()
        elif line.startswith("vertices"):
            key, _, val = line.partition("=")
            if key.strip() != "vertices" or not val.strip():
                raise ParseError(f"bad vertices line {raw.strip()!r}", line=lineno)
            if vertices is not None:
                raise ParseError("vertices declared twice", line=lineno)
            vertices = val.split()
            try:
                Quiver(vertices, [])
            except (DuplicateId, ValueError) as exc:
                raise ParseError(f"vertices: {exc}", line=lineno) from exc
        elif line.startswith("arrow "):
            m = re.match(r"arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\Z", line)
            if not m:
                raise ParseError(f"bad arrow line {raw.strip()!r}", line=lineno)
            name, src, tgt = m.groups()
            if vertices is None:
                raise ParseError("arrow before vertices", line=lineno)
            arrows.append((name, src, tgt))
            try:
                Quiver(vertices, arrows)
            except (DuplicateId, ValueError) as exc:
                raise ParseError(f"arrow: {exc}", line=lineno) from exc
        elif line.startswith("relation"):
            expr = line[len("relation"):].strip()
            if not expr:
                raise ParseError("empty relation", line=lineno)
            relations.append((lineno, expr))
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line=lineno)
    if vertices is None:
        raise ParseError("missing vertices line")
    quiver = Quiver(vertices, arrows)
    parsed = [
        _parse_relation(expr, quiver, lineno) for lineno, expr in relations
    ]
    algebra = build_algebra(quiver, parsed, config=config)
    algebra.oracle_field = field
    return algebra


def _parse_relation(expr, quiver, lineno):
    terms = _signed_terms(expr, quiver.arrow_index, "relation", lineno)
    try:
        PathAlgebra._check_relations(quiver, [terms])
    except NotAdmissible as exc:
        raise ParseError(f"relation {expr!r}: {exc}", line=lineno) from exc
    return terms


def _signed_terms(text, arrow_names, what, line=None):
    """(coefficient, factor names) for each term of a signed sum such as
    ``2*b*a - 1/3*c``.  A leading factor that is a rational and not an
    arrow name is the coefficient.  ``what`` names the text in messages,
    ``line`` is its line number when known."""
    s = "".join(text.split())
    terms = []
    sign = 1
    i = 0
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    while i <= len(s):
        if i == len(s) or s[i] in "+-":
            if i == start:
                raise ParseError(f"empty term in {what}", line=line)
            terms.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
        i += 1
    out = []
    for sgn, term in terms:
        factors = term.split("*")
        if any(not f for f in factors):
            raise ParseError(f"bad term {term!r}", line=line)
        coeff = Fraction(sgn)
        if _RATIONAL_RE.match(factors[0]) and factors[0] not in arrow_names:
            try:
                coeff *= Fraction(factors[0])
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {term!r}", line=line) from None
            factors = factors[1:]
        if not factors:
            raise ParseError(f"term {term!r} has no path part", line=line)
        out.append((coeff, factors))
    return out
