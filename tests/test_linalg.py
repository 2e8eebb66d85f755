"""The one elimination kernel and its front ends against a dense
Gauss-Jordan reference, over Q (int and Fraction rows), F_2 and F_3."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from torslat.linalg import (
    Echelon,
    IntEchelon,
    int_nullspace,
    modp_echelon,
    modp_nullspace,
    modp_rank,
    modp_solve,
    nullspace,
    solve,
)

RATIONALS = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def reference_rref(rows, ncols, p):
    """Dense Gauss-Jordan over F_p, or over Q when p is 0:
    (pivot columns, RREF rows)."""
    if p:
        mat = [[x % p for x in row] for row in rows]
    else:
        mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / mat[r][c]
        mat[r] = [x * inv % p if p else x * inv for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots, mat[: len(pivots)]


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def dot(row, vec):
    return sum(row.get(c, 0) * x for c, x in vec.items())


@st.composite
def systems(draw, entries, max_rows=5, max_cols=6):
    """(dense rows, ncols): mostly zero entries, so the rows are sparse."""
    ncols = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from(entries))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    return rows, ncols


FIELDS = {
    "Q-int": (0, (-3, -2, -1, 1, 2, 4)),
    "Q-fraction": (0, RATIONALS),
    "F2": (2, (1,)),
    "F3": (3, (1, 2, 4, -1)),
}


def field_systems():
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(st.just(FIELDS[name][0]), systems(FIELDS[name][1]))
    )


def kernel(rows, p):
    ech = Echelon() if any(type(x) is Fraction for r in rows for x in r) else IntEchelon(p)
    for r in rows:
        ech.insert(sparse(r))
    return ech


@given(field_systems())
@settings(max_examples=30, deadline=None)
def test_pivots_and_rank_match_the_reference(case):
    p, (rows, ncols) = case
    pivots, _ = reference_rref(rows, ncols, p)
    ech = kernel(rows, p)
    assert sorted(ech.pivots) == pivots
    assert ech.rank == len(pivots)
    if p:
        assert modp_rank(rows, ncols, p) == len(pivots)
        assert all(prow[c] == 1 for c, prow in ech.pivots.items())


@given(field_systems())
@settings(max_examples=30, deadline=None)
def test_nullspace_vectors_kill_every_row(case):
    p, (rows, ncols) = case
    pivots = reference_rref(rows, ncols, p)[0]
    free = [c for c in range(ncols) if c not in pivots]
    srows = [sparse(r) for r in rows]
    if p:
        bases = [
            modp_nullspace(rows, ncols, p),
            [[v.get(c, 0) for c in range(ncols)] for v in kernel(rows, p).nullspace_basis(ncols)],
        ]
    else:
        bases = [[[v.get(c, 0) for c in range(ncols)] for v in nullspace(srows, ncols)]]
        if all(type(x) is int for r in rows for x in r):
            ints = int_nullspace(srows, ncols)
            bases.append([[v.get(c, 0) for c in range(ncols)] for v in ints])
    for basis in bases:
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            for r in srows:
                s = dot(r, sparse(v))
                assert (s % p if p else s) == 0
    assert bases[0] == bases[-1]


@given(systems(RATIONALS), st.data())
@settings(max_examples=30, deadline=None)
def test_echelon_reduce_is_the_normal_form(system, data):
    rows, ncols = system
    pivots, rref = reference_rref(rows, ncols, 0)
    ech = Echelon()
    for r in rows:
        ech.insert(sparse(r))
    coeffs = data.draw(st.lists(st.sampled_from(RATIONALS), min_size=len(rows), max_size=len(rows)))
    member = [sum((a * r[c] for a, r in zip(coeffs, rows)), Fraction(0)) for c in range(ncols)]
    assert ech.reduce(sparse(member)) == {}
    free = [c for c in range(ncols) if c not in pivots]
    outside = sparse([data.draw(st.sampled_from(RATIONALS)) if c in free else 0 for c in range(ncols)])
    assert ech.reduce(outside) == outside
    vec = sparse(data.draw(st.lists(st.sampled_from((0,) + RATIONALS), min_size=ncols, max_size=ncols)))
    expected = dict(vec)
    for c, prow in zip(pivots, rref):
        x = vec.get(c, 0)
        for k, y in enumerate(prow):
            expected[k] = expected.get(k, 0) - x * y
    assert ech.reduce(vec) == {k: x for k, x in expected.items() if x}


@given(st.sampled_from((2, 3)).flatmap(lambda p: st.tuples(st.just(p), systems(range(1, p)))))
@settings(max_examples=30, deadline=None)
def test_modp_echelon_is_the_reference_rref(case):
    p, (rows, ncols) = case
    pivots, rref = reference_rref(rows, ncols, p)
    assert modp_echelon(rows, ncols, p) == (pivots, rref)


@given(
    st.sampled_from(("F2", "F3")).flatmap(
        lambda name: st.tuples(st.just(FIELDS[name][0]), systems(FIELDS[name][1]))
    ),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_sparse_rows_give_what_dense_rows_give(case, data):
    # F3's entries include 4 and -1, so rows of either form come unreduced
    p, (rows, ncols) = case
    forms = data.draw(st.lists(
        st.sampled_from(("dense", "sparse", "zeros kept")), min_size=len(rows), max_size=len(rows),
    ))
    mixed = [
        r if form == "dense" else {c: x for c, x in enumerate(r) if x or form == "zeros kept"}
        for r, form in zip(rows, forms)
    ]
    for front_end in (modp_echelon, modp_nullspace, modp_rank):
        dense = front_end(rows, ncols, p)
        assert front_end([sparse(r) for r in rows], ncols, p) == dense
        assert front_end(mixed, ncols, p) == dense


@given(
    st.sampled_from((2, 3)).flatmap(lambda p: st.tuples(st.just(p), systems(range(p), max_cols=4))),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_solve_finds_a_solution_exactly_when_one_exists(case, data):
    p, (rows, ncols) = case
    rhs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))

    def solves(x):
        return all(sum(a * b for a, b in zip(r, x)) % p == b % p for r, b in zip(rows, rhs))

    exists = any(solves(x) for x in product(range(p), repeat=ncols))
    x = modp_solve(rows, rhs, ncols, p)
    assert (x is not None) == exists
    assert x is None or solves(x)
    if p == 3:
        # the same system over Q: consistent iff the augmented rank is no larger
        q = solve([sparse(r) for r in rows], rhs)
        aug = [list(r) + [b] for r, b in zip(rows, rhs)]
        consistent = len(reference_rref(aug, ncols + 1, 0)[0]) == len(reference_rref(rows, ncols, 0)[0])
        assert (q is not None) == consistent
        assert q is None or all(dot(sparse(r), q) == b for r, b in zip(rows, rhs))


@pytest.mark.parametrize("char", [1, 4, 6, 9, -3, 2.0, 3.0, "3", None, True, False])
def test_a_characteristic_neither_zero_nor_prime_is_refused(char):
    # after an F_2 call 2 is a known field, and 2.0 == 2, False == 0
    assert modp_rank([[1]], 1, 2) == 1
    with pytest.raises(ValueError):
        IntEchelon(char)
    with pytest.raises(ValueError):
        modp_nullspace([[1, 1]], 2, char)


def test_composite_modulus_is_refused_by_every_front_end():
    with pytest.raises(ValueError):
        modp_echelon([[2]], 1, 4)
    with pytest.raises(ValueError):
        modp_rank([[2]], 1, 4)
    with pytest.raises(ValueError):
        modp_solve([[2]], [1], 1, 4)
    with pytest.raises(ValueError):
        modp_nullspace([[2, 1]], 2, 4)
    assert modp_rank([[2]], 1, 5) == 1
