"""Exact arithmetic: coefficients are ints where integral and Fractions
otherwise, and no float appears anywhere between input and output."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from torslat.algebras import Quiver, build_algebra
from torslat.fixtures import corpus
from torslat.linalg import (
    det,
    exact_div,
    express_in_span,
    int_nullspace,
    int_scale,
    intify,
    nullspace,
    solve,
)
from torslat.silting import (
    _rational_roots,
    complexes_isomorphic,
    decompose,
    direct_sum,
    enumerate_2silt,
    g_vector,
    reduce_complex,
    two_term,
)

EXACT = (int, Fraction)

BG = build_algebra(
    Quiver(["1", "2"], [("b", "1", "2"), ("g", "2", "1")]),
    [[(1, ["b", "g"])]],
)
A4 = build_algebra(
    Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4")]), []
)
D4 = build_algebra(
    Quiver(["1", "2", "3", "4"], [("a", "1", "3"), ("b", "3", "2"), ("c", "3", "4")]), []
)
# cyclic 1 -> 2 -> 3 -> 4 -> 1 with every length-two path killed
N4 = build_algebra(
    Quiver(["1", "2", "3", "4"], [(f"a{i}", str(i), str(i % 4 + 1)) for i in range(1, 5)]),
    [[(1, [f"a{i % 4 + 1}", f"a{i}"])] for i in range(1, 5)],
)


def coefficients(P):
    """Every coefficient of every differential entry of a complex."""
    return [x for rows in P.diff.values() for row in rows for e in row for x in e.values()]


def assert_exact(P):
    bad = [x for x in coefficients(P) if type(x) not in EXACT]
    assert not bad, f"inexact coefficients {bad!r} in {P!r}"


@pytest.mark.parametrize(
    "A", [A for _, A in corpus()] + [A4, D4, N4], ids=[n for n, _ in corpus()] + ["A4", "D4", "N4"]
)
def test_enumerated_summands_are_exact(A):
    result = enumerate_2silt(A)
    summands = [s for obj in result.objects.values() for s in obj.summands]
    assert summands
    for s in summands:
        assert_exact(s)
    # complexes built from integral data stay on ints
    assert all(type(x) is int for s in summands for x in coefficients(s))


def bg_corner(target, source):
    (b,) = BG.corner_indices(target, source)
    return b


def non_integral_complexes():
    b = bg_corner(1, 0)
    gb = BG.basis_names.index("g*b")
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        # a rank-one scalar matrix of b: one cone and two stalks
        two_term(BG, ["2", "2"], ["1", "1"], [[{b: half}, {b: 3 * half}], [{b: third}, {b: 1}]]),
        two_term(BG, ["1", "2"], ["1", "2"], [[{gb: 2 * third}, {b: half}], [{}, {}]]),
    ]


@pytest.mark.parametrize("C", non_integral_complexes(), ids=["scalar-b", "mixed"])
def test_decompose_keeps_non_integral_coefficients_exact(C):
    red = reduce_complex(BG, C)
    assert_exact(red)
    parts = decompose(BG, red)
    assert len(parts) == 3
    for p in parts:
        assert_exact(p)
    assert any(type(x) is Fraction for p in parts for x in coefficients(p))
    assert tuple(map(sum, zip(*(g_vector(p) for p in parts)))) == g_vector(red)
    assert complexes_isomorphic(BG, direct_sum(parts), red)


class TestScalars:
    def test_exact_div(self):
        assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
        assert exact_div(-6, 4) == Fraction(-3, 2)
        assert type(exact_div(1, 2)) is Fraction
        assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
        assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int

    def test_intify_and_int_scale(self):
        assert type(intify(Fraction(4, 2))) is int
        assert intify(Fraction(1, 2)) == Fraction(1, 2)
        d, vecs = int_scale([{0: Fraction(1, 2), 1: 3}, {2: Fraction(2, 3)}])
        assert d == 6
        assert vecs == [{0: 3, 1: 18}, {2: 4}]
        assert all(type(x) is int for v in vecs for x in v.values())


class TestKernelsOnInts:
    def test_nullspace_agrees_with_the_integer_route(self):
        rows = [{0: 2, 1: 3, 2: 1}, {1: 4, 3: 6}]
        fr = nullspace([{c: Fraction(v) for c, v in r.items()} for r in rows], 4)
        it = int_nullspace(rows, 4)
        assert fr == it
        for v in fr + it:
            assert all(type(x) in EXACT for x in v.values())
            for r in rows:
                assert sum(r.get(c, 0) * x for c, x in v.items()) == 0
        assert any(type(x) is Fraction for v in it for x in v.values())

    def test_solve_returns_the_free_zero_solution(self):
        rows = [{0: 2, 1: 4}, {1: 3, 2: 3}]
        sol = solve(rows, [1, 2])
        assert sol == {0: Fraction(-5, 6), 1: Fraction(2, 3)}
        assert solve([{0: 1}, {0: 2}], [1, 3]) is None
        assert solve([{0: 2}], [4]) == {0: 2} and type(solve([{0: 2}], [4])[0]) is int

    def test_express_in_span_of_int_columns(self):
        coeffs = express_in_span([{0: 1, 1: 1}, {1: 2}], {0: 3, 1: 4})
        assert coeffs == {0: 3, 1: Fraction(1, 2)}
        assert type(coeffs[0]) is int

    def test_det_of_ints_is_an_int(self):
        assert det([[2, 1], [1, 1]]) == 1 and type(det([[2, 1], [1, 1]])) is int
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[Fraction(1, 2), 0], [0, 3]]) == Fraction(3, 2)
        assert det([]) == 1

    def test_det_leaves_its_rows_alone(self):
        # int rows are eliminated as they are, a Fraction row is scaled
        rows = [[2, 1, 0], [Fraction(1, 3), 1, 1], [0, 4, 1]]
        copy = [list(r) for r in rows]
        assert det(rows) == Fraction(-19, 3)
        assert rows == copy
        ints = [[1, 3, -2], [0, 1, 5], [2, 0, 1]]
        assert det(ints) == 35 and type(det(ints)) is int
        assert ints == [[1, 3, -2], [0, 1, 5], [2, 0, 1]]

    def test_det_is_the_leibniz_expansion(self):
        rng = random.Random(0)
        for k in range(300):
            n = rng.randint(1, 4)
            draw = [
                lambda: rng.randint(-3, 3),
                lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                lambda: rng.choice([0, 0, 1, -1]),
            ][k % 3]
            rows = [[draw() for _ in range(n)] for _ in range(n)]
            if k % 5 == 0:
                rows[-1] = [2 * x for x in rows[0]]  # singular
            want = 0
            for perm in permutations(range(n)):
                term = -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                want += term
            assert det(rows) == want
            if k % 3 != 1:
                assert type(det(rows)) is int


class TestPolynomialsOnInts:
    def test_rational_roots(self):
        # (2x - 1)(x + 3) x = 2x^3 + 5x^2 - 3x
        roots = _rational_roots([0, -3, 5, 2])
        assert roots == [-3, 0, Fraction(1, 2)]
        assert [type(x) for x in roots] == [int, int, Fraction]
