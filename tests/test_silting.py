"""Two-term complexes: construction, hom spaces, reduction, decomposition,
mutation, completion, and the enumeration of the silting order."""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from torslat import silting as silting_module
from torslat.algebras import Quiver, build_algebra
from torslat.config import Config
from torslat.errors import (
    CapExceeded,
    CertificationFailed,
    ConeNotTwoTerm,
    IndexOutOfRange,
    NotPresilting,
    NotSilting,
    ParseError,
    ShapeMismatch,
)
from torslat.fixtures import corpus
from torslat.linalg import Echelon, express_in_span, solve
from torslat.posets import build_poset, lattice_ops
from torslat.silting import (
    Complex,
    SiltingObject,
    _TopAlgebra,
    _compose,
    _delta,
    _euler_pairing,
    _hom_dim,
    _map_vars,
    _mat_compose,
    bongartz_complete,
    check_presilting_family,
    check_silting_module,
    complexes_isomorphic,
    cone,
    decompose,
    direct_sum,
    enumerate_2silt,
    g_vector,
    h0_dim_vector,
    hom_k_basis,
    hom_k_dim,
    hom_shift1_dim,
    is_presilting,
    is_silting,
    is_tau_tilting_finite,
    lambda_complex,
    lambda_shifted,
    mutate,
    parse_complex,
    reduce_complex,
    silting_lambda,
    stalk,
    summand_g_key,
    tors_lattice,
    two_term,
)
from torslat.spectra import cambrian_classification

A1 = build_algebra(Quiver(["1"], []), [])
A2 = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])
A3 = build_algebra(
    Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), []
)
KK = build_algebra(Quiver(["1", "2"], []), [])
DUAL = build_algebra(
    Quiver(["1"], [("e", "1", "1")]), [[(1, ["e", "e"])]]
)
BG = build_algebra(
    Quiver(["1", "2"], [("b", "1", "2"), ("g", "2", "1")]),
    [[(1, ["b", "g"])]],
)
KRON = build_algebra(
    Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), []
)
# cyclic 1 -> 2 -> 3 -> 1 with every length-two path killed
N3 = build_algebra(
    Quiver(
        ["1", "2", "3"],
        [("a1", "1", "2"), ("a2", "2", "3"), ("a3", "3", "1")],
    ),
    [[(1, [f"a{i % 3 + 1}", f"a{i}"])] for i in range(1, 4)],
)

# 1 -> 2 <- 3
A3_SINK = build_algebra(
    Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]), []
)
# branch vertex 3, one arrow into it and two out of it
D4 = build_algebra(
    Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "3"), ("b", "3", "2"), ("c", "3", "4")],
    ),
    [],
)
A4 = build_algebra(
    Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4")],
    ),
    [],
)
# cyclic 1 -> 2 -> 3 -> 4 -> 1 with every length-two path killed
N4 = build_algebra(
    Quiver([str(i) for i in range(1, 5)], [(f"a{i}", str(i), str(i % 4 + 1)) for i in range(1, 5)]),
    [[(1, [f"a{i % 4 + 1}", f"a{i}"])] for i in range(1, 5)],
)
# the preprojective algebra of 1 - 2 - 3: the double quiver, the reverse of
# x named xs, with as a, a as - bs b and b bs killed
PI_A3 = build_algebra(
    Quiver(
        ["1", "2", "3"],
        [("a", "1", "2"), ("as", "2", "1"), ("b", "2", "3"), ("bs", "3", "2")],
    ),
    [[(1, ["as", "a"])], [(1, ["a", "as"]), (-1, ["bs", "b"])], [(1, ["b", "bs"])]],
)
EXCHANGE_CASES = [A for _, A in corpus()] + [N3, A3_SINK, D4]
EXCHANGE_IDS = [n for n, _ in corpus()] + ["N3", "A3-sink", "D4"]


def s1_presentation():
    # the radical cover of the first projective; cokernel is the simple S1
    return parse_complex(A2, "P = [e2] -> [e1] ; d = [[1*a]]")


def contractible():
    return parse_complex(A2, "P = [e1] -> [e1] ; d = [[1*e1]]")


@pytest.fixture(scope="module")
def pentagon():
    return enumerate_2silt(A2)


# the five objects of the A2 order, named by their g-vector key
M_LAMBDA = "[(0,1),(1,0)]"
M1 = "[(1,-1),(1,0)]"
M2 = "[(-1,0),(0,1)]"
M3 = "[(0,-1),(1,-1)]"
M4 = "[(-1,0),(0,-1)]"


@st.composite
def bg_two_term(draw):
    """Random two-term complex over the cyclic two-vertex algebra."""
    nv = len(BG.quiver.vertices)
    minus = draw(st.lists(st.integers(0, nv - 1), max_size=2))
    zero = draw(st.lists(st.integers(0, nv - 1), max_size=2))
    entries = []
    for r in range(len(zero)):
        row = []
        for c in range(len(minus)):
            cell = {}
            for b in BG.corner_indices(minus[c], zero[r]):
                x = draw(st.integers(-2, 2))
                if x:
                    cell[b] = Fraction(x)
            row.append(cell)
        entries.append(row)
    return two_term(BG, minus, zero, entries)


class TestConstruction:
    def test_two_term_matches_parsed_literal(self):
        a = A2.arrow_element("a")
        built = two_term(A2, ["2"], ["1"], [[a]])
        assert built.key() == s1_presentation().key()

    def test_entry_in_wrong_corner_rejected(self):
        a = A2.arrow_element("a")
        with pytest.raises(ShapeMismatch):
            two_term(A2, ["1"], ["2"], [[a]])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ShapeMismatch):
            two_term(A2, ["2"], ["1", "1"], [[0]])

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ShapeMismatch):
            two_term(A2, ["2", "2"], ["1"], [[0]])

    def test_stalk_degrees(self):
        P = stalk(A2, [0], 0)
        assert P.degrees() == (0,)
        assert stalk(A2, [0], -1).degrees() == (-1,)

    def test_lambda_complexes(self):
        assert g_vector(lambda_complex(A2)) == (1, 1)
        assert g_vector(lambda_shifted(A2)) == (-1, -1)

    def test_shift_round_trip(self):
        X = s1_presentation()
        assert X.shift(1).shift(-1).key() == X.key()
        assert X.shift(1).degrees() == (-2, -1)

    def test_shift_negates_odd(self):
        X = s1_presentation()
        Y = X.shift(1).shift(1)
        # double shift restores the signs
        assert Y.diff_at(-3) == X.diff_at(-1)

    def test_direct_sum_size(self):
        X = s1_presentation()
        S = direct_sum([X, stalk(A2, [0], 0)])
        assert S.size() == 3
        assert S.summands_at(0) == (0, 0)
        assert S.summands_at(-1) == (1,)

    def test_direct_sum_rejects_all_zero(self):
        with pytest.raises(ValueError):
            direct_sum([two_term(A2, [], [], [])])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_complex(A2, "nope")

    def test_parse_rejects_unknown_summand(self):
        with pytest.raises(ParseError):
            parse_complex(A2, "P = [e9] -> [e1] ; d = [[1*a]]")

    def test_parse_rejects_row_mismatch(self):
        with pytest.raises(ParseError):
            parse_complex(A2, "P = [e2] -> [e1, e1] ; d = [[1*a]]")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_complex(A2, "P = [e2] -> [e1] ; d = [[1/0*a]]")

    def test_parse_empty_minus(self):
        P = parse_complex(A2, "P = [] -> [e2] ; d = [[]]")
        assert P.degrees() == (0,)
        assert g_vector(P) == (0, 1)


class TestGVectorsAndCohomology:
    def test_g_vector_examples(self):
        X = s1_presentation()
        assert g_vector(X) == (1, -1)
        assert g_vector(stalk(A2, [0], 0)) == (1, 0)
        assert g_vector(stalk(A2, [1], -1)) == (0, -1)

    def test_g_vector_needs_two_term(self):
        with pytest.raises(ShapeMismatch):
            g_vector(s1_presentation().shift(1))

    def test_h0_examples(self):
        assert h0_dim_vector(A2, s1_presentation()) == (1, 0)
        assert h0_dim_vector(A2, stalk(A2, [1], 0)) == (0, 1)
        assert h0_dim_vector(A2, lambda_complex(A2)) == (1, 2)
        assert h0_dim_vector(A2, lambda_shifted(A2)) == (0, 0)

    def test_summand_g_key(self):
        S = direct_sum([s1_presentation(), stalk(A2, [0], 0)])
        assert summand_g_key(A2, S) == ((1, -1), (1, 0))

    @given(bg_two_term(), bg_two_term())
    @settings(max_examples=40, deadline=None)
    def test_g_vector_additive(self, C, D):
        assume(not C.is_zero() and not D.is_zero())
        total = g_vector(direct_sum([C, D]))
        assert total == tuple(
            a + b for a, b in zip(g_vector(C), g_vector(D))
        )


class TestHomSpaces:
    def test_endomorphisms_of_free_module(self):
        L = lambda_complex(A2)
        assert hom_k_dim(A2, L, L) == A2.dim

    def test_endomorphisms_of_radical_map(self):
        X = s1_presentation()
        assert hom_k_dim(A2, X, X) == 1

    def test_hom_from_free_counts_cohomology(self):
        X = s1_presentation()
        assert hom_k_dim(A2, lambda_complex(A2), X) == 1
        assert hom_k_dim(A2, X, lambda_complex(A2)) == 0

    def test_hom_shift1_examples(self):
        X = s1_presentation()
        assert hom_shift1_dim(A2, X, stalk(A2, [1], 0)) == 1
        assert hom_shift1_dim(A2, X, X) == 0
        assert hom_shift1_dim(A2, stalk(A2, [0], 0), X) == 0

    def test_hom_shift1_rejects_other_algebra(self):
        with pytest.raises(ShapeMismatch):
            hom_shift1_dim(A2, lambda_complex(A2), lambda_complex(A3))

    def test_hom_shift1_rejects_wide_complex(self):
        with pytest.raises(ShapeMismatch):
            hom_shift1_dim(A2, s1_presentation().shift(1), s1_presentation())

    @given(bg_two_term(), bg_two_term())
    @settings(max_examples=30, deadline=None)
    def test_dim_agrees_with_basis_length(self, C, D):
        assert hom_k_dim(BG, C, D) == len(hom_k_basis(BG, C, D))

    @given(bg_two_term(), bg_two_term())
    @settings(max_examples=30, deadline=None)
    def test_dim_invariant_under_shift(self, C, D):
        assert hom_k_dim(BG, C, D) == hom_k_dim(BG, C.shift(1), D.shift(1))

    @pytest.mark.parametrize("A", [BG, A3, N3], ids=["beta-gamma", "A3", "N3"])
    def test_shift1_from_euler_pairing(self, A):
        # the identity behind the End-dimension shortcut of
        # _new_class_from_cone:
        # hom(P, Q[1]) = hom(P, Q) - hom(P, Q[-1]) - <g(P), g(Q)>
        complexes = {}
        for obj in enumerate_2silt(A).objects.values():
            for C in (obj.total(), *obj.summands):
                complexes.setdefault(C.key(), C)
        for P in complexes.values():
            for Q in complexes.values():
                assert hom_shift1_dim(A, P, Q) == (
                    hom_k_dim(A, P, Q)
                    - hom_k_dim(A, P, Q.shift(-1))
                    - _euler_pairing(A, P, Q)
                )


def h0_by_cokernel_rank(algebra, P):
    """Reference for h0_dim_vector: dim of e_v P^0 minus the rank of the
    image of e_v P^-1 under d^-1, for each vertex v."""
    nv = len(algebra.quiver.vertices)
    zero_s = P.summands_at(0)
    pos = {}
    dims = [0] * nv
    for c, vc in enumerate(zero_s):
        for b in algebra.basis_by_source(vc):
            pos[(c, b)] = len(pos)
            dims[algebra.basis_target(b)] += 1
    mat = P.diff_at(-1)
    echs = [Echelon() for _ in range(nv)]
    for c, vc in enumerate(P.summands_at(-1)):
        for p in algebra.basis_by_source(vc):
            vec = {}
            for r in range(len(zero_s)):
                if mat[r][c]:
                    for b, x in algebra.mul_dicts({p: 1}, mat[r][c]).items():
                        vec[pos[(r, b)]] = vec.get(pos[(r, b)], 0) + x
            vec = {i: x for i, x in vec.items() if x}
            if vec:
                echs[algebra.basis_target(p)].insert(vec)
    return tuple(dims[v] - echs[v].rank for v in range(nv))


def h0_by_stalks(algebra, P):
    """Reference for h0_dim_vector: dim Hom_K(A e_v, P), one stalk complex
    and two deltas per vertex v."""
    return tuple(
        _hom_dim(algebra, stalk(algebra, [v], 0), P, 0)
        for v in range(len(algebra.quiver.vertices))
    )


def nonzero_entries(mat):
    return {(r, c): e for r, row in enumerate(mat) for c, e in enumerate(row) if e}


def materialize(X, Y, f):
    """The graded map f: X -> Y as degree -> matrix (rows over Y^n, columns
    over X^n), the form _mat_compose takes."""
    mats = {
        n: [[{} for _ in X.summands[n]] for _ in Y.summands[n]]
        for n in X.summands
        if n in Y.summands
    }
    for (n, r, c, b), x in f.items():
        mats[n][r][c][b] = x
    return mats


def graded_maps(X, Y):
    """Strategy: a graded map X -> Y over beta-gamma, each variable of
    Hom^0(X, Y) with a coefficient in -2..2."""
    keys = _map_vars(BG, X, Y, 0)
    return st.lists(st.integers(-2, 2), min_size=len(keys), max_size=len(keys)).map(
        lambda xs: {k: x for k, x in zip(keys, xs) if x}
    )


def identity_map(P):
    A = P.algebra
    return {
        (n, r, r, A.idempotent_index(v)): 1 for n, t in P.summands.items() for r, v in enumerate(t)
    }


def products_made(algebra, call):
    """How many times call() multiplies two algebra elements."""
    real = algebra.mul_dicts
    made = []

    def counted(a, b):
        made.append(1)
        return real(a, b)

    algebra.mul_dicts = counted
    try:
        call()
    finally:
        del algebra.mul_dicts
    return len(made)


@st.composite
def bg_pairs(draw):
    """(X, Y) over beta-gamma: two two-term complexes, or a three-term one
    (C + D[1], in degrees -2..0) and a two-term one."""
    C, D = draw(bg_two_term()), draw(bg_two_term())
    if draw(st.booleans()) and not (C.is_zero() and D.is_zero()):
        return direct_sum([C, D.shift(1)]), C
    return C, D


class TestHomComplex:
    @given(bg_pairs())
    @settings(max_examples=30, deadline=None)
    def test_delta_squares_to_zero(self, pair):
        X, Y = pair
        for k in range(-3, 2):
            _, images = _delta(BG, X, Y, k)
            after = dict(zip(*_delta(BG, X, Y, k + 1)))
            for vec in images:
                total = {}
                for v, x in vec.items():
                    for i, y in after[v].items():
                        total[i] = total.get(i, 0) + x * y
                assert not any(total.values())

    @given(bg_pairs())
    @settings(max_examples=30, deadline=None)
    def test_kernel_of_delta0_is_chain_maps(self, pair):
        # f d_X = d_Y f for every basis map, composed by _mat_compose
        X, Y = pair
        for g in hom_k_basis(BG, X, Y):
            f = materialize(X, Y, g)
            for n in X.summands:
                if (n + 1) not in Y.summands:
                    continue
                left = _mat_compose(BG, X.diff_at(n), f.get(n + 1, ()))
                right = _mat_compose(BG, f.get(n, ()), Y.diff_at(n))
                assert nonzero_entries(left) == nonzero_entries(right)

    @given(bg_pairs(), bg_two_term(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_compose_is_the_matrix_product(self, pair, Z, data):
        # pairs X -> Y -> X and triples X -> Y -> Z of graded maps
        X, Y = pair
        f = data.draw(graded_maps(X, Y))
        for W in (X, Z):
            g = data.draw(graded_maps(Y, W))
            composed = materialize(X, W, _compose(BG, f, g))
            F, G = materialize(X, Y, f), materialize(Y, W, g)
            for n, mat in composed.items():
                expected = _mat_compose(BG, F[n], G[n]) if n in Y.summands else ()
                assert nonzero_entries(mat) == nonzero_entries(expected)

    @given(bg_two_term(), bg_two_term())
    @settings(max_examples=30, deadline=None)
    def test_shifted_hom_without_shifting(self, X, Y):
        for k in (-1, 0, 1):
            assert _hom_dim(BG, X, Y, k) == hom_k_dim(BG, X, Y.shift(k))

    @given(bg_two_term(), bg_two_term())
    @settings(max_examples=20, deadline=None)
    def test_products_shared_across_rows_and_columns(self, X, Y):
        # a product with a d_Y entry is made once per row summand and one
        # with a d_X entry once per column summand, so tripling both sides
        # triples the products, where a product per variable would make
        # nine times as many
        assume(not X.is_zero() and not Y.is_zero())
        X3, Y3 = direct_sum([X] * 3), direct_sum([Y] * 3)
        for k in (-1, 0, 1):
            once = products_made(BG, lambda: _delta(BG, X, Y, k))
            assert products_made(BG, lambda: _delta(BG, X3, Y3, k)) == 3 * once

    @pytest.mark.parametrize("A", [A3, N3, BG], ids=["A3", "N3", "beta-gamma"])
    def test_h0_matches_cokernel_rank(self, A):
        for obj in enumerate_2silt(A).objects.values():
            for s in (obj.total(), *obj.summands):
                h0 = h0_dim_vector(A, s)
                assert h0 == h0_by_cokernel_rank(A, s) == h0_by_stalks(A, s)

    @given(bg_pairs())
    @settings(max_examples=30, deadline=None)
    def test_h0_from_one_delta_matches_the_stalks_off_two_terms(self, pair):
        X, _ = pair
        assert h0_dim_vector(BG, X) == h0_by_stalks(BG, X)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: hom_k_dim(A2, lambda_complex(A3), lambda_complex(A2)), ShapeMismatch),
        (lambda: decompose(A2, lambda_complex(A3)), ShapeMismatch),
        (lambda: reduce_complex(A2, lambda_complex(A3)), ShapeMismatch),
        (lambda: h0_dim_vector(A2, lambda_complex(A3)), ShapeMismatch),
        (lambda: summand_g_key(A2, lambda_complex(A3)), ShapeMismatch),
        (lambda: summand_g_key(A2, silting_lambda(A3)), ShapeMismatch),
        (lambda: bongartz_complete(A2, lambda_complex(A3)), ShapeMismatch),
        (lambda: Complex(A2, {0: (7,)}, {}), ShapeMismatch),
        (lambda: direct_sum([lambda_complex(A2), lambda_complex(A3)]), ShapeMismatch),
        (lambda: mutate(A2, silting_lambda(A2), True, "left"), IndexOutOfRange),
    ],
    ids=[
        "hom_k_dim", "decompose", "reduce_complex", "h0_dim_vector", "summand_g_key",
        "summand_g_key-object", "bongartz_complete", "bad-vertex", "mixed-direct-sum",
        "bool-index",
    ],
)
def test_foreign_or_malformed_input_refused(call, error):
    with pytest.raises(error):
        call()


class TestCone:
    def test_cone_of_the_identity_is_contractible(self):
        X = s1_presentation()
        C = cone(A2, identity_map(X), X, X)
        assert C.size() == 2 * X.size()
        assert reduce_complex(A2, C).is_zero()

    def test_refuses_a_map_that_is_not_a_chain_map(self):
        # the identity on e1 in degree 0 sends d_X = a to a, but the stalk
        # P1 has nothing in degree -1: not a chain map, so d^2 != 0 on the cone
        X = s1_presentation()
        f = {(0, 0, 0, A2.idempotent_index(0)): 1}
        with pytest.raises(ShapeMismatch):
            cone(A2, f, X, stalk(A2, ["1"], 0))

    @pytest.mark.parametrize(
        "n, r, c", [(0, -1, 0), (0, 0, -1), (0, 1, 0), (0, 0, 1), (1, 0, 0), (-2, 0, 0)]
    )
    def test_refuses_a_key_outside_the_summands(self, n, r, c):
        # added to a chain map: unchecked, the row index -1 would wrap onto
        # the identity's own entry and pass unnoticed
        X = s1_presentation()
        f = identity_map(X)
        f[(n, r, c, A2.idempotent_index(0))] = 1
        with pytest.raises(ShapeMismatch):
            cone(A2, f, X, X)


class TestReduce:
    def test_contractible_vanishes(self):
        assert reduce_complex(A2, contractible()).is_zero()

    def test_contractible_summand_stripped(self):
        X = s1_presentation()
        red = reduce_complex(A2, direct_sum([X, contractible()]))
        assert complexes_isomorphic(A2, red, X)

    def test_radical_map_untouched(self):
        X = s1_presentation()
        assert reduce_complex(A2, X).key() == X.key()

    @given(bg_two_term())
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, C):
        once = reduce_complex(BG, C)
        twice = reduce_complex(BG, once)
        assert once.key() == twice.key()

    @given(bg_two_term())
    @settings(max_examples=30, deadline=None)
    def test_preserves_hom_probes(self, C):
        red = reduce_complex(BG, C)
        L = lambda_complex(BG)
        assert hom_k_dim(BG, L, C) == hom_k_dim(BG, L, red)
        assert hom_k_dim(BG, C, L) == hom_k_dim(BG, red, L)
        assert hom_k_dim(BG, C, C) == hom_k_dim(BG, red, red)


@lru_cache(maxsize=None)
def summand_pool(algebra):
    """The indecomposable summands of the two-term silting objects, one
    per g-vector."""
    pool = {}
    for obj in enumerate_2silt(algebra).objects.values():
        for s in obj.summands:
            pool.setdefault(g_vector(s), s)
    return [pool[g] for g in sorted(pool)]


@st.composite
def disguised_sums(draw):
    """(algebra, chosen summands, their direct sum conjugated by u = 1 + x).

    x is one entry, a scalar or arrow multiple, from a chosen summand to
    another chosen summand in the same degree, so x^2 = 0, u^-1 = 1 - x
    and the differential d becomes u d (degree 0) or d u^-1 (degree -1)."""
    algebra = draw(st.sampled_from([A3, N3]))
    chosen = draw(st.lists(st.sampled_from(summand_pool(algebra)), min_size=2, max_size=4))
    S = direct_sum(chosen)
    slots = []
    for n, t in S.summands.items():
        owner = [i for i, s in enumerate(chosen) for _ in s.summands_at(n)]
        for r, vr in enumerate(t):
            for c, vc in enumerate(t):
                if owner[r] != owner[c]:
                    slots += [
                        (n, r, c, b)
                        for b in algebra.corner_indices(vc, vr)
                        if algebra.basis_length(b) <= 1
                    ]
    assume(slots)
    n, r0, c0, b = draw(st.sampled_from(slots))
    x = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
    t = S.summands[n]

    def unipotent(coeff):
        return [
            [
                {algebra.idempotent_index(t[r]): Fraction(1)} if r == c
                else {b: coeff} if (r, c) == (r0, c0) else {}
                for c in range(len(t))
            ]
            for r in range(len(t))
        ]

    d = S.diff_at(-1)
    if -1 in S.summands and 0 in S.summands:
        d = _mat_compose(algebra, d, unipotent(x)) if n == 0 else _mat_compose(
            algebra, unipotent(-x), d
        )
    return algebra, chosen, two_term(algebra, S.summands_at(-1), S.summands_at(0), d)


class TestDecompose:
    def test_free_module_splits_into_stalks(self):
        parts = decompose(A2, lambda_complex(A2))
        assert sorted(g_vector(p) for p in parts) == [(0, 1), (1, 0)]

    def test_square_splits_into_copies(self):
        X = s1_presentation()
        parts = decompose(A2, direct_sum([X, X]))
        assert len(parts) == 2
        assert all(complexes_isomorphic(A2, p, X) for p in parts)

    def test_indecomposable_returned_whole(self):
        X = s1_presentation()
        parts = decompose(A2, X)
        assert len(parts) == 1 and parts[0].key() == X.key()

    def test_zero_complex(self):
        assert decompose(A2, two_term(A2, [], [], [])) == []

    def test_refuses_a_complex_that_is_not_reduced(self):
        with pytest.raises(ShapeMismatch):
            decompose(A2, contractible())
        with pytest.raises(ShapeMismatch):
            decompose(A2, direct_sum([s1_presentation(), contractible()]))

    @pytest.mark.parametrize(
        "A", [A3, D4, N4, PI_A3], ids=["A3", "D4", "N4", "preprojective A3"]
    )
    def test_split_idempotents_are_exact(self, A, monkeypatch):
        # every e that splits a complex, and its complement 1 - e, is an
        # idempotent chain endomorphism: e then e is e
        real = silting_module._split_part
        seen = []

        def checked(P, e):
            assert _compose(A, e, e) == e
            seen.append(e)
            return real(P, e)

        monkeypatch.setattr(silting_module, "_split_part", checked)
        enumerate_2silt(A)
        assert seen

    def test_triangular_tops_split(self):
        # the tops of X + P1 are triangular: the identity on P1 in degree 0
        # is the top of a chain map P1 -> X, but every chain map X -> P1
        # has zero top; the centre is the scalars, so only the non-central
        # search splits it
        X = s1_presentation()
        P1 = stalk(A2, ["1"], 0)
        parts = decompose(A2, direct_sum([X, P1]))
        assert sorted(g_vector(p) for p in parts) == [(1, -1), (1, 0)]
        parts = decompose(A2, direct_sum([X, P1, X]))
        assert sorted(g_vector(p) for p in parts) == [(1, -1), (1, -1), (1, 0)]

    def test_splits_without_null_homotopies(self, monkeypatch):
        # null homotopies are the images of delta^-1; decompose needs only
        # the kernel of delta^0
        real = silting_module._delta

        def delta(algebra, X, Y, k):
            if k < 0:
                raise AssertionError("decompose computed null homotopies")
            return real(algebra, X, Y, k)

        monkeypatch.setattr(silting_module, "_delta", delta)
        X = s1_presentation()
        parts = decompose(A2, direct_sum([X, X]))
        assert [g_vector(p) for p in parts] == [(1, -1), (1, -1)]
        parts = decompose(A3, lambda_complex(A3))
        assert sorted(g_vector(p) for p in parts) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        parts = decompose(BG, lambda_complex(BG))
        assert sorted(g_vector(p) for p in parts) == [(0, 1), (1, 0)]

    @given(bg_two_term())
    @settings(max_examples=25, deadline=None)
    def test_parts_rebuild_the_whole(self, C):
        red = reduce_complex(BG, C)
        assume(not red.is_zero())
        parts = decompose(BG, red)
        assert sum(p.size() for p in parts) == red.size()
        g = [0] * len(BG.quiver.vertices)
        for p in parts:
            for i, x in enumerate(g_vector(p)):
                g[i] += x
        assert tuple(g) == g_vector(red)
        assert complexes_isomorphic(BG, direct_sum(parts), red)

    @given(disguised_sums())
    @settings(max_examples=40, deadline=None)
    def test_disguised_sums_split_into_their_summands(self, case):
        algebra, chosen, disguised = case
        parts = decompose(algebra, disguised)
        assert sorted(g_vector(p) for p in parts) == sorted(g_vector(s) for s in chosen)
        for p in parts:
            assert any(
                complexes_isomorphic(algebra, p, s) for s in chosen if g_vector(s) == g_vector(p)
            )


def top(rows):
    """A _TopAlgebra element in degree 0 from a matrix, rows[r][c] the
    (r, c) entry."""
    return {(0, r, c): x for r, row in enumerate(rows) for c, x in enumerate(row) if x}


def identity_top(n):
    return top([[int(r == c) for c in range(n)] for r in range(n)])


def fitting_u(tops, s):
    """(q s - a)^n for the first rational root a / q of the minimal
    polynomial of s, of degree n, by n - 1 products."""
    poly, powers = tops.min_poly(s)
    lam = silting_module._rational_roots(poly)[0]
    t = {key: lam.denominator * x for key, x in s.items()}
    for key, x in tops.unit.items():
        t[key] = t.get(key, 0) - lam.numerator * x
    t = {key: x for key, x in t.items() if x}
    u = t
    for _ in range(len(powers) - 1):
        u = tops.mul(u, t)
    return u, powers


class TestFittingIdempotent:
    @pytest.mark.parametrize(
        "rows, expected, d",
        [
            # two eigenvalues, both rational
            ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1),
            # a Jordan block at 1 and the eigenvalue 3: e = (s - 1)^2 / 4
            ([[1, 1, 1], [0, 1, 1], [0, 0, 3]], [[0, 0, 3], [0, 0, 2], [0, 0, 4]], 4),
            # minimal polynomial (x - 1)(x^2 - 2): e = s^2 - 1 is 1 on the
            # irrational rest
            ([[1, 0, 0], [0, 0, 2], [0, 1, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        ],
        ids=["diagonal", "jordan-block", "irrational-rest"],
    )
    def test_hand_built_idempotents(self, rows, expected, d):
        tops = _TopAlgebra([], identity_top(len(rows)))
        assert tops._split_on(top(rows)) == (top(expected), d)

    @pytest.mark.parametrize(
        "rows",
        [[[2, 1], [0, 2]], [[3, 0], [0, 3]], [[0, 2], [1, 0]]],
        ids=["single-eigenvalue", "scalar", "no-rational-root"],
    )
    def test_no_split(self, rows):
        assert _TopAlgebra([], identity_top(len(rows)))._split_on(top(rows)) is None

    @pytest.mark.parametrize(
        "A", [A3, D4, N4, PI_A3], ids=["A3", "D4", "N4", "preprojective A3"]
    )
    def test_idempotents_found_while_decomposing(self, A, monkeypatch):
        # e in Q[s], u (1 - e) = 0 and e in u Q[s] pin e: it is 1 where u is
        # a unit and 0 on the generalised eigenspace, where u = 0
        real = _TopAlgebra._split_on
        seen = []

        def checked(tops, s):
            found = real(tops, s)
            if found is not None:
                e, d = found
                u, powers = fitting_u(tops, s)
                assert u
                assert express_in_span(powers, e) is not None
                one_minus = {key: d * x for key, x in tops.unit.items()}
                for key, x in e.items():
                    one_minus[key] = one_minus.get(key, 0) - x
                assert tops.mul(u, {k: x for k, x in one_minus.items() if x}) == {}
                assert express_in_span([tops.mul(u, p) for p in powers], e) is not None
                seen.append(d)
            return found

        monkeypatch.setattr(_TopAlgebra, "_split_on", checked)
        enumerate_2silt(A)
        assert seen


class TestIsomorphism:
    def test_reflexive(self):
        X = s1_presentation()
        assert complexes_isomorphic(A2, X, X)

    def test_summand_order_irrelevant(self):
        X = s1_presentation()
        P1 = stalk(A2, [0], 0)
        assert complexes_isomorphic(
            A2, direct_sum([X, P1]), direct_sum([P1, X])
        )

    def test_distinguishes_classes(self):
        X = s1_presentation()
        assert not complexes_isomorphic(A2, X, stalk(A2, [0], 0))
        assert not complexes_isomorphic(A2, X, X.shift(1))

    def test_refuses_a_complex_that_is_not_reduced(self):
        # X + C is homotopy equivalent to X for the contractible C
        X = s1_presentation()
        padded = direct_sum([X, contractible()])
        with pytest.raises(ShapeMismatch):
            complexes_isomorphic(A2, padded, X)
        with pytest.raises(ShapeMismatch):
            complexes_isomorphic(A2, X, padded)


class TestSiltingPredicates:
    def test_free_module_is_silting(self):
        assert is_silting(A2, lambda_complex(A2))

    def test_radical_map_is_presilting_not_silting(self):
        X = s1_presentation()
        assert is_presilting(A2, X)
        assert not is_silting(A2, X)

    def test_pair_with_extension_not_presilting(self):
        bad = direct_sum([s1_presentation(), stalk(A2, [1], 0)])
        assert not is_presilting(A2, bad)

    def test_completed_pair_is_silting(self):
        good = direct_sum([s1_presentation(), stalk(A2, [0], 0)])
        assert is_silting(A2, good)


class TestSiltingObject:
    def test_free_module_object(self):
        L = silting_lambda(A2, validate=True)
        assert L.key == ((0, 1), (1, 0))
        assert L.id_string() == M_LAMBDA
        assert L.label() == "g=[(0,1),(1,0)];H0=[(0,1),(1,1)]"

    def test_summands_sorted_by_g_vector(self):
        L = silting_lambda(A2)
        assert [g_vector(s) for s in L.summands] == [(0, 1), (1, 0)]

    def test_non_presilting_pair_rejected(self):
        # distinct g-vectors (1,0) and (-1,0), yet P1 maps onto P1[-1][1]
        with pytest.raises(NotPresilting):
            SiltingObject(A2, [stalk(A2, [0], 0), stalk(A2, [0], -1)])

    def test_wrong_summand_count_rejected(self):
        with pytest.raises(NotSilting):
            SiltingObject(A2, [stalk(A2, [0], 0)])

    def test_repeated_g_vector_rejected(self):
        with pytest.raises(NotSilting):
            SiltingObject(A2, [stalk(A2, [0], 0), stalk(A2, [0], 0)])

    def test_g_matrix_det_unimodular(self, pentagon):
        for obj in pentagon.objects.values():
            assert abs(obj.g_matrix_det()) == 1


def _new_summand_index(old, new):
    old_gs = [g_vector(s) for s in old.summands]
    hits = [
        i for i, s in enumerate(new.summands)
        if g_vector(s) not in old_gs
    ]
    assert len(hits) == 1
    return hits[0]


class TestMutation:
    def test_left_steps_from_free_module(self):
        L = silting_lambda(A2)
        assert mutate(A2, L, 0, "left").id_string() == M1
        assert mutate(A2, L, 1, "left").id_string() == M2

    def test_left_then_right_is_identity(self, pentagon):
        for obj in pentagon.objects.values():
            for k in range(len(obj.summands)):
                try:
                    down = mutate(A2, obj, k, "left")
                except ConeNotTwoTerm:
                    continue
                back = mutate(A2, down, _new_summand_index(obj, down), "right")
                assert back.key == obj.key

    def test_bottom_has_no_left_mutation(self, pentagon):
        bottom = pentagon.objects[M4]
        for k in range(2):
            with pytest.raises(ConeNotTwoTerm):
                mutate(A2, bottom, k, "left")

    def test_top_has_no_right_mutation(self, pentagon):
        top = pentagon.objects[M_LAMBDA]
        for k in range(2):
            with pytest.raises(ConeNotTwoTerm):
                mutate(A2, top, k, "right")

    @pytest.mark.parametrize("A", EXCHANGE_CASES, ids=EXCHANGE_IDS)
    def test_exactly_one_direction_is_two_term(self, A):
        # an almost complete two-term presilting complex has exactly two
        # completions, one on each side (Adachi-Iyama-Reiten, Thm. 2.18)
        for obj in enumerate_2silt(A).objects.values():
            for k in range(len(obj.summands)):
                refused = []
                for direction in ("left", "right"):
                    try:
                        mutate(A, obj, k, direction)
                    except ConeNotTwoTerm:
                        refused.append(direction)
                assert len(refused) == 1, (obj.id_string(), k, refused)

    def test_rejects_plain_complex(self):
        with pytest.raises(NotSilting):
            mutate(A2, lambda_complex(A2), 0, "left")

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            mutate(A2, silting_lambda(A2), 2, "left")

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            mutate(A2, silting_lambda(A2), 0, "down")


class TestBongartzCompletion:
    def test_free_module_completes_to_itself(self):
        out = bongartz_complete(A2, lambda_complex(A2))
        assert out.id_string() == M_LAMBDA

    def test_zero_completes_to_shifted_free_module(self):
        out = bongartz_complete(A2, two_term(A2, [], [], []))
        assert out.id_string() == M4

    def test_simple_presentation_completes_with_projective(self):
        out = bongartz_complete(A2, s1_presentation())
        assert out.id_string() == M1

    def test_projective_simple_completes_with_shift(self):
        out = bongartz_complete(A2, stalk(A2, [1], 0))
        assert out.id_string() == M2

    def test_rejects_non_presilting(self):
        bad = direct_sum([s1_presentation(), stalk(A2, [1], 0)])
        with pytest.raises(NotPresilting):
            bongartz_complete(A2, bad)

    def test_completion_contains_input_class(self, pentagon):
        for obj in pentagon.objects.values():
            for s in obj.summands:
                out = bongartz_complete(A2, s)
                assert any(
                    complexes_isomorphic(A2, s, t) for t in out.summands
                )


class TestCheckSiltingModule:
    def test_free_module(self):
        assert check_silting_module(A2, lambda_complex(A2)) is True

    def test_simple_with_its_projective(self):
        pres = direct_sum([s1_presentation(), stalk(A2, [0], 0)])
        assert check_silting_module(A2, pres) is True

    def test_projective_simple(self):
        assert check_silting_module(A2, stalk(A2, [1], 0)) is True

    def test_bare_simple_fails(self):
        assert check_silting_module(A2, s1_presentation()) is False


class TestPresiltingFamily:
    def test_banded_family_all_presilting(self):
        assert check_presilting_family(KRON, range(6)) == [True] * 6

    def test_needs_parallel_arrow_pair(self):
        with pytest.raises(ValueError):
            check_presilting_family(A2, range(2))
        with pytest.raises(ValueError):
            check_presilting_family(BG, range(2))


class TestEnumeration:
    def test_counts_across_corpus(self):
        for A, n in ((A1, 2), (KK, 4), (DUAL, 2), (BG, 6), (A3, 14)):
            assert len(enumerate_2silt(A).objects) == n

    def test_pentagon_ids(self, pentagon):
        assert sorted(pentagon.objects) == sorted([M_LAMBDA, M1, M2, M3, M4])

    def test_pentagon_covers(self, pentagon):
        assert sorted(pentagon.poset.covers) == [
            (M2, M4),
            (M3, M4),
            (M_LAMBDA, M2),
            (M_LAMBDA, M1),
            (M1, M3),
        ]

    def test_top_and_bottom(self, pentagon):
        assert pentagon.poset.top() == M_LAMBDA
        assert pentagon.poset.bottom() == M4

    def test_three_vertex_extremes(self):
        r = enumerate_2silt(A3)
        assert r.poset.top() == "[(0,0,1),(0,1,0),(1,0,0)]"
        assert r.poset.bottom() == "[(-1,0,0),(0,-1,0),(0,0,-1)]"

    def test_mutation_edges_are_cover_relations(self):
        for A in (A1, KK, DUAL, BG, A3):
            r = enumerate_2silt(A)
            assert sorted(r.edges) == sorted(r.poset.covers)

    @pytest.mark.parametrize(
        "A", [A for _, A in corpus()] + [N3], ids=[n for n, _ in corpus()] + ["N3"]
    )
    def test_order_is_the_hom_order(self, A):
        # reference: Q <= P iff Hom(P, Q[1]) = 0, over all pairs
        r = enumerate_2silt(A)
        totals = [r.objects[i].total() for i in r.poset.ids]
        up = [
            sum(
                1 << p
                for p, P in enumerate(totals)
                if hom_shift1_dim(A, P, Q) == 0
            )
            for Q in totals
        ]
        assert tuple(up) == r.poset.up

    def test_missing_mutation_edge_detected(self, monkeypatch):
        # drop the exchange between the top and M1: neither direction at
        # that summand is two-term any more, which the search refuses
        # before it reads an order off the edges
        real = silting_module.mutate

        def mutate(algebra, P, k, direction, **kw):
            out = real(algebra, P, k, direction, **kw)
            if {P.id_string(), out.id_string()} == {M_LAMBDA, M1}:
                raise ConeNotTwoTerm("dropped for the test")
            return out

        monkeypatch.setattr(silting_module, "mutate", mutate)
        with pytest.raises(CertificationFailed, match="no two-term exchange partner"):
            enumerate_2silt(A2)

    @pytest.mark.parametrize("A", EXCHANGE_CASES, ids=EXCHANGE_IDS)
    def test_every_object_has_one_edge_per_summand(self, A):
        r = enumerate_2silt(A)
        n = len(A.quiver.vertices)
        degree = dict.fromkeys(r.objects, 0)
        for upper, lower in r.edges:
            degree[upper] += 1
            degree[lower] += 1
        assert set(degree.values()) == {n}

    def test_each_summand_mutated_once(self, monkeypatch):
        # left once per (object, summand) whose edge is not yet known,
        # right only after that left was refused, nothing repeated
        real = silting_module.mutate
        calls = []

        def mutate(algebra, P, k, direction, **kw):
            try:
                out = real(algebra, P, k, direction, **kw)
            except ConeNotTwoTerm:
                calls.append((P.key, k, direction, False))
                raise
            calls.append((P.key, k, direction, True))
            return out

        monkeypatch.setattr(silting_module, "mutate", mutate)
        r = enumerate_2silt(A4)
        tried = [c[:3] for c in calls]
        assert len(set(tried)) == len(tried)
        refused_left = {c[:2] for c in calls if c[2] == "left" and not c[3]}
        assert {c[:2] for c in calls if c[2] == "right"} == refused_left
        assert sum(ok for *_, ok in calls) == len(r.edges)
        assert len(calls) <= len(A4.quiver.vertices) * len(r.objects)

    def test_pair_without_exchange_partner_detected(self, monkeypatch):
        # refuse both directions at the first summand of the top
        real = silting_module.mutate

        def mutate(algebra, P, k, direction, **kw):
            if P.id_string() == M_LAMBDA and k == 0:
                raise ConeNotTwoTerm("refused for the test")
            return real(algebra, P, k, direction, **kw)

        monkeypatch.setattr(silting_module, "mutate", mutate)
        with pytest.raises(CertificationFailed, match="no two-term exchange partner"):
            enumerate_2silt(A2)

    @pytest.mark.parametrize(
        "obj, k, message",
        [
            (M_LAMBDA, 0, "free module is not the unique maximum"),
            (M2, 1, "edges are not the covers of their order"),
            (M3, 1, "shifted free module is not the unique minimum"),
        ],
    )
    def test_reversed_mutation_edge_detected(self, monkeypatch, obj, k, message):
        # swap the directions at one (object, summand) pair of the pentagon:
        # its edge is recorded upside down, every pair still has a two-term
        # partner, and the final checks on the order refuse the result
        real = silting_module.mutate

        def mutate(algebra, P, j, direction, **kw):
            if P.id_string() == obj and j == k:
                direction = "right" if direction == "left" else "left"
            return real(algebra, P, j, direction, **kw)

        monkeypatch.setattr(silting_module, "mutate", mutate)
        with pytest.raises(CertificationFailed, match=message):
            enumerate_2silt(A2)

    def test_pentagon_edges_match_covers(self, pentagon):
        assert sorted(pentagon.edges) == sorted(pentagon.poset.covers)

    def test_summands_rigid_with_scalar_endomorphisms(self, pentagon):
        for obj in pentagon.objects.values():
            for s in obj.summands:
                assert hom_k_dim(A2, s, s) == 1
                assert hom_shift1_dim(A2, s, s) == 0

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            enumerate_2silt(A2, config=Config(silting_cap=4))
        assert len(enumerate_2silt(A2, config=Config(silting_cap=5)).objects) == 5


class TestTorsLattice:
    def test_pentagon_labels(self):
        tl = tors_lattice(A2)
        assert sorted(tl.labels) == [
            "H0=[(0,1),(1,1)]",
            "H0=[(0,1)]",
            "H0=[(1,0),(1,1)]",
            "H0=[(1,0)]",
            "H0=[]",
        ]

    def test_ids_and_covers_preserved(self, pentagon):
        tl = tors_lattice(A2)
        assert tl.ids == pentagon.poset.ids
        assert tl.covers == pentagon.poset.covers

    def test_top_is_whole_module_category(self):
        tl = tors_lattice(A2)
        assert tl.label_of(tl.top()) == "H0=[(0,1),(1,1)]"
        assert tl.label_of(tl.bottom()) == "H0=[]"


class TestTauTiltingFinite:
    def test_finite_case_counts(self):
        rep = is_tau_tilting_finite(A2)
        assert rep.status == "finite"
        assert rep.count == 5

    def test_infinite_case_reports_unknown(self):
        rep = is_tau_tilting_finite(KRON, config=Config(silting_cap=30))
        assert rep.status == "unknown"
        assert rep.count is None


# 1 -> 3 <- 2, 3 -> 4 -> 5
D5 = build_algebra(
    Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")],
    ),
    [],
)


def c_vector(key, g):
    """The c with <c, g_j> = 1 at the summand g of the object key (its
    g-vectors g_j) and 0 at every other summand: a column of G^-1."""
    k = key.index(g)
    sol = solve([dict(enumerate(v)) for v in key], [int(j == k) for j in range(len(key))])
    return tuple(sol.get(i, 0) for i in range(len(key)))


class TestCVectors:
    @pytest.mark.parametrize(
        "A, roots", [(A4, 10), (D4, 12), (D5, 20)], ids=["A4", "D4", "D5"]
    )
    def test_exchange_c_vectors_are_sign_coherent_positive_roots(self, A, roots):
        # the c-vector of the exchanged summand is sign-coherent at either
        # end of a mutation edge, and the |c| are the positive roots, as
        # many as the join-irreducible torsion classes
        r = enumerate_2silt(A)
        keys = {i: obj.key for i, obj in r.objects.items()}
        magnitudes = set()
        for upper, lower in r.edges:
            (g_up,) = set(keys[upper]) - set(keys[lower])
            (g_low,) = set(keys[lower]) - set(keys[upper])
            c_up = c_vector(keys[upper], g_up)
            c_low = c_vector(keys[lower], g_low)
            assert c_low == tuple(-x for x in c_up)
            assert all(x >= 0 for x in c_up) or all(x <= 0 for x in c_up)
            magnitudes.add(tuple(abs(x) for x in c_up))
        lower_covers = Counter(a for a, _ in r.poset.covers)
        join_irreducible = [t for t in r.poset.ids if lower_covers[t] == 1]
        assert len(magnitudes) == len(join_irreducible) == roots


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_algebras():
    """D4 with every arrow pointing away from the short arms, and the
    rad^2 = 0 cyclic Nakayama algebra N4, in natural listing order."""
    d4 = build_algebra(
        Quiver(["1", "2", "3", "4"], [("x0", "1", "3"), ("x1", "2", "3"), ("x2", "3", "4")]),
        [],
    )
    n4 = build_algebra(
        Quiver(["1", "2", "3", "4"], [(f"a{i}", str(i), str(i % 4 + 1)) for i in range(1, 5)]),
        [[(1, [f"a{i % 4 + 1}", f"a{i}"])] for i in range(1, 5)],
    )
    return {"D4": d4, "N4": n4}


class TestGoldenLattices:
    @pytest.mark.parametrize("name, size", [("D4", 50), ("N4", 34)])
    def test_tors_lattice_matches_its_golden(self, name, size):
        with open(GOLDEN / "tors_d4_n4.json") as f:
            want = json.load(f)[name]
        got = tors_lattice(golden_algebras()[name])
        assert len(got.ids) == size
        assert list(got.ids) == want["ids"]
        assert list(got.labels) == want["labels"]
        assert sorted(list(c) for c in got.covers) == want["covers"]


def semidistributive(poset):
    """For every a, the elements b with one meet a ^ b = m have a join J
    with a ^ J = m, and dually; in a finite lattice that is meet- and
    join-semidistributivity."""
    ops = lattice_ops(poset)
    for bound, dual in ((ops.meet, ops.join), (ops.join, ops.meet)):
        for a in poset.ids:
            span = {}  # m -> the join (meet) of the b with a ^ b = m (a v b = m)
            for b in poset.ids:
                m = bound(a, b)
                span[m] = dual(span[m], b) if m in span else b
            if any(bound(a, j) != m for m, j in span.items()):
                return False
    return True


def test_torsion_lattices_are_semidistributive():
    # Demonet-Iyama-Reading-Reiten-Thomas: tors of a tau-tilting finite
    # algebra is semidistributive; the diamond M3 shows the check can fail
    diamond = build_poset(["0", "x", "y", "z", "1"], [("0", t) for t in "xyz"] + [(t, "1") for t in "xyz"])
    assert not semidistributive(diamond)
    v = build_poset(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])
    lattices = [tors_lattice(A) for A in (A3, A4, D4, N3, golden_algebras()["N4"])]
    lattices.append(cambrian_classification(A2, v))
    assert [len(l) for l in lattices] == [14, 42, 50, 14, 34, 43]
    assert all(semidistributive(l) for l in lattices)


A5 = build_algebra(
    Quiver([str(i) for i in range(1, 6)], [(f"a{i}", str(i), str(i + 1)) for i in range(1, 5)]),
    [],
)
N5 = build_algebra(
    Quiver([str(i) for i in range(1, 6)], [(f"a{i}", str(i), str(i % 5 + 1)) for i in range(1, 6)]),
    [[(1, [f"a{i % 5 + 1}", f"a{i}"])] for i in range(1, 6)],
)


@pytest.mark.parametrize("A, size", [(A5, 132), (N5, 82), (D5, 182)], ids=["A5", "N5", "D5"])
def test_larger_torsion_lattices_are_semidistributive(A, size):
    lattice = tors_lattice(A)
    assert len(lattice) == size
    assert semidistributive(lattice)


# 1 -> 2 -> 3 -> 4 -> 5 with 3 -> 6
E6 = build_algebra(
    Quiver(
        [str(i) for i in range(1, 7)],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5"), ("e", "3", "6")],
    ),
    [],
)


def preprojective_a(n):
    """Pi(A_n) named as PI_A3 is: xi: i -> i + 1 and its reverse xis, with
    xis xi killed at 1, x(n-1) x(n-1)s at n and the difference of the two
    two-cycles at every other vertex."""
    arrows = []
    for i in range(1, n):
        arrows += [(f"x{i}", str(i), str(i + 1)), (f"x{i}s", str(i + 1), str(i))]
    relations = [
        [(1, [f"x{v}s", f"x{v}"])] * (v < n) + [(-1, [f"x{v - 1}", f"x{v - 1}s"])] * (v > 1)
        for v in range(1, n + 1)
    ]
    return build_algebra(Quiver([str(i) for i in range(1, n + 1)], arrows), relations)


PI_A4 = preprojective_a(4)
TABLE_CASES = [A3, D4, N4, PI_A3, BG, DUAL]
TABLE_IDS = ["A3", "D4", "N4", "Pi(A3)", "beta-gamma", "dual-numbers"]


def counting(monkeypatch, name):
    """Count the calls of a module-level function of silting."""
    real = getattr(silting_module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(silting_module, name, counted)
    return calls


class TestSummandTable:
    @pytest.mark.parametrize("A", TABLE_CASES, ids=TABLE_IDS)
    def test_table_agrees_with_the_cone(self, A):
        # memo=None builds every exchange cone; a shared memo finds known
        # partners in its summand table: as it goes, with every object
        # known, and with every summand but no other object known
        objects = list(enumerate_2silt(A).objects.values())
        calls = [
            (obj, k, direction)
            for obj in objects
            for k in range(len(obj.summands))
            for direction in ("left", "right")
        ]

        def outcome(obj, k, direction, memo):
            try:
                return mutate(A, obj, k, direction, validate=False, memo=memo).key
            except ConeNotTwoTerm:
                return None

        want = [outcome(*call, None) for call in calls]
        assert None in want and want.count(None) < len(want)
        memo = {}
        for _ in range(2):
            assert [outcome(*call, memo) for call in calls] == want
        table = silting_module._SummandTable(A)
        for obj in objects:
            table.add(obj)
        summands_only = []
        for call in calls:
            table.objects.clear()
            table.index.clear()
            summands_only.append(outcome(*call, {silting_module._SummandTable: table}))
        assert summands_only == want

    @pytest.mark.parametrize(
        "A, cones", [(A3, 6), (D4, 12), (N4, 8), (PI_A3, 11)], ids=["A3", "D4", "N4", "Pi(A3)"]
    )
    def test_one_cone_per_new_summand(self, monkeypatch, A, cones):
        built = counting(monkeypatch, "_exchange_cone")
        r = enumerate_2silt(A)
        summands = {g for obj in r.objects.values() for g in obj.key}
        assert len(built) == len(summands) - len(A.quiver.vertices) == cones

    @pytest.mark.parametrize(
        "A, size, cones", [(E6, 833, 36), (PI_A4, 120, 26)], ids=["E6", "Pi(A4)"]
    )
    def test_larger_inputs(self, monkeypatch, A, size, cones):
        # E6 has one summand per positive root besides the six projectives;
        # Pi(A4) gives the weak order of S5
        built = counting(monkeypatch, "_exchange_cone")
        r = enumerate_2silt(A)
        summands = {g for obj in r.objects.values() for g in obj.key}
        assert len(r.objects) == size
        assert len(built) == len(summands) - len(A.quiver.vertices) == cones

    def test_e6_scan_takes_no_determinants(self, monkeypatch):
        # one kernel vector per scan gives the cofactors, so the only
        # determinants left are complexes_isomorphic's (35)
        dets = counting(monkeypatch, "det")
        enumerate_2silt(E6)
        assert len(dets) <= 40

    def test_e6_scan_computes_no_more_homs(self, monkeypatch):
        # the clash bitmasks only skip Hom tests whose answer is known, so
        # the scan asks no more than the 1 642 a scan without them asks
        homs = counting(monkeypatch, "_hom_dim")
        built = counting(monkeypatch, "_exchange_cone")
        enumerate_2silt(E6)
        assert len(homs) <= 1642
        assert len(built) == 36

    def test_scanned_partner_is_indexed(self, monkeypatch):
        # a partner found by the scan joins the index, so the right mutation
        # after a refused left one is not scanned again (without the index
        # entry, D4 scans two almost complete objects twice)
        scan = silting_module._SummandTable._scan
        found = []

        def counted(table, ids, rest):
            out = scan(table, ids, rest)
            if out:
                found.append(frozenset(rest))
            return out

        monkeypatch.setattr(silting_module._SummandTable, "_scan", counted)
        enumerate_2silt(D4)
        assert found and len(set(found)) == len(found)

    def test_kronecker_computes_few_homs(self, monkeypatch):
        # the cone path makes one _hom_dim call per two-term cone, 31 before
        # the cap; the sign-coherence and clash bitmasks and the kernel
        # cofactor leave almost no known summand for a Hom test
        homs = counting(monkeypatch, "_hom_dim")
        with pytest.raises(CapExceeded):
            enumerate_2silt(KRON, config=Config(silting_cap=30))
        assert len(homs) <= 31 + 5

    def test_known_partner_needs_no_g_vector(self, monkeypatch):
        # the new key is the old one with one entry replaced, so once every
        # partner is known no g-vector is computed
        objects = list(enumerate_2silt(D4).objects.values())
        memo = {}

        def mutate_all():
            for obj in objects:
                for k in range(4):
                    for direction in ("left", "right"):
                        try:
                            mutate(D4, obj, k, direction, validate=False, memo=memo)
                        except ConeNotTwoTerm:
                            pass

        mutate_all()
        computed = counting(monkeypatch, "g_vector")
        mutate_all()
        assert computed == []
