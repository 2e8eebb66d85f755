"""Brute-force module oracle: representation handling, Ext dimensions, and
subset-sweep torsion classes, cross-checked against the complex engine."""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torslat.algebras import Quiver, build_algebra
from torslat import oracle
from torslat.config import DEFAULTS, Config
from torslat.errors import (
    CertificationFailed,
    NotRepFiniteWithinBound,
    SearchSpaceExceeded,
    ShapeMismatch,
    SizeCapExceeded,
)
from torslat.fixtures import (
    algebra_a2,
    algebra_a3,
    algebra_beta_gamma,
    algebra_dual_numbers,
    algebra_kronecker,
    algebra_kxk,
    corpus,
)
from torslat.linalg import modp_echelon, modp_nullspace, modp_rank, modp_solve
from torslat.oracle import (
    Representation,
    brute_serre,
    brute_torsion_classes,
    direct_sum_rep,
    enumerate_indecomposables,
    ext_dim,
    hom_rep_basis,
    hom_rep_dim,
    projective_rep,
    simple_rep,
)
from torslat.posets import build_poset, lattice_ops, poset_isomorphism
from torslat.silting import tors_lattice

from test_posets import minimal_steps
from test_silting import golden_algebras

A2 = algebra_a2()
A3 = algebra_a3()
DUAL = algebra_dual_numbers()
BG = algebra_beta_gamma()
KRON = algebra_kronecker()

TORS_COUNTS = {
    "a1": 2,
    "a2": 5,
    "a3": 14,
    "kxk": 4,
    "dual-numbers": 2,
    "beta-gamma": 6,
}
SERRE_COUNTS = {
    "a1": 2,
    "a2": 4,
    "a3": 8,
    "kxk": 4,
    "dual-numbers": 2,
    "beta-gamma": 4,
}


@pytest.fixture(scope="module")
def oracle_posets():
    return {
        name: (brute_torsion_classes(alg), brute_serre(alg))
        for name, alg in corpus()
    }


class TestRepresentation:
    def test_simple_shape(self):
        s1 = simple_rep(A2, "1")
        assert s1.dims == (1, 0)
        assert s1.p == 2
        assert simple_rep(A2, 1).dims == (0, 1)

    def test_projective_dims(self):
        assert projective_rep(A2, "1").dims == (1, 1)
        assert projective_rep(A2, "2").dims == (0, 1)
        assert projective_rep(BG, "1").dims == (2, 1)
        assert projective_rep(BG, "2").dims == (1, 1)
        assert projective_rep(DUAL, "1").dims == (2,)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            simple_rep(A2, "nope")
        with pytest.raises(ValueError):
            simple_rep(A2, 7)

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            Representation(A2, 2, (1, 1), (((1, 1),),))

    def test_unreduced_entries_rejected(self):
        with pytest.raises(ValueError):
            Representation(A2, 2, (1, 1), (((2,),),))

    def test_relation_violation_rejected(self):
        # the loop must square to zero
        with pytest.raises(ValueError):
            Representation(DUAL, 2, (1,), (((1,),),))

    def test_unsupported_field(self):
        with pytest.raises(ValueError):
            simple_rep(A2, "1", field=5)

    @pytest.mark.parametrize("p, dims, entry", [
        (2, (1, 1), 1.7),
        (2, (1, 1), "1"),
        (2, (1, 1), True),
        (2, (1.9, 1), 1),
        (2, ("1", 1), 1),
        (2, (True, 1), 1),
        (2.0, (1, 1), 1),
    ], ids=["float entry", "str entry", "bool entry", "float dim", "str dim", "bool dim",
            "float field"])
    def test_non_int_input_refused_not_converted(self, p, dims, entry):
        assert Representation(A2, 2, (1, 1), [[[1]]]).mats == (((1,),),)
        with pytest.raises(ValueError, match="int"):
            Representation(A2, p, dims, [[[entry]]])

    def test_bool_vertex_refused(self):
        assert simple_rep(A2, 1).dims == (0, 1)
        with pytest.raises(ValueError):
            simple_rep(A2, True)
        with pytest.raises(ValueError):
            projective_rep(A2, False)

    def test_direct_sum_dims(self):
        both = direct_sum_rep(A2, [simple_rep(A2, "1"), projective_rep(A2, "1")])
        assert both.dims == (2, 1)

    def test_direct_sum_field_mismatch(self):
        with pytest.raises(ShapeMismatch):
            direct_sum_rep(A2, [simple_rep(A2, "1", 2), simple_rep(A2, "1", 3)])

    def test_wrong_algebra_rejected(self):
        with pytest.raises(ShapeMismatch):
            hom_rep_dim(A2, simple_rep(A3, "1"), simple_rep(A3, "1"))


class TestHomSpaces:
    def test_a2_hom_dims(self):
        p1, p2 = projective_rep(A2, "1"), projective_rep(A2, "2")
        s1 = simple_rep(A2, "1")
        assert hom_rep_dim(A2, p1, s1) == 1
        assert hom_rep_dim(A2, s1, p1) == 0
        assert hom_rep_dim(A2, p2, p1) == 1
        assert hom_rep_dim(A2, p1, p2) == 0

    def test_bg_endomorphisms(self):
        p1 = projective_rep(BG, "1")
        assert hom_rep_dim(BG, p1, p1) == 2

    def test_hom_between_projectives_matches_cartan(self):
        for _, alg in corpus():
            cart = alg.cartan_matrix()
            n = len(alg.quiver.vertices)
            projs = [projective_rep(alg, v) for v in range(n)]
            for i in range(n):
                for j in range(n):
                    assert hom_rep_dim(alg, projs[i], projs[j]) == cart[i][j]

    def test_basis_members_intertwine(self):
        p1 = projective_rep(BG, "1")
        s2 = simple_rep(BG, "2")
        for f in hom_rep_basis(BG, p1, s2):
            q = BG.quiver
            for a in range(len(q.arrows)):
                s, t = q.arrow_source(a), q.arrow_target(a)
                for j in range(p1.dims[s]):
                    left = [
                        sum(f[t][i][k] * p1.mats[a][k][j] for k in range(p1.dims[t])) % 2
                        for i in range(s2.dims[t])
                    ]
                    right = [
                        sum(s2.mats[a][i][l] * f[s][l][j] for l in range(s2.dims[s])) % 2
                        for i in range(s2.dims[t])
                    ]
                    assert left == right


def _pool(alg):
    return [simple_rep(alg, v) for v in range(len(alg.quiver.vertices))] + [
        projective_rep(alg, v) for v in range(len(alg.quiver.vertices))
    ]


summand_indices = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2)


class TestAdditivity:
    @given(xs=summand_indices, ys=summand_indices, zs=summand_indices)
    @settings(max_examples=25, deadline=None)
    def test_hom_additive_over_sums(self, xs, ys, zs):
        pool = _pool(A2)
        x = direct_sum_rep(A2, [pool[i] for i in xs])
        y = direct_sum_rep(A2, [pool[i] for i in ys])
        z = direct_sum_rep(A2, [pool[i] for i in zs])
        lhs = hom_rep_dim(A2, direct_sum_rep(A2, [x, y]), z)
        assert lhs == hom_rep_dim(A2, x, z) + hom_rep_dim(A2, y, z)
        rhs = hom_rep_dim(A2, z, direct_sum_rep(A2, [x, y]))
        assert rhs == hom_rep_dim(A2, z, x) + hom_rep_dim(A2, z, y)

    @given(xs=summand_indices, ys=summand_indices, zs=summand_indices)
    @settings(max_examples=15, deadline=None)
    def test_ext_additive_over_sums(self, xs, ys, zs):
        pool = _pool(BG)
        x = direct_sum_rep(BG, [pool[i] for i in xs])
        y = direct_sum_rep(BG, [pool[i] for i in ys])
        z = direct_sum_rep(BG, [pool[i] for i in zs])
        assert ext_dim(BG, direct_sum_rep(BG, [x, y]), z) == ext_dim(
            BG, x, z
        ) + ext_dim(BG, y, z)
        assert ext_dim(BG, z, direct_sum_rep(BG, [x, y])) == ext_dim(
            BG, z, x
        ) + ext_dim(BG, z, y)


class TestEnumerate:
    def test_corpus_class_counts(self):
        expected = {
            "a1": 1,
            "a2": 3,
            "a3": 6,
            "kxk": 2,
            "dual-numbers": 2,
            "beta-gamma": 5,
        }
        for name, alg in corpus():
            assert len(enumerate_indecomposables(alg)) == expected[name], name

    def test_a2_canonical_representatives(self):
        classes = enumerate_indecomposables(A2)
        assert [c.dims for c in classes] == [(0, 1), (1, 0), (1, 1)]
        assert classes[2].mats == (((1,),),)

    def test_a3_intervals(self):
        dims = [c.dims for c in enumerate_indecomposables(A3)]
        assert dims == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (0, 1, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_beta_gamma_classes(self):
        classes = enumerate_indecomposables(BG)
        assert [c.dims for c in classes] == [(0, 1), (1, 0), (1, 1), (1, 1), (2, 1)]
        # the two distinct one-one classes: only one of them is projective
        assert classes[2].mats == (((0,),), ((1,),))
        assert classes[3].mats == (((1,),), ((0,),))
        # the big class is the first projective
        big = classes[4]
        assert hom_rep_dim(BG, projective_rep(BG, "1"), big) == 2
        assert hom_rep_dim(BG, big, projective_rep(BG, "1")) == 2

    def test_dual_numbers_classes(self):
        classes = enumerate_indecomposables(DUAL)
        assert [c.dims for c in classes] == [(1,), (2,)]
        assert classes[1].mats == (((0, 0), (1, 0)),)

    def test_explicit_bound_examples(self):
        assert len(enumerate_indecomposables(A2, dim_bound=(1, 1))) == 3
        from torslat.fixtures import algebra_a1

        assert len(enumerate_indecomposables(algebra_a1(), dim_bound=2)) == 1

    def test_deterministic_across_instances(self):
        fresh = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])
        ours = [c.key() for c in enumerate_indecomposables(A2)]
        theirs = [c.key() for c in enumerate_indecomposables(fresh)]
        assert ours == theirs

    def test_kronecker_needs_explicit_bound(self):
        with pytest.raises(NotRepFiniteWithinBound):
            enumerate_indecomposables(KRON)

    def test_directed_a3_certified_in_every_numbering(self):
        for u, v, w in permutations("123"):
            alg = _no_relations(3, [("a", u, v), ("b", v, w)])
            assert oracle._certified_bound(alg) == (1, 1, 1)

    @pytest.mark.parametrize("arrows", [
        [("a", "2", "1"), ("b", "2", "3")],
        [("a", "1", "2"), ("b", "3", "2")],
    ], ids=["V", "Lambda"])
    def test_undirected_a3_needs_explicit_bound(self, arrows):
        with pytest.raises(NotRepFiniteWithinBound):
            enumerate_indecomposables(_no_relations(3, arrows))

    def test_kronecker_small_bound(self):
        classes = enumerate_indecomposables(KRON, dim_bound=(1, 1))
        assert [c.dims for c in classes] == [(0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]

    def test_search_cap(self):
        with pytest.raises(SearchSpaceExceeded):
            enumerate_indecomposables(KRON, dim_bound=4)
        with pytest.raises(SearchSpaceExceeded):
            enumerate_indecomposables(A2, config=Config(oracle_search_cap=100))

    def test_refusal_stops_counting_at_the_cap(self):
        # about 10^1445 raw representations: counting stops at the cap, so
        # the refusal is quick and names the cap, not the count
        start = time.perf_counter()
        refusal = f"more than the cap of {DEFAULTS.oracle_search_cap} "
        with pytest.raises(SearchSpaceExceeded, match=refusal):
            enumerate_indecomposables(_linear(4), dim_bound=40)
        assert time.perf_counter() - start < 1
        cap = Config(oracle_search_cap=100)
        assert oracle._search_size(2, (1, 1), A2.quiver, cap.oracle_search_cap) == 4
        with pytest.raises(SearchSpaceExceeded, match="more than the cap of 100 "):
            enumerate_indecomposables(A2, dim_bound=(3, 3), config=cap)
        # with no arrow each dimension vector adds one representation, so
        # only the count of nonzero vectors can refuse at once
        for bound in (1500, 10 ** 6):
            start = time.perf_counter()
            with pytest.raises(SearchSpaceExceeded, match=refusal):
                enumerate_indecomposables(algebra_kxk(), dim_bound=bound)
            assert time.perf_counter() - start < 0.05

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            enumerate_indecomposables(A2, dim_bound=0)
        with pytest.raises(ValueError, match="one cap per vertex"):
            enumerate_indecomposables(A2, dim_bound=(1, 1, 1))
        # a cap of 0 would drop the simple at its vertex
        for bound in ((1, 0), (0, 1), (1, -1)):
            with pytest.raises(ValueError, match="positive"):
                enumerate_indecomposables(A2, dim_bound=bound)
        with pytest.raises(ValueError, match="positive"):
            brute_torsion_classes(A2, dim_bound=(1, 0))
        with pytest.raises(ValueError, match="positive"):
            brute_serre(A2, dim_bound=(0, 1))
        # checked, not coerced: 2.9 is no field, (1.0, 2.7) no bound and
        # True no cap
        for field, bound in [
            (2.9, "12"), (2.0, 1), (True, 1), (None, "12"), (None, (1.0, 2.7)),
            (None, True), (None, (True, 1)), (None, 1.5),
        ]:
            with pytest.raises(ValueError):
                enumerate_indecomposables(A2, field=field, dim_bound=bound)

    def test_cache_keeps_the_config(self):
        # a fresh algebra: the fixtures hand out cached singletons
        alg = algebra_beta_gamma.__wrapped__()
        small = Config(oracle_cocycle_cap=2)
        with pytest.raises(SearchSpaceExceeded):
            enumerate_indecomposables(alg, config=small)
        assert len(enumerate_indecomposables(alg)) == 5
        with pytest.raises(SearchSpaceExceeded):
            enumerate_indecomposables(alg, config=small)

    def test_odd_characteristic(self):
        assert len(enumerate_indecomposables(A2, field=3, dim_bound=(1, 1))) == 3
        assert len(enumerate_indecomposables(DUAL, field=3)) == 2


def _nakayama(n):
    # cyclic quiver with every length-two path killed
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [[(1, [f"a{i % n + 1}", f"a{i}"])] for i in range(1, n + 1)]
    return build_algebra(Quiver([str(i) for i in range(1, n + 1)], arrows), relations)


def _no_relations(n, arrows):
    return build_algebra(Quiver([str(i) for i in range(1, n + 1)], arrows), [])


def _unpruned_keys(alg, p, bounds):
    """The sweep without rank pruning: every matrix on every arrow."""
    q = alg.quiver
    n = len(q.vertices)
    dim_vectors = sorted(
        (dv for dv in product(*(range(b + 1) for b in bounds)) if any(dv)),
        key=lambda dv: (sum(dv), dv),
    )
    classes = []
    known_simple = [False] * n
    for dims in dim_vectors:
        per_arrow = []
        for a in range(len(q.arrows)):
            rows, cols = dims[q.arrow_target(a)], dims[q.arrow_source(a)]
            per_arrow.append([
                tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))
                for flat in product(range(p), repeat=rows * cols)
            ])
        for mats in product(*per_arrow):
            rep = Representation(alg, p, dims, mats, validate=False, copy=False)
            if not oracle._relations_vanish(rep):
                continue
            if any(
                known_simple[v] and dims[v] and oracle._simple_splits(rep, v)
                for v in range(n)
            ):
                continue
            if any(
                c.total_dim > 1
                and all(cd <= rd for cd, rd in zip(c.dims, dims))
                and oracle._splits_off(alg, c, rep)
                for c in classes
            ):
                continue
            oracle._assert_indecomposable(alg, rep, DEFAULTS)
            classes.append(rep)
            if rep.total_dim == 1:
                known_simple[dims.index(1)] = True
    return [c.key() for c in classes]


def _loop_then_arrow():
    # arrow 0 is a loop, so the sweep must not prune it by rank
    return build_algebra(
        Quiver(["1", "2"], [("e", "1", "1"), ("a", "1", "2")]),
        [[(1, ["e", "e"])]],
    )


SWEEP_INPUTS = [
    (algebra_a2, (2, 2)),
    (algebra_a3, (1, 1, 1)),
    (algebra_beta_gamma, (2, 2)),
    (algebra_kronecker, (1, 1)),
    (algebra_dual_numbers, (2,)),
    (_loop_then_arrow, (2, 1)),
]


def _nakayama3():
    return _nakayama(3)


def _square():
    # ba - 2dc: the commutative square up to a unit over Q and F_3; over
    # F_2 the monomial ba
    return build_algebra(
        Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        ),
        [[(1, ["b", "a"]), (-2, ["d", "c"])]],
    )


def _preprojective_a3():
    # the double quiver of 1 - 2 - 3, the reverse of x named xs, with
    # as a, a as - bs b and b bs killed
    return build_algebra(
        Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("as", "2", "1"), ("b", "2", "3"), ("bs", "3", "2")],
        ),
        [[(1, ["as", "a"])], [(1, ["a", "as"]), (-1, ["bs", "b"])], [(1, ["b", "bs"])]],
    )


def _arrow_then_loop():
    # the loop's relation e^2 is not affine in e, so its matrices are filtered
    return build_algebra(
        Quiver(["1", "2"], [("a", "1", "2"), ("e", "2", "2")]),
        [[(1, ["e", "e"])]],
    )


# inputs whose relations the sweep solves arrow by arrow
SOLVED_INPUTS = [
    (_nakayama3, (1, 1, 1)),
    (_square, (1, 1, 1, 1)),
    (_preprojective_a3, (1, 2, 1)),
    (_arrow_then_loop, (2, 2)),
]


def _combination_sweep_splits(alg, c, r):
    """Reference split test: every nonzero f in Hom(c, r), each with a
    linear solve of g o f = 1 for g in Hom(r, c)."""
    p = c.p
    fs = hom_rep_basis(alg, c, r)
    gs = hom_rep_basis(alg, r, c)
    if not fs or not gs:
        return False
    nv = len(c.dims)
    positions = [(v, i, j) for v in range(nv) for i in range(c.dims[v]) for j in range(c.dims[v])]
    rhs = [1 if i == j else 0 for (_, i, j) in positions]
    for combo in product(range(p), repeat=len(fs)):
        if not any(combo):
            continue
        f = oracle._hom_combo(p, fs, combo)
        comps = [
            [oracle._mat_mul(p, g[v], f[v], c.dims[v], r.dims[v], c.dims[v]) for v in range(nv)]
            for g in gs
        ]
        rows = [[comp[v][i][j] for comp in comps] for (v, i, j) in positions]
        if modp_solve(rows, rhs, len(gs), p) is not None:
            return True
    return False


def _invertible_everywhere(p, dims, per_vertex):
    return all(modp_rank(list(m), d, p) == d for d, m in zip(dims, per_vertex))


class TestPrunedSweep:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("make, bounds", SWEEP_INPUTS + SOLVED_INPUTS)
    def test_same_representatives_as_full_sweep(self, make, bounds, p):
        pruned = enumerate_indecomposables(make(), field=p, dim_bound=bounds)
        assert [c.key() for c in pruned] == _unpruned_keys(make(), p, bounds)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("make, bounds", SWEEP_INPUTS)
    def test_pair_scan_agrees_with_combination_sweep(self, make, bounds, p, monkeypatch):
        met, met_simple = [], []
        real, real_simple = oracle._splits_off, oracle._simple_splits

        def recorded(alg, c, r):
            met.append((c, r))
            return real(alg, c, r)

        def recorded_simple(r, v):
            met_simple.append((r, v))
            return real_simple(r, v)

        monkeypatch.setattr(oracle, "_splits_off", recorded)
        monkeypatch.setattr(oracle, "_simple_splits", recorded_simple)
        alg = make()
        enumerate_indecomposables(alg, field=p, dim_bound=bounds)
        _unpruned_keys(alg, p, bounds)
        simple_pairs = {(r.key(), v): (r, v) for r, v in met_simple}
        assert simple_pairs
        for r, v in simple_pairs.values():
            assert real_simple(r, v) == _combination_sweep_splits(alg, simple_rep(alg, v, p), r)
        pairs = {(c.key(), r.key()): (c, r) for c, r in met}
        assert pairs
        for c, r in pairs.values():
            g = real(alg, c, r)
            assert (g is not None) == _combination_sweep_splits(alg, c, r)
            if g is None:
                continue
            assert any(
                _invertible_everywhere(
                    p,
                    c.dims,
                    [oracle._mat_mul(p, g[v], f[v], d, r.dims[v], d) for v, d in enumerate(c.dims)],
                )
                for f in hom_rep_basis(alg, c, r)
            )
            rest = oracle._kernel_subrep(alg, r, g)
            assert rest.dims == tuple(rd - cd for rd, cd in zip(r.dims, c.dims))

    @pytest.mark.parametrize("p", [2, 3])
    def test_closed_form_is_first_of_each_rank(self, p):
        for rows in range(4):
            for cols in range(4):
                first = {}
                for m in oracle._all_matrices(p, rows, cols):
                    first.setdefault(modp_rank([list(r) for r in m], cols, p), m)
                assert oracle._first_of_each_rank(rows, cols) == list(first.values())

    @pytest.mark.parametrize("p", [2, 3])
    def test_affine_solutions_keep_the_sweep_order(self, p):
        rng = random.Random(p)
        for _ in range(300):
            nvars = rng.randint(0, 5)
            rows = [
                [rng.randrange(p) for _ in range(nvars + 1)] for _ in range(rng.randint(0, 4))
            ]
            swept = [
                x for x in product(range(p), repeat=nvars)
                if all((sum(c * v for c, v in zip(row, x)) + row[nvars]) % p == 0 for row in rows)
            ]
            assert oracle._affine_solutions(rows, nvars, p) == swept

    def test_beta_gamma_relation_checks(self, monkeypatch):
        calls = _count_relation_checks(monkeypatch)
        classes = enumerate_indecomposables(algebra_beta_gamma.__wrapped__())
        # the relations are solved, so the only checks validate the classes
        # kept; filtering took 270 767 checks, 2 538 with rank pruning
        assert len(calls) == len(classes) == 5


def _count_relation_checks(monkeypatch):
    calls = []
    real = oracle._relations_vanish

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_relations_vanish", counted)
    return calls


class TestClosureRequirementsShared:
    def test_computed_once_for_tors_and_serre(self, monkeypatch):
        calls = []
        real = oracle._closure_requirements

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle, "_closure_requirements", counted)
        alg = algebra_beta_gamma()
        brute_torsion_classes(alg)
        brute_serre(alg)
        assert len(calls) == 1

    def test_smaller_cocycle_cap_still_raises(self):
        alg = algebra_a2()
        assert len(brute_serre(alg)) == SERRE_COUNTS["a2"]
        small = Config(oracle_cocycle_cap=1)
        for _ in range(2):
            with pytest.raises(SearchSpaceExceeded):
                brute_serre(alg, config=small)
        assert len(brute_torsion_classes(alg)) == TORS_COUNTS["a2"]


BEYOND_CORPUS = [
    ("A4 linear", lambda: _no_relations(
        4, [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]), 1),
    ("A4 zig-zag", lambda: _no_relations(
        4, [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4")]), 1),
    ("D4", lambda: _no_relations(
        4, [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]), (1, 1, 2, 1)),
    ("N3", lambda: _nakayama(3), 1),
    ("N4", lambda: _nakayama(4), 1),
]


def _swept_closed_subsets(n, req):
    """The listing by a sweep over all 2^n subsets of classes, the order
    from every pair of them and no certification: the reference for the
    NextClosure listing."""

    def closed(mask):
        members = [i for i in range(n) if mask >> i & 1]
        return all(not req[i][j] & ~mask for i in members for j in members)

    masks = [mask for mask in range(2 ** n) if closed(mask)]

    def ident(mask):
        return "{" + ",".join(f"M{i}" for i in range(n) if mask >> i & 1) + "}"

    return build_poset(
        [(ident(m), ident(m)) for m in masks],
        [(ident(a), ident(b)) for a in masks for b in masks if a != b and not a & ~b],
    )


SWEEP_CASES = [(name, lambda alg=alg: alg, None) for name, alg in corpus()] + [
    *BEYOND_CORPUS,
    ("N5", lambda: _nakayama(5), 1),
]


def _linear(n):
    return _no_relations(n, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])


class TestNextClosureListing:
    @pytest.mark.parametrize(
        "make, bound", [case[1:] for case in SWEEP_CASES],
        ids=[case[0] for case in SWEEP_CASES],
    )
    def test_same_posets_as_the_sweep(self, make, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, dim_bound=bound)
        tables = oracle._closure_requirements(alg, classes, DEFAULTS, {})
        for brute, req in zip((brute_torsion_classes, brute_serre), tables):
            listed = brute(alg, dim_bound=bound)
            swept = _swept_closed_subsets(len(classes), req)
            assert (listed.ids, listed.labels, listed.up, listed.covers) == (
                swept.ids, swept.labels, swept.up, swept.covers
            )

    @pytest.mark.parametrize(
        "make, bound",
        [(algebra_beta_gamma, None), (lambda: golden_algebras()["D4"], (1, 1, 2, 1))],
        ids=["beta-gamma", "D4"],
    )
    def test_covers_are_the_minimal_closure_steps(self, monkeypatch, make, bound):
        real, seen = oracle._closure_order, []

        def spy(n, masks, closure, ids):
            poset = real(n, masks, closure, ids)
            seen.append((poset, minimal_steps(n, masks, closure, ids)))
            return poset

        monkeypatch.setattr(oracle, "_closure_order", spy)
        alg = make()
        brute_torsion_classes(alg, field=2, dim_bound=bound)
        brute_serre(alg, field=2, dim_bound=bound)
        assert len(seen) == 2
        for poset, minimal in seen:
            assert sorted(poset.covers) == sorted(minimal)

    def test_linear_a6_beyond_a_sweep(self):
        # 21 classes: the 2^21 sweep exceeds the subset cap
        alg = _linear(6)
        assert len(enumerate_indecomposables(alg, dim_bound=1)) == 21
        assert 2 ** 21 > DEFAULTS.subset_cap
        assert len(brute_torsion_classes(alg, dim_bound=1)) == 429
        assert len(brute_serre(alg, dim_bound=1)) == 64

    @pytest.mark.parametrize("fault", ["drop", "add"])
    def test_faulty_listing_is_refused(self, monkeypatch, fault):
        real = oracle.closed_sets

        def faulty(n, closure, config):
            masks = real(n, closure, config)
            if fault == "drop":
                del masks[len(masks) // 2]
            else:  # the first subset the complete listing leaves out
                masks.append(next(m for m in range(1 << n) if m not in masks))
                masks.sort()
            return masks

        monkeypatch.setattr(oracle, "closed_sets", faulty)
        with pytest.raises(CertificationFailed):
            brute_torsion_classes(_linear(3), dim_bound=1)


class TestEngineBeyondCorpus:
    @pytest.mark.parametrize(
        "make, bound", [case[1:] for case in BEYOND_CORPUS],
        ids=[case[0] for case in BEYOND_CORPUS],
    )
    def test_tors_matches_engine(self, make, bound):
        alg = make()
        brute = brute_torsion_classes(alg, dim_bound=bound)
        assert poset_isomorphism(tors_lattice(alg), brute)

    @pytest.mark.parametrize(
        "make, field, bound, n_tors",
        [(_preprojective_a3, 2, (1, 2, 1), 24), (_square, 3, 1, 46)],
        ids=["preprojective A3", "square over F_3"],
    )
    def test_solved_relations_match_engine(self, make, field, bound, n_tors):
        alg = make()
        brute = brute_torsion_classes(alg, field=field, dim_bound=bound)
        assert len(brute) == n_tors
        assert poset_isomorphism(tors_lattice(alg), brute)


def _swept_stable_tuples(algebra, rep, config=DEFAULTS):
    """Every tuple of per-vertex subspaces in product order, kept when each
    arrow maps the subspace at its source into the one at its target: the
    reference for the backtracking sweep, which takes the config for its
    cap; the reference sweep has none."""
    p = rep.p
    q = algebra.quiver

    def stable(choice):
        for a in range(len(q.arrows)):
            t = q.arrow_target(a)
            span = [list(r) for r in choice[t][1]]
            images = [
                list(oracle._mat_vec(p, rep.mats[a], u))
                for u in choice[q.arrow_source(a)][1]
            ]
            if modp_rank(span + images, rep.dims[t], p) > len(span):
                return False
        return True

    per_vertex = [oracle._subspaces(p, d) for d in rep.dims]
    return [choice for choice in product(*per_vertex) if stable(choice)]


def _triangle():
    return _no_relations(3, [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])


def _every_rep(algebra, p, dims):
    """Every assignment of matrices of these dimensions over F_p, the
    relations not imposed: the stable tuples do not read them."""
    q = algebra.quiver
    per_arrow = [
        oracle._all_matrices(p, dims[q.arrow_target(a)], dims[q.arrow_source(a)])
        for a in range(len(q.arrows))
    ]
    for mats in product(*per_arrow):
        yield Representation(algebra, p, dims, mats, validate=False, copy=False)


@st.composite
def small_quiver_reps(draw):
    """A quiver on up to three vertices with up to four arrows, loops,
    parallel and opposite arrows allowed, and matrices over F_2 or F_3 on
    dimensions up to 2.  Only the quiver is read, so it carries no
    algebra."""
    n = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arrows = draw(st.lists(ends, max_size=4))
    quiver = Quiver(
        [str(v) for v in range(n)], [(f"x{a}", str(s), str(t)) for a, (s, t) in enumerate(arrows)]
    )
    p = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    mats = tuple(
        tuple(tuple(draw(st.integers(0, p - 1)) for _ in range(dims[s])) for _ in range(dims[t]))
        for s, t in arrows
    )
    only_quiver = SimpleNamespace(quiver=quiver)
    return only_quiver, Representation(only_quiver, p, dims, mats, validate=False, copy=False)


def _all_cocycle_extensions(algebra, x, y, config):
    """Middle terms for every connecting block on which the relations
    vanish, cohomologous blocks included: the reference for the sweep that
    takes one block per Ext^1 class."""
    q = algebra.quiver
    arrows = range(len(q.arrows))
    dims = tuple(xd + yd for xd, yd in zip(x.dims, y.dims))
    per_arrow = [
        oracle._all_matrices(x.p, x.dims[q.arrow_target(a)], y.dims[q.arrow_source(a)])
        for a in arrows
    ]
    for blocks in product(*per_arrow):
        mats = [
            tuple(xr + cr for xr, cr in zip(x.mats[a], blocks[a]))
            + tuple((0,) * x.dims[q.arrow_source(a)] + yr for yr in y.mats[a])
            for a in arrows
        ]
        rep = Representation(algebra, x.p, dims, mats, validate=False)
        if oracle._relations_vanish(rep):
            yield rep


# over F_2 the coboundary x_a h_s - h_t y_a loses its sign; F_3 keeps it
REFERENCE_CASES = [(name, make, None, bound) for name, make, bound in SWEEP_CASES] + [
    ("a2 over F_3", algebra_a2, 3, (1, 1)),
    ("a3 over F_3", algebra_a3, 3, 1),
    ("dual-numbers over F_3", algebra_dual_numbers, 3, 2),
    ("beta-gamma over F_3", algebra_beta_gamma, 3, (2, 1)),
    ("N3 over F_3", lambda: _nakayama(3), 3, 1),
    # the first preprojective and the first non-monomial inputs
    ("preprojective A3", _preprojective_a3, 2, (1, 2, 1)),
    ("square over F_3", _square, 3, 1),
]
# the underlying graph of 1 -> 2 -> 3, 1 -> 3 is an odd cycle, so over F_3
# the sign of the coboundary moves its pivots; the closure tables of this
# representation-infinite quiver raise, so only the Ext count runs on it
EXT_CASES = REFERENCE_CASES + [("triangle over F_3", _triangle, 3, 1)]


def _cases(cases):
    return pytest.mark.parametrize(
        "make, field, bound", [case[1:] for case in cases],
        ids=[case[0] for case in cases],
    )


reference_cases = _cases(REFERENCE_CASES)


class TestClosureSweeps:
    @reference_cases
    def test_stable_tuples_match_the_product_sweep(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        for i, x in enumerate(classes):
            for y in classes[i:]:
                two = direct_sum_rep(alg, [x, y])
                assert oracle._stable_tuples(alg, two) == _swept_stable_tuples(alg, two)

    @reference_cases
    def test_own_stable_tuples_match_the_product_sweep(self, make, field, bound):
        alg = make()
        for x in enumerate_indecomposables(alg, field=field, dim_bound=bound):
            assert oracle._stable_tuples(alg, x) == _swept_stable_tuples(alg, x)

    @pytest.mark.parametrize("make, p, dims", [
        (algebra_kronecker, 2, (2, 2)),
        (_triangle, 2, (1, 2, 1)),
        (_triangle, 3, (1, 1, 2)),
        (algebra_dual_numbers, 3, (2,)),
        (algebra_dual_numbers, 2, (3,)),
        (algebra_beta_gamma, 3, (2, 1)),
        (algebra_beta_gamma, 3, (1, 2)),
    ], ids=[
        "Kronecker", "triangle", "triangle over F_3", "dual numbers over F_3",
        "dual numbers", "beta-gamma (2, 1)", "beta-gamma (1, 2)",
    ])
    def test_stable_tuples_on_every_representation(self, make, p, dims):
        # parallel arrows, a vertex keyed by two others, a loop, and an
        # arrow whose source index is above its target's
        alg = make()
        for rep in _every_rep(alg, p, dims):
            assert oracle._stable_tuples(alg, rep) == _swept_stable_tuples(alg, rep)

    @pytest.mark.parametrize("make, dims, mats", [
        (algebra_a2, (5, 2), [((1, 0, 1, 1, 0), (0, 1, 1, 0, 0))]),
        (algebra_a2, (2, 5), [((1, 0), (0, 1), (1, 1), (0, 0), (1, 0))]),
        (algebra_a2, (5, 1), [((0, 0, 0, 0, 0),)]),
        (algebra_dual_numbers, (5,), [tuple(
            tuple(int(j == i + 1) for j in range(5)) for i in range(5))]),
    ], ids=["A2 (5, 2)", "A2 (2, 5)", "A2 (5, 1) zero", "dual numbers (5,) shift"])
    def test_stable_tuples_at_dimension_five(self, make, dims, mats):
        alg = make()
        rep = Representation(alg, 2, dims, mats, validate=False)
        assert oracle._stable_tuples(alg, rep) == _swept_stable_tuples(alg, rep)

    @given(small_quiver_reps())
    @settings(max_examples=100, deadline=None)
    def test_stable_tuples_on_random_representations(self, drawn):
        alg, rep = drawn
        assert oracle._stable_tuples(alg, rep) == _swept_stable_tuples(alg, rep)

    def test_stable_tuples_stop_at_the_map_cap(self):
        two = direct_sum_rep(BG, enumerate_indecomposables(BG)[-2:])
        listed = oracle._stable_tuples(BG, two)
        cap = Config(map_cap=len(listed))
        assert oracle._stable_tuples(BG, two, cap) == listed
        with pytest.raises(SizeCapExceeded, match="stable subspace tuple count"):
            oracle._stable_tuples(BG, two, Config(map_cap=len(listed) - 1))

    @_cases(EXT_CASES)
    def test_one_middle_term_per_ext_class(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        p = classes[0].p
        for x in classes:
            for y in classes:
                middles = list(oracle._extensions(alg, x, y, DEFAULTS))
                assert len(middles) == p ** ext_dim(alg, y, x)

    def test_extensions_check_no_relations(self, monkeypatch):
        alg = _preprojective_a3()
        classes = enumerate_indecomposables(alg, dim_bound=(1, 2, 1))
        calls = _count_relation_checks(monkeypatch)
        middles = [
            m for x in classes for y in classes for m in oracle._extensions(alg, x, y, DEFAULTS)
        ]
        assert middles and not calls
        assert all(oracle._relations_vanish(m) for m in middles)

    @reference_cases
    def test_tables_match_the_full_sweeps(self, monkeypatch, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        tables = oracle._closure_requirements(alg, classes, DEFAULTS, {})
        monkeypatch.setattr(oracle, "_stable_tuples", _swept_stable_tuples)
        monkeypatch.setattr(oracle, "_extensions", _all_cocycle_extensions)
        assert oracle._closure_requirements(alg, classes, DEFAULTS, {}) == tables


def _all_tuple_requirements(algebra, classes, config):
    """The closure tables from every stable tuple of every two-member sum,
    quotient and subobject, plus the extensions: the reference for the
    sweep that takes each class's own tuples once and skips the tuples of
    a pair that split."""
    n = len(classes)
    memo = {}
    tors = [[0] * n for _ in range(n)]
    subs = [[0] * n for _ in range(n)]

    def mask(rep):
        parts = oracle._decompose(algebra, rep, classes, memo)
        if parts is None:
            raise NotRepFiniteWithinBound("a part outside the classes")
        return sum(1 << k for k in set(parts))

    for i in range(n):
        for j in range(i, n):
            two = direct_sum_rep(algebra, [classes[i], classes[j]])
            for choice in oracle._stable_tuples(algebra, two):
                tors[i][j] |= mask(oracle._quotient_rep(algebra, two, choice))
                subs[i][j] |= mask(oracle._subrep_on_rows(algebra, two, choice))
    for i in range(n):
        for j in range(n):
            for mid in oracle._extensions(algebra, classes[i], classes[j], config):
                tors[i][j] |= mask(mid)
    serre = [[t | s for t, s in zip(*rows)] for rows in zip(tors, subs)]
    return tors, serre


def _meets_split(p, x_dims, y_dims, choice):
    """Whether dim(U meet x) + dim(U meet y) = dim U for a subspace tuple U
    of x (+) y, each meet's dimension read off the rank of U's rows with
    the unit vectors of x or of y."""
    for dx, dy, (_, rows) in zip(x_dims, y_dims, choice):
        d = dx + dy
        units = [[int(k == c) for k in range(d)] for c in range(d)]
        rows = [list(r) for r in rows]
        in_x = len(rows) + dx - modp_rank(rows + units[:dx], d, p)
        in_y = len(rows) + dy - modp_rank(rows + units[dx:], d, p)
        if in_x + in_y != len(rows):
            return False
    return True


def _pair_tuples(alg, classes):
    """(x, y, stable tuple of x (+) y) over the pairs i <= j of classes."""
    for i, x in enumerate(classes):
        for y in classes[i:]:
            two = direct_sum_rep(alg, [x, y])
            for choice in oracle._stable_tuples(alg, two):
                yield x, y, choice


# fresh algebras: the fixtures are shared, and so are their cached tables
fresh_cases = pytest.mark.parametrize("make, field, bound", [
    (algebra_beta_gamma.__wrapped__, None, None),
    (algebra_beta_gamma.__wrapped__, 3, (2, 1)),
    (lambda: _linear(4), None, 1),
    (_preprojective_a3, 2, (1, 2, 1)),
], ids=["beta-gamma", "beta-gamma over F_3", "A4 linear", "preprojective A3"])


class TestSplitPruning:
    @reference_cases
    def test_tables_match_the_all_tuple_loop(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        tables = oracle._closure_requirements(alg, classes, DEFAULTS, {})
        assert tables == _all_tuple_requirements(alg, classes, DEFAULTS)

    @reference_cases
    def test_split_rule_matches_the_meets(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        p = classes[0].p
        seen = Counter()
        for x, y, choice in _pair_tuples(alg, classes):
            split = oracle._splits(x.dims, choice)
            assert split == _meets_split(p, x.dims, y.dims, choice)
            seen[split] += 1
        # x (+) x always has the diagonal, which does not split
        assert seen[True] and seen[False]

    @fresh_cases
    def test_one_quotient_per_own_and_non_split_tuple(self, monkeypatch, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        p = classes[0].p
        own = sum(len(oracle._stable_tuples(alg, x)) for x in classes)
        non_split = sum(
            not _meets_split(p, x.dims, y.dims, choice)
            for x, y, choice in _pair_tuples(alg, classes)
        )
        calls = []
        real = oracle._quotient_rep

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle, "_quotient_rep", counted)
        brute_torsion_classes(alg, field=field, dim_bound=bound)
        assert non_split and len(calls) == own + non_split

    @fresh_cases
    def test_split_middle_terms_are_not_decomposed(self, monkeypatch, make, field, bound):
        # the zero cocycle's x (+) y has parts i and j by Krull-Schmidt, so
        # of the p^ext middle terms of each ordered pair one goes undecomposed
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        p = classes[0].p
        expected = sum(p ** ext_dim(alg, y, x) - 1 for x in classes for y in classes)
        reference = _all_tuple_requirements(alg, classes, DEFAULTS)
        middles, decomposed = {}, []
        real_extensions, real_decompose = oracle._extensions, oracle._decompose

        def recorded(*args):
            for mid in real_extensions(*args):
                middles[id(mid)] = mid  # held, so no id is reused
                yield mid

        def counted(algebra, rep, *rest):
            if id(rep) in middles:
                decomposed.append(rep)
            return real_decompose(algebra, rep, *rest)

        monkeypatch.setattr(oracle, "_extensions", recorded)
        monkeypatch.setattr(oracle, "_decompose", counted)
        tables = oracle._closure_requirements(alg, classes, DEFAULTS, {})
        assert expected and len(decomposed) == expected
        assert len(middles) == expected + len(classes) ** 2
        assert tables == reference

    @pytest.mark.parametrize("fault", ["zero cocycle dropped", "zero cocycle last"])
    def test_the_skipped_middle_term_is_certified(self, monkeypatch, fault):
        alg = _preprojective_a3()
        classes = enumerate_indecomposables(alg, dim_bound=(1, 2, 1))
        real = oracle._extensions

        def faulty(algebra, x, y, config):
            mids = list(real(algebra, x, y, config))
            if fault == "zero cocycle dropped":
                return iter(mids[1:])
            return iter(mids[1:] + mids[:1])

        monkeypatch.setattr(oracle, "_extensions", faulty)
        with pytest.raises(CertificationFailed, match="split"):
            oracle._closure_requirements(alg, classes, DEFAULTS, {})

    def test_disjoint_supports_make_no_pair_sweep(self, monkeypatch):
        alg = _linear(4)
        classes = enumerate_indecomposables(alg, dim_bound=1)
        swept = []
        real = oracle.direct_sum_rep

        def recorded(algebra, reps):
            swept.append(tuple(r.dims for r in reps))
            return real(algebra, reps)

        monkeypatch.setattr(oracle, "direct_sum_rep", recorded)
        oracle._closure_requirements(alg, classes, DEFAULTS, {})
        ends = ((1, 0, 0, 0), (0, 0, 0, 1))
        assert all(dims in [c.dims for c in classes] for dims in ends)
        assert ends not in swept
        assert swept == [
            (x.dims, y.dims)
            for i, x in enumerate(classes) for y in classes[i:]
            if any(a and b for a, b in zip(x.dims, y.dims))
        ]

    @pytest.mark.parametrize("brute", [brute_torsion_classes, brute_serre])
    def test_truncation_detected_on_quotients(self, monkeypatch, brute):
        # without extensions only a quotient can leave the classes: the
        # preinjective (2, 1) of M (+) M' over a shared 1-dim subspace
        monkeypatch.setattr(oracle, "_extensions", lambda *args: iter(()))
        with pytest.raises(NotRepFiniteWithinBound):
            brute(algebra_kronecker(), dim_bound=(1, 1))


@pytest.mark.parametrize("p, d", [(2, d) for d in range(5)] + [(3, d) for d in range(4)])
def test_vector_masks_hold_the_span(p, d):
    vecs = list(product(range(p), repeat=d))
    subs, masks = oracle._subspaces(p, d), oracle._vector_masks(p, d)
    assert len(subs) == len(masks)
    for sub, mask in zip(subs, masks):
        assert bin(mask).count("1") == p ** len(sub[1])
        inside = [v for v in vecs if not any(oracle._reduce(p, sub, list(v))[1])]
        assert mask == sum(1 << sum(x * p ** i for i, x in enumerate(v)) for v in inside)


def _unfiltered_decompose(algebra, rep, classes, memo):
    """Split off the first class that fits by dimension and splits: the
    reference for the scan that filters by arrow-rank profiles."""
    key = rep.key()
    if key in memo:
        return memo[key]
    if rep.is_zero():
        memo[key] = ()
        return ()
    out = None
    for idx, c in enumerate(classes):
        if any(cd > rd for cd, rd in zip(c.dims, rep.dims)):
            continue
        g = oracle._splits_off(algebra, c, rep)
        if g is None:
            continue
        rest = oracle._kernel_subrep(algebra, rep, g)
        sub = _unfiltered_decompose(algebra, rest, classes, memo)
        if sub is not None:
            out = tuple(sorted((idx,) + sub))
        break
    memo[key] = out
    return out


class TestRankFilter:
    @reference_cases
    def test_same_parts_as_the_unfiltered_scan(self, monkeypatch, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        p = classes[0].p
        memo = {}
        oracle._closure_requirements(alg, classes, DEFAULTS, memo)
        accepted = []
        real = oracle._splits_off

        def recorded(algebra, c, r):
            g = real(algebra, c, r)
            if g is not None:
                accepted.append((c, r))
            return g

        monkeypatch.setattr(oracle, "_splits_off", recorded)
        reference = {}
        decomposed = [(key, parts) for key, parts in memo.items() if key != "profiles"]
        for (dims, mats), parts in decomposed:
            rep = Representation(alg, p, dims, mats, validate=False, copy=False)
            assert _unfiltered_decompose(alg, rep, classes, reference) == parts
        assert decomposed and accepted
        for c, r in accepted:
            assert all(
                a <= b for a, b in zip(oracle._arrow_ranks(c), oracle._arrow_ranks(r))
            )

    def test_repeat_runs_make_the_same_rank_calls(self):
        # a fresh interpreter, so that no earlier test has warmed a cache:
        # a traced benchmark pass must count what the pass before it did
        run = subprocess.run(
            [sys.executable, "-c", _RANK_CALLS],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True, text=True, check=True,
        )
        counts = json.loads(run.stdout)
        assert all(first and first == second for first, second in counts)


# two brute_torsion_classes runs on fresh copies of beta-gamma and of D4,
# printing the modp_rank calls of each run
_RANK_CALLS = """
import json
from torslat import oracle
from torslat.algebras import Quiver, build_algebra
from torslat.fixtures import algebra_beta_gamma

real = oracle.modp_rank
calls = []
oracle.modp_rank = lambda *args: calls.append(1) or real(*args)


def d4():
    arrows = [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]
    return build_algebra(Quiver(["1", "2", "3", "4"], arrows), [])


counts = []
for make, bound in [(algebra_beta_gamma.__wrapped__, None), (d4, (1, 1, 2, 1))]:
    runs = []
    for _ in range(2):
        calls.clear()
        oracle.brute_torsion_classes(make(), dim_bound=bound)
        runs.append(len(calls))
    counts.append(runs)
print(json.dumps(counts))
"""


def _dense_hom_delta(p, q, m, n):
    """The Hom differential with every row a dense list: the reference for
    the sparse rows of oracle._hom_delta."""
    offs = [0]
    for v in range(len(m.dims)):
        offs.append(offs[-1] + n.dims[v] * m.dims[v])
    rows = []
    for a in range(len(q.arrows)):
        s, t = q.arrow_source(a), q.arrow_target(a)
        ma, na = m.mats[a], n.mats[a]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * offs[-1]
                for l in range(n.dims[s]):
                    row[offs[s] + l * m.dims[s] + j] += na[i][l]
                for k in range(m.dims[t]):
                    row[offs[t] + i * m.dims[t] + k] -= ma[k][j]
                rows.append([e % p for e in row])
    return offs, rows


def _dense_hom_basis(algebra, m, n):
    offs, rows = _dense_hom_delta(m.p, algebra.quiver, m, n)
    return [
        tuple(
            tuple(
                tuple(vec[offs[v] + i * m.dims[v] + j] for j in range(m.dims[v]))
                for i in range(n.dims[v])
            )
            for v in range(len(m.dims))
        )
        for vec in modp_nullspace(rows, offs[-1], m.p)
    ]


def _dense_cocycles(algebra, x, y):
    """oracle._cocycles on the dense differential, its columns by zip."""
    p, q = x.p, algebra.quiver
    offs = [0]
    for a in range(len(q.arrows)):
        offs.append(offs[-1] + x.dims[q.arrow_target(a)] * y.dims[q.arrow_source(a)])
    _, delta = _dense_hom_delta(p, q, y, x)
    pivots = set(modp_echelon(zip(*delta), offs[-1], p)[0])
    free = [k for k in range(offs[-1]) if k not in pivots]
    every = {a: offs[a] for a in range(len(q.arrows))}
    rows = [
        [row[k] for k in free]
        for rel in algebra.relation_terms
        for row in oracle._relation_rows(p, q, rel, x, y, every, offs[-1])
    ]
    return offs, free, rows


def _assert_dense_parity(alg, x, y):
    q = alg.quiver
    _, dense = _dense_hom_delta(x.p, q, x, y)
    _, rows = oracle._hom_delta(x.p, q, x, y)
    # one row per block entry, the empty ones kept as {}
    assert rows == [{c: e for c, e in enumerate(row) if e} for row in dense]
    assert hom_rep_basis(alg, x, y) == _dense_hom_basis(alg, x, y)
    offs, free, relations = _dense_cocycles(alg, x, y)
    assert oracle._cocycles(alg, x, y) == (offs, free, relations)
    assert ext_dim(alg, y, x) == len(free) - modp_rank(relations, len(free), x.p)


def _full_reshape_splits_off(algebra, c, r):
    """The split scan on whole Hom basis maps: the reference for the scan
    that builds only the blocks at the first vertex of c."""
    fs = hom_rep_basis(algebra, c, r)
    if not fs:
        return None
    v, d = next((v, d) for v, d in enumerate(c.dims) if d)
    for g in hom_rep_basis(algebra, r, c):
        for f in fs:
            if modp_rank(oracle._mat_mul(c.p, g[v], f[v], d, r.dims[v], d), d, c.p) == d:
                return g
    return None


def _record(monkeypatch, name, log):
    """Wrap oracle.<name> so that each call appends (args, result) to log;
    a generator's results are logged one by one as they are drawn."""
    real = getattr(oracle, name)

    def logged(*args):
        out = real(*args)
        if name == "_extensions":
            return (log.append((args, mid)) or mid for mid in out)
        log.append((args, out))
        return out

    monkeypatch.setattr(oracle, name, logged)


class TestSparseHomPath:
    @reference_cases
    def test_same_homs_and_cocycles_as_the_dense_rows(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        for x in classes:
            for y in classes:
                _assert_dense_parity(alg, x, y)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_loop_where_both_terms_meet(self, p):
        # on a loop the two terms of delta(h) can reach one variable, and
        # on every representation of dimension at most 2 the rows agree
        reps = [
            rep
            for d in (1, 2) for mat in oracle._all_matrices(p, d, d)
            if oracle._relations_vanish(rep := Representation(DUAL, p, (d,), (mat,), validate=False))
        ]
        assert len(reps) == 1 + p ** 2  # the nilpotent matrices
        for x in reps:
            for y in reps:
                _assert_dense_parity(DUAL, x, y)
        # e = [[1, 1], [-1, -1]]: entry (0, 0) of e h - h e is
        # h_10 + h_01 once the two h_00 terms cancel
        e = ((1, 1), (p - 1, p - 1))
        m = Representation(DUAL, p, (2,), (e,))
        assert oracle._hom_delta(p, DUAL.quiver, m, m)[1][0] == {2: 1, 1: 1}

    @reference_cases
    def test_splits_rests_and_builders_on_the_sweeps(self, monkeypatch, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        splits, built = [], []
        _record(monkeypatch, "_splits_off", splits)
        builders = ["_quotient_rep", "_subrep_on_rows", "_extensions", "direct_sum_rep"]
        for name in builders:
            _record(monkeypatch, name, built)
        oracle._closure_requirements(alg, classes, DEFAULTS, {})
        assert splits and built
        peeled = 0
        for (_, c, r), g in splits:
            # the same retraction as the scan on whole maps
            assert g == _full_reshape_splits_off(alg, c, r)
            if g is not None:
                # the rest's profile is rep's less the class's
                rest = oracle._kernel_subrep(alg, r, g)
                ranks = oracle._arrow_ranks
                assert ranks(rest) == tuple(a - b for a, b in zip(ranks(r), ranks(c)))
                peeled += 1
        assert peeled
        for _, rep in built:
            # canonical nested tuples of ints, as a validated copy makes them
            copied = Representation(alg, rep.p, rep.dims, rep.mats)
            assert hash(rep.key()) == hash(copied.key()) and rep.key() == copied.key()

    # inputs whose sweeps leave rests that are neither zero nor known yet
    @pytest.mark.parametrize("make, field, bound", [
        (_preprojective_a3, 2, (1, 2, 1)),
        (lambda: _no_relations(4, [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]), 2, (1, 1, 2, 1)),
        (_square, 3, 1),
    ], ids=["preprojective A3", "D4", "square over F_3"])
    def test_no_ranks_taken_of_a_rest(self, monkeypatch, make, field, bound):
        # a rest left by a split gets its profile by subtraction: once made,
        # its arrow ranks are never computed
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        memo = {"profiles": [oracle._arrow_ranks(c) for c in classes]}
        events = []
        real_ranks, real_kernel = oracle._arrow_ranks, oracle._kernel_subrep

        def ranks(rep):
            events.append(("ranks", rep.key()))
            return real_ranks(rep)

        def kernel(*args):
            rest = real_kernel(*args)
            events.append(("rest", rest.key()))
            return rest

        monkeypatch.setattr(oracle, "_arrow_ranks", ranks)
        monkeypatch.setattr(oracle, "_kernel_subrep", kernel)
        oracle._closure_requirements(alg, classes, DEFAULTS, memo)
        rests = set()
        for kind, key in events:
            if kind == "rest":
                rests.add(key)
            else:
                assert key not in rests
        assert rests and any(kind == "ranks" for kind, _ in events)


BRICK_COUNTS = {
    "a1": 1,
    "a2": 3,
    "a3": 6,
    "kxk": 2,
    "dual-numbers": 1,
    "beta-gamma": 4,
    "A4 linear": 10,
    "A4 zig-zag": 10,
    "D4": 12,
    "N3": 6,
    "N4": 8,
    "N5": 10,
    "preprojective A3": 11,
    "A5": 15,
    "D5": 20,
}


# D5 at its highest root: at (1, 1, 2, 1, 1) the sweep misses the brick
# of dimension (1, 1, 2, 2, 1) and finds 19 without a word
BRICKS_BEYOND = [
    ("preprojective A3", _preprojective_a3, (1, 2, 1)),
    ("A5", lambda: _linear(5), 1),
    ("D5", lambda: _no_relations(
        5, [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")]), (1, 1, 2, 2, 1)),
]


class TestBricks:
    @pytest.mark.parametrize(
        "name, make, bound", SWEEP_CASES + BRICKS_BEYOND,
        ids=[case[0] for case in SWEEP_CASES + BRICKS_BEYOND],
    )
    def test_bricks_count_the_irreducible_torsion_classes(self, name, make, bound):
        # bricks <-> join-irreducible torsion classes, and dually the
        # meet-irreducibles (Demonet-Iyama-Jasso, arXiv:1503.00285)
        alg = make()
        bricks = [
            m for m in enumerate_indecomposables(alg, dim_bound=bound)
            if hom_rep_dim(alg, m, m) == 1
        ]
        lattice = tors_lattice(alg)
        lower_covers = Counter(a for a, _ in lattice.covers)
        upper_covers = Counter(b for _, b in lattice.covers)
        join_irreducible = [t for t in lattice.ids if lower_covers[t] == 1]
        meet_irreducible = [t for t in lattice.ids if upper_covers[t] == 1]
        assert len(bricks) == BRICK_COUNTS[name]
        assert len(join_irreducible) == len(meet_irreducible) == len(bricks)


def _cover_ext_dim(algebra, m, n):
    """Reference Ext^1(m, n) from a projective presentation: cover m by one
    projective per basis vector, take the kernel with its restricted arrow
    action, and count the maps kernel -> n that do not extend over the
    cover."""
    p = m.p
    nv = len(algebra.quiver.vertices)
    gens = [(v, i) for v in range(nv) for i in range(m.dims[v])]
    cover = direct_sum_rep(algebra, [projective_rep(algebra, v, p) for v, _ in gens])
    # the covering map, one vertex matrix at a time
    pi = [[[0] * cover.dims[w] for _ in range(m.dims[w])] for w in range(nv)]
    col = [0] * nv
    for v, i in gens:
        by_vertex, _ = oracle._projective_layout(algebra, v)
        target = [0] * m.dims[v]
        target[i] = 1
        for w in range(nv):
            for bidx in by_vertex[w]:
                arrows = algebra.basis_keys[bidx][1]
                vec = oracle._mat_vec(p, m.path_matrix(arrows), target) if arrows else target
                for row, e in enumerate(vec):
                    pi[w][row][col[w]] = e
                col[w] += 1
    bases = [oracle._kernel(p, pi[v], cover.dims[v]) for v in range(nv)]
    omega = oracle._subrep_on_rows(algebra, cover, bases)
    # restrict each cover -> n map to the kernel and measure the span
    restricted = [
        [
            sum(a * b for a, b in zip(row, u)) % p
            for v in range(nv)
            for row in phi[v]
            for u in bases[v][1]
        ]
        for phi in hom_rep_basis(algebra, cover, n)
    ]
    width = len(restricted[0]) if restricted else 0
    return len(hom_rep_basis(algebra, omega, n)) - modp_rank(restricted, width, p)


COVER_CASES = [(name, (lambda alg=alg: alg), None, None) for name, alg in corpus()] + [
    ("N3", _nakayama3, 2, 1),
    ("preprojective A3", _preprojective_a3, 2, (1, 2, 1)),
    ("beta-gamma over F_3", algebra_beta_gamma, 3, (2, 2)),
]


class TestExtDim:
    @_cases(COVER_CASES)
    def test_matches_the_projective_presentation(self, make, field, bound):
        alg = make()
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        for x in classes:
            for y in classes:
                assert ext_dim(alg, x, y) == _cover_ext_dim(alg, x, y)

    def test_a2_simples(self):
        s1, s2 = simple_rep(A2, "1"), simple_rep(A2, "2")
        assert ext_dim(A2, s1, s2) == 1
        assert ext_dim(A2, s2, s1) == 0

    def test_a3_simples_follow_arrows(self):
        s = {v: simple_rep(A3, v) for v in ("1", "2", "3")}
        table = {(a, b): ext_dim(A3, s[a], s[b]) for a in s for b in s}
        assert table[("1", "2")] == 1
        assert table[("2", "3")] == 1
        assert sum(table.values()) == 2

    def test_self_extension_of_dual_numbers_simple(self):
        s = simple_rep(DUAL, "1")
        assert ext_dim(DUAL, s, s) == 1

    def test_projectives_have_no_extensions(self):
        for _, alg in corpus():
            classes = enumerate_indecomposables(alg)
            for v in range(len(alg.quiver.vertices)):
                proj = projective_rep(alg, v)
                assert all(ext_dim(alg, proj, c) == 0 for c in classes)

    def test_zero_source(self):
        zero = Representation(A2, 2, (0, 0), (((),) * 0,))
        assert ext_dim(A2, zero, simple_rep(A2, "1")) == 0


@st.composite
def small_maps(draw):
    """(p, d, mat): a matrix over F_p with d <= 4 columns and at most 4 rows."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(min_value=0, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=d, max_size=d)
    return p, d, draw(st.lists(row, max_size=4))


def _combination(p, d, coords, rows):
    return tuple(sum(c * row[i] for c, row in zip(coords, rows)) % p for i in range(d))


def _span(p, d, rows):
    return {_combination(p, d, cs, rows) for cs in product(range(p), repeat=len(rows))}


def _in_subspace_form(sub):
    pivs, rows = sub
    return len(pivs) == len(rows) and all(
        row[pc] == (1 if i == k else 0) for i, row in enumerate(rows) for k, pc in enumerate(pivs)
    )


def _count_modp_calls(monkeypatch):
    """Calls of the modp_* front ends that oracle makes outside
    hom_rep_basis, counted by name."""
    calls = Counter()
    in_hom = []
    for name in [n for n in vars(oracle) if n.startswith("modp_")]:
        def counted(*args, _name=name, _real=getattr(oracle, name)):
            if not in_hom:
                calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    real_hom = oracle.hom_rep_basis

    def hom(*args):
        in_hom.append(1)
        try:
            return real_hom(*args)
        finally:
            in_hom.pop()

    monkeypatch.setattr(oracle, "hom_rep_basis", hom)
    return calls


class TestSubspaceForm:
    @given(small_maps())
    @settings(max_examples=150, deadline=None)
    def test_kernel_bases(self, case):
        p, d, mat = case
        sub = oracle._kernel(p, mat, d)
        pivs, rows = sub
        assert _in_subspace_form(sub)
        # the pivot is the last nonzero entry
        assert all(not any(row[pc + 1:]) for pc, row in zip(pivs, rows))
        killed = {u for u in product(range(p), repeat=d) if not any(oracle._mat_vec(p, mat, u))}
        # rows in the kernel, independent and spanning it
        assert _span(p, d, rows) == killed and len(killed) == p ** len(rows)

    @given(small_maps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_splits_off_the_span(self, case, data):
        p, d, mat = case
        subs = [oracle._kernel(p, mat, d), data.draw(st.sampled_from(oracle._subspaces(p, d)))]
        for sub in subs:
            assert _in_subspace_form(sub)
            span = _span(p, d, sub[1])
            for vec in product(range(p), repeat=d):
                coords, rest = oracle._reduce(p, sub, list(vec))
                assert (not any(rest)) == (vec in span)
                assert all(rest[pc] == 0 for pc in sub[0])
                rebuilt = _combination(p, d, coords, sub[1])
                assert rebuilt == tuple((v - r) % p for v, r in zip(vec, rest))

    @pytest.mark.parametrize("make, field, bound", [
        (algebra_beta_gamma, 2, None),
        (algebra_beta_gamma, 3, (2, 2)),
        (_nakayama3, 2, 1),
        (_preprojective_a3, 2, (1, 2, 1)),
    ])
    def test_each_kernel_eliminated_once(self, monkeypatch, make, field, bound):
        alg = make()
        nv = len(alg.quiver.vertices)
        classes = enumerate_indecomposables(alg, field=field, dim_bound=bound)
        calls = _count_modp_calls(monkeypatch)
        for x in classes:
            for y in classes:
                two = direct_sum_rep(alg, [x, y])
                g = oracle._splits_off(alg, x, two)
                calls.clear()
                rest = oracle._kernel_subrep(alg, two, g)
                assert rest.dims == y.dims
                assert sum(calls.values()) == nv
                calls.clear()
                ext_dim(alg, x, y)
                # the echelon form of the coboundaries, then the rank of the
                # relations on the blocks off its pivots
                assert calls == {"modp_echelon": 1, "modp_rank": 1}


class TestBruteTorsion:
    def test_counts(self, oracle_posets):
        for name, (tors, serre) in oracle_posets.items():
            assert len(tors) == TORS_COUNTS[name], name
            assert len(serre) == SERRE_COUNTS[name], name

    def test_matches_engine_lattice(self, oracle_posets):
        for name, alg in corpus():
            engine = tors_lattice(alg)
            assert poset_isomorphism(engine, oracle_posets[name][0]), name

    def test_a2_subsets(self, oracle_posets):
        tors, serre = oracle_posets["a2"]
        assert list(tors.ids) == ["{}", "{M0}", "{M1}", "{M1,M2}", "{M0,M1,M2}"]
        assert list(serre.ids) == ["{}", "{M0}", "{M1}", "{M0,M1,M2}"]
        assert tors.top() == "{M0,M1,M2}"
        assert tors.bottom() == "{}"

    def test_serre_inside_torsion(self, oracle_posets):
        for name, (tors, serre) in oracle_posets.items():
            assert set(serre.ids) <= set(tors.ids), name

    def test_serre_closed_under_lattice_ops(self, oracle_posets):
        for name, (tors, serre) in oracle_posets.items():
            ops = lattice_ops(tors)
            ids = list(serre.ids)
            for a in ids:
                for b in ids:
                    assert ops.join(a, b) in set(ids), name
                    assert ops.meet(a, b) in set(ids), name

    def test_semisimple_serre_counts(self, oracle_posets):
        # all subsets of the simples
        assert len(oracle_posets["kxk"][1]) == 4
        assert len(oracle_posets["a1"][1]) == 2

    def test_kronecker_truncation_detected(self):
        with pytest.raises(NotRepFiniteWithinBound):
            brute_torsion_classes(KRON, dim_bound=(1, 1))

    def test_subset_cap(self):
        with pytest.raises(SearchSpaceExceeded):
            brute_torsion_classes(BG, config=Config(subset_cap=4))


GOLDEN = Path(__file__).resolve().parent / "golden"


def _as_json(x):
    return json.loads(json.dumps(x))


class TestGoldenOracle:
    @pytest.mark.parametrize(
        "name, n_classes, n_tors", [("D4", 12, 50), ("N4", 8, 34)]
    )
    def test_brute_lattices_match_their_golden(self, name, n_classes, n_tors):
        want = json.loads((GOLDEN / "oracle_d4_n4.json").read_text())[name]
        alg = golden_algebras()[name]
        bound = want["bound"]
        classes = enumerate_indecomposables(alg, dim_bound=bound)
        assert len(classes) == n_classes
        assert [_as_json(c.key()) for c in classes] == want["classes"]
        tors = brute_torsion_classes(alg, dim_bound=bound)
        assert len(tors.ids) == n_tors
        for tag, poset in (("tors", tors), ("serre", brute_serre(alg, dim_bound=bound))):
            assert list(poset.ids) == want[tag]["ids"]
            assert sorted(list(c) for c in poset.covers) == want[tag]["covers"]
