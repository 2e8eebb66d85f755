"""Poset construction, subset lattices, hom posets, serialization."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from torslat.config import Config
from torslat.errors import (
    CertificationFailed,
    CycleDetected,
    DuplicateId,
    NotALattice,
    ParseError,
    SizeCapExceeded,
)
from torslat.posets import (
    FinitePoset,
    SubsetLattice,
    all_subsets,
    antichain,
    build_poset,
    chain,
    count_monotone,
    down_sets,
    hasse_quiver,
    hom_poset,
    lattice_ops,
    opposite,
    point,
    poset_isomorphism,
    product,
    specialization_closed,
)


def transitive_closure(ids, pairs):
    # independent reflexive-transitive closure, quadratic and obvious
    leq = {(a, a) for a in ids} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


def pentagon():
    return build_poset(
        ["o", "x", "y", "z", "t"],
        [("o", "x"), ("x", "y"), ("y", "t"), ("o", "z"), ("z", "t")],
    )


def one_element_step_order(lattice):
    """The inclusion order on a lattice's masks from its one-element steps,
    masks sorted by (popcount, value): between two nested down-sets
    (up-sets, subsets) lies a chain of members each one element bigger than
    the last, so the steps generate inclusion.  The reference for
    SubsetLattice.poset."""
    masks = sorted(lattice.masks, key=lambda m: (bin(m).count("1"), m))
    ids = {m: lattice.mask_id(m) for m in masks}
    steps = [
        (ids[m], ids[m & ~(1 << b)])
        for m in masks
        for b in range(len(lattice.base))
        if m >> b & 1 and m & ~(1 << b) in ids
    ]
    return FinitePoset([(ids[m], ids[m]) for m in masks], steps)


@st.composite
def small_posets(draw):
    n = draw(st.integers(1, 6))
    ids = [f"e{i}" for i in range(n)]
    pairs = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_poset(ids, pairs)


@st.composite
def poset_pairs(draw):
    """Two posets of one size: a random pair, or one relation listed twice
    in different element orders."""
    n = draw(st.integers(1, 6))

    def relation():
        return [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]

    rel = relation()
    p = build_poset([f"e{i}" for i in range(n)], [(f"e{i}", f"e{j}") for i, j in rel])
    if draw(st.booleans()):
        rel = relation()
    listing = draw(st.permutations(range(n)))
    q = build_poset([f"f{i}" for i in listing], [(f"f{i}", f"f{j}") for i, j in rel])
    return p, q


@st.composite
def listed_covers(draw):
    """Ids e0.. listed in index order and pairs (a, b), a above b, drawn
    over a shuffled ranking: index order is not the order.  The pairs may
    repeat, be redundant or pair an element with itself."""
    n = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(n)))
    ids = [f"e{i}" for i in range(n)]
    allowed = [(ids[a], ids[b]) for a in range(n) for b in range(n) if rank[a] >= rank[b]]
    return ids, draw(st.lists(st.sampled_from(allowed), max_size=3 * n))


class TestConstruction:
    @given(listed_covers())
    @settings(max_examples=100, deadline=None)
    def test_order_and_covers_from_any_generating_pairs(self, listing):
        ids, pairs = listing
        p = FinitePoset(ids, pairs)
        leq = transitive_closure(ids, [(b, a) for a, b in pairs])
        n = len(ids)
        assert list(p.up) == [
            sum(1 << j for j in range(n) if (ids[i], ids[j]) in leq) for i in range(n)
        ]
        assert list(p.down) == [
            sum(1 << j for j in range(n) if (ids[j], ids[i]) in leq) for i in range(n)
        ]
        strict = {(a, b) for a, b in leq if a != b}
        assert p.covers == tuple(
            (ids[a], ids[b])
            for a in range(n)
            for b in range(n)
            if (ids[b], ids[a]) in strict
            and not any((ids[b], c) in strict and (c, ids[a]) in strict for c in ids)
        )

    def test_constructor_errors(self):
        # z sits below the cycle a > b > a; the error names an element on it
        with pytest.raises(CycleDetected) as info:
            FinitePoset(["z", "a", "b"], [("a", "z"), ("a", "b"), ("b", "a")])
        assert "'z'" not in str(info.value)
        assert "'a'" in str(info.value) or "'b'" in str(info.value)
        with pytest.raises(ParseError):
            FinitePoset(["a"], [("q", "a")])
        with pytest.raises(DuplicateId):
            FinitePoset(["a", "b", "a"], [])

    def test_chain_basics(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.covers == (("b", "a"), ("c", "b"))
        assert p.top() == "c" and p.bottom() == "a"
        assert p.leq("a", "c") and not p.leq("c", "a")

    def test_generating_pairs_are_closed_transitively(self):
        pent = pentagon()
        expected = transitive_closure(
            pent.ids,
            [("o", "x"), ("x", "y"), ("y", "t"), ("o", "z"), ("z", "t")],
        )
        assert set(pent.relation_pairs()) == expected
        assert len(pent.relation_pairs()) == 13

    def test_cycle_is_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetected):
            build_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_id_is_rejected(self):
        with pytest.raises(DuplicateId):
            build_poset(["a", "a"], [])

    def test_undeclared_element_in_relation(self):
        with pytest.raises(ParseError):
            build_poset(["a"], [("a", "q")])

    def test_labels_default_to_ids(self):
        p = build_poset([("n1", "first"), "n2"], [("n1", "n2")])
        assert p.label_of("n1") == "first"
        assert p.label_of("n2") == "n2"

    def test_relabeled_shares_the_order(self):
        square = product([chain(2), chain(2)])
        p = square.relabeled(f"x{i}" for i in range(4))
        assert type(p) is FinitePoset
        assert p.labels == ("x0", "x1", "x2", "x3")
        assert (p.ids, p.index, p.up, p.down, p.covers) == (
            square.ids, square.index, square.up, square.down, square.covers
        )
        assert p.up is square.up and square.labels != p.labels
        with pytest.raises(ValueError):
            square.relabeled(["x0"])

    def test_covers_must_be_the_transitive_reduction(self):
        # a redundant pair is dropped: c > a follows from c > b > a
        p = FinitePoset(["a", "b", "c"], [("c", "a"), ("c", "b"), ("b", "a")])
        assert p.covers == (("b", "a"), ("c", "b"))
        assert p.up == (0b111, 0b110, 0b100)

    def test_antichain_has_no_top(self):
        a = antichain(2)
        assert a.top() is None and a.bottom() is None
        assert a.covers == ()

    def test_point(self):
        p = point()
        assert len(p) == 1 and p.top() == p.bottom() == "pt"

    @given(small_posets())
    @settings(max_examples=60, deadline=None)
    def test_covers_regenerate_the_order(self, p):
        regen = transitive_closure(p.ids, [(b, a) for a, b in p.covers])
        assert regen == set(p.relation_pairs())


class TestHomPoset:
    def test_maps_from_two_chain_count_comparable_pairs(self):
        h = hom_poset(chain(2), pentagon())
        assert len(h) == 13

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_two_chain_maps_match_relation_size(self, p):
        assert len(hom_poset(chain(2), p)) == len(p.relation_pairs())

    def test_maps_from_point_recover_target(self):
        p = pentagon()
        h = hom_poset(point(), p)
        assert poset_isomorphism(h, p) is not None

    def test_pointwise_order(self):
        h = hom_poset(chain(2), chain(2))
        # constant c0, the step map, constant c1
        assert h.top() == "(c1,c1)"
        assert h.bottom() == "(c0,c0)"
        assert h.leq("(c0,c1)", "(c1,c1)")
        assert len(h) == 3

    def test_map_cap(self):
        with pytest.raises(SizeCapExceeded):
            hom_poset(chain(2), chain(3), Config(map_cap=3))

    def test_empty_source_gives_single_map(self):
        assert len(hom_poset(build_poset([], []), chain(3))) == 1

    def test_enumeration_is_not_recursive(self):
        # one search level per element of the source, past the recursion limit
        assert len(hom_poset(chain(1200), chain(2))) == 1201

    def test_count_is_not_recursive(self):
        # one step per element of the source, past the recursion limit
        assert count_monotone(chain(1200), chain(2)) == 1201
        assert count_monotone(antichain(1200), chain(3)) == 3**1200


class TestSubsetLattices:
    def test_pentagon_down_sets(self):
        ds = down_sets(pentagon())
        assert len(ds) == 8
        lat = ds.poset()
        assert lat.bottom() == "{}"
        assert lat.top() == "{o,x,y,z,t}"
        ops = lattice_ops(lat)
        assert ops.is_lattice

    def test_down_set_membership_is_downward_closure(self):
        p = pentagon()
        ds = down_sets(p)
        for m in ds.masks:
            members = set(ds.members(m))
            for e in members:
                below = {p.ids[i] for i in range(len(p)) if p.leq(p.ids[i], e)}
                assert below <= members

    def test_up_closed_complement_duality(self):
        p = pentagon()
        full = (1 << len(p)) - 1
        ds = {full ^ m for m in down_sets(p).masks}
        us = set(specialization_closed(p).masks)
        assert ds == us

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_down_sets_closed_under_union_and_intersection(self, p):
        masks = set(down_sets(p).masks)
        for a in masks:
            for b in masks:
                assert a | b in masks and a & b in masks

    def test_chain_up_closed_sets_are_suffixes(self):
        sc = specialization_closed(chain(3))
        assert [sc.mask_id(m) for m in sc.masks] == [
            "{}",
            "{c2}",
            "{c1,c2}",
            "{c0,c1,c2}",
        ]

    def test_subset_cap(self):
        with pytest.raises(SizeCapExceeded):
            down_sets(antichain(4), Config(subset_cap=8))

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_same_masks_as_a_sweep(self, p):
        n = len(p)
        for lattice, cones in ((down_sets(p), p.down), (specialization_closed(p), p.up)):
            swept = [
                m for m in range(2 ** n)
                if all(not cones[i] & ~m for i in range(n) if m >> i & 1)
            ]
            assert lattice.masks == sorted(swept, key=lambda m: (bin(m).count("1"), m))
        for lattice in (down_sets(p), specialization_closed(p), all_subsets(p)):
            got, ref = lattice.poset(), one_element_step_order(lattice)
            assert (got.ids, got.labels, got.up, got.covers) == (
                ref.ids, ref.labels, ref.up, ref.covers
            )

    def test_long_chain_beyond_a_sweep(self):
        # 2^25 subsets exceed the cap; the 26 down-sets do not
        assert 2 ** 25 > Config().subset_cap
        ds = down_sets(chain(25))
        assert ds.masks == [(1 << k) - 1 for k in range(26)]

    def test_materialization_cap(self):
        big = all_subsets(antichain(13))
        assert len(big) == 8192
        with pytest.raises(SizeCapExceeded):
            big.poset()

    def test_inclusion_order_beyond_the_checked_size(self):
        # 512 down-sets, each compared with inclusion by SubsetLattice.poset too
        ds = down_sets(antichain(9))
        lat = ds.poset()
        assert len(lat) == 512
        at = [lat.index[ds.mask_id(m)] for m in ds.masks]
        for m, i in zip(ds.masks, at):
            assert lat.up[i] == sum(1 << j for n, j in zip(ds.masks, at) if not m & ~n)
        assert set(lat.covers) == {
            (ds.mask_id(m), ds.mask_id(n))
            for m in ds.masks
            for n in ds.masks
            if n & ~m == 0 and bin(m ^ n).count("1") == 1
        }

    @pytest.mark.parametrize("fault", ["drop", "add"])
    def test_faulty_family_is_refused_at_any_size(self, fault):
        if fault == "drop":  # 512 down-sets of an antichain, one left out
            ds = down_sets(antichain(9))
            masks = ds.masks[:200] + ds.masks[201:]
        else:  # 512 down-sets of antichain(7) + chain(3), and {c1}
            ids = [f"a{i}" for i in range(7)] + ["c0", "c1", "c2"]
            ds = down_sets(build_poset(ids, [("c0", "c1"), ("c1", "c2")]))
            masks = ds.masks + [1 << ids.index("c1")]
        assert len(ds) == 512
        with pytest.raises(CertificationFailed):
            SubsetLattice(ds.base, masks, ds.closure).poset()

    def test_boolean_lattice_covers(self):
        lat = all_subsets(antichain(2)).poset()
        assert lat.covers == (
            ("{a0}", "{}"),
            ("{a1}", "{}"),
            ("{a0,a1}", "{a0}"),
            ("{a0,a1}", "{a1}"),
        )


class TestConstructions:
    def test_opposite_swaps_top_and_bottom(self):
        p = chain(4)
        q = opposite(p)
        assert q.top() == "c0" and q.bottom() == "c3"
        assert set(q.covers) == {(b, a) for a, b in p.covers}

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_opposite_is_an_involution(self, p):
        q = opposite(opposite(p))
        assert q.ids == p.ids and q.up == p.up and q.covers == p.covers

    def test_square_product_is_diamond(self):
        sq = product([chain(2), chain(2)])
        diamond = build_poset(
            ["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]
        )
        assert poset_isomorphism(sq, diamond) is not None

    def test_product_with_nothing_is_a_point(self):
        assert len(product([])) == 1

    def test_product_cap(self):
        with pytest.raises(SizeCapExceeded):
            product([chain(10), chain(10)], Config(map_cap=50))

    def test_pentagon_is_self_dual(self):
        pent = pentagon()
        iso = poset_isomorphism(pent, opposite(pent))
        assert iso is not None
        assert iso["o"] == "t" and iso["t"] == "o" and iso["z"] == "z"

    def test_no_isomorphism_between_chain_and_antichain(self):
        assert poset_isomorphism(chain(3), antichain(3)) is None

    def test_isomorphism_respects_order_not_names(self):
        p = build_poset(["u", "v"], [("u", "v")])
        q = build_poset(["v", "u"], [("v", "u")])
        assert poset_isomorphism(p, q) == {"u": "v", "v": "u"}

    def test_isomorphism_search_is_not_recursive(self):
        # one search level per element: past the interpreter's recursion
        # limit
        n = 1001
        p_ids = [f"p{i}" for i in range(n)]
        q_ids = [f"q{i}" for i in range(n)]  # listed top first
        p = FinitePoset(p_ids, [(p_ids[i + 1], p_ids[i]) for i in range(n - 1)])
        q = FinitePoset(q_ids, [(q_ids[i], q_ids[i + 1]) for i in range(n - 1)])
        iso = poset_isomorphism(p, q)
        assert iso["p0"] == "q1000" and iso["p1000"] == "q0"

    @given(small_posets())
    @settings(max_examples=30, deadline=None)
    def test_isomorphism_to_self_after_relabeling(self, p):
        relabeled = build_poset(
            [f"r_{i}" for i in p.ids],
            [(f"r_{b}", f"r_{a}") for a, b in p.covers],
        )
        iso = poset_isomorphism(p, relabeled)
        assert iso is not None
        for a in p.ids:
            for b in p.ids:
                assert p.leq(a, b) == relabeled.leq(iso[a], iso[b])

    def test_search_separates_what_colours_cannot(self):
        # every element has two covers in both orders, so colour refinement
        # sees no difference; the 8-crown is connected, two squares are not
        ids = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
        crown = build_poset(
            ids, [(f"a{i}", f"b{j}") for i in range(4) for j in (i, (i + 1) % 4)]
        )
        squares = build_poset(
            ids,
            [(f"a{i}", f"b{j}") for i in range(4) for j in range(4) if i // 2 == j // 2],
        )
        for p, q in ((crown, squares), (squares, crown)):
            assert poset_isomorphism(p, q) is None
            assert poset_isomorphism(opposite(p), opposite(q)) is None
        assert poset_isomorphism(crown, crown) is not None

    @given(poset_pairs())
    @settings(max_examples=60, deadline=None)
    def test_isomorphism_agrees_with_brute_force(self, pair):
        p, q = pair

        def is_iso(perm):
            return all(
                p.leq_idx(a, b) == q.leq_idx(perm[a], perm[b])
                for a in range(len(p))
                for b in range(len(p))
            )

        exists = any(
            is_iso(perm) for perm in itertools.permutations(range(len(q)))
        )
        iso = poset_isomorphism(p, q)
        assert (iso is not None) == exists
        if iso is not None:
            assert is_iso([q.index[iso[a]] for a in p.ids])


class TestLatticeOps:
    def test_pentagon_meets_and_joins(self):
        ops = lattice_ops(pentagon())
        assert ops.is_lattice
        assert ops.meet("y", "z") == "o"
        assert ops.join("x", "z") == "t"
        assert ops.meet("x", "y") == "x"

    def test_antichain_is_not_a_lattice(self):
        ops = lattice_ops(antichain(2))
        assert not ops.is_lattice
        with pytest.raises(NotALattice):
            ops.join("a0", "a1")

    def test_down_set_ops_are_union_and_intersection(self):
        p = pentagon()
        ds = down_sets(p)
        ops = lattice_ops(ds.poset())
        assert ops.is_lattice
        a = ds.mask_id(0b01011)  # {o, x, z}
        b = ds.mask_id(0b00111)  # {o, x, y}
        assert ops.join(a, b) == ds.mask_id(0b01111)
        assert ops.meet(a, b) == ds.mask_id(0b00011)


class TestSerialization:
    def test_json_round_trip(self):
        pent = pentagon()
        back = FinitePoset.from_json(pent.to_json())
        assert back.ids == pent.ids
        assert back.covers == pent.covers
        assert back.up == pent.up

    def test_json_is_deterministic(self):
        assert pentagon().to_json() == pentagon().to_json()

    def test_bad_json_raises_parse_error(self):
        with pytest.raises(ParseError):
            FinitePoset.from_json("not json at all {")
        with pytest.raises(ParseError):
            FinitePoset.from_json('{"elements": "nope"}')
        with pytest.raises(ParseError):
            FinitePoset.from_json('{"covers": []}')

    @pytest.mark.parametrize(
        "covers",
        [[["a", "b", "c"]], ["ab"], [["a"]], [["a", 1]], [("a", "b")], "ab", {"a": "b"}],
        ids=["three-ids", "string", "one-id", "int-id", "tuple", "covers-string", "covers-dict"],
    )
    def test_cover_that_is_not_a_list_of_two_ids_raises_parse_error(self, covers):
        data = {"elements": [{"id": x} for x in "abc"], "covers": covers}
        with pytest.raises(ParseError):
            FinitePoset.from_json_dict(data)

    @pytest.mark.parametrize(
        "element", [{"id": 1}, {"id": None}, {"id": "a", "label": 2}], ids=["int", "null", "int-label"]
    )
    def test_id_or_label_that_is_not_a_string_raises_parse_error(self, element):
        with pytest.raises(ParseError):
            FinitePoset.from_json_dict({"elements": [element], "covers": []})

    def test_dot_output(self):
        dot = chain(2).to_dot()
        assert dot.startswith("digraph poset {")
        assert '"c1" -> "c0";' in dot
        assert dot.endswith("}\n")

    def test_dot_escapes_quotes(self):
        p = build_poset(['say "hi"'], [])
        assert '\\"hi\\"' in p.to_dot()

    def test_hasse_quiver_lists_cover_arrows(self):
        hq = hasse_quiver(chain(3))
        assert hq["nodes"] == ["c0", "c1", "c2"]
        assert hq["arrows"] == [["c1", "c0"], ["c2", "c1"]]
