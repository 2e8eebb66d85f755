"""Path algebra construction, multiplication, Hom spaces, text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torslat.algebras import (
    ASSOCIATIVITY_FULL_DIM,
    Quiver,
    build_algebra,
    cartan_matrix,
    hom_projectives,
    parse_algebra,
)
from torslat.config import Config
from torslat.errors import (
    CertificationFailed,
    DuplicateId,
    NotAdmissible,
    NotFiniteDimensional,
    ParseError,
)
from torslat.fixtures import corpus


def a2():
    return build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])


def beta_gamma():
    # 1 <-> 2 with the composite through vertex 2 killed
    return build_algebra(
        Quiver(["1", "2"], [("b", "1", "2"), ("g", "2", "1")]),
        [[(1, ["b", "g"])]],
    )


class TestQuiver:
    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateId):
            Quiver(["1", "1"], [])

    def test_duplicate_arrow(self):
        with pytest.raises(DuplicateId):
            Quiver(["1"], [("x", "1", "1"), ("x", "1", "1")])

    def test_undeclared_endpoint(self):
        with pytest.raises(ValueError):
            Quiver(["1"], [("x", "1", "2")])

    def test_no_vertices(self):
        with pytest.raises(ValueError):
            Quiver([], [])


class TestBasis:
    def test_two_vertex_one_arrow(self):
        A = a2()
        assert A.dim == 3
        assert A.basis_names == ("e1", "e2", "a")
        assert cartan_matrix(A) == [[1, 0], [1, 1]]

    def test_cyclic_two_vertex_with_one_composite_killed(self):
        A = beta_gamma()
        assert A.dim == 5
        assert A.basis_names == ("e1", "e2", "b", "g", "g*b")
        assert cartan_matrix(A) == [[2, 1], [1, 1]]
        assert A.projective_dim_vector(0) == (2, 1)
        assert A.projective_dim_vector(1) == (1, 1)

    def test_cartan_matrix_is_a_fresh_copy(self):
        A = beta_gamma()
        C = A.cartan_matrix()
        C[0][0] = 99
        C.append([7, 7])
        assert A.cartan_matrix() == [[2, 1], [1, 1]]
        assert A.cartan_matrix() is not A.cartan_matrix()

    def test_loop_without_relation_is_infinite_dimensional(self):
        with pytest.raises(NotFiniteDimensional):
            build_algebra(Quiver(["1"], [("x", "1", "1")]), [])

    def test_truncated_polynomial_ring(self):
        A = build_algebra(
            Quiver(["1"], [("x", "1", "1")]), [[(1, ["x", "x", "x"])]]
        )
        assert A.basis_names == ("e1", "x", "x*x")

    def test_low_length_cap_reports_growth(self):
        with pytest.raises(NotFiniteDimensional):
            build_algebra(
                Quiver(["1"], [("x", "1", "1")]),
                [[(1, ["x", "x", "x"])]],
                config=Config(length_cap=2),
            )

    def test_linear_three_vertex_path_count(self):
        A = build_algebra(
            Quiver("123", [("a", "1", "2"), ("b", "2", "3")]), []
        )
        assert A.dim == 6
        assert A.basis_names == ("e1", "e2", "e3", "a", "b", "b*a")

    def test_two_parallel_arrows(self):
        A = build_algebra(
            Quiver(["1", "2"], [("x", "1", "2"), ("y", "1", "2")]), []
        )
        assert A.dim == 4
        assert A.projective_dim_vector(0) == (1, 2)

    def test_commuting_square_identifies_diagonals(self):
        A = build_algebra(
            Quiver(
                "1234",
                [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
            ),
            [[(1, ["b", "a"]), (-1, ["d", "c"])]],
        )
        # the two length-2 paths fall into one residue class
        assert A.dim == 9
        ba = A.element([(1, ["b", "a"])])
        dc = A.element([(1, ["d", "c"])])
        assert ba == dc

    def test_dimension_is_sum_of_corner_dimensions(self):
        for A in (a2(), beta_gamma()):
            C = cartan_matrix(A)
            assert A.dim == sum(sum(row) for row in C)

    def test_build_is_deterministic(self):
        assert beta_gamma().basis_names == beta_gamma().basis_names


class TestAdmissibility:
    def test_short_relation_rejected(self):
        with pytest.raises(NotAdmissible):
            build_algebra(Quiver(["1"], [("x", "1", "1")]), [[(1, ["x"])]])

    def test_non_composable_relation_rejected(self):
        with pytest.raises(NotAdmissible):
            build_algebra(
                Quiver(["1", "2"], [("a", "1", "2")]), [[(1, ["a", "a"])]]
            )

    def test_mixed_length_relation_rejected(self):
        with pytest.raises(NotAdmissible):
            build_algebra(
                Quiver(["1"], [("x", "1", "1")]),
                [[(1, ["x", "x"]), (1, ["x", "x", "x"])]],
            )

    def test_non_parallel_relation_rejected(self):
        with pytest.raises(NotAdmissible):
            build_algebra(
                Quiver("123", [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]),
                [[(1, ["b", "a"]), (1, ["c", "c"])]],
            )


class TestMultiplication:
    def test_written_product_applies_rightmost_first(self):
        A = build_algebra(
            Quiver("123", [("a", "1", "2"), ("b", "2", "3")]), []
        )
        ab = A.arrow_element("b") * A.arrow_element("a")
        assert repr(ab) == "b*a"
        assert ab.source == 0 and ab.target == 2
        with pytest.raises(ValueError):
            A.arrow_element("a") * A.arrow_element("b")

    def test_relation_kills_products(self):
        A = beta_gamma()
        assert (A.arrow_element("b") * A.arrow_element("g")).is_zero()
        gb = A.arrow_element("g") * A.arrow_element("b")
        assert not gb.is_zero()
        assert (gb * gb).is_zero()

    def test_idempotents_are_orthogonal(self):
        A = beta_gamma()
        e1, e2 = A.idempotent(0), A.idempotent(1)
        assert e1 * e1 == e1 and e2 * e2 == e2
        assert (A.mul_dicts(e1.coeffs, e2.coeffs)) == {}

    def test_idempotents_act_as_units_on_paths(self):
        A = beta_gamma()
        b = A.arrow_element("b")  # source 1, target 2
        assert A.idempotent(1) * b == b
        assert b * A.idempotent(0) == b

    def test_corner_inverse(self):
        A = beta_gamma()
        u = A.idempotent(0) + A.element([(Fraction(3, 2), ["g", "b"])])
        inv = A.invert_corner(u.coeffs, 0)
        assert A.mul_dicts(u.coeffs, inv) == A.idempotent(0).coeffs
        assert A.mul_dicts(inv, u.coeffs) == A.idempotent(0).coeffs

    def test_corner_inverse_of_int_coefficients_is_exact(self):
        # 2 + e on the dual numbers: the inverse is 1/2 - e/4, and an int
        # divided by an int must come out a Fraction, never a float
        A = build_algebra(Quiver(["1"], [("e", "1", "1")]), [[(1, ["e", "e"])]])
        unit = A.idempotent_index(0)
        loop = A.arrow_element("e")
        (e,) = loop.coeffs
        inv = A.invert_corner({unit: 2, e: 1}, 0)
        assert inv == {unit: Fraction(1, 2), e: Fraction(-1, 4)}
        assert all(type(x) is Fraction for x in inv.values())
        assert A.mul_dicts({unit: 2, e: 1}, inv) == {unit: 1}
        # an integral inverse stays int
        inv = A.invert_corner({unit: -1, e: 3}, 0)
        assert inv == {unit: -1, e: -3}
        assert all(type(x) is int for x in inv.values())

    def test_nilpotent_corner_element_not_invertible(self):
        A = beta_gamma()
        gb = A.element([(1, ["g", "b"])])
        with pytest.raises(ValueError):
            A.invert_corner(gb.coeffs, 0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.fractions(max_denominator=6),
            ),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(0, 4), st.fractions(max_denominator=6)),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(0, 4), st.fractions(max_denominator=6)),
            max_size=4,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_multiplication_is_associative(self, xs, ys, zs):
        A = beta_gamma()

        def mk(pairs):
            d = {}
            for i, c in pairs:
                d[i] = d.get(i, Fraction(0)) + c
            return {i: c for i, c in d.items() if c}

        x, y, z = mk(xs), mk(ys), mk(zs)
        left = A.mul_dicts(A.mul_dicts(x, y), z)
        right = A.mul_dicts(x, A.mul_dicts(y, z))
        assert left == right


def path_algebra(n, edges, relations=()):
    """Vertices 1..n and one arrow x<k> per (source, target) edge."""
    arrows = [(f"x{k}", str(a), str(b)) for k, (a, b) in enumerate(edges)]
    return build_algebra(Quiver([str(v) for v in range(1, n + 1)], arrows), relations)


def linear(n):
    return path_algebra(n, [(v, v + 1) for v in range(1, n)])


def preprojective_a(n):
    # x<2i> : i -> i + 1 and x<2i+1> its reverse, named by path_algebra
    edges = [e for i in range(1, n) for e in ((i, i + 1), (i + 1, i))]
    relations = []
    for v in range(1, n + 1):
        terms = []
        if v < n:
            terms.append((1, [f"x{2 * v - 1}", f"x{2 * v - 2}"]))
        if v > 1:
            terms.append((-1, [f"x{2 * v - 4}", f"x{2 * v - 3}"]))
        relations.append(terms)
    return path_algebra(n, edges, relations)


def nakayama(n):
    # the cycle x<v-1> : v -> v + 1 with every path of length two killed
    relations = [[(1, [f"x{v % n}", f"x{v - 1}"])] for v in range(1, n + 1)]
    return path_algebra(n, [(v, v % n + 1) for v in range(1, n + 1)], relations)


ASSOCIATIVITY_CASES = {
    "A3": linear(3),
    "A4": path_algebra(4, [(1, 2), (3, 2), (3, 4)]),
    "D4": path_algebra(4, [(1, 3), (3, 2), (3, 4)]),
    "A5": linear(5),
    "D5": path_algebra(5, [(1, 3), (2, 3), (3, 4), (4, 5)]),
    "N3": nakayama(3),
    "N4": nakayama(4),
    "N5": nakayama(5),
    **dict(corpus()),
    "E6": path_algebra(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "Pi(A4)": preprojective_a(4),
    # above ASSOCIATIVITY_FULL_DIM: the sampled triples
    "A9": linear(9),
}


def associative_on_all_triples(A):
    """The reference check: every triple of the basis, or of the sample
    above ASSOCIATIVITY_FULL_DIM, composable or not."""
    if A.dim <= ASSOCIATIVITY_FULL_DIM:
        idxs = range(A.dim)
    else:
        idxs = range(0, A.dim, A.dim // 16 + 1)
    for i in idxs:
        for j in idxs:
            ij = A.mul_basis(i, j)
            for k in idxs:
                if A.mul_dicts(ij, {k: 1}) != A.mul_dicts({i: 1}, A.mul_basis(j, k)):
                    raise CertificationFailed("associativity failure")


class TestAssociativityCheck:
    @pytest.mark.parametrize("name", list(ASSOCIATIVITY_CASES))
    def test_same_verdict_as_all_triples(self, name):
        A = ASSOCIATIVITY_CASES[name]
        A._check_associativity()
        associative_on_all_triples(A)

    def test_covers_both_rules(self):
        dims = [A.dim for A in ASSOCIATIVITY_CASES.values()]
        assert min(dims) <= ASSOCIATIVITY_FULL_DIM < max(dims)
        assert ASSOCIATIVITY_CASES["Pi(A4)"].dim == 20

    @staticmethod
    def corrupted(leak):
        """Linear A4 with the cached product x1 * x0 (1 -> 3) replaced: by
        the arrow x2, which starts at 3 and so leaves the corner, or by
        twice the path, which breaks x2 (x1 x0) = (x2 x1) x0."""
        A = linear(4)
        (a,), (b,), (c,) = (A.arrow_element(f"x{k}").coeffs for k in range(3))
        (ba,) = A.mul_basis(b, a)
        A._mul_cache[(b, a)] = {c: 1} if leak else {ba: 2}
        return A

    @pytest.mark.parametrize("leak", [True, False], ids=["leaves-corner", "not-associative"])
    def test_corrupted_constant_is_caught(self, leak):
        with pytest.raises(CertificationFailed):
            self.corrupted(leak)._check_associativity()
        with pytest.raises(CertificationFailed):
            associative_on_all_triples(self.corrupted(leak))


class TestHomProjectives:
    def test_one_arrow_gives_one_map(self):
        A = a2()
        maps = hom_projectives(A, "2", "1")
        assert len(maps) == 1 and repr(maps[0]) == "a"

    def test_absent_corner_gives_no_maps(self):
        assert hom_projectives(a2(), "1", "2") == []

    def test_identity_is_always_present(self):
        A = beta_gamma()
        for v in ("1", "2"):
            idx = A.quiver.vertex_index[v]
            assert A.idempotent(idx) in hom_projectives(A, v, v)

    def test_composition_of_homs_is_multiplication(self):
        A = build_algebra(
            Quiver("123", [("a", "1", "2"), ("b", "2", "3")]), []
        )
        (f,) = hom_projectives(A, "2", "1")  # P2 -> P1, right mult by a
        (g,) = hom_projectives(A, "3", "2")  # P3 -> P2, right mult by b
        # apply g then f: P3 -> P1 is right multiplication by g*f
        (h,) = hom_projectives(A, "3", "1")
        assert g * f == h


class TestElements:
    def test_corner_arithmetic(self):
        A = beta_gamma()
        e1 = A.idempotent(0)
        gb = A.element([(1, ["g", "b"])])
        s = e1 + gb
        assert s - gb == e1
        assert (-gb).scale(-1) == gb
        assert repr(s) == "e1 + g*b"
        assert repr(e1 - gb) == "e1 - g*b"

    def test_mismatched_corners_refuse_to_add(self):
        A = beta_gamma()
        with pytest.raises(ValueError):
            A.idempotent(0) + A.idempotent(1)

    def test_element_rejects_wrong_corner_coeffs(self):
        from torslat.algebras import AlgebraElement

        A = a2()
        arrow_idx = A.quiver.arrow_index["a"]
        basis_idx = A._basis_pos[(0, (arrow_idx,))]
        with pytest.raises(ValueError):
            AlgebraElement(A, 0, 0, {basis_idx: Fraction(1)})


class TestTextFormat:
    def test_basic_file(self):
        A = parse_algebra(
            """
            # comment line
            field = Q
            vertices = 1 2
            arrow a : 1 -> 2
            """
        )
        assert A.dim == 3
        assert A.oracle_field == "Q"

    def test_field_tag_is_recorded(self):
        A = parse_algebra("field = F3\nvertices = 1\narrow x : 1 -> 1\nrelation x*x\n")
        assert A.oracle_field == "F3"
        assert A.dim == 2

    def test_relation_with_coefficients(self):
        A = parse_algebra(
            """
            vertices = 1 2 3 4
            arrow a : 1 -> 2
            arrow b : 2 -> 4
            arrow c : 1 -> 3
            arrow d : 3 -> 4
            relation b*a - 1/2*d*c
            """
        )
        ba = A.element([(1, ["b", "a"])])
        dc = A.element([(Fraction(1, 2), ["d", "c"])])
        assert ba == dc

    def test_relation_signs(self):
        # exterior algebra on two loops: xy = -yx, squares vanish
        A = parse_algebra(
            """
            vertices = 1
            arrow x : 1 -> 1
            arrow y : 1 -> 1
            relation x*x
            relation y*y
            relation x*y + y*x
            """
        )
        assert A.dim == 4
        xy = A.element([(1, ["x", "y"])])
        yx = A.element([(1, ["y", "x"])])
        assert xy == -yx and not xy.is_zero()

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("vertices = 1\narrow a : 1 -> 3\n", "line 2"),
            ("vertices = 1\nrubbish\n", "line 2"),
            ("vertices = 1\nvertices = 1\n", "line 2"),
            ("field = F5\nvertices = 1\n", "line 1"),
            ("arrow a : 1 -> 2\n", "line 1"),
        ]
        for text, frag in cases:
            with pytest.raises(ParseError) as exc:
                parse_algebra(text)
            assert frag in str(exc.value)

    @pytest.mark.parametrize(
        "text, line, directive",
        [
            ("vertices = 1 2 1\n", 1, "vertices"),
            ("vertices = 1 2\narrow a : 1 -> 2\n\narrow a : 2 -> 1\n", 4, "arrow 'a'"),
            ("vertices = 1 2\narrow a : 1 -> 2\nrelation a\n", 3, "relation 'a'"),
        ],
        ids=["duplicate-vertex", "duplicate-arrow", "inadmissible-relation"],
    )
    def test_structural_errors_carry_their_directive_line(self, text, line, directive):
        with pytest.raises(ParseError) as exc:
            parse_algebra(text)
        assert exc.value.line == line
        assert directive in str(exc.value)

    def test_missing_vertices(self):
        with pytest.raises(ParseError):
            parse_algebra("field = Q\n")

    def test_bad_relation_terms(self):
        base = "vertices = 1\narrow x : 1 -> 1\n"
        for rel in ("relation x*x + + x*x", "relation 2", "relation x**x"):
            with pytest.raises(ParseError):
                parse_algebra(base + rel + "\n")

    def test_zero_denominator_in_relation(self):
        text = "vertices = 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nrelation 1/0*b*a\n"
        with pytest.raises(ParseError) as exc:
            parse_algebra(text)
        assert exc.value.line == 4

    def test_unknown_arrow_in_relation(self):
        with pytest.raises(ParseError):
            parse_algebra("vertices = 1\narrow x : 1 -> 1\nrelation y*y\n")

    def test_parse_is_deterministic(self):
        text = "vertices = 1 2\narrow b : 1 -> 2\narrow g : 2 -> 1\nrelation b*g\n"
        assert parse_algebra(text).basis_names == parse_algebra(text).basis_names
