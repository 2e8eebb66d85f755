"""Spectrum models: the paper36 goldens, identity-mode certification,
Cambrian lattices, the componentwise orders and the spectrum parser."""

import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torslat import spectra
from torslat.algebras import Quiver, build_algebra
from torslat.config import DEFAULTS
from torslat.errors import CertificationFailed, ModelInvalid, ParseError
from torslat.fixtures import algebra_a2, algebra_a3
from torslat.posets import (
    FinitePoset,
    antichain,
    build_poset,
    chain,
    count_monotone,
    hom_poset,
    lattice_ops,
    opposite,
    point,
    poset_isomorphism,
    product,
    specialization_closed,
)
from torslat.silting import tors_lattice
from torslat.spectra import (
    SimPoset,
    SpecModel,
    cambrian_classification,
    classify_local_fibers,
    classify_serre,
    classify_tors,
    classify_tors_hom_form,
    classify_torf,
    load_spectrum,
    parse_spectrum,
    validate,
    validate_sim,
)

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
GOLDEN = TESTS / "golden"

V = build_poset(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])
CROWN = build_poset(
    ["g1", "g2", "m1", "m2"],
    [("g1", "m1"), ("g1", "m2"), ("g2", "m1"), ("g2", "m2")],
)


def golden(name):
    return FinitePoset.from_json((GOLDEN / f"paper36_{name}.json").read_text())


def load(name):
    return load_spectrum(str(DATA / f"{name}.spec"))


def assert_matches_golden(poset, name):
    expected = golden(name)
    assert (len(poset), len(poset.covers)) == (len(expected), len(expected.covers))
    assert poset_isomorphism(poset, expected) is not None


class TestPaper36:
    def test_tors_is_the_compatible_golden(self):
        assert_matches_golden(classify_tors(load("paper36").model), "compatible")

    def test_torf_is_the_torf_golden(self):
        assert_matches_golden(classify_torf(load("paper36").model), "torf")

    def test_serre_is_the_serre_golden(self):
        assert_matches_golden(classify_serre(load("paper36").sim).poset(), "serre")


class TestIdentityMode:
    def test_ident_pair_counts(self):
        model = load("ident_pair").model
        assert len(classify_tors(model)) == 9
        assert len(classify_torf(model)) == 16

    def test_cambrian_a3_over_v(self):
        assert len(cambrian_classification(algebra_a3(), V)) == 488

    def test_cambrian_a3_over_the_crown(self):
        assert len(cambrian_classification(algebra_a3(), CROWN)) == 1916

    def test_certification_needs_no_isomorphism_search(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError("identity mode searched for an isomorphism")

        monkeypatch.setattr(spectra, "poset_isomorphism", refuse)
        assert len(classify_tors(load("ident_pair").model)) == 9
        # g goes anywhere in the pentagon, m1 and m2 anywhere above it
        assert len(cambrian_classification(algebra_a2(), V)) == 5**2 + 3**2 + 2**2 + 2**2 + 1

    def test_other_monotone_maps_are_refused(self, monkeypatch):
        monkeypatch.setattr(
            spectra, "hom_poset", lambda x, y, config: hom_poset(x, opposite(y), config)
        )
        # over a two-prime chain the maps into the opposite lattice are
        # antitone into the lattice
        with pytest.raises(CertificationFailed, match="not monotone"):
            classify_tors_hom_form(chain(2), chain(3))
        # over two unrelated primes they are the same maps, ordered the
        # other way round
        with pytest.raises(CertificationFailed, match="not over the fibers"):
            classify_tors_hom_form(build_poset(["a", "b"], []), chain(3))

    def test_a_wrong_count_is_refused(self, monkeypatch):
        monkeypatch.setattr(spectra, "count_monotone", lambda x, y: count_monotone(x, y) + 1)
        with pytest.raises(CertificationFailed, match="9 tuples listed for 10"):
            classify_tors(load("ident_pair").model)
        with pytest.raises(CertificationFailed, match="9 tuples listed for 10"):
            classify_tors_hom_form(build_poset(["a", "b"], []), chain(3))

    def test_each_classification_lists_once(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a second listing")

        with monkeypatch.context() as m:
            m.setattr(spectra, "hom_poset", refuse)
            assert len(classify_tors(load("ident_pair").model)) == 9
        monkeypatch.setattr(spectra, "enumerate_compatible", refuse)
        assert len(classify_tors_hom_form(V, chain(2))) == 5

    def test_a_lattice_without_both_ends_is_refused(self):
        # the antichain used to give 2 "torsion classes" here, while
        # classify_tors refuses the same fiber
        with pytest.raises(ModelInvalid, match="no unique top"):
            classify_tors(SpecModel(V, {p: antichain(2) for p in V.ids}, mode="identity"))
        for lattice, missing in (
            (antichain(2), ["top", "bottom"]),
            (V, ["top"]),
            (opposite(V), ["bottom"]),
        ):
            with pytest.raises(ModelInvalid) as refused:
                classify_tors_hom_form(V, lattice)
            assert refused.value.violations == [
                f"lattice has no unique {end} element" for end in missing
            ]

    def test_local_fiber_mismatch_is_refused(self, monkeypatch):
        monkeypatch.setattr(spectra, "poset_isomorphism", lambda p, q: None)
        with pytest.raises(CertificationFailed):
            classify_local_fibers(V)


def path_algebra(n, edges, relations=()):
    """Path algebra on vertices 1..n, one arrow s -> t per edge (s, t)."""
    arrows = [(f"x{k}", str(s), str(t)) for k, (s, t) in enumerate(edges)]
    return build_algebra(Quiver([str(v) for v in range(1, n + 1)], arrows), list(relations))


def star(*arms):
    """Tree with arms of the given numbers of edges at vertex 1; arrows
    alternate in direction along each arm."""
    edges, n = [], 1
    for length in arms:
        prev = 1
        for step in range(length):
            n += 1
            edges.append((prev, n) if step % 2 == 0 else (n, prev))
            prev = n
    return path_algebra(n, edges)


class TestDynkinCheck:
    @pytest.mark.parametrize(
        "arms", [(), (1, 1, 1), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 2, 4)],
        ids=["A1", "D4", "D6", "E6", "E7", "E8"],
    )
    def test_dynkin_trees_accepted(self, arms):
        assert spectra._is_dynkin(star(*arms))

    def test_zig_zag_a5_accepted(self):
        assert spectra._is_dynkin(path_algebra(5, [(1, 2), (3, 2), (3, 4), (5, 4)]))

    @pytest.mark.parametrize(
        "arms", [(1, 1, 1, 1), (2, 2, 2), (1, 3, 3), (1, 2, 5)],
        ids=["D4~", "E6~", "E7~", "E8~"],
    )
    def test_extended_dynkin_trees_refused(self, arms):
        assert not spectra._is_dynkin(star(*arms))

    def test_loop_refused(self):
        # n - 1 arrows, but the loop makes the form vanish on its vertex; a
        # loop without relations has no finite path algebra, so only the
        # quiver is given
        quiver = Quiver(["1", "2", "3"], [("l", "1", "1"), ("a", "1", "2")])
        assert not spectra._is_dynkin(SimpleNamespace(quiver=quiver, relation_terms=()))

    def test_double_arrow_refused(self):
        assert not spectra._is_dynkin(path_algebra(3, [(1, 2), (1, 2)]))

    def test_relation_refused(self):
        a3 = path_algebra(3, [(1, 2), (2, 3)], [[(1, ["x1", "x0"])]])
        assert not spectra._is_dynkin(a3)

    def test_cambrian_classification_refuses_extended_d4(self):
        with pytest.raises(ValueError, match="Dynkin"):
            cambrian_classification(star(1, 1, 1, 1), V)


def test_broken_top_reports_its_two_violations():
    model = load("broken_top").model
    with pytest.raises(ModelInvalid) as info:
        classify_tors(model)
    assert info.value.violations == list(validate(model))
    assert len(info.value.violations) == 2


def test_parse_error_carries_the_line():
    with pytest.raises(ParseError) as info:
        parse_spectrum("primes = p q\n\nfrobnicate p\n")
    assert info.value.line == 3
    assert str(info.value) == "line 3: unrecognized directive 'frobnicate'"


@pytest.mark.parametrize(
    "text, line, directive",
    [
        ("primes = p q\ncontains p q\ncontains q p\n", 3, "contains"),
        ("primes = p\nsimple p : a b c\nsimrel a > b\nsimrel b > c\n\nsimrel c > a\n", 6, "simrel"),
    ],
)
def test_cycles_carry_the_line_that_closes_them(text, line, directive):
    with pytest.raises(ParseError) as info:
        parse_spectrum(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {directive} closes a cycle"


@pytest.mark.parametrize(
    "body, message",
    [
        ("{not json", "bad JSON"),
        ('{"elements": [{"id": "x"}], "covers": [["x", "y"]]}', "'y'"),
        # a cover of three ids, and one written as a string
        ('{"elements": [{"id": "x"}, {"id": "y"}], "covers": [["x", "y", "x"]]}', "cover"),
        ('{"elements": [{"id": "x"}, {"id": "y"}], "covers": ["xy"]}', "cover"),
        ('{"elements": [{"id": "x"}, {"id": "x"}], "covers": []}', "duplicate element id 'x'"),
        ('{"elements": [{"id": "x"}, {"id": "y"}], "covers": [["x", "y"], ["y", "x"]]}', "cycle"),
    ],
)
def test_fiber_file_errors_carry_the_directive_line(tmp_path, body, message):
    (tmp_path / "bad.json").write_text(body)
    text = "primes = p\n# the fiber follows\nfiber p = bad.json\n"
    with pytest.raises(ParseError) as info:
        parse_spectrum(text, base_dir=str(tmp_path))
    assert info.value.line == 3
    assert "bad.json" in str(info.value) and message in str(info.value)


# ---------------------------------------------------------------------------
# componentwise orders against the all-pairs construction


def all_pairs_up(coords, tuples):
    """Up-masks by comparing every pair of tuples coordinate by coordinate."""
    up = []
    for ta in tuples:
        mask = 0
        for b, tb in enumerate(tuples):
            if all(c.leq_idx(i, j) for c, i, j in zip(coords, ta, tb)):
                mask |= 1 << b
        up.append(mask)
    return up


@st.composite
def posets(draw, max_size=4):
    n = draw(st.integers(0, max_size))
    ids = [f"e{i}" for i in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return build_poset(ids, pairs)


@given(st.lists(posets(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_product_matches_all_pairs(coords):
    tuples = list(itertools.product(*(range(len(c)) for c in coords)))
    p = product(coords)
    assert p.tuples == tuples
    assert list(p.up) == all_pairs_up(coords, tuples)


@given(posets(), posets())
@settings(max_examples=60, deadline=None)
def test_hom_poset_matches_all_pairs(x, y):
    maps = [
        f for f in itertools.product(range(len(y)), repeat=len(x))
        if all(y.leq_idx(f[a], f[b]) for a, b in itertools.product(range(len(x)), repeat=2)
               if x.leq_idx(a, b))
    ]
    h = hom_poset(x, y)
    assert h.tuples == maps
    assert list(h.up) == all_pairs_up([y] * len(x), maps)
    assert count_monotone(x, y) == len(maps)


def test_count_goes_past_the_map_cap():
    lattice = tors_lattice(algebra_a3())
    # a local domain with ten closed points: the generic point goes
    # anywhere, each closed point anywhere above it
    local = build_poset(["g", *(f"m{i}" for i in range(10))], [("g", f"m{i}") for i in range(10)])
    assert count_monotone(local, lattice) == sum(bin(u).count("1") ** 10 for u in lattice.up)
    assert count_monotone(antichain(8), lattice) == 14**8 > DEFAULTS.map_cap


@st.composite
def bounded_posets(draw):
    """A poset of up to three elements between a bottom 0 and a top 1."""
    inner = draw(posets(max_size=3))
    pairs = [("0", "1")] + [(b, a) for a, b in inner.covers]
    pairs += [("0", e) for e in inner.ids] + [(e, "1") for e in inner.ids]
    return build_poset(["0", *inner.ids, "1"], pairs)


@st.composite
def explicit_models(draw):
    """Valid explicit-mode models: each table is a drawn monotone map that
    keeps top and bottom; models whose tables compose wrongly are refused."""
    spec = draw(posets(max_size=3))
    fibers = {p: draw(bounded_posets()) for p in spec.ids}
    tables = {}
    for big, small in SpecModel(spec, fibers).comparable_pairs():
        fp, fq = fibers[big], fibers[small]
        maps = [
            f for f in hom_poset(fp, fq).tuples
            if fq.ids[f[0]] == "0" and fq.ids[f[-1]] == "1"
        ]
        f = draw(st.sampled_from(maps))
        tables[big, small] = {a: fq.ids[i] for a, i in zip(fp.ids, f)}
    model = SpecModel(spec, fibers, "explicit", tables)
    assume(validate(model) == ())
    return model


def chain_model_with_a_smaller_direct_table():
    """Primes c0 < c1 < c2 with fibers 0 < e0 < 1; e0 restricts to e0
    along each cover but to 0 from c2 to c0, so the pair c2 > c0 prunes
    tuples that the covers alone allow."""
    spec = chain(3)
    fiber = build_poset(["0", "e0", "1"], [("0", "e0"), ("e0", "1")])
    ident = {x: x for x in fiber.ids}
    tables = {("c2", "c1"): ident, ("c1", "c0"): ident, ("c2", "c0"): {**ident, "e0": "0"}}
    return SpecModel(spec, {p: fiber for p in spec.ids}, "explicit", tables)


@given(explicit_models())
@example(chain_model_with_a_smaller_direct_table())
@settings(max_examples=60, deadline=None)
def test_compatible_tuples_match_all_pairs(model):
    spec = model.spec
    fib = [model.fibers[p] for p in spec.ids]
    compat = spectra.enumerate_compatible(model)
    tables = spectra._tables(model)
    expected = [
        t for t in itertools.product(*(range(len(f)) for f in fib))
        if all(
            fib[q].leq_idx(t[q], fib[q].index[tables[spec.ids[p], spec.ids[q]][fib[p].ids[t[p]]]])
            for p in range(len(spec))
            for q in range(len(spec))
            if p != q and spec.leq_idx(q, p)
        )
    ]
    assert compat.tuples == expected
    assert list(compat.up) == all_pairs_up(fib, expected)


def test_explicit_validation_reports_every_broken_table():
    """Primes g < m < n and g < w, x, y, z; every fiber is 0 < a < b < 1.
    m > g and n > m are identities, n > g sends a to b (above the
    composite), w > g has no table, x > g misses a and b, y > g sends a
    outside the fiber and z > g swaps a and b.  Three more tables name an
    unknown prime, a non-identity self map and a pair in the wrong order."""
    spec = build_poset(
        ["g", "m", "n", "w", "x", "y", "z"],
        [("g", "m"), ("m", "n"), ("g", "w"), ("g", "x"), ("g", "y"), ("g", "z")],
    )
    fiber = build_poset(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    ident = {v: v for v in fiber.ids}
    tables = {
        ("m", "g"): ident,
        ("n", "m"): ident,
        ("n", "g"): {**ident, "a": "b"},
        ("x", "g"): {"0": "0", "1": "1"},
        ("y", "g"): {**ident, "a": "zz"},
        ("z", "g"): {**ident, "a": "b", "b": "a"},
        ("q", "g"): ident,
        ("m", "m"): {**ident, "a": "b"},
        ("g", "n"): ident,
    }
    model = SpecModel(spec, {p: fiber for p in spec.ids}, "explicit", tables)
    assert validate(model) == (
        "restriction 'g'->'n' given although 'g' does not contain 'n'",
        "restriction 'm'->'m' is not the identity",
        "restriction 'q'->'g' references unknown primes",
        "no restriction table for 'w' over 'g'",
        "restriction 'x'->'g' does not cover the fiber",
        "restriction 'y'->'g' maps outside the fiber",
        "restriction 'z'->'g' is not order-preserving at 'a' <= 'b'",
        "restrictions along 'n' > 'm' > 'g' compose below the direct map at 'a'",
    )


def test_identity_enumeration_is_not_recursive():
    # one search level per prime, past the recursion limit
    spec = antichain(1200)
    model = SpecModel(spec, {p: point() for p in spec.ids})
    assert len(classify_tors(model)) == 1


# ---------------------------------------------------------------------------
# the paper's statements on random finite models


@st.composite
def lattices(draw):
    fiber = draw(bounded_posets())
    assume(lattice_ops(fiber).is_lattice)
    return fiber


def tuple_of(ident):
    """The fiber ids of a tuple id "(a,b,...)"."""
    return tuple(ident[1:-1].split(",")) if ident != "()" else ()


@given(posets(max_size=3), lattices())
@settings(max_examples=40, deadline=None)
def test_identity_mode_is_a_sublattice_of_the_product(spec, fiber):
    # tors R Lambda = Hom_poset(Spec R, L): pointwise meets and joins of
    # compatible tuples are compatible, and they are the meets and joins
    tors = classify_tors(SpecModel(spec, {p: fiber for p in spec.ids}))
    ops, fops = lattice_ops(tors), lattice_ops(fiber)
    assert ops.is_lattice
    for f in tors.ids:
        for g in tors.ids:
            pairs = list(zip(tuple_of(f), tuple_of(g)))
            meet = "(" + ",".join(fops.meet(a, b) for a, b in pairs) + ")"
            join = "(" + ",".join(fops.join(a, b) for a, b in pairs) + ")"
            assert (ops.meet(f, g), ops.join(f, g)) == (meet, join)


@given(posets())
@settings(max_examples=40, deadline=None)
def test_two_element_fibers_give_the_specialization_closed_subsets(spec):
    # a compatible tuple is read as the set of primes at the top element
    two = chain(2, prefix="t")
    compat = spectra.enumerate_compatible(
        SpecModel(spec, {p: two for p in spec.ids})
    )
    masks = [sum(1 << p for p, x in enumerate(t) if x == 1) for t in compat.tuples]
    spcl = specialization_closed(spec)
    assert sorted(masks) == sorted(spcl.masks)
    for a, m in enumerate(masks):
        assert compat.up[a] == sum(1 << b for b, n in enumerate(masks) if not m & ~n)


@given(explicit_models())
@settings(max_examples=40, deadline=None)
def test_torf_is_the_product_of_the_opposite_fibers(model):
    # torf: every tuple, with a <= b iff b_p <= a_p in the fiber at every p
    fib = [model.fibers[p] for p in model.spec.ids]
    torf = classify_torf(model)
    assert sorted(torf.tuples) == list(itertools.product(*(range(len(f)) for f in fib)))
    for a, ta in enumerate(torf.tuples):
        expected = 0
        for b, tb in enumerate(torf.tuples):
            if all(f.leq(f.ids[j], f.ids[i]) for f, i, j in zip(fib, ta, tb)):
                expected |= 1 << b
        assert torf.up[a] == expected


@st.composite
def sim_posets(draw):
    """Valid tagged simple posets: s_i <= s_j is drawn only where the prime
    of s_i contains the prime of s_j, which the order's closure keeps."""
    spec = draw(posets(max_size=3))
    assume(len(spec))
    n = draw(st.integers(0, 5))
    ids = [f"s{i}" for i in range(n)]
    tags = [draw(st.sampled_from(spec.ids)) for _ in ids]
    pairs = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if spec.leq(tags[j], tags[i]) and draw(st.booleans())
    ]
    return SimPoset(spec, build_poset(ids, pairs), dict(zip(ids, tags)))


@given(sim_posets())
@settings(max_examples=40, deadline=None)
def test_serre_subcategories_are_the_down_sets_of_the_simple_poset(sim):
    assert validate_sim(sim) == ()
    p = sim.poset
    n = len(p)
    down_closed = [
        m for m in range(1 << n)
        if all(m >> j & 1 for i in range(n) if m >> i & 1 for j in range(n) if p.leq_idx(j, i))
    ]
    assert sorted(classify_serre(sim).masks) == down_closed


def test_msilt_golden_is_the_closed_point_fiber():
    # paper36_msilt lists the silting objects of the closed-point fiber in
    # the order of tors_fl.json; the i-th element corresponds to the i-th
    msilt = golden("msilt")
    fiber = load("paper36").model.fibers["pm"]
    assert poset_isomorphism(msilt, fiber) is not None
    assert msilt.up == fiber.up and msilt.down == fiber.down
