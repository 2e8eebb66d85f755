"""Seeded inputs, references and passes for the torslat benchmark.

Each workload is a list of cases.  A case holds a plain description of
one input (quiver data, spectrum data) and a ``call`` that builds the
library objects from that description and calls the library, so every
pass pays for cold objects: no algebra, poset or model survives from one
pass to the next.  ``expected`` is the reference the result must match.

The seed picks quiver orientations and the order in which vertices,
arrows, primes and fiber elements are listed.  The largest input of each
workload, and A5 in ``silting-ladder``, keep one fixed presentation: their
time moves by 30-45% with orientation and listing order (see
``record.json``), which would swamp any regression bound.  D4 in
``oracle-crosscheck`` keeps a fixed orientation for the same reason.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from torslat.algebras import Quiver, build_algebra
from torslat.oracle import (
    brute_serre,
    brute_torsion_classes,
    enumerate_indecomposables,
    ext_dim,
    simple_rep,
)
from torslat.posets import build_poset
from torslat.silting import tors_lattice
from torslat.spectra import (
    SimPoset,
    SpecModel,
    cambrian_classification,
    classify_local_fibers,
    classify_serre,
    classify_tors,
    classify_torf,
    load_spectrum,
)

WORKLOADS = ("silting-ladder", "oracle-crosscheck", "spectra-lattices")


@dataclass(frozen=True)
class Case:
    name: str
    input: object  # plain data: lists, tuples, strings and numbers
    call: object  # builds the library objects from input and runs the library
    expected: object

    def run(self):
        return self.call(self.input)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    largest: str


# ---------------------------------------------------------------------------
# quiver descriptions: (vertices, arrows, relations) as plain data


def _orient(rng, edges):
    """Arrows along the given undirected edges, each flipped at random."""
    arrows = []
    for k, (a, b) in enumerate(edges):
        if rng.random() < 0.5:
            a, b = b, a
        arrows.append((f"x{k}", str(a), str(b)))
    return arrows


def _listed(rng, vertices, arrows):
    """The same quiver with vertices and arrows declared in a random order."""
    vertices = [str(v) for v in vertices]
    arrows = list(arrows)
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    return vertices, arrows


def _type_a_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def _type_d_edges(n):
    # vertex 3 is the branch vertex; 1 and 2 are the short arms
    return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]


def dynkin(rng, kind, n):
    """Seeded orientation and listing of A_n or D_n, no relations."""
    edges = _type_a_edges(n) if kind == "A" else _type_d_edges(n)
    vertices, arrows = _listed(rng, range(1, n + 1), _orient(rng, edges))
    return vertices, arrows, []


def dynkin_fixed(kind, n):
    """A_n linearly oriented, D_n with every arrow pointing away from the
    short arms; vertices and arrows in natural order."""
    edges = _type_a_edges(n) if kind == "A" else _type_d_edges(n)
    arrows = [(f"x{k}", str(a), str(b)) for k, (a, b) in enumerate(edges)]
    return [str(v) for v in range(1, n + 1)], arrows, []


def nakayama(rng, n):
    """Cyclic quiver 1 -> 2 -> ... -> n -> 1 with every length-two path
    killed (radical square zero), seeded listing."""
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [[(1, [f"a{i % n + 1}", f"a{i}"])] for i in range(1, n + 1)]
    vertices, arrows = _listed(rng, range(1, n + 1), arrows)
    return vertices, arrows, relations


def _algebra(desc):
    vertices, arrows, relations = desc
    return build_algebra(Quiver(vertices, arrows), relations)


# ---------------------------------------------------------------------------
# independent references


def tors_count_a(n):
    """Torsion classes of a Dynkin A_n path algebra: the Catalan number
    C(n+1)."""
    return math.comb(2 * n + 2, n + 1) // (n + 2)


def tors_count_d(n):
    """Torsion classes of a Dynkin D_n path algebra: (3n-2)/n C(2n-2, n-1)."""
    return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n


# rad^2 = 0 cyclic Nakayama N_n; confirmed by the oracle-crosscheck workload
NAKAYAMA_TORS = {3: 14, 4: 34, 5: 82}


def order_matrix(n, pairs):
    """Reflexive-transitive closure of pairs (a, b) meaning a <= b, as a
    boolean matrix over range(n)."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def tamari(m):
    """Tamari lattice on the 231-avoiding permutations of m letters,
    ordered by inclusion of inversion sets (Bjorner-Wachs).  It is the
    torsion-class lattice of a linearly oriented A_{m-1}."""
    perms = [
        w for w in itertools.permutations(range(m))
        if not any(
            w[k] < w[i] < w[j]
            for i, j, k in itertools.combinations(range(m), 3)
        )
    ]
    inv = [
        {(w[j], w[i]) for i, j in itertools.combinations(range(m), 2) if w[i] > w[j]}
        for w in perms
    ]
    return [[a <= b for b in inv] for a in inv]


def count_monotone(spec_leq, target_leq):
    """Order-preserving maps between two posets given as boolean matrices,
    counted by backtracking over the source in index order."""
    n, m = len(spec_leq), len(target_leq)
    image = []

    def rec(i):
        if i == n:
            return 1
        total = 0
        for y in range(m):
            if all(
                (not spec_leq[j][i] or target_leq[image[j]][y])
                and (not spec_leq[i][j] or target_leq[y][image[j]])
                for j in range(i)
            ):
                image.append(y)
                total += rec(i + 1)
                image.pop()
        return total

    return rec(0)


def count_up_sets(spec_leq):
    n = len(spec_leq)
    return sum(
        all(not (mask >> i & 1) or mask >> j & 1
            for i in range(n) for j in range(n) if spec_leq[i][j])
        for mask in range(1 << n)
    )


# ---------------------------------------------------------------------------
# silting-ladder


def _tors_count(desc):
    return len(tors_lattice(_algebra(desc)))


def _tors_case(name, desc, expected):
    return Case(name, desc, _tors_count, expected)


def silting_ladder(seed):
    rng = random.Random(f"silting-ladder/{seed}")
    cases = [
        _tors_case("A3", dynkin(rng, "A", 3), tors_count_a(3)),
        _tors_case("A4", dynkin(rng, "A", 4), tors_count_a(4)),
        _tors_case("D4", dynkin(rng, "D", 4), tors_count_d(4)),
        _tors_case("A5", dynkin_fixed("A", 5), tors_count_a(5)),
        _tors_case("D5", dynkin_fixed("D", 5), tors_count_d(5)),
    ]
    for n in (3, 4, 5):
        cases.append(_tors_case(f"N{n}", nakayama(rng, n), NAKAYAMA_TORS[n]))
    return Workload("silting-ladder", tuple(cases), "D5")


# ---------------------------------------------------------------------------
# oracle-crosscheck


def _oracle_counts(inp):
    """Indecomposables, torsion classes and Serre subcategories by brute
    force, plus dim Ext^1 between simples, which is the arrow count."""
    desc, dim_bound = inp
    algebra = _algebra(desc)
    n = len(algebra.quiver.vertices)
    simples = [simple_rep(algebra, v) for v in range(n)]
    return (
        len(enumerate_indecomposables(algebra, dim_bound=dim_bound)),
        len(brute_torsion_classes(algebra, dim_bound=dim_bound)),
        len(brute_serre(algebra, dim_bound=dim_bound)),
        _vertex_matrix(algebra.quiver, lambda i, j: ext_dim(algebra, simples[i], simples[j])),
    )


def _oracle_case(name, desc, bound, expected):
    return Case(name, (desc, bound), _oracle_counts, expected)


def _vertex_matrix(quiver, entry):
    """Entries keyed by vertex names, so listing order does not matter."""
    n = len(quiver.vertices)
    return {
        (quiver.vertices[i], quiver.vertices[j]): entry(i, j)
        for i in range(n) for j in range(n)
    }


def _arrow_counts(desc):
    vertices, arrows, _ = desc
    counts = {(a, b): 0 for a in vertices for b in vertices}
    for _, s, t in arrows:
        counts[s, t] += 1
    return counts


def _d4_bound(vertices):
    """2 on the branch vertex, 1 elsewhere, in listing order."""
    return tuple(2 if v == "3" else 1 for v in vertices)


# the fixtures.corpus() algebras, rebuilt from their quivers each pass
CORPUS = (
    ("a1", (["1"], [], []), 1, 2),
    ("a2", (["1", "2"], [("a", "1", "2")], []), 3, 5),
    ("a3", (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []), 6, 14),
    ("kxk", (["1", "2"], [], []), 2, 4),
    ("dual-numbers", (["1"], [("e", "1", "1")], [[(1, ["e", "e"])]]), 2, 2),
    ("beta-gamma",
     (["1", "2"], [("b", "1", "2"), ("g", "2", "1")], [[(1, ["b", "g"])]]), 5, 6),
)


def oracle_crosscheck(seed):
    # the corpus keeps the fixtures' presentation: the oracle certifies its
    # dimension bounds for that vertex order only
    cases = [
        _oracle_case(name, desc, None, (n_classes, n_tors, 2 ** len(desc[0]), _arrow_counts(desc)))
        for name, desc, n_classes, n_tors in CORPUS
    ]
    rng = random.Random(f"oracle-crosscheck/{seed}")
    # D4 keeps the fixed orientation and only its listing is seeded: with a
    # seeded orientation its time moved by a fifth over five seeds, more
    # than every other seeded input of the workload together
    a4 = dynkin(rng, "A", 4)
    vertices, arrows, _ = dynkin_fixed("D", 4)
    d4 = (*_listed(rng, vertices, arrows), [])
    extra = [
        ("A4", a4, 1, 10, tors_count_a(4)),
        ("D4", d4, _d4_bound(d4[0]), 12, tors_count_d(4)),
    ]
    for n in (3, 4, 5):
        extra.append((f"N{n}", nakayama(rng, n), 1, 2 * n, NAKAYAMA_TORS[n]))
    for name, desc, bound, n_classes, n_tors in extra:
        expected = (n_classes, n_tors, 2 ** len(desc[0]), _arrow_counts(desc))
        cases.append(_oracle_case(name, desc, bound, expected))
    return Workload("oracle-crosscheck", tuple(cases), "beta-gamma")


# ---------------------------------------------------------------------------
# spectra-lattices


@dataclass(frozen=True)
class SpecDesc:
    """A spectrum model as plain data: every poset is (elements, pairs)
    with pairs (a, b) meaning a <= b."""
    primes: tuple
    fibers: tuple  # ((prime, elements, pairs), ...)
    mode: str
    restrict: tuple  # (((p, q), ((x, y), ...)), ...)
    sim: object  # (elements, pairs, prime_of) or None


def _poset_data(poset):
    elements = list(zip(poset.ids, poset.labels))
    pairs = [(b, a) for a, b in poset.covers]  # covers run larger -> smaller
    return elements, pairs


def spec_desc(data, rng):
    """Plain description of a loaded spectrum with primes and fiber
    elements listed in a seeded order."""
    model = data.model

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    primes, spec_pairs = _poset_data(model.spec)
    fibers = []
    for p in shuffled(model.spec.ids):
        elements, pairs = _poset_data(model.fibers[p])
        fibers.append((p, shuffled(elements), tuple(pairs)))
    restrict = tuple(
        (pair, tuple(sorted(table.items())))
        for pair, table in sorted(model.restrictions.items())
    )
    sim = None
    if data.sim is not None:
        elements, pairs = _poset_data(data.sim.poset)
        sim = (shuffled(elements), tuple(pairs), tuple(sorted(data.sim.prime_of.items())))
    return SpecDesc(
        (shuffled(primes), tuple(spec_pairs)), tuple(fibers), model.mode, restrict, sim
    )


def _build_model(desc):
    spec = build_poset(*desc.primes)
    fibers = {p: build_poset(elements, pairs) for p, elements, pairs in desc.fibers}
    restrict = {pair: dict(table) for pair, table in desc.restrict}
    model = SpecModel(spec, fibers, desc.mode, restrict or None)
    sim = None
    if desc.sim is not None:
        elements, pairs, prime_of = desc.sim
        sim = SimPoset(spec, build_poset(elements, pairs), dict(prime_of))
    return model, sim


def _shape(poset):
    return len(poset), len(poset.covers)


def _golden_shape(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    return len(data["elements"]), len(data["covers"])


# prime posets for the local-fiber and Cambrian inputs: (names, pairs a <= b)
SPECS = {
    "V": (["g", "m1", "m2"], [("g", "m1"), ("g", "m2")]),
    "Lambda": (["g1", "g2", "m"], [("g1", "m"), ("g2", "m")]),
    "chain4": (["c0", "c1", "c2", "c3"], [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]),
    "antichain4": (["a0", "a1", "a2", "a3"], []),
}


def _spec_leq(name):
    names, pairs = SPECS[name]
    index = {v: i for i, v in enumerate(names)}
    return order_matrix(len(names), [(index[a], index[b]) for a, b in pairs])


def _listed_spec(rng, name):
    names, pairs = SPECS[name]
    names = list(names)
    rng.shuffle(names)
    return names, pairs


def _tors_shape(desc):
    return _shape(classify_tors(_build_model(desc)[0]))


def _torf_shape(desc):
    return _shape(classify_torf(_build_model(desc)[0]))


def _serre_shape(desc):
    return _shape(classify_serre(_build_model(desc)[1]).poset())


def _tors_size(desc):
    return len(classify_tors(_build_model(desc)[0]))


def _torf_size(desc):
    return len(classify_torf(_build_model(desc)[0]))


def _local_counts(spec):
    spcl, full = classify_local_fibers(build_poset(*spec))
    return len(spcl), len(full)


def _cambrian_size(inp):
    algebra, spec = inp
    return len(cambrian_classification(_algebra(algebra), build_poset(*spec)))


def spectra_lattices(seed, root):
    rng = random.Random(f"spectra-lattices/{seed}")
    data_dir = root / "tests" / "data"
    golden = root / "tests" / "golden"
    paper36 = spec_desc(load_spectrum(str(data_dir / "paper36.spec")), rng)
    ident_pair = spec_desc(load_spectrum(str(data_dir / "ident_pair.spec")), rng)
    cases = [
        Case("paper36-tors", paper36, _tors_shape,
             _golden_shape(golden / "paper36_compatible.json")),
        Case("paper36-torf", paper36, _torf_shape, _golden_shape(golden / "paper36_torf.json")),
        Case("paper36-serre", paper36, _serre_shape, _golden_shape(golden / "paper36_serre.json")),
        Case("ident-pair-tors", ident_pair, _tors_size, 9),
        Case("ident-pair-torf", ident_pair, _torf_size, 16),
    ]
    for name in ("V", "chain4", "antichain4"):
        leq = _spec_leq(name)
        cases.append(Case(f"local-{name}", _listed_spec(rng, name), _local_counts,
                          (count_up_sets(leq), 2 ** len(leq))))

    tamari_a3, tamari_a2 = tamari(4), tamari(3)
    cambrian = [
        ("cambrian-a3-V", 3, "V", tamari_a3),
        ("cambrian-a3-Lambda", 3, "Lambda", tamari_a3),
        ("cambrian-a3-chain4", 3, "chain4", tamari_a3),
        ("cambrian-a2-antichain4", 2, "antichain4", tamari_a2),
    ]
    for name, n, spec_name, lattice in cambrian:
        if name == "cambrian-a3-chain4":
            algebra, spec = dynkin_fixed("A", n), SPECS[spec_name]
        else:
            # a linear orientation either way round: its lattice is Tamari
            vertices, arrows, _ = dynkin_fixed("A", n)
            if rng.random() < 0.5:
                arrows = [(a, t, s) for a, s, t in arrows]
            algebra = (*_listed(rng, vertices, arrows), [])
            spec = _listed_spec(rng, spec_name)
        cases.append(Case(name, (algebra, spec), _cambrian_size,
                          count_monotone(_spec_leq(spec_name), lattice)))

    return Workload("spectra-lattices", tuple(cases), "cambrian-a3-chain4")


def make_workload(name, seed, root):
    """The named workload's cases for this seed; root is the repository
    checkout holding tests/data and tests/golden."""
    if name == "silting-ladder":
        return silting_ladder(seed)
    if name == "oracle-crosscheck":
        return oracle_crosscheck(seed)
    if name == "spectra-lattices":
        return spectra_lattices(seed, Path(root))
    raise ValueError(f"unknown workload {name!r}")
