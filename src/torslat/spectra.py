"""Finite spectrum models and their classification lattices.

A model couples a finite poset of primes, ordered by containment (the
generic prime at the bottom, closed points on top), with one labeled
lattice per prime and order-preserving restriction maps between the
lattices of comparable primes.  The classification routines enumerate the
tuples that respect those maps and package the torsion, torsion-free and
Serre sides of the picture as FinitePosets.

Two restriction modes exist.  Identity mode: every prime carries the same
lattice and each map is the identity, so compatible tuples are exactly the
monotone maps out of the prime poset.  Every identity-mode result is
listed once and certified by a count of the monotone maps, which lists
nothing (see _certify_monotone_maps).  Explicit mode: a
table per comparable pair; composing tables along a chain is only required
to bound the direct table from above, which is why compatibility is checked
on all comparable pairs rather than on covers alone.
"""

import os
import re
from collections import namedtuple

from .algebras import tits_form_positive_definite
from .config import DEFAULTS
from .errors import CertificationFailed, CycleDetected, DuplicateId, ModelInvalid, ParseError
from .posets import (
    FinitePoset,
    _backtrack,
    _componentwise,
    all_subsets,
    build_poset,
    chain,
    count_monotone,
    down_sets,
    hom_poset,
    opposite,
    poset_isomorphism,
    product,
    specialization_closed,
)
from .silting import tors_lattice


class SpecModel:
    """A spectrum poset with one labeled fiber lattice per prime.

    spec: FinitePoset of primes where q <= p means q is contained in p.
    fibers: mapping prime id -> FinitePoset; every fiber needs a unique
    top and bottom.  mode: "identity" or "explicit".  restrictions: in
    explicit mode a mapping (p, q) -> {fiber(p) id: fiber(q) id} for each
    strictly comparable pair p > q; in identity mode the maps are implied
    by matching labels and no tables are accepted.
    """

    def __init__(self, spec, fibers, mode="identity", restrictions=None):
        self.spec = spec
        self.fibers = {str(p): f for p, f in fibers.items()}
        self.mode = mode
        self.restrictions = {
            (str(p), str(q)): dict(table)
            for (p, q), table in (restrictions or {}).items()
        }

    def comparable_pairs(self):
        """All strictly comparable (bigger, smaller) prime pairs."""
        spec = self.spec
        out = []
        for qi in range(len(spec)):
            for pi in range(len(spec)):
                if pi != qi and spec.leq_idx(qi, pi):
                    out.append((spec.ids[pi], spec.ids[qi]))
        return out


SpectrumData = namedtuple("SpectrumData", ["model", "sim"])


class SimPoset:
    """Simple objects ordered by subfactor reachability, tagged by prime.

    The tag records which fiber a simple lives in; s <= t is only allowed
    when prime(s) contains prime(t), because passing to a smaller prime can
    only ever produce subfactors over that smaller prime's fiber.
    """

    def __init__(self, spec, poset, prime_of):
        self.spec = spec
        self.poset = poset
        self.prime_of = {str(k): str(v) for k, v in prime_of.items()}


# ---------------------------------------------------------------------------
# validation


def _label_map(poset):
    out = {}
    for ident, label in zip(poset.ids, poset.labels):
        out.setdefault(label, []).append(ident)
    return out


def validate(model):
    """Every model invariant, reported as a tuple of violation strings.

    An empty tuple means the model is valid.  Nothing raises here; the
    diagnostics are the result.
    """
    out = []
    spec = model.spec
    if model.mode not in ("identity", "explicit"):
        return (f"unknown mode {model.mode!r}",)

    known = []
    for p in spec.ids:
        if p not in model.fibers:
            out.append(f"prime {p!r} has no fiber")
        else:
            known.append(p)
    for p in model.fibers:
        if p not in spec.index:
            out.append(f"fiber given for unknown prime {p!r}")
    for p in known:
        fiber = model.fibers[p]
        if fiber.top() is None:
            out.append(f"fiber at {p!r} has no unique top element")
        if fiber.bottom() is None:
            out.append(f"fiber at {p!r} has no unique bottom element")

    if model.mode == "identity":
        if model.restrictions:
            out.append("identity mode takes no restriction tables")
        out.extend(_validate_identity(model, known))
    else:
        out.extend(_validate_explicit(model, known))
    return tuple(out)


def _validate_identity(model, known):
    out = []
    by_label = {}
    for p in known:
        fiber = model.fibers[p]
        lm = _label_map(fiber)
        dup = sorted(l for l, ids in lm.items() if len(ids) > 1)
        if dup:
            out.append(f"fiber at {p!r} repeats labels {dup}")
            continue
        by_label[p] = {l: ids[0] for l, ids in lm.items()}
    if len(by_label) < 2:
        return out
    first = known[0]
    base = model.fibers[first]
    for p in known[1:]:
        if p not in by_label or first not in by_label:
            continue
        fiber = model.fibers[p]
        if len(fiber) != len(base):
            out.append(
                f"identity mode needs fibers of one size; {p!r} has "
                f"{len(fiber)} elements, {first!r} has {len(base)}"
            )
            continue
        if sorted(by_label[p]) != sorted(by_label[first]):
            out.append(f"fiber at {p!r} labels differ from fiber at {first!r}")
            continue
        at_p, at_first = by_label[p], by_label[first]
        wrong = [
            (la, lb) for la in base.labels for lb in base.labels
            if fiber.leq(at_p[la], at_p[lb]) != base.leq(at_first[la], at_first[lb])
        ]
        if wrong:
            la, lb = wrong[0]
            out.append(f"fiber at {p!r} orders {la!r}, {lb!r} differently from fiber at {first!r}")
    return out


def _validate_explicit(model, known):
    out = []
    spec = model.spec
    pairs = {
        (p, q)
        for p, q in model.comparable_pairs()
        if p in known and q in known
    }
    for (p, q), table in sorted(model.restrictions.items()):
        if p not in spec.index or q not in spec.index:
            out.append(f"restriction {p!r}->{q!r} references unknown primes")
        elif p == q:
            ident = {x: x for x in model.fibers[p].ids} if p in known else {}
            if p in known and dict(table) != ident:
                out.append(f"restriction {p!r}->{p!r} is not the identity")
        elif not spec.leq(q, p):
            out.append(
                f"restriction {p!r}->{q!r} given although {p!r} does not "
                f"contain {q!r}"
            )

    # the tables that cover their fiber and map inside the target fiber
    ok_pairs = set()
    for p, q in sorted(pairs):
        table = model.restrictions.get((p, q))
        if table is None:
            out.append(f"no restriction table for {p!r} over {q!r}")
            continue
        fp, fq = model.fibers[p], model.fibers[q]
        bad = False
        if sorted(table) != sorted(fp.ids):
            out.append(f"restriction {p!r}->{q!r} does not cover the fiber")
            bad = True
        if not all(v in fq.index for v in table.values()):
            out.append(f"restriction {p!r}->{q!r} maps outside the fiber")
            bad = True
        if bad:
            continue
        ok_pairs.add((p, q))
        for a in fp.ids:
            for b in fp.ids:
                if fp.leq(a, b) and not fq.leq(table[a], table[b]):
                    out.append(
                        f"restriction {p!r}->{q!r} is not order-preserving "
                        f"at {a!r} <= {b!r}"
                    )
                    bad = True
                    break
            if bad:
                break
        if table[fp.top()] != fq.top():
            out.append(f"restriction {p!r}->{q!r} does not send top to top")
        if table[fp.bottom()] != fq.bottom():
            out.append(
                f"restriction {p!r}->{q!r} does not send bottom to bottom"
            )

    # composing two steps of a chain may only enlarge the direct image
    for p, q in sorted(ok_pairs):
        for q2, r in sorted(ok_pairs):
            if q2 != q or (p, r) not in ok_pairs:
                continue
            t_pq = model.restrictions[p, q]
            t_qr = model.restrictions[q, r]
            t_pr = model.restrictions[p, r]
            fr = model.fibers[r]
            for x in model.fibers[p].ids:
                if not fr.leq(t_pr[x], t_qr[t_pq[x]]):
                    out.append(
                        f"restrictions along {p!r} > {q!r} > {r!r} compose "
                        f"below the direct map at {x!r}"
                    )
                    break
    return out


def validate_sim(sim):
    """Diagnostics for a simple poset's prime tagging; empty means valid."""
    out = []
    spec = sim.spec
    for ident in sim.poset.ids:
        p = sim.prime_of.get(ident)
        if p is None:
            out.append(f"simple {ident!r} has no prime tag")
        elif p not in spec.index:
            out.append(f"simple {ident!r} is tagged with unknown prime {p!r}")
    for ident in sim.prime_of:
        if ident not in sim.poset.index:
            out.append(f"prime tag for unknown simple {ident!r}")
    for a in sim.poset.ids:
        for b in sim.poset.ids:
            if a == b or not sim.poset.leq(a, b):
                continue
            pa, pb = sim.prime_of.get(a), sim.prime_of.get(b)
            if pa is None or pb is None:
                continue
            if pa not in spec.index or pb not in spec.index:
                continue
            if not spec.leq(pb, pa):
                out.append(
                    f"{a!r} <= {b!r} but the prime of {a!r} does not "
                    f"contain the prime of {b!r}"
                )
    return tuple(out)


def _require_valid(model):
    problems = validate(model)
    if problems:
        raise ModelInvalid(problems)


# ---------------------------------------------------------------------------
# restriction tables and compatible tuples


def _tables(model):
    """Restriction maps for every strictly comparable pair, as id dicts.

    Assumes the model validates; identity mode resolves the maps by label.
    """
    if model.mode == "explicit":
        return {pair: model.restrictions[pair] for pair in model.comparable_pairs()}
    out = {}
    for p, q in model.comparable_pairs():
        fp, fq = model.fibers[p], model.fibers[q]
        to_q = {l: i for i, l in zip(fq.ids, fq.labels)}
        out[p, q] = {i: to_q[l] for i, l in zip(fp.ids, fp.labels)}
    return out


def enumerate_compatible(model, config=DEFAULTS):
    """The poset of all compatible tuples, ordered componentwise.

    A tuple picks one fiber element per prime so that every restriction of
    a bigger prime's choice sits above the smaller prime's choice; the
    condition is enforced for every comparable pair, not just covers.
    Assignment walks the primes from the top of the spectrum down, so each
    prime's candidates are pruned by all of its already-assigned uppers.
    """
    _require_valid(model)
    spec = model.spec
    tables = _tables(model)
    fib = [model.fibers[p] for p in spec.ids]

    ext = sorted(range(len(spec)), key=lambda i: (bin(spec.up[i]).count("1"), i))
    constraints = []  # per position: (earlier position, down-mask per element there)
    for pos, i in enumerate(ext):
        f = fib[i]
        entry = []
        for qpos in range(pos):
            j = ext[qpos]
            if spec.leq_idx(i, j):
                table = tables[spec.ids[j], spec.ids[i]]
                entry.append((qpos, [f.down[f.index[table[x]]] for x in fib[j].ids]))
        constraints.append(entry)
    full = [(1 << len(f)) - 1 for f in fib]
    tuples = _backtrack(ext, full, constraints, config.map_cap, "compatible tuple")
    return _componentwise(fib, tuples)


def _certify_monotone_maps(spec, fibers, listed):
    """Certify listed, tuples over fibers labeled and ordered alike, as
    Hom_poset(spec, fiber): every tuple is monotone on the covers of spec,
    read by label; FinitePoset refuses repeats, so count_monotone of them
    are all the maps; and coordinates that are the fibers themselves make
    the order componentwise.  Raises CertificationFailed otherwise."""
    for a, b in spec.covers:
        ia, ib = spec.index[a], spec.index[b]
        to_b = {l: i for i, l in enumerate(fibers[ib].labels)}
        image = [to_b[l] for l in fibers[ia].labels]
        for t in listed.tuples:
            if not fibers[ib].leq_idx(t[ib], image[t[ia]]):
                raise CertificationFailed(f"tuple {t} is not monotone on {a!r} > {b!r}")
    # the empty spectrum has one map, into any poset
    expected = count_monotone(spec, fibers[0] if fibers else chain(1))
    if len(listed) != expected:
        raise CertificationFailed(f"{len(listed)} tuples listed for {expected} monotone maps")
    if list(map(id, listed.coords)) != list(map(id, fibers)):
        raise CertificationFailed("the listed tuples are not over the fibers")


# ---------------------------------------------------------------------------
# classification


def classify_tors(model, config=DEFAULTS):
    """The compatible-tuple poset read as the lattice of torsion classes;
    identity mode certifies it as Hom_poset(spec, fiber) by a count, see
    _certify_monotone_maps."""
    poset = enumerate_compatible(model, config)
    if model.mode == "identity":
        _certify_monotone_maps(model.spec, [model.fibers[p] for p in model.spec.ids], poset)
    return poset.relabeled("tors" + l for l in poset.labels)


def classify_tors_hom_form(spec, lattice, config=DEFAULTS):
    """Torsion classes in monotone-map form: Hom_poset(spec, lattice),
    listed once by hom_poset and certified as in classify_tors.  A lattice
    without a unique top or bottom element raises ModelInvalid, as validate
    reports a fiber without one."""
    problems = [
        f"lattice has no unique {end} element"
        for end, found in (("top", lattice.top()), ("bottom", lattice.bottom()))
        if found is None
    ]
    if problems:
        raise ModelInvalid(problems)
    hom = hom_poset(spec, lattice, config)
    _certify_monotone_maps(spec, [lattice] * len(spec), hom)
    return hom


def classify_torf(model, config=DEFAULTS):
    """The torsion-free lattice model: product of opposite fibers.

    Componentwise perpendicular turns each fiber upside down and forgets
    the restriction maps; no compatibility constraint survives, so the
    result is the full product.
    """
    _require_valid(model)
    return product([opposite(model.fibers[p]) for p in model.spec.ids], config)


def classify_serre(sim, config=DEFAULTS):
    """The Serre lattice: down-closed subsets of the simple poset."""
    problems = validate_sim(sim)
    if problems:
        raise ModelInvalid(problems)
    return down_sets(sim.poset, config)


def classify_local_fibers(spec, config=DEFAULTS):
    """Torsion and torsion-free lattices when every fiber has two elements.

    Returns (specialization-closed subsets, all subsets) of the prime
    poset.  The first is certified against the generic machinery: an
    identity-mode model with a two-element chain at every prime must
    enumerate an isomorphic compatible-tuple poset.  The benchmark counts
    these searches; a count of the maps into the 2-chain will replace them.
    """
    spcl = specialization_closed(spec, config)
    full = all_subsets(spec, config)
    two = chain(2, prefix="t")
    model = SpecModel(spec, {p: two for p in spec.ids}, mode="identity")
    compat = enumerate_compatible(model, config)
    if poset_isomorphism(spcl.poset(), compat) is None:
        raise CertificationFailed(
            "two-element fibers disagree with the specialization-closed lattice"
        )
    return spcl, full


def _is_dynkin(algebra):
    """Simply laced Dynkin check: no relations, n - 1 arrows and a positive
    definite Tits form.  A positive definite form leaves a forest of A, D
    and E trees, and a forest on n vertices with n - 1 edges is one tree."""
    q = algebra.quiver
    if algebra.relation_terms or len(q.arrows) != len(q.vertices) - 1:
        return False
    return tits_form_positive_definite(q)


def cambrian_classification(algebra, spec, config=DEFAULTS):
    """Torsion classes of a Dynkin path algebra with coefficients spread
    over a spectrum: monotone maps from the primes into the finite
    silting-order lattice of the algebra."""
    if not _is_dynkin(algebra):
        raise ValueError(
            "expected the path algebra of a simply laced Dynkin tree "
            "without relations"
        )
    lattice = tors_lattice(algebra, config=config)
    return classify_tors_hom_form(spec, lattice, config)


# ---------------------------------------------------------------------------
# spectrum file format


_PRIMES_RE = re.compile(r"primes\s*=\s*(.+)$")
_FIBER_RE = re.compile(r"fiber\s+(\S+)\s*=\s*(.+)$")
_MODE_RE = re.compile(r"mode\s*=\s*(\S+)$")
_RESTRICT_RE = re.compile(r"restrict\s+(\S+)\s+(\S+)\s*:\s*(.+)$")
_ENTRY_RE = re.compile(r"(.+?)\s*->\s*(.+)$")
_SIMPLE_RE = re.compile(r"simple\s+(\S+)\s*:\s*(.+)$")
_SIMREL_RE = re.compile(r"simrel\s+(\S+)\s*>\s*(\S+)$")


def _resolve(fiber, token, lineno):
    if token in fiber.index:
        return token
    hits = [i for i, l in zip(fiber.ids, fiber.labels) if l == token]
    if len(hits) == 1:
        return hits[0]
    kind = "ambiguous label" if hits else "unknown element"
    raise ParseError(f"{kind} {token!r}", line=lineno)


def _ordered(names, pairs, directive):
    """build_poset of names under (line, smaller, bigger) pairs; a cycle is
    a ParseError at the first line whose pair closes one."""
    try:
        return build_poset(names, [(a, b) for _, a, b in pairs])
    except CycleDetected as exc:
        for lineno, _, _ in pairs:
            try:
                build_poset(names, [(a, b) for k, a, b in pairs if k <= lineno])
            except CycleDetected:
                raise ParseError(f"{directive} closes a cycle", line=lineno) from exc


def parse_spectrum(text, base_dir="."):
    """Parse the spectrum model format.

    Directives: `primes = ...` (first), `contains big small` (big contains
    small), `fiber p = poset.json`, `mode = identity|explicit`,
    `restrict p q : elem->elem, ...` (repeatable per pair), and optional
    simple-poset lines `simple p : names...` / `simrel a > b`.
    Returns SpectrumData(model, sim); sim is None without simple lines.
    """
    primes = None
    contains = []
    fibers = {}
    mode = None
    restrict = {}
    simples = []
    prime_of = {}
    simrels = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "primes":
            m = _PRIMES_RE.match(line)
            if not m:
                raise ParseError("bad primes declaration", line=lineno)
            if primes is not None:
                raise ParseError("primes declared twice", line=lineno)
            primes = m.group(1).split()
            if len(set(primes)) != len(primes):
                raise ParseError("repeated prime name", line=lineno)
            continue
        if primes is None:
            raise ParseError(
                f"primes must be declared before {head!r}",
                line=lineno,
            )
        if head == "contains":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("contains takes two primes", line=lineno)
            big, small = parts[1], parts[2]
            for p in (big, small):
                if p not in primes:
                    raise ParseError(f"unknown prime {p!r}", line=lineno)
            contains.append((lineno, small, big))
        elif head == "fiber":
            m = _FIBER_RE.match(line)
            if not m:
                raise ParseError("bad fiber declaration", line=lineno)
            p, path = m.group(1), m.group(2).strip()
            if p not in primes:
                raise ParseError(f"unknown prime {p!r}", line=lineno)
            if p in fibers:
                raise ParseError(f"fiber for {p!r} given twice", line=lineno)
            full = os.path.join(base_dir, path)
            try:
                with open(full, encoding="utf-8") as fh:
                    fibers[p] = FinitePoset.from_json(fh.read())
            except OSError as exc:
                raise ParseError(f"cannot read {path!r}: {exc}", line=lineno)
            except (ParseError, DuplicateId, CycleDetected) as exc:
                raise ParseError(f"fiber file {path!r}: {exc}", line=lineno) from exc
        elif head == "mode":
            m = _MODE_RE.match(line)
            if not m or m.group(1) not in ("identity", "explicit"):
                raise ParseError("mode is identity or explicit", line=lineno)
            if mode is not None:
                raise ParseError("mode declared twice", line=lineno)
            mode = m.group(1)
        elif head == "restrict":
            m = _RESTRICT_RE.match(line)
            if not m:
                raise ParseError("bad restrict line", line=lineno)
            p, q = m.group(1), m.group(2)
            for name in (p, q):
                if name not in primes:
                    raise ParseError(f"unknown prime {name!r}", line=lineno)
                if name not in fibers:
                    raise ParseError(
                        f"fiber for {name!r} must come before "
                        "its restrict lines",
                        line=lineno,
                    )
            table = restrict.setdefault((p, q), {})
            for part in m.group(3).split(","):
                em = _ENTRY_RE.match(part.strip())
                if not em:
                    raise ParseError(
                        f"bad table entry {part.strip()!r}",
                        line=lineno,
                    )
                src = _resolve(fibers[p], em.group(1), lineno)
                dst = _resolve(fibers[q], em.group(2), lineno)
                if src in table:
                    raise ParseError(
                        f"{em.group(1)!r} mapped twice",
                        line=lineno,
                    )
                table[src] = dst
        elif head == "simple":
            m = _SIMPLE_RE.match(line)
            if not m:
                raise ParseError("bad simple declaration", line=lineno)
            p = m.group(1)
            if p not in primes:
                raise ParseError(f"unknown prime {p!r}", line=lineno)
            for name in m.group(2).split():
                if name in prime_of:
                    raise ParseError(
                        f"simple {name!r} declared twice",
                        line=lineno,
                    )
                simples.append(name)
                prime_of[name] = p
        elif head == "simrel":
            m = _SIMREL_RE.match(line)
            if not m:
                raise ParseError("bad simrel line", line=lineno)
            a, b = m.group(1), m.group(2)
            for name in (a, b):
                if name not in prime_of:
                    raise ParseError(f"unknown simple {name!r}", line=lineno)
            simrels.append((lineno, b, a))
        else:
            raise ParseError(f"unrecognized directive {head!r}", line=lineno)

    if primes is None:
        raise ParseError("missing primes declaration")
    spec = _ordered(primes, contains, "contains")
    model = SpecModel(spec, fibers, mode or "identity", restrict or None)
    sim = None
    if simples:
        poset = _ordered(simples, simrels, "simrel")
        sim = SimPoset(spec, poset, prime_of)
    return SpectrumData(model, sim)


def load_spectrum(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_spectrum(text, base_dir=os.path.dirname(path) or ".")
