"""Builtin algebras for the cross-checks.

The builders hand back cached singletons, so per-object caches
(multiplication tables, oracle sweeps) are shared by every caller in a
process.
"""

from functools import lru_cache

from .algebras import Quiver, build_algebra


@lru_cache(maxsize=None)
def algebra_a1():
    """One vertex, no arrows."""
    return build_algebra(Quiver(["1"], []), [])


@lru_cache(maxsize=None)
def algebra_a2():
    """Two vertices joined by one arrow."""
    return build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])


@lru_cache(maxsize=None)
def algebra_a3():
    """Three vertices in a directed chain."""
    return build_algebra(
        Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), []
    )


@lru_cache(maxsize=None)
def algebra_kxk():
    """Product of two copies of the base field."""
    return build_algebra(Quiver(["1", "2"], []), [])


@lru_cache(maxsize=None)
def algebra_dual_numbers():
    """One loop squaring to zero."""
    return build_algebra(Quiver(["1"], [("e", "1", "1")]), [[(1, ["e", "e"])]])


@lru_cache(maxsize=None)
def algebra_beta_gamma():
    """Arrows both ways between two vertices with one composite killed.

    Five-dimensional: e1, e2, b, g and the surviving composite g*b.
    """
    return build_algebra(
        Quiver(["1", "2"], [("b", "1", "2"), ("g", "2", "1")]),
        [[(1, ["b", "g"])]],
    )


@lru_cache(maxsize=None)
def algebra_kronecker():
    """Two parallel arrows; not representation finite."""
    return build_algebra(
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), []
    )


def corpus():
    """The frozen cross-check corpus, in reporting order."""
    return (
        ("a1", algebra_a1()),
        ("a2", algebra_a2()),
        ("a3", algebra_a3()),
        ("kxk", algebra_kxk()),
        ("dual-numbers", algebra_dual_numbers()),
        ("beta-gamma", algebra_beta_gamma()),
    )

