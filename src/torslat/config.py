"""Caps and defaults.

All enumerations take an optional Config; the module-level DEFAULTS instance
is used when none is given.  Caps are desk-scale guardrails, not precision
parameters: raising them never changes a result, only how large an input is
allowed to get before SizeCapExceeded / CapExceeded / SearchSpaceExceeded.
"""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Config:
    # posets / oracle: refuse a family of closed sets (down-sets,
    # up-sets, torsion classes, Serre subcategories) once more than this
    # many are listed; all_subsets counts every subset
    subset_cap: int = 2 ** 20
    # posets / spectra: monotone maps and compatible tuples
    map_cap: int = 10 ** 6
    # silting: enumerate_2silt object count
    silting_cap: int = 10 ** 4
    # algebras: longest path length explored before declaring the
    # quotient infinite-dimensional
    length_cap: int = 64
    # algebras: raw path count guard per length level (protects against
    # free algebras on several arrows exhausting memory before length_cap)
    path_cap: int = 200_000
    # oracle: raw representation tuples summed over every dimension vector
    # within the bound, counted before the sweep prunes arrow 0 by rank or
    # solves the relations, and the largest extension-cocycle space, counted
    # before the coboundaries and relations cut it
    oracle_search_cap: int = 2 ** 21
    oracle_cocycle_cap: int = 2 ** 14

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            # bool is an int subclass, but True is no cap
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field.name} must be an int, not {value!r}")
            if value <= 0:
                raise ValueError(f"{field.name} must be positive")


DEFAULTS = Config()
