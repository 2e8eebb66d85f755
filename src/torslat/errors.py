"""Exception hierarchy shared by all torslat modules.

Every error the library raises deliberately derives from TorslatError, so
callers (and the CLI) can map failure kinds to exit codes without string
matching.
"""


class TorslatError(Exception):
    """Base class for all library errors."""


class CertificationFailed(TorslatError):
    """Two computations of one result disagree: listed covers do not
    generate the order they should, or a classification does not match
    the independent construction that certifies it."""


class ParseError(TorslatError):
    """Malformed input text (algebra file, spectrum file, complex literal,
    poset JSON).  Carries a line number when one is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# posets

class DuplicateId(TorslatError):
    """Two elements declared with the same id."""


class CycleDetected(TorslatError):
    """The declared covers or relation pairs close a cycle."""


class SizeCapExceeded(TorslatError):
    """An enumeration (subsets, monotone maps, compatible tuples) would
    exceed its configured cap."""


class NotALattice(TorslatError):
    """meet/join requested for a pair without a unique bound."""


# ---------------------------------------------------------------------------
# algebras

class NotAdmissible(TorslatError):
    """A relation has a component of path length < 2, or is not
    length-homogeneous (the degreewise reduction this engine uses cannot
    certify a basis for mixed-length relations)."""


class NotFiniteDimensional(TorslatError):
    """The path basis is still growing at the configured length cap."""


# ---------------------------------------------------------------------------
# silting

class ShapeMismatch(TorslatError):
    """A differential entry or matrix operand is not (source, target)
    compatible with its row/column summands."""


class CapExceeded(TorslatError):
    """Silting enumeration passed its object cap without closing; the
    algebra is not certified tau-tilting finite."""


class ConeNotTwoTerm(TorslatError):
    """A mutation or completion cone failed to reduce to a two-term
    complex; the requested exchange does not exist in the two-term
    window."""


class NotPresilting(TorslatError):
    """Operation requires a presilting complex."""


class NotSilting(TorslatError):
    """Operation requires a silting object."""


class IndexOutOfRange(TorslatError):
    """Summand index outside the object's summand list."""


# ---------------------------------------------------------------------------
# spectra

class ModelInvalid(TorslatError):
    """A SpecModel failed validation; .violations holds the diagnostics."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# ---------------------------------------------------------------------------
# oracle

class SearchSpaceExceeded(TorslatError):
    """Brute-force representation search larger than the configured cap."""


class NotRepFiniteWithinBound(TorslatError):
    """Oracle asked to run on an algebra outside its frozen corpus without
    an explicit dimension-bound override."""
