"""Exception hierarchy for the SNAP reproduction.

The paper distinguishes *compile errors* (e.g. parallel write/write races,
§3) from *semantic undefinedness* (eval returning ⊥, Appendix A).  Both are
surfaced as exceptions; ``InconsistentStateError`` corresponds to ⊥.
"""


class SnapError(Exception):
    """Base class for every error raised by this library."""


class ParseError(SnapError):
    """The concrete-syntax parser rejected the program text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = "" if line is None else f" at line {line}, column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CompileError(SnapError):
    """The compiler rejected the program (e.g. a state race condition)."""


class RaceConditionError(CompileError):
    """Parallel composition produced a read/write or write/write conflict."""


class InconsistentStateError(SnapError):
    """eval() hit the undefined case ⊥ of the semantics (Appendix A)."""


class PlacementError(SnapError):
    """The MILP was infeasible or produced an unusable placement."""


class DataPlaneError(SnapError):
    """The distributed data-plane realization misbehaved."""


class RetiredNetworkError(DataPlaneError):
    """A driver was called on a network whose state has a successor."""


class TopologyError(SnapError):
    """A topology was malformed (no capacity, unknown port, ...)."""
