"""Exception types shared across the library."""


class IndeplibError(Exception):
    """Base class for all library errors."""


class LimitExceeded(IndeplibError):
    """An input exceeded a configured resource limit."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class VerificationError(IndeplibError):
    """A computed result failed its own correctness check.

    Raised instead of ``assert`` so that the check also runs under
    ``python -O``."""


class ParseError(IndeplibError):
    """A file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotACograph(IndeplibError):
    """Raised by cograph recognition; carries an induced-P4 witness, or an
    empty one when the recognition was asked for no witness."""

    def __init__(self, witness):
        if witness:
            super().__init__(f"graph contains an induced P4 on vertices {sorted(witness)}")
        else:
            super().__init__("graph is not a cograph")
        self.witness = tuple(witness)


class NotASplitgraph(IndeplibError):
    """Raised by split-partition search; carries an obstruction witness.

    kind is one of '2K2', 'C4', 'C5', or None when the search was asked
    for no witness.
    """

    def __init__(self, kind, witness):
        if kind is None:
            super().__init__("graph is not a splitgraph")
        else:
            super().__init__(
                f"graph is not a splitgraph: induced {kind} on vertices {sorted(witness)}"
            )
        self.kind = kind
        self.witness = tuple(witness)


class InvalidDecomposition(IndeplibError):
    """Raised when a tree decomposition violates one of the three axioms."""

    def __init__(self, axiom, message, witness=None):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom
        self.witness = witness


class InvalidModel(IndeplibError):
    """A structured model (interval, permutation, cotree) is malformed."""
