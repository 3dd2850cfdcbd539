"""Exception types shared across the package."""


class BiforgeError(Exception):
    """Base class for all package-specific errors."""


class SortError(BiforgeError):
    """A construction violates the well-sortedness rules."""


class NotAnAbstraction(BiforgeError):
    """An abstraction node was required but something else was given."""


class NotBnum(BiforgeError):
    """A construction was expected to be a binary-numeral term."""


class LanguageError(BiforgeError):
    """A construction uses constants outside the required language level."""


class QuantifierEncountered(BiforgeError):
    """A quantifier was hit under the quantifier-free evaluation strategy."""


class StuckRewrite(BiforgeError):
    """The rewrite engine reached a redex no rule applies to.

    ``term`` is the stuck redex ``Plus(a, b)``, ``rendered`` a printable form.
    """

    def __init__(self, term, rendered: str):
        super().__init__(f"no rewrite rule applies to {rendered}")
        self.term = term
        self.rendered = rendered


class ParseError(BiforgeError):
    """Malformed input text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
