"""Semantic exception hierarchy.

Every failure mode gets its own class so callers (and the CLI exit-code
logic) can distinguish bad inputs from violated theorem hypotheses from
honest numerical breakdown.
"""


class BecknerLabError(Exception):
    """Base class for all package errors."""


class DomainError(BecknerLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(BecknerLabError):
    """A requested state space exceeds the desk-scale cap."""


class HypothesisError(BecknerLabError):
    """A theorem hypothesis is violated; the message names the condition."""


class CapabilityError(BecknerLabError):
    """The operation is not implemented for the requested variant."""


class NumericalError(BecknerLabError):
    """An iterative procedure failed to converge or lost accuracy."""


class DegeneracyError(BecknerLabError):
    """Input is degenerate for the operation.

    Raised for a reducible chain where irreducibility is required.
    """


class ReversibilityError(BecknerLabError):
    """A chain violates detailed balance pi(eta) c(eta, g) =
    pi(g eta) c(g eta, g^{-1}) beyond tolerance; raised at construction."""


class ConfigError(BecknerLabError, ValueError):
    """A configuration document failed strict validation."""
