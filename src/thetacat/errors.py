"""Shared exception types."""

from __future__ import annotations


class IncomposableError(ValueError):
    """Raised when two maps or classes have mismatched (co)domains."""


class BudgetExceededError(RuntimeError):
    """Raised when a search or an enumeration exceeds its budget.

    `count` is the size of the work that went over the budget: the nodes
    visited by a search, the pairs a functoriality check reached, or the
    candidates of an enumeration refused before it starts.
    """

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class ProofShapeViolation(RuntimeError):
    """Raised when a face intersection fails to be a union of faces.

    This is a genuine finding about the inductive filtration, not a bug,
    so the offending data is attached for inspection.
    """

    def __init__(self, message: str, data=None):
        super().__init__(message)
        self.data = data
