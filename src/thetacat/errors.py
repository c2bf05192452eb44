"""Shared exception types and the default budget."""

from __future__ import annotations

DEFAULT_BUDGET = 10**6  # the default bound on a search or an enumeration, also for `--budget`


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
