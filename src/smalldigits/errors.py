"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or scan would exceed its configured work budget."""
