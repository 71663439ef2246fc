"""Shared exception types and the compute-budget guard."""

import os
from decimal import Decimal

DEFAULT_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """An operation would exceed the configured compute budget."""


class FitError(RuntimeError):
    """A regression fit could not be performed (too few admissible points)."""


def budget_cap() -> int:
    """Compute cap in abstract cost units; NCF_BUDGET overrides the default.

    Raises ValueError unless NCF_BUDGET is a non-negative integer.
    """
    raw = os.environ.get("NCF_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    if not raw.strip().isdecimal():
        raise ValueError(f"NCF_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


def charge(cost: float, what: str) -> None:
    cap = budget_cap()
    if cost > cap:
        try:
            shown = f"{cost:.3g}"
        except OverflowError:  # an int with no binary64 value, such as a 401-digit flag
            shown = f"{Decimal(cost):.3g}"
        raise BudgetExceededError(
            f"{what}: estimated cost {shown} exceeds budget {cap} "
            "(set NCF_BUDGET to raise the cap)"
        )
