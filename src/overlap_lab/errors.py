"""Exception types shared across the library."""

__all__ = ["BudgetExceededError", "InvalidInputError"]


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured pair budget."""

    def __init__(self, pair_count: int, budget: int):
        super().__init__(
            f"enumeration would visit {pair_count} pairs, over the budget of {budget}"
        )
        self.pair_count = pair_count
        self.budget = budget
