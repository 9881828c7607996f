"""Shared exception types.

Kept in one module so the CLI can map them onto exit codes without import
cycles: ConfigError -> 2, StrictAssumptionError -> 3, numerical failures -> 4.
"""


class KinchaosError(Exception):
    """Base class for package errors."""


class BlowUpError(KinchaosError):
    """Integrator state became non-finite."""

    def __init__(self, step, detail=""):
        self.step = step
        super().__init__(f"non-finite state after step {step} {detail}".rstrip())


class StabilityError(KinchaosError):
    """A time step violated a stability or CFL guard."""


class SchemeError(KinchaosError):
    """A grid scheme produced an inadmissible state (e.g. negative cells)."""


class ConvergenceError(KinchaosError):
    """An iterative solver failed in a way that cannot be flagged and returned."""


class ConfigError(KinchaosError):
    """Configuration text failed to parse or validate.

    Carries *all* collected errors, each prefixed with a line number where one
    applies, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class StrictAssumptionError(KinchaosError):
    """An assumption check failed while running under --strict."""
