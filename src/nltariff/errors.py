"""Exception types shared across the library."""


class NLTariffError(Exception):
    """Base class for all library errors."""


class DomainError(NLTariffError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidParams(NLTariffError):
    """Market primitives violate a structural invariant."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class InvalidReservation(InvalidParams):
    """Reservation utility has the wrong sign or shape for the chosen branch."""

    def __init__(self, message):
        super().__init__("reservation", message)


class ConvergenceError(NLTariffError):
    """An iterative routine failed to bracket or converge."""


class AssumptionViolation(NLTariffError):
    """A structural assumption required by the typed-reservation solver fails.

    Carries the x-range on which the check failed.
    """

    def __init__(self, name, x_range, message=""):
        self.name = name
        self.x_range = x_range
        detail = f" on x in [{x_range[0]:.6g}, {x_range[1]:.6g}]" if x_range else ""
        super().__init__(f"assumption '{name}' violated{detail}. {message}".rstrip())


class InfeasibleSet(NLTariffError):
    """No boundary pair satisfies the slope constraints."""


class ConfigError(NLTariffError):
    """A scenario configuration file failed validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
