"""Exception types shared across the package."""


class TrafficLabError(Exception):
    """Base class for all package errors."""


class DomainError(TrafficLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(TrafficLabError, ValueError):
    """A model or diagram was constructed with invalid parameters."""


class EvaluationError(TrafficLabError, ValueError):
    """A law was evaluated at a state where it is undefined."""


class ConfigurationError(TrafficLabError, ValueError):
    """A scenario/CLI configuration violates a precondition.

    ``path`` carries the dotted config location (e.g. ``"fd.k_j"``) when the
    error originates from a config document. A solver that refuses one of its
    own arguments or a scenario's field names that key instead (e.g. ``"dt"``),
    and the config layer re-raises the ``reason`` at the key's dotted path.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path, self.reason = path, message
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def at_paths(paths: dict, run, *args):
    """``run(*args)``; a refusal that names one of ``paths``' keys (see
    :class:`ConfigurationError`) is re-raised at that key's dotted path."""
    try:
        return run(*args)
    except ConfigurationError as exc:
        if exc.path not in paths:
            raise
        raise ConfigurationError(exc.reason, path=paths[exc.path]) from exc


class CollisionError(TrafficLabError, RuntimeError):
    """A simulated vehicle closed below the minimum spacing."""

    def __init__(self, time: float, vehicle: int, member: int | None = None):
        self.time = time
        self.vehicle = vehicle
        self.member = member  # the platoon's place in a batch run, if it names one
        named = "" if member is None else f"member {member}, "
        super().__init__(f"spacing below minimum at t={time:.6g} s, {named}vehicle {vehicle}")


class SolverFault(TrafficLabError, RuntimeError):
    """A solver produced an invalid state (NaN, negative density)."""

    def __init__(self, message: str, step: int | None = None, cell: int | None = None):
        self.step = step
        self.cell = cell
        if step is not None:
            message = f"{message} (step {step}" + (f", cell {cell})" if cell is not None else ")")
        super().__init__(message)


class SingularityError(TrafficLabError, ArithmeticError):
    """A transfer-function denominator vanished."""
