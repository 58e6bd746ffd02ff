"""Exception hierarchy shared across the simulator."""
from __future__ import annotations


class GcsSimError(Exception):
    """Base class for all simulator errors."""


class ParameterError(GcsSimError, ValueError):
    """An argument is outside its documented domain."""


class InternalError(GcsSimError, RuntimeError):
    """A state that should be unreachable in a correct engine."""


class ConfigError(GcsSimError, ValueError):
    """Invalid engine configuration, e.g. a reused RNG stream label."""


class ScenarioParseError(GcsSimError, ValueError):
    """Scenario file is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(GcsSimError, ValueError):
    """Scenario parsed but violates one or more structural/semantic rules."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class RunAborted(GcsSimError, RuntimeError):
    """The engine hit a hard integrity failure mid-run.

    Carries the structured violation report collected up to the abort.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []
