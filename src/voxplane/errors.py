"""Exception hierarchy. Each class marks one failure category so callers
(and the CLI exit-code mapping) can tell input, config, and format problems
apart."""


class VoxplaneError(Exception):
    """Base class for all package-specific errors."""


class InputValidationError(VoxplaneError, ValueError):
    """Bad numeric input: wrong shape, NaN or infinite coordinates."""


class CloudFormatError(VoxplaneError, ValueError):
    """A point-cloud file could not be parsed.

    Carries the offending line number when one is known.
    """

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ConfigError(VoxplaneError, ValueError):
    """Invalid configuration value or malformed config file."""
