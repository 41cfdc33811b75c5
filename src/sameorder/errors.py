"""Exception types raised by the engine."""


class EngineError(Exception):
    """Base class for every error the engine raises on purpose."""


class InvalidParameterError(EngineError, ValueError):
    """A constructor or operation was called with parameters outside its domain."""


class CapExceededError(EngineError):
    """A group's order exceeds the configured element cap."""

    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or f"group order exceeds the cap of {cap} elements")


class OrderMismatchError(EngineError):
    """A constructed group's enumerated order disagrees with its order formula."""


class NoWitnessError(EngineError):
    """No odd-prime witness pair exists for the given group."""


class VerificationError(EngineError):
    """An assertion of a verification command failed."""


class DslError(EngineError, ValueError):
    """Problem with a group expression; `position` is a byte offset into the text."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class DslSyntaxError(DslError):
    pass


class UnknownFamilyError(DslError):
    pass


class ArityError(DslError):
    pass
