"""Exception types shared across the package, and the echo of input in their messages."""


class DomainError(ValueError):
    """An operation received arguments outside its mathematical domain."""


class UnsupportedCenterError(DomainError):
    """A blow-up center violates the restrictions of the combinatorial transform."""


class ModelFormatError(ValueError):
    """A model document could not be parsed.  Carries a human-readable location."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


def _echo(text: str) -> str:
    """The repr of a user's input for an error line, cut short past 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:30]!r}... ({len(text)} characters)"


_SHOWN_IDS = 3  # ids an error line names; the rest are counted


def _ids(ids) -> str:
    """Ids for an error line, sorted: the first few echoed in brackets, then how many more."""
    ids = sorted(ids)
    more = f" and {len(ids) - _SHOWN_IDS} more" if len(ids) > _SHOWN_IDS else ""
    return f"[{', '.join(map(_echo, ids[:_SHOWN_IDS]))}]{more}"
