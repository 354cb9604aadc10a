"""Exception types shared across the package."""


class DiscoParseError(Exception):
    """Base class for every error this package raises deliberately."""


class InputFormatError(DiscoParseError):
    """Malformed or internally inconsistent input data."""


class TreeParseError(InputFormatError):
    """Unbalanced, empty or otherwise unreadable PTB bracketing."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class AlignmentError(InputFormatError):
    """Parse-tree leaves and the token sequence do not line up."""


class MissingDocumentError(InputFormatError):
    """A document id is referenced but no matching document exists."""


class DataError(InputFormatError):
    """A relation violates a structural requirement of its type."""


class ExportError(DiscoParseError):
    """A relation cannot be serialized against the given documents."""


class ModelFormatError(InputFormatError):
    """A model file is unreadable or has an unsupported format version."""


class TrainingError(InputFormatError):
    """A classifier cannot be trained from the given data."""


class PredictionError(DiscoParseError):
    """A trained classifier was queried with an incompatible feature set."""
