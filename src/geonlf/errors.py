"""Exception types shared across the package."""


class GeonlfError(Exception):
    """Base class for all errors raised by geonlf."""


class EmptyCloud(GeonlfError):
    pass


class EmptyList(GeonlfError):
    pass


class EmptyBatch(GeonlfError):
    pass


class NonPositiveVoxel(GeonlfError):
    pass


class DegenerateNeighborhood(GeonlfError):
    pass


class DegenerateConfiguration(GeonlfError):
    pass


class DegenerateCorrespondences(GeonlfError):
    pass


class TooFewFrames(GeonlfError):
    pass


class FrameMismatch(GeonlfError):
    pass


class ShapeMismatch(GeonlfError):
    pass


class UnknownPreset(GeonlfError):
    pass


class TapeMissing(GeonlfError):
    pass


class NonFiniteLoss(GeonlfError):
    """Raised when a training loss turns NaN/inf; carries diagnostics.
    `culprit` names the first parameter block or pose found non-finite, or
    is None when all are finite."""

    def __init__(self, message, iteration=None, frame=None, terms=None,
                 culprit=None):
        super().__init__(message)
        self.iteration = iteration
        self.frame = frame
        self.terms = dict(terms) if terms else {}
        self.culprit = culprit


class ConfigError(GeonlfError):
    """Malformed run configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
