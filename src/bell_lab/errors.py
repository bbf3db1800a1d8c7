"""Exception hierarchy shared across the laboratory."""

from __future__ import annotations


class BellLabError(Exception):
    """Base class for all bell-lab errors."""


class InvalidSpec(BellLabError):
    """A model specification is malformed or used outside its domain."""


class InsufficientData(BellLabError):
    """A per-pair estimate was requested with fewer than 2 trials."""

    def __init__(self, pair_id: int, count: int):
        self.pair_id = pair_id
        self.count = count
        super().__init__(
            f"pair_id {pair_id} has {count} trial(s); need at least 2 for a standard error"
        )


class AnticorrelationViolated(BellLabError):
    """The pilot equal-settings check failed.

    Perfect anticorrelation is a premise of the three-setting inequality;
    without it the statistic is not defined.
    """

    def __init__(self, violations: int, trials: int):
        self.violations = violations
        self.trials = trials
        super().__init__(
            f"anticorrelation violated in {violations} of {trials} pilot trials; "
            "the three-setting inequality presupposes A = -B at equal settings"
        )


class ContinuousLambdaUnorderable(BellLabError):
    """Lambda-keyed reordering was requested for a continuous source.

    Reordering by equal lambda requires the set of source values to be much
    smaller than the number of trials; a continuous source never repeats, so
    the procedure is refused rather than silently binned.
    """


class UnknownSetting(BellLabError):
    """A finite model has no detector table for the requested setting."""


class TooLarge(BellLabError):
    """An enumeration request asks for argmax tables with more cells than the guard allows."""


class ConfigError(BellLabError):
    """A config file failed strict-schema validation.

    Carries enough context (key and/or line) to name the offender.
    """

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
