"""Exception taxonomy shared across the package.

The split mirrors how failures are reported at the command line: bad
configuration, bad input data, and numeric aborts are distinct outcomes.
"""

from __future__ import annotations


class MolContrastError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(MolContrastError, ValueError):
    """A flag, config file entry, or parameter combination is invalid.

    Also a ``ValueError``: the config dataclasses reject bad values with it,
    and callers that catch ``ValueError`` keep working.
    """


class DataError(MolContrastError):
    """Input data is missing, malformed, or otherwise unusable."""


class NumericAbort(MolContrastError):
    """A computation produced non-finite values and cannot continue."""
