"""The package's one exception base.

Every exception class the package defines derives from :class:`ReproError`.
A component that degrades on a failed request (the daemon serving stale
paths, the bootstrapper moving to the next hint, a retry loop backing off)
catches this and nothing wider, so a programming error still propagates.
"""


class ReproError(Exception):
    """Base of every exception class this package defines."""
