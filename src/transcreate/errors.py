"""Shared exception hierarchy.

The CLI maps these families to exit codes: bad usage and unopenable files
(any ``OSError``) exit 2, :class:`ValidationError` exits 3, :class:`GatewayError` exits 4.
"""


class TranscreateError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TranscreateError):
    """An input, reply, or output failed a contract check."""


class GatewayError(TranscreateError):
    """Chat-completion transport failed."""
