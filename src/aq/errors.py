"""The package's base exception, shared by the kernel and everything above it."""


class AlgebraError(Exception):
    """A computation or validation failure, named by its message."""
