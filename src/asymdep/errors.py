"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: InputError -> 1, CapabilityError -> 2,
verification failure -> 3, SolverError -> 4. No built-in kernel raises
SolverError any more; it and exit code 4 stay for API stability.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (bad matrix, bad weights, bad map)."""


class CapabilityError(RuntimeError):
    """Request exceeds an exact-mode cutoff or a solver size limit."""


class SolverError(RuntimeError):
    """An optimization backend failed to produce a usable answer."""
