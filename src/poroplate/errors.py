"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, SolverError -> 2,
acceptance failures -> 3.  Everything else is a plain bug.
"""


class PoroplateError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(PoroplateError):
    """Invalid cell/plate geometry (gel box touching the boundary, bad tiling, ...)."""


class MaterialError(PoroplateError):
    """Inadmissible material data (non-coercive tensor, non-SPD permeability, ...)."""


class AssemblyError(PoroplateError):
    """Mesh/operator mismatch during assembly."""


class SolverError(PoroplateError):
    """Iterative solver failure; carries the residual history for diagnosis."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = [] if residuals is None else list(residuals)


class ConfigError(PoroplateError):
    """Run-configuration schema violation; message carries line/field info."""


class BudgetError(PoroplateError):
    """A guarded operation would exceed its configured dof/memory budget."""
