"""Exception types shared across the package.

The command line maps them to exit codes: a ``ConfigError`` (bad input,
including the geometry and degeneracy errors below) exits with 2, a
``SolverError``, ``AssemblyError`` or ``StateError`` (a run that failed)
with 3.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class GeometryError(ConfigError):
    """Misaligned, non-contained, or non-tileable perforation geometry."""


class SolverError(RuntimeError):
    """A linear or nonlinear solve failed to reach its tolerance."""


class AssemblyError(RuntimeError):
    """An assembled effective tensor failed its consistency checks."""


class DegeneracyError(ConfigError):
    """The requested problem is degenerate (e.g. no perforation, no no-slip surface)."""


class StateError(ValueError):
    """A simulation state violates an invariant that should be unreachable."""


def labelled(label, make, *args, **kwargs):
    """``make(*args, **kwargs)``, ``label`` put before the message of its
    ConfigError: the config section or the run whose check failed."""
    try:
        return make(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{label} {e}") from None
