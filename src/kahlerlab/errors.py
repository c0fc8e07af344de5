"""Exception hierarchy shared across the lab."""

import math


class KahlerLabError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveDefinite(KahlerLabError):
    """A metric evaluation produced an eigenvalue at or below the floor."""


class SingularityTooClose(KahlerLabError):
    """A point violates the declared smoothness radius of a field."""


class NonConvergence(KahlerLabError):
    """An iterative solver failed to reach its termination criterion."""


class DomainExceeded(KahlerLabError):
    """A point or distance outside the admissible domain: beyond the
    positive-curvature cap, outside a model chart, or inside an obstacle."""


class InvalidDisk(KahlerLabError, ValueError):
    """A disk map that breaks a rule of ``disks.disk_faults``."""


class Disconnected(KahlerLabError):
    """No path exists between the endpoints inside the domain."""


class Unsupported(KahlerLabError):
    """Requested configuration is outside the supported v1 surface."""


class ConfigError(KahlerLabError):
    """Scenario configuration failed schema validation."""


def finite(value: float) -> float:
    """``value``, or KahlerLabError, which the runner writes as an ERROR row:
    a non-finite value is never a PASS or a FAIL."""
    if not math.isfinite(value):
        raise KahlerLabError("non-finite value")
    return value
