"""Exception hierarchy shared across the package.

ConfigError marks bad user input (CLI exit code 2); ContractError and its
subclasses mark violated mathematical or physical contracts (CLI exit code 3).
"""


class ContractError(Exception):
    """An operation received input that violates its mathematical contract."""


class DimensionError(ContractError):
    """Operand dimensions are unsupported or inconsistent."""


class ShapeError(ContractError):
    """A matrix expected to be X-shaped has too much weight off the X.

    Carries the offending leakage (sum of absolute values of the eight
    non-X entries) in ``leakage``.
    """

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


class InfeasibleStateError(ContractError):
    """State parameters are outside the physically realizable region."""


class ProtocolError(ContractError):
    """A tomography record set does not match the requested protocol."""


class ConfigError(Exception):
    """Invalid experiment configuration or CLI usage."""


def raise_first(*checks) -> None:
    """Raise the error of a block's first failing point, as a point-by-point
    route would. A check is (mask of the failing points, function of a
    point's index that makes its exception); a point runs them in order."""
    failing = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if failing:
        index, k = min(failing)
        raise checks[k][1](index)
