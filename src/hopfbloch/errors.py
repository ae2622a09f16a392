"""Exception types raised by the geometric pipeline."""


class HopfBlochError(Exception):
    """Base class for all domain errors in this package."""


class NotNormalized(HopfBlochError):
    """A state vector or quaternion pair is too far from unit norm to repair."""


class FiberAtInfinity(HopfBlochError):
    """The lower quaternion amplitude vanishes: the fibration image is the
    excluded north pole (1,0,0,0,0) and must be assigned directly."""


class OffSphere(HopfBlochError):
    """Coordinates expected on the unit 4-sphere are off it."""


class OutOfRange(HopfBlochError):
    """An angle lies outside its declared range."""


class BadAxis(HopfBlochError):
    """A rotation axis is not a unit 3-vector."""


class UnknownGate(HopfBlochError):
    """Gate name not in the supported set."""


class SouthPoleA(HopfBlochError):
    """The state is |1>_A (x) |psi_B>: qubit A sits at the south pole and the
    seven-angle model does not apply.  Carries the single-qubit fallback.

    Attributes:
        psi_b: (c0, c1) complex pair, the normalized qubit-B state.
    """

    def __init__(self, psi_b):
        super().__init__("state is |1>_A (x) |psi_B>; seven-angle "
                         "coordinates undefined, use the single-qubit fallback")
        self.psi_b = psi_b
