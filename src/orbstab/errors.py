"""Exception types shared across the package."""


class OrbstabError(Exception):
    """Base class for all orbstab-specific errors."""


class InvalidCardinality(OrbstabError, ValueError):
    """A cardinality outside the domain of the classification (n < 1), a
    witness size the construction cannot realize, or a set of fewer than 3
    points, whose stabilizer is infinite, handed to the oracle."""


class InvalidTolerance(OrbstabError, ValueError):
    """A working tolerance that is not a finite number above 0."""


class InvalidPoint(OrbstabError, ValueError):
    """Coordinates that define no point of the sphere: (0 : 0), a NaN or
    an infinite pair."""


class NearDegenerateTriple(OrbstabError, ValueError):
    """Two points of a triple coincide within tolerance, so no unique
    Mobius transformation through the triple exists numerically."""


class DegenerateMap(OrbstabError, ValueError):
    """A 2x2 matrix whose determinant falls below the floor after
    normalization; it does not represent a Mobius transformation."""


class AmbiguousMatching(OrbstabError, ValueError):
    """Tolerance balls of a point set overlap, so nearest-neighbour set
    matching is not well defined."""


class UnrecognizedGroup(OrbstabError, RuntimeError):
    """The (order, max element order) signature matches no finite Mobius
    group; indicates a broken closure check or a tolerance failure."""


class AmbiguousDecision(OrbstabError, RuntimeError):
    """A proposed stabilizer element's map misses its partners by more
    than tol but by less than the decision gap, so the set is neither
    clearly symmetric under it nor clearly not; the oracle names the
    smallest such miss and the largest kept miss instead of returning a
    smaller group."""


class OrbitSizeMismatch(OrbstabError, RuntimeError):
    """An orbit size is not permitted for the identified group, or the
    orbit counts exceed the slots of the component index."""


class UnrealizableIndex(OrbstabError, ValueError):
    """The requested entry has no witness: its component index forces a
    larger stabilizer, it is not in classify(n), or it is infinite."""


class WitnessSearchExhausted(OrbstabError, RuntimeError):
    """The propose-and-verify loop ran out of retries without the oracle
    confirming the requested entry."""


class ClosedFormMismatch(OrbstabError, RuntimeError):
    """The closed-form and definitional evaluations of the parameter-space
    action disagree beyond tolerance."""


class SeedOnSpecialLocus(OrbstabError, ValueError):
    """A seed point for a generic orbit lies on a special locus, so its
    orbit is smaller than the group order."""


class CenteringFailed(OrbstabError, RuntimeError):
    """Conformal centering of a point set stopped with its barycenter too
    far from the origin, next to the separation of the centered points,
    so a rotation search on the cloud could miss stabilizer elements."""
