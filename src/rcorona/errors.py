"""Exception types shared across the package."""


class GraphValidationError(ValueError):
    """A graph construction input violates the basic shape rules."""


class EndpointRangeError(GraphValidationError):
    """An edge endpoint is outside 0..n-1, or beyond 2**63 - 1, the largest
    index a graph's int64 edge array holds."""


class SelfLoopError(GraphValidationError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphValidationError):
    """The same unordered edge appears more than once."""


class HypothesisError(ValueError):
    """A mathematical precondition of an operation is violated.

    Raised for things like a disconnected base graph, a non-regular input
    where regularity is required, an isolated vertex, or the unsupported
    m < n regime of the closed-form spectrum.
    """


class DenseMemoryError(ValueError):
    """A dense N x N computation, a corona's assembly or a generated graph
    would need more than the memory available (physical memory, cgroup or
    address-space limit); refused before anything is allocated (a usage
    error)."""


class ConvergenceError(RuntimeError):
    """The eigenvalue iteration failed to converge within its cap."""


class InternalConsistencyError(RuntimeError):
    """The closed form's families disagree with the corona's size: their
    multiplicities do not total its vertex count, or a family's quotient
    matrix does not match its polynomial's degree.  Signals an
    implementation bug, not a user error."""
