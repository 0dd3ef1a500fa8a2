"""Exception hierarchy for flowbp.

Every error raised by the library derives from :class:`FlowBpError`, so
callers can catch one base class.  The CLI maps subfamilies to exit codes.
"""


class FlowBpError(Exception):
    """Base class for all flowbp errors."""


class ResultCheckError(FlowBpError):
    """A computed result failed its own consistency check (a bug in
    flowbp, never a property of the input)."""


# ---------------------------------------------------------------------------
# Piecewise-linear function algebra


class NonConvexError(FlowBpError):
    """Slopes are not strictly increasing after merging equal pieces."""


class MalformedDomainError(FlowBpError):
    """Breakpoints are not a strictly increasing extended-integer sequence."""


class AnchorOutOfDomainError(FlowBpError):
    """The anchoring point lies outside the function's domain."""


class UnboundedError(FlowBpError):
    """The function (or an operation result) decreases without bound."""


class EmptyDomainError(FlowBpError):
    """An operation produced the everywhere-infinite function."""


# ---------------------------------------------------------------------------
# Network model


class SelfLoopError(FlowBpError):
    """An arc has identical tail and head."""


class DemandImbalanceError(FlowBpError):
    """Node demands do not sum to zero."""


class BadCostDomainError(FlowBpError):
    """An arc cost function is not defined on exactly [0, capacity]."""


class NegativeCapacityError(FlowBpError):
    """An arc capacity is negative."""


class DimacsSyntaxError(FlowBpError):
    """A DIMACS line could not be parsed."""


class DimacsInconsistentError(FlowBpError):
    """DIMACS header counts disagree with the body."""


class JsonInstanceError(FlowBpError):
    """A JSON instance lacks a field or holds a value of the wrong type."""


class NonZeroLowerBoundError(FlowBpError):
    """A DIMACS arc carries a nonzero lower flow bound."""


class ForcedInfeasibleError(FlowBpError):
    """Degree-1 elimination forced a flow outside its capacity bounds."""


class InfeasibleFlowError(FlowBpError):
    """A flow assignment violates capacity or conservation constraints."""


# ---------------------------------------------------------------------------
# Oracles


class InfeasibleInstanceError(FlowBpError):
    """The instance admits no feasible flow."""


class UnboundedObjectiveError(FlowBpError):
    """The objective is unbounded below (negative-cost structure with
    unbounded capacity)."""


class BudgetExceededError(FlowBpError):
    """An enumeration exceeded its configured work budget."""


class SizeBudgetError(FlowBpError):
    """A computation tree exceeded its vertex budget."""


class NotOptimalError(FlowBpError):
    """A flow presented as optimal admits a negative residual cycle."""


# ---------------------------------------------------------------------------
# Approximation scheme


class ZeroCostInstanceError(FlowBpError):
    """Cost perturbation is undefined when every cost is zero."""


class RestartBudgetExceededError(FlowBpError):
    """The perturb-and-solve loop exhausted its restart budget."""


class ValueOutOfRangeError(FlowBpError):
    """A flow value to be fixed lies outside [0, capacity]."""


# ---------------------------------------------------------------------------
# Generation / CLI


class GenerationBudgetError(FlowBpError):
    """Rejection sampling failed to produce an instance within budget."""


class UsageError(FlowBpError):
    """Bad command-line arguments."""
