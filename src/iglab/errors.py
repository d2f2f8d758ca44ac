"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A model or operation parameter violates its domain constraints."""


class InfeasibleCouplingError(ValueError):
    """The binomial-ring coupling threshold does not exist (K too small vs ln n)."""


class OracleRefusedError(ValueError):
    """A brute-force oracle was asked to run outside its safe size guard."""


class ContainmentViolationError(AssertionError):
    """A coupled pair marked valid failed the hard subgraph-containment guarantee."""
