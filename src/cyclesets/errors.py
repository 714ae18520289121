"""Exception types shared across the package.

Everything derives from ValueError so callers can catch broadly; the
specific classes exist so tests and the CLI can tell failure modes apart.
"""


class CapExceeded(ValueError):
    """A closure computation grew past its element cap."""

    def __init__(self, cap):
        super().__init__(f"group closure exceeded cap of {cap} elements")
        self.cap = cap


class NotTransitive(ValueError):
    """The permutation group does not act transitively."""


class NotIndecomposable(ValueError):
    """Operation requires an indecomposable cycle set."""


class InducedTableIllDefined(ValueError):
    """A quotient table is not constant on blocks."""

    def __init__(self, block, witness):
        super().__init__(f"induced table ill-defined on block {block}: {witness}")
        self.block = block
        self.witness = witness


class ConstantPhi(ValueError):
    """The defect map of a family member must be non-constant."""


class InvariantViolation(ValueError):
    """Family parameters violate a required invariant."""


class NotAnAutomorphism(ValueError):
    """The supplied permutation is not an automorphism of the cycle set."""


class NotSizePSquared(ValueError):
    """Classification only applies to cycle sets of size p*p, p prime."""


class RowsNotBijective(ValueError):
    """The iso/aut engine needs a table whose rows are permutations."""


class NoMatch(ValueError):
    """The input matched no family member (would falsify the classification)."""


class BoundExceeded(ValueError):
    """An enumeration would produce more output than the requested bound."""


class SizeTooLarge(ValueError):
    """The requested exhaustive computation is out of range."""
