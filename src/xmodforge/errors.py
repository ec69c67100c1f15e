"""Exception types shared by all validators and constructors."""


class XModForgeError(Exception):
    pass


class Violation(XModForgeError):
    """An axiom failed. Carries a machine-readable code and a witness tuple."""

    def __init__(self, code, witness=None, detail=""):
        self.code = code
        self.witness = witness
        self.detail = detail
        msg = code
        if witness is not None:
            msg += f" witness={witness!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ValidationFailure(XModForgeError):
    """Aggregate of one or more Violations from a validator."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    @property
    def codes(self):
        return [v.code for v in self.violations]


class SizeLimitExceeded(XModForgeError):
    def __init__(self, what, size, cap):
        self.what, self.size, self.cap = what, size, cap
        super().__init__(f"SizeLimitExceeded: {what} has size {size} > cap {cap}")


class NotComposable(XModForgeError):
    pass


class UnitSpaceMismatch(XModForgeError):
    pass


class NotAHypercover(XModForgeError):
    pass


class EmptyComposite(XModForgeError):
    pass


class EmptyFiberedProduct(XModForgeError):
    pass


class EmptyEquivalence(XModForgeError):
    pass


class ExactnessSolveFailure(XModForgeError):
    """Internal error: a solve that the axioms make unique (CR3/CR3'
    exactness, a principal action) found no solution or several."""


class CoherenceFailure(XModForgeError):
    """Internal error: an identity that the theory guarantees on validated
    inputs (a composite g-function, an invertible structural morphism)
    failed."""


class IllDefinedAction(XModForgeError):
    pass


class NotAbelian(XModForgeError):
    def __init__(self, fiber_point, witness):
        self.fiber_point = fiber_point
        self.witness = witness
        super().__init__(f"NotAbelian at {fiber_point}: {witness!r}")
