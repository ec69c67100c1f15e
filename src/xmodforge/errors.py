"""Exception types shared by all validators and constructors."""


class XModForgeError(Exception):
    pass


class Violation(XModForgeError):
    """An axiom failed. Carries a machine-readable code and a witness tuple.

    The message is formatted when it is read (str, repr), not when the
    violation is built: the sweeps build many that no one prints."""

    def __init__(self, code, witness=None, detail=""):
        super().__init__()
        self.code = code
        self.witness = witness
        self.detail = detail

    def __str__(self):
        msg = self.code
        if self.witness is not None:
            msg += f" witness={self.witness!r}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class ValidationFailure(XModForgeError):
    """Aggregate of one or more Violations from a validator; its message,
    the violations' joined by "; ", is formatted when it is read."""

    def __init__(self, violations):
        super().__init__()
        self.violations = list(violations)

    def __str__(self):
        return "; ".join(str(v) for v in self.violations)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    @property
    def codes(self):
        return [v.code for v in self.violations]


def require(value, violations):
    """value, or ValidationFailure(violations) raised when there are any."""
    if violations:
        raise ValidationFailure(violations)
    return value


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
