"""Structured pass/fail results carrying both sides of each identity."""


class VerificationReport:
    """One identity checked: its name, the verdict, both sides, and the
    checks of each item, each a dict {"id", "pass", "detail"}.  Every
    number is kept as the library made it, an int or else a Fraction."""

    def __init__(self, identity, passed, lhs=None, rhs=()):
        self.identity = identity
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.per_item = []

    def __eq__(self, other):
        return type(other) is VerificationReport and vars(self) == vars(other)

    def add_item(self, item_id, ok, detail=None):
        self.per_item.append({"id": item_id, "pass": ok, "detail": detail})
        if not ok:
            self.passed = False

    def to_dict(self):
        """The report as a JSON document, its numbers still exact: the
        writer (``cli._dumps``) turns each Fraction into its "p/q".  The
        items are this report's own list, not a copy."""
        return {
            "identity": self.identity,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": list(self.rhs),
            "per_item": self.per_item,
        }

    def __bool__(self):
        return self.passed
