"""Structured pass/fail results carrying both sides of each identity."""

from fractions import Fraction


def num_to_json(x):
    """An int or Fraction as a JSON integer, or as a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _plain(x):
    if type(x) is Fraction:
        return num_to_json(x)
    if isinstance(x, (list, tuple)):
        return [_plain(c) for c in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


class VerificationReport:
    """One identity checked: its name, the verdict, both sides, and the
    checks of each item, each a dict {"id", "pass", "detail"}."""

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
        return {
            "identity": self.identity,
            "pass": self.passed,
            "lhs": _plain(self.lhs),
            "rhs": _plain(list(self.rhs)),
            "per_item": _plain(self.per_item),
        }

    def __bool__(self):
        return self.passed
