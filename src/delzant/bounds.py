"""Edge-length-sum formulas C(n, .) and C(k0, n, .), and the admissibility
engine for symmetric positive integer vectors under the index constraints.

Vectors are indexed positionally: position j of an h-vector is h_j, and
position j of a vector of even Betti numbers is b_{2j}.  The two families
of formulas coincide under that identification.
"""

from itertools import product
from math import isqrt
from operator import mul
from types import SimpleNamespace

from . import exact
from .errors import MalformedVector, NonNegativeS, UnboundedSearch

# The most candidate vectors enumerate_admissible will try, about 15 s of
# search: a larger box is refused before it starts.
SEARCH_LIMIT = 10**7


def c_from_f(n, f):
    """Edge-length sum of an n-dimensional reflexive smooth polytope from its
    f-vector: 12*f2 + (5-3n)*f1."""
    if len(f) != n + 1:
        raise MalformedVector(f"f-vector of length {len(f)} for dimension {n}")
    return 12 * f[2] + (5 - 3 * n) * f[1]


def c_from_f3(n, f):
    """The equivalent f3-form, valid for n >= 3: 24*f3/(n-2) + (3-n)*f1."""
    if n < 3:
        raise MalformedVector("f3 form needs dimension >= 3")
    if len(f) != n + 1:
        raise MalformedVector(f"f-vector of length {len(f)} for dimension {n}")
    return exact.ratio(24 * f[3] + (3 - n) * (n - 2) * f[1], n - 2)


def c_from_h(n, h):
    """C(n, h): the edge-length sum expressed through the h-vector."""
    if len(h) != n + 1:
        raise MalformedVector(f"h-vector of length {len(h)} for dimension {n}")
    total = sum(h)
    m = n // 2
    if n % 2 == 0:
        return 12 * sum(k * k * h[m - k] for k in range(1, m + 1)) - m * total
    return 12 * sum(k * (k + 1) * h[m - k] for k in range(1, m + 1)) - (m - 1) * total


def c_indexed_from_f(k0, n, f):
    """C(k0, n, f) = 12*f2 + (5 - 3n - k0)*f1."""
    if len(f) != n + 1:
        raise MalformedVector(f"f-vector of length {len(f)} for dimension {n}")
    return 12 * f[2] + (5 - 3 * n - k0) * f[1]


def c_indexed_from_h(k0, n, h):
    """C(k0, n, h), assuming the symmetry h_j = h_{n-j}: the coefficients
    of ``coefficients(n, k0)`` against h_0, ..., h_{n//2}."""
    if len(h) != n + 1:
        raise MalformedVector(f"h-vector of length {len(h)} for dimension {n}")
    if any(h[j] != h[n - j] for j in range(n + 1)):
        raise MalformedVector("indexed C formula assumes a symmetric vector")
    return sum(map(mul, coefficients(n, k0), h))


def coefficients(n, k0):
    """Affine coefficients (A_0, ..., A_m) of C(k0, n, .) on the free half
    of a symmetric vector, with position 0 fixed to 1.

    Position i carries h_i (equivalently b_{2i}); A_0 is the constant term.
    """
    m = n // 2
    coeffs = [0] * (m + 1)
    if n % 2 == 0:
        for k in range(1, m + 1):
            coeffs[m - k] = 12 * k * k - 2 * m * (k0 + 1)
        coeffs[m] = -m * (k0 + 1)
    else:
        for k in range(1, m + 1):
            coeffs[m - k] = 12 * k * (k + 1) + 3 - n * (k0 + 1)
        coeffs[m] = -(n * (k0 + 1) - 3)
    return tuple(coeffs)


def _floor_sqrt_frac(p, q):
    # floor(sqrt(p/q)) = floor(sqrt(p*q))/q computed exactly
    return isqrt(p * q) // q


def lambda_threshold(n, k0):
    """Smallest position whose coefficient in C(k0, n, .) is not positive."""
    if not 1 <= k0 <= n + 1:
        raise MalformedVector(f"index {k0} outside [1, {n + 1}]")
    if n % 2 == 0:
        two_lambda = n - 2 * _floor_sqrt_frac(n * (k0 + 1), 12)
    else:
        # floor(-1/2 + sqrt(n(k0+1)/12)) via floor of 2*sqrt(...)
        t = isqrt(4 * n * (k0 + 1) * 12) // 12
        two_lambda = n - 1 - 2 * ((t - 1) // 2)
    return two_lambda // 2


def s_sum(n, k0):
    """Sum of the non-constant coefficients: n(n-1)(n-k0-3)/2."""
    return n * (n - 1) * (n - k0 - 3) // 2


def max_betti_bound(n, k0):
    """Upper bound -A_0/S = 2(3n-k0-1)/((n-1)(k0-n+3)) for the entry at the
    lambda threshold, valid when the coefficient sum S is negative."""
    if s_sum(n, k0) >= 0:
        raise NonNegativeS(f"coefficient sum is non-negative for n={n}, k0={k0}")
    return exact.ratio(2 * (3 * n - k0 - 1), (n - 1) * (k0 - n + 3))


class AdmissibleSet(SimpleNamespace):
    """The result of ``enumerate_admissible``: n, k0, the constraints as
    text, the half vectors found, the caps searched and whether the search
    is complete."""


def _is_unimodal_half(half):
    return all(a <= b for a, b in zip(half, half[1:]))


def enumerate_admissible(n, k0, require_unimodal=False, cap=None):
    """All positive symmetric vectors with C(k0, n, .) a non-negative
    multiple of k0, listed by their free half (positions 1..n//2).

    Three regimes:
      * every non-constant coefficient negative: the search is finite
        outright; unimodality is not needed and nothing is filtered by it;
      * some coefficient non-negative, unimodality assumed and k0 >= n-2:
        unimodality bounds the entries up to the sign-change threshold and
        is enforced on the output;
      * otherwise an explicit cap is required (completeness not asserted).

    A search over more than SEARCH_LIMIT candidates raises UnboundedSearch,
    and a negative cap MalformedVector.
    """
    m = n // 2
    if m < 1:
        raise MalformedVector("no free positions for dimension < 2")
    if not 1 <= k0 <= n + 1:
        raise MalformedVector(f"index {k0} outside [1, {n + 1}]")
    if cap is not None and cap < 0:
        raise MalformedVector(f"cap {cap} is negative")
    a = coefficients(n, k0)
    constraints = f"C(k0={k0}, n={n}, .) >= 0 and divisible by {k0}"

    if all(a[i] < 0 for i in range(1, m + 1)):
        slack = a[0] - sum(-a[j] for j in range(1, m + 1))
        caps = tuple(1 + slack // (-a[i]) for i in range(1, m + 1))
        filt_unimodal = False
        complete = True
    elif require_unimodal and k0 >= n - 2:
        lam = lambda_threshold(n, k0)
        bound = max_betti_bound(n, k0)
        top = int(bound)
        caps = [0] * m
        for i in range(1, lam + 1):
            caps[i - 1] = top
        pos_mass = a[0] + sum(a[j] * top for j in range(1, m + 1) if a[j] > 0)
        for i in range(lam + 1, m + 1):
            caps[i - 1] = max(top, pos_mass // (-a[i])) if a[i] < 0 else top
        caps = tuple(caps)
        filt_unimodal = True
        complete = True
        constraints += ", unimodal"
    elif cap is not None:
        caps = tuple(cap for _ in range(m))
        filt_unimodal = require_unimodal
        complete = False
        if require_unimodal:
            constraints += ", unimodal"
        constraints += f", searched up to cap {cap}"
    else:
        raise UnboundedSearch(
            f"finiteness not guaranteed for n={n}, k0={k0}; supply a cap"
        )

    if any(c < 1 for c in caps):
        return AdmissibleSet(n=n, k0=k0, constraints=constraints, half_vectors=[], caps=caps,
                             complete=complete)
    # Every cap is at least 1, so the product only grows: it is counted
    # exactly up to SEARCH_LIMIT**2, and past that read as a lower bound.
    size, rest = 1, iter(caps)
    for c in rest:
        size *= c
        if size > SEARCH_LIMIT**2:
            break
    if size > SEARCH_LIMIT:
        # a cap left unread makes the count a lower bound
        count = f"at least {size}" if next(rest, None) else size
        raise UnboundedSearch(
            f"the search for n={n}, k0={k0} has {count} candidates, more than the limit {SEARCH_LIMIT}"
        )

    found = []
    for half in product(*(range(1, c + 1) for c in caps)):
        if filt_unimodal and not _is_unimodal_half((1,) + half):
            continue
        val = a[0] + sum(c * b for c, b in zip(a[1:], half))
        if val >= 0 and val % k0 == 0:
            found.append(half)
    return AdmissibleSet(n=n, k0=k0, constraints=constraints, half_vectors=sorted(found),
                         caps=caps, complete=complete)


def table_c(n_range, k0_range):
    """Coefficient tuples of C(k0, n, .) over the requested ranges.

    Returns {(n, k0): (constant, coefficients of positions 1..n//2)} with
    position 0 substituted as 1, matching the printed table layout.
    A value of n or k0 below 1 raises MalformedVector.
    """
    for name, values in (("n", n_range), ("k0", k0_range)):
        low = min(values, default=1)
        if low < 1:
            raise MalformedVector(f"{name} = {low} is below 1")
    out = {}
    for n in n_range:
        for k0 in k0_range:
            if 1 <= k0 <= n + 1:
                a = coefficients(n, k0)
                out[(n, k0)] = (a[0], tuple(a[1:]))
    return out
