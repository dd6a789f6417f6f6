"""Dimension of the space of C^r splines of degree at most d over a triangulation.

Two independent routes are implemented for meshes with a single totally
interior edge: a lattice count added to the classical lower bound, and a
piecewise closed form.  The dispatcher runs both and refuses to answer if
they ever disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import triangulation as tg
from .exact import binom, check_ints
from .power_ideal import TiePair, degree_thresholds, homology_dim, homology_regularity


METHODS = ("auto", "lattice", "explicit", "oracle")


class DimensionError(Exception):
    """Base class for dimension computation failures."""


class TrivialCase(DimensionError):
    """The configuration has no correction term; the lower bound is the answer."""


class OutOfBranch(DimensionError):
    """Closed-form piece evaluated outside the degrees where it holds."""


class UnsupportedTopology(DimensionError):
    """Mesh is neither quasi-cross-cut nor single-totally-interior-edge."""


def _lower_bound(n_interior_edges: int, slope_counts: Iterable[int], d: int, r: int) -> int:
    """Schumaker's lower bound from the interior edge count and the slope
    count at each interior vertex.

    Counts the base polynomials, one binomial per interior edge, and the
    division data of each interior vertex: with n distinct slopes, write
    n*(r+1) = alpha*(n-1) + nu with 0 <= nu < n - 1 and set mu = n - 1 - nu;
    the pair (mu, nu) weights two binomial terms.
    """
    check_ints("d and r", d, r, low=0)
    total = binom(d + 2, 2)
    coeff = n_interior_edges
    for n in slope_counts:
        if n < 2:
            raise ValueError("an interior vertex carries at least 2 slopes")
        alpha, nu = divmod(n * (r + 1), n - 1)
        total += (n - 1 - nu) * binom(d + 2 - alpha, 2) + nu * binom(d + 1 - alpha, 2)
        coeff -= n
    return total + coeff * binom(d + 1 - r, 2)


def schumaker_lower_bound(tri: tg.Triangulation, d: int, r: int) -> int:
    """Classical lower bound for dim C^r_d over any triangulation."""
    return _lower_bound(len(tri.interior_edges()),
                        [tg.slope_count(tri, v) for v in tri.interior_vertices], d, r)


def _tie_bound(p: int, q: int, s: int, t: int, d: int, r: int, tie: int) -> int:
    """Lower bound for p + q + tie interior edges and s + tie, t + tie slopes."""
    check_ints("p, q, s and t", p, q, s, t)
    return _lower_bound(p + q + tie, (s + tie, t + tie), d, r)


def schumaker_lower_bound_params(p: int, q: int, s: int, t: int, d: int, r: int) -> int:
    """Lower bound for the one-totally-interior-edge configuration.

    The mesh has p + q + 1 interior edges and two interior vertices whose
    stars carry s + 1 and t + 1 slopes (the shared edge included).
    """
    return _tie_bound(p, q, s, t, d, r, 1)


def schumaker_lower_bound_prime(p: int, q: int, s: int, t: int, d: int, r: int) -> int:
    """Lower bound for the companion mesh with the totally interior edge removed."""
    return _tie_bound(p, q, s, t, d, r, 0)


@dataclass(frozen=True)
class DimReport:
    r: int
    d: int
    lower_bound: int
    correction: int
    method: str

    @property
    def total(self) -> int:
        return self.lower_bound + self.correction


def _trivial_reason(params: tg.OneTieParams, r: int) -> str | None:
    """Why the correction vanishes in every degree (slope collision or t + 1 >= r + 3), or None."""
    if params.trivial_slope_collision:
        return "shared-edge slope reappears at an endpoint"
    if params.t + 1 >= r + 3:
        return f"an endpoint carries at least r + 3 = {r + 3} slopes"
    return None


def classify(tri: tg.Triangulation, r: int) -> tuple[str, str, tg.OneTieParams | None]:
    """Decide which formula gives the dimension of C^r_d over the mesh, and why.

    Returns (kind, reason, params).  kind is "quasi-cross-cut" or
    "trivial-case" (the dimension is the lower bound in every degree) or
    "one-tie" (the correction term is live); params is None only for
    quasi-cross-cut meshes.  Raises UnsupportedTopology unless the mesh is
    quasi-cross-cut or has a single totally interior edge.
    """
    check_ints("r", r, low=0)
    if tg.is_quasi_cross_cut(tri):
        return "quasi-cross-cut", "quasi-cross-cut mesh", None
    ties = tri.totally_interior_edges()
    if len(ties) != 1:
        raise UnsupportedTopology(
            f"{len(ties)} totally interior edges and not quasi-cross-cut")
    params = tg.extract_one_tie_params(tri)
    reason = _trivial_reason(params, r)
    if reason is not None:
        return "trivial-case", reason, params
    return "one-tie", "one totally interior edge", params


def _require_nontrivial(params: tg.OneTieParams, r: int) -> TiePair:
    check_ints("r", r, low=0)
    reason = _trivial_reason(params, r)
    if reason is not None:
        raise TrivialCase(f"{reason}; dim equals the lower bound")
    return TiePair(params.s, params.t, r)


def dim_lattice(params: tg.OneTieParams, d: int, r: int) -> DimReport:
    """Lower bound plus the lattice-count correction."""
    check_ints("d and r", d, r, low=0)
    tp = _require_nontrivial(params, r)
    lower = schumaker_lower_bound_params(params.p, params.q, params.s, params.t, d, r)
    corr = homology_dim(tp, d)
    return DimReport(r, d, lower, corr, "lattice")


def f_explicit(s: int, t: int, d: int, r: int) -> int:
    """Middle-branch excess over the lower bound, as a single finite sum.

    Needs integers 2 <= s <= t, as degree_thresholds does, and is only valid
    strictly between the two thresholds; raises OutOfBranch elsewhere.

    No summand is negative.  Summand i is floor(U) - ceil(L) + 1 for the
    rationals U = ((i - d)(s - 1) + r s) / s and L = (i + d(t - 1) - r t) / t,
    and s t (U - L) = i * den - num.  So every i >= start = ceil(num / den)
    has U >= L, and then ceil(L) - 1 < L <= U gives floor(U) >= ceil(L) - 1.
    """
    check_ints("d and r", d, r, low=0)
    low, high = degree_thresholds(s, t, r)
    if not low < d <= high:
        raise OutOfBranch(f"d={d} outside ({low}, {high}]")
    # the branch is empty unless t >= 3, so the denominator below is positive
    den = (s - 1) * (t - 1) - 1
    num = 2 * s * t * (d - r) - (s + t) * d
    start = -((-num) // den)
    total = 0
    for i in range(start, d - r):
        upper = ((i - d) * (s - 1) + r * s) // s
        lower = -((-(i + d * (t - 1) - r * t)) // t)
        total += upper - lower + 1
    return total


def dim_explicit(params: tg.OneTieParams, d: int, r: int) -> DimReport:
    """Piecewise closed form: companion bound, middle sum, or plain bound."""
    check_ints("d and r", d, r, low=0)
    _require_nontrivial(params, r)
    p, q, s, t = params.p, params.q, params.s, params.t
    lower = schumaker_lower_bound_params(p, q, s, t, d, r)
    low, high = degree_thresholds(s, t, r)
    if d <= low:
        correction = schumaker_lower_bound_prime(p, q, s, t, d, r) - lower
    elif d <= high:
        correction = f_explicit(s, t, d, r)
    else:
        # f_explicit's range is empty exactly here: start >= d - r holds iff
        # s t (d - r + 1) > (s + t)(r + 1), that is iff d > high.  The branch
        # stays so that high degrees skip a second degree_thresholds call.
        correction = 0
    return DimReport(r, d, lower, correction, "explicit")


def stabilization_degree(params: tg.OneTieParams, r: int) -> int:
    """First degree from which the dimension equals the lower bound forever."""
    tp = _require_nontrivial(params, r)
    return homology_regularity(tp) + 1


def dim(tri: tg.Triangulation, d: int, r: int, method: str = "auto",
        allow_large: bool = False) -> DimReport:
    """Dimension of C^r_d over the mesh.

    method "auto" classifies the mesh (quasi-cross-cut, trivial, or one
    totally interior edge) and runs both the lattice and closed-form routes,
    insisting they agree.  "lattice" and "explicit" force a single route;
    "oracle" sets up the smoothness linear system and counts its kernel.
    """
    check_ints("d and r", d, r, low=0)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lower = schumaker_lower_bound(tri, d, r)
    if method == "oracle":
        from . import oracle
        correction = oracle.dim_spline_oracle(tri, d, r, allow_large=allow_large) - lower
    elif method in ("lattice", "explicit"):
        params = tg.extract_one_tie_params(tri)
        rep = dim_lattice(params, d, r) if method == "lattice" else dim_explicit(params, d, r)
        correction = rep.correction
    else:
        kind, _, params = classify(tri, r)
        method, correction = kind, 0
        if kind == "one-tie":
            latt = dim_lattice(params, d, r)
            expl = dim_explicit(params, d, r)
            if latt.total != expl.total:
                raise DimensionError(f"internal disagreement at d={d}, r={r}: "
                                     f"lattice {latt.total} vs explicit {expl.total}")
            method, correction = "lattice", latt.correction
    # the one-tie routes report a correction on their local bound; rebase it on
    # the mesh-level bound: extra interior edges off the shared edge shift both
    # bounds by the same amount, the correction is local
    return DimReport(r, d, lower, correction, method)
