"""Dimension of the space of C^r splines of degree at most d over a triangulation.

Two independent routes are implemented for meshes with a single totally
interior edge: a lattice count added to the classical lower bound, and a
piecewise closed form.  The dispatcher runs both and refuses to answer if
they ever disagree.

Each public function checks its own arguments, in a fixed order.  The
private cores it calls (_lower_bound, _mesh_bound, _tie_bound and
_middle_sum here, and power_ideal's _branch) take them as checked and check
none again.  The closed form picks its branch once per call, with integer
tests alone (_branch, on the one statement of both thresholds in
power_ideal._thresholds).

_lower_bound is the one routine for the vertex term of the bound, and it
holds for every slope count, 0 and 1 included, so an upper bound that
peels vertices can reuse it.  Only the two public bounds that take slope
counts from outside refuse a vertex with fewer than 2 slopes, and a
negative edge count p or q, through _checked_tie_bound; a mesh never has
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import triangulation as tg
from .exact import binom, check_ints
from .power_ideal import TiePair, _branch, degree_thresholds, homology_dim, homology_regularity


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
    """Schumaker's lower bound from the interior edge count E and the slope
    count n of each interior vertex, for every n >= 0; checks nothing.

    L = C(d+2, 2) + E C(d-r+1, 2) - sum over the vertices of the rank
    S(n, d, r) = sum_{m=r+1}^{d} min(m + 1, n (m - r)) that a vertex with n
    slopes takes.  The sum of n (m - r) is n C(d-r+1, 2), which the loop takes
    off the edge coefficient; S falls short of it by the excess
    sum_m max(0, n (m - r) - (m + 1)), which the loop adds back.  The term
    n (m - r) - (m + 1) = (n - 1) m - n r - 1 is positive exactly when
    m >= alpha = floor(n (r + 1) / (n - 1)); with n (r + 1) = alpha (n - 1) + nu,
    0 <= nu < n - 1 and mu = n - 1 - nu, the excess is
    mu C(d+2-alpha, 2) + nu C(d+1-alpha, 2).  For n <= 1 the term is
    negative for every m >= 0, so the excess is 0.
    """
    total, coeff = binom(d + 2, 2), n_interior_edges
    for n in slope_counts:
        if n > 1:
            alpha, nu = divmod(n * (r + 1), n - 1)
            total += (n - 1 - nu) * binom(d + 2 - alpha, 2) + nu * binom(d + 1 - alpha, 2)
        coeff -= n
    return total + coeff * binom(d + 1 - r, 2)


def _mesh_bound(tri: tg.Triangulation, d: int, r: int) -> int:
    """_lower_bound from the mesh's interior edges and interior vertex slopes."""
    return _lower_bound(len(tri.interior_edges()),
                        [tg.slope_count(tri, v) for v in tri.interior_vertices], d, r)


def schumaker_lower_bound(tri: tg.Triangulation, d: int, r: int) -> int:
    """Classical lower bound for dim C^r_d over any triangulation."""
    check_ints("d and r", d, r, low=0)
    return _mesh_bound(tri, d, r)


def _tie_bound(p: int, q: int, s: int, t: int, d: int, r: int, tie: int) -> int:
    """Lower bound for p + q + tie interior edges and s + tie, t + tie slopes."""
    return _lower_bound(p + q + tie, (s + tie, t + tie), d, r)


def _checked_tie_bound(p: int, q: int, s: int, t: int, d: int, r: int, tie: int) -> int:
    """_tie_bound after the checks of the two public bounds that take s and t.

    p and q count edges, so neither is negative, and a vertex inside a mesh
    carries at least 2 slopes, since build rejects a fan whose edges lie in
    a closed half-plane; these two bounds take the counts from outside, so
    they check both here, after the types and d and r.
    """
    check_ints("p, q, s and t", p, q, s, t)
    check_ints("d and r", d, r, low=0)
    check_ints("p and q", p, q, low=0)
    if min(s, t) + tie < 2:
        raise ValueError("an interior vertex carries at least 2 slopes")
    return _tie_bound(p, q, s, t, d, r, tie)


def schumaker_lower_bound_params(p: int, q: int, s: int, t: int, d: int, r: int) -> int:
    """Lower bound for the one-totally-interior-edge configuration.

    The mesh has p + q + 1 interior edges and two interior vertices whose
    stars carry s + 1 and t + 1 slopes (the shared edge included).
    """
    return _checked_tie_bound(p, q, s, t, d, r, 1)


def schumaker_lower_bound_prime(p: int, q: int, s: int, t: int, d: int, r: int) -> int:
    """Lower bound for the companion mesh with the totally interior edge removed."""
    return _checked_tie_bound(p, q, s, t, d, r, 0)


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
    if len(tri.ties) != 1:
        raise UnsupportedTopology(
            f"{len(tri.ties)} totally interior edges and not quasi-cross-cut")
    params = tg.extract_one_tie_params(tri)
    reason = _trivial_reason(params, r)
    if reason is not None:
        return "trivial-case", reason, params
    return "one-tie", "one totally interior edge", params


def _require_nontrivial(params: tg.OneTieParams, r: int) -> TiePair:
    """The (s, t, r) of params, or TrivialCase; the caller has checked r."""
    reason = _trivial_reason(params, r)
    if reason is not None:
        raise TrivialCase(f"{reason}; dim equals the lower bound")
    return TiePair(params.s, params.t, r)


def dim_lattice(params: tg.OneTieParams, d: int, r: int) -> DimReport:
    """Lower bound plus the lattice-count correction."""
    check_ints("d and r", d, r, low=0)
    tp = _require_nontrivial(params, r)
    lower = _tie_bound(params.p, params.q, params.s, params.t, d, r, 1)
    return DimReport(r, d, lower, homology_dim(tp, d), "lattice")


def _middle_sum(s: int, t: int, d: int, r: int) -> int:
    """f_explicit's sum, for checked arguments strictly between the thresholds.

    No summand is negative.  Summand i is floor(U) - ceil(L) + 1 for the
    rationals U = ((i - d)(s - 1) + r s) / s and L = (i + d(t - 1) - r t) / t,
    and s t (U - L) = i * den - num.  So every i >= start = ceil(num / den)
    has U >= L, and then ceil(L) - 1 < L <= U gives floor(U) >= ceil(L) - 1.
    """
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


def f_explicit(s: int, t: int, d: int, r: int) -> int:
    """Middle-branch excess over the lower bound, as a single finite sum.

    Needs integers 2 <= s <= t, checked as degree_thresholds checks them,
    and is only valid strictly between the two thresholds; raises
    OutOfBranch elsewhere.
    """
    check_ints("d and r", d, r, low=0)
    check_ints("s, t and r", s, t, r)
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got {s!r}, {t!r}")
    if _branch(s, t, d, r) != 1:
        low, high = degree_thresholds(s, t, r)
        raise OutOfBranch(f"d={d} outside ({low}, {high}]")
    return _middle_sum(s, t, d, r)


def dim_explicit(params: tg.OneTieParams, d: int, r: int) -> DimReport:
    """Piecewise closed form: companion bound, middle sum, or plain bound,
    as d <= low, low < d <= high or d > high (_branch)."""
    check_ints("d and r", d, r, low=0)
    _require_nontrivial(params, r)
    p, q, s, t = params.p, params.q, params.s, params.t
    lower = _tie_bound(p, q, s, t, d, r, 1)
    branch = _branch(s, t, d, r)
    if branch == 0:
        correction = _tie_bound(p, q, s, t, d, r, 0) - lower
    elif branch == 1:
        correction = _middle_sum(s, t, d, r)
    else:
        # _middle_sum's range is empty exactly here: start >= d - r holds iff
        # s t (d - r + 1) > (s + t)(r + 1), that is iff d > high.  Its
        # denominator is 0 when s = t = 2, so the plain bound needs its own
        # branch.
        correction = 0
    return DimReport(r, d, lower, correction, "explicit")


def stabilization_degree(params: tg.OneTieParams, r: int) -> int:
    """First degree from which the dimension equals the lower bound forever."""
    check_ints("r", r, low=0)
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
    lower = _mesh_bound(tri, d, r)
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
