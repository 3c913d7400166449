"""Certified negative-eigenvalue counts for -u'' + q(x) u on finite intervals.

The number of negative eigenvalues of a regular problem on [a, b] equals the
number of zeros gained by the energy-zero solution of the Cauchy problem
(Sturm oscillation), adjusted at the right endpoint for the boundary
condition.  For piecewise-constant q the solution propagates across each
piece in closed form -- cos/sin where q < 0, linear where q = 0, cosh/sinh
where q > 0 -- so zero counts are exact up to floating point and cost one
pass over the pieces.  On barrier pieces the transfer coefficients are
rescaled by exp(-sqrt(q)*len); counts depend only on the projective
solution, so the rescaling is harmless and heights like 1e8 never overflow.

Non-constant envelopes W(x) are handled by monotone piecewise-constant
upper/lower approximations on a refined sub-piece grid, which yields a
certified count interval.  An independent finite-difference inertia count
(Sylvester's law applied to the tridiagonal discretization) cross-checks
the oscillation counter.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from .randpot import Perturbation, PotentialRealization

__all__ = [
    "PiecewisePotential",
    "CountCertificate",
    "WellGeometry",
    "NumericalError",
    "count_negative_exact",
    "fd_inertia_count",
    "count_with_bracketed_w",
    "bracket_certificate",
    "sandwich_counts",
    "decoupled_count",
    "well_ground_state",
    "well_ground_asymptotic",
    "edge_penetration_depth",
]

_PI = math.pi


class NumericalError(RuntimeError):
    """A numerical routine failed past its built-in retry."""


def _check_bc(bc: str) -> str:
    if bc not in ("D", "N"):
        raise ValueError(f"boundary condition must be 'D' or 'N', got {bc!r}")
    return bc


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class PiecewisePotential:
    """Piecewise-constant potential: values[i] on [breakpoints[i], breakpoints[i+1]]."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(vals) != len(bp) - 1:
            raise ValueError("need exactly one value per piece")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def evaluate(self, x) -> np.ndarray:
        """Value of the piece containing x (right-continuous at breakpoints)."""
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, arr, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class IntervalCounts(Sequence):
    """Immutable sequence of ``(k, d, n)``, the D and N counts of renewal interval k, backed
    by two arrays of the smallest unsigned dtype that holds the largest count (at X = 1e5
    about 133 kB, against about 7 MB as tuples)."""

    d: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        if min(np.min(self.d, initial=0), np.min(self.n, initial=0)) < 0:
            raise ValueError("interval counts must be nonnegative")
        dtype = np.min_scalar_type(max(np.max(self.d, initial=0), np.max(self.n, initial=0)))
        for name in ("d", "n"):
            arr = np.asarray(getattr(self, name)).astype(dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, k: int) -> Tuple[int, int, int]:
        k = range(len(self.d))[operator.index(k)]  # no slices; negative k wraps, out of range raises
        return k, int(self.d[k]), int(self.n[k])

    def __iter__(self):
        return zip(range(len(self.d)), self.d.tolist(), self.n.tolist())

    def __eq__(self, other):
        return isinstance(other, IntervalCounts) and np.array_equal(self.d, other.d) and np.array_equal(self.n, other.n)

    def __hash__(self):
        return hash((self.d.tobytes(), self.n.tobytes()))  # equal counts have equal dtypes

    def __reduce__(self):  # rebuild through __post_init__, so unpickled arrays stay read-only
        return IntervalCounts, (self.d, self.n)


@dataclass(frozen=True)
class CountCertificate:
    """Certified interval [n_lo, n_hi] for the number of negative eigenvalues."""

    n_lo: int
    n_hi: int
    method: str
    per_interval: Optional[IntervalCounts] = None
    converged: bool = True

    def __post_init__(self):
        if not (0 <= self.n_lo <= self.n_hi):
            raise ValueError("certificate needs 0 <= n_lo <= n_hi")

    @property
    def width(self) -> int:
        return self.n_hi - self.n_lo


@dataclass(frozen=True)
class WellGeometry:
    """Symmetric well of inner half-width L, flanked by bumps of width l and height h."""

    L: float
    l: float
    h: float
    bc: str = "D"

    def __post_init__(self):
        if not (self.L > 0 and self.l > 0 and self.h > 0):
            raise ValueError("well geometry needs L, l, h all positive")
        _check_bc(self.bc)


# ---------------------------------------------------------------------------
# oscillation counting on piecewise-constant q


def _piece_coefficients(lengths, values):
    """Transfer coefficients of the energy-0 solution for each piece.

    Barrier pieces carry the factor exp(-kappa*d); any positive rescaling
    leaves the projective solution (and hence all counts) unchanged.
    """
    d = np.asarray(lengths, dtype=float)
    q = np.asarray(values, dtype=float)
    om = np.sqrt(np.abs(q))
    t = om * d
    c11 = np.ones_like(q)
    c12 = d.copy()
    c21 = np.zeros_like(q)
    c22 = np.ones_like(q)
    neg = q < 0
    if np.any(neg):
        ct, st, w = np.cos(t[neg]), np.sin(t[neg]), om[neg]
        c11[neg] = ct
        c12[neg] = st / w
        c21[neg] = -w * st
        c22[neg] = ct
    pos = q > 0
    if np.any(pos):
        em = -np.expm1(-2.0 * t[pos])  # 1 - exp(-2 kappa d), in [0, 1]
        w = om[pos]
        c11[pos] = 1.0 - 0.5 * em
        c12[pos] = 0.5 * em / w
        c21[pos] = 0.5 * em * w
        c22[pos] = 1.0 - 0.5 * em
    return neg, om, t, c11, c12, c21, c22


def _propagate_count(lengths, values, bc_left: str, bc_right: str) -> int:
    """Negative-eigenvalue count by zero counting of the energy-0 solution.

    Zeros landing exactly on a breakpoint are counted once and attributed to
    the left piece; a zero at the right endpoint means 0 is itself a
    Dirichlet eigenvalue and is excluded from the (strictly) negative count.
    """
    neg, om, t, c11, c12, c21, c22 = _piece_coefficients(lengths, values)
    u, du = (0.0, 1.0) if bc_left == "D" else (1.0, 0.0)
    zeros = 0
    atan2, floor, hypot, pi = math.atan2, math.floor, math.hypot, _PI
    for osc, w, tt, a11, a12, a21, a22 in zip(
        neg.tolist(), om.tolist(), t.tolist(),
        c11.tolist(), c12.tolist(), c21.tolist(), c22.tolist(),
    ):
        if osc:
            # zeros in (0, d]: integer multiples of pi crossed by the local phase
            phi = atan2(w * u, du)
            zeros += floor((phi + tt) / pi) - floor(phi / pi)
            un = a11 * u + a12 * du
            dn = a21 * u + a22 * du
        else:
            un = a11 * u + a12 * du
            dn = a21 * u + a22 * du
            if u != 0.0 and (un == 0.0 or (u > 0.0) != (un > 0.0)):
                zeros += 1  # convex pieces gain at most one zero
            if un == 0.0 and dn == 0.0:
                # pure decaying branch annihilated by the rescaled transfer
                un, dn = u, -w * u
        r = hypot(un, dn)
        if r == 0.0:
            raise NumericalError("solution vector vanished during propagation")
        u, du = un / r, dn / r
    if bc_right == "D":
        return zeros - (1 if u == 0.0 else 0)
    return zeros + (1 if u * du < 0.0 else 0)


def count_negative_exact(
    q: PiecewisePotential, bc_left: str = "D", bc_right: str = "D"
) -> CountCertificate:
    """Exact count of negative eigenvalues of -u'' + q u with the given ends."""
    _check_bc(bc_left)
    _check_bc(bc_right)
    if len(q.values) == 0:
        raise ValueError("empty piece list")
    if not np.all(np.isfinite(q.values)):
        raise ValueError("piece values must be finite")
    n = _propagate_count(q.lengths, q.values, bc_left, bc_right)
    return CountCertificate(n_lo=n, n_hi=n, method="prufer-exact")


# ---------------------------------------------------------------------------
# finite-difference inertia oracle


def _negative_pivots(diag, b2: float) -> int:
    """Negative pivots of the symmetric tridiagonal LDL^T factorization.

    ``b2`` is the common squared off-diagonal entry.  Raises ZeroDivisionError
    on an exactly-zero pivot so the caller can retry with a shift.
    """
    count = 0
    d = math.inf  # first iteration reduces to d = a
    for a in diag:
        d = a - b2 / d
        if d == 0.0:
            raise ZeroDivisionError
        if d < 0.0:
            count += 1
    return count


def fd_inertia_count(
    q_eval: Callable[[np.ndarray], np.ndarray],
    X: float,
    n_mesh: int,
    bc: Union[str, Tuple[str, str]] = "D",
) -> int:
    """Negative eigenvalues of the finite-difference discretization on [0, X].

    Standard second-order stencil on ``n_mesh`` interior points with step
    X/(n_mesh+1); Neumann ends add the boundary point with a mirrored
    ghost-node row (first-order accurate there, which is fine because only
    the count is used).  The count is the number of negative pivots of the
    tridiagonal factorization, by Sylvester's law of inertia.
    """
    bl, br = (bc, bc) if isinstance(bc, str) else bc
    _check_bc(bl)
    _check_bc(br)
    if n_mesh < 10:
        raise ValueError("mesh too coarse: need n_mesh >= 10")
    if not X > 0:
        raise ValueError("domain length must be positive")
    grid = np.linspace(0.0, X, n_mesh + 2)
    qs = np.asarray(q_eval(grid), dtype=float)
    if qs.shape != grid.shape or not np.all(np.isfinite(qs)):
        raise ValueError("q_eval must return finite values on the grid")
    inv2 = 1.0 / (grid[1] - grid[0]) ** 2
    diag = 2.0 * inv2 + qs[1:-1]
    if bl == "N":
        diag = np.concatenate([[inv2 + 0.5 * qs[0]], diag])
    if br == "N":
        diag = np.concatenate([diag, [inv2 + 0.5 * qs[-1]]])
    b2 = inv2 * inv2
    try:
        return _negative_pivots(diag.tolist(), b2)
    except ZeroDivisionError:
        shift = 1e-12 * max(1.0, float(np.max(np.abs(qs))))
        try:
            return _negative_pivots((diag + shift).tolist(), b2)
        except ZeroDivisionError:
            raise NumericalError("exactly-zero pivot persisted after shift retry") from None


# ---------------------------------------------------------------------------
# bracketed counts for realizations with a decaying envelope

_BUMP_SUBDIV_RATIO = 4  # barrier pieces refine 4x slower: envelope slack there is inert


def _subdivide(edges, values, seg_edge_idx, pert: Perturbation, s: int):
    """Sub-piece arrays plus the two monotone envelope potentials for one level.

    Wells get ``s`` sub-pieces each, barriers s/4 (at least one); the
    envelope slack on a barrier cannot move the count once h dominates
    W.  Doubling ``s`` nests the grids, so brackets tighten monotonically.
    The index arrays live only in this frame, so they are freed before the
    caller sweeps the level.
    """
    base_len = np.diff(edges)
    subs = np.where(values == 0.0, s, max(1, s // _BUMP_SUBDIV_RATIO))
    csub = np.concatenate([[0], np.cumsum(subs)])
    total = int(csub[-1])
    rep = np.repeat(np.arange(len(subs)), subs)
    local = np.arange(total) - csub[rep]
    denom = subs[rep].astype(float)
    start = edges[:-1][rep]
    blen = base_len[rep]
    lefts = start + blen * (local / denom)
    rights = start + blen * ((local + 1.0) / denom)
    lengths = blen / denom
    vrep = values[rep]
    q_deep = vrep - np.asarray(pert(lefts), dtype=float)      # W(left) >= W: more states
    q_shallow = vrep - np.asarray(pert(rights), dtype=float)  # W(right) <= W: fewer states
    seg_sub_idx = csub[seg_edge_idx]
    return lengths, q_shallow, q_deep, seg_sub_idx


def _levels(real: PotentialRealization, pert: Perturbation, refine: int) -> Iterator[Tuple[bool, tuple]]:
    """Yield ``(final, (lengths, q_shallow, q_deep, seg_idx))`` per refinement level.

    The base grid cuts [0, X] at bump edges, bump centers and the domain
    ends.  Centers are included so the renewal-interval partition
    [x_k, x_{k+1}] aligns with base pieces: interval sums and the
    whole-domain count can then share one envelope grid, which makes the
    two-sided comparison exact rather than merely statistical.  One base
    grid serves every level; sub-pieces per well go 4, 8, ... up to
    ``refine``, and ``final`` marks the last level the budget allows.
    """
    if refine < 1:
        raise ValueError("refinement budget must be >= 1")
    X, l, centers = real.X, real.l, real.centers
    inside = centers[(centers > 0) & (centers < X)]
    edges = np.unique(np.concatenate([[0.0, X], np.clip(centers - l, 0.0, X), inside, np.clip(centers + l, 0.0, X)]))
    values = real.potential(0.5 * (edges[:-1] + edges[1:]))
    # renewal partition {0, x_1, ..., x_K, X} as indices into edges
    seg_edge_idx = np.searchsorted(edges, np.concatenate([[0.0], inside, [X]]))
    s = min(4, refine)
    while True:
        yield s >= refine, _subdivide(edges, values, seg_edge_idx, pert, s)
        if s >= refine:
            return
        s = min(2 * s, refine)


def _whole_domain(real, pert: Perturbation, bc: str, refine: int):
    """``count_with_bracketed_w``'s certificate plus the level arrays it stopped on."""
    for _, level in _levels(real, pert, refine):
        lengths, q_shallow, q_deep, _ = level
        n_lo = _propagate_count(lengths, q_shallow, bc, bc)
        n_hi = _propagate_count(lengths, q_deep, bc, bc)
        if n_hi - n_lo <= 1:
            break
    cert = CountCertificate(
        n_lo=n_lo, n_hi=n_hi, method="prufer-exact", converged=(n_hi - n_lo <= 1)
    )
    return cert, level


def count_with_bracketed_w(
    real: PotentialRealization,
    pert: Perturbation,
    bc: str = "D",
    refine: int = 64,
) -> CountCertificate:
    """Certified count interval for -u'' + V - W on [0, X] with ``bc`` at both ends.

    On every sub-piece the nonincreasing W is sandwiched between its values
    at the right and left ends; the two resulting piecewise-constant
    potentials give [count, count] bounds by Sturm comparison.  Sub-pieces
    per well start at 4 and double until the bracket width is at most 1 or
    the budget is exhausted (then the certificate is flagged unconverged).
    """
    _check_bc(bc)
    return _whole_domain(real, pert, bc, refine)[0]


def _segment_counts(lengths, values, seg_idx, bc: str) -> np.ndarray:
    """``_propagate_count`` of every renewal interval, ``bc`` at both ends, in one sweep.

    ``np.arctan2`` and ``np.hypot`` can differ from ``math``'s by an ulp, so
    counts can differ from the scalar counter's only at near-ties.
    """
    neg, om, t, c11, c12, c21, c22 = _piece_coefficients(lengths, values)
    order = np.argsort(-np.diff(seg_idx), kind="stable")
    starts, npieces = seg_idx[:-1][order], np.diff(seg_idx)[order]
    # with segments in descending piece count, slot j updates the prefix with more than j pieces
    active = np.searchsorted(-npieces, -np.arange(npieces.max(initial=0)), side="left")
    u = np.full(len(starts), 0.0 if bc == "D" else 1.0)  # (u, du) starts at (0, 1) for D, (1, 0) for N
    du = 1.0 - u
    zeros = np.zeros(len(starts))
    for j, m in enumerate(active.tolist()):
        p, u0, du0 = starts[:m] + j, u[:m], du[:m]
        osc, w = neg[p], om[p]
        un = c11[p] * u0 + c12[p] * du0
        dn = c21[p] * u0 + c22[p] * du0
        # oscillating pieces: multiples of pi crossed by the local phase;
        # convex pieces gain at most one zero
        phi = np.arctan2(w * u0, du0)
        crossed = np.floor((phi + t[p]) / _PI) - np.floor(phi / _PI)
        flipped = (u0 != 0.0) & ((un == 0.0) | ((u0 > 0.0) != (un > 0.0)))
        zeros[:m] += np.where(osc, crossed, flipped)
        # pure decaying branch annihilated by the rescaled transfer
        dead = ~osc & (un == 0.0) & (dn == 0.0)
        un, dn = np.where(dead, u0, un), np.where(dead, -w * u0, dn)
        r = np.hypot(un, dn)
        if not r.all():
            raise NumericalError("solution vector vanished during propagation")
        u[:m], du[:m] = un / r, dn / r
    if bc == "D":
        zeros -= u == 0.0
    else:
        zeros += u * du < 0.0
    return zeros[np.argsort(order)].astype(np.int64)


def sandwich_counts(
    real: PotentialRealization,
    pert: Perturbation,
    refine: int = 64,
) -> Tuple[int, CountCertificate, int]:
    """(n_D, whole-domain certificate, n_N) on one shared envelope grid.

    Because segment and whole-domain counts use identical piecewise
    potentials, Dirichlet-Neumann bracketing gives the exact chain
    n_D <= n_lo <= n_hi <= n_N, not just a statistical tendency.  The
    interval sums are taken once, on the level where the certificate stopped.
    """
    cert, (lengths, q_shallow, q_deep, seg_idx) = _whole_domain(real, pert, "D", refine)
    n_d = int(_segment_counts(lengths, q_shallow, seg_idx, "D").sum())
    n_n = int(_segment_counts(lengths, q_deep, seg_idx, "N").sum())
    return n_d, cert, n_n


def bracket_certificate(
    real: PotentialRealization,
    pert: Perturbation,
    refine: int = 64,
) -> CountCertificate:
    """Interval-decomposed certificate: n_lo from Dirichlet sums, n_hi from Neumann.

    Each renewal interval [x_k, x_{k+1}] (plus the leading [0, x_1] and any
    trailing stub) is counted with D-D and N-N ends using the conservative
    side of the envelope, so the pair brackets the true count even before
    envelope refinement converges.
    """
    for final, (lengths, q_shallow, q_deep, seg_idx) in _levels(real, pert, refine):
        d_per = _segment_counts(lengths, q_shallow, seg_idx, "D")
        n_per = _segment_counts(lengths, q_deep, seg_idx, "N")
        # refinement narrows only the envelope slack; the D/N gap itself remains
        if final or _segment_counts(lengths, q_deep, seg_idx, "D").sum() - d_per.sum() <= 1:
            break
    return CountCertificate(n_lo=int(d_per.sum()), n_hi=int(n_per.sum()), method="bracket-DN",
                            per_interval=IntervalCounts(d_per, n_per), converged=True)


# ---------------------------------------------------------------------------
# decoupled hard-wall model


def decoupled_count(weights: Sequence[Tuple[float, float]]) -> int:
    """Total count for decoupled hard-wall wells: sum of floor(sqrt(w)*L/pi)."""
    arr = np.asarray(list(weights), dtype=float)
    if arr.size == 0:
        return 0
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("weights must be (w, L) pairs")
    if np.any(arr < 0):
        raise ValueError("weights and lengths must be nonnegative")
    w, length = arr[:, 0], arr[:, 1]
    return int(np.sum(np.floor(np.sqrt(w) * length / _PI)))


# ---------------------------------------------------------------------------
# single symmetric well: ground state and its large-L asymptotics


def _edge_matching(k: float, h: float, l: float, bc: str) -> float:
    """Right-hand side of the ground-state matching relation k*tan(k*L) = rhs(k).

    Continued analytically through k*k = h so the matching function stays
    continuous when the bracket reaches past the bump height.
    """
    d = h - k * k
    if d > 0.0:
        s = math.sqrt(d)
        return s / math.tanh(s * l) if bc == "D" else s * math.tanh(s * l)
    if d == 0.0:
        return 1.0 / l if bc == "D" else 0.0
    s = math.sqrt(-d)
    return s / math.tan(s * l) if bc == "D" else -s * math.tan(s * l)


def well_ground_state(geom: WellGeometry) -> float:
    """Lowest eigenvalue mu0 = k0**2 of the symmetric flanked well.

    k0 is the unique root of k*tan(k*L) = rhs(k) in (0, pi/(2L)); bisection
    runs to machine precision, which keeps the matching residual at the
    root far below 1e-9 even in the hard-wall regime.
    """
    L, l, h, bc = geom.L, geom.l, geom.h, geom.bc
    k_hi = _PI / (2.0 * L)
    a = 1e-9 * k_hi
    b = k_hi * (1.0 - 1e-12)
    f = lambda k: k * math.tan(k * L) - _edge_matching(k, h, l, bc)
    fa, fb = f(a), f(b)
    if not (fa < 0.0 < fb):
        raise NumericalError("no sign change in the ground-state bracket (invalid geometry?)")
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if f(m) < 0.0:
            a = m
        else:
            b = m
    k0 = 0.5 * (a + b)
    return k0 * k0


def edge_penetration_depth(h: float, l: float, bc: str = "D") -> float:
    """Length by which the ground state leaks into a flanking bump.

    Equals 1/(sqrt(h)*coth(sqrt(h)*l)) for Dirichlet outer walls and
    1/(sqrt(h)*tanh(sqrt(h)*l)) for Neumann; both vanish as h -> infinity.
    """
    _check_bc(bc)
    if not (h > 0 and l > 0):
        raise ValueError("need h > 0 and l > 0")
    sh = math.sqrt(h)
    th = math.tanh(sh * l)
    return th / sh if bc == "D" else 1.0 / (sh * th)


def well_ground_asymptotic(geom: WellGeometry) -> float:
    """Large-L approximation of the well ground state.

    sqrt(mu0) ~ (pi/2L)*(1 - b0/L) with b0 the edge penetration depth; the
    remainder is O(1/L**3) in sqrt(mu0).
    """
    b0 = edge_penetration_depth(geom.h, geom.l, geom.bc)
    root = (_PI / (2.0 * geom.L)) * (1.0 - b0 / geom.L)
    return root * root
