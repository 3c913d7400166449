"""Certified negative-eigenvalue counts for -u'' + q(x) u on finite intervals.

Sturm oscillation: the negative eigenvalues of a regular problem on [a, b]
are the zeros gained by the energy-0 solution, adjusted at the right end
for its boundary condition.  For piecewise-constant q the solution crosses
each piece in closed form (cos/sin, linear, cosh/sinh), and barrier pieces
are rescaled by exp(-sqrt(q)*len), so heights like 1e8 never overflow.

The domain is cut into segments (renewal intervals between bump centers,
or runs of equal values), and one numpy sweep carries both transfer
columns of every segment at once.  Each column keeps a closed-form log
scale g (kappa*len per barrier piece plus log r per normalization), so the
true transfer M is known.  Then N[0, X] = sum_k N_D(segment k) + neg(S):
S is tridiagonal on the cuts, assembled from each segment's energy-0
Dirichlet-to-Neumann map (1/m12)*[[m11, -1], [-1, m22]] (Dirichlet
decoupling plus Haynsworth inertia additivity).  At a stiff barrier the
coupling -1/m12 underflows to 0, the decoupled limit.  neg(S) counts the
negative LDL^T pivots; an exactly zero pivot counts as nonnegative, so a
zero eigenvalue is excluded as the strict count requires.

Non-constant envelopes W(x) are handled by monotone piecewise-constant
upper/lower approximations on a refined sub-piece grid, which yields a
certified count interval.  An independent finite-difference inertia count
cross-checks the oscillation counter.
"""

from __future__ import annotations

import itertools
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
    """A numerical routine failed past its built-in retry, or met an exact zero it cannot resolve."""


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

    ``lengths`` broadcasts against ``values``.  The transfer is
    ``[[c11, c12], [c21, c11]]``.  Barrier pieces carry the factor
    exp(-kappa*d); any positive rescaling leaves the projective solution
    (and hence all counts) unchanged.
    """
    q = np.asarray(values, dtype=float)
    d = np.broadcast_to(np.asarray(lengths, dtype=float), q.shape)
    om = np.sqrt(np.abs(q))
    t = om * d
    neg, pos = q < 0, q > 0
    st = np.sin(t, out=np.zeros_like(q), where=neg)
    half = -0.5 * np.expm1(-2.0 * t)  # (1 - exp(-2 kappa d))/2, in [0, 1/2] on barriers
    c11 = np.cos(t, out=1.0 - half, where=neg)
    c12 = np.divide(st, om, out=d.copy(), where=neg)
    np.divide(half, om, out=c12, where=pos)
    c21 = np.where(neg, -om * st, half * om)
    return neg, om, t, c11, c12, c21


def _sweep(lengths, envelopes, seg_idx):
    """Both transfer columns of every segment, for every envelope, in one pass.

    Segment k is pieces ``seg_idx[k]:seg_idx[k+1]``; column 0 starts at
    (u, u') = (1, 0), column 1 at (0, 1).  Returns ``(zeros, u, du, g)``, each
    of shape (envelopes, 2, segments): the zeros a column gains in the
    segment, its normalized end value and its log scale, so the true column
    is (u, du)*exp(g).  With segments in descending piece count, piece slot j
    updates the prefix of segments with more than j pieces; only that slot's
    coefficients are held.
    """
    sizes = np.diff(seg_idx)
    order = np.argsort(-sizes, kind="stable")
    starts, npieces = seg_idx[:-1][order], sizes[order]
    active = np.searchsorted(-npieces, -np.arange(npieces.max(initial=0)), side="left")
    shape = (len(envelopes), 2, len(starts))
    u = np.zeros(shape)
    u[:, 0] = 1.0
    du = 1.0 - u
    zeros, g = np.zeros(shape), np.zeros(shape)
    for j, m in enumerate(active.tolist()):
        p = starts[:m] + j
        coefficients = _piece_coefficients(lengths[p], np.stack([q[p] for q in envelopes]))
        osc, w, t, a11, a12, a21 = (c[:, None] for c in coefficients)  # shared by both columns
        u0, du0 = u[..., :m], du[..., :m]
        un = a11 * u0 + a12 * du0
        dn = a21 * u0 + a11 * du0
        phi = np.arctan2(w * u0, du0)
        crossed = np.floor((phi + t) / _PI) - np.floor(phi / _PI)
        flipped = (u0 != 0.0) & ((un == 0.0) | ((u0 > 0.0) != (un > 0.0)))
        zeros[..., :m] += np.where(osc, crossed, flipped)
        scale = np.where(osc, 0.0, t)
        # pure decaying branch annihilated by the rescaled transfer: it shrinks by exp(-kappa*d)
        dead = ~osc & (un == 0.0) & (dn == 0.0)
        if dead.any():
            un, dn = np.where(dead, u0, un), np.where(dead, -w * u0, dn)
            scale = np.where(dead, -t, scale)
        r = np.sqrt(un * un + dn * dn)
        if not r.all():
            raise NumericalError("solution vector vanished during propagation")
        np.divide(un, r, out=u0)
        np.divide(dn, r, out=du0)
        g[..., :m] += scale + np.log(r)
        del coefficients, osc, w, t, a11, a12, a21, un, dn, phi, crossed, scale, r  # freed before the next slot
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return tuple(a[..., back] for a in (zeros, u, du, g))


def _end_rule(zeros, u, du, bc: str):
    """Counts from a column's zeros and end value under a ``bc`` right end.

    A zero at a Dirichlet end means 0 is itself an eigenvalue, excluded from
    the (strictly) negative count; a Neumann end adds one when u*u' < 0.
    """
    return zeros - (u == 0.0) if bc == "D" else zeros + (u * du < 0.0)


def _segment_counts(sweep):
    """Per-segment ``(d, n)`` of a ``_sweep``, each of shape (envelopes, segments).

    ``d`` counts each segment with Dirichlet ends (column 1), ``n`` with
    Neumann ends (column 0).
    """
    zeros, u, du, _ = sweep
    d = _end_rule(zeros[:, 1], u[:, 1], du[:, 1], "D")
    n = _end_rule(zeros[:, 0], u[:, 0], du[:, 0], "N")
    return d.astype(np.int64), n.astype(np.int64)


def _interface_negatives(diag, b2) -> int:
    """Negative pivots of the LDL^T factorization of a symmetric tridiagonal S.

    ``b2[i]`` is the squared entry that couples rows i and i+1.  An exactly
    zero pivot counts as nonnegative and is replaced by a tiny positive
    value: the count is that of S plus a vanishing positive diagonal shift,
    which excludes a zero eigenvalue as the strict count must.
    """
    count, d = 0, math.inf  # first iteration reduces to d = a
    for a, b in zip(diag, itertools.chain([0.0], b2)):
        d = a - b / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = math.ulp(0.0)
    if math.isnan(d):
        raise NumericalError("interface factorization produced NaN")
    return count


def _domain_count(zeros, u, du, g, bc_left: str, bc_right: str) -> int:
    """Count on one envelope's segments (``_sweep`` arrays of shape (2, segments)).

    The first segment takes the left end condition (column 0 when it is
    Neumann), the last one the right end rule, and every cut is Dirichlet on
    both sides: N = sum_k N(segment k) + neg(S), S on the interior cuts.  A
    segment's DtN entries are m11/m12 = (u0/u1)*exp(g0 - g1), m22/m12 =
    du1/u1 and -1/m12 = -exp(-g1)/u1; an end segment with a Neumann outer end
    gives its one cut m21/m11 = du0/u0 (first) or m21/m22 = (du0/du1)*exp(g0
    - g1) (last), the Schur complement of that end node.
    """
    first = 0 if bc_left == "N" else 1  # the column that meets the left end condition
    z, uu, dd = zeros[1].copy(), u[1].copy(), du[1].copy()
    z[0], uu[0], dd[0] = zeros[first, 0], u[first, 0], du[first, 0]
    count = int(_end_rule(z[:-1], uu[:-1], dd[:-1], "D").sum() + _end_rule(z[-1], uu[-1], dd[-1], bc_right))
    if len(z) == 1:
        return count
    # node k (1 <= k < K) is the cut between segments k-1 and k
    num, den = u[0, 1:].copy(), u[1, 1:].copy()
    if bc_right == "N":
        num[-1], den[-1] = du[0, -1], du[1, -1]
    if not (uu[:-1].all() and den.all()):
        raise NumericalError("a segment has an eigenvalue at exactly 0: it has no Dirichlet-to-Neumann map")
    diag = dd[:-1] / uu[:-1] + num / den * np.exp(g[0, 1:] - g[1, 1:])
    b2 = np.square(np.exp(-g[1, 1:-1]) / u[1, 1:-1])  # couplings of the interior segments
    return count + _interface_negatives(diag.tolist(), b2.tolist())


def count_negative_exact(
    q: PiecewisePotential, bc_left: str = "D", bc_right: str = "D"
) -> CountCertificate:
    """Exact count of negative eigenvalues of -u'' + q u with the given ends.

    The segments are the runs of equal values, so a potential of distinct
    values takes one vectorized slot plus the interface factorization, and a
    constant one is a single walk.
    """
    _check_bc(bc_left)
    _check_bc(bc_right)
    if len(q.values) == 0:
        raise ValueError("empty piece list")
    if not np.all(np.isfinite(q.values)):
        raise ValueError("piece values must be finite")
    v = q.values
    cuts = np.append(np.flatnonzero(np.append(True, v[1:] != v[:-1])), len(v))
    n = _domain_count(*(a[0] for a in _sweep(q.lengths, (v,), cuts)), bc_left, bc_right)
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
    """``count_with_bracketed_w``'s certificate plus the (shallow, deep) ``_sweep`` of its last level."""
    for _, (lengths, q_shallow, q_deep, seg_idx) in _levels(real, pert, refine):
        sweep = _sweep(lengths, (q_shallow, q_deep), seg_idx)
        n_lo, n_hi = (_domain_count(*(a[e] for a in sweep), bc, bc) for e in (0, 1))
        if n_hi - n_lo <= 1:
            break
    return CountCertificate(n_lo=n_lo, n_hi=n_hi, method="prufer-exact", converged=n_hi - n_lo <= 1), sweep


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
    cert, sweep = _whole_domain(real, pert, "D", refine)
    d, n = _segment_counts(sweep)
    return int(d[0].sum()), cert, int(n[1].sum())


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
        d, n = _segment_counts(_sweep(lengths, (q_shallow, q_deep), seg_idx))
        d_per, n_per = d[0], n[1]
        # refinement narrows only the envelope slack; the D/N gap itself remains
        if final or d[1].sum() - d_per.sum() <= 1:
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
