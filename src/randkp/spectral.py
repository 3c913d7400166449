"""Certified negative-eigenvalue counts for -u'' + q(x) u on finite intervals.

Sturm oscillation: the negative eigenvalues of a regular problem on [a, b]
are the zeros gained by the energy-0 solution, adjusted at the right end
for its boundary condition.  For piecewise-constant q the solution crosses
each piece in closed form (cos/sin, linear, cosh/sinh), and barrier pieces
are rescaled by exp(-sqrt(q)*len), so heights like 1e8 never overflow.

The domain is cut into segments (renewal intervals between bump centers,
or runs of equal values), and one numpy sweep carries both transfer
columns of every segment at once, slot by slot (slot j is the j-th piece
of each segment).  Slots run in groups of a fixed piece budget: numpy's
per-call cost dominates at small X, so a group takes its coefficients and
its zero counts in one pass each, and at large X the budget bounds the
memory a group holds.  Each segment keeps kd, the kappa*len sum of its
barrier pieces, and each column its own log scale g (log r per
normalization), so the true transfer M is known and column ratios never
cancel two huge kd.  Then N[0, X] = sum_k N_D(segment k) + neg(S):
S is tridiagonal on the cuts, assembled from each segment's energy-0
Dirichlet-to-Neumann map (1/m12)*[[m11, -1], [-1, m22]] (Dirichlet
decoupling plus Haynsworth inertia additivity).  At a stiff barrier the
coupling -1/m12 underflows to 0, the decoupled limit.  neg(S) counts the
negative LDL^T pivots; an exactly zero pivot counts as nonnegative, so a
zero eigenvalue is excluded as the strict count requires.  The pivots
settle in vectorized rounds, a fixed point of the recurrence compared
exactly, so they are the scalar loop's to the bit.

Non-constant envelopes W(x) are handled by monotone piecewise-constant
upper/lower approximations on a refined sub-piece grid, which yields a
certified count interval.  A realization is counted in one pass over its
renewal segments in x-ordered blocks of a fixed sub-piece budget, so memory
does not grow with X: the walk over the cuts (last pivot, running counts,
and the left half of the cut between two blocks) carries from block to
block.  A block is one span of base pieces.  A checkpoint x with K
centers before it ends a block, whose span runs on to x, so its last
segment is the tail [x_K, x] on the truncation's own grid; the tail's
counts and one more pivot settle x, and each checkpoint's certificate is
bit-identical to a count on that truncation.
An independent finite-difference inertia count cross-checks the
oscillation counter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

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
    "well_ground_state",
    "well_ground_asymptotic",
    "edge_penetration_depth",
]

_PI = math.pi


class NumericalError(RuntimeError):
    """A numerical routine met an exact zero it cannot resolve, a count too large to hold exactly, or a float overflow."""


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
        for name, arr in (("breakpoint", bp), ("value", vals)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}s must be finite, got {name} {float(arr[~np.isfinite(arr)][0])!r}")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def evaluate(self, x) -> np.ndarray:
        """Value of the piece containing x (right-continuous at breakpoints, held past either end).

        A sorted 1-D ``x``, such as a grid, takes one search of the interior
        breakpoints into ``x`` and one repeat of the values; other input
        searches the breakpoints once per point.  NaN is a ValueError.
        """
        x, inner = np.asarray(x, dtype=float), self.breakpoints[1:-1]
        if x.ndim == 1 and (x[1:] >= x[:-1]).all() and not np.isnan(x[:1]).any():  # NaN fails the >= pairs
            ends = np.searchsorted(x, inner, side="left")  # piece j takes the points in [bp[j], bp[j+1])
            return np.repeat(self.values, np.diff(ends, prepend=0, append=len(x)))
        if np.isnan(x).any():
            raise ValueError("cannot evaluate the potential at x=nan")
        return self.values[np.searchsorted(inner, x, side="right")]


@dataclass(frozen=True)
class IntervalCounts:
    """The D and N counts of each renewal interval, iterated as ``(k, d, n)``, stored as bytes
    of the smallest unsigned dtype that holds the largest count (at X = 1e5 about 133 kB,
    against about 7 MB as tuples)."""

    d: bytes
    n: bytes
    dtype: str

    @classmethod
    def from_arrays(cls, d: Sequence[np.ndarray], n: Sequence[np.ndarray]) -> IntervalCounts:
        """The counts from consecutive parts of the D and N arrays; each part is copied once, into the bytes."""
        if min((np.min(a, initial=0) for a in (*d, *n)), default=0) < 0:  # the unsigned cast would wrap it
            raise ValueError("interval counts must be nonnegative")
        dtype = np.min_scalar_type(max((np.max(a, initial=0) for a in (*d, *n)), default=0))
        d, n = (b"".join(a.astype(dtype, copy=False).tobytes() for a in parts) for parts in (d, n))
        return cls(d, n, dtype.str)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        d, n = (np.frombuffer(b, self.dtype).tolist() for b in (self.d, self.n))
        return zip(range(len(d)), d, n)


@dataclass(frozen=True)
class CountCertificate:
    """Certified interval [n_lo, n_hi] for the number of negative eigenvalues."""

    n_lo: int
    n_hi: int
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
        if not (0 < self.L < math.inf and self.l > 0 and 0 < self.h < math.inf):  # l = inf: a semi-infinite flank
            raise ValueError(f"well geometry needs finite L > 0 and h > 0 and l > 0, "
                             f"got L={self.L!r}, l={self.l!r}, h={self.h!r}")
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


_GROUP_PIECES = 1 << 13  # pieces one sweep group holds: few numpy calls per slot, cache-sized arrays


def _sweep_groups(active):
    """Yield ``(s0, j0, ms)``: slot ``j0 + i`` updates the sorted segments ``s0 : s0 + ms[i]``.

    ``active[j]`` (nonincreasing) counts the segments with more than j
    pieces.  The segments are cut into blocks of ``_GROUP_PIECES`` and each
    block's slots into runs of at most that many pieces together, so a group
    never holds more than ``_GROUP_PIECES`` pieces, at any X.
    """
    for s0 in range(0, active.max(initial=0), _GROUP_PIECES):
        ms = np.minimum(active, s0 + _GROUP_PIECES) - s0
        ms = ms[ms > 0].tolist()
        j0, total = 0, 0
        for j, m in enumerate(ms):
            if total + m > _GROUP_PIECES:
                yield s0, j0, ms[j0:j]
                j0, total = j, 0
            total += m
        yield s0, j0, ms[j0:]


def _sweep(lengths, envelopes, seg_idx):
    """Both transfer columns of every segment, for every envelope, in one pass.

    Segment k is pieces ``seg_idx[k]:seg_idx[k+1]``; column 0 starts at
    (u, u') = (1, 0), column 1 at (0, 1).  Returns ``(zeros, u, du, g, kd)``;
    the first four, of shape (envelopes, 2, segments), are the zeros a column
    gains in the segment, its normalized end value and its log scale, and kd
    (envelopes, segments) is the segment's kappa*len sum, so the true column
    is (u, du)*exp(kd + g).  With segments in descending piece count, piece
    slot j updates the prefix of segments with more than j pieces.

    The slots are swept in groups of at most ``_GROUP_PIECES`` pieces (see
    ``_sweep_groups``).  At small X a slot holds a few hundred pieces, so
    numpy's per-call cost, not arithmetic, sets the time: each group takes
    its coefficients in one call, the slot loop runs only the transfer
    recurrence, and one pass after it counts the zeros of all the group's
    slots.  At large X a group is one slot of one block of segments, so the
    arrays stay cache-sized and memory does not grow with X.
    """
    sizes = np.diff(seg_idx)
    order = np.argsort(-sizes, kind="stable")
    starts, npieces = seg_idx[:-1][order], sizes[order]
    active = np.searchsorted(-npieces, -np.arange(npieces.max(initial=0)), side="left")
    shape = (len(envelopes), 2, len(starts))
    u = np.zeros(shape)
    u[:, 0] = 1.0
    du = 1.0 - u
    zeros, g, kd = np.zeros(shape), np.zeros(shape), np.zeros(shape[::2])
    for s0, j0, ms in _sweep_groups(active):
        p = np.concatenate([starts[s0:s0 + m] + j for j, m in enumerate(ms, j0)])
        coefficients = _piece_coefficients(lengths[p], np.stack([q[p] for q in envelopes]))
        osc, w, t, a11, a12, a21 = (c[:, None] for c in coefficients)  # shared by both columns
        kt = np.where(osc, 0.0, t)[:, 0]
        offsets = itertools.accumulate(ms, initial=0)
        slots = [(slice(o, o + m), slice(s0, s0 + m)) for o, m in zip(offsets, ms)]  # (in the group, in the state)
        u_start, du_start, u_end = (np.empty(shape[:2] + (len(p),)) for _ in range(3))
        for k, seg in slots:
            u0, du0 = u[..., seg], du[..., seg]
            u_start[..., k], du_start[..., k] = u0, du0
            un = a11[..., k] * u0 + a12[..., k] * du0
            dn = a21[..., k] * u0 + a11[..., k] * du0
            r = np.sqrt(un * un + dn * dn)
            if not r.all():
                # pure decaying branch annihilated by the rescaled transfer: it shrinks by exp(-kappa*d), sign kept
                dead = ~osc[..., k] & (un == 0.0) & (dn == 0.0)
                un, dn = np.where(dead, u0, un), np.where(dead, -w[..., k] * u0, dn)
                g[..., seg] -= np.where(dead, 2.0 * t[..., k], 0.0)
                r = np.sqrt(un * un + dn * dn)
                if not r.all():
                    raise NumericalError("solution vector vanished during propagation")
            u_end[..., k] = un  # unnormalized: un/r can underflow to 0 and hide a sign change
            np.divide(un, r, out=u0)
            np.divide(dn, r, out=du0)
            g[..., seg] += np.log(r)
            kd[:, seg] += kt[:, k]
        phi = np.arctan2(w * u_start, du_start)
        crossed = np.floor((phi + t) / _PI) - np.floor(phi / _PI)
        flipped = (u_start != 0.0) & ((u_end == 0.0) | ((u_start > 0.0) != (u_end > 0.0)))
        gained = np.where(osc, crossed, flipped)
        for k, seg in slots:
            zeros[..., seg] += gained[..., k]
        # freed before the next group allocates its own
        del p, coefficients, osc, w, t, a11, a12, a21, kt, u_start, du_start, u_end, phi, crossed, flipped, gained
    if not zeros.sum() < 2.0**53:  # past 2**53 a float64 count is no longer exact
        raise NumericalError(f"{zeros.sum():.3g} zeros: too many to count exactly")
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return tuple(np.take(a, back, axis=-1) for a in (zeros, u, du, g, kd))


def _end_rule(zeros, u, du, bc: str):
    """Counts from a column's zeros and end value under a ``bc`` right end, as int64.

    A zero at a Dirichlet end means 0 is itself an eigenvalue, excluded from
    the (strictly) negative count; a Neumann end adds one when u*u' < 0.
    """
    return (zeros - (u == 0.0) if bc == "D" else zeros + (u * du < 0.0)).astype(np.int64)


def _pivots(diag, b2, neg: int = 0, d: float = math.inf):
    """Continue the LDL^T factorization of a symmetric tridiagonal S: ``(negative pivots, last pivot)``.

    ``b2[i]`` is the squared entry that couples row i to the row before it;
    the first row's is divided by the starting pivot inf, so it drops out.
    An exactly zero pivot counts as nonnegative and is replaced by a tiny
    positive value: the count is that of S plus a vanishing positive diagonal
    shift, which excludes a zero eigenvalue as the strict count must.
    """
    for a, b in zip(diag, b2):
        d = a - b / d
        if d < 0.0:
            neg += 1
        elif d == 0.0:
            d = math.ulp(0.0)
    return neg, d


_ROUND_ROWS = 384  # fewer unsettled rows go through _pivots: below it, 4 rounds cost more than the loop
_ROUNDS = 12  # benchmark realizations' cuts settle in 3-12 rounds; strongly coupled rows settle one a round


def _settle(diag: np.ndarray, b2: np.ndarray, neg: int = 0, d: float = math.inf):
    """``_pivots(diag, b2, neg, d)`` in vectorized rounds: ``(negative pivots, last pivot)``.

    A round recomputes every pivot from the last round's pivot before it
    (``d`` for the first), with ``_pivots``' zero rule.  When a round
    reproduces the last round's first k pivots exactly, those were exact, so
    its first k + 1 are the scalar loop's own, bit for bit: each round
    settles at least one more pivot, and weakly coupled rows (cuts between
    segments, coupled by exp(-kappa*len)) settle in a few rounds.  A NaN
    never compares equal, so no pivot after one settles.  Rounds run while
    at least ``_ROUND_ROWS`` pivots are unsettled, at most ``_ROUNDS``
    times; ``_pivots`` continues from the first unsettled pivot, so a short
    row never enters a round.
    """
    n, k = len(diag), 0
    if n >= _ROUND_ROWS:
        cur, prev = diag, np.empty_like(diag)
        prev[0] = d
        with np.errstate(all="ignore"):
            for _ in range(_ROUNDS):
                prev[1:] = cur[:-1]
                new = diag - b2 / prev
                if not new.all():
                    new[new == 0.0] = math.ulp(0.0)
                agree = new == cur
                cur = new
                k = n if agree.all() else int(agree.argmin()) + 1
                if n - k < _ROUND_ROWS:
                    break
        neg, d = neg + int(np.count_nonzero(cur[:k] < 0.0)), float(cur[k - 1])
    return _pivots(diag[k:].tolist(), b2[k:].tolist(), neg, d)


def _terms(sweep, left: Optional[str], right: Optional[str]):
    """The interface walk's terms for consecutive segments of a ``_sweep``, each (envelopes, segments).

    Every cut is Dirichlet on both sides.  A segment gives its D count, the
    right half m11/m12 = (u0/u1)*exp(g0 - g1) of the cut before it, the left
    half m22/m12 = du1/u1 of the cut after it and the squared coupling
    (-1/m12)^2 = (exp(-kd - g1)/u1)^2.  ``left`` is the domain's left end
    condition when the first segment is the domain's first (else None): that
    segment is counted on the column that starts under it (column 0 for "N",
    1 for "D") and has no cut before it, so its right half is +inf: its
    pivot is +inf and the next reduces to a - b/inf = a.  ``right`` is None
    for segments with a cut after them, giving ``(cut, left halves, right
    halves, b2)``; for the domain's last segment it is the right end
    condition, which sets its count and, when Neumann, its right half
    m21/m22 = (du0/du1)*exp(g0 - g1), the Schur complement of the end node,
    giving ``(cut, right halves)``.
    """
    zeros, u, du, g, kd = sweep
    z, uu, dd = zeros[:, 1], u[:, 1], du[:, 1]
    first = 0 if left is None else 1
    if left == "N":
        z, uu, dd = z.copy(), uu.copy(), dd.copy()
        z[:, 0], uu[:, 0], dd[:, 0] = zeros[:, 0, 0], u[:, 0, 0], du[:, 0, 0]
    ends = du if right == "N" else u
    num, den = ends[:, 0, first:], ends[:, 1, first:]
    if not (den.all() and (right is not None or uu.all())):
        raise NumericalError("a segment has an eigenvalue at exactly 0: it has no Dirichlet-to-Neumann map")
    head = (len(z), first)  # the domain's first segment's column
    halves = np.concatenate([np.full(head, math.inf), num / den * np.exp(g[:, 0, first:] - g[:, 1, first:])], axis=1)
    if right is not None:
        return _end_rule(z, uu, dd, right), halves
    b2 = np.concatenate([np.zeros(head), np.square(np.exp(-kd[:, first:] - g[:, 1, first:]) / den)], axis=1)
    return _end_rule(z, uu, dd, "D"), dd / uu, halves, b2


class _Walk:
    """N[0, p] = sum_k N_D(segment k) + neg(S), walked segment by segment and carried across blocks.

    ``state`` holds, per envelope, the count so far: the summed D counts of
    the segments taken (the first under the left end condition) plus the
    negative pivots of S on the cuts between them, which by Sylvester's law
    is the count with a Dirichlet cut at the last segment's end.  Next to it
    are the last pivot, and the left half and squared coupling that the last
    segment gives the next cut.  Each block's pivots settle in vectorized
    rounds that give the scalar loop's pivots bit for bit (``_settle``), so
    a long block takes a few numpy passes, not a Python step per cut.
    """

    def __init__(self, envelopes: int):
        self.state = [(0, math.inf, 0.0, 0.0)] * envelopes

    def feed(self, terms):
        """Take the next segments (``_terms`` with no right end) into ``state``.

        Row i of S here is the cut before segment i: the left half and the
        coupling that the segment before it gives (carried in ``state`` for
        the first) and segment i's right half.  ``_settle`` continues each
        envelope's factorization from its count and last pivot.
        """
        cut, left, right, b2 = terms
        count, d, left0, b0 = zip(*self.state)
        diag = np.concatenate([np.array(left0)[:, None], left[:, :-1]], axis=1) + right
        b2s = np.concatenate([np.array(b0)[:, None], b2[:, :-1]], axis=1)
        self.state = [(*_settle(a, b, n + c, p), lt, bt) for a, b, n, c, p, lt, bt in
                      zip(diag, b2s, count, cut.sum(axis=1).tolist(), d, left[:, -1].tolist(), b2[:, -1].tolist())]

    def close(self, terms):
        """Per-envelope counts of the domain that ends with the segment of ``terms`` (right end set) after ``state``."""
        out = []
        for (count, d, left0, b0), c, r in zip(self.state, terms[0][:, 0].tolist(), terms[1][:, 0].tolist()):
            neg, d = _pivots([left0 + r], [b0], count + c, d)
            if math.isnan(d):
                raise NumericalError("interface factorization produced NaN")
            out.append(neg)
        return out


def _domain_count(sweep, left: str, right: str) -> int:
    """Count on a one-envelope ``_sweep``'s segments with ``left``/``right`` ends: one walk, then the last segment."""
    m = sweep[0].shape[-1] - 1
    walk = _Walk(1)
    if m:
        walk.feed(_terms([a[..., :m] for a in sweep], left, None))
    return walk.close(_terms([a[..., m:] for a in sweep], None if m else left, right))[0]


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
    v = q.values
    cuts = np.append(np.flatnonzero(np.append(True, v[1:] != v[:-1])), len(v))
    n = _domain_count(_sweep(q.lengths, (v,), cuts), bc_left, bc_right)
    return CountCertificate(n_lo=n, n_hi=n)


# ---------------------------------------------------------------------------
# finite-difference inertia oracle


_FD_BLOCK = 128  # rows per block: 2.9 ms per 2e5 rows, as at 64; 3.8 ms at 256
_FD_CHUNK = 1 << 16  # target rows per chunk, a multiple of _FD_BLOCK: 2^14 runs the block loops 4x as often, 2^17 page-faults
_FD_JUNCTION_TOL = 2.0 ** -26  # trusted start error, as a share of the terms: 2e-15 median, 3 FD junctions in 774k above it


def _blocked_pivots(diag: np.ndarray, b2: float, neg: int = 0, d: float = math.inf):
    """``_pivots(diag, repeat(b2), neg, d)`` with the rows in blocks of ``_FD_BLOCK``: ``(negative pivots, last pivot)``.

    Pass 1 composes each full block's Mobius map d -> a - b2/d as a product
    of 2x2 matrices, all blocks at once.  It works in eta = d/c - 1 with
    c = sqrt(b2), where a row is [[1 + z, z], [1, 1]] with z = a/c - 2: an
    FD row has z near 0, and there the plain [[a, -b2], [1, 0]] products
    would cancel to a few digits.  The products are rescaled by powers of 2
    before they could overflow.  Pass 2 chains the maps in one scalar pass
    from eta = d/c - 1 for the start pivots of the blocks after the first,
    which starts at ``d`` itself.  Pass 3 runs the recurrence of ``_pivots``
    in every block at once from those starts, with no test per row: where a
    row has a pivot of exactly 0, it becomes ulp(0) and the rows after it
    run again, which gives ``_pivots``' zero rule bit for bit at the cost of
    a rare second pass.  A start s after a block that ended at e is exact
    when b2/s == b2/e.  It is trusted when s has the sign of e and differs
    from it, and b2/s from b2/e, by at most ``_FD_JUNCTION_TOL`` of the
    terms of e and of the next pivot: the count is then that of a matrix
    perturbed as little next to the junction (Kahan's inertia argument).
    The second test matters where b2/ulp(0) is finite, for b2 below about
    1e-15: a start a rounding away from an end of ulp(0) changes the next
    pivot entirely.  From the first untrusted start on, as after the last
    full block, the rows go through ``_pivots``; with a coupling of 0 or
    inf, which has no c, all of them do.  No step of the row loops
    allocates: pass 3 writes the pivots over pass 1's z.
    """
    nb, done = (len(diag) // _FD_BLOCK if 0.0 < b2 < math.inf else 0), 0
    if nb:
        c = math.sqrt(b2)
        with np.errstate(all="ignore"):
            rows = np.ascontiguousarray(diag[: nb * _FD_BLOCK].reshape(nb, _FD_BLOCK).T)  # rows[j]: row j of each block
            # each z twice, for the two rows of top and bot: a product with z broadcast takes 1.5x as long
            zeta = np.divide(rows[:, None], c, out=np.empty((_FD_BLOCK, 2, nb)))
            zeta -= 2.0
            every = max(1, int(500.0 // math.log2(2.0 * max(zeta.max(), -zeta.min()) + 6.0)))  # entries < 2**500
            top, bot, zbot = np.zeros((2, nb)), np.zeros((2, nb)), np.empty((2, nb))
            top[0] = bot[1] = 1.0
            for j, z in enumerate(zeta, 1):
                bot += top
                top += np.multiply(z, bot, out=zbot)
                if j % every == 0:
                    scale = np.ldexp(1.0, -np.frexp(np.maximum(abs(top), abs(bot)).max(axis=0))[1])
                    top *= scale
                    bot *= scale
            (m00, m01), (m10, m11) = top, bot
            maps = zip(*(a.tolist() for a in (m00 / m10, (m01 * m10 - m00 * m11) / (m10 * m10), m11 / m10)))
            eta, etas = d / c - 1.0, []
            for p, q, r in maps:  # eta -> p + q/(eta + r)
                etas.append(eta)
                t = eta + r
                eta = p + q / t if t else math.inf
            start = prev = c * (1.0 + np.array(etas))
            start[0] = d
            piv, j = zeta[:, 0], 0  # pass 1 is done with z
            while True:
                for a, p in zip(rows[j:], piv[j:]):
                    np.subtract(a, np.divide(b2, prev, out=p), out=p)
                    prev = p
                if piv[j:].all():
                    break
                j += int(np.argmin(piv[j:].all(axis=1)))  # the first row with a zero pivot
                prev = piv[j]
                prev[prev == 0.0] = math.ulp(0.0)
                j += 1
            end, start = piv[-1, :-1], start[1:]  # block i + 1 starts at start[i], where block i ended at end[i]
            te, ts = b2 / end, b2 / start
            near = (end < 0.0) == (start < 0.0)
            near &= abs(end - start) <= _FD_JUNCTION_TOL * (abs(rows[-1, :-1]) + abs(b2 / piv[-2, :-1]))
            near &= abs(te - ts) <= _FD_JUNCTION_TOL * (abs(rows[0, 1:]) + abs(te))
            trusted = (te == ts) | near
            done = nb if trusted.all() else int(np.argmin(trusted)) + 1
            neg += int(np.count_nonzero(piv[:, :done] < 0.0))
            d = float(piv[-1, done - 1])
    return _pivots(diag[done * _FD_BLOCK:].tolist(), itertools.repeat(b2), neg, d)


def _grid(X: float, n: int, i0: int, i1: int) -> np.ndarray:
    """Points ``i0:i1`` of ``np.linspace(0.0, X, n)``, bit for bit: i*step, (i/(n-1))*X where step underflows, X last."""
    x = np.arange(i0, i1, dtype=float)
    step = X / (n - 1)
    if step:
        x *= step
    else:
        x /= n - 1
        x *= X
    if i1 == n:
        x[-1] = X
    return x


def _fd_diagonal(q_eval: Callable[[np.ndarray], np.ndarray], X: float, n: int, inv2: float, bc: str):
    """The FD matrix's diagonal on the grid of ``n`` points, in equal chunks: one ``q_eval`` call each.

    Row r is grid point r + 1 with Dirichlet ends and point r with Neumann
    ends.  A chunk at either end of the grid also takes the end point, so
    ``q_eval`` sees every grid point once.  R rows make max(1, round(R /
    ``_FD_CHUNK``)) chunks, halves down, that share the full blocks evenly,
    larger shares first; the last also takes the rows after them, so every
    chunk but the last is whole blocks of ``_blocked_pivots``.  A short tail
    chunk would run the block loops as often as a full one, and a chunk
    larger than the one before would not fit in the memory it freed but
    page-fault on fresh pages.
    """
    off = 1 if bc == "D" else 0
    rows = n - 2 * off
    k = max(1, (rows + _FD_CHUNK // 2) // _FD_CHUNK)
    share, extra = divmod(rows // _FD_BLOCK, k)
    edges = [_FD_BLOCK * (i * share + min(i, extra)) for i in range(k)] + [rows]
    for r0, r1 in zip(edges, edges[1:]):
        p0, p1 = (0 if r0 == 0 else r0 + off), (n if r1 == rows else r1 + off)
        qs = np.asarray(q_eval(_grid(X, n, p0, p1)), dtype=float)
        if qs.shape != (p1 - p0,) or not np.all(np.isfinite(qs)):
            raise ValueError("q_eval must return finite values on the grid")
        diag = 2.0 * inv2 + qs[r0 + off - p0:r1 + off - p0]
        if bc == "N" and r0 == 0:
            diag[0] = inv2 + 0.5 * qs[0]
        if bc == "N" and r1 == rows:
            diag[-1] = inv2 + 0.5 * qs[-1]
        del qs  # freed before the walk allocates its own
        yield diag


def fd_inertia_count(
    q_eval: Callable[[np.ndarray], np.ndarray],
    X: float,
    n_mesh: int,
    bc: str = "D",
) -> int:
    """Negative eigenvalues of the finite-difference discretization on [0, X].

    Standard second-order stencil on ``n_mesh`` interior points with step
    X/(n_mesh+1) and ``bc`` at both ends; Neumann ends add the boundary
    point with a mirrored ghost-node row (first-order accurate there, which
    is fine because only the count is used).  The count is the number of
    negative pivots of the tridiagonal factorization, by Sylvester's law of
    inertia.  The matrix is built in equal chunks of about ``_FD_CHUNK``
    rows (``_fd_diagonal``), each from its own points of ``np.linspace(0, X,
    n_mesh + 2)`` and one ``q_eval`` call, and each chunk continues the
    factorization from the count and the last pivot of the chunks before
    it, in blocks of 128 rows at once (``_blocked_pivots``).  A block start
    that disagrees with the block before it sends the rest of its chunk
    through the row-by-row loop, and the next chunk runs in blocks again.
    An exactly zero pivot counts as nonnegative and becomes ulp(0), in the
    blocks as in the loop, so a zero eigenvalue is not counted.  No array
    grows with the mesh: at mesh 2e6 a call holds about 3 MB, where the
    diagonal built whole took 100 MB.  At mesh 2e5 a call takes about 20 ns
    per mesh point, against 60-70 ns with the diagonal built whole and
    80-110 ns for the count row by row (2 vCPUs, Xeon, numpy 2.4).
    """
    _check_bc(bc)
    if n_mesh < 10:
        raise ValueError("mesh too coarse: need n_mesh >= 10")
    if not 0 < X < math.inf:
        raise ValueError(f"domain length must be finite and positive, got X={X!r}")
    n = n_mesh + 2
    with np.errstate(over="ignore", divide="ignore"):  # a step**-4 past the float range makes NaN pivots
        inv2 = 1.0 / _grid(X, n, 1, 2)[0] ** 2  # the step: point 1 less point 0, which is 0.0
        b2 = float(inv2 * inv2)
    neg, d = 0, math.inf
    for diag in _fd_diagonal(q_eval, X, n, inv2, bc):
        neg, d = _blocked_pivots(diag, b2, neg, d)
    if math.isnan(d):
        raise NumericalError("finite-difference factorization produced NaN")
    return neg


# ---------------------------------------------------------------------------
# bracketed counts for realizations with a decaying envelope

_BUMP_SUBDIV_RATIO = 4  # barrier pieces refine 4x slower: envelope slack there is inert
_BLOCK_PIECES = 1 << 15  # sub-pieces per streamed block: time flat from 2^14 to 2^17, memory grows above 2^15


def _span(real: PotentialRealization, j0: int, x: float):
    """Base pieces of [p_j0, x] on the grid of ``real.truncate(x)``: ``(starts, lengths, values, seg_idx)``.

    p_0 = 0 and p_j is center j-1.  The grid cuts at bump edges, bump
    centers and the ends, so the renewal partition aligns with base pieces
    (segment k is pieces ``seg_idx[k]:seg_idx[k+1]``, the last one ending at
    x); interval sums and the whole-domain count then share one envelope
    grid, which makes the two-sided comparison exact rather than merely
    statistical.  Only the bumps near the span enter, and only those the
    truncation keeps (up to the first with center >= x - l), so each piece
    has the bits the truncation's own grid gives it, and a span equals the
    two it splits into at any center inside it.
    """
    c, l = real.centers, real.l
    near = c[max(j0 - 2, 0):int(np.searchsorted(c, x - l, side="left")) + 1]
    inside = c[j0:int(np.searchsorted(c, x, side="left"))]
    lo = c[j0 - 1] if j0 else 0.0
    lefts, rights = near - l, near + l
    cand = np.concatenate([[lo, x], lefts, inside, rights])
    cand = np.sort(cand[(cand >= lo) & (cand <= x)])
    edges = cand[np.append(True, cand[1:] != cand[:-1])]  # np.unique's own sort and mask
    mids = 0.5 * (edges[:-1] + edges[1:])
    idx = np.searchsorted(lefts, mids, side="right") - 1  # the last bump starting at or before each mid
    values = np.where((idx >= 0) & (mids <= rights[idx]), real.h, 0.0)
    return edges[:-1], np.diff(edges), values, np.searchsorted(edges, np.concatenate([[lo], inside, [x]]))


def _subdivide(starts, base_len, values, seg_idx, pert: Perturbation, s: int):
    """One level of base pieces as ``_sweep``'s arguments: ``(lengths, (q_shallow, q_deep), seg_idx)``.

    Wells get ``s`` sub-pieces each, barriers s/4 (at least one); the
    envelope slack on a barrier cannot move the count once h dominates
    W.  Doubling ``s`` nests the grids, so brackets tighten monotonically.
    Each base piece's start, length and value are repeated once per
    sub-piece (no gather index); the temporaries live only in this frame.
    """
    subs = np.where(values == 0.0, s, max(1, s // _BUMP_SUBDIV_RATIO))
    csub = np.concatenate([[0], np.cumsum(subs)])
    denom = np.repeat(subs.astype(float), subs)
    blen = np.repeat(base_len, subs)
    local = np.arange(csub[-1]) - np.repeat(csub[:-1], subs)  # sub-piece index within its base piece
    w_left = np.asarray(pert(np.repeat(starts, subs) + blen * (local / denom)), dtype=float)
    w_right = np.empty_like(w_left)
    w_right[:-1] = w_left[1:]  # a right end is the next sub-piece's left end, except at a base piece's end
    w_right[csub[1:] - 1] = np.asarray(pert(starts + base_len), dtype=float)
    vrep = np.repeat(values, subs)
    return blen / denom, (vrep - w_right, vrep - w_left), csub[seg_idx]  # W(right) <= W <= W(left)


def _narrow(a: np.ndarray) -> np.ndarray:
    """Nonnegative counts in the smallest unsigned dtype that holds them; others stay for IntervalCounts to reject."""
    return a.astype(np.min_scalar_type(a.max(initial=0))) if a.min(initial=0) >= 0 else a


def _level(real: PotentialRealization, pert: Perturbation, xs, s: int, bc: str):
    """``(whole-domain counts, per-interval parts)`` at each checkpoint of ``xs`` on level ``s``.

    Checkpoint x (``xs`` increase) with K centers before it is segments
    0..K-1 of the renewal partition, which every later checkpoint shares,
    plus its tail [p_K, x].  One pass streams segments 0..K-1 of the last
    checkpoint in x-ordered blocks of at most ``_BLOCK_PIECES`` sub-pieces
    (by the level's bound of one well and two barriers per segment),
    carrying the ``_Walk`` from block to block.  A block is one ``_span`` of
    segments j0..j1-1, to center j1-1 or, when j1 is a checkpoint's K, on to
    x, so that its last segment is the tail; right after that block is fed,
    the tail settles its checkpoint with one more pivot.  The whole-domain
    counts, ``bc`` at both ends, are (shallow, deep).  The per-interval parts
    are lists of the shallow D and deep N counts of segments 0..K, narrowed
    block by block, which later checkpoints share up to their own tails.
    """
    c = real.centers
    per = max(1, _BLOCK_PIECES // (s + 2 * max(1, s // _BUMP_SUBDIV_RATIO)))
    walk, parts, out, j0 = _Walk(2), [], [], 0
    for k, x in zip(np.searchsorted(c, xs, side="left").tolist(), xs):
        while True:
            j1 = min(j0 + per, k)
            m = j1 - j0
            sweep = _sweep(*_subdivide(*_span(real, j0, x if j1 == k else c[j1 - 1]), pert, s))
            zeros, u, du = sweep[:3]
            # the per-interval counts, shallow D-D (column 1) and deep N-N (column 0), kept narrow across blocks
            d0 = _narrow(_end_rule(zeros[0, 1], u[0, 1], du[0, 1], "D"))
            n1 = _narrow(_end_rule(zeros[1, 0], u[1, 0], du[1, 0], "N"))
            if m:
                walk.feed(_terms([a[..., :m] for a in sweep], bc if j0 == 0 else None, None))
                parts.append((d0[:m], n1[:m]))
            j0 = j1
            if j1 == k:
                break
        counts = walk.close(_terms([a[..., m:] for a in sweep], bc if k == 0 else None, bc))
        out.append((counts, tuple(zip(*parts, (d0[m:], n1[m:])))))  # (D parts, N parts)
    return out


def _certificates(real: PotentialRealization, pert: Perturbation, xs, refine: int, bc: str = "D"):
    """``(certificate, n_D, n_N, per-interval parts)`` of ``real.truncate(x)`` for each checkpoint x of ``xs``.

    Sub-pieces per well go 4, 8, ... up to ``refine``, and each level
    streams only as far as the last of the increasing ``xs`` not settled.
    There is one stop rule: a checkpoint settles on the first level where
    its whole-domain certificate, ``bc`` at both ends, is at most 1 wide, or
    at the budget, where a wider one is flagged unconverged.  n_D and n_N
    are the sums of the per-interval Dirichlet and Neumann counts on that
    same level, so n_D <= n_lo <= n_hi <= n_N holds exactly; the parts stay
    unjoined for ``_dn_certificate``.
    """
    if refine < 1:
        raise ValueError("refinement budget must be >= 1")
    done, s = {}, min(4, refine)
    while len(done) < len(xs):
        pending = [i for i in range(len(xs)) if i not in done]
        for i, (counts, parts) in zip(pending, _level(real, pert, [xs[i] for i in pending], s, bc)):
            converged = counts[1] - counts[0] <= 1
            if converged or s >= refine:
                n_d, n_n = (sum(int(a.sum()) for a in p) for p in parts)
                done[i] = (CountCertificate(*counts, converged=converged), n_d, n_n, parts)
        s = min(2 * s, refine)
    return [done[i] for i in range(len(xs))]


def _dn_certificate(record) -> CountCertificate:
    """The certificate [n_D, n_N] of a ``_certificates`` record with its per-interval counts, converged on any level."""
    _, n_d, n_n, parts = record
    return CountCertificate(n_d, n_n, per_interval=IntervalCounts.from_arrays(*parts))


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
    return _certificates(real, pert, [real.X], refine, bc)[0][0]


def sandwich_counts(
    real: PotentialRealization,
    pert: Perturbation,
    refine: int = 64,
) -> Tuple[int, CountCertificate, int]:
    """(n_D, whole-domain certificate, n_N) on one shared envelope grid.

    Because segment and whole-domain counts use identical piecewise
    potentials, Dirichlet-Neumann bracketing gives the exact chain
    n_D <= n_lo <= n_hi <= n_N, not just a statistical tendency.  The
    interval sums are taken on the level where the certificate stopped.
    """
    cert, n_d, n_n, _ = _certificates(real, pert, [real.X], refine)[0]
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
    envelope refinement converges.  It is ``sandwich_counts``' (n_D, n_N),
    from the level where the Dirichlet whole-domain count settles.
    """
    return _dn_certificate(_certificates(real, pert, [real.X], refine)[0])


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

    On (0, b), b = min(pi/(2L), k_pole) with k_pole the first pole of rhs
    above sqrt(h) (sqrt(h) itself for l = inf), k*tan(k*L) rises from 0,
    rhs(k) falls continuously from rhs(0) > 0, and the first ends above the
    second at b, so k*tan(k*L) = rhs(k) has exactly one root k0 there and
    neither end needs evaluating.  Bisection runs until the midpoint meets
    an end, which keeps the matching residual at the root far below 1e-9
    even in the hard-wall regime.  A b*b past the float range (L below
    about 1e-154 and a flank as thin or as high) is a NumericalError, so
    every k*k the bisection forms is finite.
    """
    L, l, h, bc = geom.L, geom.l, geom.h, geom.bc
    k_pole = math.hypot(math.sqrt(h), _PI / (l if bc == "D" else 2.0 * l))
    a, b = 0.0, min(_PI / (2.0 * L), k_pole)
    if b * b == math.inf:
        raise NumericalError(f"ground state past the float range at L={L!r}, l={l!r}")
    while a < (m := 0.5 * (a + b)) < b:
        a, b = (m, b) if m * math.tan(m * L) < _edge_matching(m, h, l, bc) else (a, m)
    return m * m


def edge_penetration_depth(h: float, l: float, bc: str = "D") -> float:
    """Length by which the ground state leaks into a flanking bump.

    Equals 1/(sqrt(h)*coth(sqrt(h)*l)) for Dirichlet outer walls and
    1/(sqrt(h)*tanh(sqrt(h)*l)) for Neumann, the inverse of rhs(0); both
    vanish as h -> infinity.
    """
    _check_bc(bc)
    if not (h > 0 and l > 0):
        raise ValueError("need h > 0 and l > 0")
    return 1.0 / _edge_matching(0.0, h, l, bc)


def well_ground_asymptotic(geom: WellGeometry) -> float:
    """Large-L approximation of the well ground state.

    sqrt(mu0) ~ (pi/2L)*(1 - b0/L) with b0 the edge penetration depth; the
    remainder is O(1/L**3) in sqrt(mu0).
    """
    b0 = edge_penetration_depth(geom.h, geom.l, geom.bc)
    root = (_PI / (2.0 * geom.L)) * (1.0 - b0 / geom.L)
    if not math.isfinite(mu := root * root):
        raise NumericalError(f"asymptotic ground state past the float range at L={geom.L!r}, l={geom.l!r}")
    return mu
