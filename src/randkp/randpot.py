"""Random bump potentials on the half axis.

The potential consists of rectangular bumps of height ``h`` and width
``2*l`` whose centers form a renewal sequence: consecutive bumps are
separated by i.i.d. nonnegative gap lengths ``L_k``, so the k-th center
sits at ``x_k = L_1 + ... + L_k + (2k - 1) * l``.  Gap laws are specified
through their analytic tail ``F(x) = P(L > x)`` and sampled by inverse
CDF from a seeded stream, which makes every realization reproducible
bit-for-bit.  The module also houses the monotone decaying envelopes
``W(x)`` that get subtracted from the operator in :mod:`randkp.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "GapDistribution",
    "Perturbation",
    "PotentialRealization",
    "CoverageError",
    "RealizationParseError",
    "sample_gaps",
    "build_realization",
    "sample_realization",
    "bernoulli_lattice",
    "mean_spacing",
    "save_realization",
    "load_realization",
]

ArrayLike = Union[float, np.ndarray]


class CoverageError(ValueError):
    """A gap sequence does not reach the requested truncation point."""


class RealizationParseError(ValueError):
    """Malformed realization file; remembers the offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# gap-length laws


@dataclass(frozen=True)
class GapDistribution:
    """Law of the i.i.d. gap lengths, given by its analytic tail.

    Supported kinds:

    * ``exponential``: tail ``exp(-eta*x)``
    * ``stretched``:   tail ``exp(-eta*x**alpha/alpha)`` (exact, not just
      asymptotic, so inverse-CDF sampling stays closed form)
    * ``pareto``:      tail ``min(1, (x_m/x)**alpha)`` with ``alpha > 1`` so
      the mean gap is finite
    * ``geometric``:   lattice law with ``P(L >= m) = q**m`` on integers;
      the tail convention for real ``x`` is ``q**ceil(x)``
    """

    kind: str
    eta: float = 0.0
    alpha: float = 0.0
    x_m: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential":
            if not self.eta > 0:
                raise ValueError("exponential gap law needs rate eta > 0")
        elif self.kind == "stretched":
            if not (self.eta > 0 and self.alpha > 0):
                raise ValueError("stretched-exponential gap law needs eta > 0 and alpha > 0")
        elif self.kind == "pareto":
            if not self.x_m > 0:
                raise ValueError("pareto gap law needs scale x_m > 0")
            if not self.alpha > 1:
                raise ValueError("pareto gap law needs alpha > 1 for a finite mean gap")
        elif self.kind == "geometric":
            if not 0.0 < self.q < 1.0:
                raise ValueError("geometric gap law needs q in (0, 1)")
        else:
            raise ValueError(f"unknown gap-distribution kind {self.kind!r}")

    @classmethod
    def exponential(cls, eta: float) -> "GapDistribution":
        return cls("exponential", eta=eta)

    @classmethod
    def stretched_exponential(cls, eta: float, alpha: float) -> "GapDistribution":
        return cls("stretched", eta=eta, alpha=alpha)

    @classmethod
    def pareto(cls, x_m: float, alpha: float) -> "GapDistribution":
        return cls("pareto", x_m=x_m, alpha=alpha)

    @classmethod
    def geometric(cls, q: float) -> "GapDistribution":
        return cls("geometric", q=q)

    def tail(self, x: ArrayLike) -> ArrayLike:
        """P(L > x) in closed form; ``x`` must be nonnegative."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValueError("tail is only defined for x >= 0")
        if self.kind == "exponential":
            out = np.exp(-self.eta * arr)
        elif self.kind == "stretched":
            out = np.exp(-self.eta * arr**self.alpha / self.alpha)
        elif self.kind == "pareto":
            out = np.ones_like(arr)
            above = arr > self.x_m
            out[above] = (self.x_m / arr[above]) ** self.alpha
        else:
            out = self.q ** np.ceil(arr)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` inverse-CDF draws from the given generator."""
        u = rng.random(n)
        if self.kind == "exponential":
            return -np.log1p(-u) / self.eta
        if self.kind == "stretched":
            return (self.alpha * (-np.log1p(-u)) / self.eta) ** (1.0 / self.alpha)
        if self.kind == "pareto":
            return self.x_m * (1.0 - u) ** (-1.0 / self.alpha)
        # lattice inverse CDF: smallest m >= 0 with q**(m+1) <= 1-u
        m = np.ceil(np.log1p(-u) / math.log(self.q) - 1.0)
        return np.maximum(m, 0.0)

    def mean(self) -> float:
        if self.kind == "exponential":
            return 1.0 / self.eta
        if self.kind == "stretched":
            return (self.alpha / self.eta) ** (1.0 / self.alpha) * math.gamma(1.0 + 1.0 / self.alpha)
        if self.kind == "pareto":
            return self.x_m * self.alpha / (self.alpha - 1.0)
        return self.q / (1.0 - self.q)


def sample_gaps(dist: GapDistribution, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. gaps from a stream seeded by a single integer.

    Identical ``(dist, n, seed)`` produce bit-identical sequences.
    """
    if n < 1:
        raise ValueError("need at least one gap")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return dist.sample(n, rng)


def mean_spacing(dist: GapDistribution, l: float) -> float:
    """Mean center-to-center distance E[L] + 2*l of the renewal sequence."""
    return dist.mean() + 2.0 * l


# ---------------------------------------------------------------------------
# decaying perturbations


@dataclass(frozen=True)
class Perturbation:
    """Nonnegative, nonincreasing envelope ``W(x)`` subtracted from the operator.

    Kinds: ``logpower`` is ``C / log(x+e)**s``, ``powerlaw`` is
    ``A * (x+1)**-beta``, ``constant`` is a flat level (meant for finite
    intervals only), and ``tabulated`` interpolates knots linearly with
    flat extrapolation.
    """

    kind: str
    amplitude: float = 0.0
    exponent: float = 0.0
    knots: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind in ("logpower", "powerlaw"):
            if not (self.amplitude > 0 and self.exponent > 0):
                raise ValueError(f"{self.kind} perturbation needs positive amplitude and exponent")
        elif self.kind == "constant":
            if self.amplitude < 0:
                raise ValueError("constant perturbation must be nonnegative")
        elif self.kind == "tabulated":
            if len(self.knots) < 1:
                raise ValueError("tabulated perturbation needs at least one knot")
            xs = np.array([k[0] for k in self.knots], dtype=float)
            ws = np.array([k[1] for k in self.knots], dtype=float)
            if np.any(np.diff(xs) <= 0):
                raise ValueError("tabulated knots must have strictly increasing positions")
            if np.any(ws < 0) or np.any(np.diff(ws) > 0):
                raise ValueError("tabulated values must be nonnegative and nonincreasing")
        else:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")

    @classmethod
    def log_power(cls, c: float, s: float) -> "Perturbation":
        return cls("logpower", amplitude=c, exponent=s)

    @classmethod
    def power_law(cls, a: float, beta: float) -> "Perturbation":
        return cls("powerlaw", amplitude=a, exponent=beta)

    @classmethod
    def constant(cls, w: float) -> "Perturbation":
        return cls("constant", amplitude=w)

    @classmethod
    def tabulated(cls, knots: Sequence[Tuple[float, float]]) -> "Perturbation":
        return cls("tabulated", knots=tuple((float(x), float(w)) for x, w in knots))

    def __call__(self, x: ArrayLike) -> ArrayLike:
        arr = np.asarray(x, dtype=float)
        if self.kind == "logpower":
            out = self.amplitude / np.log(arr + math.e) ** self.exponent
        elif self.kind == "powerlaw":
            out = self.amplitude * (arr + 1.0) ** (-self.exponent)
        elif self.kind == "constant":
            out = np.full_like(arr, self.amplitude)
        else:
            xs = np.array([k[0] for k in self.knots], dtype=float)
            ws = np.array([k[1] for k in self.knots], dtype=float)
            out = np.interp(arr, xs, ws)
        return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# sampled realizations


@dataclass(frozen=True, eq=False)
class PotentialRealization:
    """One sampled bump configuration truncated to [0, X].

    ``gaps[k]`` is the zero-potential stretch before bump ``k`` (0-based),
    so centers satisfy ``x_k = sum(gaps[:k+1]) + (2k+1)*l`` in 0-based
    indexing.  A bump straddling ``X`` keeps height ``h`` on the clipped
    part; bumps entirely past ``X`` are ignored by the piece builders.
    """

    l: float
    h: float
    gaps: np.ndarray
    X: float

    @cached_property
    def centers(self) -> np.ndarray:
        c = np.cumsum(self.gaps + 2.0 * self.l) - self.l
        c.setflags(write=False)
        return c

    def bumps_within(self, x: float) -> int:
        """Number of bump centers in (0, x]."""
        return int(np.searchsorted(self.centers, x, side="right"))

    def potential(self, x: ArrayLike) -> ArrayLike:
        """V(x): ``h`` on the closed bumps, 0 elsewhere."""
        arr = np.asarray(x, dtype=float)
        starts = self.centers - self.l
        idx = np.searchsorted(starts, arr, side="right") - 1
        hit = idx >= 0
        inside = np.zeros(arr.shape, dtype=bool)
        inside[hit] = arr[hit] <= self.centers[idx[hit]] + self.l
        out = np.where(inside, self.h, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def truncate(self, x: float) -> "PotentialRealization":
        """The realization restricted to [0, x], keeping the shortest covering prefix."""
        if x > self.X:
            raise ValueError("cannot extend a realization past its truncation")
        k0 = int(np.searchsorted(self.centers, x - self.l, side="left"))
        return build_realization(self.gaps[: k0 + 1], self.l, self.h, x)


def build_realization(gaps: Sequence[float], l: float, h: float, X: float) -> PotentialRealization:
    """Assemble a realization from explicit gaps; errors if [0, X] is not covered."""
    if not l > 0:
        raise ValueError("bump half-width l must be positive")
    if not h > 0:
        raise ValueError("bump height h must be positive")
    if not X > 0:
        raise ValueError("truncation X must be positive")
    g = np.asarray(gaps, dtype=float).copy()
    if g.ndim != 1 or len(g) == 0:
        raise ValueError("gaps must be a nonempty 1-d sequence")
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise ValueError("gaps must be finite and nonnegative")
    reach = float(np.sum(g)) + 2.0 * l * len(g)  # = x_n + l
    if reach < X:
        raise CoverageError(
            f"domain not covered: last bump reaches {reach:g} < X={X:g}; sample more gaps"
        )
    g.setflags(write=False)
    return PotentialRealization(l=float(l), h=float(h), gaps=g, X=float(X))


_GAP_CAP = 10**7  # most gaps sample_realization draws before giving up


def sample_realization(
    dist: GapDistribution, l: float, h: float, X: float, rng: np.random.Generator
) -> PotentialRealization:
    """Realization on [0, X] with gaps drawn from ``rng`` until the bumps cover X.

    Chunks of 1.3x the expected bump count (+64) make one draw almost always
    enough; more than ``_GAP_CAP`` gaps raise CoverageError.
    """
    if not l > 0:  # checked before sampling: l <= 0 never covers X, or divides by zero
        raise ValueError("bump half-width l must be positive")
    if not 0 < X < math.inf:  # an infinite X would size the first draw without bound
        raise ValueError("truncation X must be positive and finite")
    chunk = min(int(1.3 * X / mean_spacing(dist, l)) + 64, _GAP_CAP)
    gaps = dist.sample(chunk, rng)
    while gaps.sum() + 2.0 * l * len(gaps) < X:
        if len(gaps) >= _GAP_CAP:
            raise CoverageError(f"could not cover X={X:g} within {_GAP_CAP} gaps")
        more = min(chunk, _GAP_CAP - len(gaps))
        gaps = np.concatenate([gaps, dist.sample(more, rng)])
    return build_realization(gaps, l, h, X)


def bernoulli_lattice(
    p: float,
    X: float,
    seed: Union[int, np.random.Generator],
    h: float = 1.0,
) -> PotentialRealization:
    """Site-percolation style potential: unit cells [k-1/2, k+1/2) carry height
    ``h`` independently with probability ``p``.

    Each occupied cell becomes a width-1 bump (``l = 1/2``); runs of occupied
    cells are bumps separated by zero gaps, so the inter-bump gap law is the
    geometric one with empty-cell probability ``q = 1 - p``.  If the trailing
    cells are empty, a phantom gap is appended so the last recorded bump
    starts exactly at ``X`` and has no overlap with [0, X].
    """
    if not 0.0 < p < 1.0:
        raise ValueError("occupation probability p must lie in (0, 1)")
    if not 1.0 <= X < math.inf:
        raise ValueError("lattice realizations need a finite X >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(np.random.SeedSequence(seed))
    m = int(math.floor(X))
    occupied = np.flatnonzero(rng.random(m) < p) + 1  # cell indices k >= 1
    # the first gap runs from 0 to the first bump's left edge k - 1/2
    gaps = np.diff(occupied, prepend=-0.5) - 1.0
    reach = occupied[-1] + 0.5 if len(occupied) else 0.0
    if reach < X:
        gaps = np.append(gaps, X - reach)  # phantom bump starting exactly at X
    return build_realization(gaps, 0.5, h, X)


# ---------------------------------------------------------------------------
# serialization


def _header_num(v: float) -> str:
    # integral values print bare (h=1, X=1000); anything else keeps full repr
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def save_realization(real: PotentialRealization, dest: Union[str, IO[str]]) -> None:
    """Line-oriented text format: header ``l=<v> h=<v> X=<v>``, one gap per line."""
    own = isinstance(dest, str)
    fh = open(dest, "w") if own else dest
    try:
        fh.write(f"l={_header_num(real.l)} h={_header_num(real.h)} X={_header_num(real.X)}\n")
        for g in real.gaps:
            fh.write(f"{float(g)!r}\n")
    finally:
        if own:
            fh.close()


def load_realization(src: Union[str, IO[str]]) -> PotentialRealization:
    own = isinstance(src, str)
    fh = open(src, "r") if own else src
    try:
        header = fh.readline()
        if not header:
            raise RealizationParseError("empty file", line=1)
        fields = {}
        for token in header.split():
            if "=" not in token:
                raise RealizationParseError(f"bad header token {token!r}", line=1)
            key, _, val = token.partition("=")
            try:
                fields[key] = float(val)
            except ValueError:
                raise RealizationParseError(f"bad numeric value {val!r}", line=1) from None
        missing = {"l", "h", "X"} - set(fields)
        if missing:
            raise RealizationParseError(f"header missing {sorted(missing)}", line=1)
        gaps = []
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text:
                continue
            try:
                gaps.append(float(text))
            except ValueError:
                raise RealizationParseError(f"bad gap value {text!r}", line=lineno) from None
        if not gaps:
            raise RealizationParseError("no gaps in file", line=2)
        try:
            return build_realization(np.array(gaps), fields["l"], fields["h"], fields["X"])
        except ValueError as exc:
            raise RealizationParseError(str(exc)) from exc
    finally:
        if own:
            fh.close()
