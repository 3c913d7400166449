"""Counting machinery: oscillation counter, FD inertia oracle, brackets, wells."""

import contextlib
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randkp import (
    ExperimentConfig,
    GapDistribution,
    Perturbation,
    PiecewisePotential,
    WellGeometry,
    borderline,
    bracket_certificate,
    build_realization,
    count_negative_exact,
    count_with_bracketed_w,
    edge_penetration_depth,
    fd_inertia_count,
    run_trial,
    sample_gaps,
    sample_realization,
    sandwich_counts,
    spectral,
    well_ground_asymptotic,
    well_ground_state,
)
from randkp.spectral import (
    IntervalCounts, NumericalError, _blocked_pivots, _certificates, _dn_certificate, _domain_count, _edge_matching,
    _pivots, _piece_coefficients, _segment_counts, _span, _subdivide, _sweep,
)

from prufer_oracle import propagate_count

PI = math.pi


def constant_well_count(w, X):
    # eigenvalues (n*pi/X)**2 - w for n >= 1 under D-D
    return sum(1 for n in range(1, int(math.sqrt(max(w, 0)) * X / PI) + 2) if (n * PI / X) ** 2 < w)


def levels(real, pert, refine):
    """Each refinement level of the whole of [0, X] as one block, in ``_sweep``'s argument shape."""
    s = min(4, refine)
    while True:
        yield _subdivide(*_span(real, 0, real.X), pert, s)
        if s >= refine:
            return
        s = min(2 * s, refine)


def random_piecewise(rng, max_pieces=50, x_lo=5.0, x_hi=80.0, q_max=10.0):
    n = int(rng.integers(2, max_pieces + 1))
    X = float(rng.uniform(x_lo, x_hi))
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0, X, n - 1)), [X]])
    vals = rng.uniform(-q_max, q_max, n)
    return PiecewisePotential(bp, vals), X


# ---------------------------------------------------------------------------
# exact counter on closed-form cases


def test_constant_well_single_level():
    q = PiecewisePotential(np.array([0.0, PI]), np.array([-1.5]))
    cert = count_negative_exact(q)
    assert cert.n_lo == cert.n_hi == 1


def test_constant_well_two_and_a_half_halfwaves():
    w = 1.0
    X = 2.5 * PI / math.sqrt(w)
    q = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
    assert count_negative_exact(q).n_lo == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constant_well_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        w = float(rng.uniform(0.05, 30.0))
        X = float(rng.uniform(0.5, 20.0))
        q = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
        assert count_negative_exact(q).n_lo == constant_well_count(w, X)


def test_neumann_constant_cases():
    # q == 0: N-N lowest eigenvalue is exactly 0, not negative
    q0 = PiecewisePotential(np.array([0.0, 7.0]), np.array([0.0]))
    assert count_negative_exact(q0, "N", "N").n_lo == 0
    # q == -w on [0, X] under N-N: count #{n >= 0 : (n pi/X)^2 < w}
    w, X = 2.0, 5.0
    qn = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
    expect = sum(1 for n in range(0, 100) if (n * PI / X) ** 2 < w)
    assert count_negative_exact(qn, "N", "N").n_lo == expect


def test_translation_invariance():
    rng = np.random.default_rng(8)
    q, X = random_piecewise(rng)
    shifted = PiecewisePotential(q.breakpoints + 13.7, q.values)
    for bc in (("D", "D"), ("N", "N"), ("D", "N")):
        assert count_negative_exact(q, *bc).n_lo == count_negative_exact(shifted, *bc).n_lo


def test_bc_monotonicity_dd_below_nn():
    rng = np.random.default_rng(17)
    for _ in range(25):
        q, _ = random_piecewise(rng)
        dd = count_negative_exact(q, "D", "D").n_lo
        nn = count_negative_exact(q, "N", "N").n_lo
        dn = count_negative_exact(q, "D", "N").n_lo
        nd = count_negative_exact(q, "N", "D").n_lo
        assert dd <= dn <= nn
        assert dd <= nd <= nn


def test_exact_counter_survives_huge_barriers():
    # tall wide barrier between two wells: cosh would overflow without rescaling
    q = PiecewisePotential(
        np.array([0.0, 4.0, 104.0, 108.0]), np.array([-4.0, 1e8, -4.0])
    )
    n = count_negative_exact(q).n_lo
    # each well is near hard-wall: floor(2*4/pi) = 2 levels apiece
    assert n == 2 * math.floor(2 * 4.0 / PI)


@pytest.mark.parametrize("h", [1e36, 1e40, 1e60, 1e100, 1e300])
@pytest.mark.parametrize("bc_left,bc_right", [("D", "D"), ("D", "N"), ("N", "D"), ("N", "N")])
def test_exact_counter_at_astronomical_barriers(h, bc_left, bc_right):
    # past kappa*d ~ 1e18 a log scale holding kappa*d would lose the columns' log r difference
    q = PiecewisePotential(np.array([0.0, 1.0, 2.0]), np.array([-1.0, h]))
    expected = propagate_count(q.lengths, q.values, bc_left, bc_right)
    assert count_negative_exact(q, bc_left, bc_right).n_lo == expected


def test_input_validation():
    with pytest.raises(ValueError):
        PiecewisePotential(np.array([0.0]), np.array([]))
    with pytest.raises(ValueError):
        PiecewisePotential(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewisePotential(np.array([0.0, 1.0]), np.array([np.inf]))
    qq = PiecewisePotential(np.array([0.0, 1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        count_negative_exact(qq, "D", "X")


@pytest.mark.parametrize("bp,vals,bad", [
    ([0.0, np.inf], [-1.0], "breakpoint inf"),
    ([-np.inf, 0.0], [1.0], "breakpoint -inf"),
    ([0.0, np.nan, 2.0], [1.0, 1.0], "breakpoint nan"),
    ([0.0, 1.0], [-np.inf], "value -inf"),
    ([0.0, 1.0], [np.nan], "value nan"),
])
def test_potential_rejects_non_finite_input(bp, vals, bad):
    # an infinite breakpoint would reach the sweep as a nan phase, or certify a count on an unbounded interval
    with pytest.raises(ValueError, match=bad):
        PiecewisePotential(np.array(bp), np.array(vals))


# ---------------------------------------------------------------------------
# finite-difference inertia oracle


def test_fd_zero_potential_is_positive():
    assert fd_inertia_count(lambda x: np.zeros_like(x), 10.0, 500) == 0


def test_fd_constant_well():
    assert fd_inertia_count(lambda x: np.full_like(x, -1.5), PI, 10**4) == 1


def test_fd_agrees_with_exact_on_random_instances():
    rng = np.random.default_rng(1001)
    agree = 0
    for _ in range(15):
        q, X = random_piecewise(rng)
        exact = count_negative_exact(q).n_lo
        fd = fd_inertia_count(q.evaluate, X, 50_000)
        agree += exact == fd
    assert agree >= 14  # an eigenvalue within FD error of 0 may flip rarely


def test_fd_neumann_agrees_with_exact():
    rng = np.random.default_rng(2002)
    for _ in range(8):
        q, X = random_piecewise(rng, max_pieces=20)
        exact = count_negative_exact(q, "N", "N").n_lo
        assert fd_inertia_count(q.evaluate, X, 100_000, "N") == exact


def test_fd_exact_zero_pivot_counts_as_nonnegative():
    # mesh step exactly 1 and q(1) = -2 make the first pivot 2 - 2 = 0 exactly
    q = lambda x: np.where(x == 1.0, -2.0, 0.0)
    dense = np.diag(np.full(10, 2.0)) - np.eye(10, k=1) - np.eye(10, k=-1)
    dense[0, 0] = 0.0
    expected = int(np.sum(np.linalg.eigvalsh(dense) < 0))
    assert expected == 1
    assert fd_inertia_count(q, 11.0, 10) == expected


def test_fd_rejects_coarse_mesh():
    with pytest.raises(ValueError):
        fd_inertia_count(lambda x: np.zeros_like(x), 1.0, 5)


@pytest.mark.parametrize("X", [math.inf, math.nan, 0.0, -1.0])
def test_fd_rejects_unbounded_or_empty_domain(X):
    with pytest.raises(ValueError, match=f"X={X!r}"):
        fd_inertia_count(lambda x: np.zeros_like(x), X, 100)


def test_fd_overflowing_mesh_is_a_numerical_error():
    # a step of 1e-84 makes the squared coupling 1/step**4 overflow, and every pivot NaN
    with pytest.raises(NumericalError, match="NaN"):
        fd_inertia_count(lambda x: np.zeros_like(x), 1e-80, 1000)


def test_evaluate_is_right_continuous_and_held_past_either_end():
    q = PiecewisePotential(np.array([-1.0, 0.5, 2.0, 7.0]), np.array([3.0, -4.0, 9.0]))
    x = np.array([-5.0, -1.0, -0.5, 0.5, 1.0, 2.0, 6.9, 7.0, 70.0, np.nextafter(0.5, -1.0), np.nextafter(2.0, 9.0)])
    np.testing.assert_array_equal(q.evaluate(x), [3.0, 3.0, 3.0, -4.0, -4.0, 9.0, 9.0, 9.0, 9.0, 3.0, 9.0])
    assert q.evaluate(0.5) == -4.0 and q.evaluate(-2.0) == 3.0 and q.evaluate(8.0) == 9.0
    # NaN lies in no piece: searched, it would land past the last breakpoint and read the last value
    for bad in (np.nan, [np.nan], [0.5, np.nan, 1.5], [0.5, 1.0, np.nan], [np.nan, 1.0], [[0.5], [np.nan]]):
        with pytest.raises(ValueError, match="nan"):
            q.evaluate(bad)


def test_evaluate_on_a_sorted_grid_equals_the_search_per_point():
    # a sorted 1-D x takes one search of the breakpoints into x; it must give the per-point search's values
    rng = np.random.default_rng(17)
    for _ in range(40):
        q, X = random_piecewise(rng)
        bp = q.breakpoints
        edges = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)])  # at a breakpoint, one ulp off
        grids = [
            np.sort(np.concatenate([edges, edges, [-1e300, -5.0, X + 5.0, np.inf], rng.uniform(-1.0, X + 1.0, 300)])),
            np.linspace(0.0, X, int(rng.integers(2, 2000))),
            np.sort(rng.uniform(0.0, X, int(rng.integers(1, len(bp))))),  # fewer points than breakpoints
            np.repeat(bp[len(bp) // 2], 5),
            np.array([]),
            np.array([bp[1]]),
            np.array([-np.inf]),
        ]
        for x in grids:
            got = q.evaluate(x)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.array_equal(got, q.values[np.searchsorted(bp[1:-1], x, side="right")])


def scalar_negative_pivots(diag, b2):
    """The reference LDL^T inertia count: one row at a time, an exact zero pivot nonnegative and then ulp(0)."""
    count, d = 0, math.inf
    for a in diag.tolist():
        d = a - b2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = math.ulp(0.0)
    return count


@pytest.fixture
def scalar_rows(monkeypatch):
    """Lengths of the row runs that the blocked count hands to the scalar ``_pivots``."""
    seen = []

    def spy(diag, b2, *state):
        seen.append(len(diag))
        return pivots(diag, b2, *state)

    pivots = spectral._pivots
    monkeypatch.setattr(spectral, "_pivots", spy)
    return seen


B = spectral._FD_BLOCK


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 7 * B, 7 * B + 45, 300 * B + 3])
def test_blocked_inertia_equals_scalar_loop_at_every_length(n, scalar_rows):
    rng = np.random.default_rng(n)
    inv2 = float(rng.uniform(1e3, 1e9))
    for diag, b2 in [
        (2.0 * inv2 + rng.uniform(-30.0, 10.0, n), inv2 * inv2),  # FD rows: wells and barriers
        (rng.uniform(-3.0, 3.0, n), float(rng.uniform(0.1, 4.0))),  # pivots near 0 in every block
    ]:
        scalar_rows.clear()
        assert _blocked_pivots(diag, b2)[0] == scalar_negative_pivots(diag, b2)
        assert scalar_rows[-1] < B  # only the rows after the last full block go one by one


def fd_diagonal(q_eval, X, n_mesh, bc):
    """``(diag, b2)`` of the FD matrix, assembled whole on ``np.linspace``: the rows that the streamed count builds."""
    grid = np.linspace(0.0, X, n_mesh + 2)
    qs = q_eval(grid)
    inv2 = 1.0 / (grid[1] - grid[0]) ** 2
    diag = 2.0 * inv2 + qs[1:-1]
    if bc == "N":
        diag = np.concatenate([[inv2 + 0.5 * qs[0]], diag, [inv2 + 0.5 * qs[-1]]])
    return diag, float(inv2 * inv2)


def test_blocked_inertia_equals_scalar_loop_on_fd_matrices():
    # every FD matrix of random D and N problems, the Neumann end rows included: the streamed count
    # equals the scalar count of the same diagonal, assembled whole
    rng = np.random.default_rng(3003)
    for bc in ("D", "N") * 6:
        q, X = random_piecewise(rng, q_max=20.0)
        n_mesh = int(rng.integers(20_000, 200_000))
        assert fd_inertia_count(q.evaluate, X, n_mesh, bc) == scalar_negative_pivots(*fd_diagonal(q.evaluate, X, n_mesh, bc))


def fd_chunk_edges(rows, chunk):
    """Row edges of the FD chunks: k = max(1, round(rows / chunk)), halves down, share the full blocks, larger first."""
    k = max(1, (rows + chunk // 2) // chunk)
    share, extra = divmod(rows // B, k)
    return [B * (i * share + min(i, extra)) for i in range(k)] + [rows]


@pytest.mark.parametrize("bc", ["D", "N"])
def test_fd_chunks_are_equal_whole_blocks(bc, monkeypatch):
    # rows just below and above k and k + 1/2 chunks, and below half a chunk: round(rows / chunk)
    # calls of q_eval, one per chunk, that see the grid once and in order; every chunk but the last
    # whole blocks, none more than a block from another or above 1.5 chunks; and the scalar loop's count
    chunk = 4 * B
    monkeypatch.setattr(spectral, "_FD_CHUNK", chunk)
    rng = np.random.default_rng(26)
    q, X = random_piecewise(rng, q_max=2e4)
    off = 1 if bc == "D" else 0
    cases = [(chunk // 2 - 1, 1)]
    for k in (1, 2, 3):
        cases += [(k * chunk - 1, k), (k * chunk + 1, k), (k * chunk + chunk // 2 - 1, k), (k * chunk + chunk // 2 + 1, k + 1)]
    for rows, k in cases:
        n_mesh = rows - 2 + 2 * off
        seen = []
        got = fd_inertia_count(lambda x: seen.append(x.copy()) or q.evaluate(x), X, n_mesh, bc)
        assert got == scalar_negative_pivots(*fd_diagonal(q.evaluate, X, n_mesh, bc))
        assert np.array_equal(np.concatenate(seen), np.linspace(0.0, X, n_mesh + 2))
        sizes = [len(x) for x in seen]
        sizes[0] -= off
        sizes[-1] -= off
        assert len(sizes) == k
        assert np.cumsum([0] + sizes).tolist() == fd_chunk_edges(rows, chunk)
        assert all(size % B == 0 for size in sizes[:-1])
        assert max(sizes) - min(sizes) <= B and max(sizes) <= 1.5 * chunk


def test_blocked_inertia_zero_rule_restarts_the_rows_after_each_zero(scalar_rows):
    # exact zero pivots in one chunk at several rows and block columns, two in block 5's column and
    # two in row 40: b2 / ulp(0) is about 2024 here, so only the zero rule makes the next pivot
    # 3000 - 2024 > 0, not -inf; each zero needs the rows after it computed again
    b2 = 1e-320
    diag = np.ones(8 * B)
    zero_rows = [B + 40, 3 * B + 100, 5 * B + 20, 5 * B + 70, 6 * B + 40, 7 * B + 126]
    for r in zero_rows:
        diag[r], diag[r + 1] = b2, 3000.0
    d = math.inf
    for r, a in enumerate(diag.tolist()):
        d = a - b2 / d
        assert (d == 0.0) == (r in zero_rows)
        d = d or math.ulp(0.0)
    assert _blocked_pivots(diag, b2)[0] == scalar_negative_pivots(diag, b2) == 0
    assert max(scalar_rows) < B  # the zero rule ran inside the blocks, not in a scalar fallback


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_streamed_inertia_equals_scalar_loop_at_chunk_edges(blocks, monkeypatch, scalar_rows):
    # chunks of 1, 2 and 3 blocks put each special row of the walk on a chunk edge
    chunk = blocks * B
    monkeypatch.setattr(spectral, "_FD_CHUNK", chunk)

    def check(q_eval, X, n_mesh, bc):
        scalar_rows.clear()
        assert fd_inertia_count(q_eval, X, n_mesh, bc) == scalar_negative_pivots(*fd_diagonal(q_eval, X, n_mesh, bc))

    rng = np.random.default_rng(blocks)
    q, X = random_piecewise(rng, q_max=20.0)
    for n_mesh in (3 * chunk - 2, 3 * chunk - 1):  # the last Neumann end row ends a full block, or follows one
        check(q.evaluate, X, n_mesh, "N")
    for n_mesh in (3 * chunk + 45, 4 * chunk - 45):  # a partial last block: after full blocks, or alone in one-block chunks
        for bc in "DN":
            check(q.evaluate, X, n_mesh, bc)
    # an exact zero pivot after pivots that round, as in
    # test_blocked_inertia_zero_pivot_where_the_block_maps_round, ends the first chunk or the first
    # block of the second.  Each chunk's first block starts from the carried pivot itself; a later
    # block's chained start is not always trusted, and then the rest of its chunk goes one by one.
    # Step 1 puts row r at x = r + 1 and gives b2 = 1.
    fell_back = 0
    for zero_row in (chunk - 1, chunk + B - 1):
        for base in rng.uniform(2.05, 4.0, 60).tolist():
            qs = np.full(3 * chunk + 2, base - 2.0)
            d = math.inf
            for a in (2.0 + qs[1:zero_row + 1]).tolist():
                d = a - 1.0 / d
            qs[zero_row + 1] = 1.0 / d - 2.0
            if 2.0 + qs[zero_row + 1] != 1.0 / d:  # the assembled row misses the zero pivot
                continue
            check(lambda x: qs[x.astype(int)], 3.0 * chunk + 1.0, 3 * chunk, "D")
            # at most the rest of the second chunk after its first block goes one by one; the third
            # chunk is counted in the blocks again
            assert scalar_rows[0] == scalar_rows[2] == 0 and scalar_rows[1] <= chunk - B
            fell_back += scalar_rows[1] > 0
    assert fell_back or blocks == 1  # a one-block chunk has no junction to distrust
    # the 1e30 wall of test_blocked_inertia_at_astronomical_diagonals, its first row starting a chunk
    wall = PiecewisePotential(np.array([0.0, 3.0, 4.0, 10.0]), np.array([-4.0, 1e30, -4.0]))
    for bc in "DN":
        first_row = lambda n: int(np.searchsorted(np.linspace(0.0, 10.0, n + 2), 3.0)) - (bc == "D")
        starts = lambda n: fd_chunk_edges(n + 2 * (bc == "N"), chunk)[:-1]
        n_mesh = next(n for n in range(20_000, 20_000 + 4 * chunk) if first_row(n) in starts(n))
        check(wall.evaluate, 10.0, n_mesh, bc)
        assert max(scalar_rows) < B  # counted in the blocks: every start was trusted


@pytest.mark.parametrize("bc", ["D", "N"])
def test_fd_grid_is_linspace_point_for_point(bc, monkeypatch):
    # q_eval sees each point of np.linspace(0, X, n_mesh + 2) once, in order, one call per chunk;
    # 5e-324 takes linspace's branch for a step that underflows to 0
    monkeypatch.setattr(spectral, "_FD_CHUNK", B)
    for X, n_mesh in [(7.3, 5 * B + 17), (11.0, 10), (1e300, 3 * B), (1e-320, 2 * B + 3), (5e-324, B)]:
        seen = []
        with contextlib.suppress(NumericalError):  # the tiny steps' step**-4 is past the float range
            fd_inertia_count(lambda x: seen.append(x.copy()) or np.zeros_like(x), X, n_mesh, bc)
        assert len(seen) == max(1, ((n_mesh if bc == "D" else n_mesh + 2) + B // 2) // B)
        assert np.array_equal(np.concatenate(seen), np.linspace(0.0, X, n_mesh + 2))


def test_fd_inertia_memory_does_not_grow_with_the_mesh():
    # at mesh 2e6 a diagonal built whole, with its block copies, peaks near 100 MB; a chunk's
    # arrays take about 3 MB
    q = PiecewisePotential(np.array([0.0, 3.0, 4.0, 10.0]), np.array([-4.0, 25.0, -4.0]))
    for n_mesh, bc in itertools.product((2_000_000, 98_000), "DN"):  # 98,000: one chunk of about 1.5 * 2^16 rows
        tracemalloc.start()
        try:
            fd_inertia_count(q.evaluate, 10.0, n_mesh, bc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@pytest.mark.parametrize("n,zero_row", [
    (3 * B, B - 1),  # last row of block 0
    (3 * B, 2 * B),  # first row of block 2
    (3 * B + 2, 3 * B + 1),  # last row of the matrix, after the blocks
    (4 * B, 4 * B - 1),  # last row of the matrix, the last row of a block
])
def test_blocked_inertia_exact_zero_pivots_at_block_edges(n, zero_row, scalar_rows):
    # ones on the diagonal and b2 = 1 give the pivots 1, 0, -inf, 1, 0, ...: every row 3k + 1 has an
    # exact zero pivot, nonnegative and then ulp(0), and every block map is exact
    assert zero_row % 3 == 1
    diag, b2 = np.ones(n), 1.0
    assert _blocked_pivots(diag, b2)[0] == scalar_negative_pivots(diag, b2) == n // 3
    # a zero after pivots that converge to 2: 2.5 - 1/2 = 0 exactly, at the same rows
    diag = np.full(n, 2.5)
    diag[zero_row] = 0.5
    expected = scalar_negative_pivots(diag, 1.0)
    assert expected == (0 if zero_row == n - 1 else 1)
    scalar_rows.clear()
    assert _blocked_pivots(diag, 1.0)[0] == expected
    assert max(scalar_rows) < B  # the zero rule ran inside the blocks, not in a scalar fallback


@pytest.mark.parametrize("b2", [1e-320, 1.0, 1.6e13])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 7 * B + 45])
def test_blocked_pivots_continue_a_factorization_as_pivots_does(n, b2):
    # from any carried (neg, d), _blocked_pivots gives the count of _pivots and a last pivot of the
    # same sign and NaN-ness, also with exact zero pivots at block edges: a row whose diagonal is
    # b2 / (the pivot before it) has a pivot of exactly 0, as in
    # test_blocked_inertia_exact_zero_pivots_at_block_edges
    rng = np.random.default_rng(n)
    c = math.sqrt(b2)
    zero_rows = {B - 1, B, 2 * B - 1, 2 * B, 5 * B - 1, n - 1}
    for d0 in (math.inf, -math.inf, math.ulp(0.0), -1e-3, 4e6):  # 4e6: an FD pivot at b2 = 1.6e13
        for base in (c * (2.0 + rng.uniform(-1e-3, 1e-3, n)), c * rng.uniform(-3.0, 3.0, n)):
            diag, d = base.copy(), d0
            for r, a in enumerate(diag.tolist()):
                if r in zero_rows and math.isfinite(b2 / d):
                    diag[r] = a = b2 / d
                    assert a - b2 / d == 0.0
                d = a - b2 / d
                d = d or math.ulp(0.0)
            neg, last = _pivots(diag.tolist(), itertools.repeat(b2), 7, d0)
            got_neg, got_last = _blocked_pivots(diag, b2, 7, d0)
            assert got_neg == neg
            assert (got_last < 0.0, math.isnan(got_last)) == (last < 0.0, math.isnan(last))


def test_blocked_inertia_zero_pivot_where_the_block_maps_round():
    # block 0 ends on an exact zero pivot after pivots that are not exact, so the chained start of
    # block 1 is a rounding away from 0, in about a quarter of these cases below it; a start of the
    # other sign than the pivot it continues must not be trusted
    rng = np.random.default_rng(5)
    for base in rng.uniform(2.05, 4.0, 40).tolist():
        diag = np.full(3 * B, base)
        d = math.inf
        for a in diag[:B - 1].tolist():
            d = a - 1.0 / d
        diag[B - 1] = 1.0 / d
        assert _blocked_pivots(diag, 1.0)[0] == scalar_negative_pivots(diag, 1.0) == 1


def test_blocked_inertia_zero_rule_with_a_subnormal_coupling():
    # b2 / ulp(0) is about 2024 here, not inf: the zero rule, not the division, decides the next pivot
    b2 = 1e-320
    diag = np.ones(3 * B)
    diag[B - 2], diag[B - 1] = b2, 3000.0  # pivots 1, ..., 1, exactly 0, then 3000 - 2024 > 0
    assert _blocked_pivots(diag, b2)[0] == scalar_negative_pivots(diag, b2) == 0


def test_blocked_inertia_at_astronomical_diagonals(scalar_rows):
    # a 1e30 wall on [3, 4] between q = -4 wells: 1 + 3 hard-wall levels; block maps without
    # rescaling overflow within a few rows of the wall
    q = PiecewisePotential(np.array([0.0, 3.0, 4.0, 10.0]), np.array([-4.0, 1e30, -4.0]))
    assert count_negative_exact(q).n_lo == 4
    assert fd_inertia_count(q.evaluate, 10.0, 20_000) == 4
    assert max(scalar_rows) < B  # counted in the blocks: every start was trusted
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 40 * B))
        diag = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        for b2 in (1e-12, 1.0, 1.6e13, 1e40):
            assert _blocked_pivots(diag, b2)[0] == scalar_negative_pivots(diag, b2)
    for v in (1e300, -1e300):  # one extreme run in the middle of FD rows
        diag = np.full(9 * B, 2e8)
        diag[4 * B - 7:5 * B + 3] = v
        assert _blocked_pivots(diag, 1e16)[0] == scalar_negative_pivots(diag, 1e16)


# ---------------------------------------------------------------------------
# bracketed counts with a decaying envelope


def small_realization(seed=3, X=300.0, l=0.25, h=25.0):
    d = GapDistribution.exponential(1.0)
    g = sample_gaps(d, 2000, seed)
    return build_realization(g, l=l, h=h, X=X)


def test_constant_w_bracket_is_exact():
    real = small_realization()
    cert = count_with_bracketed_w(real, Perturbation.constant(1.3), "D")
    assert cert.n_lo == cert.n_hi
    assert cert.converged


def test_bracket_width_nonincreasing_under_refinement():
    real = small_realization(seed=9)
    pert = Perturbation.log_power(3 * PI**2, 2.0)
    widths = [count_with_bracketed_w(real, pert, "D", refine=r).width for r in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_logpower_bracket_tightens_and_contains_fd():
    # ~1e3 bumps; budget 32 must close the bracket to width <= 1 and the
    # independent FD count at mesh 1e6 must land inside it
    d = GapDistribution.exponential(1.0)
    g = sample_gaps(d, 3000, 41)
    real = build_realization(g, l=0.25, h=25.0, X=1500.0)
    assert real.bumps_within(real.X) >= 950
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    cert = count_with_bracketed_w(real, pert, "D", refine=32)
    assert cert.width <= 1
    fd = fd_inertia_count(lambda x: real.potential(x) - pert(x), real.X, 10**6)
    assert cert.n_lo <= fd <= cert.n_hi


def test_w_monotonicity_of_counts():
    real = small_realization(seed=12)
    lo = count_with_bracketed_w(real, Perturbation.log_power(1.5 * PI**2, 2.0), "D")
    hi = count_with_bracketed_w(real, Perturbation.log_power(3.0 * PI**2, 2.0), "D")
    assert lo.n_lo <= hi.n_lo and lo.n_hi <= hi.n_hi


def test_zero_w_counts_nothing():
    real = small_realization(seed=6)
    # the unperturbed operator is nonnegative
    nd, cert, nn = sandwich_counts(real, Perturbation.constant(0.0))
    assert (nd, cert.n_lo, cert.n_hi, nn) == (0, 0, 0, 0)


def test_sandwich_chain_holds_on_seeded_instances():
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    for seed in range(20):
        real = small_realization(seed=seed, X=200.0)
        nd, cert, nn = sandwich_counts(real, pert)
        assert nd <= cert.n_lo <= cert.n_hi <= nn


def test_bracket_certificate_intervals():
    real = small_realization(seed=2, X=150.0)
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    cert = bracket_certificate(real, pert)
    k_inside = real.bumps_within(150.0 - 1e-12)
    assert len(list(cert.per_interval)) == k_inside + 1  # leading + one per center
    assert cert.n_lo == sum(d for _, d, _ in cert.per_interval)
    assert cert.n_hi == sum(n for _, _, n in cert.per_interval)
    assert all(d <= n for _, d, n in cert.per_interval)


@pytest.mark.parametrize("refine", [4, 16, 64])
def test_entry_points_agree_on_the_shared_refinement(refine):
    # the D/N certificate is sandwich_counts' pair, read off the level where the whole-domain
    # count settles; at multiplier 64 the seed-2 realization to X = 300 settles on level 4,
    # though its deep and shallow Dirichlet sums there are more than 1 apart
    dist = GapDistribution.exponential(1.0)
    cases = [(small_realization(seed=seed, X=200.0), mult) for seed in range(3) for mult in (0.25, 4.0)]
    cases.append((sample_realization(dist, 0.25, 100.0, 300.0, np.random.default_rng(2)), 64.0))
    for real, mult in cases:
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        whole = count_with_bracketed_w(real, pert, "D", refine=refine)
        n_d, sandwiched, n_n = sandwich_counts(real, pert, refine=refine)
        assert sandwiched == whole
        cert = bracket_certificate(real, pert, refine=refine)
        assert (cert.n_lo, cert.n_hi) == (n_d, n_n)
        assert cert.n_lo == sum(d for _, d, _ in cert.per_interval)
        assert cert.n_hi == sum(n for _, _, n in cert.per_interval)
    if refine == 16:
        assert (whole.n_lo, whole.n_hi, cert.n_lo, cert.n_hi) == (330, 331, 323, 340)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.25, 0.5]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16]),
)
# a left-to-right sum of these gaps is one ulp above the reach build_realization computes
@example(gaps=[0.0, 1.0533251640433692, 2.9620529565722427, 5.342165066620241, 0.0, 0.0, 0.0, 0.0],
         l=0.25, reach_share=1.0, refine=4)
def test_certificates_chain_and_order_in_w(gaps, l, reach_share, refine):
    # X is a share of the bumps' reach, so it often clips a bump or lands on a center
    X = reach_share * (float(np.sum(gaps)) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=100.0, X=X)
    certs = {}
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        n_d, whole, n_n = sandwich_counts(real, pert, refine=refine)
        assert n_d <= whole.n_lo <= whole.n_hi <= n_n
        dn = bracket_certificate(real, pert, refine=refine)
        assert dn.n_lo == sum(d for _, d, _ in dn.per_interval)
        assert dn.n_hi == sum(n for _, _, n in dn.per_interval)
        assert all(d <= n for _, d, n in dn.per_interval)
        certs[mult] = (whole, dn)
    # the true count is nondecreasing in W, so each bracket's lower end at
    # the smaller multiplier cannot pass its upper end at the larger one
    for small, large in zip(certs[0.5], certs[4.0]):
        assert small.n_lo <= large.n_hi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.25, 0.5]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16, 64]),
)
def test_segment_sweep_equals_scalar_counter(gaps, l, reach_share, refine):
    # the inputs of test_certificates_chain_and_order_in_w, plus refine 64; every level is checked
    X = reach_share * (float(np.sum(gaps)) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=100.0, X=X)
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        for lengths, (q_shallow, q_deep), seg_idx in levels(real, pert, refine):
            d, n = _segment_counts(_sweep(lengths, (q_shallow, q_deep), seg_idx))
            for e, values in enumerate((q_shallow, q_deep)):
                for bc, got in (("D", d[e]), ("N", n[e])):
                    expected = [
                        propagate_count(lengths[a:b], values[a:b], bc, bc)
                        for a, b in zip(seg_idx[:-1], seg_idx[1:])
                    ]
                    assert got.tolist() == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.05, 0.25, 0.5]),
    h=st.sampled_from([0.5, 2.0, 100.0, 1e8]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16]),
)
def test_whole_domain_count_equals_scalar_counter(gaps, l, h, reach_share, refine):
    # segment Dirichlet counts plus the interface Schur complement against one
    # walk over the whole domain, from weak (h <= 2) to stiff (h = 1e8) barriers
    X = reach_share * (float(np.sum(gaps)) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=h, X=X)
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        for lengths, (q_shallow, q_deep), seg_idx in levels(real, pert, refine):
            sweep = _sweep(lengths, (q_shallow, q_deep), seg_idx)
            for e, values in enumerate((q_shallow, q_deep)):
                for bc in ("D", "N"):
                    got = _domain_count(*(a[e] for a in sweep), bc, bc)
                    assert got == propagate_count(lengths, values, bc, bc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(
            st.floats(0.01, 5.0),
            st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 8.0)).map(
                lambda se: se[0] * 10.0 ** se[1])),
        ),
        min_size=1, max_size=150,
    ),
    bc_left=st.sampled_from(["D", "N"]),
    bc_right=st.sampled_from(["D", "N"]),
)
def test_exact_counter_equals_scalar_counter(pieces, bc_left, bc_right):
    # up to 150 pieces, cut at every change of value; |q| up to 1e8
    lengths, values = np.array(pieces).T
    q = PiecewisePotential(np.concatenate([[0.0], np.cumsum(lengths)]), values)
    expected = propagate_count(q.lengths, q.values, bc_left, bc_right)
    assert count_negative_exact(q, bc_left, bc_right).n_lo == expected


def test_exact_zero_pivot_is_not_negative():
    # [[1, 1], [1, 1]] has eigenvalues 0 and 2: its last pivot is exactly 0 and is no negative mode
    assert _pivots([1.0, 1.0], [0.0, 1.0])[0] == 0
    # [[1, 1, 0], [1, 1, 1], [0, 1, 1]] has eigenvalues 1 - sqrt(2), 1, 1 + sqrt(2): the zero
    # pivot in the middle becomes tiny and positive, so the next one is the negative mode
    assert _pivots([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])[0] == 1
    # continued from its state after the first two rows, the walk ends the same way
    assert _pivots([1.0], [1.0], *_pivots([1.0, 1.0], [0.0, 1.0])) == _pivots([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    # q == 0 on three pieces under N-N: the constant function is an eigenvector at exactly 0
    assert count_negative_exact(PiecewisePotential(np.array([0.0, 1.0, 6.0, 7.0]), np.zeros(3)), "N", "N").n_lo == 0


def test_walk_close_takes_its_last_pivot_by_the_zero_rule_and_rejects_nan():
    # state (cut counts, negative pivots, last pivot, left half, squared coupling); the closing
    # segment adds its count and right half: a last pivot of exactly 0 is no negative mode
    walk = spectral._Walk(3)
    walk.state = [(2, 1, 1.0, 1.0, 1.0), (2, 1, 1.0, 0.5, 1.0), (0, 0, math.inf, math.inf, math.inf)]
    with pytest.raises(NumericalError, match="NaN"):  # inf - inf/inf
        walk.close((np.array([[3], [3], [0]]), np.zeros((3, 1))))
    walk.state = walk.state[:2]
    assert walk.close((np.array([[3], [3]]), np.zeros((2, 1)))) == [6, 7]


def pivot_row(rng, kind, n):
    """One row of ``_settle``'s input: ``(diag, b2)`` of length n, weakly coupled unless ``kind`` says otherwise."""
    diag = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
    b2 = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-30.0, 0.0, size=n)
    if not n:
        return diag, b2
    if kind == "zeros":  # exactly zero pivots at the first, a middle and the last row
        diag[[0, n // 2, n - 1]] = b2[[0, n // 2, n - 1]] = 0.0
    elif kind == "nonfinite":
        diag[rng.integers(n)] = rng.choice([math.nan, math.inf, -math.inf])
    elif kind == "couplings":  # none, subnormal, and a coupling past every diagonal
        b2 = rng.choice([0.0, 5e-324, 1e-310, 1e300], size=n)
    elif kind == "chain":  # FD-like: every pivot depends on all the rows before it, so a round settles about one
        diag, b2 = np.full(n, 2.0), np.ones(n)
    elif kind == "coupled":
        diag, b2 = 2.0 + 0.5 * rng.random(n), np.ones(n)
    return diag, b2


def pivot_key(neg, d):
    """A ``(neg, d)`` pair compared bit for bit, with every NaN alike."""
    return neg, ("nan" if math.isnan(d) else np.float64(d).tobytes())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["weak", "zeros", "nonfinite", "couplings", "chain", "coupled"])] * 2),
    n=st.sampled_from([0, 1, 2, 3, 50, 400, 1000]),
    starts=st.tuples(*[st.sampled_from([math.inf, 1.0, -1.0, 1e-300])] * 2),
    round_rows=st.sampled_from([1, spectral._ROUND_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_settled_pivots_equal_the_scalar_loop(kinds, n, starts, round_rows, seed):
    # two envelopes of rows, each of its own kind, so they settle in different rounds (the chains
    # never within the cap, so _pivots continues them); the counts and the last pivot's bits must
    # be the scalar loop's, from the starts (neg, d) as the walk carries them
    rng = np.random.default_rng(seed)
    diag, b2 = (np.array(a) for a in zip(*(pivot_row(rng, kind, n) for kind in kinds)))
    negs = (0, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_ROUND_ROWS", round_rows)
        got = spectral._settle(diag, b2, negs, starts)
    expected = [_pivots(diag[e].tolist(), b2[e].tolist(), negs[e], starts[e]) for e in range(2)]
    assert [pivot_key(*p) for p in got] == [pivot_key(*p) for p in expected]


def well_then_barrier(ts, width):
    """One segment per t: q = -1 on a length t, then q = w**2 on width/w, with w = -u'/u of the
    Neumann column leaving the well as ``_sweep`` normalizes it, so that column enters the
    barrier on its decaying branch.  Returns (lengths, values, the sweep of envelope 0)."""
    _, _, _, c11, _, c21 = _piece_coefficients(ts, np.full_like(ts, -1.0))
    r = np.sqrt(c11 * c11 + c21 * c21)
    w = -(c21 / r) / (c11 / r)
    lengths = np.column_stack([ts, width / w])
    values = np.column_stack([np.full_like(ts, -1.0), w * w])
    sweep = _sweep(lengths.ravel(), (values.ravel(),), np.arange(0, lengths.size + 1, 2))
    return lengths, values, [a[0] for a in sweep]


def test_rescued_decaying_branch_counts_no_zero():
    # a 50/w barrier scales the growing branch by exp(-100), which rounds away against 1, so
    # the transfer annihilates the decaying column and _sweep rescues it; a 3/w barrier runs
    # the plain transfer.  The rescued branch keeps its sign, so both barriers give the same
    # counts at every pair of ends; counting a zero before the rescue added one under a Neumann
    # left end.  The 50/w segments' lowest N-N level sits within rounding of 0 (its sign follows
    # the last bits of w), so the FD oracle checks their 3/w twins, whose counts are robust.
    ts = np.linspace(0.3, 1.5, 2001)
    thick_lengths, _, thick = well_then_barrier(ts, 50.0)
    lengths, values, thin = well_then_barrier(ts, 3.0)
    rescued = np.flatnonzero(thick[3][0] <= -thick[4])  # column 0 shrank: g <= -kd
    assert len(rescued) > len(ts) // 2
    for k in rescued.tolist():
        for bc_left in ("D", "N"):
            for bc_right in ("D", "N"):
                got = _domain_count(*(a[..., k:k + 1] for a in thick), bc_left, bc_right)
                assert got == _domain_count(*(a[..., k:k + 1] for a in thin), bc_left, bc_right)
    for k in rescued[:3].tolist():
        q = PiecewisePotential(np.concatenate([[0.0], np.cumsum(lengths[k])]), values[k])
        nn = _domain_count(*(a[..., k:k + 1] for a in thick), "N", "N")
        assert nn == fd_inertia_count(q.evaluate, q.breakpoints[-1], 200_000, "N") == 1
    # the scalar oracle normalizes as _sweep does, so it walks each rescued segment to the same counts
    d, n = _segment_counts([a[None] for a in thick])
    for k in rescued.tolist():
        assert d[0, k] == propagate_count(thick_lengths[k], values[k], "D", "D")
        assert n[0, k] == propagate_count(thick_lengths[k], values[k], "N", "N")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=120),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16, 64]),
    ts=st.lists(st.floats(0.3, 1.5), min_size=1, max_size=30),
    width=st.sampled_from([3.0, 50.0]),
)
# 120 refine-64 segments fill more than one default group; the 50/w barriers are rescued
@example(gaps=[1.0, 0.0, 2.5] * 40, reach_share=1.0, refine=64, ts=np.linspace(0.3, 1.5, 30).tolist(), width=50.0)
def test_sweep_groups_leave_every_array_unchanged(gaps, reach_share, refine, ts, width):
    # a realization's last level plus well-then-barrier segments, swept one piece per group,
    # in groups of at most 7 pieces and in default groups, where the rescue runs inside a group;
    # the whole-domain counts read g and kd, which the segment counts do not
    X = reach_share * (float(np.sum(gaps)) + 0.5 * len(gaps))
    real = build_realization(gaps, l=0.25, h=100.0, X=X)
    *_, (lengths, (q_shallow, q_deep), seg_idx) = levels(real, Perturbation.log_power(4.0 * PI**2, 2.0), refine)
    well_lengths, well_values, _ = well_then_barrier(np.array(ts), width)
    lengths = np.concatenate([lengths, well_lengths.ravel()])
    envelopes = tuple(np.concatenate([q, well_values.ravel()]) for q in (q_shallow, q_deep))
    seg_idx = np.concatenate([seg_idx, seg_idx[-1] + np.arange(2, well_lengths.size + 1, 2)])
    sweeps = []
    for budget in (1, 7, spectral._GROUP_PIECES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_GROUP_PIECES", budget)
            sweeps.append(_sweep(lengths, envelopes, seg_idx))
    for sweep in sweeps[:2]:
        assert all(np.array_equal(a, b) for a, b in zip(sweep, sweeps[2]))
    d, n = _segment_counts(sweeps[2])
    for e, values in enumerate(envelopes):
        for bc, got in (("D", d[e]), ("N", n[e])):
            expected = [propagate_count(lengths[a:b], values[a:b], bc, bc) for a, b in zip(seg_idx[:-1], seg_idx[1:])]
            assert got.tolist() == expected
            assert _domain_count(*(a[e] for a in sweeps[2]), bc, bc) == propagate_count(lengths, values, bc, bc)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=15, max_size=60),
    l=st.sampled_from([0.25, 0.5]),
    shares=st.lists(st.floats(0.0, 1.0), max_size=3),
    refine=st.sampled_from([4, 16, 64]),
    multiplier=st.sampled_from([4.0, 64.0]),
)
# 16 zero gaps: every base piece is a barrier half, and center 13 sits at 13.5 exactly
@example(gaps=[0.0] * 16, l=0.5, shares=[], refine=16, multiplier=64.0)
def test_block_size_leaves_every_certificate_unchanged(gaps, l, shares, refine, multiplier):
    # blocks of one segment, of seven level-4 segments and the default; a checkpoint inside
    # bump 6 has seven segments before its tail, so a seven-segment block ends right before it,
    # and one exactly at center 13 has 13; a second checkpoint in bump 6 has the same seven, so
    # its block sweeps its tail alone, and one before the first center has none; the others are
    # shares of the reach
    reach = float(np.sum(gaps)) + 2.0 * l * len(gaps)
    real = build_realization(gaps, l=l, h=100.0, X=reach)
    c = real.centers
    xs = sorted({float(c[6]) + 0.25 * l, float(c[6]) + 0.5 * l, float(c[13]), reach,
                 *([0.5 * float(c[0])] if c[0] > 0.0 else []), *(v * reach for v in shares if v > 0.0)})
    pert = Perturbation.log_power(multiplier * PI**2, 2.0)
    runs = []
    for budget in (1, 7 * 6, spectral._BLOCK_PIECES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_BLOCK_PIECES", budget)
            # the parts are cut where the blocks end, so they compare joined, as bytes
            runs.append([[(*r[:3], _dn_certificate(r)) for r in _certificates(real, pert, xs, refine, bc)] for bc in "DN"])
    assert runs[0] == runs[2] and runs[1] == runs[2]
    # the D/N pair is the sums of the per-interval counts on the level where the whole-domain
    # count settles, which is the level of its own bc
    for cert, n_d, n_n, dn in runs[2][0] + runs[2][1]:
        assert (n_d, n_n) == (dn.n_lo, dn.n_hi) == (sum(d for _, d, _ in dn.per_interval),
                                                   sum(n for _, _, n in dn.per_interval))
        assert n_d <= cert.n_lo <= cert.n_hi <= n_n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=2, max_size=30),
    l=st.sampled_from([0.05, 0.25, 0.5]),
    i=st.integers(0, 29),
    where=st.sampled_from(["center", "bump", "gap", "reach"]),
    t=st.floats(0.0, 1.0),
    j0_share=st.floats(0.0, 1.0),
    k_share=st.floats(0.0, 1.0),
)
# every gap zero, x at center 4, and K = j0 = 2
@example(gaps=[0.0] * 8, l=0.5, i=4, where="center", t=0.0, j0_share=0.4, k_share=0.0)
# x inside bump 3, left of its center, with K = 3 and the span from 0
@example(gaps=[0.0, 1.5, 0.0, 2.0, 1.0], l=0.25, i=3, where="bump", t=0.2, j0_share=0.0, k_share=1.0)
def test_span_equals_its_two_halves_at_any_center(gaps, l, i, where, t, j0_share, k_share):
    # a streamed block is one span from p_j0 to x; it must equal the span to center K-1
    # followed by the span from it to x, with the second's segment starts offset, bit for bit
    reach = float(np.sum(gaps)) + 2.0 * l * len(gaps)
    real = build_realization(gaps, l=l, h=100.0, X=reach)
    c = real.centers
    i = min(i, len(c) - 1)
    x = {"center": float(c[i]), "bump": float(c[i]) + (2.0 * t - 1.0) * l,
         "gap": float(c[i]) + l + t * (gaps[i + 1] if i + 1 < len(gaps) else 0.0), "reach": reach}[where]
    if not 0.0 < x <= reach:
        return
    k = int(np.searchsorted(c, x, side="left"))
    j0 = min(int(j0_share * (k + 1)), k)
    K = min(j0 + int(k_share * (k - j0 + 1)), k)
    whole = _span(real, j0, x)
    parts = ([_span(real, j0, c[K - 1])] if K > j0 else []) + [_span(real, K, x)]
    starts, lengths, values = (np.concatenate([p[f] for p in parts]) for f in range(3))
    offset = len(parts[0][0]) if K > j0 else 0
    seg_idx = np.concatenate([parts[0][3][:-1], parts[-1][3] + offset]) if K > j0 else parts[0][3]
    for got, want in zip(whole, (starts, lengths, values, seg_idx)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(whole[3]) == k - j0 + 2 and whole[3][-1] == len(whole[0])


def _trial_to(X):
    """A count-shaped call that runs one refine-4 trial with checkpoints X/100, X/10 and X."""
    dist = GapDistribution.exponential(1.0)
    cfg = ExperimentConfig(dist=dist, pert=borderline(dist).perturbation(4.0), l=0.25, h=100.0,
                           checkpoints=(X / 100, X / 10, X), trials=1)
    return lambda real, pert, refine: run_trial(cfg, 0)


@pytest.mark.parametrize("X, multiplier, refine, bound, count", [
    # one X = 1e5 count holds no per-piece Python objects: about 6 MB in blocks and 40 MB
    # as one whole level, where a scalar walk over list copies of the pieces peaks near 110 MB
    pytest.param(1e5, 4.0, 4, 80e6, count_with_bracketed_w, id="level-4"),
    # refines through levels 4, 8, 16 and 32: about 5 MB in blocks; 25 MB with each whole level
    # freed before the next is built, 36 MB when a level's arrays outlive its sweep
    pytest.param(1e4, 1000.0, 64, 30e6, count_with_bracketed_w, id="levels-4-to-32"),
    # X = 1e6 streams its 666 000 segments in blocks: about 14 MB, the realization's centers
    # (5 MB) plus about one block, where building the whole level at once peaks near 390 MB
    pytest.param(1e6, 4.0, 4, 40e6, count_with_bracketed_w, id="level-4-1e6"),
    pytest.param(1e6, 4.0, 4, 40e6, bracket_certificate, id="level-4-1e6-bracket-DN"),
    # a trial to 1e5 samples its own realization and settles 1e3, 1e4 and 1e5 from one
    # stream (about 8 MB); recounting each checkpoint on its own whole level peaks near 41 MB
    pytest.param(1e5, 4.0, 4, 20e6, _trial_to(1e5), id="trial-to-1e5"),
])
def test_whole_domain_count_memory_is_bounded(X, multiplier, refine, bound, count):
    dist = GapDistribution.exponential(1.0)
    real = sample_realization(dist, 0.25, 100.0, X, np.random.default_rng(1))
    pert = borderline(dist).perturbation(multiplier)
    tracemalloc.start()
    try:
        count(real, pert, refine=refine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_per_interval_counts_are_an_immutable_int_sequence():
    real = small_realization(seed=4, X=300.0)
    cert = bracket_certificate(real, Perturbation.log_power(4 * PI**2, 2.0), refine=16)
    per = cert.per_interval
    triples = list(per)
    assert len(triples) == real.bumps_within(300.0 - 1e-12) + 1
    assert all(type(v) is int for triple in triples for v in triple)
    assert [k for k, _, _ in triples] == list(range(len(triples)))
    assert sum(d for _, d, _ in per) == cert.n_lo and sum(n for _, _, n in per) == cert.n_hi
    # smallest unsigned dtype holding the largest count
    assert np.dtype(per.dtype) == np.uint8
    wide = IntervalCounts.from_arrays([np.array([0, 300])], [np.array([1, 70000])])
    assert np.dtype(wide.dtype) == np.uint32 and list(wide) == [(0, 0, 1), (1, 300, 70000)]
    with pytest.raises(ValueError):
        IntervalCounts.from_arrays([np.array([-1])], [np.array([0])])
    # equal to a copy, with the same hash; unequal to other counts
    d, n = (np.array([c[i] for c in triples]) for i in (1, 2))
    copy = IntervalCounts.from_arrays([d], [n.astype(np.int32)])
    assert copy == per and hash(copy) == hash(per)
    assert per != IntervalCounts.from_arrays([d], [n + 1]) and per != triples
    # run_experiment ships certificates between processes
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert and hash(back) == hash(cert) and list(back.per_interval) == triples
    with pytest.raises(dataclasses.FrozenInstanceError):
        per.d = b""


def test_bracket_dn_joins_interval_counts_once_per_certificate(monkeypatch):
    # a certificate's per-interval counts are joined on the level where it settles, not on every level
    joins, levels = [], []
    join, level = IntervalCounts.from_arrays.__func__, spectral._level
    monkeypatch.setattr(IntervalCounts, "from_arrays", classmethod(lambda cls, d, n: joins.append(1) or join(cls, d, n)))
    monkeypatch.setattr(spectral, "_level", lambda *args: levels.append(args[3]) or level(*args))
    dist = GapDistribution.exponential(1.0)
    for seed in range(6):
        real = sample_realization(dist, 0.25, 100.0, 300.0, np.random.default_rng(seed))
        bracket_certificate(real, Perturbation.log_power(16 * PI**2, 2.0), refine=64)
    assert len(levels) > 6  # seeds 1 and 4 settle on level 8
    assert len(joins) == 6


def test_per_interval_parts_join_as_one_array():
    # parts narrowed block by block (uint8 and uint16 here) join to the bytes and dtype of the
    # concatenated counts cast once, and a negative count in any part is still rejected
    d = [np.array([3, 0], np.uint8), np.array([300, 1], np.uint16), np.array([], np.uint8), np.array([7], np.uint8)]
    n = [np.array([4, 2], np.uint8), np.array([301, 9], np.uint16), np.array([], np.uint8), np.array([255], np.uint8)]
    got = IntervalCounts.from_arrays(d, n)
    d_all, n_all = np.concatenate(d), np.concatenate(n)
    dtype = np.min_scalar_type(max(d_all.max(), n_all.max()))
    assert got == IntervalCounts(d_all.astype(dtype).tobytes(), n_all.astype(dtype).tobytes(), dtype.str)
    assert np.dtype(got.dtype) == np.uint16 and list(got)[2] == (2, 300, 301)
    assert IntervalCounts.from_arrays(d[:1], n[:1]).dtype == np.dtype(np.uint8).str
    with pytest.raises(ValueError):
        IntervalCounts.from_arrays(d, [*n[:3], np.array([-1], np.int64)])


# ---------------------------------------------------------------------------
# decoupled hard-wall model: the paper's floor formula, one well at a time


@pytest.mark.parametrize("seed, draw", [
    # 100 draws of w from U(0.05, 9), each followed by its L from U(0.2, 12)
    pytest.param(55, lambda rng: [(float(rng.uniform(0.05, 9.0)), float(rng.uniform(0.2, 12.0))) for _ in range(100)],
                 id="seed-55"),
    # 200 (w, L) pairs from U(0.1, 8)^2
    pytest.param(606, lambda rng: rng.uniform(0.1, 8.0, (200, 2)), id="seed-606"),
])
def test_hard_wall_interval_matches_floor_formula(seed, draw):
    # a well of depth w and width L between two 1e8 walls holds floor(sqrt(w)*L/pi) states
    h, l = 1e8, 0.5
    for w, L in draw(np.random.default_rng(seed)):
        q = PiecewisePotential(
            np.array([0.0, l, l + L, L + 2 * l]), np.array([h - w, -w, h - w])
        )
        assert count_negative_exact(q).n_lo == math.floor(math.sqrt(w) * L / PI)


# ---------------------------------------------------------------------------
# single-well ground state


def test_hard_wall_limit():
    geom = WellGeometry(L=1.0, l=1.0, h=1e8, bc="D")
    mu = well_ground_state(geom)
    assert abs(mu - (PI / 2) ** 2) / (PI / 2) ** 2 < 1e-3


def test_neumann_root_below_dirichlet():
    mu_d = well_ground_state(WellGeometry(L=10.0, l=1.0, h=1.0, bc="D"))
    mu_n = well_ground_state(WellGeometry(L=10.0, l=1.0, h=1.0, bc="N"))
    assert mu_n < mu_d


def test_root_matches_asymptotic_at_large_l():
    for bc in ("D", "N"):
        geom = WellGeometry(L=100.0, l=1.0, h=1.0, bc=bc)
        root, asym = well_ground_state(geom), well_ground_asymptotic(geom)
        assert abs(math.sqrt(root) - math.sqrt(asym)) / math.sqrt(root) <= 1e-3


def test_penetration_depth_values():
    assert edge_penetration_depth(1.0, 1.0, "D") == pytest.approx(math.tanh(1.0))
    assert edge_penetration_depth(1.0, 1.0, "N") == pytest.approx(1 / math.tanh(1.0))
    # hard-wall limit: no leakage
    assert edge_penetration_depth(1e10, 1.0, "D") < 2e-5


def test_remainder_scales_like_inverse_cube():
    for bc in ("D", "N"):
        scaled = []
        for L in (25.0, 50.0, 100.0, 200.0):
            geom = WellGeometry(L=L, l=1.0, h=1.0, bc=bc)
            err = abs(math.sqrt(well_ground_state(geom)) - math.sqrt(well_ground_asymptotic(geom)))
            scaled.append(err * L**3)
        assert max(scaled) / min(scaled) < 4.0


@pytest.mark.parametrize(
    "geom",
    [
        WellGeometry(L=25.0, l=1.0, h=1.0, bc="D"),
        WellGeometry(L=25.0, l=1.0, h=1.0, bc="N"),
        WellGeometry(L=1.0, l=1.0, h=1e8, bc="D"),
        WellGeometry(L=100.0, l=0.5, h=4.0, bc="N"),
    ],
    ids=["D-soft", "N-soft", "D-hardwall", "N-wide"],
)
def test_root_residual(geom):
    k = math.sqrt(well_ground_state(geom))
    rhs = _edge_matching(k, geom.h, geom.l, geom.bc)
    assert abs(k * math.tan(k * geom.L) - rhs) <= 1e-9 * (1.0 + abs(rhs))


def _count_ground_state(geom):
    """Reference mu0: the first mu at which the half well [0, L + l] with a Neumann center has a level."""
    l = geom.l if math.isfinite(geom.l) else 400.0 / math.sqrt(geom.h)
    def has_level(mu):
        q = PiecewisePotential(np.array([0.0, geom.L, geom.L + l]), np.array([-mu, geom.h - mu]))
        return count_negative_exact(q, "N", geom.bc).n_lo >= 1
    a, b = 0.0, 2.0 * (PI / (2.0 * geom.L)) ** 2
    assert has_level(b)
    while a < (m := 0.5 * (a + b)) < b:
        a, b = (a, m) if has_level(m) else (m, b)
    return b


@pytest.mark.parametrize(
    "geom",
    [
        WellGeometry(L=1.0, l=100.0, h=0.01, bc="D"),
        WellGeometry(L=1.0, l=100.0, h=0.01, bc="N"),
        WellGeometry(L=1.0, l=1.0, h=1e30, bc="D"),
        WellGeometry(L=1.0, l=math.inf, h=1.0, bc="D"),
        WellGeometry(L=1.0, l=math.inf, h=1.0, bc="N"),
        WellGeometry(L=0.16, l=11.8, h=0.002, bc="D"),
        WellGeometry(L=1.3, l=7.7, h=1.6e-4, bc="N"),
        WellGeometry(L=25.0, l=1.0, h=1.0, bc="N"),
        WellGeometry(L=1.0, l=1.0, h=1e300, bc="N"),
    ],
    ids=["low-wide-D", "low-wide-N", "h1e30", "semi-infinite-D", "semi-infinite-N",
         "low-L0.16", "low-L1.3-N", "soft-N", "h1e300"],
)
def test_ground_state_matches_count_reference(geom):
    # mu0 is the lowest level of the even half problem; low wide flanks (h < (pi/2L)^2, l > 2L)
    # put a pole of the matching right side below pi/(2L), inside the bracket a root must avoid
    ref = _count_ground_state(geom)
    assert well_ground_state(geom) == pytest.approx(ref, rel=1e-9)
