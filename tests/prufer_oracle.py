"""Reference negative-eigenvalue counter: one scalar Prufer walk over all pieces.

The library counts through per-segment transfers and an interface Schur
complement; this walk follows the energy-0 solution through every piece in
turn and is what the tests compare that core with.
"""

import math

from randkp.spectral import NumericalError, _piece_coefficients


def propagate_count(lengths, values, bc_left: str, bc_right: str) -> int:
    """Negative-eigenvalue count by zero counting of the energy-0 solution.

    Zeros landing exactly on a breakpoint are counted once and attributed to
    the left piece; a zero at the right endpoint means 0 is itself a
    Dirichlet eigenvalue and is excluded from the (strictly) negative count.
    """
    neg, om, t, c11, c12, c21 = _piece_coefficients(lengths, values)
    u, du = (0.0, 1.0) if bc_left == "D" else (1.0, 0.0)
    zeros = 0
    for osc, w, tt, a11, a12, a21 in zip(
        neg.tolist(), om.tolist(), t.tolist(), c11.tolist(), c12.tolist(), c21.tolist()
    ):
        un = a11 * u + a12 * du
        dn = a21 * u + a11 * du
        if osc:
            # zeros in (0, d]: integer multiples of pi crossed by the local phase
            phi = math.atan2(w * u, du)
            zeros += math.floor((phi + tt) / math.pi) - math.floor(phi / math.pi)
        else:
            if un == 0.0 and dn == 0.0:
                # pure decaying branch annihilated by the rescaled transfer: it keeps its sign
                un, dn = u, -w * u
            if u != 0.0 and (un == 0.0 or (u > 0.0) != (un > 0.0)):
                zeros += 1  # convex pieces gain at most one zero
        r = math.sqrt(un * un + dn * dn)  # as _sweep normalizes, so both walks round alike
        if r == 0.0:
            raise NumericalError("solution vector vanished during propagation")
        u, du = un / r, dn / r
    if bc_right == "D":
        return zeros - (1 if u == 0.0 else 0)
    return zeros + (1 if u * du < 0.0 else 0)
