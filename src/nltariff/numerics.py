"""Small deterministic numerical kernels: quadrature, root finding, 1D search.

All quadrature in the library is composite trapezoid on explicit grids, and
equations are solved by plain bisection, one at a time or elementwise over
an array, so results are bit-stable across platforms.
"""
import numpy as np

from .errors import ConvergenceError

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # golden ratio conjugate


def trapezoid(y, x):
    """Composite trapezoid of samples ``y`` over grid ``x`` (last axis).

    The expression ``np.trapezoid(y, x, axis=-1)`` evaluates, in its order
    of operations, without its generic wrapper, so the result is bitwise
    np.trapezoid's.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return ((x[..., 1:] - x[..., :-1]) * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)


def cumtrapz(y, x):
    """Cumulative trapezoid along the last axis, anchored at 0 on the first node."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = np.diff(x)
    seg = 0.5 * (y[..., 1:] + y[..., :-1]) * dx
    out = np.zeros(y.shape, dtype=float)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def tail_integrals(fn, nodes):
    """The map x0 -> int_{x0}^{1} fn(x) dx on a 1-D array of x0 in [0, 1],
    from one quadrature that every x0 shares.

    ``fn`` is evaluated once on ``nodes`` points of [0, 1] graded toward
    x = 1, 1 - linspace(1, 0)^2, whose cumulative trapezoid gives each x0
    the table's tail from the first node above x0; the partial cell from x0
    to that node adds one trapezoid with fn(x0). So a call costs one
    evaluation of ``fn`` per x0.
    """
    xs = 1.0 - np.linspace(1.0, 0.0, nodes) ** 2
    ys = fn(xs)
    cum = cumtrapz(ys, xs)

    def tail(x0):
        i = np.minimum(np.searchsorted(xs, x0, side="right"), xs.size - 1)
        return cum[-1] - cum[i] + (xs[i] - x0) * (fn(x0) + ys[i]) / 2.0

    return tail


def bisect(f, lo, hi, xtol=1e-14, max_iter=200):
    """Root of a scalar function by bisection on a sign-changing bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ConvergenceError(
            f"no sign change on [{lo:.6g}, {hi:.6g}] (f={flo:.3g}, {fhi:.3g})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < xtol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo, hi, xtol=1e-10, max_iter=200):
    """Maximize a scalar function on [lo, hi] by golden-section search.

    Returns (x, f(x)). Exact only for unimodal f; callers bracket the
    maximizer with a grid scan first.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_then_golden_max(f, xs, xtol=1e-10):
    """Global 1D maximization: a scan of the increasing grid ``xs``, then
    golden-section refinement between the best point's neighbours.

    ``f`` is called once on the whole scan grid and must then return one
    value per point; the refinement calls it on scalars. Returns
    (x_star, value).
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(f(xs))
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, xs.size - 1)]
    x_star, v_star = golden_max(f, a, b, xtol=xtol)
    if vals[i] > v_star:
        x_star, v_star = xs[i], vals[i]
    return x_star, v_star


def invert_increasing(f, y, hi0, xtol, max_doublings=300, max_iter=200):
    """Solve f(c) = y on c >= 0 for every element of the 1D array ``y``;
    f is increasing, elementwise, and f(0) < y.

    Each element doubles its upper end from ``hi0`` until f(hi) >= y and
    returns hi if that is an exact hit. Otherwise it bisects [0, hi] and
    returns the first midpoint that hits y exactly or whose bracket is
    narrower than ``xtol``, or the bracket's midpoint after ``max_iter``
    steps. Each step calls ``f`` once on the elements still running.
    """
    hi = np.full(y.shape, float(hi0))
    run = np.arange(y.size)
    for _ in range(max_doublings):
        # not (f >= y), so a NaN keeps doubling
        short = ~(f(hi[run]) >= y[run])
        if not short.any():
            break
        run = run[short]
        hi[run] *= 2.0
    else:
        raise ConvergenceError(f"could not bracket target {y[run[0]]:.6g} by doubling")
    out = hi.copy()
    run = np.flatnonzero(f(hi) != y)
    lo, hi, y = np.zeros(run.size), hi[run], y[run]
    for _ in range(max_iter):
        if run.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        stop = (fm == y) | (hi - lo < xtol)
        below = fm < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if stop.any():
            out[run[stop]] = mid[stop]
            run, lo, hi, y = run[~stop], lo[~stop], hi[~stop], y[~stop]
    out[run] = 0.5 * (lo + hi)
    return out
