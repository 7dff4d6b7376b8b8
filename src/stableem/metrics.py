"""Wasserstein-1 estimators, empirical characteristic functions, rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W1_BATCHES = 20  # contiguous slices behind the batch-means error of w1_gap_stderr
FIT_POINTS = 4  # the fewest points a rate fit takes
ECF_SLICE = 8192  # samples per slice of ecf: 0.5 MiB of complex terms at 4 lambdas


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def w1_sorted_1d(xs, ys) -> float:
    """Exact W1 between two equal-size 1-D empirical measures.

    The optimal coupling in one dimension is the monotone rearrangement, so
    the distance is the mean absolute difference of sorted samples.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError(
            f"sample sizes differ ({xs.size} vs {ys.size}); subsample upstream to equalize"
        )
    if xs.size == 0:
        raise ValueError("need at least one sample")
    return float(np.mean(np.abs(np.sort(xs) - np.sort(ys))))


def w1_gap_stderr(alpha: float, xs, ys, ref_a=None, ref_b=None) -> float:
    """Batch-means standard error of W1(xs, ys) - W1(ref_a, ref_b), or of W1(xs, ys) alone.

    Every sample is cut into W1_BATCHES contiguous slices of k = n // W1_BATCHES
    points, n the smallest sample's size; the remainder is dropped.  Slice j
    of xs is compared with slice j of ys (and of ref_a with ref_b), which
    gives W1_BATCHES independent copies d_j of the difference at size k.  The
    empirical W1 of a law with tail index alpha fluctuates like
    size^{1/alpha - 1}, so their spread is rescaled from size k to size
    W1_BATCHES * k by W1_BATCHES^{1/alpha - 1}.  A naive bootstrap of the
    mean of |x_(i) - y_(i)| is inconsistent for alpha < 2, where those
    summands have infinite variance; this rests only on the scaling above
    and draws no random numbers.
    """
    samples = [xs, ys] if ref_a is None else [xs, ys, ref_a, ref_b]
    samples = [np.asarray(s, dtype=float).ravel() for s in samples]
    n = min(s.size for s in samples)
    k = n // W1_BATCHES
    if k < 2:
        raise ValueError(f"need at least 2 points in each of {W1_BATCHES} slices, got {n} points")
    cut = np.stack([s[: W1_BATCHES * k].reshape(W1_BATCHES, k) for s in samples])
    cut.sort(axis=-1)
    w1 = np.abs(cut[0::2] - cut[1::2]).mean(axis=-1)  # (pairs, W1_BATCHES)
    d = w1[0] - w1[1] if len(w1) == 2 else w1[0]
    return float(d.std(ddof=1) * W1_BATCHES ** (1.0 / alpha - 1.0))


def ecf(samples, lambdas) -> np.ndarray:
    """Empirical characteristic function (1/m) sum_i exp(i lambda x_i) at L lambdas, shape (L,).

    The terms exp(i lambda x_i) are built ECF_SLICE samples at a time, so no
    (m, L) array is held.  Each slice's terms fill rows 1..k of a buffer
    whose row 0 holds the sum of the slices before it (the first slice has
    no row 0), and the rows are added in order along axis 0.  That is the
    order of ``np.exp(1j * np.multiply.outer(x, lam)).mean(axis=0)``, which
    adds the m rows one after another, and the division by m comes last as
    there; so the result is that expression's, bit for bit.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"need a non-empty 1-D sample, got shape {x.shape}")
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"need a 1-D array of lambdas, got shape {lam.shape}")
    size = min(ECF_SLICE, x.size)
    phase = np.empty((size, lam.size))
    rows = np.empty((size + 1, lam.size), dtype=complex)
    first = 1
    for lo in range(0, x.size, size):
        k = min(size, x.size - lo)
        np.multiply.outer(x[lo : lo + k], lam, out=phase[:k])
        terms = rows[1 : k + 1]
        np.multiply(1j, phase[:k], out=terms)
        np.exp(terms, out=terms)
        rows[0] = np.add.reduce(rows[first : k + 1], axis=0)
        first = 0
    return rows[0] / x.size


def rate_fit(points) -> RateFit:
    """OLS of log W1 against log gamma; the slope is the empirical rate exponent.

    Nonpositive W1 values are dropped with a warning; fewer than FIT_POINTS
    surviving points is an error.
    """
    pts = [(float(g), float(w)) for g, w in points]
    if any(g <= 0 for g, _ in pts):
        raise ValueError("gamma values must be positive")
    kept = [(g, w) for g, w in pts if w > 0]
    if len(kept) < len(pts):
        import warnings

        warnings.warn(f"dropped {len(pts) - len(kept)} nonpositive W1 points from rate fit")
    if len(kept) < FIT_POINTS:
        raise ValueError(f"need >= {FIT_POINTS} positive points for a rate fit, got {len(kept)}")
    lg = np.log([g for g, _ in kept])
    lw = np.log([w for _, w in kept])
    design = np.vstack([lg, np.ones_like(lg)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, lw, rcond=None)
    resid = lw - design @ [slope, intercept]
    ss_tot = float(np.sum((lw - lw.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
    )
