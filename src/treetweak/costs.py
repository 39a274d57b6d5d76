"""Tweaking-cost functions: how much effort a transformation takes.

Five distance-like functions over (original, transformed) vector pairs.
Each satisfies cost(x, x) = 0 and cost(x, x') >= 0 on its documented
domain and is symmetric in its arguments.

Each function takes ``x`` as an ``[n]`` vector and ``y`` either as an
``[n]`` vector, giving a float, or as a ``[C, n]`` matrix of candidates,
giving a ``[C]`` float64 array with one cost per row. Where a cost is
undefined (a zero-norm vector for cosine, a constant vector for Pearson)
the vector form raises :class:`ZeroVector` or :class:`ZeroVariance` and
the matrix form puts NaN in that row. The vector form is the matrix form
on a single row, so both give bit-for-bit the same numbers: every
reduction runs along the last axis of a C-contiguous array, which sums in
the same order for one row as for many.

"Changed component" means exact float inequality: candidates are built by
explicit assignment, so changed components differ by construction rather
than by rounding noise.
"""

from __future__ import annotations

import functools

import numpy as np

from treetweak.errors import LengthMismatch, ZeroVariance, ZeroVector


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim > 2 or b.shape[-1:] != a.shape:
        raise LengthMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _rowwise(undefined=None, degree=0):
    """Turn a kernel ``(x, Y) -> (costs, undefined_rows, overflowed_rows)``
    over a ``[C, n]`` matrix ``Y`` into a cost function of a vector or a
    matrix ``y``.

    ``undefined(n)`` builds the exception the vector form raises for an
    undefined row. An overflowed row is computed again on x and the row,
    each scaled exactly by a power of two to magnitudes below 1, so every
    other row keeps its bits; a distance (``degree=1``) shares the smaller
    scale, its kernel taking x as one row per candidate, and divides it out.
    """

    def wrap(kernel):
        @functools.wraps(kernel)
        def cost(x, y):
            a, b = _pair(x, y)
            Y = np.ascontiguousarray(np.atleast_2d(b))
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                costs, bad, over = kernel(a, Y)
                if over.any():
                    sx, sy = _unit_scale(a), _unit_scale(Y[over])
                    if degree:
                        sx = sy = np.minimum(sx, sy)
                    again, bad[over], _ = kernel(a * sx, Y[over] * sy)
                    costs[over] = again / sy[:, 0] ** degree
            if b.ndim == 2:
                costs[bad] = np.nan
                return costs
            if bad[0]:
                raise undefined(len(a))
            return float(costs[0])

        return cost

    return wrap


def _unit_scale(v: np.ndarray) -> np.ndarray:
    """Per row of ``v``, the power of two that brings its largest magnitude
    into [0.5, 1) (1 for an all-zero row), keeping the last axis as 1."""
    return np.ldexp(1.0, -np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1])


def _always_defined(costs: np.ndarray):
    """A kernel result with no undefined row; an inf cost has overflowed."""
    return costs, np.zeros(len(costs), dtype=bool), np.isinf(costs)


@_rowwise()
def tweaked_feature_rate(x, Y):
    """Proportion of components that changed; range [0, 1]."""
    return _always_defined((Y != x).sum(axis=1) / len(x))


@_rowwise(degree=1)
def euclidean_distance(x, Y):
    """L2 norm of the change vector."""
    return _always_defined(np.sqrt(((Y - x) ** 2).sum(axis=1)))


@_rowwise(lambda n: ZeroVector("cosine distance undefined for a zero-norm vector"))
def cosine_distance(x, Y):
    """1 minus the cosine of the angle between the vectors; range [0, 2]."""
    nx = np.sqrt((x * x).sum())
    ny = np.sqrt((Y * Y).sum(axis=1))
    dot, norms = (Y * x).sum(axis=1), nx * ny
    costs = 1.0 - np.clip(dot / norms, -1.0, 1.0)
    costs[(Y == x).all(axis=1)] = 0.0
    return costs, (nx == 0.0) | (ny == 0.0), np.isinf(norms) | np.isinf(dot)


@_rowwise()
def jaccard_distance(x, Y):
    """Set Jaccard distance over (index, value) pairs; range [0, 1].

    With c changed components out of n, the two sets share n - c pairs out
    of n + c total, giving 1 - (n - c)/(n + c) = 2c/(n + c). This grows
    monotonically with the number of tweaks and needs no assumptions about
    value signs, unlike min/max generalizations.
    """
    c = (Y != x).sum(axis=1)
    return _always_defined(2.0 * c / (len(x) + c))


def _zero_variance(n: int) -> ZeroVariance:
    if n < 2:
        return ZeroVariance("vector", "correlation needs at least 2 components")
    return ZeroVariance("vector", "correlation undefined for a constant vector")


@_rowwise(_zero_variance)
def pearson_correlation_distance(x, Y):
    """1 minus the Pearson correlation of the two vectors; range [0, 2]."""
    dx = x - x.mean()
    dY = Y - Y.mean(axis=1, keepdims=True)
    vx = (dx * dx).sum()
    vy = (dY * dY).sum(axis=1)
    dot, var = (dY * dx).sum(axis=1), vx * vy
    costs = 1.0 - np.clip(dot / np.sqrt(var), -1.0, 1.0)
    same = (Y == x).all(axis=1)
    costs[same] = 0.0
    undefined = ~same & ((len(x) < 2) | (vx == 0.0) | (vy == 0.0))
    return costs, undefined, ~np.isfinite(var) | np.isinf(dot)


COST_FUNCTIONS = {
    "tweaked_feature_rate": tweaked_feature_rate,
    "euclidean": euclidean_distance,
    "cosine": cosine_distance,
    "jaccard": jaccard_distance,
    "pearson": pearson_correlation_distance,
}

COST_NAMES = tuple(COST_FUNCTIONS)


def cost_by_name(name: str):
    try:
        return COST_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown cost function {name!r}; choose from {', '.join(COST_NAMES)}"
        ) from None
