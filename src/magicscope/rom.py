"""Linear programs over the reduced polytope: robustness and membership.

The reduced robustness minimizes the 1-norm of an affine pseudo-mixture
of polytope vertices reproducing the observed expectations.  It has one
solver, at every vertex count: column generation on the primal, run as
dual cutting planes.  The dual has only m+1 variables, pricing over all
vertices is one matrix-vector product over the int8 vertex rows, taken
in float64 a block at a time, and the primal coefficients are the row
marginals of the last dual solve, so sweeps over large polytopes stay
tractable.  The expectations lie in the polytope exactly
when rom <= 1, which ``RomResult.member`` reports.

When the measurement set has a non-trivial qubit symmetry group (cyclic
shifts and reflections that map the signed set onto itself) and b is
constant on its measurement orbits to SYMMETRY_TOLERANCE, the same
solver runs over the distinct orbit-sum points of the vertices instead
(Heinrich & Gross, Quantum 3, 132, 2019): the LP is convex, so an
optimal dual can be taken constant on the orbits, and a vertex then
enters only through its orbit sums.  The coefficients are then one
weight w per point.  Spreading each weight evenly over its point's
fibre, every vertex projecting to it, would give vertex coefficients
with the same sum and 1-norm: the group maps the fibre onto itself, so
its mean is constant on the orbits, and the spread takes the value
(points.T @ w)[o] / |o| on each measurement of orbit o.  If b is not
invariant, the reduced LP fails, or that vector does not reproduce b,
the full LP runs.  The reduced LP's first dual solve runs over the
vertices of the points' convex hull where ``OrbitReduction.hull`` has
them, the only points that can bind.  Elsewhere it runs over the
reduction's ``probes``, the extreme points along fixed seeded
directions, and the points most and least aligned with b.  Pricing
still runs over every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from .polytope import _BLOCK_ROWS, VertexSet

__all__ = [
    "ExpectationVector",
    "RomResult",
    "reduced_rom",
    "sample_complexity",
    "LP_TOLERANCE",
    "LP_TOLERANCE_RANGE",
    "DECISION_TOLERANCE",
    "SYMMETRY_TOLERANCE",
]

LP_TOLERANCE = 1e-9
# [low, high) of the tolerances HiGHS takes: it drops a lower one, and fails at 1
LP_TOLERANCE_RANGE = (1e-10, 1.0)
DECISION_TOLERANCE = 1e-7
INPUT_TOLERANCE = 1e-6
# largest orbit spread of b that still takes the symmetric path; the same
# 1e-8 that the orbit-sum weights must reproduce b to
SYMMETRY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ExpectationVector:
    values: Tuple[float, ...]

    def __post_init__(self):
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"expectation {v} is not finite")
            if abs(v) > 1.0 + INPUT_TOLERANCE:
                raise ValueError(f"expectation {v} outside [-1, 1]")

    @classmethod
    def of(cls, values: Sequence[float]) -> "ExpectationVector":
        return cls(tuple(float(v) for v in values))

    @property
    def m(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RomResult:
    """One robustness query's result.

    ``coefficients`` is empty unless status is "optimal".  On the full
    path it holds one coefficient per row of ``VertexSet.vertices``; on
    the symmetric path one weight per row of ``VertexSet.symmetry.points``,
    each to be spread evenly over the vertices projecting to that point.
    """

    rom: float
    coefficients: np.ndarray
    member: bool
    status: str
    path: str  # "symmetric" (orbit-sum LP) or "full"
    cause: str = ""  # why the solver failed; empty unless status is "numerically-degenerate"


def _row_products(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """rows @ vector in float64, _BLOCK_ROWS rows at a time.

    numpy casts a whole int8 operand to float64 before a matmul, which
    for the vertex array would be an N x m float copy; a block's copy
    is a few hundred kilobytes.  Float rows (the orbit-sum points) are
    not copied.
    """
    out = np.empty(len(rows))
    for a in range(0, len(rows), _BLOCK_ROWS):
        out[a:a + _BLOCK_ROWS] = np.asarray(rows[a:a + _BLOCK_ROWS], dtype=float) @ vector
    return out


def _aligned_rows(vmat: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """The 2(m+1) rows most and the 2(m+1) least aligned with b_eq, ascending."""
    m = vmat.shape[1]
    order = np.argsort(_row_products(vmat, b_eq[:m]), kind="stable")
    seed = 2 * (m + 1)
    return np.unique(np.concatenate([order[:seed], order[-seed:]]))


def _solve_l1_column_generation(
    vmat: np.ndarray,
    b_eq: np.ndarray,
    lp_tolerance: float = LP_TOLERANCE,
    warm: Optional[np.ndarray] = None,
):
    """Solve the 1-norm LP by dual cutting planes; returns (fun, coefficients, status, cause).

    The dual is max b_eq . y subject to |v_j . y[:m] + y[m]| <= 1 for
    every vertex j, inside the box |y| <= bound.  Constraints are
    activated lazily: solve over the active rows, price all vertices with
    one matvec, add the worst violators, repeat.  The first active set
    is ``warm``, ascending row indices, or by default ``_aligned_rows``;
    ``_solve_symmetric`` passes the hull vertices or, where there is no
    hull, the probes and the aligned rows.  Once no vertex is violated,
    the primal is read from the last solve's row marginals,
    x = lambda_plus - lambda_minus over the active vertices.  If that x
    reproduces b_eq and its 1-norm equals the dual objective to
    DECISION_TOLERANCE, the optimum is found; a larger duality gap, as a
    loose lp_tolerance leaves, is a solver failure (status 4).  If x does not reproduce b_eq the box is binding, so it
    is widened, and past 1e12 the primal is reported infeasible (status
    2).  cause says why a status other than 0 or 2 was returned.
    """
    n_vert, m = vmat.shape
    active = _aligned_rows(vmat, b_eq) if warm is None else warm
    bound = 1e6
    batch = 8 * (m + 1)
    for _ in range(200):
        block = vmat[active]
        rows = block.shape[0]
        a_ub = np.empty((2 * rows, m + 1))
        a_ub[:rows, :m] = block
        a_ub[:rows, m] = 1.0
        a_ub[rows:] = -a_ub[:rows]
        res = linprog(
            -b_eq,
            A_ub=a_ub,
            b_ub=np.ones(2 * rows),
            bounds=(-bound, bound),
            method="highs",
            # the dual objective is the reported rom, so it must be optimal to
            # lp_tolerance as well (HiGHS's default dual tolerance is 1e-7)
            options={
                "primal_feasibility_tolerance": lp_tolerance,
                "dual_feasibility_tolerance": lp_tolerance,
            },
        )
        if res.status != 0:
            return math.nan, None, res.status, f"HiGHS: {res.message}"
        y = res.x
        violation = np.abs(_row_products(vmat, y[:m]) + y[m]) - 1.0
        violated = np.flatnonzero(violation > 1e-9)
        if violated.size:
            worst = violated[np.argsort(violation[violated], kind="stable")[::-1][:batch]]
            active = np.unique(np.concatenate([active, worst]))
            continue
        marginals = -res.ineqlin.marginals
        x_active = marginals[:rows] - marginals[rows:]
        reproduced = np.append(block.T @ x_active, x_active.sum())
        if np.max(np.abs(reproduced - b_eq)) <= 1e-8:
            fun = -float(res.fun)
            gap = abs(float(np.abs(x_active).sum()) - fun)
            if gap > DECISION_TOLERANCE:
                return math.nan, None, 4, f"duality gap {gap:.3g} with dual objective {fun!r}"
            coeffs = np.zeros(n_vert)
            coeffs[active] = x_active
            return fun, coeffs, 0, ""
        # The box is binding: either the dual is unbounded (primal
        # infeasible) or the box was too tight.
        if bound > 1e12:
            return math.inf, None, 2, ""
        bound *= 1e3
    return math.nan, None, 1, "no optimum after 200 column-generation rounds"


def _solve_symmetric(vset: VertexSet, b_eq: np.ndarray, lp_tolerance: float):
    """The 1-norm LP over the orbit-sum points.

    Returns (fun, weights over the points, 0, "") like
    ``_solve_l1_column_generation``, or None when the group is trivial,
    b_eq is not constant on every orbit to SYMMETRY_TOLERANCE, the
    reduced LP fails, or the weights' spread over the fibres would not
    reproduce b_eq to 1e-8.
    """
    reduction = vset.symmetry
    if reduction is None:
        return None
    values = b_eq[:-1]
    if np.ptp(values[reduction.perms], axis=0).max() > SYMMETRY_TOLERANCE:
        return None
    orbits = reduction.orbits
    sums = np.bincount(orbits, weights=values, minlength=reduction.points.shape[1])
    target = np.append(sums, 1.0)
    warm = reduction.hull
    if warm is None:
        warm = np.union1d(reduction.probes, _aligned_rows(reduction.points, target))
    fun, weights, status, _ = _solve_l1_column_generation(
        reduction.points, target, lp_tolerance, warm
    )
    if status != 0:
        return None
    # the spread's value on measurement i of orbit o: (points.T @ weights)[o] / |o|
    spread = (reduction.points.T @ weights / np.bincount(orbits))[orbits]
    if np.max(np.abs(np.append(spread, weights.sum()) - b_eq)) > 1e-8:
        return None
    return fun, weights, 0, ""


def reduced_rom(
    vset: VertexSet,
    b: ExpectationVector,
    decision_tolerance: float = DECISION_TOLERANCE,
    lp_tolerance: float = LP_TOLERANCE,
) -> RomResult:
    """min ||x||_1 s.t. sum_j x_j v_j = b, sum_j x_j = 1.

    Solved by column generation at every vertex count.  It stops once no
    vertex violates the dual and the last dual solve's marginals
    reproduce b; those marginals, scattered over all vertices, are the
    coefficients.  A binding dual box past 1e12 means b lies outside the
    affine hull ("infeasible").  lp_tolerance is the LP solver's primal and
    dual feasibility tolerance; a solve whose coefficients' 1-norm and dual
    objective differ by more than DECISION_TOLERANCE is a solver failure
    ("numerically-degenerate", with the gap in ``cause``), not an optimum.

    If the set has a non-trivial qubit symmetry group and every orbit
    spread of b is at most SYMMETRY_TOLERANCE (1e-8), the LP runs over
    the distinct orbit-sum points and the coefficients are their weights
    (``path == "symmetric"``).  A larger spread, a failed reduced LP or
    weights whose even spread over each point's fibre of vertices would
    not reproduce b to 1e-8 fall back to the full LP (``path == "full"``).
    """
    if vset.measurements.m != b.m:
        raise ValueError("dimension mismatch between vertex set and expectations")
    b_eq = np.concatenate([np.asarray(b.values, dtype=float), [1.0]])
    solved = _solve_symmetric(vset, b_eq, lp_tolerance)
    path = "symmetric"
    if solved is None:
        solved = _solve_l1_column_generation(vset.vertices, b_eq, lp_tolerance)
        path = "full"
    fun, coeffs, status, cause = solved
    if status == 2:
        return RomResult(math.inf, np.empty(0), False, "infeasible", path)
    if status != 0:
        return RomResult(math.nan, np.empty(0), False, "numerically-degenerate", path, cause)
    rom = float(fun)
    return RomResult(rom, coeffs, rom <= 1.0 + decision_tolerance, "optimal", path)


def sample_complexity(rom: float, delta: float, epsilon: float) -> int:
    """Quasiprobability sampling bound ceil((2/delta^2) rom^2 ln(2/eps))."""
    if rom < 1.0:
        raise ValueError("rom must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < epsilon <= 2:
        raise ValueError("epsilon must be in (0, 2]")
    return math.ceil((2.0 / delta**2) * rom**2 * math.log(2.0 / epsilon))
