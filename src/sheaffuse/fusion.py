"""Data fusion: nearest global section to an assignment.

The search runs over the stalk at the whole space, since a global
section is determined by its value there.  The minimax objective (the
sup pseudometric to the input assignment) is optimized by a built-in
Nelder-Mead simplex method; fully linear Euclidean sheaves first take a
least-squares step to seed the simplex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .consistency import Assignment, assignment_distance, pullback_global
from .errors import DegenerateAssignment, NoTopStalk
from .sheaf import Sheaf

INIT_STEP_FRACTION = 0.05
ZERO_COORD_STEP = 0.025
RESTART_NOISE_FRACTION = 0.10


@dataclass(frozen=True)
class FusionOptions:
    max_iterations: int = 2000
    f_tolerance: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or self.restarts <= 0:
            raise ValueError("iteration and restart counts must be positive")
        if self.f_tolerance < 0:
            raise ValueError("f_tolerance must be nonnegative")


@dataclass
class NelderMeadResult:
    x: tuple[float, ...]
    f: float
    iterations: int
    evaluations: int
    converged: bool


def _wrap(x, circular_mask):
    if circular_mask is None:
        return x
    return [
        (xi % 360.0 if flag else xi) for xi, flag in zip(x, circular_mask)
    ]


def _nelder_mead_single(objective, x0, circular_mask, max_iterations,
                        f_tolerance) -> NelderMeadResult:
    """One simplex run with the standard coefficients."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return objective(_wrap(x, circular_mask))

    simplex = [list(x0)]
    for i in range(n):
        step = INIT_STEP_FRACTION * abs(x0[i])
        if step == 0.0:
            step = ZERO_COORD_STEP
        vertex = list(x0)
        vertex[i] += step
        simplex.append(vertex)
    values = [f(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < max_iterations:
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] <= f_tolerance:
            converged = True
            break
        iterations += 1
        centroid = [
            sum(simplex[i][j] for i in range(n)) / n for j in range(n)
        ]
        worst = simplex[-1]
        reflected = [
            centroid[j] + alpha * (centroid[j] - worst[j]) for j in range(n)
        ]
        fr = f(reflected)
        if fr < values[0]:
            expanded = [
                centroid[j] + gamma * (reflected[j] - centroid[j])
                for j in range(n)
            ]
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = [
                centroid[j] + rho * (worst[j] - centroid[j]) for j in range(n)
            ]
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = [
                        best[j] + sigma * (simplex[i][j] - best[j])
                        for j in range(n)
                    ]
                    values[i] = f(simplex[i])
    i_best = min(range(n + 1), key=lambda i: values[i])
    x_best = tuple(_wrap(simplex[i_best], circular_mask))
    return NelderMeadResult(x_best, values[i_best], iterations, evals,
                            converged)


def nelder_mead(objective, x0, circular_mask=None,
                opts: FusionOptions = FusionOptions()) -> NelderMeadResult:
    """Best of ``opts.restarts`` simplex runs; deterministic in the seed.

    Restart k > 0 perturbs the start by Gaussian noise at 10% of each
    coordinate's scale.  Ties keep the first-found optimum.  When the
    iteration budget runs out the best-so-far comes back flagged
    ``converged=False``.
    """
    x0 = [float(v) for v in x0]
    f0 = objective(_wrap(list(x0), circular_mask))
    if not np.isfinite(f0):
        raise ValueError("objective is not finite at the start point")
    rng = random.Random(opts.seed)
    best: NelderMeadResult | None = None
    total_iter = 0
    total_eval = 1
    for attempt in range(opts.restarts):
        if attempt == 0:
            start = list(x0)
        else:
            start = [
                v + rng.gauss(0.0, RESTART_NOISE_FRACTION *
                              (abs(v) if v != 0.0 else ZERO_COORD_STEP * 10))
                for v in x0
            ]
        run = _nelder_mead_single(objective, start, circular_mask,
                                  opts.max_iterations, opts.f_tolerance)
        total_iter += run.iterations
        total_eval += run.evaluations
        if best is None or run.f < best.f:
            best = run
    assert best is not None
    return NelderMeadResult(best.x, best.f, total_iter, total_eval,
                            best.converged)


@dataclass
class FusionResult:
    section_at_top: sp.Point
    fused: Assignment
    residual: float
    lower_bound: float | None
    iterations: int
    converged: bool
    route: str


def fusion_lower_bound(radius: float, lipschitz: float) -> float:
    """Distance floor radius / (1 + K) for K-Lipschitz restrictions."""
    if radius < 0 or lipschitz < 0:
        raise ValueError("radius and Lipschitz constant must be nonnegative")
    return radius / (1.0 + lipschitz)


def _top_parameterization(sh: Sheaf):
    top = sh.topology.full
    space = sh.stalk(top.id)
    pb = sh.pullback(top.id)
    if pb is None or not pb.constraints:
        return top, space, space.circular_mask, None
    if sh.is_linear():
        # optimize in kernel coordinates of the pullback subspace
        return top, space, None, sh.kernel_basis(top.id)
    raise NoTopStalk(
        "the stalk over the whole space is a constrained pullback of a "
        "nonlinear sheaf and has no finite parameterization"
    )


def fuse(a: Assignment, opts: FusionOptions = FusionOptions(),
         lipschitz: float | None = None) -> FusionResult:
    """Solve the fusion problem: the global section nearest to ``a``.

    Minimizes sup_U d_U(a(U), s|_U) over sections s in the stalk at the
    whole space.  Returns the fused (pulled back) assignment, the
    achieved residual, and radius/(1+K) when a Lipschitz constant is
    known.
    """
    if not a.values:
        raise DegenerateAssignment("cannot fuse an empty assignment")
    sh = a.sheaf
    top, top_space, circ_mask, kernel = _top_parameterization(sh)
    defined = a.defined_ids()
    # (open, stalk, observed coordinates): the assignment's points were
    # validated when they were set
    targets = [(oid, sh.stalk(oid), a.values[oid].coords) for oid in defined]

    def section_point(x):
        if kernel is not None:
            coords = tuple(kernel @ np.asarray(x, dtype=float))
        else:
            coords = tuple(x)
        return sp.make_point(top_space, coords)

    def objective(x):
        coords = section_point(x).coords
        worst = 0.0
        for oid, space, observed in targets:
            restricted = sh.restrict_coords(top.id, oid, coords)
            d = sp.coord_distance(space, observed, restricted)
            if d > worst:
                worst = d
        return worst

    route = "nelder_mead"
    top_value = a.values.get(top.id)
    if top_value is not None:
        x0 = list(top_value.coords)
    else:
        x0 = _least_squares_start(sh, a, top) or [0.0] * top_space.dim
    if kernel is not None:
        x0 = list(kernel.T @ np.asarray(x0, dtype=float))

    f0 = objective(x0)
    if f0 <= opts.f_tolerance:
        section = section_point(x0)
        fused = pullback_global(sh, section)
        return FusionResult(section, fused, assignment_distance(fused, a),
                            _bound(a, lipschitz), 0, True, "already_global")

    if sh.is_linear() and kernel is None:
        ls = _least_squares_start(sh, a, top)
        if ls is not None:
            x0 = ls
            route = "least_squares+nelder_mead"

    run = nelder_mead(objective, x0, circ_mask, opts)
    section = section_point(run.x)
    fused = pullback_global(sh, section)
    residual = assignment_distance(fused, a)
    return FusionResult(section, fused, residual, _bound(a, lipschitz),
                        run.iterations, run.converged, route)


def _bound(a: Assignment, lipschitz: float | None) -> float | None:
    if lipschitz is None:
        return None
    from .consistency import consistency_radius

    return fusion_lower_bound(consistency_radius(a).radius, lipschitz)


def _least_squares_start(sh: Sheaf, a: Assignment, top) -> list | None:
    """Stacked least-squares solve of all defined restrictions, used to
    seed the simplex for linear Euclidean sheaves."""
    if not sh.is_linear() or sh.pullback(top.id) is not None:
        return None
    rows = []
    rhs = []
    for oid, point in a.values.items():
        try:
            m = (np.eye(sh.stalk(top.id).dim) if oid == top.id
                 else sh.ambient_matrix(top.id, oid))
        except Exception:
            return None
        w = sh.stalk(oid).weight or 1.0
        rows.append(w * m)
        rhs.append(w * np.asarray(point.coords, dtype=float))
    stacked = np.vstack(rows)
    target = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return list(sol)
