"""Data fusion: nearest global section to an assignment.

The search runs over the stalk at the whole space, since a global
section is determined by its value there; when that stalk is a
constrained pullback of a linear sheaf, over kernel coordinates of its
agreement subspace.  The objective is the sup pseudometric to the input
assignment.

On a linear sheaf whose defined stalks are Euclidean spaces and time
lines, or products of them, that objective is the largest of a few
weighted Euclidean norms of affine maps, one group for each component
of each defined stalk, and fusion is a convex minimax problem.  It is
solved by Lawson's iteration in group form (Lawson, UCLA thesis, 1961)
with a Newton finish on the optimality conditions, tried at the first
iterate and at iterations 2, 4, 8, ..., each time started from the path
of a log barrier, and it stops only on a certificate: a proven lower
bound on the optimum within ``f_tolerance`` of the residual reached.
Every other sheaf is fused by a built-in Nelder-Mead simplex method; a
linear sheaf with a simplex stalk defined starts it from the first
Lawson iterate, the weighted least-squares fit, and searches where
every simplex stalk sums to one, scoring a section off the simplexes
as infinitely far.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from ._linalg import nullspace, rowspace
from .consistency import (
    Assignment,
    consistency_radius,
    nan_error,
    pullback_global,
)
from .errors import DegenerateAssignment, NoTopStalk, SpaceMismatch
from .sheaf import Sheaf

INIT_STEP_FRACTION = 0.05
ZERO_COORD_STEP = 0.025
RESTART_NOISE_FRACTION = 0.10
# Lawson tries its Newton finish at iterations 1, 2, 4, 8, ..., on the
# groups whose barrier weight is at least BARRIER_WEIGHT times the
# largest; the barrier weights come from BARRIER_STAGES stages along the
# log-barrier path, each multiplying the barrier parameter by
# BARRIER_GROWTH and taking BARRIER_STEPS Newton steps
NEWTON_STEPS = 8
BARRIER_WEIGHT = 1e-4
BARRIER_STAGES = 6
BARRIER_STEPS = 2
BARRIER_GROWTH = 10.0


@dataclass(frozen=True)
class FusionOptions:
    """``max_iterations`` caps Lawson iterations on the ``lawson`` route
    and each Nelder-Mead run elsewhere; ``f_tolerance`` is the
    certificate's gap on the ``lawson`` route and the simplex's spread
    of values elsewhere; ``restarts`` and ``seed`` act only on
    Nelder-Mead."""

    max_iterations: int = 2000
    f_tolerance: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or self.restarts <= 0:
            raise ValueError("iteration and restart counts must be positive")
        if not (math.isfinite(self.f_tolerance) and self.f_tolerance >= 0):
            raise ValueError("f_tolerance must be finite and nonnegative")


@dataclass
class NelderMeadResult:
    x: tuple[float, ...]
    f: float
    iterations: int
    evaluations: int
    converged: bool


def _nelder_mead_single(objective, x0, max_iterations,
                        f_tolerance) -> NelderMeadResult:
    """One simplex run with the standard coefficients."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return objective(x)

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
    return NelderMeadResult(tuple(simplex[i_best]), values[i_best],
                            iterations, evals, converged)


def nelder_mead(objective, x0,
                opts: FusionOptions = FusionOptions()) -> NelderMeadResult:
    """Best of ``opts.restarts`` simplex runs; deterministic in the seed.

    Restart k > 0 perturbs the start by Gaussian noise at 10% of each
    coordinate's scale.  Ties keep the first-found optimum.  When the
    iteration budget runs out the best-so-far comes back flagged
    ``converged=False``.
    """
    x0 = [float(v) for v in x0]
    f0 = objective(x0)
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
        run = _nelder_mead_single(objective, start, opts.max_iterations,
                                  opts.f_tolerance)
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
    # proven lower bound on the optimal residual; set on the lawson route
    dual_bound: float | None = None


def fusion_lower_bound(radius: float, lipschitz: float) -> float:
    """Distance floor radius / (1 + K) for K-Lipschitz restrictions."""
    if radius < 0 or lipschitz < 0:
        raise ValueError("radius and Lipschitz constant must be nonnegative")
    return radius / (1.0 + lipschitz)


def _search_coordinates(sh: Sheaf):
    """The whole space, its stalk, and the map ``origin + basis @ x``
    from search coordinates x to the stalk's coordinates; on a nonlinear
    sheaf both are None and x is the stalk's own coordinates.

    A linear sheaf is searched in kernel coordinates of the agreement
    subspace of a constrained pullback at the whole space.  When one of
    its stalks has a simplex factor, the search is cut down further to
    where every simplex factor of every stalk sums to one, so each
    section it meets restricts onto the simplexes' affine hulls."""
    top = sh.topology.full
    space = sh.stalk(top.id)
    if not sh.is_linear():
        pb = sh.pullback(top.id)
        if pb is not None and pb.constraints:
            raise NoTopStalk(
                "the stalk over the whole space is a constrained pullback "
                "of a nonlinear sheaf and has no finite parameterization"
            )
        return top, space, None, None
    basis = sh.kernel_basis(top.id)
    sums = []
    for oid, stalk in sh.stalks.items():
        if stalk.has_simplex:
            m = sh.ambient_matrix(top.id, oid) @ basis
            sums.extend(m[lo:hi].sum(axis=0)
                        for c, lo, hi in stalk.factors
                        if c.kind == sp.SIMPLEX)
    if not sums:
        return top, space, np.zeros(space.dim), basis
    point, *_ = np.linalg.lstsq(np.array(sums), np.ones(len(sums)),
                                rcond=None)
    return top, space, basis @ point, basis @ nullspace(sums)


class _Groups:
    """The fusion objective of a linear sheaf as groups of rows: one
    group per component of each defined stalk, its rows w_c A_U[c] and
    right-hand side w_c (a(U)[c] - A_U[c] origin), where A_U is the
    restriction from the whole space in search coordinates.  A product
    stalk's distance is the largest of its weighted components, so on
    Euclidean and time components the objective at x is the largest
    group residual |rows_g x - rhs_g|."""

    def __init__(self, sh: Sheaf, a: Assignment, top, origin, basis):
        rows, rhs, group = [], [], []
        for oid in a.defined_ids():
            m = sh.ambient_matrix(top.id, oid)
            b = np.asarray(a.values[oid].coords, dtype=float) - m @ origin
            m = m @ basis
            for c, lo, hi in sh.stalk(oid).factors:
                if c.dim and c.weight:
                    group.extend([len(rows)] * c.dim)
                    rows.append(c.weight * m[lo:hi])
                    rhs.append(c.weight * b[lo:hi])
        self.count = len(rows)
        self.rows = (np.vstack(rows) if rows
                     else np.zeros((0, basis.shape[1])))
        self.rhs = np.concatenate(rhs) if rhs else np.zeros(0)
        self.group = np.array(group, dtype=int)

    def solve(self, weights: np.ndarray) -> np.ndarray:
        """Minimum-norm minimizer of sum_g weights_g |rows_g x - rhs_g|^2."""
        w = np.sqrt(weights[self.group])
        x, *_ = np.linalg.lstsq(self.rows * w[:, None], self.rhs * w,
                                rcond=None)
        return x

    def residuals(self, x: np.ndarray) -> np.ndarray:
        e = self.rows @ x - self.rhs
        return np.sqrt(np.bincount(self.group, e * e, minlength=self.count))


def _lawson(groups: _Groups, x: np.ndarray, opts: FusionOptions):
    """Certified minimax over the groups from the equal-weight
    least-squares fit x: (best x, best lower bound, iterations, whether
    the bounds met).

    Weights lambda on the simplex over the groups start uniform.  Each
    iteration takes the lambda-weighted least-squares fit x and its group
    residuals r; sqrt(lambda . r^2) is a lower bound on the optimum, since
    no x does better on that weighted sum, and max r is an upper bound
    that x attains.  At iterations 1, 2, 4, 8, ... a Newton finish from
    the best x proposes exact weights and a section, which only count
    through the bounds they give; it nearly always closes the bounds at
    the first try.  Otherwise Lawson's update lambda <- lambda r /
    (lambda . r) moves the weight onto the groups that stay largest, and
    converges on its own.  The iteration stops when the best upper bound
    is within ``f_tolerance`` of the best lower bound."""
    lam = np.full(groups.count, 1.0 / groups.count)
    best, upper, lower = x, math.inf, 0.0
    for iteration in range(1, opts.max_iterations + 1):
        r = groups.residuals(x)
        lower = max(lower, math.sqrt(lam @ (r * r)))
        if r.max() < upper:
            best, upper = x, float(r.max())
        if iteration & (iteration - 1) == 0:  # a power of two
            found = _newton_finish(groups, best)
            if found is not None:
                x_n, mu = found
                r_n = groups.residuals(x_n)
                if r_n.max() < upper:
                    best, upper = x_n, float(r_n.max())
                r_mu = groups.residuals(groups.solve(mu))
                lower = max(lower, math.sqrt(mu @ (r_mu * r_mu)))
        if upper - lower <= opts.f_tolerance:
            return best, lower, iteration, True
        lam = lam * r
        lam /= lam.sum()
        x = groups.solve(lam)
    return best, lower, opts.max_iterations, False


def _newton_finish(groups: _Groups, x: np.ndarray):
    """Weights and a section from the optimality conditions, or None.

    At the optimum every group with weight has its residual at one level
    t, and the weights mu (on the simplex) make x stationary for
    sum_g mu_g |rows_g x - rhs_g|^2.  Newton's method solves those
    equations (``_active_newton``) from a point near the central path of
    a log barrier (``_central_point``), over the groups whose barrier
    weight is at least BARRIER_WEIGHT of the largest: there an active
    group's weight is near its multiplier and an inactive group's near
    zero, so the guess is nearly always the optimum's set.  Returns (x,
    weights over all groups)."""
    centred = _central_point(groups, x)
    return None if centred is None else _active_newton(groups, *centred)


def _active_newton(groups: _Groups, x: np.ndarray, lam: np.ndarray):
    """Newton's method on the optimality conditions from x and the
    weights lam, over the groups whose weight is at least BARRIER_WEIGHT
    of the largest, or None.  A group whose multiplier comes out
    negative, or whose residual stays below the level when Newton does
    not reach it, leaves the set; a group outside it whose residual ends
    above the level joins it; and the solve repeats, at most once per
    group."""
    active = list(np.flatnonzero(lam >= BARRIER_WEIGHT * lam.max()))
    for _ in range(groups.count):
        rows = np.isin(groups.group, active)
        member = (groups.group[rows][:, None] == active).astype(float)
        x_n, t, mu = _kkt_newton(groups.rows[rows], groups.rhs[rows],
                                 member, x, lam[active] / lam[active].sum())
        if not (np.all(np.isfinite(mu)) and math.isfinite(t)):
            return None
        r = groups.residuals(x_n)
        below = r[active] - t
        over = r - t
        over[active] = 0.0
        if mu.min() < -1e-9:
            del active[int(np.argmin(mu))]
        elif np.abs(below).max() > 1e-9 * max(t, 1.0):
            del active[int(np.argmin(below))]
        elif over.max() > 0.0:
            active.append(int(np.argmax(over)))
        else:
            weights = np.zeros(groups.count)
            weights[active] = np.maximum(mu, 0.0)
            return x_n, weights / weights.sum()
        if not active:
            return None
    return None


def _central_point(groups: _Groups, x: np.ndarray):
    """(x, weights) near the central path of  min s  subject to
    q_g(x) = |rows_g x - rhs_g|^2 <= s  for every group, or None.

    Newton's method on  tau s - sum_g log(s - q_g(x))  from x and s
    a quarter above its largest q_g, with tau first where that start is
    centred in s; then BARRIER_STAGES stages multiply tau by
    BARRIER_GROWTH and take BARRIER_STEPS backtracking Newton steps
    each.  x moves only along the row space of the groups' rows, where
    the Hessian is definite.  The weights 1 / (s - q_g), normalised, are
    the barrier's estimate of the multipliers.  The number of Newton
    steps does not depend on the data, so the finish costs about the
    same on every input."""
    basis = rowspace(groups.rows)
    rows = groups.rows @ basis
    offset = groups.rows @ x - groups.rhs
    member = (groups.group[:, None] == np.arange(groups.count)).astype(float)
    n = rows.shape[1]
    y = np.zeros(n)
    e = offset
    q = member.T @ (e * e)
    if not q.max() > 0.0:
        return None
    s = 1.25 * q.max()
    tau = float(np.sum(1.0 / (s - q)))
    hess = np.empty((n + 1, n + 1))
    grad = np.empty(n + 1)
    for _ in range(BARRIER_STAGES):
        tau *= BARRIER_GROWTH
        for _ in range(BARRIER_STEPS):
            w = 1.0 / (s - q)
            dq = 2.0 * (member.T @ (rows * e[:, None]))
            w2 = w * w
            grad[:n] = dq.T @ w
            grad[n] = tau - w.sum()
            hess[:n, :n] = (2.0 * rows.T @ (rows * (member @ w)[:, None])
                            + dq.T @ (dq * w2[:, None]))
            hess[:n, n] = hess[n, :n] = -(dq.T @ w2)
            hess[n, n] = w2.sum()
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            value = tau * s - np.log(s - q).sum()
            slope = grad @ step
            size = 1.0
            while True:
                y_n, s_n = y + size * step[:n], s + size * step[n]
                e_n = rows @ y_n + offset
                q_n = member.T @ (e_n * e_n)
                if (np.all(q_n < s_n) and tau * s_n - np.log(s_n - q_n).sum()
                        <= value + 0.25 * size * slope):
                    break
                size *= 0.5
                if size < 1e-12:
                    return None
            y, s, e, q = y_n, s_n, e_n, q_n
    w = 1.0 / (s - q)
    return x + basis @ y, w / w.sum()


def _kkt_newton(rows, rhs, member, x, mu):
    """Newton steps on  sum_g mu_g rows_g^T e_g = 0,  sum mu = 1  and
    |e_g|^2 = t^2  for every group g, where e = rows x - rhs and
    ``member`` marks each row's group; least-squares steps, so a
    singular system moves along its row space only."""
    n, s = rows.shape[1], member.shape[1]
    e = rows @ x - rhs
    t = math.sqrt(mu @ (member.T @ (e * e)))
    jac = np.zeros((n + 1 + s, n + 1 + s))
    jac[n, n + 1:] = 1.0
    f = np.empty(n + 1 + s)
    for _ in range(NEWTON_STEPS):
        v = rows.T @ (member * e[:, None])
        f[:n] = v @ mu
        f[n] = mu.sum() - 1.0
        f[n + 1:] = 0.5 * (member.T @ (e * e) - t * t)
        jac[:n, :n] = rows.T @ (rows * (member @ mu)[:, None])
        jac[:n, n + 1:] = v
        jac[n + 1:, :n] = v.T
        jac[n + 1:, n] = -t
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        x = x + step[:n]
        t += step[n]
        mu = mu + step[n + 1:]
        e = rows @ x - rhs
        if np.abs(step).max() <= 1e-14 * max(1.0, abs(t), np.abs(x).max()):
            break
    return x, t, mu


def fuse(a: Assignment, opts: FusionOptions = FusionOptions(),
         lipschitz: float | None = None) -> FusionResult:
    """Solve the fusion problem: the global section nearest to ``a``.

    Minimizes sup_U d_U(a(U), s|_U) over sections s in the stalk at the
    whole space.  Returns the fused (pulled back) assignment, the
    achieved residual, and radius/(1+K) when a Lipschitz constant is
    known.  The route says how: ``already_global`` when the start is a
    section within ``f_tolerance`` (the top's own value, else the
    weighted least-squares fit or zero); ``lawson``, with the proven
    ``dual_bound``, on a linear sheaf with only Euclidean and time
    stalks defined; ``least_squares+nelder_mead`` on a linear sheaf
    with a simplex stalk defined; ``nelder_mead`` on a nonlinear one.
    """
    if not a.values:
        raise DegenerateAssignment("cannot fuse an empty assignment")
    sh = a.sheaf
    top, top_space, origin, basis = _search_coordinates(sh)
    defined = a.defined_ids()
    # (open, stalk, observed coordinates): the assignment's points were
    # validated when they were set
    targets = [(oid, sh.stalk(oid), a.values[oid].coords) for oid in defined]

    def section_point(x):
        if basis is None:
            coords = tuple(x)
        else:
            coords = tuple(origin + basis @ np.asarray(x, dtype=float))
        return sp.make_point(top_space, coords)

    def objective(x):
        try:
            coords = section_point(x).coords
        except SpaceMismatch:  # a step off the top stalk's simplexes
            return math.inf
        worst = 0.0
        for oid, space, observed in targets:
            restricted = sh.restrict_coords(top.id, oid, coords)
            d = sp.coord_distance(space, observed, restricted)
            if not d <= worst:  # only a larger d or NaN
                if d != d:
                    raise nan_error(sh.topology.opens[oid], top)
                worst = d
        return worst

    groups = fit = None
    if sh.is_linear():
        groups = _Groups(sh, a, top, origin, basis)
        # the first Lawson iterate: the least-squares fit, equal weights
        fit = groups.solve(np.ones(groups.count))
    top_value = a.values.get(top.id)
    if top_value is not None:
        x0 = list(top_value.coords)
        if basis is not None:
            x0 = list(basis.T @ (np.asarray(x0, dtype=float) - origin))
    else:
        x0 = fit if fit is not None else [0.0] * top_space.dim

    section_point(x0)  # a start off the top stalk's simplexes raises
    dual_bound = None
    start = objective(x0)
    if start <= opts.f_tolerance:
        x, iterations, converged, route = x0, 0, True, "already_global"
    elif start == math.inf:  # an observation too large for its metric
        raise SpaceMismatch("the distance to the assignment overflows")
    elif groups is None:
        run = nelder_mead(objective, x0, opts)
        x, iterations, converged = run.x, run.iterations, run.converged
        route = "nelder_mead"
    elif any(sh.stalk(oid).has_simplex for oid in defined):
        # simplex distance is half an L1 norm, outside Lawson's bound
        section_point(fit)  # a fit off the simplexes raises too
        run = nelder_mead(objective, fit, opts)
        x, iterations, converged = run.x, run.iterations, run.converged
        route = "least_squares+nelder_mead"
    else:
        x, dual_bound, iterations, converged = _lawson(groups, fit, opts)
        route = "lawson"
    section = section_point(x)
    residual = objective(x)
    if dual_bound is not None:
        # at an exact optimum the two sides differ only by rounding
        dual_bound = min(dual_bound, residual)
    return FusionResult(section, pullback_global(sh, section), residual,
                        _bound(a, lipschitz), iterations, converged, route,
                        dual_bound)


def _bound(a: Assignment, lipschitz: float | None) -> float | None:
    if lipschitz is None:
        return None
    return fusion_lower_bound(consistency_radius(a).radius, lipschitz)
