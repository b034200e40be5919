"""Data fusion: nearest global section to an assignment.

The search runs over the stalk at the whole space, whose value
determines a global section; when that stalk is a constrained pullback
of a linear sheaf, over kernel coordinates of its agreement subspace.
The objective is the sup pseudometric to the input assignment.

On a linear sheaf whose defined stalks are Euclidean spaces and time
lines, or products of them, the objective is the largest of a few
weighted Euclidean norms of affine maps, one group per component of
each defined stalk: a convex minimax problem.  Linearized steps on the
groups' exact derivatives (Madsen, 1975; Hald and Madsen, Math.
Programming 20, 1981), from the least-squares fit, solve it and stop
only on a certificate: Lawson's lower bound (UCLA thesis, 1961)
from the model's multipliers, within ``f_tolerance`` of the residual.

A simplex stalk's distance is half an L1 norm of an affine map, so on a
linear sheaf with one, fusion over the simplexes is a convex program
too, solved on a log-barrier path (Boyd and Vandenberghe, Convex
Optimization, ch. 11) from inside them until the barrier's duality gap
proves such a bound.

On a nonlinear sheaf whose whole-space and defined stalks have only
Euclidean, time, circle and geographic factors, the objective is the
largest of a smooth vector of distances, one per factor of each defined
stalk, minimized by the same linearized steps with a quasi-Newton
curvature term on forward-difference Jacobians, from the whole space's
reading or zero.
A nonlinear sheaf with a discrete or simplex factor is not fused: a
discrete distance is 0 or its weight, and a simplex needs the barrier's
linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from ._linalg import nullspace, rowspace
from .consistency import Assignment, nan_error, pullback_global
from .errors import DegenerateAssignment, NoTopStalk, SpaceMismatch
from .sheaf import Sheaf

# the barrier route multiplies its barrier parameter by BARRIER_GROWTH
# at each stage and centres the stage until lam^2 / 2 <= CENTRED
BARRIER_GROWTH = 10.0
CENTRED = 5e-3
# The sqp route takes forward differences with steps of FD_STEP times
# each coordinate's size (at least 1), keeps a step when the largest
# distance falls by at least ARMIJO times the decrease the linear model
# predicts, and otherwise tries up to CORRECTIONS second-order
# corrections of the full step, then halves it, at most BACKTRACKS
# times; it also stops after STALLS kept steps in a row that each gain
# at most f_tolerance; its curvature starts as B0_SCALE times the
# Jacobian's squared column norms, each at least CURVATURE_FLOOR times
# the largest
FD_STEP = 1.5e-8
ARMIJO = 1e-4
BACKTRACKS = 30
CORRECTIONS = 2
STALLS = 8
B0_SCALE = 0.01
CURVATURE_FLOOR = 1e-12
# factor kinds whose distance is smooth in the coordinates away from
# where it vanishes (and, on angles and the globe, from antipodes), as
# the sqp route's derivatives need
SMOOTH_KINDS = frozenset({sp.EUCLIDEAN, sp.TIME, sp.CIRCLE, sp.GEO2D,
                          sp.GEO3D})


@dataclass(frozen=True)
class FusionOptions:
    """``max_iterations`` caps the iterations of the ``sqp`` route and
    the Newton steps of the ``barrier`` route; ``f_tolerance`` is the
    certificate's gap on a linear sheaf (either route), and on a
    nonlinear one the largest decrease a converged step may still
    predict (or that STALLS kept steps in a row may gain), per unit of 1
    + the residual."""

    max_iterations: int = 2000
    f_tolerance: float = 1e-8
    # ignored (no route is random); only the benchmark's workloads
    # still pass it, and it goes when they stop
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not (math.isfinite(self.f_tolerance) and self.f_tolerance >= 0):
            raise ValueError("f_tolerance must be finite and nonnegative")


@dataclass
class FusionResult:
    section_at_top: sp.Point
    # the section on the whole space and on each native open; any other
    # open's value is sheaf.restrict(top, u, section_at_top)
    fused: Assignment
    residual: float
    iterations: int
    converged: bool
    route: str
    # the route's distance-vector (sqp) or barrier (barrier)
    # evaluations; 0 when already global
    evaluations: int = 0
    # proven lower bound on the optimal residual (linear sheaves)
    dual_bound: float | None = None


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
    sums = [rows.sum(axis=0) @ basis for rows in _simplex_rows(sh, top)]
    if not sums:
        return top, space, np.zeros(space.dim), basis
    point, *_ = np.linalg.lstsq(np.array(sums), np.ones(len(sums)),
                                rcond=None)
    return top, space, basis @ point, basis @ nullspace(sums)


def _simplex_rows(sh: Sheaf, top):
    """The rows mapping the whole space to each stalk's simplexes."""
    return [sh.ambient_matrix(top.id, oid)[lo:hi]
            for oid, stalk in sh.stalks.items() if stalk.has_simplex
            for c, lo, hi in stalk.factors if c.kind == sp.SIMPLEX]


class _Groups:
    """The fusion objective of a linear sheaf as groups of rows: one
    group per component of each defined stalk, its rows w_c A_U[c] and
    right-hand side w_c (a(U)[c] - A_U[c] origin), where A_U is the
    restriction from the whole space in search coordinates.  A product
    stalk's distance is the largest of its weighted components, so on
    Euclidean and time components the objective at x is the largest
    group residual |rows_g x - rhs_g|; a simplex component's rows, its
    weight halved, are ``l1_rows``, and its distance their L1 norm.  When
    a stalk has a simplex (``bounded``), floor_rows x + floor_offset must
    stay nonnegative: the whole space's simplex coordinates and others
    not a nonnegative mix of them; ``start`` is nearest uniform shares."""

    def __init__(self, sh: Sheaf, a: Assignment, top, origin, basis):
        parts = {False: ([], [], []), True: ([], [], [])}  # by simplex
        for oid in a.defined_ids():
            m = sh.ambient_matrix(top.id, oid)
            b = np.asarray(a.values[oid].coords, dtype=float) - m @ origin
            m = m @ basis
            for c, lo, hi in sh.stalk(oid).factors:
                if c.dim and c.weight:
                    rows, rhs, group = parts[c.kind == sp.SIMPLEX]
                    w = 0.5 * c.weight if c.kind == sp.SIMPLEX else c.weight
                    group.extend([len(rhs)] * c.dim)
                    rows.append(w * m[lo:hi])
                    rhs.append(w * b[lo:hi])
        self.count, self.l1_count = len(parts[False][1]), len(parts[True][1])
        ((self.rows, self.rhs, self.group),
         (self.l1_rows, self.l1_rhs, self.l1_group)) = (
            (np.vstack(rows) if rows else np.zeros((0, basis.shape[1])),
             np.concatenate(rhs) if rhs else np.zeros(0),
             np.array(group, dtype=int))
            for rows, rhs, group in parts.values())
        self.member = np.eye(self.count)[self.group]  # rows' groups
        self.bounded = any(s.has_simplex for s in sh.stalks.values())
        if not self.bounded:
            return
        share = np.concatenate([  # the uniform distribution on simplexes
            np.full(c.dim, 1.0 / c.dim if c.kind == sp.SIMPLEX else 0.0)
            for c, _, _ in sh.stalk(top.id).factors])
        floor = np.vstack([np.eye(len(share))[share > 0.0]] + [
            r[(r < 0.0).any(axis=1) | r[:, share == 0.0].any(axis=1)]
            for r in _simplex_rows(sh, top)])
        self.floor_rows, self.floor_offset = floor @ basis, floor @ origin
        self.start = basis.T @ (share - origin)

    def solve(self, weights: np.ndarray) -> np.ndarray:
        """Minimum-norm minimizer of sum_g weights_g |rows_g x - rhs_g|^2
        over the Euclidean groups plus |l1_rows x - l1_rhs|^2."""
        w = np.sqrt(weights[self.group])
        rows, rhs = self.rows * w[:, None], self.rhs * w
        if self.l1_count:
            rows = np.vstack([rows, self.l1_rows])
            rhs = np.concatenate([rhs, self.l1_rhs])
        x, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        return x

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Every group's residual, the simplex groups' last."""
        e = self.rows @ x - self.rhs
        r = np.sqrt(np.bincount(self.group, e * e, minlength=self.count))
        if not self.l1_count:
            return r
        f = np.abs(self.l1_rows @ x - self.l1_rhs)
        return np.concatenate([r, np.bincount(self.l1_group, f,
                                              minlength=self.l1_count)])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """The Euclidean group residuals' gradients rows_g^T e_g / r_g as
        rows, zero where r_g vanishes."""
        e = self.rows @ x - self.rhs
        r = np.sqrt(np.bincount(self.group, e * e, minlength=self.count))
        grad = self.member.T @ (self.rows * e[:, None])
        return np.divide(grad, r[:, None], out=np.zeros_like(grad),
                         where=r[:, None] > 0.0)

    def hessian(self, x: np.ndarray, lam: np.ndarray,
                jac: np.ndarray) -> np.ndarray:
        """The Hessian of lam . r over the Euclidean groups with r_g > 0,
        sum_g lam_g (rows_g^T rows_g - grad r_g grad r_g^T) / r_g, plus
        CURVATURE_FLOOR times its first term's largest diagonal entry on
        the diagonal: a group of one row adds nothing, and
        ``_minimax_step`` needs B definite.  ``jac`` is
        ``jacobian(x)``."""
        r = self.residuals(x)
        w = np.divide(lam, r, out=np.zeros(self.count), where=r > 0.0)
        gauss = self.rows.T @ (self.rows * w[self.group][:, None])
        ridge = CURVATURE_FLOOR * (float(np.diag(gauss).max(initial=0.0))
                                   or 1.0)
        return gauss - jac.T @ (jac * w[:, None]) + ridge * np.eye(len(x))

    def bound(self, lam: np.ndarray) -> float:
        """Lawson's lower bound on the optimum, sqrt(lam . r(x_lam)^2) for
        weights lam >= 0 scaled to sum to one and x_lam their weighted
        least-squares fit: no x has a smaller weighted sum of squares.

        Returned less a bound on its own rounding error, lest it pass the
        optimum: each entry of rows x - rhs is within (n + 1) eps (|rows|
        |x| + |rhs|) of its exact value, n = len(x) (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, section 3.1), so r_g is
        within the norm err_g of those over group g, the bound within
        sqrt(lam . err^2), and (rows + groups + 4) eps of it covers the
        sums, products and roots."""
        lam = lam / lam.sum()
        x = self.solve(lam)
        r = self.residuals(x)
        eps = math.ulp(1.0)
        entry = (len(x) + 1) * eps * (np.abs(self.rows) @ np.abs(x)
                                      + np.abs(self.rhs))
        err = np.bincount(self.group, entry * entry, minlength=self.count)
        value = math.sqrt(lam @ (r * r))
        return value - math.sqrt(lam @ err) \
            - (len(self.rows) + self.count + 4) * eps * value


def _central_point(groups: _Groups, x: np.ndarray, opts: FusionOptions):
    """A point near the central path of  min s  subject to  q_g <= s,
    q_g = |rows_g x - rhs_g|^2 on a Euclidean group and (sum of u over
    U)^2 on a simplex group U whose slacks u bound its L1 rows f,
    -u <= f <= u, and with every floor row l positive: Newton's method
    on  tau s - sum_g log(s - q_g) - sum log(u^2 - f^2) - sum log(l)  from
    x, u = |f| plus its mean and s a quarter above max q_g, with tau
    first where that start is centred in s; each stage multiplies tau by
    BARRIER_GROWTH and takes backtracking steps, x moving only along the
    row space of the rows, where the Hessian is definite.

    A stage steps until the Newton decrement lam is at most sqrt(2
    CENTRED), as close as rounding allows late on the path, and s - (m +
    (lam + sqrt(m)) lam / (1 - lam)) / tau, m log terms, bounds the
    optimal s from below (Nesterov, Introductory Lectures on Convex
    Optimization, 2004, Theorem 4.2.7); each step moves s to its best
    value, the root of sum 1 / (s - q) = tau, lest the steps pin s to
    max q_g and creep.  The stages end once the bound's root is within
    ``f_tolerance`` of the residual, at ``opts.max_iterations`` steps or
    at a stage not centred: (x, the bound, steps, barrier evaluations,
    whether it closed), or None when x is not strictly inside the floor."""
    basis = rowspace(np.vstack([groups.rows, groups.l1_rows,
                                groups.floor_rows]))
    rows, offset = groups.rows @ basis, groups.rows @ x - groups.rhs
    member = groups.member
    g, n = groups.count, rows.shape[1]
    # the L1 rows and the floor, in coordinates y of the row space
    l1, floor = groups.l1_rows @ basis, groups.floor_rows @ basis
    l1_offset = groups.l1_rows @ x - groups.l1_rhs
    floor_offset = groups.floor_rows @ x + groups.floor_offset
    within = np.eye(groups.l1_count)[groups.l1_group]  # rows' groups
    m = g + groups.l1_count + 2 * len(l1) + len(floor)

    def at(y, u):
        """The residuals e, the L1 rows f, the floor l and q at (y, u)."""
        e = rows @ y + offset
        q = np.concatenate([member.T @ (e * e), (within.T @ u) ** 2])
        return e, l1 @ y + l1_offset, floor @ y + floor_offset, q

    def barrier(s, u, f, l, q, tau):
        """The barrier at a point, or inf outside its domain."""
        if not (np.all(q < s) and np.all(u > np.abs(f)) and np.all(l > 0)):
            return math.inf
        return tau * s - np.log(s - q).sum() - (
            np.log(u - f).sum() + np.log(u + f).sum() + np.log(l).sum())

    def best_s(q, tau):
        """Newton's method from the left, where the sum is convex."""
        s = q.max() + 1.0 / tau
        while True:
            r = 1.0 / (s - q)
            if not (s_n := s + (r.sum() - tau) / (r * r).sum()) > s:
                return s
            s = s_n

    def bounded_step(w):
        """(step in (y, s), step in u, slope) or None at the current
        e, u, f, l and tau, where w = 1 / (s - q).  u's block is diag(d)
        plus push_U 1 1^T on each simplex group U, whose sum meets s by
        pull_U; without the diagonal a system over y, s and the sums is
        left, solved scaled to a unit diagonal, its right-hand side over y
        summed without terms of size 1 / (u - |f|) that cancel late on."""
        dq = 2.0 * (member.T @ (rows * e[:, None]))
        w2 = w * w
        grad = np.append(dq.T @ w[:g], tau - w.sum())
        wu, sigma = w[g:], within.T @ u
        low, high, above = 1.0 / (u - f), 1.0 / (u + f), 1.0 / l
        d = low * low + high * high
        cross = (high * high - low * low)[:, None] * l1
        lift = within @ (2.0 * wu * sigma)
        grad_u = lift - low - high
        push = 2.0 * wu + 4.0 * (wu * sigma) ** 2
        pull = -2.0 * wu * wu * sigma
        link = within.T @ (cross / d[:, None])
        spread = within.T @ (1.0 / d)  # each group's sum of 1 / d
        hess_y = (2.0 * rows.T @ (rows * (member @ w[:g])[:, None])
                  + dq.T @ (dq * w2[:g, None])
                  + (l1.T @ (l1 * (4.0 * (low * high) ** 2 / d)[:, None])
                     + floor.T @ (floor * (above * above)[:, None])))
        hess_ys = -(dq.T @ w2[:g])
        system = np.block([
            [hess_y, (hess_ys - link.T @ pull)[:, None], -link.T * push],
            [hess_ys[None, :], w2.sum(), pull[None, :]],
            [-link, -(spread * pull)[:, None], -np.diag(spread * push + 1)]])
        rhs = np.concatenate([
            floor.T @ above - grad[:n] + l1.T @ (
                (2.0 * low * high * (low - high)
                 + lift * (high * high - low * low)) / d),
            [-grad[n]], within.T @ (grad_u / d)])
        scale = 1.0 / np.sqrt(np.abs(np.diag(system)))
        try:
            step = scale * np.linalg.solve(system * scale[:, None] * scale,
                                           rhs * scale)
        except np.linalg.LinAlgError:
            return None
        dy, ds = step[:n], step[n]
        du = -(grad_u + cross @ dy
               + within @ (push * step[n + 1:] + pull * ds)) / d
        if not (np.all(np.isfinite(step)) and np.all(np.isfinite(du))):
            return None
        grad_y = grad[:n] + l1.T @ (low - high) - floor.T @ above
        return step[:n + 1], du, grad_y @ dy + grad[n] * ds + grad_u @ du

    y, u = np.zeros(n), np.abs(l1_offset)
    u += u.mean() if u.any() else 1.0
    e, f, l, q = at(y, u)
    if not (q.max() > 0.0 and np.all(l > 0.0)):
        return None
    s = 1.25 * q.max()
    tau = float(np.sum(1.0 / (s - q)))
    steps, evaluations, bound = 0, 0, 0.0
    for _ in range(opts.max_iterations + 1):
        tau *= BARRIER_GROWTH
        centred, value = False, barrier(s, u, f, l, q, tau)
        for _ in range(opts.max_iterations - steps):
            found = bounded_step(1.0 / (s - q))
            if found is None:
                break
            step, du, slope = found
            if -slope <= 2.0 * CENTRED:
                centred = True
                break
            size = 1.0
            while size >= 1e-12:
                y_n, s_n = y + size * step[:n], s + size * step[n]
                u_n = u + size * du
                e_n, f_n, l_n, q_n = at(y_n, u_n)
                evaluations += 1
                if barrier(s_n, u_n, f_n, l_n, q_n, tau) \
                        <= value + 0.25 * size * slope:
                    break
                size *= 0.5
            else:
                break
            s_n = best_s(q_n, tau)
            value = barrier(s_n, u_n, f_n, l_n, q_n, tau)
            y, s, u, e, f, l, q = y_n, s_n, u_n, e_n, f_n, l_n, q_n
            steps += 1
        x_n = x + basis @ y
        if centred:
            lam = math.sqrt(max(-slope, 0.0))
            gap = (m + (lam + math.sqrt(m)) * lam / (1.0 - lam)) / tau
            bound = max(bound, math.sqrt(max(s - gap, 0.0)))
        closed = groups.residuals(x_n).max() - bound <= opts.f_tolerance
        if closed or not centred:
            break
    return x_n, bound, steps, evaluations, closed


def _sqp(distances, jacobian, curvature, x0, opts: FusionOptions,
         bound=None, lam=None):
    """Minimax of the distance vector d(x) from x0 by linearized steps
    with curvature (Madsen, 1975; Hald and Madsen, Math. Programming 20,
    1981): (x, iterations, vector evaluations, whether it converged, the
    best lower bound or None).

    Each iteration takes the Jacobian J = ``jacobian(x, d, score)``, None
    if not finite (``score`` evaluates and counts d), and the step p of
    the model min t + p.B p / 2 subject to d + J p <= t
    (``_minimax_step``), whose multipliers lam lie on the simplex over
    the distances.  With ``bound``, a proven lower bound on the optimum
    from lam, the search converges only once F = max d is within
    ``f_tolerance`` of the best bound.  Without, it converges once the
    decrease F - t that the linearization predicts is at most
    ``f_tolerance`` (1 + F), or after STALLS kept steps in a row that
    each lowered F by at most that much: there a differenced Jacobian is
    too coarse for the prediction.  A step is kept once F falls by
    ARMIJO times that prediction and J at the new point is finite.  Once
    the model's active set repeats, a full step that fails gets
    second-order corrections before it is halved: along curved active
    distances the linear model overshoots, and halving alone can take
    dozens of short steps.  B = ``curvature(x, J, lam, last)``, afresh
    when ``last`` is None, else after the step from ``last`` = (x', J',
    B').  The first B takes ``lam``, starting weights or None, and the
    first model guesses as active where it is positive.
    When no step is kept, or the model has no solution, B restarts
    afresh; if it had just restarted, the search ends unconverged."""
    evaluations = 0

    def score(x):
        nonlocal evaluations
        evaluations += 1
        return np.asarray(distances(x), dtype=float)

    def accept(x_n, f, share):
        """((x_n, its distances, their largest, its Jacobian), distances)
        when the largest distance at x_n is at most f - ARMIJO * share
        and the Jacobian is finite, else (None, distances)."""
        d_n = score(x_n)
        f_n = float(d_n.max())
        if f_n <= f - ARMIJO * share:
            jac_n = jacobian(x_n, d_n, score)
            if jac_n is not None:
                return (x_n, d_n, f_n, jac_n), d_n
        return None, d_n

    def correct(x, p, d_p, f, decrease, jac, b, active):
        """The first of up to CORRECTIONS second-order corrections of
        the rejected step p, whose model had the constraints ``active``,
        that ``accept`` keeps, or None.  Each solves the model again
        with d(x + q) - J q for d, q the last step tried, so its
        linearization matches the distances where that step landed
        (Fletcher, Math. Programming Study 17, 1982)."""
        q, d_q = p, d_p
        for _ in range(CORRECTIONS):
            if not np.all(np.isfinite(d_q)):
                return None
            found = _minimax_step(d_q - jac @ q, jac, b, active)
            if found is None or not np.all(np.isfinite(x + found[0])):
                return None
            q = found[0]
            kept, d_q = accept(x + q, f, decrease)
            if kept is not None:
                return kept
        return None

    def backtrack(x, p, f, decrease, jac, b, active, settled):
        """The first of x + p, its corrections when the active set has
        ``settled``, x + p/2, x + p/4, ... that ``accept`` keeps for its
        share of ``decrease``, or None."""
        step = 1.0
        for _ in range(BACKTRACKS):
            x_n = x + step * p
            if np.all(np.isfinite(x_n)):
                kept, d_n = accept(x_n, f, step * decrease)
                if kept is None and step == 1.0 and settled:
                    kept = correct(x, p, d_n, f, decrease, jac, b, active)
                if kept is not None:
                    return kept
            step *= 0.5
        return None

    x = np.asarray(x0, dtype=float)
    d = score(x)
    f = float(d.max())
    jac = jacobian(x, d, score)
    lower = None if bound is None else 0.0
    if jac is None:
        return x, 0, evaluations, False, lower
    b, fresh = curvature(x, jac, lam, None), True
    # the constraints active in the last model
    active = () if lam is None else np.flatnonzero(lam > 0.0)
    stalls = 0
    for iteration in range(1, opts.max_iterations + 1):
        found = _minimax_step(d, jac, b, active)
        kept = None
        if found is not None:
            p, t, lam = found
            # corrections pay once the model's active set repeats, near
            # the optimum; far from it they mostly miss
            settled = np.array_equal(np.flatnonzero(lam > 0.0), active)
            active = np.flatnonzero(lam > 0.0)
            decrease = f - t
            if bound is not None:
                lower = max(lower, bound(lam))
            if (decrease <= opts.f_tolerance * (1.0 + f) if bound is None
                    else f - lower <= opts.f_tolerance):
                return x, iteration, evaluations, True, lower
            kept = backtrack(x, p, f, decrease, jac, b, active, settled)
        if kept is None:
            if fresh:
                return x, iteration, evaluations, False, lower
            b, fresh = curvature(x, jac, lam, None), True
            continue
        x_n, d, f_n, jac_n = kept
        # near the optimum, a model whose Jacobian is no better than its
        # differences can keep predicting a decrease its steps never
        # deliver; STALLS kept steps in a row that each gain at most
        # f_tolerance end it; with a bound, the step may close its gap
        stalls = stalls + 1 if f - f_n <= opts.f_tolerance * (1.0 + f_n) \
            else 0
        if (stalls >= STALLS if bound is None
                else f_n - lower <= opts.f_tolerance):
            return x_n, iteration, evaluations, True, lower
        b = curvature(x_n, jac_n, lam, (x, jac, b))
        x, f, jac, fresh = x_n, f_n, jac_n, False
    return x, opts.max_iterations, evaluations, False, lower


def _differences(x, d, score):
    """The Jacobian of the distances d = score(x) at x by forward
    differences, steps of FD_STEP times each coordinate's size (at least
    1), or None when a probe or the Jacobian is not finite."""
    jac = np.empty((len(d), len(x)))
    for j, v in enumerate(x.tolist()):
        probe = x.copy()
        probe[j] = moved = v + FD_STEP * max(1.0, abs(v))
        if not math.isfinite(moved):
            return None
        jac[:, j] = (score(probe) - d) / (moved - v)
    return jac if np.isfinite(jac).all() else None


def _bfgs(x, jac, lam, last):
    """Quasi-Newton curvature: afresh, B0_SCALE times J's squared column
    norms, each at least CURVATURE_FLOOR times the largest; after a step
    from ``last`` = (x', J', B), B's damped BFGS update (Powell, 1978) by
    s = x - x' and y = (J - J')^T lam, y moved toward B s until s.y >=
    0.2 s.B s, which keeps B positive definite."""
    if last is None:
        norms = (jac * jac).sum(axis=0)
        floor = CURVATURE_FLOOR * float(norms.max(initial=1.0))
        return np.diag(B0_SCALE * np.maximum(norms, floor))
    x_last, jac_last, b = last
    s, y = x - x_last, (jac - jac_last).T @ lam
    bs = b @ s
    sbs = s @ bs
    if not sbs > 0.0:
        return b
    sy = s @ y
    if sy < 0.2 * sbs:
        theta = 0.8 * sbs / (sbs - sy)
        y = theta * y + (1.0 - theta) * bs
        sy = s @ y
    return b - np.outer(bs, bs) / sbs + np.outer(y, y) / sy


def _minimax_step(d, jac, b, guess=()):
    """(p, t, lam) solving  min t + p.B p / 2  subject to  d + J p <= t,
    with lam the multipliers, or None.

    A primal active-set method on z = (p, t) from p = 0, t = max d,
    with the largest distance as the working set.  Each pass solves the
    model with the working set's constraints as equalities; a step that
    would cross another constraint stops on it and adds it, and a full
    step whose multipliers are all nonnegative is the solution, else the
    most negative one leaves the set.  A multiplier within 1e-12 of 0
    (they sum to one) counts as 0: a constraint weakly active at the
    solution would otherwise leave and re-enter, without end.  B is
    positive definite, so every working set has one solution.  A
    constraint moves the step only when its rate exceeds the rounding
    seen on the working set's own, so one in the span of the set's, such
    as a repeated distance, never enters and the system stays regular.
    Each pass's system is the working set's rows and columns of one
    bordered matrix over every constraint, built once; the bookkeeping
    between solves runs on Python floats.

    ``guess`` names the constraints that were active in a nearby model,
    as the last iteration's or the step being corrected; when they are
    active here too, one solve with them as equalities is the solution,
    and the passes above run only when it is not.  A guess of more than
    n + 1 constraints is not tried: its system is singular."""
    m, n = jac.shape
    n1 = n + 1
    rows = np.empty((m, n1))  # rows @ z <= -d
    rows[:, :n] = jac
    rows[:, n] = -1.0
    sizes = np.abs(rows)
    hess = np.zeros((n1, n1))
    hess[:n, :n] = b
    # [[hess, rows.T], [rows, 0]]: a working set's KKT matrix is its
    # rows and columns 0..n and n1 + work
    bordered = np.zeros((n1 + m, n1 + m))
    bordered[:n1, :n1] = hess
    bordered[:n1, n1:] = rows.T
    bordered[n1:, :n1] = rows
    grad = [0.0] * n + [1.0]  # the model's gradient in z
    dist = d.tolist()

    def solve(work, rhs):
        """(u, lam as floats) solving the working set's KKT system for
        rhs, or None when it is singular or its solution not finite."""
        at = [*range(n1), *(n1 + i for i in work)]
        try:
            sol = np.linalg.solve(bordered.take(at, 0).take(at, 1), rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(sol).all():
            return None
        return sol[:n1], sol[n1:].tolist()

    def solution(z, work, lam):
        """(p, t, lam on every constraint, rounding negatives to 0)."""
        weights = np.zeros(m)
        weights[work] = np.maximum(lam, 0.0)
        return z[:n], float(z[n]), weights

    if 0 < len(guess) <= n1:
        work = list(guess)
        found = solve(work, [-g for g in grad] + [-dist[i] for i in work])
        if found is not None:
            z, lam = found
            gap = [g + e for g, e in zip((rows @ z).tolist(), dist)]
            size = [a + abs(e) + 1e-300 for a, e in
                    zip((sizes @ np.abs(z)).tolist(), dist)]
            noise = max(2.0 * max(abs(gap[i]) / size[i] for i in work),
                        1e-12)
            if min(lam) >= -1e-12 and all(
                    g <= noise * s for g, s in zip(gap, size)):
                return solution(z, work, lam)
    z = np.zeros(n1)
    z[n] = d.max()
    work = [int(np.argmax(d))]
    for _ in range(3 * (m + n1)):
        found = solve(work, [-h - g for h, g in zip((hess @ z).tolist(),
                                                    grad)] + [0.0] * len(work))
        if found is None:
            return None
        s, lam = found
        rate = (rows @ s).tolist()
        # the working set's rates are zero but for rounding; a rate
        # within that rounding runs along the constraint, as a repeated
        # distance's does
        size = [a + 1e-300 for a in (sizes @ np.abs(s)).tolist()]
        noise = max(2.0 * max(abs(rate[i]) / size[i] for i in work), 1e-12)
        gap = (rows @ z).tolist()
        step, enter = 1.0, None
        for i in range(m):
            if rate[i] > noise * size[i] and i not in work:
                slack = max(-dist[i] - gap[i], 0.0)
                if slack < step * rate[i]:
                    step, enter = slack / rate[i], i
        z += step * s
        if enter is not None:
            work.append(enter)
        elif min(lam) >= -1e-12:
            return solution(z, work, lam)
        else:
            del work[lam.index(min(lam))]
    return None


class _Plan:
    """The distance vector of one fuse, compiled once: for each defined
    open, in id order, the open, its restriction from the whole space
    (``Sheaf.restriction``; None on the whole space itself), its reading
    (validated when it was set) and its stalk's metrics."""

    def __init__(self, sh: Sheaf, a: Assignment, top, space, origin, basis):
        self.top, self.top_space = top, space
        self.origin, self.basis = origin, basis
        self.opens = [(sh.topology.opens[oid],
                       None if oid == top.id else sh.restriction(top.id, oid),
                       a.values[oid].coords, sh.stalk(oid).metrics)
                      for oid in a.defined_ids()]

    def section(self, x) -> tuple[float, ...]:
        """The whole space's coordinates at search coordinates x,
        normalized as a point of its stalk."""
        x = np.asarray(x, dtype=float)
        if self.basis is not None:
            x = self.origin + self.basis @ x
        return sp.normalize_coords(self.top_space, x.tolist())

    def distances(self, x) -> list[float]:
        """The distance on each factor of each defined stalk between the
        reading and the restriction of the section at x; a NaN raises,
        naming the open."""
        coords = self.section(x)
        out = []
        for u, restriction, reading, metrics in self.opens:
            image = coords if restriction is None else restriction(coords)
            for fn, lo in metrics:
                d = fn(reading, image, lo)
                if d != d:
                    raise nan_error(u, self.top)
                out.append(d)
        return out

    def objective(self, x) -> float:
        return max(self.distances(x), default=0.0)


def fuse(a: Assignment, opts: FusionOptions = FusionOptions()) -> FusionResult:
    """Solve the fusion problem: the global section nearest to ``a``.

    Minimizes sup_U d_U(a(U), s|_U) over sections s in the stalk at the
    whole space.  Returns the section, its values on the native opens
    and the achieved residual.  The route says how: ``already_global``
    when the start is a section within ``f_tolerance`` (the top's own
    value, else the least-squares fit, else zero); ``barrier`` on a
    linear sheaf with a simplex stalk; ``sqp`` on a linear one without,
    and on a nonlinear one whose top and defined stalks have only
    Euclidean, time, circle and geographic factors.  On a linear sheaf either route
    proves a ``dual_bound``.  Any other sheaf raises ``SpaceMismatch``.
    """
    if not a.values:
        raise DegenerateAssignment("cannot fuse an empty assignment")
    sh = a.sheaf
    top, top_space, origin, basis = _search_coordinates(sh)
    defined = a.defined_ids()
    plan = _Plan(sh, a, top, top_space, origin, basis)
    groups = fit = None
    if sh.is_linear():
        groups = _Groups(sh, a, top, origin, basis)
        # the least-squares fit, equal weights
        fit = groups.solve(np.ones(groups.count))
    top_value = a.values.get(top.id)
    if top_value is not None:
        x0 = list(top_value.coords)
        if basis is not None:
            x0 = list(basis.T @ (np.asarray(x0, dtype=float) - origin))
    else:
        x0 = fit if fit is not None else [0.0] * top_space.dim

    def on_floor(x):
        return not (groups and groups.bounded) or not np.any(
            groups.floor_rows @ x + groups.floor_offset < -sp.SIMPLEX_TOL)

    if not on_floor(x0):
        x0 = groups.start  # off the simplexes, as an inconsistent fit may be
    dual_bound = None
    # a start still off them restricts off a simplex, so it is not
    # scored; the barrier route looks for one strictly inside
    start = plan.objective(x0) if on_floor(x0) else None
    if start is not None and start <= opts.f_tolerance:
        x, iterations, evaluations, converged = x0, 0, 0, True
        route = "already_global"
    elif start == math.inf:  # an observation too large for its metric
        raise SpaceMismatch("the distance to the assignment overflows")
    elif groups is None:
        for oid in (top.id, *defined):
            for c, _, _ in sh.stalk(oid).factors:
                if c.kind not in SMOOTH_KINDS:
                    raise SpaceMismatch(
                        f"the stalk on {sh.topology.opens[oid]} has a "
                        f"{c.kind} factor; fusing a nonlinear sheaf needs "
                        f"Euclidean, time, circle and geographic ones")
        x, iterations, evaluations, converged, dual_bound = _sqp(
            plan.distances, _differences, _bfgs, x0, opts)
        route = "sqp"
    elif groups.bounded:  # from nearest the uniform shares, else from x0
        found = _central_point(groups, groups.start, opts)
        if found is None and not np.array_equal(x0, groups.start):
            found = _central_point(groups, np.asarray(x0, float), opts)
        if found is None:
            raise SpaceMismatch("no start lies strictly inside the simplexes")
        x, dual_bound, iterations, evaluations, converged = found
        route = "barrier"
    else:  # from the fit, every group weighted alike
        x, iterations, evaluations, converged, dual_bound = _sqp(
            groups.residuals, lambda x, d, score: groups.jacobian(x),
            lambda x, jac, lam, last: groups.hessian(x, lam, jac), fit,
            opts, groups.bound, np.full(groups.count, 1.0 / groups.count))
        route = "sqp"
    section_at_top = sp.Point(plan.section(x), top_space)
    residual = plan.objective(x)
    if dual_bound is not None:
        # at an exact optimum the two sides differ only by rounding
        dual_bound = min(dual_bound, residual)
    return FusionResult(section_at_top,
                        pullback_global(sh, section_at_top), residual,
                        iterations, converged, route, evaluations,
                        dual_bound)
