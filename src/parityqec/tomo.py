"""Density-matrix reconstruction: linear inversion and maximum likelihood.

Linear inversion solves the least-squares system between measured frequencies
and projector expectation values Tr(Pi_k rho), each the real dot product of
the interleaved (re, im) entries of Pi_k and rho. Under shot noise its output
can have negative eigenvalues, so it is returned unvalidated; the
maximum-likelihood step is what produces a physical state.

The MLE treats each count as Poisson with mean shots * Tr(rho Pi). Because a
setting list need not resolve the identity, the solver maximizes the Poisson
profile likelihood

    sum_k n_k log p_k(rho) - N log Tr(rho S),      S = sum_k (shots_k/shots_max) Pi_k

It works in the whitened frame sigma = S^(1/2) rho S^(1/2) / Tr, where the
transformed projectors T_k = S^(-1/2) Pi_k S^(-1/2) sum to the identity and
the objective is sum_k n_k log Tr(T_k sigma). When the setting set is the
overcomplete Pauli scheme S is proportional to the identity and the
objective reduces to the plain sum_k n_k log p_k.

Positivity is built in by the factorization sigma = T T^dag / Tr(T T^dag)
of James, Kwiat, Munro and White, PRA 64, 052312 (2001). They take T lower
triangular; here T is a full square complex matrix, which needs about half
the L-BFGS iterations on sampled two-qubit data. The unconstrained problem
over T goes to scipy's L-BFGS with the analytic gradient
2 (G - N I) T / Tr(T T^dag), where G = sum_k n_k T_k / p_k.
The search starts from the positivity-projected linear-inversion estimate
whenever the setting set supports one (the maximally mixed state otherwise).

Convergence is certified, not inferred from small steps: the objective is
concave in sigma, so the Frank-Wolfe duality gap lambda_max(G) - N bounds how
far the log-likelihood is below its maximum, and a result is converged when
that gap is at most tol nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .measure import MINIMAL, OVERCOMPLETE, CountRecord, _projector_stack
from .qcore import DensityMatrix, HermitianMatrix

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
PROB_LOG_FLOOR = 1e-12
# relative rounding floor of the duality gap and of a restart's gain, per
# count: about 1e-15 N nats for N total counts
_GAP_ROUNDING = 1e-15


@dataclass(frozen=True, eq=False)
class TomographyResult:
    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    scheme: str
    # accepted log-likelihood value after every iteration, for monotonicity audits
    trajectory: tuple[float, ...] = ()


def _parse(counts: list[CountRecord]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(qubit number, counts, nominal shots, (k, d, d) projectors) of a count list."""
    if not counts:
        raise ValueError("no count records")
    sizes = {rec.setting.num_qubits for rec in counts}
    if len(sizes) != 1:
        raise ValueError("count records mix different qubit numbers")
    n = np.array([float(rec.count) for rec in counts])
    shots = np.array([float(rec.shots_nominal) for rec in counts])
    return sizes.pop(), n, shots, _projector_stack(tuple(rec.setting for rec in counts))


def _infer_scheme(counts: list[CountRecord], num_qubits: int) -> str:
    n = len(counts)
    if (num_qubits, n) in ((1, 4), (2, 16)):
        return MINIMAL
    if (num_qubits, n) in ((1, 6), (2, 36)):
        return OVERCOMPLETE
    return "custom"


def _invert(projectors: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Unit-trace least-squares solution A of Tr(Pi_k A) = freqs_k.

    The rows are the projectors' interleaved (re, im) entries, so the
    minimum-norm solution lies in their span and is Hermitian: the
    anti-Hermitian directions are in the rows' null space.
    """
    k, dim, _ = projectors.shape
    rows = projectors.reshape(k, -1).view(np.float64)
    coeffs, _, _, singular = np.linalg.lstsq(rows, freqs, rcond=None)
    if np.count_nonzero(singular > 1e-10) < dim * dim:
        raise ValueError("setting set is not informationally complete")
    mat = coeffs.view(complex).reshape(dim, dim)
    mat = 0.5 * (mat + mat.conj().T)
    trace = float(np.real(np.trace(mat)))
    if abs(trace) < 1e-12:
        raise ValueError("degenerate reconstruction with near-zero trace")
    return mat / trace


def linear_inversion(counts: list[CountRecord]) -> HermitianMatrix:
    """Least-squares state estimate from count frequencies.

    Raises ValueError when the setting set is not informationally complete
    (fewer than d^2 independent projectors). The result is Hermitian with
    unit trace but may fail positivity under shot noise.
    """
    num_qubits, n, shots, projectors = _parse(counts)
    return HermitianMatrix(num_qubits, _invert(projectors, n / shots))


def _log_likelihood(probs: np.ndarray, counts: np.ndarray) -> float:
    return float(np.sum(counts * np.log(np.maximum(probs, PROB_LOG_FLOOR))))


def _warm_start(projectors: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Positivity-projected linear inversion, or I/d when unavailable."""
    dim = projectors.shape[-1]
    try:
        estimate = _invert(projectors, freqs)
    except ValueError:
        return np.eye(dim, dtype=complex) / dim
    ew, ev = np.linalg.eigh(estimate)
    # blend a sliver of the identity back in, scaled by how non-physical the
    # inversion was: the gradient vanishes on a zero column of the factor, so
    # an eigenvalue that starts at zero could never grow
    blend = float(min(0.1, max(1e-12, -ew.min())))
    ew = np.clip(ew, 0.0, None)
    rho0 = (ev * ew) @ ev.conj().T / ew.sum()
    return (1.0 - blend) * rho0 + blend * np.eye(dim) / dim


def _factor(sigma: np.ndarray) -> np.ndarray:
    """Pack a square factor T with T T^dag = sigma into L-BFGS's real vector."""
    ew, ev = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    return (ev * np.sqrt(np.clip(ew, 0.0, None))).reshape(-1).view(np.float64).copy()


def _unfactor(x: np.ndarray) -> np.ndarray:
    t = x.view(complex)
    dim = isqrt(t.size)
    return t.reshape(dim, dim)


def _gap_operator(design: np.ndarray, n: np.ndarray, q: np.ndarray, trace: float) -> np.ndarray:
    """G - N*I at sigma = A / trace, where q_k = Tr(T_k A) and G = sum_k n_k T_k / p_k.

    An n_k = 0 entry adds nothing, even where its probability vanishes, so
    pure-state optima with zero-probability projectors certify cleanly.
    """
    probs = np.maximum(q / trace, PROB_LOG_FLOOR)
    g_op = ((n / probs - n.sum()) @ design).view(complex)
    dim = isqrt(g_op.size)
    return g_op.reshape(dim, dim)


def _duality_gap(g_op: np.ndarray) -> float:
    """lambda_max(G) - N: how far, at most, the log-likelihood is below its maximum."""
    return float(np.linalg.eigvalsh(0.5 * (g_op + g_op.conj().T))[-1])


def _ascend(
    design: np.ndarray, n: np.ndarray, x_ref: np.ndarray, tol: float, budget: int
) -> list[tuple[np.ndarray, float, float]]:
    """One L-BFGS run from x_ref: (x, log-likelihood gain, gap) per accepted step.

    The objective is the log-likelihood change from x_ref, formed from the
    change of T rather than as the difference of two large sums, so the line
    search still sees steps far below the rounding of the full log-likelihood.
    The run ends at a certified step, at the budget, or when the line search
    can make no further progress.
    """
    observed = n > 0
    counts = n[observed]
    total = float(n.sum())
    t_ref = _unfactor(x_ref)
    a_ref = t_ref @ t_ref.conj().T
    q_ref = design @ a_ref.reshape(-1).view(np.float64)
    trace_ref = float(np.real(np.trace(a_ref)))
    steps = []
    latest = {}

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        t = _unfactor(x)
        d = t - t_ref
        da = d @ t_ref.conj().T
        da = da + da.conj().T + d @ d.conj().T
        dq = design @ da.reshape(-1).view(np.float64)
        d_trace = float(np.real(np.trace(da)))
        # keeps log1p finite where a trial step empties an observed projector
        rel = np.maximum(dq[observed] / q_ref[observed], PROB_LOG_FLOOR - 1.0)
        gain = float(np.sum(counts * np.log1p(rel))) - total * np.log1p(d_trace / trace_ref)
        trace = trace_ref + d_trace
        g_op = _gap_operator(design, n, q_ref + dq, trace)
        latest.update(x=x.copy(), gain=gain, g_op=g_op)
        grad = (-2.0 / trace) * (g_op @ t)
        return -gain, grad.reshape(-1).view(np.float64)

    def callback(intermediate_result) -> None:
        # the accepted step is the line search's last evaluation
        if not np.array_equal(intermediate_result.x, latest["x"]):
            objective(intermediate_result.x)
        gap = _duality_gap(latest["g_op"])
        steps.append((latest["x"], latest["gain"], gap))
        if gap <= tol:
            raise StopIteration

    # imported here, not at module level, so that runs whose cells are all
    # certified at the warm start never load scipy
    from scipy.optimize import minimize

    minimize(
        objective,
        x_ref,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        # full curvature memory, as T has only 2 d^2 real parameters; scipy's
        # own tests are off, so only a stalled line search stops the run
        # early; a line search makes at most 20 evaluations, so maxfun never
        # binds before maxiter
        options={
            "maxiter": budget,
            "maxcor": x_ref.size,
            "maxfun": 50 * budget,
            "ftol": 0.0,
            "gtol": 0.0,
        },
    )
    return steps


def mle(
    counts: list[CountRecord],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TomographyResult:
    """Maximum-likelihood reconstruction with a certified likelihood gap.

    Maximizes the Poisson profile likelihood over sigma = T T^dag / Tr(T T^dag)
    in the whitened frame, by L-BFGS on the real and imaginary parts of the
    square factor T with the analytic gradient, from the positivity-projected
    linear inversion. When the line search stalls, L-BFGS restarts from the
    stalled point.

    - tol: bound in nats on the Frank-Wolfe duality gap lambda_max(G) - N,
      with G = sum_k n_k T_k / p_k. The objective is concave in sigma, so the
      gap bounds how far the log-likelihood is below its maximum. Rounding
      puts a floor of about 1e-15 * N under the computed gap, so count
      totals N far above 1e8 need a larger tol. Restarts end once one gains
      less than that floor, with converged=False if the gap is still above
      tol.
    - iterations: accepted L-BFGS steps over all restarts, at most max_iter;
      0 when the warm start already meets tol.
    - converged: whether the gap of the returned state is at most tol. It is
      the certificate alone, not the optimizer's own stopping status.
    - trajectory: the log-likelihood at the start and after every accepted
      step. The line search accepts only steps that raise it.

    The reported log_likelihood is the Poisson profile objective (equal, up
    to a constant, to sum n_k log p_k for identity-resolving schemes).
    """
    num_qubits, n, shots, raw = _parse(counts)
    if n.sum() <= 0:
        raise ValueError("all counts are zero")
    projectors = (shots / shots.max())[:, None, None] * raw

    s = projectors.sum(axis=0)
    ew, ev = np.linalg.eigh(s)
    if ew.min() <= 1e-12:
        raise ValueError("setting set leaves part of the space unmeasured")
    s_inv_half = (ev / np.sqrt(ew)) @ ev.conj().T
    s_half = (ev * np.sqrt(ew)) @ ev.conj().T
    transformed = np.einsum("ab,kbc,cd->kad", s_inv_half, projectors, s_inv_half)
    # Tr(T_k A) for Hermitian A is the real dot product of the interleaved
    # (re, im) parts of T_k and A, so all probabilities are one matrix product
    design = np.ascontiguousarray(transformed).reshape(len(counts), -1).view(np.float64)

    x = _factor(s_half @ _warm_start(raw, n / shots) @ s_half)
    t = _unfactor(x)
    a = t @ t.conj().T
    q = design @ a.reshape(-1).view(np.float64)
    trace = float(np.real(np.trace(a)))
    trajectory = [_log_likelihood(q / trace, n)]
    converged = _duality_gap(_gap_operator(design, n, q, trace)) <= tol
    iterations = 0
    while not converged and iterations < max_iter:
        steps = _ascend(design, n, x, tol, max_iter - iterations)
        if not steps:
            break
        base = trajectory[-1]
        trajectory += [base + gain for _, gain, _ in steps]
        x, gain, gap = steps[-1]
        iterations += len(steps)
        converged = gap <= tol
        if gain < _GAP_ROUNDING * n.sum():
            # the restart is lost in rounding: a tol below the floor cannot be met
            break

    t = _unfactor(x)
    rho = s_inv_half @ (t @ t.conj().T) @ s_inv_half
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))

    return TomographyResult(
        rho=DensityMatrix(num_qubits, rho),
        log_likelihood=trajectory[-1],
        iterations=iterations,
        converged=converged,
        scheme=_infer_scheme(counts, num_qubits),
        trajectory=tuple(trajectory),
    )
