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
of James, Kwiat, Munro and White, PRA 64, 052312 (2001), with T a full
square complex matrix. With x the interleaved (re, im) entries of T and R_k
the real form of T_k (x) I, the objective is the sum of logs of quadratic
forms f(x) = sum_k n_k log(x^T R_k x) - N log(x^T x), whose exact gradient
and Hessian drive Levenberg-Marquardt steps. In T a rank-deficient optimum
is a strict quadratic maximum (a column of T that should vanish has
curvature -(N - lambda) < 0), so the steps converge in a few iterations
where first-order methods crawl. The search starts from the
positivity-projected linear-inversion estimate whenever the setting set
supports one (the maximally mixed state otherwise).

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
# relative rounding of a sum of count-weighted logs: about 1e-15 N nats
# under the duality gap for N total counts, and under a step's gain 1e-15
# of the summed magnitudes of its terms
_GAP_ROUNDING = 1e-15
# Levenberg-Marquardt damping mu, in units of the largest curvature: its
# start, its floor after accepted steps, and the value that gives a step up
_MU_START, _MU_MIN, _MU_STALL = 1e-3, 1e-12, 1e16


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
    """Pack a square factor T with T T^dag = sigma into a real vector."""
    ew, ev = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    return (ev * np.sqrt(np.clip(ew, 0.0, None))).reshape(-1).view(np.float64).copy()


def _unfactor(x: np.ndarray) -> np.ndarray:
    t = x.view(complex)
    dim = isqrt(t.size)
    return t.reshape(dim, dim)


def _gap(design: np.ndarray, n: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(Frank-Wolfe duality gap, log-likelihood) at sigma = T T^dag / Tr(T T^dag).

    The gap is lambda_max(G) - N with G = sum_k n_k T_k / p_k: how far, at
    most, the log-likelihood is below its maximum. An n_k = 0 entry adds
    nothing, even where its probability vanishes, so pure-state optima with
    zero-probability projectors certify cleanly.
    """
    t = _unfactor(x)
    a = t @ t.conj().T
    # Tr(T_k A) for Hermitian A is the real dot product of the interleaved
    # (re, im) parts of T_k and A, so all probabilities are one matrix product
    probs = np.maximum(design @ a.reshape(-1).view(np.float64) / np.real(np.trace(a)), PROB_LOG_FLOOR)
    g_op = ((n / probs - n.sum()) @ design).view(complex).reshape(t.shape)
    gap = float(np.linalg.eigvalsh(0.5 * (g_op + g_op.conj().T))[-1])
    return gap, float(np.sum(n * np.log(probs)))


def _real_forms(operators: np.ndarray) -> np.ndarray:
    """(k, 2 d^2, 2 d^2) real symmetric R_k with x^T R_k x = Tr(T_k T T^dag).

    x holds the interleaved (re, im) entries of the square factor T, so R_k
    is the real form of T_k (x) I acting on the row-major vec(T).
    """
    k, dim, _ = operators.shape
    m = np.kron(operators, np.eye(dim))
    real = np.empty((k, 2 * dim * dim, 2 * dim * dim))
    real[:, 0::2, 0::2] = real[:, 1::2, 1::2] = m.real
    real[:, 1::2, 0::2] = m.imag
    real[:, 0::2, 1::2] = -m.imag
    return real


def _derivatives(real: np.ndarray, counts: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(R_k x, x^T R_k x, gradient, Hessian) of f(x) = sum_k n_k log(x^T R_k x) - N log(x^T x)."""
    total = counts.sum()
    r = real @ x
    q = r @ x
    s = x @ x
    w = counts / q
    grad = 2.0 * (w @ r - (total / s) * x)
    hess = 2.0 * (np.tensordot(w, real, 1) - (total / s) * np.eye(x.size))
    hess -= 4.0 * ((r.T * (w / q)) @ r - (total / s**2) * np.outer(x, x))
    return r, q, grad, hess


def _levenberg_marquardt(
    transformed: np.ndarray, design: np.ndarray, n: np.ndarray, x: np.ndarray, tol: float, budget: int
) -> list[tuple[np.ndarray, float, float]]:
    """Levenberg-Marquardt ascent of f from x: (x, log-likelihood gain, gap) per step.

    Each step shifts -H by mu * max|lambda|, raising mu tenfold until the
    shifted model is positive definite and its step gains (Nocedal and
    Wright, Numerical Optimization, ch. 10); an accepted step lowers mu
    tenfold for the next one. One eigvalsh per step gives the spectrum's
    ends, and the step is one linear solve: an eigendecomposition with
    vectors goes through multithreaded BLAS at this size, and waking its
    threads can cost more than the whole step. The gain is formed from the
    change of the quadratic forms, not as the difference of two large sums,
    so steps far below the rounding of the full log-likelihood are still
    seen. The ascent ends at a certified step, at the budget, or when no
    step gains more than the rounding of the terms that form its gain.
    """
    observed = n > 0
    counts = n[observed]
    total = counts.sum()
    real = _real_forms(transformed[observed])
    eye = np.eye(x.size)
    mu = _MU_START
    steps = []
    while len(steps) < budget:
        r, q, grad, hess = _derivatives(real, counts, x)
        lam = np.linalg.eigvalsh(-hess)
        scale = max(-lam[0], lam[-1])
        while mu < _MU_STALL:
            if lam[0] + mu * scale > 0.0:
                step = np.linalg.solve((mu * scale) * eye - hess, grad)
                dq = 2.0 * (r @ step) + (real @ step) @ step
                # keeps log1p finite where a trial step empties an observed projector
                rel = np.maximum(dq / q, PROB_LOG_FLOOR - 1.0)
                terms = np.append(counts * np.log1p(rel), -total * np.log1p((2.0 * x + step) @ step / (x @ x)))
                gain = float(terms.sum())
                # a gain within the rounding of the terms that form it is no gain
                if gain > _GAP_ROUNDING * np.abs(terms).sum():
                    break
            mu *= 10.0
        else:
            break
        mu = max(mu / 10.0, _MU_MIN)
        x = x + step
        gap = _gap(design, n, x)[0]
        steps.append((x, gain, gap))
        if gap <= tol:
            break
    return steps


def mle(
    counts: list[CountRecord],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TomographyResult:
    """Maximum-likelihood reconstruction with a certified likelihood gap.

    Maximizes the Poisson profile likelihood over sigma = T T^dag / Tr(T T^dag)
    in the whitened frame, by Levenberg-Marquardt steps on the real and
    imaginary parts of the square factor T with the exact gradient and
    Hessian, from the positivity-projected linear inversion.

    - tol: bound in nats on the Frank-Wolfe duality gap lambda_max(G) - N,
      with G = sum_k n_k T_k / p_k. The objective is concave in sigma, so the
      gap bounds how far the log-likelihood is below its maximum. Rounding
      puts a floor of about 1e-15 * N under the computed gap, so no tol
      below that floor is ever certified: the best state found comes back
      with converged=False once no step's gain rises above rounding. Count
      totals N far above 1e8 need a larger tol.
    - iterations: accepted Levenberg-Marquardt steps, at most max_iter; 0
      when the warm start already meets tol. There is no restart.
    - converged: whether the gap of the returned state is at most tol, and
      tol is at least the rounding floor. It is the certificate alone, not
      the solver's own stopping status.
    - trajectory: the log-likelihood at the start and after every accepted
      step. A step is accepted only if it raises it.

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
    design = np.ascontiguousarray(transformed).reshape(len(counts), -1).view(np.float64)

    x = _factor(s_half @ _warm_start(raw, n / shots) @ s_half)
    gap, log_likelihood = _gap(design, n, x)
    trajectory = [log_likelihood]
    if gap > tol:
        for x, gain, gap in _levenberg_marquardt(transformed, design, n, x, tol, max_iter):
            trajectory.append(trajectory[-1] + gain)

    t = _unfactor(x)
    rho = s_inv_half @ (t @ t.conj().T) @ s_inv_half
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))

    return TomographyResult(
        rho=DensityMatrix(num_qubits, rho),
        log_likelihood=trajectory[-1],
        iterations=len(trajectory) - 1,
        converged=bool(gap <= tol and tol >= _GAP_ROUNDING * n.sum()),
        scheme=_infer_scheme(counts, num_qubits),
        trajectory=tuple(trajectory),
    )
