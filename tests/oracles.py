"""Reference oracles the test suite checks the package against.

Each oracle builds what it needs from public model data, so it does not
share code with the implementation it checks. The anyOf schemas are the
one exception: they keep the shipped schemas' structure and rewrite only
their number entries, the part under test.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_continuous_are
from scipy.special import k0e, k1e

from maxacc import FiniteStateModel, time_reverse
from maxacc.modelfile import DECIMAL, MODEL_FILE_SCHEMA, REPORT_SCHEMA

DEFAULT_WORD_CAP = 200_000
RANK_TOL = 1e-9


class WordBudgetExceeded(Exception):
    """Brute-force word enumeration exceeded its configured cap."""


def brute_force_reconstructibility(
    model: FiniteStateModel,
    max_len: int | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> dict:
    """Reference span dimension by explicit word enumeration.

    Applies every word over the operator alphabet (the time-reversed
    generator plus one diagonal operator per observation column) of length
    <= max_len to the ones vector and returns the numerical rank of the
    collected vectors. Exact for max_len >= d because the invariant-subspace
    chain stabilizes within d steps. Exponential in max_len; small models only.
    """
    d = model.d
    if max_len is None:
        max_len = d
    ops = [time_reverse(model)] + [np.diag(model.h[:, col]) for col in range(model.n)]
    total = sum(len(ops) ** k for k in range(1, max_len + 1))
    if total > word_cap:
        raise WordBudgetExceeded(
            f"{total} words of length <= {max_len} exceeds cap {word_cap}"
        )
    ones = np.ones(d)
    vectors = [ones]
    for k in range(1, max_len + 1):
        for word in product(range(len(ops)), repeat=k):
            v = ones
            for idx in reversed(word):
                v = ops[idx] @ v
            vectors.append(v)
    stack = np.column_stack(vectors)
    svals = np.linalg.svd(stack, compute_uv=False)
    top = svals[0] if svals[0] > 0 else 1.0
    return {"dim": int(np.sum(svals > RANK_TOL * top)), "words": total + 1}


def choice_sample_path(
    Lambda: np.ndarray,
    initial_state: int,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference exact-jump sampler: exponential holding times, rng.choice jumps.

    The straightforward form of maxacc.markov.sample_path, which must draw
    the same stream: every (times, states) pair and the generator state
    afterwards agree.
    """
    L = np.asarray(Lambda, dtype=float)
    d = L.shape[0]
    exit_rates = -np.diag(L)
    kernels = []
    for i in range(d):
        if exit_rates[i] > 0:
            row = np.clip(L[i], 0.0, None)
            row[i] = 0.0
            kernels.append(row / row.sum())
        else:
            kernels.append(None)
    times = [0.0]
    states = [int(initial_state)]
    t, x = 0.0, int(initial_state)
    while exit_rates[x] > 0:
        t += rng.exponential(1.0 / exit_rates[x])
        if t >= horizon:
            break
        x = int(rng.choice(d, p=kernels[x]))
        times.append(t)
        states.append(x)
    return np.asarray(times), np.asarray(states, dtype=np.intp)


def invertibility_by_pairs(Lambda: np.ndarray, h: np.ndarray, tol: float) -> tuple[list[tuple], list[str]]:
    """Reference invertibility report: violations and near-tie notes, pair by pair.

    Two states tie when their observation rows differ by at most tol in the
    max norm. Violations come per source state i: first ("pair", i, j) for
    each tied target j, then ("triple", i, j, k) for each tied pair of
    targets j < k. A pair that differs by more than tol but at most 1e-6 is
    noted as a near-tie, in row-major order.
    """
    L = np.asarray(Lambda, dtype=float)
    d = L.shape[0]
    rows = np.asarray(h, dtype=float).reshape(d, -1)

    def distance(i: int, j: int) -> float:
        return float(np.max(np.abs(rows[i] - rows[j])))

    violations: list[tuple] = []
    for i in range(d):
        targets = [j for j in range(d) if j != i and L[i, j] > 0]
        for j in targets:
            if distance(i, j) <= tol:
                violations.append(("pair", i, j))
        for a in range(len(targets)):
            for b in range(a + 1, len(targets)):
                j, k = targets[a], targets[b]
                if distance(j, k) <= tol:
                    violations.append(("triple", i, j, k))
    notes = []
    for i in range(d):
        for j in range(i + 1, d):
            gap = distance(i, j)
            if tol < gap <= 1e-6:
                notes.append(f"h({i}) and h({j}) differ by {gap:.3e}; treated as distinct")
    return violations, notes


def _full_rank(M: np.ndarray, rank: int) -> bool:
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[0] > 0 and np.sum(s > RANK_TOL * s[0]) >= rank)


def pbh_flags(A: np.ndarray, D: np.ndarray, H: np.ndarray) -> dict:
    """Reference PBH tests in their stacked forms.

    (A, D) is stabilizable when [A - lam I, D] has full row rank, and (A, H)
    detectable when [A - lam I; H] (stacked rows) has full column rank, at
    every eigenvalue lam of A with Re lam >= -1e-9.
    """
    p = A.shape[0]
    eigs = np.linalg.eigvals(A)
    shifts = [A - lam * np.eye(p) for lam in eigs[eigs.real >= -1e-9]]
    return {
        "stabilizable": all(_full_rank(np.hstack([S, D]), p) for S in shifts),
        "detectable": all(_full_rank(np.vstack([S, H]), p) for S in shifts),
    }


def care_gain(A: np.ndarray, H: np.ndarray, weight: float, margin: float) -> np.ndarray:
    """Reference stabilizing gain K = X H^T for the output injection A - KH.

    X solves the dual Riccati equation of A + margin I with state weight
    `weight` and unit noise weight, so every eigenvalue of A - KH has real
    part below -margin; different weights give different gains.
    """
    p = A.shape[0]
    X = solve_continuous_are(
        (A + margin * np.eye(p)).T, H.T, weight * np.eye(p), np.eye(H.shape[0])
    )
    return X @ H.T


def ks_limit_trace(A: np.ndarray, D: np.ndarray, H: np.ndarray, zeros) -> float:
    """Reference trace of the limit filter error P0 = lim P(kappa) as kappa -> 0.

    Kwakernaak & Sivan (1972): only the right-half-plane zeros z_i of
    H (lam I - A)^{-1} D keep the error from vanishing. Each gives a zero
    direction (x_i, u_i), the null vector of [[z_i I - A, -D], [H, 0]]
    (taken by SVD), and P0 = X M^{-1} X* with M_ij = conj(u_i) u_j /
    (conj(z_i) + z_j). The form is invariant under rescaling each direction.
    Single input only: nothing has checked it against the Riccati solution
    for m >= 2.
    """
    p, m = D.shape
    if m != 1:
        raise ValueError(f"ks_limit_trace is checked for single-input models only, got m = {m}")
    right = [complex(z) for z in zeros if complex(z).real > 0]
    if not right:
        return 0.0
    n = H.shape[0]
    X, u = [], []
    for z in right:
        pencil = np.block([[z * np.eye(p) - A, -D], [H, np.zeros((n, m))]])
        null = np.linalg.svd(pencil)[2][-1].conj()
        X.append(null[:p])
        u.append(null[p])
    X, u, z = np.column_stack(X), np.array(u), np.array(right)
    M = np.outer(u.conj(), u) / (z.conj()[:, None] + z[None, :])
    return float(np.trace(X @ np.linalg.solve(M, X.conj().T)).real)


def relative_degree(A: np.ndarray, D: np.ndarray, H: np.ndarray) -> int:
    """Reference relative degree r: the first k with H A^(k-1) D != 0.

    The Markov parameter H A^(k-1) D counts as zero when it is at most
    RANK_TOL times |H| |A^(k-1) D|. The Riccati trace of a maximally
    accurate model falls like kappa^(1/r) as kappa -> 0. Single-input,
    single-output only: the multi-channel rate comes from the orders of the
    zeros at infinity, which nothing here computes.
    """
    A, D, H = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, D, H))
    (p, m), n = D.shape, H.shape[0]
    if m != 1 or n != 1:
        raise ValueError(
            f"relative_degree is checked for single-input, single-output models only, got m = {m}, n = {n}"
        )
    v = D[:, 0]
    for k in range(1, p + 1):
        if abs(H[0] @ v) > RANK_TOL * np.linalg.norm(H) * np.linalg.norm(v):
            return k
        v = A @ v
    raise ValueError("H A^(k-1) D vanishes for every k <= p: the transfer function is zero")


def two_state_error(rate: float, h_gap: float, f_gap: float, kappa: float) -> float:
    """Reference stationary filter error of a symmetric two-state chain.

    The chain jumps at `rate` each way and is observed through h with
    h(1) - h(0) = h_gap; f(1) - f(0) = f_gap. The error is f_gap^2 E[p(1 - p)]
    under the stationary law of the Wonham filter p (Wonham 1965), whose
    density is proportional to exp(-c / (p(1 - p))) / (p(1 - p))^2 with
    c = 2 rate kappa^2 / h_gap^2. The substitution u = 1 / (p(1 - p)) gives
    f_gap^2 K0(z) / (2 (K0(z) + K1(z))) with z = 2c. k0e and k1e carry the
    same factor exp(z), which cancels in the ratio.
    """
    z = 4.0 * rate * kappa**2 / h_gap**2
    k0, k1 = k0e(z), k1e(z)
    return float(f_gap**2 * k0 / (2.0 * (k0 + k1)))


def two_state_error_by_quadrature(rate: float, h_gap: float, f_gap: float, kappa: float) -> float:
    """two_state_error by quadrature of the Wonham filter's stationary density.

    In the logit t = log(p / (1 - p)), dp = p(1 - p) dt and
    1 / (p(1 - p)) = 2 + 2 cosh t, so both integrands are smooth and even in
    t; past the upper limit they are below 1e-160 of their peak.
    """
    c = 2.0 * rate * kappa**2 / h_gap**2
    top = math.acosh(200.0 / c)

    def density(t: float) -> float:  # in t, so with the Jacobian p(1 - p)
        u = 2.0 + 2.0 * math.cosh(t)
        return math.exp(-c * u) * u

    mass = quad(density, 0.0, top, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    moment = quad(lambda t: density(t) / (2.0 + 2.0 * math.cosh(t)), 0.0, top,
                  epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return f_gap**2 * moment / mass


def small_noise_leading(Lambda, h, f, kappa: float) -> float:
    """Reference leading term of a finite chain's stationary filter error at small kappa.

    For a chain with generator Lambda, stationary law pi and pairwise
    distinct scalar observations h (Khasminskii & Zeitouni 1996),

        e(f, kappa) ~ 4 kappa^2 log(1/kappa) sum_{i != j} pi_i lambda_ij (f_i - f_j)^2 / (h_i - h_j)^2.

    For the symmetric two-state chain it is the leading term of
    two_state_error. Tied h and multi-channel h (n >= 2) are refused: no law
    has been checked for either.
    """
    Lambda = np.atleast_2d(np.asarray(Lambda, dtype=float))
    h = np.asarray(h, dtype=float)
    if h.ndim == 2:
        if h.shape[1] != 1:
            raise ValueError(f"small_noise_leading is checked for scalar observations only, got n = {h.shape[1]}")
        h = h[:, 0]
    off = ~np.eye(len(h), dtype=bool)
    gap = np.where(off, h[:, None] - h[None, :], 1.0)
    if np.any(gap == 0.0):
        raise ValueError(f"small_noise_leading needs pairwise distinct h, got {h.tolist()}")
    pi = np.linalg.svd(Lambda.T)[2][-1]  # the null vector of Lambda^T
    pi = pi / pi.sum()
    f = np.asarray(f, dtype=float)
    terms = pi[:, None] * Lambda * (f[:, None] - f[None, :]) ** 2 / gap**2
    return float(4.0 * kappa**2 * math.log(1.0 / kappa) * terms[off].sum())


# The sim fields that the model-file schema lets be null.
NULLABLE_SIM_FIELDS = ("horizon", "dt", "burn_in")


def _anyof_number(node, key=None):
    """node with every number entry in the anyOf form the schemas once used.

    A number entry is any subschema whose type is a list naming "number".
    Its pattern and whether it admits null are taken from DECIMAL and from
    its property name, not from the entry itself, so a shipped entry that
    lost or changed either shows up as a disagreement.
    """
    if isinstance(node, list):
        return [_anyof_number(v) for v in node]
    if not isinstance(node, dict):
        return node
    if isinstance(node.get("type"), list) and "number" in node["type"]:
        number = {"anyOf": [{"type": "number"}, {"type": "string", "pattern": DECIMAL}]}
        return {"anyOf": [number, {"type": "null"}]} if key in NULLABLE_SIM_FIELDS else number
    return {k: _anyof_number(v, k) for k, v in node.items()}


# The model-file and report schemas with each number entry written as
# anyOf [number, decimal string] (and null, where allowed): the plainer form
# whose accepted documents the shipped type-list form must match exactly.
ANYOF_MODEL_FILE_SCHEMA = _anyof_number(MODEL_FILE_SCHEMA)
ANYOF_REPORT_SCHEMA = _anyof_number(REPORT_SCHEMA)
