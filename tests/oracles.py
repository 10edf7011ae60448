"""Reference oracles the test suite checks the package against.

Each oracle builds what it needs from public model data, so it does not
share code with the implementation it checks. The anyOf schemas are the
one exception: they keep the shipped schemas' structure and rewrite only
their number entries, the part under test.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.linalg import solve_continuous_are

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
