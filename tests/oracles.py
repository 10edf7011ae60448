"""Reference oracles the test suite checks the package against.

Each oracle builds what it needs from public model data, so it does not
share code with the implementation it checks.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from maxacc import FiniteStateModel, time_reverse

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
