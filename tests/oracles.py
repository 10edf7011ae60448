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
