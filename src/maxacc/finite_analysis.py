"""Algebraic maximal-accuracy verdict for finite-state models.

The optimal filter reaches maximal accuracy (stationary error -> 0 for every
test function as the noise vanishes) if and only if the model is both
invertible and reconstructible. Both properties reduce to finite checks:

* invertibility is a local condition on the observation table along the
  transition graph: any jump must change the observed value, and the possible
  targets of a common source must be observationally distinct;
* reconstructibility asks that the smallest subspace containing the all-ones
  vector and invariant under the time-reversed generator and the diagonal
  observation operators be the whole space.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .markov import FiniteStateModel, reduce_support, time_reverse
from .verdicts import InvertibilityReport, ReconstructibilityReport, Verdict

OBS_TIE_TOL = 1e-12     # h(i) == h(j) means max-norm difference below this
RANK_TOL = 1e-9         # relative singular-value cutoff for span dimensions


def check_invertibility(model: FiniteStateModel) -> InvertibilityReport:
    """Check the two graph conditions for invertibility.

    (1) every transition i -> j with positive rate satisfies h(i) != h(j);
    (2) for any state i with two distinct possible targets j, k, the targets
        are observationally distinct, h(j) != h(k).

    Violations are reported as ("pair", i, j) and ("triple", i, j, k) with
    0-based state indices. Ties are tested with an absolute tolerance: model
    values are user-entered, so exact ties are intended and near-ties are
    surfaced as suspicious in the notes.
    """
    L, h, d = model.Lambda, model.h, model.d
    gap = np.abs(h[:, None] - h[None]).max(axis=2)  # max-norm distance of every pair of rows
    tie = gap <= OBS_TIE_TOL
    violations: list[tuple] = []
    for i in range(d):
        targets = [j for j in range(d) if j != i and L[i, j] > 0]
        violations += [("pair", i, j) for j in targets if tie[i, j]]
        violations += [("triple", i, j, k) for j, k in combinations(targets, 2) if tie[j, k]]
    notes = [f"h({i}) and h({j}) differ by {gap[i, j]:.3e}; treated as distinct"
             for i in range(d) for j in range(i + 1, d) if OBS_TIE_TOL < gap[i, j] <= 1e-6]
    return InvertibilityReport(ok=not violations, violations=violations, notes=notes)


def check_reconstructibility(model: FiniteStateModel) -> ReconstructibilityReport:
    """Dimension of the smallest invariant subspace containing the ones vector.

    Maintains an orthonormal basis, repeatedly applies every operator to every
    basis vector, and keeps components whose residual survives orthogonal
    projection. Each round either grows the dimension or stops, so at most d
    rounds run. Reconstructible iff the dimension reaches d. The operators are
    the time-reversed generator and one diagonal operator per observation
    column.
    """
    d = model.d
    ops = [time_reverse(model)] + [np.diag(model.h[:, col]) for col in range(model.n)]
    tol = RANK_TOL * max(1.0, *(float(np.max(np.abs(op))) for op in ops))
    basis = np.ones((d, 1)) / np.sqrt(d)
    size = 0
    while size < basis.shape[1] < d:  # a round that adds nothing ends the closure
        size = basis.shape[1]
        for op in ops:
            for v in (op @ basis).T:
                if basis.shape[1] < d:
                    # Two projection passes keep the basis orthonormal to round-off.
                    r = v - basis @ (basis.T @ v)
                    r = r - basis @ (basis.T @ r)
                    norm = np.linalg.norm(r)
                    if norm > tol:
                        basis = np.hstack([basis, (r / norm)[:, None]])
    dim = basis.shape[1]
    notes = []
    if model.n > 1:
        notes.append(
            "generalized criterion: closure taken under one diagonal operator "
            "per observation coordinate"
        )
    return ReconstructibilityReport(ok=dim == d, dim=dim, basis=basis, notes=notes)


def finite_verdict(model: FiniteStateModel) -> Verdict:
    """Combined verdict: maximal accuracy iff invertible and reconstructible.

    Support reduction is applied first, so transient states never influence
    the answer.
    """
    reduced = reduce_support(model)
    inv = check_invertibility(reduced)
    rec = check_reconstructibility(reduced)
    notes = []
    if reduced.d != model.d:
        notes.append(f"support reduced from {model.d} to {reduced.d} states")
    notes.extend(rec.notes)
    return Verdict(
        kind="finite",
        maximal_accuracy=inv.ok and rec.ok,
        invertibility=inv,
        reconstructibility=rec,
        reduced_dim=reduced.d,
        notes=notes,
    )
