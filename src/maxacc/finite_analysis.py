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

import numpy as np

from .markov import FiniteStateModel, reduce_support, time_reverse
from .verdicts import InvertibilityReport, ReconstructibilityReport, Verdict

OBS_TIE_TOL = 1e-12     # h(i) == h(j) means max-norm difference below this
RANK_TOL = 1e-9         # relative singular-value cutoff for span dimensions


def _obs_equal(h: np.ndarray, i: int, j: int) -> bool:
    return float(np.max(np.abs(h[i] - h[j]))) <= OBS_TIE_TOL


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
    violations: list[tuple] = []
    notes: list[str] = []
    for i in range(d):
        targets = [j for j in range(d) if j != i and L[i, j] > 0]
        for j in targets:
            if _obs_equal(h, i, j):
                violations.append(("pair", i, j))
        for a in range(len(targets)):
            for b in range(a + 1, len(targets)):
                j, k = targets[a], targets[b]
                if _obs_equal(h, j, k):
                    violations.append(("triple", i, j, k))
    for i in range(d):
        for j in range(i + 1, d):
            gap = float(np.max(np.abs(h[i] - h[j])))
            if OBS_TIE_TOL < gap <= 1e-6:
                notes.append(
                    f"h({i}) and h({j}) differ by {gap:.3e}; treated as distinct"
                )
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
    scale = max(float(np.max(np.abs(op))) for op in ops)
    scale = max(scale, 1.0)
    basis = np.ones((d, 1)) / np.sqrt(d)
    grew = True
    while grew and basis.shape[1] < d:
        grew = False
        for op in ops:
            cand = op @ basis
            for v in cand.T:
                # Two projection passes keep the basis orthonormal to round-off.
                r = v - basis @ (basis.T @ v)
                r = r - basis @ (basis.T @ r)
                if np.linalg.norm(r) > RANK_TOL * scale:
                    basis = np.hstack([basis, (r / np.linalg.norm(r))[:, None]])
                    grew = True
                    if basis.shape[1] == d:
                        break
            if basis.shape[1] == d:
                break
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
