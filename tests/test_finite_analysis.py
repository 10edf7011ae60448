"""Invertibility and reconstructibility checks against hand and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_finite_model
from maxacc import (
    FiniteStateModel,
    check_invertibility,
    check_reconstructibility,
    finite_verdict,
)
from maxacc.finite_analysis import OBS_TIE_TOL
from oracles import WordBudgetExceeded, brute_force_reconstructibility, invertibility_by_pairs

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])
CYCLE3 = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
# Star chain: state 0 jumps to 1 or 2, both observed identically.
STAR3 = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])


class TestInvertibility:
    def test_two_state_distinct_values_ok(self):
        report = check_invertibility(FiniteStateModel(SYM2, [0.0, 1.0]))
        assert report.ok and report.violations == []

    def test_common_source_with_tied_targets_fails(self):
        report = check_invertibility(FiniteStateModel(STAR3, [0.0, 1.0, 1.0]))
        assert not report.ok
        assert ("triple", 0, 1, 2) in report.violations

    def test_jump_without_observable_change_fails(self):
        report = check_invertibility(FiniteStateModel(SYM2, [1.0, 1.0]))
        assert not report.ok
        assert ("pair", 0, 1) in report.violations

    def test_cycle_with_distinct_values_ok(self):
        report = check_invertibility(FiniteStateModel(CYCLE3, [0.0, 1.0, 2.0]))
        assert report.ok

    def test_near_tie_is_distinct_but_noted(self):
        report = check_invertibility(FiniteStateModel(SYM2, [0.0, 5e-7]))
        assert report.ok
        assert any("5.000e-07" in note for note in report.notes)

    def test_exact_tie_below_tolerance(self):
        report = check_invertibility(FiniteStateModel(SYM2, [1.0, 1.0 + 1e-13]))
        assert not report.ok


class TestReconstructibility:
    def test_two_state_scalar_observation_full(self):
        report = check_reconstructibility(FiniteStateModel(SYM2, [0.0, 1.0]))
        assert report.ok and report.dim == 2

    def test_constant_observation_dim_one(self):
        for d in (2, 4):
            L = np.full((d, d), 1.0)
            np.fill_diagonal(L, -(d - 1.0))
            report = check_reconstructibility(FiniteStateModel(L, np.full(d, 3.0)))
            assert not report.ok and report.dim == 1

    def test_cycle_three_values_full(self):
        report = check_reconstructibility(FiniteStateModel(CYCLE3, [0.0, 1.0, 2.0]))
        assert report.ok and report.dim == 3

    def test_ones_vector_always_in_span(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_finite_model(rng, d_max=5, tie_prob=0.4)
            basis = check_reconstructibility(model).basis
            ones = np.ones(model.d) / np.sqrt(model.d)
            residual = ones - basis @ (basis.T @ ones)
            assert np.linalg.norm(residual) <= 1e-9

    def test_vector_observation_gets_generalized_note(self):
        model = FiniteStateModel(SYM2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        report = check_reconstructibility(model)
        assert any("generalized" in note for note in report.notes)


class TestBruteForce:
    def test_constant_observation_dim_one_any_length(self):
        model = FiniteStateModel(SYM2, [2.0, 2.0])
        for max_len in (1, 2, 3):
            assert brute_force_reconstructibility(model, max_len=max_len)["dim"] == 1

    def test_two_state_full_at_length_one(self):
        model = FiniteStateModel(SYM2, [0.0, 1.0])
        assert brute_force_reconstructibility(model, max_len=1)["dim"] == 2

    def test_word_budget_enforced(self):
        model = FiniteStateModel(CYCLE3, [0.0, 1.0, 2.0])
        with pytest.raises(WordBudgetExceeded):
            brute_force_reconstructibility(model, word_cap=3)

    def test_agrees_with_closure_on_random_models(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            model = random_finite_model(rng, d_max=4, tie_prob=0.3)
            closure = check_reconstructibility(model).dim
            brute = brute_force_reconstructibility(model)["dim"]
            assert closure == brute


def _permuted(model: FiniteStateModel, perm: np.ndarray) -> FiniteStateModel:
    P = np.eye(model.d)[perm]
    return FiniteStateModel(P @ model.Lambda @ P.T, P @ model.h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_permutation_equivariance(seed):
    """Relabeling states changes neither boolean verdict."""
    rng = np.random.default_rng(seed)
    model = random_finite_model(rng, d_max=5, tie_prob=0.4)
    perm = rng.permutation(model.d)
    relabeled = _permuted(model, perm)
    assert check_invertibility(model).ok == check_invertibility(relabeled).ok
    assert check_reconstructibility(model).ok == check_reconstructibility(relabeled).ok


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**9),
    st.floats(0.1, 10.0),
    st.floats(-5.0, 5.0),
    st.booleans(),
)
def test_invertibility_affine_invariant(seed, a, b, flip):
    """h -> a h + b keeps the equality pattern, hence the invertibility answer."""
    model = random_finite_model(np.random.default_rng(seed), d_max=5, tie_prob=0.4)
    scale = -a if flip else a
    rescaled = FiniteStateModel(model.Lambda, scale * model.h + b)
    assert check_invertibility(model).ok == check_invertibility(rescaled).ok


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**9),
    st.integers(1, 2),
    st.sampled_from([0.0, 1e-13, 1e-9, 1e-7, 2e-6]),
    st.integers(0, 3),
)
def test_invertibility_report_matches_the_pairwise_oracle(seed, n_obs, nudge, near_pairs):
    """Violations in order and notes word for word, on ties and on near-ties at each nudge.

    Each near pair copies one observation row onto another and moves every
    coordinate by up to the nudge, so several pairs can tie or land in the note band.
    """
    rng = np.random.default_rng(seed)
    model = random_finite_model(rng, d_max=8, tie_prob=0.4, n_obs=n_obs)
    h = model.h.copy()
    for _ in range(near_pairs):
        i, j = rng.choice(model.d, size=2, replace=False)
        h[j] = h[i] + nudge * rng.uniform(-1.0, 1.0, n_obs)
    model = FiniteStateModel(model.Lambda, h)
    report = check_invertibility(model)
    violations, notes = invertibility_by_pairs(model.Lambda, model.h, OBS_TIE_TOL)
    assert report.violations == violations
    assert report.notes == notes
    assert report.ok == (not violations)


def test_duplicate_observation_column_changes_nothing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = random_finite_model(rng, d_max=5, tie_prob=0.4)
        doubled = FiniteStateModel(model.Lambda, np.hstack([model.h, model.h]))
        assert check_invertibility(model).ok == check_invertibility(doubled).ok
        assert check_reconstructibility(model).ok == check_reconstructibility(doubled).ok


class TestFiniteVerdict:
    def test_maximal_accuracy_two_state(self):
        verdict = finite_verdict(FiniteStateModel(SYM2, [0.0, 1.0]))
        assert verdict.kind == "finite"
        assert verdict.maximal_accuracy is True

    def test_invertibility_failure_blocks(self):
        verdict = finite_verdict(FiniteStateModel(STAR3, [0.0, 1.0, 1.0]))
        assert verdict.maximal_accuracy is False
        assert not verdict.invertibility.ok

    def test_reconstructibility_failure_blocks(self):
        verdict = finite_verdict(FiniteStateModel(SYM2, [1.0, 1.0]))
        assert verdict.maximal_accuracy is False
        assert not verdict.reconstructibility.ok

    def test_transient_states_do_not_matter(self):
        """The verdict is computed on the recurrent support."""
        L = np.array([[-2.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
        verdict = finite_verdict(FiniteStateModel(L, [0.0, 1.0, 2.0]))
        assert verdict.reduced_dim == 2
        assert verdict.maximal_accuracy is True
        assert any("reduced" in note for note in verdict.notes)
