"""Tests for the Werner-state fidelity algebra, verified against density matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum.fidelity import (
    WERNER_MINIMUM_USEFUL_FIDELITY,
    WernerState,
    chained_swap_fidelity,
    decohered_fidelity,
    depolarize,
    fidelity_after_hops,
    required_link_fidelity,
    swap_fidelity,
    teleportation_fidelity,
    werner_from_fidelity,
)
from repro.quantum.states import DensityMatrix, bell_measurement, bell_state, fidelity
from repro.quantum.teleportation import teleportation_circuit_fidelity


class TestWernerState:
    def test_fidelity_bounds(self):
        with pytest.raises(ValueError):
            WernerState(0.1)
        with pytest.raises(ValueError):
            WernerState(1.1)

    def test_density_matrix_has_requested_fidelity(self):
        for value in (0.3, 0.6, 0.95, 1.0):
            state = WernerState(value).to_density_matrix()
            assert fidelity(state, bell_state()) == pytest.approx(value)

    def test_werner_parameter(self):
        assert WernerState(1.0).werner_parameter() == pytest.approx(1.0)
        assert WernerState(0.25).werner_parameter() == pytest.approx(0.0)

    def test_distillable_threshold(self):
        assert WernerState(0.51).is_distillable()
        assert not WernerState(0.5).is_distillable()
        assert WERNER_MINIMUM_USEFUL_FIDELITY == 0.5

    def test_swap_with(self):
        assert WernerState(0.9).swap_with(WernerState(0.8)).fidelity == pytest.approx(
            swap_fidelity(0.9, 0.8)
        )

    def test_after_depolarizing(self):
        assert WernerState(0.9).after_depolarizing(0.5).fidelity == pytest.approx(
            depolarize(0.9, 0.5)
        )


class TestSwapFidelity:
    def test_perfect_inputs_stay_perfect(self):
        assert swap_fidelity(1.0, 1.0) == pytest.approx(1.0)

    def test_symmetric(self):
        assert swap_fidelity(0.9, 0.7) == pytest.approx(swap_fidelity(0.7, 0.9))

    def test_degrades_below_either_input(self):
        assert swap_fidelity(0.9, 0.9) < 0.9

    def test_matches_density_matrix_simulation(self):
        # Swap two Werner pairs via an explicit Bell measurement at the middle
        # node and compare the resulting fidelity with the closed form.
        f_a, f_b = 0.92, 0.81
        joint = WernerState(f_a).to_density_matrix().tensor(WernerState(f_b).to_density_matrix())
        # Qubits: 0 (A), 1 (B's half of pair 1), 2 (B's half of pair 2), 3 (C).
        _, post = bell_measurement(joint, 1, 2, outcomes=(0, 0))
        produced = post.partial_trace([0, 3])
        assert fidelity(produced, bell_state()) == pytest.approx(swap_fidelity(f_a, f_b), abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            swap_fidelity(0.1, 0.9)

    def test_completely_mixed_fixed_point(self):
        assert swap_fidelity(0.25, 0.25) == pytest.approx(0.25)


class TestChainedSwap:
    def test_single_pair_passthrough(self):
        assert chained_swap_fidelity([0.9]) == pytest.approx(0.9)

    def test_order_independent(self):
        values = [0.95, 0.85, 0.9, 0.99]
        forward = chained_swap_fidelity(values)
        backward = chained_swap_fidelity(list(reversed(values)))
        assert forward == pytest.approx(backward)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chained_swap_fidelity([])

    def test_fidelity_after_hops_decreasing(self):
        values = [fidelity_after_hops(0.95, hops) for hops in range(1, 8)]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_fidelity_after_hops_invalid(self):
        with pytest.raises(ValueError):
            fidelity_after_hops(0.95, 0)


class TestDepolarizeAndDecoherence:
    def test_no_decay_identity(self):
        assert depolarize(0.8, 1.0) == pytest.approx(0.8)

    def test_full_decay_to_quarter(self):
        assert depolarize(0.8, 0.0) == pytest.approx(0.25)

    def test_survival_out_of_range(self):
        with pytest.raises(ValueError):
            depolarize(0.8, 1.5)

    def test_decohered_fidelity_monotone_in_time(self):
        values = [decohered_fidelity(0.95, t, coherence_time=10.0) for t in (0, 1, 5, 20)]
        assert values[0] == pytest.approx(0.95)
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))

    def test_decohered_fidelity_limits(self):
        assert decohered_fidelity(0.95, 1e6, coherence_time=1.0) == pytest.approx(0.25, abs=1e-6)

    def test_decohered_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decohered_fidelity(0.95, -1.0, 10.0)
        with pytest.raises(ValueError):
            decohered_fidelity(0.95, 1.0, 0.0)


class TestTeleportationFidelity:
    def test_perfect_pair(self):
        assert teleportation_fidelity(1.0) == pytest.approx(1.0)

    def test_useless_pair(self):
        assert teleportation_fidelity(0.25) == pytest.approx(0.5)

    def test_monotone(self):
        assert teleportation_fidelity(0.9) > teleportation_fidelity(0.7)

    def test_circuit_perfect_resource_is_exact(self, rng):
        for payload in ([1, 0], [0, 1], np.array([1, 1j]) / np.sqrt(2)):
            assert teleportation_circuit_fidelity(payload, 1.0, rng=rng) == pytest.approx(1.0)

    def test_circuit_matches_average_formula(self):
        rng = np.random.default_rng(3)
        payload = np.array([1.0, 1.0]) / np.sqrt(2)
        values = [teleportation_circuit_fidelity(payload, 0.85, rng=rng) for _ in range(120)]
        assert float(np.mean(values)) == pytest.approx(teleportation_fidelity(0.85), abs=0.03)


class TestRequiredLinkFidelity:
    def test_meets_target(self):
        link = required_link_fidelity(0.9, hops=4)
        assert fidelity_after_hops(link, 4) >= 0.9 - 1e-6

    def test_tight(self):
        link = required_link_fidelity(0.9, hops=4)
        assert fidelity_after_hops(link - 0.01, 4) < 0.9

    def test_single_hop(self):
        assert required_link_fidelity(0.9, hops=1) == pytest.approx(0.9, abs=1e-6)

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            required_link_fidelity(0.9, hops=0)

    def test_werner_from_fidelity_shape(self):
        matrix = werner_from_fidelity(0.75)
        assert matrix.shape == (4, 4)
        assert np.trace(matrix).real == pytest.approx(1.0)
