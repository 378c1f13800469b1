import math

import numpy as np
import pytest

from conftest import random_qubit_mode_state
from qndsim.errors import ConfigError, ZeroProbabilityError
from qndsim.fock import (
    FockSpace,
    JointState,
    _reflection_kraus,
    coherent_state,
    fock_state,
    moments,
    partial_trace,
)
from qndsim.node import (
    CqedParams,
    NodeImperfections,
    ReflectionPair,
    branch_distinguishability,
    dephase,
    dephase_visibility,
    detect_state,
    loss_amplitude,
    prepare,
    reflect,
    reflection_coefficients,
    reflection_pair,
    rotate,
    rotation_matrix,
    _branch_reflection_kraus,
    _distinguishability_kraus,
)

NODE1 = CqedParams(g=7.6, kappa=2.5, gamma=3.0)
NODE2 = CqedParams(g=7.6, kappa=2.8, gamma=3.0)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
UP_X = (UP + DOWN) / math.sqrt(2)
DOWN_X = (UP - DOWN) / math.sqrt(2)
UP_Y = (UP + 1j * DOWN) / math.sqrt(2)


def pure(vec):
    return np.outer(vec, vec.conj())


class TestReflectionCoefficients:
    def test_empty_one_sided_resonant(self):
        r = reflection_coefficients(NODE1, coupled=False)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form_node1(self):
        r = reflection_coefficients(NODE1, coupled=True)
        c = NODE1.g**2 / (2 * NODE1.kappa * NODE1.gamma)  # cooperativity
        assert r == pytest.approx((2 * c - 1) / (2 * c + 1), abs=1e-12)
        assert r.real == pytest.approx(0.7701, abs=1e-4)
        assert abs(r) ** 2 == pytest.approx(0.5931, abs=1e-4)
        assert abs(r) ** 2 == pytest.approx(0.60, abs=0.01)

    def test_closed_form_node2(self):
        r = reflection_coefficients(NODE2, coupled=True)
        assert abs(r) ** 2 == pytest.approx(0.5566, abs=1e-4)
        assert abs(r) ** 2 == pytest.approx(0.55, abs=0.01)

    def test_magnitude_bounded_over_detuning_grid(self):
        for dc in np.linspace(-20, 20, 9):
            for da in np.linspace(-20, 20, 9):
                params = CqedParams(g=7.6, kappa=2.5, gamma=3.0, delta_c=dc, delta_a=da)
                for coupled in (True, False):
                    assert abs(reflection_coefficients(params, coupled)) <= 1 + 1e-12

    def test_loss_amplitude_completes_the_reflection(self):
        for kappa_r in (2.5, 2.2, 0.4):
            for dc in np.linspace(-20, 20, 9):
                for da in np.linspace(-20, 20, 9):
                    params = CqedParams(g=7.6, kappa=2.5, gamma=3.0, kappa_r=kappa_r, delta_c=dc, delta_a=da)
                    for coupled in (True, False):
                        s = loss_amplitude(params, coupled)
                        r = reflection_coefficients(params, coupled)
                        assert abs(r) ** 2 + s**2 == pytest.approx(1.0, abs=1e-15)

    def test_loss_amplitude_from_reflection_above_one_half(self):
        # Where both forms agree within an ulp, s keeps the one from |r|, which
        # the Monte Carlo fate draws of the default nodes were made with.
        for params in (NODE1, NODE2):
            s = math.sqrt(1.0 - abs(reflection_coefficients(params, coupled=True)) ** 2)
            assert s > 0.5
            assert loss_amplitude(params, coupled=True) == s

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            CqedParams(g=-1.0, kappa=2.5, gamma=3.0)
        with pytest.raises(ConfigError):
            CqedParams(g=7.6, kappa=2.5, gamma=3.0, kappa_r=3.0)


class TestReflect:
    def test_ideal_pair_is_cz(self):
        st = JointState.from_parts([("q", pure(UP_X)), ("m", fock_state(1, FockSpace(3)))])
        out = reflect(st, "q", "m", ReflectionPair(1.0, -1.0))
        atom = partial_trace(out, ["q"]).matrix
        assert np.max(np.abs(atom - pure(DOWN_X))) < 1e-12
        assert moments(out, "m")[0] == pytest.approx(1.0, abs=1e-12)

    def test_ideal_pair_vacuum_leaves_atom(self):
        st = JointState.from_parts([("q", pure(UP_X)), ("m", fock_state(0, FockSpace(2)))])
        out = reflect(st, "q", "m", ReflectionPair(1.0, -1.0))
        atom = partial_trace(out, ["q"]).matrix
        assert np.max(np.abs(atom - pure(UP_X))) < 1e-12

    def test_node1_pair_on_coherent(self):
        mu = 0.1
        pair = reflection_pair(NODE1)
        st = JointState.from_parts(
            [("q", pure(UP_X)), ("m", coherent_state(mu, FockSpace.for_mean_photon(mu)))]
        )
        out = reflect(st, "q", "m", pair)
        atom = partial_trace(out, ["q"]).matrix
        assert np.trace(atom @ atom).real < 1.0  # the atom is no longer pure
        expected_mean = mu * (abs(pair.r_coupled) ** 2 + abs(pair.r_uncoupled) ** 2) / 2
        assert moments(out, "m")[0] == pytest.approx(expected_mean, abs=1e-9)

    def test_trace_preserving(self):
        rng = np.random.default_rng(21)
        pair = reflection_pair(NODE2)
        for _ in range(5):
            st = random_qubit_mode_state(rng, 5)
            out = reflect(st, "q", "m", pair)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestStackedKrausFamilies:
    """The cached families against the per-operator kron construction they replace."""

    P_UP = np.diag([1.0, 0.0]).astype(complex)
    P_DN = np.diag([0.0, 1.0]).astype(complex)

    def _kron_reflection(self, dim, pair):
        b_c = _reflection_kraus(dim, complex(pair.r_coupled), pair.s[0])
        b_u = _reflection_kraus(dim, complex(pair.r_uncoupled), pair.s[1])
        ops = [np.kron(self.P_UP, kc) + np.kron(self.P_DN, ku) for kc, ku in zip(b_c, b_u)]
        return [k for k in ops if np.any(k)]

    def _kron_distinguishability(self, dim, contrast):
        n = np.arange(dim)
        ops = []
        for j in range(dim):
            diag = np.zeros(dim)
            nn = n[n >= j]
            diag[n >= j] = (
                np.sqrt([math.comb(int(m), j) for m in nn])
                * contrast ** (nn - j)
                * (1.0 - contrast**2) ** (j / 2.0)
            )
            k = np.kron(self.P_UP, np.diag(diag).astype(complex))
            if j == 0:
                k = k + np.kron(self.P_DN, np.eye(dim, dtype=complex))
            if np.any(k):
                ops.append(k)
        return ops

    def test_reflection_family_equals_kron_construction(self):
        pairs = [reflection_pair(NODE1), reflection_pair(NODE2), ReflectionPair(1.0, -1.0)]
        pairs.append(ReflectionPair(1.0, complex(np.exp(0.5j * math.pi))))
        for dim in (2, 5, 19):
            for pair in pairs:
                got = _branch_reflection_kraus(dim, pair)
                assert np.array_equal(got, np.array(self._kron_reflection(dim, pair)))
                assert not got.flags.writeable

    def test_distinguishability_family_equals_kron_construction(self):
        for dim in (2, 5, 19):
            for contrast in (0.0, 0.63, 0.87):
                got = _distinguishability_kraus(dim, contrast)
                assert np.array_equal(got, np.array(self._kron_distinguishability(dim, contrast)))
                assert not got.flags.writeable


class TestBranchDistinguishability:
    def test_full_contrast_identity(self):
        rng = np.random.default_rng(31)
        st = random_qubit_mode_state(rng, 4)
        out = branch_distinguishability(st, "q", "m", 1.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-14)

    def test_scales_cross_coherence_by_contrast_power(self):
        st = JointState.from_parts([("q", pure(UP_X)), ("m", fock_state(2, FockSpace(3)))])
        c = 0.8
        out = branch_distinguishability(st, "q", "m", c)
        dim = 4
        idx_up = 2  # (up, n=2)
        idx_dn = dim + 2
        assert out.matrix[idx_up, idx_dn] == pytest.approx(0.5 * c**2, abs=1e-12)
        assert np.allclose(np.diag(out.matrix), np.diag(st.matrix), atol=1e-14)

    def test_populations_and_trace_preserved(self):
        rng = np.random.default_rng(32)
        st = random_qubit_mode_state(rng, 5)
        out = branch_distinguishability(st, "q", "m", 0.63)
        assert np.allclose(np.diag(out.matrix), np.diag(st.matrix), atol=1e-13)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestRotate:
    def test_matrices_match_stated_forms(self):
        ry = rotation_matrix(math.pi / 2, math.pi / 2)
        expected_y = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
        assert np.max(np.abs(ry - expected_y)) < 1e-12
        rx = rotation_matrix(0.0, math.pi / 2)
        expected_x = np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)
        assert np.max(np.abs(rx - expected_x)) < 1e-12

    def test_ry_maps_up_x_to_down_z(self):
        st = JointState.from_parts([("q", pure(UP_X)), ("m", fock_state(0, FockSpace(1)))])
        out = rotate(st, "q", "y", math.pi / 2)
        atom = partial_trace(out, ["q"]).matrix
        assert np.max(np.abs(atom - pure(DOWN))) < 1e-12

    def test_rx_maps_up_y_to_up_z(self):
        st = JointState.from_parts([("q", pure(UP_Y)), ("m", fock_state(0, FockSpace(1)))])
        out = rotate(st, "q", "x", math.pi / 2)
        atom = partial_trace(out, ["q"]).matrix
        assert np.max(np.abs(atom - pure(UP))) < 1e-12

    def test_two_over_rotated_pulses_leave_residual(self):
        # sin^2(delta) population left in up after a pi + 2 delta total rotation
        delta = math.asin(math.sqrt(0.014))
        st = JointState.from_parts([("q", pure(UP)), ("m", fock_state(0, FockSpace(1)))])
        out = rotate(rotate(st, "q", "y", math.pi / 2, delta), "q", "y", math.pi / 2, delta)
        atom = partial_trace(out, ["q"]).matrix
        assert atom[0, 0].real == pytest.approx(0.014, abs=1e-9)

    def test_unitarity_preserves_purity(self):
        rng = np.random.default_rng(41)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        st = JointState.from_parts([("q", pure(vec)), ("m", fock_state(0, FockSpace(1)))])
        out = rotate(st, "q", "y", 1.2345, 0.321)
        assert np.trace(out.matrix @ out.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestDephase:
    def _up_x(self):
        return JointState.from_parts([("q", pure(UP_X)), ("m", fock_state(0, FockSpace(1)))])

    def test_zero_window_identity(self):
        st = self._up_x()
        out = dephase(st, "q", 0.0, 420.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-15)

    def test_one_coherence_time(self):
        st = self._up_x()
        out = dephase(st, "q", 420.0, 420.0)
        atom = partial_trace(out, ["q"]).matrix
        assert atom[0, 1].real == pytest.approx(0.5 * math.exp(-1), abs=1e-12)

    def test_sigma_x_expectation_at_half_visibility(self):
        st = self._up_x()
        out = dephase_visibility(st, "q", 0.5)
        atom = partial_trace(out, ["q"]).matrix
        sx = np.array([[0, 1], [1, 0]])
        assert np.trace(atom @ sx).real == pytest.approx(0.5, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(51)
        st = random_qubit_mode_state(rng, 3)
        t1, t2 = 7.0, 11.0
        chained = dephase(dephase(st, "q", t1, 420.0), "q", t2, 420.0)
        direct = dephase(st, "q", t1 + t2, 420.0)
        assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-12


class TestPrepare:
    def test_values(self):
        assert np.allclose(prepare(1.0), pure(UP))
        assert prepare(0.99)[0, 0].real == pytest.approx(0.99)
        assert np.allclose(prepare(0.5), np.eye(2) / 2)


class TestDetectState:
    def _state(self, qubit_matrix):
        return JointState.from_parts([("q", qubit_matrix), ("m", fock_state(1, FockSpace(2)))])

    def test_perfect_readout_on_up(self):
        read = detect_state(self._state(pure(UP)), "q", 1.0)
        assert read.p_up == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ZeroProbabilityError):
            read.conditional(False)

    def test_readout_fidelity(self):
        read = detect_state(self._state(pure(UP)), "q", 0.99)
        assert read.p_up == pytest.approx(0.99, abs=1e-12)
        assert read.p_down == pytest.approx(0.01, abs=1e-12)

    def test_superposition_leaves_product_photon(self):
        read = detect_state(self._state(pure(UP_X)), "q", 1.0)
        assert read.p_up == pytest.approx(0.5, abs=1e-12)
        photon = read.conditional(True).mode_state("m")
        assert photon.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)


class TestImperfections:
    def test_over_rotation_reduces_to_asin_sqrt_dc(self):
        imp = NodeImperfections(dark_count=0.014, t_coherence=math.inf, protocol_window=3.0)
        assert imp.over_rotation() == pytest.approx(math.asin(math.sqrt(0.014)), abs=1e-12)

    def test_infeasible_dark_count_rejected(self):
        # dephasing floor (1 - V)/2 exceeds the requested dark count
        with pytest.raises(ConfigError, match="floor"):
            NodeImperfections(dark_count=0.004, t_coherence=470.0, protocol_window=20.0)

    def test_calibration_hits_pipeline_dark_count(self):
        imp = NodeImperfections(dark_count=0.014, t_coherence=420.0, protocol_window=3.0)
        delta = imp.over_rotation()
        v = imp.visibility()
        st = JointState.from_parts([("q", pure(UP)), ("m", fock_state(0, FockSpace(1)))])
        st = rotate(st, "q", "y", math.pi / 2, delta)
        st = dephase_visibility(st, "q", v)
        st = rotate(st, "q", "y", math.pi / 2, delta)
        read = detect_state(st, "q", 1.0)
        assert read.p_up == pytest.approx(0.014, abs=1e-12)
