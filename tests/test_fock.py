import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    parity_probabilities,
    random_density_matrix,
    random_mode_state,
    random_qubit_mode_state,
    thermal_state,
)
from qndsim.errors import ConfigError, SubsystemError, TruncationError
from qndsim.fock import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    N_MAX_CAP,
    TRACE_TOL,
    TRUNCATION_TAIL_TOL,
    FockSpace,
    JointState,
    ModeState,
    beam_splitter,
    coherent_state,
    fock_state,
    loss_channel,
    moments,
    partial_trace,
    pulse_amplitudes,
    _annihilation,
    _apply_channel,
    _POSITIVITY_DIM_LIMIT,
    _beam_splitter_unitary,
    _check_blocks,
    _check_density,
    _poisson_sf,
    _reflection_kraus,
)
from qndsim.node import ReflectionPair, reflect


PLUS_X = np.full((2, 2), 0.5, dtype=complex)


def padded_space(mu: float, extra: int = 4) -> FockSpace:
    """Cutoff with headroom so factorial-moment truncation error is << 1e-9."""
    return FockSpace(FockSpace.for_mean_photon(mu).n_max + extra)


class TestFockSpace:
    def test_rejects_zero_cutoff(self):
        with pytest.raises(TruncationError):
            FockSpace(0)

    def test_adaptive_cutoff_tail(self):
        for mu in (0.084, 0.45, 3.11):
            space = FockSpace.for_mean_photon(mu)
            assert space.tail_probability(mu) < 1e-9
            if space.n_max > 1:
                assert FockSpace(space.n_max - 1).tail_probability(mu) >= 1e-9

    def test_cutoff_cap(self):
        with pytest.raises(TruncationError):
            FockSpace.for_mean_photon(50.0)


class TestCoherentState:
    def test_vacuum(self):
        space = FockSpace(4)
        st = coherent_state(0.0, space)
        assert st.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_poisson_weight(self):
        # analytic Poisson ground-state weight exp(-mu)
        mu = 0.084
        st = coherent_state(mu, FockSpace.for_mean_photon(mu))
        assert st.matrix[0, 0].real == pytest.approx(math.exp(-mu), abs=1e-6)
        assert st.matrix[0, 0].real == pytest.approx(0.91943, abs=1e-5)

    def test_mean_photon(self):
        mu = 0.45
        st = coherent_state(mu, FockSpace.for_mean_photon(mu))
        assert np.arange(st.space.dim) @ st.number_distribution() == pytest.approx(mu, abs=1e-9)

    def test_truncation_error_names_cutoff(self):
        with pytest.raises(TruncationError, match="requires n_max"):
            coherent_state(2.0, FockSpace(4))


class TestPulseAmplitudes:
    """The one definition of an input pulse, which the runtime reads as amp * amp."""

    @pytest.mark.parametrize("mu", [0.0, 0.084, 0.45, 3.11])
    def test_coherent_numbers_are_the_dense_diagonal(self, mu):
        space = FockSpace.for_mean_photon(mu)
        amp = pulse_amplitudes("coherent", space, mu, 0)
        assert np.array_equal(amp * amp, coherent_state(mu, space).number_distribution())
        assert (amp * amp).sum() == pytest.approx(1.0, abs=1e-15)

    def test_fock_is_one_hot(self):
        space = FockSpace(4)
        for n in range(space.dim):
            amp = pulse_amplitudes("fock", space, 0.0, n)
            assert np.array_equal(amp, np.eye(space.dim)[n])
            assert np.array_equal(amp * amp, fock_state(n, space).number_distribution())

    def test_hard_truncation_renormalizes(self):
        space = FockSpace(2)
        with pytest.raises(TruncationError):
            pulse_amplitudes("coherent", space, 0.5, 0)
        numbers = pulse_amplitudes("coherent", space, 0.5, 0, check_truncation=False) ** 2
        poisson = np.array([0.5**n / math.factorial(n) for n in range(3)])
        np.testing.assert_allclose(numbers, poisson / poisson.sum(), rtol=1e-15, atol=0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(TruncationError, match="outside"):
            pulse_amplitudes("fock", FockSpace(2), 0.0, 3)
        with pytest.raises(ValueError, match=">= 0"):
            pulse_amplitudes("coherent", FockSpace(2), -0.1, 0)


class TestParity:
    def test_vacuum(self):
        even, odd = parity_probabilities(fock_state(0, FockSpace(3)))
        assert even == pytest.approx(1.0, abs=1e-15)
        assert odd == pytest.approx(0.0, abs=1e-15)

    def test_coherent_closed_form(self):
        mu = 0.084
        even, odd = parity_probabilities(coherent_state(mu, padded_space(mu)))
        assert odd == pytest.approx((1 - math.exp(-2 * mu)) / 2, abs=1e-6)
        assert odd == pytest.approx(0.0773, abs=5e-5)
        assert even + odd == pytest.approx(1.0, abs=1e-12)

    def test_fock3(self):
        even, odd = parity_probabilities(fock_state(3, FockSpace(4)))
        assert (even, odd) == (0.0, 1.0)


class TestBeamSplitter:
    def test_identity_at_full_transmission(self):
        space = FockSpace(5)
        st = coherent_state(0.3, space, check_truncation=False).to_joint("a")
        st = st.with_vacuum_ancilla(space, "b")
        out = beam_splitter(st, "a", "b", 1.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-12)

    def test_coherent_covariance(self):
        # coherent in, coherent out on both ports, checked through moments
        mu, t = 0.45, 0.65
        space = padded_space(mu)
        st = coherent_state(mu, space).to_joint("a").with_vacuum_ancilla(space, "b")
        out = beam_splitter(st, "a", "b", t, phase=0.4)
        na, na2 = moments(out, "a")
        nb, nb2 = moments(out, "b")
        assert na == pytest.approx(t * mu, abs=1e-9)
        assert nb == pytest.approx((1 - t) * mu, abs=1e-9)
        # Poissonian factorial moments of each output port
        assert na2 == pytest.approx((t * mu) ** 2, abs=1e-9)
        assert nb2 == pytest.approx(((1 - t) * mu) ** 2, abs=1e-9)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_half(self):
        space = FockSpace(2)
        st = fock_state(1, space).to_joint("a").with_vacuum_ancilla(space, "b")
        out = beam_splitter(st, "a", "b", 0.5)
        assert moments(out, "a")[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_transmission_swaps_marginals(self):
        rng = np.random.default_rng(11)
        st = random_mode_state(rng, 4).to_joint("a").with_vacuum_ancilla(FockSpace(4), "b")
        out = beam_splitter(st, "a", "b", 0.0)
        in_marginal = st.mode_state("a").number_distribution()
        swapped = out.mode_state("b").number_distribution()
        assert np.allclose(in_marginal, swapped, atol=1e-12)

    def test_rejects_bad_transmission(self):
        space = FockSpace(2)
        st = fock_state(0, space).to_joint("a").with_vacuum_ancilla(space, "b")
        with pytest.raises(ValueError):
            beam_splitter(st, "a", "b", 1.5)
        with pytest.raises(SubsystemError):
            beam_splitter(st, "a", "nope", 0.5)


class TestLossChannel:
    def test_identity(self):
        rng = np.random.default_rng(5)
        st = random_qubit_mode_state(rng, 4)
        out = loss_channel(st, "m", 1.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-14)

    def test_matches_explicit_beam_splitter_construction(self):
        # independent oracle: physical dilation (vacuum ancilla + mixing + trace)
        rng = np.random.default_rng(7)
        st = random_mode_state(rng, 6).to_joint("m")
        t = 0.37
        via_kraus = loss_channel(st, "m", t)
        dilated = beam_splitter(st.with_vacuum_ancilla(FockSpace(6), "env"), "m", "env", t)
        via_bs = partial_trace(dilated, ["m"])
        assert np.max(np.abs(via_kraus.matrix - via_bs.matrix)) < 1e-12

    def test_composition_law(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            st = random_qubit_mode_state(rng, 5)
            t1, t2 = rng.uniform(0.2, 1.0, size=2)
            chained = loss_channel(loss_channel(st, "m", t1), "m", t2)
            direct = loss_channel(st, "m", t1 * t2)
            assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-10

    def test_coherent_through_fiber_loss(self):
        mu, t = 0.45, 0.53
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        out = loss_channel(st, "m", t)
        assert moments(out, "m")[0] == pytest.approx(t * mu, abs=1e-9)

    def test_coherent_stays_coherent(self):
        # normally ordered moments <a+^p a^q> of the output match coherent(t*mu)
        mu, t = 0.6, 0.53
        space = padded_space(mu)
        out = loss_channel(coherent_state(mu, space).to_joint("m"), "m", t)
        rho = out.mode_state("m").matrix
        a = np.diag(np.sqrt(np.arange(1, space.dim)), k=1)
        beta = math.sqrt(t * mu)
        for p in range(4):
            for q in range(4):
                moment = np.trace(rho @ np.linalg.matrix_power(a.T, p) @ np.linalg.matrix_power(a, q))
                assert moment == pytest.approx(beta ** (p + q), abs=1e-9), (p, q)


class TestConditionalPhase:
    """The sorter's gate: a reflection with unit moduli and phase theta on the down branch."""

    def _atom_photon(self, n, n_max=3):
        return JointState.from_parts([("q", PLUS_X), ("m", fock_state(n, FockSpace(n_max)))])

    def _gate(self, state, theta):
        return reflect(state, "q", "m", ReflectionPair(1.0, complex(np.exp(1j * theta))))

    def test_zero_angle_identity(self):
        st = self._atom_photon(1)
        out = self._gate(st, 0.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-15)

    def test_pi_flips_superposition(self):
        st = self._atom_photon(1)
        out = self._gate(st, math.pi)
        atom = partial_trace(out, ["q"]).matrix
        minus_x = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.max(np.abs(atom - minus_x)) < 1e-12

    def test_half_pi_on_two_photons(self):
        st = self._atom_photon(2)
        out = self._gate(st, math.pi / 2)
        # down-branch amplitude acquires exp(i pi) = -1 relative to up
        idx_up = 2  # (up, n=2) in row-major (qubit, mode) indexing
        idx_dn = 4 + 2
        ratio = out.matrix[idx_dn, idx_up] / st.matrix[idx_dn, idx_up]
        assert abs(ratio - (-1.0)) < 1e-12

    def test_invalid_labels(self):
        st = self._atom_photon(1)
        with pytest.raises(ConfigError):
            reflect(st, "m", "q", ReflectionPair(1.0, -1.0))


class TestMoments:
    def test_vacuum(self):
        st = fock_state(0, FockSpace(3)).to_joint("m")
        assert moments(st, "m") == (0.0, 0.0)

    def test_fock2(self):
        st = fock_state(2, FockSpace(4)).to_joint("m")
        assert moments(st, "m") == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_coherent(self):
        mu = 0.45
        st = coherent_state(mu, padded_space(mu)).to_joint("m")
        n1, n2 = moments(st, "m")
        assert n1 == pytest.approx(mu, abs=1e-9)
        assert n2 == pytest.approx(mu**2, abs=1e-9)


class TestPartialTrace:
    def test_keep_everything(self):
        rng = np.random.default_rng(3)
        st = random_qubit_mode_state(rng, 3)
        out = partial_trace(st, ["q", "m"])
        assert np.allclose(out.matrix, st.matrix, atol=1e-15)

    def test_product_state_factor(self):
        qubit = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
        mode = coherent_state(0.2, FockSpace.for_mean_photon(0.2))
        st = JointState.from_parts([("q", qubit), ("m", mode)])
        assert np.max(np.abs(partial_trace(st, ["q"]).matrix - qubit)) < 1e-12
        assert np.max(np.abs(partial_trace(st, ["m"]).matrix - mode.matrix)) < 1e-12

    def test_bell_like_reduction(self):
        # (|up,0> + |down,1>)/sqrt(2) -> maximally mixed qubit
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        st = JointState(("q", "m"), ("q", "m"), (None, FockSpace(1)), np.outer(v, v.conj()))
        atom = partial_trace(st, ["q"]).matrix
        assert np.max(np.abs(atom - np.eye(2) / 2)) < 1e-12

    def test_empty_keep_rejected(self):
        rng = np.random.default_rng(4)
        st = random_qubit_mode_state(rng, 2)
        with pytest.raises(SubsystemError):
            partial_trace(st, [])


class TestStateValidation:
    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            ModeState(FockSpace(1), mat)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            ModeState(FockSpace(1), np.diag([0.6, 0.6]).astype(complex))

    def test_negative_state_rejected(self):
        mat = np.array([[1.2, 0], [0, -0.2]], dtype=complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            ModeState(FockSpace(1), mat)

    @pytest.mark.parametrize(
        "mat",
        [
            np.full((2, 2), np.nan),
            np.diag([np.nan, 1.0]),
            np.array([[1.0, np.nan], [np.nan, 0.0]]),
            np.array([[1.0, 0.0], [np.nan, 0.0]]),
            np.array([[1.0, 0.0], [0.0, np.inf]]),
            np.array([[1.0, np.inf], [0.0, 0.0]]),
        ],
        ids=["all-nan", "nan-diagonal", "nan-off-diagonal", "nan-one-side", "inf-diagonal", "inf-off-diagonal"],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rejected(self, mat):
        with pytest.raises(ValueError, match="non-finite entry"):
            ModeState(FockSpace(1), mat.astype(complex))


class TestBlockValidation:
    """_check_blocks on a (dim, 4, 4) stack of number-diagonal qubit blocks."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(64)
        weights = np.array([0.5, 0.3, 0.2])
        return np.stack([w * random_density_matrix(rng, 4) for w in weights])

    def test_valid_stack_accepted(self):
        _check_blocks(self._blocks(), "stack")

    def test_non_hermitian_block_rejected(self):
        blocks = self._blocks()
        blocks[1, 0, 2] += 2e-12
        with pytest.raises(ValueError, match="Hermitian"):
            _check_blocks(blocks, "stack")

    @pytest.mark.parametrize("drift", [-1.6e-12, 1.6e-12])
    def test_trace_drift_rejected(self, drift):
        blocks = self._blocks()
        blocks[2, 3, 3] += drift
        with pytest.raises(ValueError, match="trace"):
            _check_blocks(blocks, "stack")
        blocks[2, 3, 3] -= drift / 2  # half the drift, within the tolerance, passes
        _check_blocks(blocks, "stack")

    def test_eigenvalue_below_floor_rejected(self):
        blocks = np.zeros((2, 4, 4), dtype=complex)
        blocks[0] = np.diag([0.6, 0.0, 0.0, 0.0])
        blocks[1] = np.diag([0.4 + 2e-10, 0.0, -2e-10, 0.0])
        with pytest.raises(ValueError, match="eigenvalue"):
            _check_blocks(blocks, "stack")
        blocks[1] = np.diag([0.4 + 0.5e-10, 0.0, -0.5e-10, 0.0])  # above the floor
        _check_blocks(blocks, "stack")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        blocks = self._blocks()
        blocks[1, 2, 1] = value
        with pytest.raises(ValueError, match=r"non-finite entry .* in block 1 at \(2, 1\)"):
            _check_blocks(blocks, "stack")

    @pytest.mark.parametrize("lowest", [-1.01e-10, -1e-10, -0.99e-10, 0.0])
    def test_one_by_one_blocks_decide_as_eigvalsh(self, lowest):
        # The last readout leaves 1 x 1 blocks, whose eigenvalue the check reads without eigvalsh.
        blocks = np.array([1.0 - lowest, lowest], dtype=complex).reshape(2, 1, 1)
        expected = float(np.linalg.eigvalsh(blocks).min())
        if expected < EIGENVALUE_FLOOR:
            with pytest.raises(ValueError, match=f"negative eigenvalue {expected:.3e} below floor"):
                _check_blocks(blocks, "stack")
        else:
            _check_blocks(blocks, "stack")


def _reference_check_density(matrix: np.ndarray, what: str) -> None:
    """The dense check the support-and-Cholesky one replaced, kept to compare decisions."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what}: density matrix must be square, got {matrix.shape}")
    herm = np.max(np.abs(matrix - matrix.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{what}: not Hermitian (max deviation {herm:.3e})")
    tr = np.trace(matrix).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{what}: trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    if matrix.shape[0] <= _POSITIVITY_DIM_LIMIT:
        lo = float(np.linalg.eigvalsh(matrix)[0])
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"{what}: negative eigenvalue {lo:.3e} below floor")


def _decision(check, matrix: np.ndarray) -> str | None:
    """None when the check accepts, else its message."""
    try:
        check(matrix, "state")
    except ValueError as exc:
        return str(exc)
    return None


# Lowest eigenvalues on both sides of the floor, on it (where rounding decides),
# and on both sides of the half floor the factorization is shifted by.
_LOWEST_EIGENVALUES = (-1e-9, -1.01e-10, -1.0000001e-10, -1e-10, -0.99e-10, -0.5e-10, -1e-14, 0.0)


@st.composite
def density_candidates(draw):
    """Trace-one Hermitian matrices with a set lowest eigenvalue, perturbed and padded.

    The padding inserts zero rows and columns at random indices, sometimes
    enough to pass the positivity limit.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(g)[0]
    lowest = draw(st.sampled_from(_LOWEST_EIGENVALUES))
    lam = rng.uniform(0.1, 1.0, dim)
    lam[0] = 0.0
    lam *= (1.0 - lowest) / lam.sum()
    lam[0] = lowest
    rho = (u * lam) @ u.conj().T
    pad = draw(st.sampled_from((0, 0, 1, 3, 10, _POSITIVITY_DIM_LIMIT - 4)))
    total = dim + pad
    idx = np.sort(rng.choice(total, dim, replace=False))
    mat = np.zeros((total, total), dtype=complex)
    mat[np.ix_(idx, idx)] = rho
    i, j = (int(x) for x in rng.choice(idx, 2, replace=False))
    kind = draw(st.sampled_from(("none", "none", "hermiticity", "trace", "zero line")))
    if kind == "hermiticity":
        mat[i, j] += draw(st.sampled_from((0.5e-12, 2e-12)))
    elif kind == "trace":
        mat[i, i] += draw(st.sampled_from((-2e-12, 2e-12)))
    elif kind == "zero line" and pad:
        # a nonzero column under a zero row, or the transpose: only one of the
        # two puts the index in the support
        zero = int(np.setdiff1d(np.arange(total), idx)[0])
        mat[(i, zero) if draw(st.booleans()) else (zero, i)] = 1e-3
    return mat


class TestDensityCheckDecisions:
    """The support-and-Cholesky check accepts and rejects exactly as the dense eigvalsh check."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mat=density_candidates())
    def test_same_decision_as_reference(self, mat):
        assert _decision(_check_density, mat) == _decision(_reference_check_density, mat)

    @pytest.mark.parametrize(
        "entries, dim, expected",
        [
            pytest.param({(0, 0): 1.0, (0, 2): 1e-3}, 3, "not Hermitian", id="zero row, nonzero column"),
            pytest.param(
                {(3, 3): 1.2, (70, 70): -0.2}, _POSITIVITY_DIM_LIMIT + 2, None, id="negative above the limit"
            ),
            pytest.param(
                {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 1e308, (1, 0): -1e308},
                2,
                "not Hermitian (max deviation inf)",
                id="finite entries, overflowing deviation",
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_edge_cases(self, entries, dim, expected):
        mat = np.zeros((dim, dim), dtype=complex)
        for index, value in entries.items():
            mat[index] = value
        got = _decision(_check_density, mat)
        assert got == _decision(_reference_check_density, mat)
        assert got is None if expected is None else expected in got


def test_thermal_state_mean():
    st = thermal_state(0.2, FockSpace(14))
    n = np.arange(15)
    assert float(np.sum(n * st.number_distribution())) == pytest.approx(0.2, abs=1e-6)


def test_phase_shift_preserves_populations():
    # a per-photon phase on both branches: a reflection of unit modulus
    rng = np.random.default_rng(8)
    st = random_qubit_mode_state(rng, 4)
    phase = complex(np.exp(1.234j))
    out = reflect(st, "q", "m", ReflectionPair(phase, phase))
    assert np.allclose(np.diag(out.matrix), np.diag(st.matrix), atol=1e-14)


def _apply_channel_per_kraus(matrix, dims, kraus_ops, targets):
    """Reference: one pair of tensordots per Kraus operator, summed."""
    k = len(dims)
    others = [i for i in range(k) if i not in targets]
    perm = list(targets) + others
    dt = int(np.prod([dims[i] for i in targets]))
    dr = int(np.prod([dims[i] for i in others])) if others else 1
    t = matrix.reshape(tuple(dims) * 2)
    t = np.transpose(t, axes=[*perm, *[k + p for p in perm]])
    t = np.ascontiguousarray(t).reshape(dt, dr, dt, dr)
    out = np.zeros_like(t)
    for kop in kraus_ops:
        m = np.tensordot(kop, t, axes=(1, 0))
        m = np.tensordot(m, kop.conj(), axes=([2], [1]))
        out += np.transpose(m, (0, 1, 3, 2))
    out = out.reshape([dims[i] for i in perm] * 2)
    inv = list(np.argsort(perm))
    out = np.transpose(out, axes=[*inv, *[k + int(p) for p in inv]])
    return np.ascontiguousarray(out).reshape(matrix.shape)


class TestNumpyKernelsAgainstReferences:
    """The numpy kernels against scipy and the per-Kraus loop they replace."""

    def test_poisson_sf_matches_scipy(self):
        from scipy.stats import poisson

        for mu in np.concatenate([np.geomspace(1e-3, 800.0, 60), [3.11, 40.0, 799.9]]):
            for n in range(1, 25):
                ref = float(poisson.sf(n, mu))
                assert _poisson_sf(n, float(mu)) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_required_cutoff_matches_scipy(self):
        from scipy.stats import poisson

        cutoffs = np.arange(1, N_MAX_CAP + 1)

        def scipy_cutoff(mu):
            below = np.flatnonzero(poisson.sf(cutoffs, mu) < TRUNCATION_TAIL_TOL)
            return int(cutoffs[below[0]]) if below.size else None

        for mu in np.linspace(1e-4, 6.0, 3001):
            expected = scipy_cutoff(mu)
            if expected is None:
                with pytest.raises(TruncationError):
                    FockSpace.required_cutoff(float(mu))
            else:
                assert FockSpace.required_cutoff(float(mu)) == expected, mu

    @pytest.mark.parametrize(
        "dim_a, dim_b, transmissivity, phase",
        [(3, 5, 0.3, 0.7), (6, 4, 0.5, -1.2), (19, 19, 0.5, 0.0), (2, 7, 0.9, math.pi / 3)],
    )
    def test_beam_splitter_unitary_matches_expm(self, dim_a, dim_b, transmissivity, phase):
        from scipy.linalg import expm

        theta = math.acos(math.sqrt(transmissivity))
        a = np.kron(_annihilation(dim_a), np.eye(dim_b))
        b = np.kron(np.eye(dim_a), _annihilation(dim_b))
        gen = theta * (np.exp(1j * phase) * a.conj().T @ b - np.exp(-1j * phase) * a @ b.conj().T)
        u = _beam_splitter_unitary(dim_a, dim_b, transmissivity, phase)
        assert np.max(np.abs(u - expm(gen))) < 1e-12

    def test_stacked_kraus_matches_per_kraus_loop(self):
        rng = np.random.default_rng(2024)
        for case in range(40):
            dims = tuple(int(d) for d in rng.integers(2, 6, size=rng.integers(1, 5)))
            rho = random_density_matrix(rng, int(np.prod(dims)))
            n_targets = int(rng.integers(1, len(dims) + 1))
            order = [int(i) for i in rng.permutation(len(dims))]
            if case % 2:
                # a vacuum ancilla among the targets leaves exactly-zero rows
                # and columns on the contracted index
                dims += (3,)
                rho = np.kron(rho, np.diag([1.0, 0.0, 0.0]).astype(complex))
                order.insert(int(rng.integers(n_targets)), len(dims) - 1)
            targets = order[:n_targets]
            dt = int(np.prod([dims[i] for i in targets]))
            n_kraus = int(rng.integers(1, 7))
            # a random isometry cut into blocks is a trace-preserving family
            g = rng.normal(size=(n_kraus * dt, dt)) + 1j * rng.normal(size=(n_kraus * dt, dt))
            kraus = list(np.linalg.qr(g)[0].reshape(n_kraus, dt, dt))
            got = _apply_channel(rho, dims, kraus, targets)
            ref = _apply_channel_per_kraus(rho, dims, kraus, targets)
            assert np.max(np.abs(got - ref)) < 1e-13, (dims, targets, n_kraus)

    def test_basis_state_mixtures_match_per_kraus_loop(self):
        # A family acting on every subsystem, on a mixture of basis states,
        # takes one outer product per basis state; the images of a random
        # family overlap, and some weights are zero. One tiny off-diagonal
        # entry sends the same input through the two gemms, which must
        # contract it.
        rng = np.random.default_rng(2025)
        for case in range(30):
            dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(1, 4)))
            dim = int(np.prod(dims))
            weights = rng.random(dim) * (rng.random(dim) < 0.6)
            weights[rng.integers(dim)] += 1.0
            rho = np.diag(weights / weights.sum()).astype(complex)
            targets = [int(i) for i in rng.permutation(len(dims))]
            n_kraus = int(rng.integers(2, 5))
            g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
            kraus = list(np.linalg.qr(g)[0].reshape(n_kraus, dim, dim))
            got = _apply_channel(rho, dims, kraus, targets)
            assert np.max(np.abs(got - _apply_channel_per_kraus(rho, dims, kraus, targets))) < 1e-13, case
            tilted = rho.copy()
            i, j = rng.choice(dim, size=2, replace=False)
            tilted[i, j] = 1e-9
            got_tilted = _apply_channel(tilted, dims, kraus, targets)
            ref_tilted = _apply_channel_per_kraus(tilted, dims, kraus, targets)
            assert np.max(np.abs(got_tilted - ref_tilted)) < 1e-13, case
            assert np.max(np.abs(got_tilted - got)) > 1e-11, case


class TestApplyChannelImage:
    """Kraus families with exactly-zero rows: the contraction on the support and the image."""

    VACUUM = np.diag([1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)

    @staticmethod
    def states(rng, space):
        """A random mode state alone and beside a qubit (an untouched subsystem,
        so dr = 2), then number-diagonal inputs: a Fock state and a mixture with
        a zero weight."""
        mode = random_mode_state(rng, space.n_max)
        yield mode.to_joint("a")
        yield JointState.from_parts([("q", random_density_matrix(rng, 2)), ("a", mode)])
        yield fock_state(space.n_max, space).to_joint("a")
        weights = rng.random(space.dim)
        weights[space.dim // 2] = 0.0
        yield ModeState(space, np.diag(weights / weights.sum())).to_joint("a")

    @staticmethod
    def assert_matches_reference_and_zero_outside(matrix, dims, kraus, targets, outside):
        got = _apply_channel(matrix, dims, kraus, targets)
        assert np.max(np.abs(got - _apply_channel_per_kraus(matrix, dims, kraus, targets))) < 1e-13
        assert outside.any() and not got[outside].any() and not got[:, outside].any()

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_beam_splitter_on_vacuum_ancilla(self, order):
        rng = np.random.default_rng(11)
        space = FockSpace(4)
        for state in self.states(rng, space):
            split_in = state.with_vacuum_ancilla(space, "b")
            assert np.array_equal(split_in.matrix, np.kron(state.matrix, self.VACUUM))
            u = _beam_splitter_unitary(space.dim, space.dim, 0.5, 0.3)
            targets = [split_in.position(label) for label in order]
            # n_a + n_b photons leave the mixing; more than n_max never arrive.
            coords = np.unravel_index(np.arange(len(split_in.matrix)), split_in.dims)
            outside = coords[targets[0]] + coords[targets[1]] > space.n_max
            self.assert_matches_reference_and_zero_outside(split_in.matrix, split_in.dims, u[None], targets, outside)

    def test_reflection_family_on_low_photon_numbers(self):
        # states of at most kept - 1 photons, embedded in a larger cutoff
        rng = np.random.default_rng(12)
        space, kept = FockSpace(5), 3
        for state in self.states(rng, FockSpace(kept - 1)):
            dims = state.dims[:-1] + (space.dim,)
            coords = np.unravel_index(np.arange(int(np.prod(dims))), dims)
            inside = np.flatnonzero(coords[-1] < kept)
            matrix = np.zeros((len(coords[-1]),) * 2, dtype=complex)
            matrix[np.ix_(inside, inside)] = state.matrix
            kraus = _reflection_kraus(space.dim, complex(0.8 * np.exp(0.4j)), 0.6)
            assert not kraus.any(axis=2).all()  # the family has exactly-zero rows
            outside = coords[-1] >= kept
            self.assert_matches_reference_and_zero_outside(matrix, dims, kraus, [len(dims) - 1], outside)
