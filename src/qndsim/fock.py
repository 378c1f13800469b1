"""Truncated Fock-space linear algebra for a few bosonic modes tensored with qubits.

States are dense complex density matrices. All channel operations are pure
functions returning new, immutable states; trace is preserved to 1e-12 and
positivity to an eigenvalue floor of -1e-10 (floating-point channels).

Every state is checked when it is built, on the principal submatrix of its
support (the indices whose row or column holds a nonzero entry): finite
entries, Hermiticity and trace to 1e-12 and, up to dimension 128, positivity.
Positivity is accepted when the submatrix minus half the floor times the
identity has a Cholesky factor; only if that fails does eigvalsh of the whole
matrix decide against the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SubsystemError, TruncationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRUNCATION_TAIL_TOL = 1e-9
N_MAX_CAP = 24

# Positivity checks cost O(dim^3); skip them above this dimension (transient
# two-mode states inside detector models). Protocol states stay well below it.
_POSITIVITY_DIM_LIMIT = 128


def _poisson_sf(n: int, mean_photon: float) -> float:
    """P(N > n) for N ~ Poisson(mean_photon), summed over the tail in log space.

    The sum runs past the bulk of the distribution (about 40 standard
    deviations above the mean, and at least 60 terms beyond n), so it stays
    accurate when the mean lies far above n.
    """
    stop = n + 60 + int(mean_photon + 40.0 * math.sqrt(mean_photon))
    k = np.arange(n + 1, stop + 1)
    log_fact = np.array([math.lgamma(x + 1.0) for x in k.tolist()])
    log_pmf = k * math.log(mean_photon) - mean_photon - log_fact
    peak = log_pmf.max()
    return float(math.exp(peak) * np.exp(log_pmf - peak).sum())


def _check_density(matrix: np.ndarray, what: str) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what}: density matrix must be square, got {matrix.shape}")
    # Indices whose row and column are both zero (a vacuum ancilla, a Fock
    # input) add nothing to the Hermiticity deviation and only zeros to the
    # spectrum, so those checks run on the principal submatrix of the support.
    # The trace and the eigvalsh fallback read the whole matrix, so their
    # values and messages are exactly those of a dense check.
    support = np.flatnonzero(matrix.any(0) | matrix.any(1))
    sub = matrix if support.size == len(matrix) else matrix[np.ix_(support, support)]
    herm = np.max(np.abs(sub - sub.conj().T), initial=0.0)
    # A non-finite entry is nonzero, so it lies in the support, and it makes
    # its own deviation non-finite.
    if not math.isfinite(herm):
        bad = np.argwhere(~np.isfinite(sub))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"{what}: non-finite entry {sub[i, j]} at ({support[i]}, {support[j]})")
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{what}: not Hermitian (max deviation {herm:.3e})")
    tr = np.trace(matrix).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{what}: trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    if matrix.shape[0] <= _POSITIVITY_DIM_LIMIT:
        # A Cholesky factor of sub - (floor/2) I proves every eigenvalue is at
        # least floor/2 less a rounding error of order dim * eps * |sub|, far
        # above the floor. Only a failed factorization pays for eigvalsh, which
        # then decides; both read the lower triangle.
        try:
            np.linalg.cholesky(sub - (EIGENVALUE_FLOOR / 2) * np.eye(support.size))
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(matrix)[0])
            if lo < EIGENVALUE_FLOOR:
                raise ValueError(f"{what}: negative eigenvalue {lo:.3e} below floor") from None


def _freeze(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FockSpace:
    """Single-mode Fock space truncated at photon number n_max."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise TruncationError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def tail_probability(self, mean_photon: float) -> float:
        """Poisson weight beyond the cutoff for a coherent state of this mean."""
        if mean_photon == 0.0:
            return 0.0
        return _poisson_sf(self.n_max, mean_photon)

    def validate_mean_photon(self, mean_photon: float, tol: float = TRUNCATION_TAIL_TOL) -> None:
        tail = self.tail_probability(mean_photon)
        if tail >= tol:
            needed = FockSpace.required_cutoff(mean_photon, tol)
            raise TruncationError(
                f"mean photon number {mean_photon} has truncated tail {tail:.3e} >= {tol} "
                f"at n_max={self.n_max}; requires n_max={needed}"
            )

    @staticmethod
    @lru_cache(maxsize=None)
    def required_cutoff(mean_photon: float, tol: float = TRUNCATION_TAIL_TOL) -> int:
        if mean_photon == 0.0:
            return 1
        for n in range(1, N_MAX_CAP + 1):
            if _poisson_sf(n, mean_photon) < tol:
                return n
        raise TruncationError(
            f"mean photon number {mean_photon} needs n_max > cap {N_MAX_CAP} "
            f"for tail < {tol}"
        )

    @classmethod
    def for_mean_photon(cls, mean_photon: float, tol: float = TRUNCATION_TAIL_TOL) -> "FockSpace":
        """Smallest cutoff whose Poisson tail is below tol, capped at N_MAX_CAP."""
        return cls(cls.required_cutoff(mean_photon, tol))


@dataclass(frozen=True)
class ModeState:
    """Density matrix of a single bosonic mode."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dim {self.space.dim}"
            )
        _check_density(self.matrix, "ModeState")
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    def number_distribution(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def mean_photon(self) -> float:
        n = np.arange(self.space.dim)
        return float(np.real(np.sum(n * np.diag(self.matrix))))

    def to_joint(self, label: str = "m0") -> "JointState":
        return JointState.from_parts([(label, self)])


def coherent_state(
    mean_photon: float, space: FockSpace, check_truncation: bool = True
) -> ModeState:
    """Truncated coherent state with amplitude sqrt(mean_photon) (real phase).

    check_truncation=False permits deliberately hard-truncated inputs (the
    renormalized few-photon pulses fed to the number sorter).
    """
    if mean_photon < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photon}")
    if check_truncation:
        space.validate_mean_photon(mean_photon)
    if mean_photon == 0.0:
        return fock_state(0, space)
    alpha = math.sqrt(mean_photon)
    n = np.arange(space.dim)
    log_amp = n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    amp = np.exp(log_amp)
    amp /= np.linalg.norm(amp)
    return ModeState(space, np.outer(amp, amp.conj()))


def fock_state(n: int, space: FockSpace) -> ModeState:
    if not 0 <= n <= space.n_max:
        raise TruncationError(f"Fock index {n} outside [0, {space.n_max}]")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[n, n] = 1.0
    return ModeState(space, mat)


@dataclass(frozen=True)
class JointState:
    """Density operator on an ordered collection of qubits and truncated modes.

    Subsystems are addressed by label; qubit basis index 0 is the 'up' (z+)
    state and mode indices are photon numbers.
    """

    labels: tuple[str, ...]
    kinds: tuple[str, ...]  # 'q' or 'm' per subsystem
    spaces: tuple[FockSpace | None, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.kinds) == len(self.spaces)):
            raise ValueError("label/kind/space bookkeeping mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels: {self.labels}")
        dim = int(np.prod(self.dims))
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with dims {self.dims}"
            )
        _check_density(self.matrix, "JointState")
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(2 if k == "q" else s.dim for k, s in zip(self.kinds, self.spaces))

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SubsystemError(f"unknown subsystem {label!r}; have {self.labels}") from None

    def space(self, label: str) -> FockSpace:
        pos = self.position(label)
        if self.kinds[pos] != "m":
            raise SubsystemError(f"subsystem {label!r} is not a mode")
        return self.spaces[pos]

    @classmethod
    def from_parts(cls, parts: Sequence[tuple[str, "ModeState | np.ndarray"]]) -> "JointState":
        """Tensor product of labeled parts: 2x2 arrays (qubits) or ModeStates."""
        labels, kinds, spaces, mats = [], [], [], []
        for label, part in parts:
            if isinstance(part, ModeState):
                kinds.append("m")
                spaces.append(part.space)
                mats.append(part.matrix)
            else:
                arr = np.asarray(part, dtype=complex)
                if arr.shape != (2, 2):
                    raise ValueError(f"qubit part {label!r} must be 2x2, got {arr.shape}")
                kinds.append("q")
                spaces.append(None)
                mats.append(arr)
            labels.append(label)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        return cls(tuple(labels), tuple(kinds), tuple(spaces), full)

    def with_vacuum_ancilla(self, space: FockSpace, label: str) -> "JointState":
        anc = np.zeros((space.dim, space.dim), dtype=complex)
        anc[0, 0] = 1.0
        return JointState(
            self.labels + (label,),
            self.kinds + ("m",),
            self.spaces + (space,),
            np.kron(self.matrix, anc),
        )

    def mode_state(self, label: str) -> ModeState:
        reduced = partial_trace(self, [label])
        return ModeState(reduced.spaces[0], reduced.matrix)

    def _replace_matrix(self, matrix: np.ndarray) -> "JointState":
        return JointState(self.labels, self.kinds, self.spaces, matrix)


def _apply_channel(
    matrix: np.ndarray,
    dims: Sequence[int],
    kraus_ops: Sequence[np.ndarray],
    targets: Sequence[int],
) -> np.ndarray:
    """Apply sum_k K rho K^dagger where each K acts on the given subsystems."""
    k = len(dims)
    targets = list(targets)
    others = [i for i in range(k) if i not in targets]
    perm = targets + others
    dt = int(np.prod([dims[i] for i in targets]))
    dr = int(np.prod([dims[i] for i in others])) if others else 1
    t = matrix.reshape(tuple(dims) * 2)
    t = np.transpose(t, axes=[*perm, *[k + p for p in perm]])
    t = np.ascontiguousarray(t).reshape(dt, dr, dt, dr)
    kraus = np.asarray(kraus_ops, dtype=complex)  # (K, dt, dt)
    # Target indices whose rows and columns are exactly zero (a vacuum
    # ancilla, a Fock input) contribute nothing, so the contraction runs over
    # the input's support only.
    support = np.flatnonzero(t.any(axis=(1, 2, 3)) | t.any(axis=(0, 1, 3)))
    if support.size < dt:
        t = t[support][:, :, support]
        kraus = kraus[:, :, support]
    nk, ns = kraus.shape[0], support.size
    # The whole family in two BLAS calls:
    # m[k,a,r,c,s] = sum_b K[k,a,b] T[b,r,c,s]
    m = (kraus.reshape(nk * dt, ns) @ t.reshape(ns, dr * ns * dr)).reshape(nk, dt, dr, ns, dr)
    # out[a,r,s,d] = sum_{k,c} m[k,a,r,c,s] conj(K[k,d,c])
    m = m.transpose(1, 2, 4, 0, 3).reshape(dt * dr * dr, nk * ns)
    right = kraus.conj().transpose(0, 2, 1).reshape(nk * ns, dt)
    out = (m @ right).reshape(dt, dr, dr, dt).transpose(0, 1, 3, 2)
    out = out.reshape([dims[i] for i in perm] * 2)
    inv = list(np.argsort(perm))
    out = np.transpose(out, axes=[*inv, *[k + int(p) for p in inv]])
    dim = int(np.prod(dims))
    return np.ascontiguousarray(out).reshape(dim, dim)


def apply_channel(state: JointState, kraus_ops: Sequence[np.ndarray], labels: Sequence[str]) -> JointState:
    positions = [state.position(lbl) for lbl in labels]
    return state._replace_matrix(_apply_channel(state.matrix, state.dims, kraus_ops, positions))


@lru_cache(maxsize=None)
def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


@lru_cache(maxsize=None)
def _beam_splitter_unitary(dim_a: int, dim_b: int, transmissivity: float, phase: float) -> np.ndarray:
    """Two-mode mixing a -> sqrt(T) a + ... with the reflected port phased by `phase`."""
    theta = math.acos(math.sqrt(transmissivity))
    a, b = _annihilation(dim_a), _annihilation(dim_b)
    gen = theta * (
        np.exp(1j * phase) * np.kron(a.conj().T, b) - np.exp(-1j * phase) * np.kron(a, b.conj().T)
    )
    # gen is anti-Hermitian, so exp(gen) = V diag(e^{iw}) V^dagger from
    # eigh(-i gen). gen conserves the total photon number, truncated or not,
    # so each fixed-total block is diagonalized on its own.
    h = -1j * gen
    u = np.zeros_like(h)
    total = np.add.outer(np.arange(dim_a), np.arange(dim_b)).ravel()
    for n in np.unique(total):
        block = np.ix_(total == n, total == n)
        w, v = np.linalg.eigh(h[block])
        u[block] = (v * np.exp(1j * w)) @ v.conj().T
    return u


@lru_cache(maxsize=None)
def _reflection_kraus(dim: int, amplitude: complex) -> np.ndarray:
    """Loss at |r|^2 composed with a per-photon phase arg(r), as one stacked Kraus family.

    Operator k (the first axis) is the k-photons-lost branch. Zero operators
    are kept so that two families (e.g. the two atomic branches of a
    reflection) stay aligned on the shared loss ancilla index. The cached
    array is read-only.
    """
    mag2 = abs(amplitude) ** 2
    s = math.sqrt(max(0.0, 1.0 - mag2))
    kraus = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        for n in range(k, dim):
            kraus[k, n - k, n] = math.sqrt(math.comb(n, k)) * amplitude ** (n - k) * s**k
    return _freeze(kraus)


def beam_splitter(
    state: JointState,
    mode_a: str,
    mode_b: str,
    transmissivity: float,
    phase: float = 0.0,
) -> JointState:
    """Unitary two-mode mixing of the labeled modes."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity {transmissivity} outside [0, 1]")
    pa, pb = state.position(mode_a), state.position(mode_b)
    if state.kinds[pa] != "m" or state.kinds[pb] != "m":
        raise SubsystemError("beam_splitter targets must be modes")
    u = _beam_splitter_unitary(state.dims[pa], state.dims[pb], float(transmissivity), float(phase))
    return apply_channel(state, [u], [mode_a, mode_b])


def loss_channel(state: JointState, mode: str, transmissivity: float) -> JointState:
    """Pure loss: beam splitter against a fresh vacuum ancilla, ancilla traced out."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity {transmissivity} outside [0, 1]")
    pos = state.position(mode)
    if state.kinds[pos] != "m":
        raise SubsystemError(f"{mode!r} is not a mode")
    if transmissivity == 1.0:
        return state
    # A reflection of real amplitude sqrt(T); operators that vanish are dropped.
    kraus = _reflection_kraus(state.dims[pos], complex(math.sqrt(transmissivity)))
    return apply_channel(state, kraus[kraus.any(axis=(1, 2))], [mode])


def moments(state: JointState, mode: str) -> tuple[float, float]:
    """(<n>, <n(n-1)>) of the labeled mode."""
    dist = state.mode_state(mode).number_distribution()
    n = np.arange(len(dist))
    return float(np.sum(n * dist)), float(np.sum(n * (n - 1) * dist))


def partial_trace(state: JointState, keep: Sequence[str]) -> JointState:
    """Reduced state on the kept subsystems (in their original order)."""
    if not keep:
        raise SubsystemError("keep set must be nonempty")
    keep_pos = sorted(state.position(lbl) for lbl in keep)
    dims = state.dims
    k = len(dims)
    t = state.matrix.reshape(tuple(dims) * 2)
    # Trace out the complement, highest position first so earlier axes stay put.
    traced = 0
    for pos in sorted((i for i in range(k) if i not in keep_pos), reverse=True):
        t = np.trace(t, axis1=pos, axis2=pos + (k - traced))
        traced += 1
    dim = int(np.prod([dims[i] for i in keep_pos]))
    labels = tuple(state.labels[i] for i in keep_pos)
    kinds = tuple(state.kinds[i] for i in keep_pos)
    spaces = tuple(state.spaces[i] for i in keep_pos)
    return JointState(labels, kinds, spaces, np.ascontiguousarray(t).reshape(dim, dim))


def measure_diagonal(
    state: JointState, label: str, weights: np.ndarray, min_probability: float = 1e-12
) -> tuple[float, JointState | None]:
    """Probability and conditional state for a diagonal POVM element on one subsystem.

    The measured subsystem is consumed. Probabilities below min_probability are
    numerically indistinguishable from zero, so (p, None) is returned and the
    conditional is undefined.
    """
    pos = state.position(label)
    dims = state.dims
    k = len(dims)
    t = state.matrix.reshape(tuple(dims) * 2)
    w = np.asarray(weights, dtype=float)
    if w.shape != (dims[pos],):
        raise ValueError(f"weights shape {w.shape} does not match dim {dims[pos]}")
    shape = [1] * (2 * k)
    shape[pos] = dims[pos]
    weighted = t * w.reshape(shape)
    reduced = np.trace(weighted, axis1=pos, axis2=pos + k)
    rest = int(np.prod([d for i, d in enumerate(dims) if i != pos])) or 1
    reduced = np.ascontiguousarray(reduced).reshape(rest, rest)
    reduced = (reduced + reduced.conj().T) / 2.0  # exact result is Hermitian
    p = float(np.real(np.trace(reduced)))
    if p < min_probability:
        return max(p, 0.0), None
    labels = tuple(l for i, l in enumerate(state.labels) if i != pos)
    kinds = tuple(x for i, x in enumerate(state.kinds) if i != pos)
    spaces = tuple(s for i, s in enumerate(state.spaces) if i != pos)
    return p, JointState(labels, kinds, spaces, reduced / p)
