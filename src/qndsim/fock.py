"""Truncated Fock-space linear algebra for a few bosonic modes tensored with qubits.

States are dense complex density matrices. All channel operations are pure
functions returning new, immutable states; trace is preserved to 1e-12 and
positivity to an eigenvalue floor of -1e-10 (floating-point channels). The
protocol engine and the sorter keep only the photon-number-diagonal blocks of
their states; _check_blocks validates those stacks to the same tolerances.

Every state is checked when it is built, on the principal submatrix of its
support (the indices whose row or column holds a nonzero entry): finite
entries, Hermiticity and trace to 1e-12 and, up to dimension 128, positivity.
Positivity is accepted when the submatrix minus half the floor times the
identity has a Cholesky factor; only if that fails does eigvalsh of the whole
matrix decide against the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SubsystemError, TruncationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRUNCATION_TAIL_TOL = 1e-9
N_MAX_CAP = 24
# Outcomes less probable than this are indistinguishable from zero: no
# conditional state is formed for them.
MIN_PROBABILITY = 1e-12

# Positivity checks cost O(dim^3); skip them above this dimension (the
# two-mode state inside the detector split). The split's single-mode input
# stays well below it; the number-diagonal blocks of the protocol engine and
# the sorter are checked by _check_blocks instead.
_POSITIVITY_DIM_LIMIT = 128


# Bounded: a long-lived caller may ask for many mean photon numbers.
@lru_cache(maxsize=1024)
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
    # A nonzero column entry lies in a nonzero row, so the column test reads
    # those rows only.
    rows = matrix.any(1)
    support = np.flatnonzero(rows | matrix[rows].any(0))
    # np.ix_ gathers the submatrix without a support x dim intermediate.
    sub = matrix if support.size == len(matrix) else matrix[np.ix_(support, support)]
    herm = np.abs(sub - sub.conj().T).max(initial=0.0)
    # A non-finite entry is nonzero, so it lies in the support, and it makes
    # its own deviation non-finite.
    if not math.isfinite(herm):
        bad = np.argwhere(~np.isfinite(sub))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"{what}: non-finite entry {sub[i, j]} at ({support[i]}, {support[j]})")
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{what}: not Hermitian (max deviation {herm:.3e})")
    tr = matrix.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{what}: trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    if matrix.shape[0] <= _POSITIVITY_DIM_LIMIT:
        # A Cholesky factor of sub - (floor/2) I proves every eigenvalue is at
        # least floor/2 less a rounding error of order dim * eps * |sub|, far
        # above the floor. Only a failed factorization pays for eigvalsh, which
        # then decides; both read the lower triangle.
        # A gathered submatrix is already a copy of its own.
        shifted = sub.copy() if sub is matrix else sub
        shifted.flat[:: support.size + 1] -= EIGENVALUE_FLOOR / 2
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(matrix)[0])
            if lo < EIGENVALUE_FLOOR:
                raise ValueError(f"{what}: negative eigenvalue {lo:.3e} below floor") from None


def _check_blocks(blocks: np.ndarray, what: str) -> None:
    """Check a number-diagonal state held as a (dim, b, b) stack of blocks.

    blocks[n] is the b x b block of photon number n; the state is their
    direct sum, so it is positive exactly when every block is. Requires every
    entry finite, every block Hermitian to HERMITICITY_TOL, the summed trace
    1 to TRACE_TOL and the lowest eigenvalue of all blocks (one batched
    eigvalsh) at or above EIGENVALUE_FLOOR.
    """
    if not np.isfinite(blocks).all():
        n, i, j = np.argwhere(~np.isfinite(blocks))[0]
        raise ValueError(f"{what}: non-finite entry {blocks[n, i, j]} in block {n} at ({i}, {j})")
    herm = np.abs(blocks - blocks.conj().swapaxes(1, 2)).max(initial=0.0)
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{what}: not Hermitian (max deviation {herm:.3e})")
    tr = blocks.trace(axis1=1, axis2=2).real.sum()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{what}: trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    # eigvalsh returns a 1 x 1 block's real part, so those blocks skip the call.
    lo = float((blocks.real if blocks.shape[1] == 1 else np.linalg.eigvalsh(blocks)).min())
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{what}: negative eigenvalue {lo:.3e} below floor")


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

    def validate_mean_photon(self, mean_photon: float) -> None:
        tail = self.tail_probability(mean_photon)
        if tail >= TRUNCATION_TAIL_TOL:
            needed = FockSpace.required_cutoff(mean_photon)
            raise TruncationError(
                f"mean photon number {mean_photon} has truncated tail {tail:.3e} >= "
                f"{TRUNCATION_TAIL_TOL} at n_max={self.n_max}; requires n_max={needed}"
            )

    @staticmethod
    @lru_cache(maxsize=None)
    def required_cutoff(mean_photon: float) -> int:
        if mean_photon == 0.0:
            return 1
        for n in range(1, N_MAX_CAP + 1):
            if _poisson_sf(n, mean_photon) < TRUNCATION_TAIL_TOL:
                return n
        raise TruncationError(
            f"mean photon number {mean_photon} needs n_max > cap {N_MAX_CAP} "
            f"for tail < {TRUNCATION_TAIL_TOL}"
        )

    @classmethod
    def for_mean_photon(cls, mean_photon: float) -> "FockSpace":
        """Smallest cutoff whose Poisson tail is below TRUNCATION_TAIL_TOL, capped at N_MAX_CAP."""
        return cls(cls.required_cutoff(mean_photon))


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

    def to_joint(self, label: str = "m0") -> "JointState":
        return JointState.from_parts([(label, self)])


def pulse_amplitudes(
    kind: str, space: FockSpace, mean_photon: float, fock_n: int, check_truncation: bool = True
) -> np.ndarray:
    """Real number-basis amplitudes amp of an input pulse, whose photon numbers are amp * amp.

    The one definition of an input: kind 'fock' is |fock_n>, kind 'coherent' the
    coherent state of amplitude sqrt(mean_photon) (real phase), truncated to the
    space and renormalized. check_truncation=False permits deliberately
    hard-truncated pulses (the renormalized few-photon pulses fed to the sorter).
    """
    if kind == "coherent":
        if mean_photon < 0:
            raise ValueError(f"mean photon number must be >= 0, got {mean_photon}")
        if check_truncation:
            space.validate_mean_photon(mean_photon)
        if mean_photon > 0.0:
            n = np.arange(space.dim)
            log_amp = n * math.log(math.sqrt(mean_photon)) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
            amp = np.exp(log_amp)
            return amp / np.linalg.norm(amp)
        fock_n = 0  # the vacuum
    if not 0 <= fock_n <= space.n_max:
        raise TruncationError(f"Fock index {fock_n} outside [0, {space.n_max}]")
    amp = np.zeros(space.dim)
    amp[fock_n] = 1.0
    return amp


def coherent_state(mean_photon: float, space: FockSpace, check_truncation: bool = True) -> ModeState:
    amp = pulse_amplitudes("coherent", space, mean_photon, 0, check_truncation)
    return ModeState(space, np.outer(amp, amp))


def fock_state(n: int, space: FockSpace) -> ModeState:
    amp = pulse_amplitudes("fock", space, 0.0, n)
    return ModeState(space, np.outer(amp, amp))


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
    dims: tuple[int, ...] = field(init=False)  # per subsystem: 2 for a qubit, the mode's dim

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.kinds) == len(self.spaces)):
            raise ValueError("label/kind/space bookkeeping mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels: {self.labels}")
        dims = tuple(2 if k == "q" else s.dim for k, s in zip(self.kinds, self.spaces))
        object.__setattr__(self, "dims", dims)
        dim = math.prod(dims)
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with dims {self.dims}"
            )
        _check_density(self.matrix, "JointState")
        object.__setattr__(self, "matrix", _freeze(self.matrix))

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
        # The ancilla is the last subsystem, so |0><0| puts each entry of the
        # matrix at stride dim: the values of np.kron(matrix, |0><0|).
        d = space.dim
        matrix = np.zeros((len(self.matrix) * d,) * 2, dtype=complex)
        matrix[::d, ::d] = self.matrix
        return JointState(self.labels + (label,), self.kinds + ("m",), self.spaces + (space,), matrix)

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
    """Apply sum_k K rho K^dagger where each K acts on the given subsystems.

    When the family acts on every subsystem and the input is diagonal on its
    support, the input is a mixture of basis states |b>, and the output is
    sum_b w_b sum_k K|b><b|K^dagger: one outer product per basis state on
    the rows its column reaches (in the detector split, the n + 1 states of
    n photons). Any other input takes two gemms over the support and the image.
    """
    k, dim = len(dims), math.prod(dims)
    targets = list(targets)
    # Targets that are every subsystem in order need no permutation.
    permuted = targets != list(range(k))
    if permuted:
        perm = targets + [i for i in range(k) if i not in targets]
        matrix = np.transpose(matrix.reshape(tuple(dims) * 2), axes=[*perm, *[k + p for p in perm]])
    dt = math.prod(dims[i] for i in targets)
    dr = dim // dt
    t = np.ascontiguousarray(matrix).reshape(dt, dr, dt, dr)
    kraus = np.asarray(kraus_ops, dtype=complex)  # (K, dt, dt)
    # Target indices whose rows and columns are exactly zero (a vacuum
    # ancilla, a Fock input) contribute nothing, so the contraction runs over
    # the input's support only. A nonzero column entry lies in a nonzero row,
    # so the column test reads those rows only.
    rows = t.any(axis=(1, 2, 3))
    support = np.flatnonzero(rows | t[rows].any(axis=(0, 1, 3)))
    if support.size < dt:
        t = t[support][:, :, support]
        kraus = kraus[:, :, support]
    ns = support.size
    out = np.zeros((dt, dr, dt, dr), dtype=complex)
    weights = np.diagonal(t.reshape(ns, ns)) if dr == 1 else None
    if weights is not None and np.count_nonzero(t) == np.count_nonzero(weights):
        # Every basis state's reach is padded to the widest one, and all the
        # outer products are formed at once, by einsum's own loops: no BLAS
        # product, so no second OpenBLAS thread, and the padding is dropped.
        reached = kraus.any(axis=0).T  # reached[b, a]: some K reaches |a> from |b>
        width = reached.sum(1)
        valid = np.arange(width.max(initial=0)) < width[:, None]
        reach = np.zeros(valid.shape, dtype=np.intp)
        reach[valid] = np.nonzero(reached)[1]
        columns = kraus[:, reach, np.arange(ns)[:, None]]
        products = np.einsum("kba,kbc->bac", columns, columns.conj())
        products *= weights[:, None, None]
        kept = valid[:, :, None] & valid[:, None, :]
        np.add.at(out.reshape(-1), (reach[:, :, None] * dt + reach[:, None, :])[kept], products[kept])
    else:
        # Output indices that no operator reaches from the support (the
        # image) stay exactly zero, so only the image's rows are contracted.
        image = np.flatnonzero(kraus.any(axis=(0, 2)))
        if image.size < dt:
            kraus = kraus[:, image]
        nk, ni = kraus.shape[:2]
        # The whole family in two BLAS calls:
        # m[k,a,r,c,s] = sum_b K[k,a,b] T[b,r,c,s]
        m = (kraus.reshape(nk * ni, ns) @ t.reshape(ns, dr * ns * dr)).reshape(nk, ni, dr, ns, dr)
        # out[a,r,d,s] = sum_{k,c} m[k,a,r,c,s] conj(K[k,d,c])
        m = m.transpose(1, 2, 4, 0, 3).reshape(ni * dr * dr, nk * ns)
        right = kraus.conj().transpose(0, 2, 1).reshape(nk * ns, ni)
        every = np.arange(dr)
        out[np.ix_(image, every, image, every)] = (m @ right).reshape(ni, dr, dr, ni).transpose(0, 1, 3, 2)
    if permuted:
        out = out.reshape([dims[i] for i in perm] * 2)
        inv = list(np.argsort(perm))
        out = np.ascontiguousarray(np.transpose(out, axes=[*inv, *[k + int(p) for p in inv]]))
    return out.reshape(dim, dim)


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
    for n in range(dim_a + dim_b - 1):
        block = np.ix_(total == n, total == n)
        w, v = np.linalg.eigh(h[block])
        u[block] = (v * np.exp(1j * w)) @ v.conj().T
    return u


@lru_cache(maxsize=None)
def _reflection_kraus(dim: int, amplitude: complex, loss: float) -> np.ndarray:
    """Loss at 1 - |r|^2 = loss^2 composed with a per-photon phase arg(r), as one stacked Kraus family.

    Operator k (the first axis) is the k-photons-lost branch. Zero operators
    are kept so that two families (e.g. the two atomic branches of a
    reflection) stay aligned on the shared loss ancilla index. The cached
    array is read-only.
    """
    kraus = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        for n in range(k, dim):
            kraus[k, n - k, n] = math.sqrt(math.comb(n, k)) * amplitude ** (n - k) * loss**k
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
    # u[None] stacks the cached unitary as a one-operator family without a copy.
    return apply_channel(state, u[None], [mode_a, mode_b])


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
    amplitude, loss = complex(math.sqrt(transmissivity)), math.sqrt(1.0 - transmissivity)
    kraus = _reflection_kraus(state.dims[pos], amplitude, loss)
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
    dim = math.prod(dims[i] for i in keep_pos)
    labels = tuple(state.labels[i] for i in keep_pos)
    kinds = tuple(state.kinds[i] for i in keep_pos)
    spaces = tuple(state.spaces[i] for i in keep_pos)
    return JointState(labels, kinds, spaces, np.ascontiguousarray(t).reshape(dim, dim))


def measure_diagonal(
    state: JointState, label: str, weights: np.ndarray
) -> tuple[float, JointState | None]:
    """Probability and conditional state for a diagonal POVM element on one subsystem.

    The measured subsystem is consumed. Probabilities below MIN_PROBABILITY are
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
    rest = math.prod(d for i, d in enumerate(dims) if i != pos)
    reduced = np.ascontiguousarray(reduced).reshape(rest, rest)
    reduced = (reduced + reduced.conj().T) / 2.0  # exact result is Hermitian
    p = float(np.real(np.trace(reduced)))
    if p < MIN_PROBABILITY:
        return max(p, 0.0), None
    labels = tuple(l for i, l in enumerate(state.labels) if i != pos)
    kinds = tuple(x for i, x in enumerate(state.kinds) if i != pos)
    spaces = tuple(s for i, s in enumerate(state.spaces) if i != pos)
    return p, JointState(labels, kinds, spaces, reduced / p)
