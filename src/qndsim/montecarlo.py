"""Independent stochastic sampler of the cascade, cross-validating the exact engine.

Each trial draws a photon number and classical per-photon fates through every
loss stage, which leave the two atoms in a product state of pure amplitudes;
atomic outcomes and detector clicks are then sampled. This per-photon
unraveling is exact here because the input is Poissonian (or Fock) and all
optics are linear with branch-conditioned amplitudes; the test suite asserts
agreement with the exact engine instead of assuming it.

Randomness comes from counter-based Philox streams keyed by
(seed, stage, sweep point), so results are identical for identical
(config, seed). The points of a sweep run concurrently (`map_sweep`), and
because each point draws only from its own streams, the result does not
depend on how they are scheduled.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QndsimError
from .estimators import CELL_MASKS, CELLS, G2_CONDITIONS, EstimateRow, G2Row, cells_from_table
from .node import rotation_matrix
from .protocol import ExperimentConfig, Outcome

HALF_PI = math.pi / 2.0

# Trials per block of the sampler's stages. A block's float64 draws and
# gathers take 64 KiB each, below glibc's default 128 KiB mmap threshold.
# Each numpy call on a block hands the GIL between sweep workers: a warm
# threaded default sweep at 10^5 trials ran 25% slower at 2^12 and no faster
# at 2^14 or 2^15, which add 0.1-0.4 and 0.4-1.4 MB to a point's peak.
_BLOCK = 2**13

# Per-photon fate categories through the cascade, in fate_counts column order:
# lost at node 1, in the fiber, at node 2, before the detectors; reaching
# detector a and missed or detected; reaching detector b and missed or detected.
_F_LOST1, _F_FIBER, _F_LOST2, _F_LOSTD, _F_AMISS, _F_AHIT, _F_BMISS, _F_BHIT = range(8)

_STAGES = {
    "prep1": 0,
    "prep2": 1,
    "photon_number": 2,
    "depolarization": 3,
    "branch_label": 4,
    "fates": 5,
    "atom_outcome": 6,
    "readout1": 7,
    "readout2": 8,
    "dark_a": 9,
    "dark_b": 10,
}


def _mu_tag(mean_photon: float) -> int:
    # + 0.0 turns -0.0 into 0.0, so both key the same streams.
    return int(np.float64(mean_photon + 0.0).view(np.uint64))


def _sweep_stream(seed: int, mean_photon: float, name: str) -> np.random.Generator:
    # The trailing 2 is a fixed tag: changing it would change every seed's streams.
    counter = [0, _STAGES[name], _mu_tag(mean_photon), 2]
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _coins(
    stream: Callable[[str], np.random.Generator], name: str, threshold: float
) -> Callable[[int], np.ndarray | np.bool_]:
    """The draw of a stage's coins: `size` flips u < threshold, u uniform in [0, 1) from stream(name).

    At a threshold of 0 or below, or 1 or above, every flip comes out the same
    whatever u is, so the stream is not made and the draw returns that one
    value, which broadcasts over a block. Each stage has its own stream, so
    skipping one moves no other stage's numbers.
    """
    if threshold <= 0.0 or threshold >= 1.0:
        fixed = np.bool_(threshold >= 1.0)
        return lambda size: fixed
    rng = stream(name)
    return lambda size: rng.random(size) < threshold


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_sweep(point: Callable[[float], object], config: ExperimentConfig) -> list:
    """`point(mu)` for each mean photon number of the config's sweep, in sweep order.

    The points run concurrently on a thread pool, one worker per usable CPU
    and at most one per point: numpy's draws and sorts release the GIL.
    Each point draws from its own streams, so the results do not depend on
    the schedule. An error surfaces as a serial loop raises it: the first
    failing point in sweep order, and the points not yet started are
    cancelled.
    """
    points = config.mean_photon_sweep
    with ThreadPoolExecutor(max_workers=min(len(points), _usable_cpus())) as pool:
        return list(pool.map(point, points))


@dataclass(frozen=True)
class _Model:
    """Per-photon amplitude tables and atomic parameters derived from a config."""

    amp: np.ndarray  # (2 depol, 2 x, 2 y, 8 fates) complex amplitudes
    prob: np.ndarray  # |amp|^2
    # Per atom, (2 depol, 2 branch): r of a photon past the node, s of one lost there (ReflectionPair.s).
    reflection: tuple[np.ndarray, np.ndarray]
    loss: tuple[np.ndarray, np.ndarray]
    c_good: tuple[np.ndarray, np.ndarray]  # post-first-pulse amplitudes per atom
    c_bad: tuple[np.ndarray, np.ndarray]
    visibility: tuple[float, float]
    contrast: tuple[float, float]
    rotation: tuple[np.ndarray, np.ndarray]
    readout: tuple[float, float]
    prep: tuple[float, float]
    scramble: float
    p_dark: tuple[float, float]

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "_Model":
        pair1, pair2 = config.node1.pair(), config.node2.pair()
        imp1, imp2 = config.node1.imperfections, config.node2.imperfections
        # A scrambled pulse meets node 2's empty pair on both branches.
        pairs = ((pair1, pair1), (pair2, config.node2.empty_pair()))
        reflection = tuple(np.array([[p.r_coupled, p.r_uncoupled] for p in row]) for row in pairs)
        loss = tuple(np.array([p.s for p in row]) for row in pairs)
        t_fiber = config.channel.transmission
        t_det = config.detection_efficiency
        eta_a = config.detector_a.efficiency
        eta_b = config.detector_b.efficiency
        amp = np.zeros((2, 2, 2, 8), dtype=complex)
        for d in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    kept1 = reflection[0][d, x]
                    kept2 = kept1 * math.sqrt(t_fiber) * reflection[1][d, y]
                    at_det = kept2 * math.sqrt(t_det)
                    amp[d, x, y] = [
                        loss[0][d, x],
                        kept1 * math.sqrt(1.0 - t_fiber),
                        kept1 * math.sqrt(t_fiber) * loss[1][d, y],
                        kept2 * math.sqrt(1.0 - t_det),
                        at_det * math.sqrt((1.0 - eta_a) / 2.0),
                        at_det * math.sqrt(eta_a / 2.0),
                        at_det * math.sqrt((1.0 - eta_b) / 2.0),
                        at_det * math.sqrt(eta_b / 2.0),
                    ]
        prob = np.abs(amp) ** 2
        if not np.allclose(prob.sum(axis=-1), 1.0, atol=1e-12):
            raise ConfigError("per-photon fate probabilities do not sum to 1")

        def pulse_amplitudes(delta: float) -> tuple[np.ndarray, np.ndarray]:
            half = (HALF_PI + delta) / 2.0
            good = np.array([math.cos(half), math.sin(half)], dtype=complex)
            bad = np.array([-math.sin(half), math.cos(half)], dtype=complex)
            return good, bad

        g1, b1 = pulse_amplitudes(imp1.over_rotation())
        g2, b2 = pulse_amplitudes(imp2.over_rotation())
        return cls(
            amp=amp,
            prob=prob,
            reflection=reflection,
            loss=loss,
            c_good=(g1, g2),
            c_bad=(b1, b2),
            visibility=(imp1.visibility(), imp2.visibility()),
            contrast=(imp1.reflection_contrast, imp2.reflection_contrast),
            rotation=(
                rotation_matrix(HALF_PI, HALF_PI + imp1.over_rotation()),
                rotation_matrix(HALF_PI, HALF_PI + imp2.over_rotation()),
            ),
            readout=(imp1.readout_fidelity, imp2.readout_fidelity),
            prep=(imp1.prep_fidelity, imp2.prep_fidelity),
            scramble=config.channel.scramble_probability,
            p_dark=(config.detector_a.p_dark, config.detector_b.p_dark),
        )


def _atom_probabilities(
    model: _Model,
    fate_counts: np.ndarray,
    depolarized: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
) -> np.ndarray:
    """Joint (z1, z2) outcome probabilities for a batch of fate records.

    fate_counts: (N, 8); depolarized: (N,) bool; c1, c2: (N, 2) complex.
    Returns (N, 2, 2) probabilities (index 0 = up).

    A record leaves the atoms in a product state: each photon's amplitude on
    branch (x, y) is a node-1 factor (s1[x] if lost there, r1[x] if past it)
    times a node-2 factor (s2[y], r2[y]) times constants equal on all four
    branches, which the normalization cancels. So atom k holds
    a_k = c_k s_k^lost_k r_k^kept_k (kept_k photons passed node k), and its
    residual Z dephasing mixes Z^0 and Z^1 with weights (1 + v)/2 and
    (1 - v)/2: P_k sums |U_k Z^a a_k|^2 over a, and P(z1, z2) = P1(z1) P2(z2).
    The normalization also cancels a factor common to both branches, so each
    (depolarized) row of r_k and s_k is divided by its largest modulus before
    the powers (an all-zero row, a lossless pair's s, is left as it is): the
    larger branch's factor is then 1, and a record underflows only when the
    smaller branch's relative weight does.
    """
    depol = depolarized.astype(np.intp)
    lost1, lost2 = fate_counts[:, _F_LOST1], fate_counts[:, _F_LOST2]
    kept1 = fate_counts.sum(axis=1) - lost1
    kept2 = kept1 - fate_counts[:, _F_FIBER] - lost2
    v1 = model.visibility[0] * model.contrast[0] ** kept1
    v2 = model.visibility[1] * np.where(depolarized, 1.0, model.contrast[1] ** kept2)
    atoms = []
    for r, s, c, lost, kept, v, u in zip(
        model.reflection, model.loss, (c1, c2), (lost1, lost2), (kept1, kept2), (v1, v2), model.rotation
    ):
        peaks = [np.abs(x).max(axis=1, keepdims=True) for x in (r, s)]
        r, s = (x / np.where(peak > 0.0, peak, 1.0) for x, peak in zip((r, s), peaks))
        a = c * s[depol] ** lost[:, None] * r[depol] ** kept[:, None]
        probs = 0.0
        for sign in (1.0, -1.0):  # Z^0, Z^1 = diag(1, sign)
            # einsum keeps each row's sum order whatever the batch size; a
            # matmul would take the matrix-vector path for one row.
            rotated = np.einsum("nj,ij->ni", a, u * [1.0, sign])
            probs = probs + (1.0 + sign * v)[:, None] / 2.0 * np.abs(rotated) ** 2
        total = probs.sum(axis=1)
        # Squares below the smallest normal double have lost precision: NaN, which the sampler refuses.
        atoms.append(probs / np.where(total >= np.finfo(float).tiny, total, np.nan)[:, None])
    return atoms[0][:, :, None] * atoms[1][:, None, :]


def _distinct_rows(columns: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One member of each group of equal rows of the columns, and each row's group.

    columns: (N,) arrays of non-negative integers or bools, taken one at a
    time, so a generator can gather each just before it is used. The first
    column is the key; each later one enters it as a mixed-radix digit with
    base max + 1, so equal keys mean equal rows. A column that would take the
    key's bound past 2^62 is merged by sorting instead: the new key numbers
    the distinct (key, column) pairs 0, 1, ... So the key never overflows,
    whatever the counts. Which member of a group is returned is left open, so
    the grouping needs no stable sort.
    """
    columns = iter(columns)
    key = next(columns).astype(np.int64)
    bound = int(key.max(initial=0)) + 1  # every key < bound; a Python int, so no overflow
    for col in columns:
        base = int(col.max(initial=0)) + 1
        if bound * base <= 2**62:
            key *= base
            key += col.astype(np.int64, copy=False)
            bound *= base
        else:
            merged, key = _number_columns(np.stack([key, col]), np.lexsort((col, key)))
            bound = merged.size
    return _number_columns(key[None], np.argsort(key))


def _number_columns(rows: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One member of each group of equal columns of `rows` (k, N), and each column's group.

    `order` sorts the columns; the groups are numbered 0, 1, ... in that order.
    """
    ordered = rows[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    del ordered
    ranks = np.cumsum(new, dtype=np.int64)
    ranks -= 1
    group = np.empty_like(ranks)
    group[order] = ranks
    return order[new], group


def _categories(rng: np.random.Generator, cumulative: np.ndarray, index: np.ndarray) -> np.ndarray:
    """One category per trial, drawn from the cumulative weights in column `index` of `cumulative`.

    cumulative: (categories, rows), non-decreasing down each column. A uniform
    u in [0, 1) scaled to the column's total picks the number of cumulative
    weights it reaches. The scaled draw stays below a normal total, so the
    test against the total is skipped. Returns uint8 indices.
    """
    u = rng.random(index.size)
    u *= cumulative[-1][index]
    z = np.zeros(index.size, dtype=np.uint8)
    for col in cumulative[:-1]:
        z += u >= col[index]
    return z


def _widened(array: np.ndarray, top: int) -> np.ndarray:
    """`array`, or a copy of it in the smallest wider unsigned type, so that it holds `top`."""
    dtype = np.promote_types(array.dtype, np.min_scalar_type(top))
    return array if dtype == array.dtype else array.astype(dtype)


def _spans(blocks: list[slice], counts: np.ndarray) -> list[slice]:
    """Consecutive blocks joined into runs whose `counts` add up to at most _BLOCK, or one block each.

    A stage that touches only a few trials of each block runs once per run:
    each numpy call on a block hands the GIL to the other sweep workers, so
    fewer, larger calls cost less.
    """
    spans = []
    for block, count in zip(blocks, counts):
        if spans and total + count <= _BLOCK:
            spans[-1] = slice(spans[-1].start, block.stop)
            total += count
        else:
            spans.append(block)
            total = count
    return spans


def _simulate_arrays(config: ExperimentConfig, mean_photon: float, trials: int) -> dict:
    """Sample `trials` independent runs at one mean photon number.

    Returns per-trial arrays: photon number "n", "fate_counts" (trials, 8) in
    the _F_* column order, "depolarized", the readouts "s1"/"s2" (True = up)
    and the detector clicks "click_a"/"click_b". "n" and "fate_counts" are
    held in the smallest unsigned type that holds the largest photon number
    drawn (uint8 below 256 photons), so no count can overflow.

    The deterministic work is done once per distinct input and gathered back
    per trial, as 1-D columns of small tables. The branch-label weights depend
    only on (prep1, prep2), so they come from a 4-row table. The atom outcome
    probabilities depend only on what the atoms see, the record: depolarized,
    prep1, prep2, n and the photons lost at node 1, in the fiber and at
    node 2. How the other photons split behind node 2 reaches no atom. So
    `_atom_probabilities` runs once per distinct record: about 20 at low mu
    and 700 at mu ~ 3 for 10^5 trials, plus the eight photon-free records.
    The fates are drawn per branch for the trials with photons only.

    The draws and the outcome sampling run over the trials in blocks of
    `_BLOCK`; the fates and the grouping run over runs of blocks that hold at
    most `_BLOCK` of the trials they touch. So every wide temporary lives for
    one block or run, and only byte masks and indices span a run. Beside the
    returned arrays (14 bytes per trial with uint8 counts), a point keeps a
    byte per trial for each trial's record, for its branch until the fates
    are drawn and for its row of the outcome table (two bytes once a run
    holds more than 248 distinct records), and a few words per distinct
    record of each run. Its traced peak grows by 15.2 bytes per trial at
    mu 0 and 16.8 at mu 3.11.

    The samples are those of one draw and one computation per trial, in trial
    order: every stream draws the same numbers in the same order, because
    numpy's draws in consecutive blocks are those of one draw, numpy's
    multinomial draws nothing for n = 0, and each branch's trials are taken
    in trial order; a stage whose probability is 0 or 1 draws nothing at all
    (`_coins`), and no other stage reads its stream; and any member of a
    record group gives the same probabilities, because each row's
    probabilities are computed from that row's record alone.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not mean_photon >= 0.0:  # false for NaN too
        raise ConfigError(f"mean photon number must be >= 0, got {mean_photon}")
    model = _Model.from_config(config)
    seed = config.seed
    stream = lambda name: _sweep_stream(seed, mean_photon, name)
    blocks = [slice(start, min(start + _BLOCK, trials)) for start in range(0, trials, _BLOCK)]

    # Post-first-pulse amplitudes indexed by prep outcome (1 = prepared).
    c1 = np.stack([model.c_bad[0], model.c_good[0]])
    c2 = np.stack([model.c_bad[1], model.c_good[1]])
    w = np.abs(c1[:, None, :, None] * c2[None, :, None, :]) ** 2  # (prep1, prep2, x, y)
    w_cum = np.tile(np.cumsum(w.reshape(4, 4), axis=-1).T, 2)  # (x * 2 + y, record)

    if config.input_kind == "fock":
        n = np.full(trials, config.fock_n, dtype=np.min_scalar_type(config.fock_n))
        photon_number = None
    else:
        n = np.empty(trials, dtype=np.uint8)  # widened when a block draws more photons
        photon_number = stream("photon_number")
    depolarized = np.empty(trials, dtype=bool)
    # What a trial draws before its fates: 4 depolarized + 2 prep1 + prep2.
    record = np.empty(trials, dtype=np.uint8)
    # 2 (x * 2 + y) + depolarized, or 8 for a trial without photons, which draws no fates.
    branch = np.empty(trials, dtype=np.uint8)
    counts = np.empty((len(blocks), 9), dtype=np.intp)  # trials per block and branch
    prep1, prep2 = _coins(stream, "prep1", model.prep[0]), _coins(stream, "prep2", model.prep[1])
    depolarization = _coins(stream, "depolarization", model.scramble)
    branch_label = stream("branch_label")
    for i, block in enumerate(blocks):
        size = block.stop - block.start
        if photon_number is not None:
            drawn = photon_number.poisson(mean_photon, size=size)
            n = _widened(n, drawn.max())
            n[block] = drawn
        depolarized[block] = depolarization(size)
        depol = depolarized[block]
        record[block] = depol * np.uint8(4) + prep1(size) * np.uint8(2) + prep2(size)
        label = _categories(branch_label, w_cum, record[block])
        branch[block] = np.where(n[block] > 0, 2 * label + depol, 8)
        counts[i] = np.bincount(branch[block], minlength=9)

    # Each branch's trials, taken in trial order in runs of blocks that hold
    # at most _BLOCK of them.
    fate_counts = np.zeros((trials, 8), dtype=n.dtype)
    fate_rng = stream("fates")
    for d, xx, yy in itertools.product((0, 1), repeat=3):
        code = 2 * (2 * xx + yy) + d
        for span in _spans(blocks, counts[:, code]):
            rows = span.start + np.flatnonzero(branch[span] == code)
            if rows.size:
                fate_counts[rows] = fate_rng.multinomial(n[rows], model.prob[d, xx, yy])
    del branch

    # A photon-free trial's fate counts are all zero, so its record is fixed
    # by (depolarized, prep1, prep2) alone: table rows 0-7 hold those eight
    # records. The trials with photons are grouped in runs of blocks that
    # hold at most _BLOCK of them, `row` holding 8 + the group in the run;
    # then the runs' groups are grouped once more, into table rows 8, 9, ...
    columns = (record, n, *fate_counts.T[:_F_LOSTD])
    row = np.empty(trials, dtype=np.uint8)
    spans = _spans(blocks, counts[:, :8].sum(axis=1))
    members = []
    for span in spans:
        lit = np.flatnonzero(n[span] > 0)
        member, group = _distinct_rows(column[span][lit] for column in columns)
        row = _widened(row, 7 + member.size)
        row[span] = record[span]
        row[span.start + lit] = 8 + group
        members.append(span.start + lit[member])
    ends = np.cumsum([m.size for m in members])
    members = np.concatenate(members)
    member, group = _distinct_rows(column[members] for column in columns)
    first = members[member]
    row_record = np.concatenate([np.arange(8), record[first]])
    del columns, record, members
    probs = _atom_probabilities(
        model,
        np.concatenate([np.zeros((8, 8), dtype=np.int64), fate_counts[first]]),
        row_record >= 4,
        c1[row_record // 2 % 2],
        c2[row_record % 2],
    )
    # Past about two thousand photons at the default config an atom's normalization underflows (NaN rows).
    lost = int((~np.isfinite(probs).all(axis=(1, 2))).sum())
    if lost:
        raise QndsimError(
            f"Monte Carlo outcome probabilities underflow at mean photon number {mean_photon}: "
            f"{lost} of {len(member)} distinct trial records with photons have no finite probabilities"
        )
    # Each run's values of `row` become table rows.
    row = _widened(row, 7 + len(first))
    for span, part in zip(spans, np.split(group, ends[:-1])):
        row[span] = np.concatenate([np.arange(8), 8 + part]).astype(row.dtype)[row[span]]
    del group
    # z1 * 2 + z2; the cumulative outcome weights are (z1 * 2 + z2, table row).
    cumulative = probs.reshape(-1, 4).cumsum(axis=1).T

    s1_up, s2_up, click_a, click_b = (np.empty(trials, dtype=bool) for _ in range(4))
    atom_outcome = stream("atom_outcome")
    # A readout flips at the error rate 1 - fidelity.
    readout1 = _coins(stream, "readout1", 1.0 - model.readout[0])
    readout2 = _coins(stream, "readout2", 1.0 - model.readout[1])
    dark_a, dark_b = _coins(stream, "dark_a", model.p_dark[0]), _coins(stream, "dark_b", model.p_dark[1])
    for block in blocks:
        size = block.stop - block.start
        z = _categories(atom_outcome, cumulative, row[block])
        np.logical_xor(z < 2, readout1(size), out=s1_up[block])
        np.logical_xor(z % 2 == 0, readout2(size), out=s2_up[block])
        np.logical_or(fate_counts[block, _F_AHIT] > 0, dark_a(size), out=click_a[block])
        np.logical_or(fate_counts[block, _F_BHIT] > 0, dark_b(size), out=click_b[block])
    return {
        "n": n,
        "fate_counts": fate_counts,
        "depolarized": depolarized,
        "s1": s1_up,
        "s2": s2_up,
        "click_a": click_a,
        "click_b": click_b,
    }


def _tabulate(trial: Outcome, mean_photon: float, cells: Sequence[str] = CELLS) -> EstimateRow:
    """The requested table cells of one trial set, given as arrays of outcomes."""
    counts = np.zeros(16, dtype=np.intp)
    for start in range(0, trial.s1.size, _BLOCK):  # the intp index lives for one block
        s1, s2, da, db = (x[start : start + _BLOCK] for x in trial)
        # 8 s1 + 4 s2 + 2 da + db: CELL_MASKS' order
        counts += np.bincount(8 * s1.astype(np.intp) + 4 * s2 + 2 * da + db, minlength=16)
    values = cells_from_table(counts, cells)  # None where no trial was accepted
    accepted = {cell: int(counts[CELL_MASKS[cell][1]].sum()) for cell in cells}
    stderrs = {c: None if p is None else math.sqrt(p * (1.0 - p) / accepted[c]) for c, p in values.items()}
    return EstimateRow(mean_photon, values, stderrs, accepted)


def _outcomes(arrays: dict) -> Outcome:
    return Outcome(arrays["s1"], arrays["s2"], arrays["click_a"], arrays["click_b"])


def estimate(
    config: ExperimentConfig, mean_photon: float, trials: int, cells: Sequence[str] = CELLS
) -> EstimateRow:
    """Monte Carlo estimates with binomial standard errors for the requested table cells."""
    arrays = _simulate_arrays(config, mean_photon, trials)
    return _tabulate(_outcomes(arrays), mean_photon, cells)


def estimate_with_nodark(
    config: ExperimentConfig, mean_photon: float, trials: int, cells: Sequence[str] = CELLS
) -> tuple[EstimateRow, EstimateRow]:
    """`estimate`, and the same cells without the absorbing detectors' dark counts.

    Both come from one trial set. The dark clicks are drawn by their own
    streams and read by nothing else, and at dark rate 0 they are all false, so
    there a detector clicks exactly when a photon hit it. The second estimate
    is therefore `estimate(quiet_detectors(config), mean_photon, trials)`,
    sample for sample.
    """
    arrays = _simulate_arrays(config, mean_photon, trials)
    clicks = _outcomes(arrays)
    fates = arrays["fate_counts"]
    hits = clicks._replace(da=fates[:, _F_AHIT] > 0, db=fates[:, _F_BHIT] > 0)
    return _tabulate(clicks, mean_photon, cells), _tabulate(hits, mean_photon, cells)


def g2_estimate(config: ExperimentConfig, mean_photon: float, trials: int) -> tuple[G2Row, ...]:
    """Click-coincidence estimate of g2(0) and the cross-trial g2(tau != 0)."""
    arrays = _simulate_arrays(config, mean_photon, trials)
    # Byte indices: numpy casts them to intp a buffer at a time, not a copy of all trials.
    s1, s2 = arrays["s1"].view(np.uint8), arrays["s2"].view(np.uint8)
    rows = []
    for name, keep in G2_CONDITIONS.items():
        mask = keep[s1, s2]
        a = arrays["click_a"][mask]
        b = arrays["click_b"][mask]
        n_eff, na, nb = a.size, int(a.sum()), int(b.sum())
        nab = int((a & b).sum())
        if n_eff < 2 or na == 0 or nb == 0:
            rows.append(G2Row(name, None, None, None, None, "sampled"))
            continue
        g2_zero = (nab * n_eff) / (na * nb) if nab else 0.0
        g2_zero_err = (
            g2_zero * math.sqrt(1.0 / nab + 1.0 / na + 1.0 / nb) if nab else None
        )
        cross = int((a[:-1] & b[1:]).sum())
        denom = (na / n_eff) * (nb / n_eff) * (n_eff - 1)
        g2_tau = cross / denom if denom > 0 else None
        g2_tau_err = g2_tau * math.sqrt(1.0 / cross) if cross else None
        rows.append(G2Row(name, g2_zero, g2_zero_err, g2_tau, g2_tau_err, "sampled"))
    return tuple(rows)
