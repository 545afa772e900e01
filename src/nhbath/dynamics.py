"""Non-unitary time evolution and derived observables."""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_array, diags_array, eye_array, kron

from .params import require_count, require_index, require_positive

_GROUP = 8  # samples of a chunk read out of its terms by one product
_X_MAX = 4  # largest x = alpha_2 T/s that one Taylor expansion spans


def _taylor_degree(x: float) -> int:
    """Least m with x^(m+1)/(m+1)! * e^x <= 2^-53: then the degree-m Taylor
    polynomial T_m(B) of exp(B) obeys ||exp(B) - T_m(B)||_1 <= 2^-53 for
    every matrix B with ||B||_1 <= x, normal or not."""
    m, bound = 0, x * math.exp(x)
    while bound > 2.0 ** -53:
        m += 1
        bound *= x / (m + 1)
    return m


def _chunks(alpha: float, times: np.ndarray):
    """The plan of `_taylor_steps` at alpha_2(B) = `alpha`: (i, j, s, m) for
    each chunk times[i..j]: the most intervals (at least one) whose span T
    keeps x = alpha * T <= _X_MAX, in s = max(1, ceil(x/_X_MAX)) substeps of
    degree m = _taylor_degree(x/s), at least the 1 the bound in alpha_2
    needs."""
    i = 0
    while i < times.size - 1:
        j = i + max(1, int(np.searchsorted(alpha * (times[i:] - times[i]),
                                           _X_MAX, side="right")) - 1)
        x = alpha * (times[j] - times[i])
        s = max(1, math.ceil(x / _X_MAX))
        yield i, j, s, max(1, _taylor_degree(x / s))
        i = j


def _taylor_steps(H: csr_array, diag: np.ndarray, psi: np.ndarray,
                  times: np.ndarray):
    """Yield at every sample time the block of states (dim, n_sys) whose
    column k solves i d(psi)/dt = (H + diag(diag[:, k])) psi from column k
    of `psi`: every system shares the CSR H; `evolve` is one column.

    Each system is shifted by its mean diagonal mu (Al-Mohy & Higham, SIAM
    J. Sci. Comput. 33, 488 (2011), §3.1), which a sample at offset tau into
    a chunk of `_chunks` takes as the exact factor exp(-i mu tau).  On the
    traceless part B = H + diag(diag[:, k] - mu) each chunk of span T forms
    once per substep the terms v_j = (-i B T/s)^j psi / j!, j <= m (their
    §5), each one product by H as assembled and one by the shifted
    diagonal; the sample is sum_j (tau/T)^j v_j, and up to `_GROUP` samples
    are read out as one real product.

    The plan is a-priori: alpha_2 = max(||B^2||_1^(1/2), ||B^3||_1^(1/3)),
    exact, from the block-diagonal B (the largest over systems), bounds the
    remainder of the degree-m series at B tau by the scalar one at alpha_2
    tau for any matrix once m >= 1 (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970 (2009), Thm 4.2).  alpha_2 <= ||B||_1; on this lattice,
    where B^2 cancels much of B, it is about half.  At x = alpha_2 T/s in
    (2, 4] the degree is 24-33: a unit of alpha_2 t costs about 8-12
    products however fine the grid, and the rounding stays small.
    """
    shift = (H.diagonal()[:, None] + diag).mean(axis=0)
    diag = diag - shift
    B = kron(eye_array(shift.size), H, format="csr") \
        + diags_array(diag.ravel(order="F"), format="csr")
    B2 = B @ B
    plan = list(_chunks(max(abs(B2).sum(axis=0).max() ** (1 / 2),
                            abs(B2 @ B).sum(axis=0).max() ** (1 / 3)), times))
    del B, B2  # before the term stack is allocated
    terms = np.empty((max(m for *_, m in plan) + 1,) + psi.shape, complex)
    yield psi
    for i, j, s, m in plan:
        span = float(times[j] - times[i])
        v = terms[:m + 1]
        for sub in range(s):
            v[0] = v.sum(axis=0) if sub else psi
            for k, (prev, term) in enumerate(zip(v, v[1:]), 1):
                np.multiply(diag, prev, out=term)
                term += H @ prev
                term *= -1j * span / (s * k)
        flat = v.reshape(m + 1, -1).view(float)
        taus = times[i + 1:j + 1] - times[i]
        for tau in np.split(taus, range(_GROUP, taus.size, _GROUP)):
            out = ((tau[:, None] / span) ** np.arange(m + 1) @ flat).view(
                complex).reshape(tau.shape + psi.shape)
            out *= np.exp(-1j * shift * tau[:, None, None])
            yield from out
        psi = out[-1]


def _time_grid(times) -> np.ndarray:
    """`times` as floats after the checks of every time grid: finite, 1-D,
    at least two samples, starting at 0 and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"sample times must be finite, got {times}")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two sample times")
    if abs(times[0]) > 1e-15:
        raise ValueError("time grid must start at t = 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _checked(hamiltonian, initial, n_emitters, times):
    """(CSR H, initial vector, float times) after the checks every
    propagation makes: a valid time grid (`_time_grid`), finite H and
    state of matching dimensions, and an even number of photon amplitudes
    after the `n_emitters` emitter ones."""
    times = _time_grid(times)
    H = csr_array(hamiltonian, dtype=complex)
    if not np.all(np.isfinite(H.data)):
        raise ValueError("hamiltonian contains non-finite entries")
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.ndim != 1 or not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be a vector of finite amplitudes")
    require_count("n_emitters", n_emitters, 0)
    if n_emitters > psi0.size or (psi0.size - n_emitters) % 2:
        raise ValueError(f"{psi0.size} amplitudes are not {n_emitters} "
                         "emitters followed by two per cell")
    if H.shape != (psi0.size, psi0.size):
        raise ValueError("state dimension does not match the hamiltonian")
    return H, psi0, times


def evolve(hamiltonian, initial, n_emitters: int,
           times: Sequence[float]) -> np.ndarray:
    """Propagate the amplitude vector `initial` (its first `n_emitters`
    entries the emitters', the rest the photon modes') under `hamiltonian`
    (CSR, or anything `csr_array` takes) and sample at `times`: row k of the
    returned (n_steps, n_emitters + 2N) array is the state at `times[k]`.

    Times must be finite, start at 0 and increase; H and the state must be
    finite.  The state is the one column of `_taylor_steps`: one bounded
    Taylor expansion per chunk of intervals with alpha_2(H - mu I) T <= 4.
    """
    H, psi0, times = _checked(hamiltonian, initial, n_emitters, times)
    amps = np.empty((times.size, psi0.size), dtype=complex)
    for k, psi in enumerate(_taylor_steps(H, np.zeros((psi0.size, 1)),
                                          psi0[:, None], times)):
        amps[k] = psi[:, 0]
    return amps


def stacked_cell_weights(hamiltonian, gammas: Sequence[float], initial,
                         n_emitters: int,
                         times: Sequence[float]) -> Iterator[np.ndarray]:
    """Photon weight per cell of every system, one (n_gammas, N) array per
    sample time, yielded as the stepper reaches it.

    System k is `hamiltonian` plus the loss -i gammas[k] on every b site
    (photon index n_emitters + 2c + 1 of cell c).  Propagates `initial` in
    each, as and under the checks of `evolve`, as the columns of one block
    of `_taylor_steps`.  The checks run at the call and the stepping as the
    samples are drawn, so a consumer that stops early (`time_average`)
    steps no further.
    """
    H, psi0, times = _checked(hamiltonian, initial, n_emitters, times)
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or not gammas.size \
            or not (np.isfinite(gammas) & (gammas >= 0)).all():
        raise ValueError("need a 1-D array of finite, non-negative loss rates, "
                         f"at least one, got {gammas}")
    loss = np.zeros((psi0.size, gammas.size), dtype=complex)
    loss[n_emitters + 1::2] = -1j * gammas
    block = np.repeat(psi0[:, None], gammas.size, axis=1)
    return (cell_weights(np.abs(psi[n_emitters:].T) ** 2)
            for psi in _taylor_steps(H, loss, block, times))


def time_average(times: Sequence[float], samples,
                 t_average: float) -> np.ndarray:
    """Trapezoid average over [0, t_average] of one array per sample time.

    `samples` is an (n_steps, ...) array or any iterable that yields the
    arrays in time order, such as `stacked_cell_weights`.  The window must
    be positive, within the grid's span (a grid as `evolve` takes) and hold
    at least two samples; it ends at the last sample at or before
    t_average, and no later sample is drawn.  The interval terms
    dt_k (w_(k+1) + w_k) / 2.0 are added in k order and their sum divided
    by the window's span: `np.trapezoid`'s arithmetic along axis 0 for
    samples of more than one element (a 1-D array numpy sums pairwise).
    """
    require_positive("t_average", t_average)
    times = _time_grid(times)
    if t_average > times[-1] + 1e-12:
        raise ValueError("t_average exceeds the sampled time span")
    n = int(np.searchsorted(times, t_average + 1e-12, side="right"))
    if n < 2:
        raise ValueError(f"t_average {t_average} is shorter than the first "
                         f"time step {times[1]}")
    if hasattr(samples, "__len__") and len(samples) != times.size:
        raise ValueError(f"need one sample per time, {times.size}, "
                         f"got {len(samples)}")
    k, prev = -1, None
    for k, w in zip(range(n), samples):  # draws no sample past n - 1
        w = np.asarray(w, dtype=float)
        if k:
            if w.shape != prev.shape:
                raise ValueError(f"sample {k} has shape {w.shape}, "
                                 f"not {prev.shape}")
            term = (times[k] - times[k - 1]) * (w + prev) / 2.0
            total = term if k == 1 else total + term
        prev = w
    if k < n - 1:
        raise ValueError(f"need {n} samples in the window, got {k + 1}")
    return total / (times[n - 1] - times[0])


def emitter_populations(amplitudes: np.ndarray, n_emitters: int) -> np.ndarray:
    """|amplitude|^2 of every emitter at every sample of `evolve`'s array,
    shape (n_steps, n_emitters)."""
    return np.abs(amplitudes[:, :n_emitters]) ** 2


def photon_density(amplitudes: np.ndarray, n_emitters: int) -> np.ndarray:
    """Original-picture photon mode populations of `evolve`'s array, shape
    (n_steps, 2N); the mapped ones are
    np.abs(rotate_cells(amplitudes[:, n_emitters:])) ** 2."""
    return np.abs(amplitudes[:, n_emitters:]) ** 2


def cell_weights(density: np.ndarray) -> np.ndarray:
    """Photon weight per cell, a + b, from mode populations (..., 2N) ->
    (..., N)."""
    return density[..., 0::2] + density[..., 1::2]


def localization_report(weights: np.ndarray, atom_cell: int,
                        periodic: bool = False) -> np.ndarray:
    """Split of the photonic weight around an emitter's cell.

    Takes time-averaged cell weights, shape (..., N) (see `time_average`
    and `cell_weights`), and returns the float array (..., 3) of
    (P_loc, P_L, P_R) for each.  The probabilities are conditioned on the
    photon being in the field and sum to 1.  "Local" means the emitter's
    cell and the one to its right (cells are 1-based; on the ring,
    `periodic`, the local pair of cell N is (N, 1)), the pair that hosts
    the bound photonic cloud in the fully directional regime; left and
    right are the other cells below and above the emitter's.
    """
    if np.ndim(weights) < 1:
        raise ValueError("need cell weights of shape (..., N), got a scalar")
    # C order: numpy sums each row pairwise only when the row is contiguous
    weights = np.ascontiguousarray(weights, dtype=float)
    n_cells = weights.shape[-1]
    require_index("atom_cell", atom_cell, n_cells)
    c = atom_cell - 1
    wrap = periodic and atom_cell == n_cells  # cell 1 is cell N's partner
    local = weights[..., c] + (weights[..., (c + 1) % n_cells]
                               if c + 1 < n_cells or wrap else 0.0)
    left = weights[..., int(wrap):c].sum(axis=-1)
    right = weights[..., c + 2:].sum(axis=-1)
    total = local + left + right
    if (total <= 0).any():
        raise ValueError("no photonic weight accumulated; nothing to localize")
    return np.stack([local, left, right], axis=-1) / total[..., None]


def fit_decay_rate(times: Sequence[float], population: Sequence[float],
                   t_min: float, t_max: float) -> float:
    """Exponential decay rate of a population from a log-linear fit.

    Fits log(p) = -rate * t + c over t_min <= t <= t_max and returns rate,
    the decay rate of the series it is given.  Fed a population |c|^2 it
    returns the population rate: for an emitter with self-energy -i Gamma
    (amplitude ~ exp(-Gamma t)) that rate is 2 Gamma, not Gamma.
    """
    times = np.asarray(times, dtype=float)
    population = np.asarray(population, dtype=float)
    mask = (times >= t_min) & (times <= t_max) & (population > 0)
    if mask.sum() < 2:
        raise ValueError("fit window contains fewer than two usable samples")
    slope = np.polyfit(times[mask], np.log(population[mask]), 1)[0]
    return float(-slope)
