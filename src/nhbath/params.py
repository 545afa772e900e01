"""Model parameters, emitter layout and the single-excitation initial state."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PERIODIC = "periodic"
OPEN = "open"
BOUNDARIES = (PERIODIC, OPEN)


def finite(val) -> bool:
    """True for NaN-free, infinity-free numbers inside the float range."""
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def require_positive(name: str, val) -> None:
    """Raise ValueError unless `val` is a finite number > 0."""
    if not (finite(val) and val > 0):
        raise ValueError(f"{name} must be finite and positive, got {val}")


def integer(val) -> bool:
    """True for Python and numpy integers; a bool is not a count or index."""
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def require_count(name: str, val, least: int) -> None:
    """Raise ValueError unless `val` is an integer >= least."""
    if not (integer(val) and val >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {val!r}")


def require_index(name: str, val, n: int) -> None:
    """Raise ValueError unless `val` is an integer in 1..n (a 1-based index)."""
    if not integer(val):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    if not 1 <= val <= n:
        raise ValueError(f"{name} {val} out of range 1..{n}")


@dataclass(frozen=True)
class LatticeParams:
    """Two-band lossy cavity array: N cells, each holding a neutral cavity (a)
    and a lossy cavity (b) with loss rate gamma.

    t1 is the intra-cell hopping, t2 sets the scale of all inter-cell
    hoppings (the uniform model has t1 == t2 == J).  All cavity frequencies
    are taken as the zero of energy.
    """

    n_cells: int
    t1: float
    t2: float
    gamma: float
    boundary: str = PERIODIC

    def __post_init__(self):
        require_count("n_cells", self.n_cells, 2)
        require_positive("t1", self.t1)
        require_positive("t2", self.t2)
        if not (finite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    @property
    def n_modes(self) -> int:
        """Number of photon modes (two per cell)."""
        return 2 * self.n_cells

    @property
    def uniform(self) -> bool:
        """True when t1 == t2 (the single-hopping-rate model)."""
        return abs(self.t1 - self.t2) <= 1e-12 * max(self.t1, self.t2)

    def a_index(self, cell: int) -> int:
        """Photon-block index of the neutral cavity of `cell` (1-based)."""
        return 2 * (cell - 1)

    def b_index(self, cell: int) -> int:
        """Photon-block index of the lossy cavity of `cell` (1-based)."""
        return 2 * (cell - 1) + 1

    def check_cell(self, cell: int) -> int:
        require_index("cell index", cell, self.n_cells)
        return cell


@dataclass(frozen=True)
class EmitterLayout:
    """Emitters locally coupled (strength g) to the lossy cavity of the
    listed cells (1-based, distinct)."""

    cells: tuple
    g: float

    def __init__(self, cells: Iterable[int], g: float):
        cells = tuple(cells)
        if not all(map(integer, cells)):
            raise ValueError(f"emitter cells must be integers, got {cells}")
        cells = tuple(map(int, cells))
        if len(cells) == 0:
            raise ValueError("layout needs at least one emitter")
        if len(set(cells)) != len(cells):
            raise ValueError(f"emitter cells must be distinct, got {cells}")
        require_positive("g", g)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "g", float(g))

    @property
    def n_emitters(self) -> int:
        return len(self.cells)

    def validate_against(self, params: LatticeParams) -> None:
        """Raise ValueError unless every cell lies in 1..N (the constructor
        has already checked that each is an integer)."""
        for c in self.cells:
            if not 1 <= c <= params.n_cells:
                raise ValueError(f"cell index {c} out of range 1..{params.n_cells}")


def weak_coupling_warnings(params: LatticeParams, layout: EmitterLayout) -> list:
    """Diagnostics for the validity of second-order (weak-coupling) results.

    Returns a list of human-readable messages; empty when g is comfortably
    perturbative.
    """
    msgs = []
    n = params.n_cells
    if layout.g >= 0.3 * params.t2:
        msgs.append(
            f"g = {layout.g} is not small against the hopping t2 = {params.t2}; "
            "second-order results are unreliable")
    if params.gamma > 0 and layout.g >= params.gamma / np.sqrt(n):
        msgs.append(
            f"g = {layout.g} >= gamma/sqrt(N) = {params.gamma / np.sqrt(n):.4g}; "
            "extended dressed states are not normalized to leading order")
    if layout.g >= params.t2 / np.sqrt(n):
        msgs.append(
            f"g = {layout.g} >= t2/sqrt(N) = {params.t2 / np.sqrt(n):.4g}; "
            "boundary-condition insensitivity of the induced couplings may degrade")
    return msgs


def excited_emitter_state(params: LatticeParams, layout: EmitterLayout,
                          which: int = 1) -> np.ndarray:
    """Field vacuum with emitter number `which` (1-based) excited: the
    complex amplitude vector of the single excitation in the original
    picture, emitters first (layout order), then cells 1..N with the two
    cavities (a, b) per cell."""
    require_index("emitter index", which, layout.n_emitters)
    psi = np.zeros(layout.n_emitters + params.n_modes, dtype=complex)
    psi[which - 1] = 1.0
    return psi
