import dataclasses

import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, excited_emitter_state,
                    weak_coupling_warnings)


class TestLatticeParams:
    def test_valid(self):
        p = LatticeParams(8, 1.0, 2.0, 0.5, "open")
        assert p.n_modes == 16
        assert not p.periodic
        assert not p.uniform

    @pytest.mark.parametrize("kw", [
        dict(n_cells=1), dict(n_cells=2.5), dict(t1=0.0), dict(t1=-1.0),
        dict(t2=0.0), dict(gamma=-0.1), dict(boundary="twisted"),
    ])
    def test_invalid(self, kw):
        base = dict(n_cells=4, t1=1.0, t2=1.0, gamma=1.0, boundary="periodic")
        base.update(kw)
        with pytest.raises(ValueError):
            LatticeParams(**base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"),
                                       pytest.param(10 ** 400, id="10**400")])
    @pytest.mark.parametrize("key", ["t1", "t2", "gamma"])
    def test_non_finite_rejected(self, key, value):
        base = dict(n_cells=4, t1=1.0, t2=1.0, gamma=1.0)
        with pytest.raises(ValueError, match=key):
            LatticeParams(**dict(base, **{key: value}))

    def test_indices(self):
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        assert p.a_index(1) == 0
        assert p.b_index(1) == 1
        assert p.a_index(5) == 8
        assert p.b_index(5) == 9
        with pytest.raises(ValueError):
            p.check_cell(6)
        with pytest.raises(ValueError):
            p.check_cell(0)
        assert p.check_cell(np.int64(5)) == 5
        for cell in (2.0, 1.5, True, "2"):
            with pytest.raises(ValueError, match="must be an integer"):
                p.check_cell(cell)

    def test_replace(self):
        # callers vary one parameter with dataclasses.replace, which
        # validates the new value
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        q = dataclasses.replace(p, gamma=2.0, boundary="open")
        assert q.gamma == 2.0 and q.boundary == "open"
        assert p.gamma == 1.0  # original untouched
        with pytest.raises(ValueError, match="gamma"):
            dataclasses.replace(p, gamma=-1.0)


class TestEmitterLayout:
    def test_valid(self):
        lay = EmitterLayout([3, 1, 7], 0.1)
        assert lay.cells == (3, 1, 7)
        assert lay.n_emitters == 3
        lay = EmitterLayout(np.array([3, 1]), 0.1)  # drawn by numpy
        assert lay.cells == (3, 1) and type(lay.cells[0]) is int

    def test_duplicate_cells(self):
        with pytest.raises(ValueError, match="distinct"):
            EmitterLayout([2, 2], 0.1)

    def test_bad_g(self):
        with pytest.raises(ValueError):
            EmitterLayout([1], 0.0)

    @pytest.mark.parametrize("g", [float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10 ** 400, id="10**400")])
    def test_non_finite_g(self, g):
        with pytest.raises(ValueError, match="g must be finite"):
            EmitterLayout([1], g)

    def test_range_check(self):
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        EmitterLayout([1, 5], 0.1).validate_against(p)
        for c in (9, 6, 0, -1):
            with pytest.raises(ValueError,
                               match=rf"^cell index {c} out of range 1\.\.5$"):
                EmitterLayout([1, c], 0.1).validate_against(p)
        for cells in ([2.9], [True, 2], ["3"]):
            with pytest.raises(ValueError, match="must be integers"):
                EmitterLayout(cells, 0.1)


class TestWeakCouplingWarnings:
    def test_quiet_when_perturbative(self):
        p = LatticeParams(100, 1.0, 1.0, 2.0)
        assert weak_coupling_warnings(p, EmitterLayout([15], 0.05)) == []

    def test_strong_g_flagged(self):
        p = LatticeParams(4, 1.0, 1.0, 2.0)
        msgs = weak_coupling_warnings(p, EmitterLayout([1], 0.6))
        assert any("t2" in m for m in msgs)
        assert any("sqrt(N)" in m for m in msgs)


class TestExcitedEmitterState:
    def test_one_excited_emitter_and_field_vacuum(self):
        p = LatticeParams(4, 1.0, 1.0, 1.0)
        lay = EmitterLayout([2, 3], 0.1)
        v = excited_emitter_state(p, lay, which=2)
        assert v.dtype == complex and v.shape == (2 + p.n_modes,)
        assert v[1] == 1.0 and np.count_nonzero(v) == 1
        np.testing.assert_array_equal(excited_emitter_state(p, lay),
                                      np.r_[1.0, np.zeros(9)])
        with pytest.raises(ValueError):
            excited_emitter_state(p, lay, which=3)
        assert excited_emitter_state(p, lay, which=np.int64(2))[1] == 1.0
        for which in (1.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                excited_emitter_state(p, lay, which=which)
