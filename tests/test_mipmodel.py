"""Model container and MPS interchange."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resilmip
from resilmip.mipmodel import (
    MipModel,
    ModelError,
    ObjSense,
    RowSense,
    VarType,
    check_feasible,
    export_mps,
    feasibility_violations,
    parse_mps,
)


def _toy_model() -> MipModel:
    m = MipModel("toy")
    x = m.add_variable("x", 0.0, 4.0)
    y = m.add_variable("y", -1.0, 1.0)
    b = m.add_binary("flag")
    m.add_constraint("cap", [(x, 1.0), (y, 2.0)], RowSense.LE, 5.0)
    m.add_constraint("link", [(x, 1.0), (b, -4.0)], RowSense.LE, 0.0)
    m.add_constraint("tie", [(y, 1.0), (b, 1.0)], RowSense.GE, 0.5)
    m.set_objective([(x, 1.0), (y, 1.0)], ObjSense.MAXIMIZE)
    return m


class TestConstruction:
    def test_duplicate_names_rejected(self):
        m = MipModel()
        m.add_variable("x", 0, 1)
        with pytest.raises(ModelError):
            m.add_variable("x", 0, 2)

    def test_unknown_variable_in_row(self):
        m = MipModel()
        m.add_variable("x", 0, 1)
        with pytest.raises(ModelError):
            m.add_constraint("r", [(99, 1.0)], RowSense.LE, 0.0)

    def test_binary_bounds_must_fit_unit_interval(self):
        m = MipModel()
        with pytest.raises(ModelError):
            m.add_variable("b", 0.0, 2.0, vtype=VarType.BINARY)

    def test_nan_rejected(self):
        m = MipModel()
        with pytest.raises(ModelError):
            m.add_variable("x", math.nan, 1.0)
        x = m.add_variable("x", 0.0, 1.0)
        with pytest.raises(ModelError):
            m.add_constraint("r", [(x, math.nan)], RowSense.LE, 0.0)

    def test_frozen_blocks_structure_but_not_warm_start(self):
        m = _toy_model().freeze()
        with pytest.raises(ModelError):
            m.add_variable("z", 0, 1)
        m.set_warm_start({0: 1.0, 1: 0.0, 2: 0.0})  # allowed: advisory only

    def test_zero_coefficients_dropped(self):
        m = MipModel()
        x = m.add_variable("x", 0, 1)
        y = m.add_variable("y", 0, 1)
        rid = m.add_constraint("r", [(x, 0.0), (y, 1.0)], RowSense.LE, 1.0)
        assert m.constraints[rid].coefs == ((y, 1.0),)


class TestFeasibility:
    def test_detects_each_violation_kind(self):
        m = _toy_model()
        ok = {0: 4.0, 1: 0.5, 2: 1.0}
        assert check_feasible(m, ok, 1e-9)
        assert not check_feasible(m, {0: 5.0, 1: 0.5, 2: 1.0}, 1e-9)  # bound
        assert not check_feasible(m, {0: 4.0, 1: 0.5, 2: 0.5}, 1e-9)  # integrality
        assert not check_feasible(m, {0: 4.0, 1: 1.0, 2: 1.0}, 1e-9)  # row cap
        msgs = feasibility_violations(m, {0: 4.0, 1: 1.0, 2: 1.0}, 1e-9)
        assert any("cap" in t for t in msgs)

    def test_missing_variable_raises(self):
        m = _toy_model()
        with pytest.raises(ModelError, match="missing"):
            check_feasible(m, {0: 0.0}, 1e-9)

    def test_tolerance_is_absolute(self):
        m = MipModel()
        x = m.add_variable("x", 0.0, 1.0)
        m.add_constraint("r", [(x, 1.0)], RowSense.LE, 0.5)
        assert check_feasible(m, {x: 0.5 + 1e-8}, 1e-7)
        assert not check_feasible(m, {x: 0.5 + 1e-6}, 1e-7)


class TestMps:
    def test_round_trip_preserves_solution_set(self):
        m = _toy_model()
        text = export_mps(m)
        m2 = parse_mps(text)
        assert m2.num_variables == m.num_variables
        assert m2.num_constraints == m.num_constraints
        assert len(m2.binary_ids) == 1
        # objective and senses survive
        assert m2.obj_sense is ObjSense.MAXIMIZE
        d1 = m.dense_arrays()
        d2 = m2.dense_arrays()
        assert np.allclose(d1.c, d2.c)
        assert np.allclose(d1.a, d2.a)
        assert np.allclose(d1.rhs, d2.rhs)
        assert np.allclose(d1.lo, d2.lo)
        assert np.allclose(d1.hi, d2.hi)
        assert d1.senses == d2.senses

    def test_round_trip_is_idempotent_text(self):
        m = _toy_model()
        t1 = export_mps(m)
        t2 = export_mps(parse_mps(t1))
        assert t1.splitlines()[1:] == t2.splitlines()[1:]  # NAME line may differ

    def test_values_survive_17_digits(self):
        m = MipModel("prec")
        x = m.add_variable("x", 0.0, 1.0 / 3.0)
        m.add_constraint("r", [(x, math.pi)], RowSense.LE, math.e)
        m.set_objective([(x, 1.0)], ObjSense.MINIMIZE)
        m2 = parse_mps(export_mps(m))
        assert m2.variables[0].hi == 1.0 / 3.0
        assert m2.constraints[0].coefs[0][1] == math.pi
        assert m2.constraints[0].rhs == math.e

    def test_long_names_are_mangled_deterministically(self):
        m = MipModel("names")
        x = m.add_variable("a_variable_with_a_very_long_name", 0, 1)
        y = m.add_variable("short", 0, 1)
        m.add_constraint("another_quite_long_row_name", [(x, 1.0), (y, 1.0)],
                         RowSense.LE, 1.0)
        t1 = export_mps(m)
        t2 = export_mps(m)
        assert t1 == t2
        assert "short" in t1  # legal names survive
        m2 = parse_mps(t1)
        assert m2.num_variables == 2

    def test_infinite_bounds(self):
        m = MipModel("free")
        x = m.add_variable("x", -math.inf, math.inf)
        y = m.add_variable("y", -math.inf, 3.0)
        m.add_constraint("r", [(x, 1.0), (y, 1.0)], RowSense.GE, 0.0)
        m2 = parse_mps(export_mps(m))
        assert m2.variables[0].lo == -math.inf and m2.variables[0].hi == math.inf
        assert m2.variables[1].lo == -math.inf and m2.variables[1].hi == 3.0

    def test_fixed_variable_uses_fx(self):
        m = MipModel("fx")
        m.add_variable("x", 2.5, 2.5)
        text = export_mps(m)
        assert " FX " in text
        m2 = parse_mps(text)
        assert m2.variables[0].lo == m2.variables[0].hi == 2.5

    def test_objsense_always_written(self):
        for sense in (ObjSense.MINIMIZE, ObjSense.MAXIMIZE):
            m = MipModel("s")
            x = m.add_variable("x", 0, 1)
            m.set_objective([(x, 1.0)], sense)
            text = export_mps(m)
            assert "OBJSENSE" in text
            assert ("MAX" in text) == (sense is ObjSense.MAXIMIZE)

    def test_parse_rejects_ranges_section(self):
        bad = "\n".join([
            "NAME          t", "ROWS", " N  OBJ", " L  r1", "COLUMNS",
            "    x         OBJ       1.0   r1        1.0",
            "RANGES", "    rng       r1        1.0", "ENDATA",
        ])
        with pytest.raises(ModelError, match="RANGES"):
            parse_mps(bad)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ModelError):
            parse_mps("this is not an mps file")


def test_every_public_name_resolves():
    assert [name for name in resilmip.__all__ if not hasattr(resilmip, name)] == []
    # export_mps is the one text form of a model
    assert "format_lp" not in resilmip.__all__


names = st.integers(0, 10_000)


@given(
    n_vars=st.integers(1, 6),
    seed=st.integers(0, 9999),
)
@settings(max_examples=40)
def test_mps_round_trip_random_models(n_vars, seed):
    """Random small models survive export -> parse with identical dense forms."""
    rng = np.random.default_rng(seed)
    m = MipModel(f"r{seed}")
    ids = []
    for i in range(n_vars):
        if rng.random() < 0.3:
            ids.append(m.add_binary(f"b{i}"))
        else:
            lo = float(rng.normal(0, 2))
            ids.append(m.add_variable(f"v{i}", lo, lo + float(rng.random() * 3)))
    for r in range(int(rng.integers(1, 5))):
        coefs = [(v, float(rng.normal())) for v in ids if rng.random() < 0.7]
        coefs = [(v, c) for v, c in coefs if c != 0.0]
        if not coefs:
            continue
        sense = [RowSense.LE, RowSense.GE, RowSense.EQ][int(rng.integers(3))]
        m.add_constraint(f"r{r}", coefs, sense, float(rng.normal()))
    m.set_objective([(v, float(rng.normal())) for v in ids],
                    ObjSense.MAXIMIZE if rng.random() < 0.5 else ObjSense.MINIMIZE)
    m2 = parse_mps(export_mps(m))
    d1, d2 = m.dense_arrays(), m2.dense_arrays()
    assert np.array_equal(d1.c, d2.c)
    assert np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.rhs, d2.rhs)
    assert np.array_equal(d1.lo, d2.lo)
    assert np.array_equal(d1.hi, d2.hi)
    assert d1.senses == d2.senses
    assert d1.binary_ids == d2.binary_ids
    assert d1.maximize == d2.maximize
