"""Tests for the T-SQL-style function schemas."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SHORT_HEADER_SIZE,
    SHORT_MAX_BLOB_BYTES,
    ShapeError,
    ShortArrayLimitError,
    SqlArray,
    STORAGE_MAX,
    STORAGE_SHORT,
    StorageClassError,
    TypeMismatchError,
)
from repro.tsql import (
    BigIntArray,
    ComplexArray,
    FloatArray,
    FloatArrayMax,
    FromString,
    IntArray,
    NAMESPACES,
    namespace_for,
)


class TestRegistry:
    def test_every_dtype_has_short_and_max_schema(self):
        # 8 element types x 2 storage classes.
        assert len(NAMESPACES) == 16
        assert "FloatArray" in NAMESPACES
        assert "FloatArrayMax" in NAMESPACES
        assert "TinyIntArrayMax" in NAMESPACES

    def test_namespace_for(self):
        assert namespace_for("float64", STORAGE_SHORT) is FloatArray
        assert namespace_for("float64", STORAGE_MAX) is FloatArrayMax
        assert namespace_for("bigint", STORAGE_SHORT) is BigIntArray


class TestPaperExamples:
    """The exact T-SQL snippets from Section 5.1."""

    def test_vector_5_and_item_1(self):
        a = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
        assert FloatArray.Item_1(a, 3) == 4.0  # "third (zero indexed)"

    def test_matrix_2_and_item_2(self):
        m = FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4)
        assert FloatArray.Item_2(m, 1, 0) == pytest.approx(0.2)

    def test_subarray_5_cube(self):
        big = SqlArray.from_numpy(
            np.arange(10 ** 3, dtype="f8").reshape(10, 10, 10),
            storage=STORAGE_MAX)
        b = FloatArrayMax.Subarray(
            big.to_blob(),
            IntArray.Vector_3(1, 4, 4),
            IntArray.Vector_3(5, 5, 5), 0)
        assert SqlArray.from_blob(b).shape == (5, 5, 5)

    def test_update_item_1(self):
        a = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
        b = FloatArray.UpdateItem_1(a, 3, 4.5)
        assert FloatArray.Item_1(b, 3) == 4.5


class TestNumberedVariants:
    def test_vector_arity_enforced(self):
        with pytest.raises(ShapeError):
            FloatArray.Vector_3(1.0, 2.0)

    def test_matrix_n_takes_n_squared(self):
        m = FloatArray.Matrix_3(*range(9))
        assert SqlArray.from_blob(m).shape == (3, 3)
        with pytest.raises(ShapeError):
            FloatArray.Matrix_3(1.0, 2.0, 3.0)

    def test_item_arity_enforced(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(ShapeError):
            FloatArray.Item_2(m, 0)

    def test_zeros_and_fill(self):
        z = IntArray.Zeros_2(3, 4)
        assert IntArray.Count(z) == 12
        assert IntArray.Sum(z) == 0
        f = IntArray.Fill_1(7, 5)
        assert IntArray.Sum(f) == 35

    def test_all_numbered_variants_exist(self):
        for n in range(1, 11):
            assert callable(getattr(FloatArray, f"Vector_{n}"))
        for n in range(1, 7):
            assert callable(getattr(FloatArray, f"Item_{n}"))
            assert callable(getattr(FloatArray, f"UpdateItem_{n}"))


class TestTypeAndStorageChecks:
    """The runtime mismatch detection of Section 3.5."""

    def test_wrong_dtype_rejected(self):
        a = IntArray.Vector_2(1, 2)
        with pytest.raises(TypeMismatchError):
            FloatArray.Item_1(a, 0)

    def test_wrong_storage_rejected(self):
        a = FloatArray.Vector_2(1.0, 2.0)
        with pytest.raises(StorageClassError):
            FloatArrayMax.Item_1(a, 0)

    def test_garbage_blob_rejected(self):
        from repro.core import HeaderError
        with pytest.raises(HeaderError):
            FloatArray.Item_1(b"garbage bytes here", 0)


class TestShapeIntrospection:
    def test_rank_count_dims(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        assert FloatArray.Rank(m) == 2
        assert FloatArray.Count(m) == 4
        assert FloatArray.DimSize(m, 0) == 2
        dims = SqlArray.from_blob(FloatArray.Dims(m))
        np.testing.assert_array_equal(dims.to_numpy(), [2, 2])

    def test_dimsize_out_of_range(self):
        from repro.core import BoundsError
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(BoundsError):
            FloatArray.DimSize(m, 2)


class TestConversionsAndStrings:
    def test_raw_cast_roundtrip(self):
        a = FloatArray.Vector_3(1.0, 2.0, 3.0)
        raw = FloatArray.Raw(a)
        assert len(raw) == 24
        back = FloatArray.Cast(raw, IntArray.Vector_1(3))
        assert back == a

    def test_reshape(self):
        a = FloatArray.Vector_4(1.0, 2.0, 3.0, 4.0)
        m = FloatArray.Reshape(a, IntArray.Vector_2(2, 2))
        assert SqlArray.from_blob(m).shape == (2, 2)
        assert FloatArray.Item_2(m, 1, 0) == 2.0  # column-major order

    def test_storage_class_conversion(self):
        a = FloatArray.Vector_2(1.0, 2.0)
        m = FloatArray.ToMax(a)
        assert SqlArray.from_blob(m).storage == STORAGE_MAX
        s = FloatArrayMax.ToShort(m)
        assert SqlArray.from_blob(s).storage == STORAGE_SHORT

    def test_convert_to_other_type(self):
        a = IntArray.Vector_3(1, 2, 3)
        f = IntArray.ConvertTo(a, "float64")
        arr = SqlArray.from_blob(f)
        assert arr.dtype.name == "float64"
        assert arr.storage == STORAGE_SHORT

    def test_to_string_from_string(self):
        a = FloatArray.Vector_2(1.5, 2.5)
        text = FloatArray.ToString(a)
        assert FromString(text) == a


class TestTableConversion:
    def test_to_table(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        rows = list(FloatArray.ToTable(m))
        assert rows[0] == (0, 0, 1.0)
        assert len(rows) == 4

    def test_concat_reader_style(self):
        rows = [(IntArray.Vector_2(i % 2, i // 2), float(i))
                for i in range(6)]
        a = FloatArray.Concat(rows, IntArray.Vector_2(2, 3))
        arr = SqlArray.from_blob(a)
        assert arr.shape == (2, 3)
        assert FloatArray.Item_2(a, 1, 2) == 5.0


class TestAggregatesAndArithmetic:
    def test_scalar_aggregates(self):
        a = FloatArray.Vector_4(1.0, 2.0, 3.0, 4.0)
        assert FloatArray.Sum(a) == 10.0
        assert FloatArray.Mean(a) == 2.5
        assert FloatArray.Min(a) == 1.0
        assert FloatArray.Max(a) == 4.0

    def test_axis_aggregates(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        sums = FloatArray.SumAxis(m, 0)
        np.testing.assert_array_equal(
            SqlArray.from_blob(sums).to_numpy(), [3.0, 7.0])

    def test_arithmetic(self):
        a = FloatArray.Vector_2(1.0, 2.0)
        b = FloatArray.Vector_2(3.0, 4.0)
        assert FloatArray.Sum(FloatArray.Add(a, b)) == 10.0
        assert FloatArray.Dot(a, b) == 11.0
        scaled = FloatArray.Scale(a, 10)
        assert FloatArray.Item_1(scaled, 1) == 20.0

    def test_result_coerced_to_schema_dtype(self):
        # Divide of ints promotes to float in numpy; the Int schema
        # casts the result back, like the T-SQL function signature
        # would.
        a = IntArray.Vector_2(4, 9)
        b = IntArray.Vector_2(2, 3)
        out = SqlArray.from_blob(IntArray.Divide(a, b))
        assert out.dtype.name == "int32"
        np.testing.assert_array_equal(out.to_numpy(), [2, 3])


class TestComplexSchema:
    def test_complex_vector(self):
        a = ComplexArray.Vector_2(1 + 2j, 3 - 1j)
        assert ComplexArray.Item_1(a, 0) == 1 + 2j
        assert ComplexArray.Sum(a) == 4 + 1j


class TestVectorConstructor:
    """``Vector``/``Vector_N`` assemble the blob themselves; it must be
    the blob — or the error — of the ``SqlArray`` round trip they used
    to make."""

    SCALARS = st.one_of(
        st.integers(-2 ** 70, 2 ** 70),
        st.integers(-200, 200),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(width=32),
        st.sampled_from([1e39, -3.5e38, 3.4028235e38, 1e-46, -0.0,
                         2 ** 31, -2 ** 31 - 1, 2 ** 63, 127, 128,
                         "12", "1.5", "x", None]),
        st.complex_numbers(allow_nan=False),
        st.builds(np.float64, st.floats(allow_nan=False)),
        st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)))

    @staticmethod
    def outcome(build):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # float32 overflow to inf
            try:
                return build()
            except Exception as exc:
                return type(exc), str(exc)

    @pytest.mark.parametrize("name", sorted(NAMESPACES))
    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(SCALARS, max_size=12))
    def test_bit_identical_to_the_sqlarray_round_trip(self, name,
                                                      values):
        ns = NAMESPACES[name]
        want = self.outcome(lambda: SqlArray.from_values(
            [ns._scalar(v) for v in values], ns.dtype,
            ns.storage).to_blob())
        assert self.outcome(lambda: ns.Vector(values)) == want
        assert self.outcome(lambda: ns.Vector(iter(values))) == want
        numbered = getattr(ns, f"Vector_{len(values)}", None)
        if numbered is not None:
            assert self.outcome(lambda: numbered(*values)) == want

    @pytest.mark.parametrize("name", sorted(NAMESPACES))
    def test_length_over_the_short_limit(self, name):
        ns = NAMESPACES[name]
        fits = (SHORT_MAX_BLOB_BYTES - SHORT_HEADER_SIZE) \
            // ns.dtype.itemsize
        for n in (fits, fits + 1):
            values = [1] * n
            want = self.outcome(lambda: SqlArray.from_values(
                values, ns.dtype, ns.storage).to_blob())
            assert self.outcome(lambda: ns.Vector(values)) == want
            if ns.storage == STORAGE_SHORT and n > fits:
                assert want[0] is ShortArrayLimitError
            else:
                assert isinstance(want, bytes)

    def test_a_failed_length_is_not_remembered(self):
        with pytest.raises(ShortArrayLimitError):
            FloatArray.Vector([0.0] * 1000)
        with pytest.raises(ShortArrayLimitError):
            FloatArray.Vector([0.0] * 1000)
        assert FloatArray.Vector_2(1, 2) == FloatArray.Vector([1, 2])
