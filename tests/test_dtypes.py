"""Tests for the data type system (wrapping, packing, casting)."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.dtypes import (
    ALL_DTYPES,
    BOOLEAN,
    DOUBLE,
    INT8,
    INT16,
    INT32,
    SINGLE,
    UINT8,
    UINT16,
    UINT32,
    common_dtype,
    dtype_by_name,
    saturate_cast,
    wrap,
)
from repro.errors import TypeError_

INT_TYPES = [INT8, INT16, INT32, UINT8, UINT16, UINT32]


class TestLookup:
    def test_by_name(self):
        assert dtype_by_name("int32") is INT32
        assert dtype_by_name("boolean") is BOOLEAN

    def test_aliases(self):
        assert dtype_by_name("bool") is BOOLEAN
        assert dtype_by_name("float32") is SINGLE
        assert dtype_by_name("float64") is DOUBLE

    def test_unknown_raises(self):
        with pytest.raises(TypeError_):
            dtype_by_name("int128")

    def test_sizes(self):
        assert [d.size for d in (INT8, INT16, INT32)] == [1, 2, 4]
        assert SINGLE.size == 4 and DOUBLE.size == 8 and BOOLEAN.size == 1


class TestRanges:
    def test_int8(self):
        assert INT8.min_value == -128 and INT8.max_value == 127

    def test_uint16(self):
        assert UINT16.min_value == 0 and UINT16.max_value == 65535

    def test_int32(self):
        assert INT32.min_value == -(2**31) and INT32.max_value == 2**31 - 1

    def test_boolean(self):
        assert BOOLEAN.min_value == 0 and BOOLEAN.max_value == 1


class TestWrap:
    def test_int8_overflow_wraps(self):
        assert wrap(128, INT8) == -128
        assert wrap(-129, INT8) == 127
        assert wrap(255, INT8) == -1

    def test_uint8_wraps(self):
        assert wrap(256, UINT8) == 0
        assert wrap(-1, UINT8) == 255

    def test_int32_large(self):
        assert wrap(2**31, INT32) == -(2**31)

    def test_boolean_collapses(self):
        assert wrap(7, BOOLEAN) == 1
        assert wrap(0, BOOLEAN) == 0
        assert wrap(-3, BOOLEAN) == 1

    def test_float_truncates_toward_zero(self):
        assert wrap(3.9, INT16) == 3
        assert wrap(-3.9, INT16) == -3

    def test_single_loses_precision(self):
        value = wrap(0.1, SINGLE)
        assert value != 0.1
        assert value == struct.unpack("<f", struct.pack("<f", 0.1))[0]

    def test_single_keeps_inf(self):
        assert wrap(math.inf, SINGLE) == math.inf

    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=3.4e38, max_value=3.5e38),
            st.floats(min_value=-3.5e38, max_value=-3.4e38),
        )
    )
    def test_single_narrows_like_c(self, value):
        """Finite values past FLT_MAX narrow to the signed infinity —
        C's ``(float)x`` — in ``wrap`` and the generated-code wrapper
        alike, instead of raising ``OverflowError``."""
        import ctypes

        from repro.codegen.runtime import runtime_globals

        want = ctypes.c_float(value).value
        assert wrap(value, SINGLE) == want
        assert runtime_globals()["_w_single"](value) == want

    def test_single_overflow_is_signed_inf(self):
        assert wrap(3.5e38, SINGLE) == math.inf
        assert wrap(-3.5e38, SINGLE) == -math.inf
        # below FLT_MAX + half an ulp: rounds down to FLT_MAX
        assert wrap(3.4028235e38, SINGLE) == SINGLE.max_value

    def test_double_identity(self):
        assert wrap(0.1, DOUBLE) == 0.1

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_wrap_is_idempotent_ints(self, value):
        for dtype in INT_TYPES:
            once = wrap(value, dtype)
            assert wrap(once, dtype) == once
            assert dtype.min_value <= once <= dtype.max_value


class TestSaturateCast:
    def test_clamps_high(self):
        assert saturate_cast(1000, INT8) == 127

    def test_clamps_low(self):
        assert saturate_cast(-1000, INT8) == -128

    def test_in_range_passthrough(self):
        assert saturate_cast(42, INT8) == 42

    def test_float_to_int(self):
        assert saturate_cast(1e12, INT32) == INT32.max_value

    def test_nan_becomes_zero(self):
        assert saturate_cast(float("nan"), INT32) == 0

    def test_bool(self):
        assert saturate_cast(99, BOOLEAN) == 1


class TestPackUnpack:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int32_round_trip(self, value):
        assert INT32.unpack(INT32.pack(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_single_round_trip(self, value):
        assert SINGLE.unpack(SINGLE.pack(value)) == wrap(value, SINGLE)

    def test_pack_wraps_out_of_range(self):
        assert INT8.unpack(INT8.pack(130)) == wrap(130, INT8)

    def test_unpack_offset(self):
        data = b"\xff" + INT16.pack(-2)
        assert INT16.unpack(data, 1) == -2

    def test_unpack_nan_clamped(self):
        nan_bytes = struct.pack("<f", float("nan"))
        assert SINGLE.unpack(nan_bytes) == 0.0

    def test_boolean_unpack_normalizes(self):
        assert BOOLEAN.unpack(b"\x07") == 1
        assert BOOLEAN.unpack(b"\x00") == 0

    def test_zero(self):
        assert INT32.zero() == 0
        assert DOUBLE.zero() == 0.0
        assert isinstance(DOUBLE.zero(), float)


class TestCommonDtype:
    def test_float_wins(self):
        assert common_dtype(INT32, DOUBLE) is DOUBLE
        assert common_dtype(SINGLE, INT8) is SINGLE

    def test_double_beats_single(self):
        assert common_dtype(SINGLE, DOUBLE) is DOUBLE

    def test_wider_int_wins(self):
        assert common_dtype(INT8, INT32) is INT32

    def test_same_type(self):
        assert common_dtype(INT16, INT16) is INT16

    def test_bool_acts_as_uint8(self):
        assert common_dtype(BOOLEAN, BOOLEAN) is UINT8

    def test_mixed_signedness_prefers_unsigned(self):
        assert common_dtype(INT32, UINT32) is UINT32

    @given(st.sampled_from(ALL_DTYPES), st.sampled_from(ALL_DTYPES))
    def test_commutative(self, a, b):
        assert common_dtype(a, b) == common_dtype(b, a)
