"""Unit tests for Kubernetes-style quantity parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Quantity, ResourceRequirements, parse_cpu, parse_memory
from repro.cluster.quantity import GiB, MiB, format_cpu, format_memory
from repro.errors import InvalidQuantityError


class TestParseCpu:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("500m", 0.5),
            ("1", 1.0),
            ("1.5", 1.5),
            (2, 2.0),
            (0.25, 0.25),
            ("250m", 0.25),
            ("0", 0.0),
        ],
    )
    def test_valid(self, raw, expected):
        assert parse_cpu(raw) == expected

    @pytest.mark.parametrize("raw", ["abc", "1x", "-1", "", "m500"])
    def test_invalid(self, raw):
        with pytest.raises(InvalidQuantityError):
            parse_cpu(raw)

    def test_negative_number_rejected(self):
        with pytest.raises(InvalidQuantityError):
            parse_cpu(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_milli_roundtrip(self, millis):
        assert parse_cpu(f"{millis}m") == pytest.approx(millis / 1000)


class TestParseMemory:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1Ki", 1024),
            ("2Mi", 2 * MiB),
            ("96Gi", 96 * GiB),
            ("1.5G", 1_500_000_000),
            ("500M", 500_000_000),
            ("1024", 1024),
            (4096, 4096),
            (1.9, 1),
            (float(2**53 + 2), 2**53 + 2),
        ],
    )
    def test_valid(self, raw, expected):
        assert parse_memory(raw) == expected

    @pytest.mark.parametrize("raw", ["96GG", "abc", "-5", "1Qi", -1])
    def test_invalid(self, raw):
        with pytest.raises(InvalidQuantityError):
            parse_memory(raw)

    @given(st.integers(min_value=0, max_value=1024))
    def test_gi_scaling(self, n):
        assert parse_memory(f"{n}Gi") == n * GiB

    def test_int_input_is_exact_above_float_precision(self):
        """Ints are returned as they are, not rounded through a float
        (which loses bytes above 2**53, about 8 PiB)."""
        nbytes = 2**53 + 1
        assert parse_memory(nbytes) == nbytes
        assert type(parse_memory(nbytes)) is int
        assert ResourceRequirements(memory=nbytes).memory == nbytes
        assert ResourceRequirements(ephemeral_storage=nbytes).ephemeral_storage == nbytes


class TestFormatting:
    def test_format_cpu(self):
        assert format_cpu(0.5) == "500m"
        assert format_cpu(4.0) == "4"

    def test_format_memory(self):
        assert format_memory(96 * GiB) == "96.0Gi"
        assert format_memory(512) == "512"

    @given(st.floats(min_value=0.001, max_value=128, allow_nan=False))
    def test_cpu_format_parse_roundtrip(self, cores):
        cores = round(cores, 3)
        assert parse_cpu(format_cpu(cores)) == pytest.approx(cores, abs=1e-9)


class TestQuantity:
    def test_constructors(self):
        assert Quantity.cpu("500m").amount == 0.5
        assert Quantity.memory("1Ki").amount == 1024
        assert Quantity.count(3).amount == 3

    def test_add_same_kind(self):
        q = Quantity.cpu(1) + Quantity.cpu("500m")
        assert q.amount == 1.5

    def test_add_mixed_kind_rejected(self):
        with pytest.raises(InvalidQuantityError):
            Quantity.cpu(1) + Quantity.memory(1)

    def test_bad_kind(self):
        with pytest.raises(InvalidQuantityError):
            Quantity("disk", 1)

    def test_equality_and_hash(self):
        assert Quantity.cpu(1) == Quantity.cpu("1000m")
        assert hash(Quantity.cpu(1)) == hash(Quantity.cpu("1000m"))
        assert Quantity.cpu(1) != Quantity.count(1)
