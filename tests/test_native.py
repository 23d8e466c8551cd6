import platform
import random
import struct

import numpy as np
import pytest

from claimdist import native

from conftest import DECLINED_FIELDS, FAST_FIELDS, require_library


@pytest.fixture
def lib():
    return require_library()


def parse_rows(lib, text: str, n: int, dim: int) -> tuple[int, np.ndarray]:
    """``claimdist_parse_rows`` on ``text``: the rows it parsed and its output array."""
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    out = np.full((n, dim), np.nan)
    begin = data.ctypes.data
    return lib.claimdist_parse_rows(begin, begin + data.size, n, dim, out.ctypes.data), out


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestParseRows:
    @pytest.mark.parametrize("field", FAST_FIELDS)
    def test_fast_path_field_has_the_bits_of_float(self, lib, field):
        parsed, out = parse_rows(lib, field, 1, 1)
        assert parsed == 1
        assert bits(out[0, 0]) == bits(float(field))

    @pytest.mark.parametrize("field", DECLINED_FIELDS)
    def test_other_field_is_declined(self, lib, field):
        assert parse_rows(lib, field, 1, 1)[0] == 0

    def test_mantissas_above_two_to_the_53_would_round_twice(self):
        # why the guard is needed: with m = 2**53 + 1 rounded to a double
        # first, these products differ from the correctly rounded value
        for field in ("9007199254740993e-22", "0.0009007199254740993"):
            m, e = 2**53 + 1, -22 if field.endswith("-22") else -19
            assert float(m) / 10.0 ** -e != float(field)

    def test_random_decimals(self, lib):
        rng = random.Random(19)
        taken = 0
        for _ in range(5000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 21)))
            point = rng.randint(0, len(digits))
            field = rng.choice(["", "-", "+"]) + digits[:point] + "." + digits[point:]
            if rng.random() < 0.5:
                field += rng.choice("eE") + rng.choice(["", "-", "+"]) + str(rng.randint(0, 30))
            parsed, out = parse_rows(lib, field, 1, 1)
            if parsed:
                assert bits(out[0, 0]) == bits(float(field)), field
            taken += parsed
        assert 2000 < taken < 4500

    @pytest.mark.parametrize(
        "text, n, dim, parsed",
        [
            ("1 2\n3 4", 2, 2, 2),
            ("  1   2  \n3 4 ", 2, 2, 2),  # runs of spaces, leading and trailing
            ("1 2\n3 4\n", 2, 2, 2),
            ("1 2\n3", 2, 2, 1),  # a short row
            ("1 2\n3 4 5", 2, 2, 1),  # a long row
            ("1 2\n\n3 4", 2, 2, 1),  # a blank row
            ("1 2\n3 4", 1, 2, 0),  # more rows than asked for
            ("1 2", 2, 2, 1),  # fewer
            ("1\t2\n3 4", 2, 2, 0),
            ("1 2\r\n3 4", 2, 2, 0),
            ("1\xa02\n3 4", 2, 2, 0),
            ("1 2\n3 4\x00", 2, 2, 1),
        ],
    )
    def test_rows(self, lib, text, n, dim, parsed):
        got, out = parse_rows(lib, text, n, dim)
        assert got == parsed
        assert out[:parsed].tolist() == [[1.0, 2.0], [3.0, 4.0]][:parsed]


class TestLibrary:
    def test_exports_both_functions(self, lib):
        assert lib.claimdist_sweep.restype is None
        assert lib.claimdist_parse_rows.restype is not None

    def test_build_removes_other_libraries(self, private_cache_home, rebuilt_library):
        cache = private_cache_home / "claimdist"
        cache.mkdir(parents=True)
        for name in (f"sweep-{'0' * 64}.so", f"native-{'1' * 64}.so"):
            (cache / name).write_bytes(b"")
        kept = {f"v2-{'2' * 64}", "notes.txt"}
        (cache / f"v2-{'2' * 64}").mkdir()
        (cache / "notes.txt").write_text("")
        lib = native.library()
        if lib is None:
            pytest.skip(f"no compiled library on {platform.machine()}")
        names = {p.name for p in cache.iterdir()}
        [built] = names - kept
        assert built.startswith("native-") and built != f"native-{'1' * 64}.so"
        assert lib._name == str(cache / built)
