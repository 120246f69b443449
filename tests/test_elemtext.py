import pytest

from quadperfect import ElementParseError, QuadInt, parse_element

from conftest import make_rng, random_element

IDENTITY_CASES = 10_000


class TestParse:
    def test_plain_integers(self):
        assert parse_element(-1, "28") == QuadInt.from_int(-1, 28)
        assert parse_element(-11, "-3") == QuadInt.from_int(-11, -3)

    def test_full_forms(self):
        assert parse_element(-1, "9+3s") == QuadInt(-1, 9, 3)
        assert parse_element(-1, "2-1s") == QuadInt(-1, 2, -1)
        assert parse_element(-1, "1+s") == QuadInt(-1, 1, 1)
        assert parse_element(-2, "-3-3s") == QuadInt(-2, -3, -3)

    def test_bare_surd_terms(self):
        assert parse_element(-2, "s") == QuadInt(-2, 0, 1)
        assert parse_element(-2, "-s") == QuadInt(-2, 0, -1)
        assert parse_element(-1, "-1s") == QuadInt(-1, 0, -1)
        assert parse_element(-2, "3s") == QuadInt(-2, 0, 3)

    def test_i_alias_only_gaussian(self):
        assert parse_element(-1, "9+3i") == QuadInt(-1, 9, 3)
        assert parse_element(-1, "i") == QuadInt(-1, 0, 1)
        with pytest.raises(ElementParseError):
            parse_element(-7, "1+2i")

    def test_half_forms(self):
        assert parse_element(-7, "(1+1s)/2") == QuadInt(-7, 1, 1, half=True)
        assert parse_element(-7, "(1+s)/2") == QuadInt(-7, 1, 1, half=True)
        assert parse_element(-11, "(-3-1s)/2") == QuadInt(-11, -3, -1, half=True)

    def test_half_rejected_for_even_d(self):
        with pytest.raises(ElementParseError):
            parse_element(-1, "(1+1s)/2")
        with pytest.raises(ElementParseError):
            parse_element(-2, "(1+1s)/2")

    def test_half_parity_enforced(self):
        with pytest.raises(ElementParseError):
            parse_element(-7, "(1+2s)/2")
        # Even/even half coordinates are a valid (integral) element.
        assert parse_element(-7, "(2+2s)/2") == QuadInt(-7, 1, 1)

    def test_whitespace_insensitive(self):
        assert parse_element(-1, " 9 + 3 s ") == QuadInt(-1, 9, 3)
        assert parse_element(-7, "( 1 + 1s ) / 2") == QuadInt(-7, 1, 1, half=True)

    @pytest.mark.parametrize(
        "bad", ["", "3+", "s+1", "3++2s", "3s+2", "(1+1s)/3", "x", "2.5", "1+2t", "--3"]
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(ElementParseError):
            parse_element(-7, bad)

    def test_zero_parses(self):
        assert parse_element(-1, "0") == QuadInt.from_int(-1, 0)


class TestRoundTrip:
    def test_parse_format_identity(self, d):
        rng = make_rng("text", d)
        for _ in range(IDENTITY_CASES):
            z = random_element(rng, d, span=10**6, nonzero=False)
            assert parse_element(d, str(z)) == z
