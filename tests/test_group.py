"""Group arithmetic, canonical encoding, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wreathlab.errors import EncodingError, ValidationError
from wreathlab.group import (
    EMPTY_LAMPS,
    IDENTITY,
    GroupElement,
    LampConfig,
    canonical_generators,
    decode,
    element_from_text,
    encode,
    generator_names,
    inverse,
    multiply,
)

lamp_entries = st.dictionaries(
    st.integers(-30, 30), st.integers(-9, 9).filter(bool), max_size=6
)


def element_strategy():
    return st.builds(
        lambda d, k: GroupElement(LampConfig(tuple(sorted(d.items()))), k),
        lamp_entries,
        st.integers(-40, 40),
    )


def random_element(rng):
    n = int(rng.integers(0, 5))
    positions = rng.choice(np.arange(-20, 21), size=n, replace=False) if n else []
    entries = tuple(
        sorted((int(p), int(rng.integers(1, 8)) * (1 if rng.random() < 0.5 else -1)) for p in positions)
    )
    return GroupElement(LampConfig(entries), int(rng.integers(-25, 26)))


class TestConstruction:
    def test_identity_components(self):
        assert IDENTITY.cursor == 0
        assert IDENTITY.lamps == EMPTY_LAMPS
        assert not IDENTITY.lamps

    def test_lamp_config_rejects_zero_values(self):
        with pytest.raises(ValidationError):
            LampConfig(((0, 0),))

    def test_lamp_config_rejects_unsorted_positions(self):
        with pytest.raises(ValidationError):
            LampConfig(((3, 1), (1, 2)))

    def test_lamp_config_rejects_duplicate_positions(self):
        with pytest.raises(ValidationError):
            LampConfig(((1, 1), (1, 2)))

    def test_value_at(self):
        lamps = LampConfig(((-1, 3), (4, -2)))
        assert lamps.value_at(-1) == 3
        assert lamps.value_at(4) == -2
        assert lamps.value_at(0) == 0


class TestProduct:
    def test_identity_is_neutral(self, rng):
        for _ in range(50):
            g = random_element(rng)
            assert multiply(IDENTITY, g) == g
            assert multiply(g, IDENTITY) == g

    def test_square_of_lamp_then_step(self):
        # (one lamp at 0, step right) squared lights lamps at 0 and 1
        g = element_from_text("1; 0:1")
        assert multiply(g, g) == element_from_text("2; 0:1, 1:1")

    def test_inverse_example(self):
        g = element_from_text("1; 0:1")
        assert inverse(g) == element_from_text("-1; -1:-1")

    def test_lamp_generator_acts_at_cursor(self):
        g = element_from_text("5;")
        bump = element_from_text("0; 0:1")
        assert multiply(g, bump) == element_from_text("5; 5:1")

    def test_associativity_and_inverses_random(self, rng):
        for _ in range(1000):
            a, b, c = (random_element(rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, inverse(a)) == IDENTITY
            assert multiply(inverse(a), a) == IDENTITY

    def test_inverse_of_product(self, rng):
        for _ in range(100):
            a, b = random_element(rng), random_element(rng)
            assert inverse(multiply(a, b)) == multiply(inverse(b), inverse(a))

    def test_no_zero_lamps_survive_cancellation(self):
        g = element_from_text("0; 2:5")
        h = element_from_text("0; 2:-5")
        assert multiply(g, h) == IDENTITY


class TestGenerators:
    def test_count_and_names(self):
        gens = canonical_generators()
        assert len(gens) == 4
        assert len(generator_names()) == 4

    def test_symmetric_set(self):
        gens = list(canonical_generators())
        for g in gens:
            assert inverse(g) in gens

    def test_each_generator_nontrivial(self):
        for g in canonical_generators():
            assert g != IDENTITY


class TestEncoding:
    def test_identity_form(self):
        assert encode(IDENTITY) == b"0;"
        assert decode(b"0;") == IDENTITY

    def test_known_form(self):
        g = GroupElement(LampConfig(((-1, 3), (4, -2))), 2)
        assert encode(g) == b"2; -1:3, 4:-2"
        assert decode(b"2; -1:3, 4:-2") == g

    def test_round_trip_random(self, rng):
        for _ in range(300):
            g = random_element(rng)
            assert decode(encode(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(element_strategy())
    def test_round_trip_property(self, g):
        assert decode(encode(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(element_strategy(), element_strategy())
    def test_injective(self, a, b):
        if a != b:
            assert encode(a) != encode(b)

    def test_rejects_zero_lamp_value(self):
        with pytest.raises(EncodingError):
            decode(b"0; 1:0")

    def test_rejects_unsorted_positions(self):
        with pytest.raises(EncodingError):
            decode(b"0; 3:1, 1:1")

    def test_rejects_missing_separator(self):
        with pytest.raises(EncodingError) as err:
            decode(b"12")
        assert err.value.offset == 2

    def test_rejects_invalid_utf8_at_its_offset(self):
        with pytest.raises(EncodingError, match=r"^invalid UTF-8 \(byte offset 0\)$") as err:
            decode(b"\xff;")
        assert err.value.offset == 0

    def test_rejects_garbage_with_offset(self):
        with pytest.raises(EncodingError) as err:
            decode(b"0; 1:x")
        assert isinstance(err.value.offset, int)

    @pytest.mark.parametrize("data, offset", [
        (b"1_0;", 0),  # int() would read 10
        (b"0; 1_0:2", 2),
        (b"0; 1:1_0", 5),
        ("0; ٣:1".encode(), 3),  # an Arabic-Indic 3, refused at its first byte
        ("٣;".encode(), 0),
        # the separators 0x1C-0x1F are no whitespace, around a token or after ';'
        (b"\x1c3\x1f;\x1d", 0),
        (b"0; \x1e2:1", 2),
        (b"3;\x1d", 2),
    ])
    def test_integers_are_ascii_digits(self, data, offset):
        with pytest.raises(EncodingError) as err:
            decode(data)
        assert err.value.offset == offset

    def test_integers_take_an_optional_sign(self):
        assert decode(b" +3 ; -1:+2") == GroupElement(LampConfig(((-1, 2),)), 3)

    def test_ascii_whitespace_around_tokens_is_ignored(self):
        assert decode(b"\t3\n;\x0b-1:\r2\x0c ") == GroupElement(LampConfig(((-1, 2),)), 3)
        assert decode(b"3; \t\n") == GroupElement(cursor=3)

    def test_text_helper(self):
        assert element_from_text("0;") == IDENTITY
        with pytest.raises(EncodingError):
            element_from_text("nope")
