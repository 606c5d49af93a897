import pytest

from bitgather import Codeword, Reading, correctness_radius, decode, encode


def test_encode_masks_low_bits():
    cw = encode(Reading(0b10110, 5), 3)
    assert (cw.payload, cw.bits) == (0b110, 3)


def test_encode_full_budget_is_identity():
    assert encode(Reading(22, 5), 5).payload == 22


def test_encode_zero_budget_is_empty():
    cw = encode(Reading(22, 5), 0)
    assert (cw.payload, cw.bits) == (0, 0)


def test_encode_rejects_oversized_budget():
    with pytest.raises(ValueError):
        encode(Reading(22, 5), 6)


def test_decode_picks_nearest_candidate():
    # candidates sharing low bits 110: {6, 14, 22, 30}; 22 is nearest to 23
    assert decode(Reading(23, 5), Codeword(0b110, 3)).value == 22


def test_decode_crosses_carry_boundary():
    # reference 15, payload 00 with 2 bits: 16 beats 12 despite the high-bit
    # prefix of 15 pointing at 12
    assert decode(Reading(15, 5), Codeword(0b00, 2)).value == 16


def test_decode_full_width_ignores_reference():
    assert decode(Reading(3, 5), Codeword(29, 5)).value == 29


def test_decode_empty_codeword_returns_reference():
    assert decode(Reading(17, 5), Codeword(0, 0)).value == 17


def test_decode_tie_breaks_toward_smaller():
    # reference 12, 1-bit payload 1: 11 and 13 are equidistant
    assert decode(Reading(12, 5), Codeword(1, 1)).value == 11


def test_radius_values():
    assert correctness_radius(0) == 0
    assert correctness_radius(1) == 0
    assert correctness_radius(3) == 3


def exhaustive_roundtrip(n):
    """Yield (value, reference, bits, recovered) over the full n-bit space."""
    for bits in range(n + 1):
        for value in range(1 << n):
            cw = encode(Reading(value, n), bits)
            for reference in range(1 << n):
                yield value, reference, bits, decode(Reading(reference, n), cw).value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_roundtrip_within_radius_exhaustive(n):
    for value, reference, bits, recovered in exhaustive_roundtrip(n):
        if abs(value - reference) <= correctness_radius(bits):
            assert recovered == value


@pytest.mark.parametrize("n", [4, 5])
def test_decode_satisfies_payload_congruence(n):
    for value, reference, bits, recovered in exhaustive_roundtrip(n):
        assert recovered % (1 << bits) == value % (1 << bits)
        assert 0 <= recovered < (1 << n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radius_is_tight(n):
    # for each partial budget there is a pair one past the radius that fails
    for bits in range(1, n):
        radius = correctness_radius(bits)
        found = False
        for value in range(1 << n):
            for sign in (-1, 1):
                reference = value + sign * (radius + 1)
                if not 0 <= reference < (1 << n):
                    continue
                cw = encode(Reading(value, n), bits)
                if decode(Reading(reference, n), cw).value != value:
                    found = True
                    break
            if found:
                break
        assert found, f"radius not tight for n={n}, bits={bits}"


@pytest.mark.parametrize("n", [4, 5])
def test_success_is_monotone_in_budget(n):
    for value in range(1 << n):
        for reference in range(1 << n):
            ok_from = None
            for bits in range(n + 1):
                cw = encode(Reading(value, n), bits)
                exact = decode(Reading(reference, n), cw).value == value
                if ok_from is not None:
                    assert exact, (value, reference, bits)
                elif exact:
                    ok_from = bits
            assert ok_from is not None  # bits = n always recovers


def test_reading_and_codeword_validation():
    with pytest.raises(ValueError):
        Reading(32, 5)
    with pytest.raises(ValueError):
        Reading(-1, 5)
    with pytest.raises(ValueError):
        Codeword(2, 1)
    with pytest.raises(ValueError):
        Codeword(1, 0)
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"value": 1}), ((), {"value": 1}),
                         ((), {"value": 1, "width": 2, "bits": 3}), ((1,), {"bits": 2}), ((1, 2), {"width": 2})]:
        with pytest.raises(TypeError, match=r"^Reading takes exactly the fields value, width$"):
            Reading(*args, **kwargs)
    assert Reading(1, 2) == Reading(1, width=2) == Reading(value=1, width=2) == Reading(width=2, value=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_decode_is_nearest_codeword_exhaustive(n):
    """Every reference, payload and budget, within the correctness radius and
    beyond it: the nearest n-bit value with the payload's low bits, ties
    toward the smaller."""
    for bits in range(n + 1):
        for payload in range(1 << bits):
            candidates = range(payload, 1 << n, 1 << bits)
            for reference in range(1 << n):
                want = min(candidates, key=lambda c: (abs(c - reference), c))
                assert decode(Reading(reference, n), Codeword(payload, bits)).value == want
