import numpy as np
import pytest
from hypothesis import given, strategies as st

from closest_string import (
    Alphabet,
    FormatError,
    Instance,
    hamming_distance,
    objective,
    validate_instance,
)


def test_hamming_identical():
    assert hamming_distance("ACGT", "ACGT") == 0


def test_hamming_all_differ():
    assert hamming_distance("000", "111") == 3


def test_hamming_single_mismatch():
    assert hamming_distance("ACGT", "AGGT") == 1


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance("AC", "ACG")


equal_length_pairs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ab", min_size=n, max_size=n),
        st.text(alphabet="ab", min_size=n, max_size=n),
        st.text(alphabet="ab", min_size=n, max_size=n),
    )
)


@given(equal_length_pairs)
def test_hamming_symmetry_and_triangle(strings):
    s, t, u = strings
    assert hamming_distance(s, t) == hamming_distance(t, s)
    assert hamming_distance(s, u) <= hamming_distance(s, t) + hamming_distance(t, u)


def test_objective_example():
    inst = validate_instance(["ACG", "ACT", "CCG"])
    res = objective("ACG", inst)
    assert res.distances == (0, 1, 1)
    assert res.objective == 1


def test_objective_single_string():
    inst = validate_instance(["GATTACA"])
    assert objective("GATTACA", inst).objective == 0


def test_objective_binary():
    inst = validate_instance(["00", "11"])
    res = objective("01", inst)
    assert res.distances == (1, 1)
    assert res.objective == 1


def test_objective_rejects_bad_length():
    inst = validate_instance(["00", "11"])
    with pytest.raises(ValueError):
        objective("0", inst)


def test_objective_rejects_foreign_symbol():
    inst = validate_instance(["00", "11"])
    with pytest.raises(ValueError):
        objective("0X", inst)


def test_objective_matches_independent_recount():
    inst = validate_instance(["ACAC", "TGCA", "ACGT"])
    for t in ("ACGT", "AAAA", "TGCA"):
        res = objective(t, inst)
        recount = max(hamming_distance(t, s) for s in inst.strings)
        assert res.objective == recount


def test_validate_infers_sorted_alphabet():
    inst = validate_instance(["AC", "AG"])
    assert inst.m == 2 and inst.n == 2
    assert inst.alphabet.symbols == ("A", "C", "G")


def test_validate_ragged():
    with pytest.raises(FormatError):
        validate_instance(["A", "AC"])


def test_validate_empty():
    with pytest.raises(FormatError):
        validate_instance([])
    with pytest.raises(FormatError, match="at least one nonempty string"):
        validate_instance([""], Alphabet.from_string("A"))
    with pytest.raises(FormatError, match="at least one nonempty string"):
        Instance(Alphabet.from_string("A"), ())


def test_validate_respects_explicit_alphabet():
    inst = validate_instance(["01", "10"], alphabet=Alphabet.from_string("210"))
    assert inst.alphabet.symbols == ("2", "1", "0")


def test_validate_rejects_symbol_outside_explicit_alphabet():
    with pytest.raises(FormatError):
        validate_instance(["02"], alphabet=Alphabet.from_string("01"))
    with pytest.raises(FormatError):
        validate_instance(["αγ"], alphabet=Alphabet.from_string("αβ"))


@given(st.lists(st.text(min_size=3, max_size=3), min_size=1, max_size=5))
def test_encode_matches_index_loop_and_decodes_back(strings):
    # Arbitrary code points, astral and NUL included: the vectorised
    # encoder agrees with the per-symbol lookup and decode inverts it.
    alpha = Alphabet.inferred(strings)
    codes = alpha.encode(strings)
    assert codes.tolist() == [[alpha.index(c) for c in s] for s in strings]
    assert alpha.decode(codes) == tuple(strings)
    assert alpha.decode(codes[0]) == (strings[0],)


def test_codes_use_the_smallest_unsigned_dtype():
    assert validate_instance(["ACGT", "TTGA"]).codes.dtype == np.uint8


def test_alphabet_past_int16_round_trips():
    # 40,000 symbols need indices above 32,767, which a signed 16-bit code
    # would wrap. Failures name no symbols: the alphabet is 40,000 long.
    alpha = Alphabet(tuple(chr(0x100 + i) for i in range(40000)))
    picks = [0, 5, 32767, 32768, 39999]
    s = "".join(alpha.symbols[i] for i in picks)
    try:
        codes = Instance(alpha, (s, s[::-1])).codes
    except FormatError:
        pytest.fail("a symbol of the alphabet was rejected", pytrace=False)
    assert codes.dtype == np.uint16
    assert codes.tolist() == [picks, picks[::-1]]
    assert alpha.decode(codes) == (s, s[::-1])


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet.from_string("AAC")
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError, match="single characters"):
        Alphabet(("AB",))


def test_unknown_symbol_names_symbol_and_alphabet():
    with pytest.raises(ValueError, match="'G' not in alphabet 'AC'"):
        Alphabet.from_string("AC").index("G")


def test_alphabet_order_is_input_order():
    alpha = Alphabet.from_string("TGCA")
    assert [alpha.index(c) for c in "TGCA"] == [0, 1, 2, 3]
