import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closest_string import (
    Alphabet,
    FormatError,
    GeneratorConfig,
    Instance,
    generate_uniform,
    parse_instance,
    serialize_instance,
)

BINARY = Alphabet.from_string("01")
DNA = Alphabet.from_string("ACGT")


class TestGenerator:
    def test_same_seed_same_instance(self):
        cfg = GeneratorConfig(m=3, n=5, alphabet=BINARY, seed=42)
        assert generate_uniform(cfg) == generate_uniform(cfg)

    def test_pcg64_stream_is_pinned(self):
        # Frozen expected output keeps the generator portable: if the
        # underlying stream ever changed, every seeded result would drift.
        inst = generate_uniform(GeneratorConfig(m=3, n=5, alphabet=BINARY, seed=42))
        assert inst.strings == ("01100", "10100", "11111")

    def test_dims(self):
        inst = generate_uniform(GeneratorConfig(m=10, n=300, alphabet=DNA, seed=1))
        assert inst.m == 10 and inst.n == 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(m=0, n=5, alphabet=BINARY, seed=1)
        with pytest.raises(ValueError):
            GeneratorConfig(m=5, n=0, alphabet=BINARY, seed=1)
        with pytest.raises(ValueError):
            GeneratorConfig(m=5, n=5, alphabet=BINARY, seed=-1)

    def test_frequencies_near_uniform(self):
        # m * n = 1e5 draws: every symbol within 1% of 1/k, and the
        # chi-square statistic stays far below any alarming level.
        inst = generate_uniform(GeneratorConfig(m=100, n=1000, alphabet=DNA, seed=8))
        flat = inst.codes.ravel()
        total = flat.size
        expected = total / len(DNA)
        counts = np.bincount(flat, minlength=len(DNA))
        for count in counts:
            assert abs(count / total - 0.25) <= 0.01 * 0.25
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # 0.1% tail of chi-square with 3 dof


class TestParse:
    def test_basic(self):
        inst = parse_instance("ACG\nACT\n")
        assert inst.m == 2 and inst.n == 3
        assert inst.alphabet.symbols == ("A", "C", "G", "T")

    def test_comments_and_header(self):
        inst = parse_instance("# comment\nalphabet: 01\n00\n11\n")
        assert inst.m == 2 and inst.n == 2
        assert inst.alphabet.symbols == ("0", "1")

    def test_ragged_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_instance("00\n000\n")
        assert "line 2" in str(err.value)

    def test_empty_payload(self):
        with pytest.raises(FormatError):
            parse_instance("# nothing here\n\n")

    def test_character_outside_declared_alphabet(self):
        with pytest.raises(FormatError) as err:
            parse_instance("alphabet: 01\n0X\n")
        assert "line 2" in str(err.value)

    def test_header_after_data_rejected(self):
        with pytest.raises(FormatError):
            parse_instance("00\nalphabet: 01\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(FormatError):
            parse_instance("alphabet: 01\nalphabet: 01\n00\n")

    def test_reserved_symbols_rejected_with_line(self):
        # Bad alphabet headers report their line the same way.
        for text, line, reason in (
            ("alphabet: #A\nAA\n", 1, "reserved symbol"),
            ("alphabet: A B\nAB\n", 1, "reserved symbol"),
            ("AB\nA#\n", 2, "reserved symbol"),
            ("AB\nA:\n", 2, "reserved symbol"),
            ("ABC\nA C\n", 2, "reserved symbol"),
            ("alphabet:\nAB\n", 1, "empty alphabet header"),
            ("# c\nalphabet: AA\nA\n", 2, "alphabet has duplicate symbols"),
        ):
            with pytest.raises(FormatError, match=f"^line {line}: {reason}"):
                parse_instance(text)

    def test_accepts_bytes(self):
        assert parse_instance(b"AC\nAG\n").m == 2

    @pytest.mark.parametrize(
        "text, strings, symbols",
        [
            ("alphabet: 01\n00\n11\n", ("00", "11"), ("0", "1")),
            ("ACG\nACT\n", ("ACG", "ACT"), ("A", "C", "G", "T")),
            ("ACGT\n", ("ACGT",), ("A", "C", "G", "T")),
        ],
    )
    def test_byte_order_mark_is_not_a_symbol(self, text, strings, symbols):
        # A header line, a multi-string file and a one-string file, saved
        # with a BOM: as bytes and as decoded text.
        for data in ((b"\xef\xbb\xbf" + text.encode()), "\ufeff" + text):
            inst = parse_instance(data)
            assert inst.strings == strings
            assert inst.alphabet.symbols == symbols


class TestSerialize:
    def test_round_trip_inferred(self):
        inst = parse_instance("ACG\nACT\n")
        assert parse_instance(serialize_instance(inst)) == inst

    def test_header_present_iff_superset(self):
        used_all = Instance(BINARY, ("01", "10"))
        assert "alphabet:" not in serialize_instance(used_all)
        wider = Instance(DNA, ("AC", "CA"))
        text = serialize_instance(wider)
        assert "alphabet: ACGT" in text
        assert parse_instance(text) == wider

    def test_header_preserves_non_lexicographic_order(self):
        inst = Instance(Alphabet.from_string("10"), ("01", "10"))
        text = serialize_instance(inst)
        assert "alphabet: 10" in text
        assert parse_instance(text) == inst

    def test_reserved_symbols_not_serialized(self):
        # Written out, "#A" would come back as a comment and one string "A#".
        for symbols in ("#A", ":A", "A B", "A\t"):
            inst = Instance(Alphabet.from_string(symbols), (symbols, symbols[::-1]))
            with pytest.raises(FormatError):
                serialize_instance(inst)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ACGT", min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_property(self, strings):
        inst = Instance(Alphabet.inferred(strings), tuple(strings))
        assert parse_instance(serialize_instance(inst)) == inst
