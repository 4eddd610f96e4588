import random
import re
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

from omnirate import (BitPoolSource, CapacityError, DomainError, EntropyTable,
                      ModelFormatError, format_bitpool, format_table,
                      parse_model, run_parametric, validate)
from omnirate.model import MAX_TABLE_USERS, mask_users
from omnirate.modelfile import MAX_EXPONENT, _parse_value

from conftest import FIVE_USER_BITS, random_bitpool, rank_sum_table

BITPOOL_DOC = """\
# comments and blank lines are fine
type=bitpool

user 2: a b c f i j
user 1: a b c d f g i j   # trailing comments too
user 3: e f h i
user 4: b c e j
user 5: b c d h i
"""

TABLE_DOC = """\
type = table
H 1 = 1
H 2 = 2
H 1,2 = 5/2
H 3 = 1.5
H 1,3 = 2
H 2,3 = 3
H 1, 2, 3 = 7/2
"""


class TestParseBitpool:
    def test_round_numbers(self, five_user):
        model = parse_model(BITPOOL_DOC)
        assert isinstance(model, BitPoolSource)
        assert model.size == 5
        for subset in ([1], [1, 2], [3, 4, 5], [1, 2, 3, 4, 5]):
            assert model.entropy(subset) == five_user.entropy(subset)

    def test_missing_user_id(self):
        doc = "type=bitpool\nuser 1: a\nuser 3: b\n"
        with pytest.raises(ModelFormatError, match="missing"):
            parse_model(doc)

    def test_duplicate_user(self):
        doc = "type=bitpool\nuser 1: a\nuser 1: b\nuser 2: c\n"
        with pytest.raises(ModelFormatError, match="line 3"):
            parse_model(doc)

    def test_empty_bit_list(self):
        doc = "type=bitpool\nuser 1: a\nuser 2:\n"
        with pytest.raises(ModelFormatError, match="line 3"):
            parse_model(doc)

    def test_garbage_line(self):
        doc = "type=bitpool\nuser 1: a\nwat 2: b\n"
        with pytest.raises(ModelFormatError, match="line 3"):
            parse_model(doc)

    def test_huge_user_id_fails_fast(self):
        # The error names a few missing ids; it never builds 1..10**9.
        doc = "type=bitpool\nuser 1: a\nuser 1000000000: b\n"
        start = time.perf_counter()
        with pytest.raises(ModelFormatError, match="999999998 missing: 2, 3, 4, 5, 6, ...") as info:
            parse_model(doc)
        assert time.perf_counter() - start < 1
        assert len(str(info.value)) < 200


class TestParseTable:
    def test_values_exact(self):
        model = parse_model(TABLE_DOC)
        assert isinstance(model, EntropyTable)
        assert model.entropy([1, 2]) == Fraction(5, 2)
        assert model.entropy([3]) == Fraction(3, 2)  # decimal parsed exactly
        assert model.entropy([1, 2, 3]) == Fraction(7, 2)
        assert validate(model) == []

    def test_incomplete_table(self):
        doc = "type=table\nH 1 = 1\nH 2 = 1\n"
        with pytest.raises(ModelFormatError, match="needs all"):
            parse_model(doc)

    def test_bad_value(self):
        doc = "type=table\nH 1 = one\nH 2 = 1\nH 1,2 = 2\n"
        with pytest.raises(ModelFormatError, match="line 2"):
            parse_model(doc)

    def test_duplicate_subset(self):
        doc = "type=table\nH 1 = 1\nH 1 = 2\nH 2 = 1\nH 1,2 = 2\n"
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(doc)

    def test_huge_user_id_fails_fast_at_its_line(self):
        doc = "type=table\nH 1 = 1\nH 1000000000 = 1\n"
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="line 3: user 1000000000"):
            parse_model(doc)
        assert time.perf_counter() - start < 1

    def test_user_past_the_cap_raises_at_its_line(self):
        doc = f"type=table\nH 1 = 1\nH 2 = 1\nH 1,{MAX_TABLE_USERS + 1} = 2\n"
        with pytest.raises(CapacityError, match="line 4"):
            parse_model(doc)
        # The cap itself is a legal id; this table only lacks subsets.
        doc = f"type=table\nH 1 = 1\nH {MAX_TABLE_USERS} = 1\n"
        with pytest.raises(ModelFormatError, match=f"{MAX_TABLE_USERS - 2} missing: 2, 3,"):
            parse_model(doc)

    def test_ids_are_contiguous_but_subsets_missing(self):
        doc = "type=table\nH 1 = 1\nH 2 = 1\nH 3 = 1\nH 1,2,3 = 3\n"
        with pytest.raises(ModelFormatError, match="covers 4 subsets but needs all 7"):
            parse_model(doc)

    def test_empty_subset(self):
        doc = "type=table\nH 1 = 1\nH , = 1\nH 2 = 1\nH 1,2 = 2\n"
        with pytest.raises(ModelFormatError, match="line 3: the empty set"):
            parse_model(doc)

    @pytest.mark.parametrize("line", ["H 1 = one", "H , = one", "H 1 = 1/0"])
    def test_bad_value_reported_before_the_key_error(self, line):
        # That line's key repeats line 2's or is empty; its value is checked first.
        doc = f"type=table\nH 1 = 1\n{line}\nH 2 = 1\nH 1,2 = 2\n"
        value = line.split("= ")[1]
        with pytest.raises(ModelFormatError, match=re.escape(f"line 3: bad rational value '{value}'")):
            parse_model(doc)

    def test_id_forms_name_the_same_user(self):
        # Spaces, empty tokens and repeats inside a key all name the same set.
        doc = "type=table\nH 1 = 1\nH  2 , = 1\nH 2,1,2 = 3/2\n"
        model = parse_model(doc)
        assert model.entropy([1, 2]) == Fraction(3, 2)
        assert model.entropy([2]) == 1


def outcome(parse, text):
    """The value `parse` returns, or the type and message of what it raises."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return value, type(value)


def exponent_past_cap(text):
    """Whether `text` ends in an `e`/`E` and an int past +-MAX_EXPONENT."""
    match = re.search(r"[eE]([^eE]*)$", text)
    try:
        return match is not None and abs(int(match[1])) > MAX_EXPONENT
    except ValueError:
        return False


# Forms the int fast path must hand to `Fraction` (or reject as it does):
# signs after the `/`, inner spaces, underscores, decimals, exponents, a
# non-ASCII digit, zero denominators, base prefixes and padding.
VALUE_CORPUS = [
    "3/-4", "3 / 4", "3/ 4", "3 /4", "+3/+4", "-3/4", "+3", "-0", "1_000",
    "1_0/3", "3/1_0", "1__0", "_1", "1_", "6.5", "-.5", "5.", "1e3", "1E-3",
    "2.5e-1/3", "\u0663", "\u0663/\u0664", "\u00b2", "0/0", "1/0", "-5/0", "0x10",
    "", " ", "/", "3/", "/4", "+", "-", "+-3", "--3", " 3", "3 ", "\t3/4\t",
    " \t-7/8 \t", "10/4", "-10/-4", "4/2/1", "0", "00/07",
]


class TestValueGrammar:
    @pytest.mark.parametrize("text", VALUE_CORPUS)
    def test_corpus_matches_fraction(self, text):
        assert outcome(_parse_value, text) == outcome(Fraction, text)

    @given(st.text(alphabet="0123456789+-/._eE \t", max_size=8))
    @example("1E701109")
    def test_short_strings_match_fraction(self, text):
        # Past the exponent cap `Fraction` would build a huge int; the
        # parser refuses instead.
        if exponent_past_cap(text):
            with pytest.raises(ValueError):
                _parse_value(text)
        else:
            assert outcome(_parse_value, text) == outcome(Fraction, text)

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_exponent_at_the_cap(self, sign):
        value = _parse_value(f"1.5e{sign}{MAX_EXPONENT}")
        assert value == Fraction(3, 2) * Fraction(10) ** int(f"{sign}{MAX_EXPONENT}")

    @pytest.mark.parametrize("text", [f"1e{MAX_EXPONENT + 1}", f"-2E-{MAX_EXPONENT + 1}",
                                      "1e6000000", "1e-6000000"])
    def test_exponent_past_the_cap_rejected_at_its_line(self, text):
        doc = f"type=table\nH 1 = 1\nH 2 = {text}\nH 1,2 = 2\n"
        message = re.escape(f"line 3: bad rational value '{text}'")
        with pytest.raises(ModelFormatError, match=message):
            parse_model(doc)

    @pytest.mark.parametrize("text", ["3/-4", "3 / 4", "+3/+4", "1/0", "0x10"])
    def test_rejected_at_its_line(self, text):
        doc = f"type=table\nH 1 = 1\nH 2 = {text}\nH 1,2 = 2\n"
        message = re.escape(f"line 3: bad rational value '{text}'")
        with pytest.raises(ModelFormatError, match=message):
            parse_model(doc)


def entropy_by_entropy(model) -> str:
    """The table document of `model`, one `SourceModel.entropy` per line."""
    lines = ["type=table"]
    for mask in range(1, 1 << model.size):
        users = sorted(mask_users(mask))
        lines.append(f"H {','.join(map(str, users))} = {model.entropy(users)}")
    return "\n".join(lines) + "\n"


def value_texts():
    """Table values as ints, unreduced and signed p/q, decimals and exponents."""
    sign = st.sampled_from(["", "+", "-"])
    digits = st.integers(0, 10**8).map(str)
    return st.one_of(
        st.tuples(sign, digits).map("".join),
        st.tuples(sign, digits, st.integers(1, 10**4)).map(lambda t: f"{t[0]}{t[1]}/{t[2]}"),
        st.tuples(sign, digits, digits).map(lambda t: f"{t[0]}{t[1]}.{t[2]}"),
        st.tuples(sign, digits, digits, st.sampled_from("eE"), st.integers(-12, 12))
        .map(lambda t: f"{t[0]}{t[1]}.{t[2]}{t[3]}{t[4]}"),
        st.sampled_from(["10/4", "-10/4", "+6/9", "0/7", "000/010", "-.5", "5.", "1_000"]),
    )


@st.composite
def table_docs(draw):
    """(size, {mask: value text}, document) with the lines in a drawn order."""
    n = draw(st.integers(2, 4))
    texts = {mask: draw(value_texts()) for mask in range(1, 1 << n)}
    order = draw(st.permutations(sorted(texts)))
    lines = [f"H {','.join(map(str, sorted(mask_users(mask))))} = {texts[mask]}" for mask in order]
    return n, texts, "type=table\n" + "\n".join(lines) + "\n"


class TestIntIngest:
    @given(table_docs())
    def test_matches_the_fraction_reference(self, drawn):
        n, texts, doc = drawn
        parsed = parse_model(doc)
        reference = EntropyTable(n, {tuple(mask_users(m)): Fraction(t) for m, t in texts.items()})
        assert parsed.scale == reference.scale
        assert [parsed.entropy_int(m) for m in range(1 << n)] == \
            [reference.entropy_int(m) for m in range(1 << n)]
        # and straight from `Fraction`, past the adopt step both share
        values = {mask: Fraction(text) for mask, text in texts.items()}
        assert parsed.scale == lcm(*(v.denominator for v in values.values()))
        assert all(parsed.entropy_of_mask(mask) == v for mask, v in values.items())


class TestDirective:
    def test_unknown_type(self):
        with pytest.raises(ModelFormatError, match="unknown model type"):
            parse_model("type=magic\n")

    def test_missing_directive(self):
        with pytest.raises(ModelFormatError):
            parse_model("user 1: a\n")

    def test_empty_file(self):
        with pytest.raises(ModelFormatError, match="empty"):
            parse_model("# nothing here\n")


class TestRoundTrips:
    def test_bitpool_dump_reparses(self, five_user):
        model = parse_model(format_bitpool(five_user))
        assert model.bits_per_user == five_user.bits_per_user

    def test_table_dump_solves_identically(self, five_user):
        # A table generated from a bit-pool source re-solves to the exact
        # same principal sequence, sum-rate and rate vector.
        table = parse_model(format_table(five_user))
        assert isinstance(table, EntropyTable)
        assert validate(table) == []
        _, psp_a = run_parametric(five_user)
        _, psp_b = run_parametric(table)
        assert psp_a == psp_b

    def test_table_dump_text_and_cache(self):
        # The text is the subset-by-subset dump from `entropy`, byte for byte,
        # and a bit pool's cache holds only H(empty) afterwards.
        rng = random.Random(4242)
        models = [BitPoolSource(FIVE_USER_BITS),
                  *(random_bitpool(rng, max_users=8) for _ in range(10)),
                  *(rank_sum_table(rng, rng.randint(2, 7)) for _ in range(10))]
        for model in models:
            text = format_table(model)
            assert model._cache == {0: 0}
            assert text == entropy_by_entropy(model)

    def test_bitpool_dump_of_a_table(self, five_user):
        table = parse_model(format_table(five_user))
        with pytest.raises(DomainError, match="format_table dumps any model"):
            format_bitpool(table)

    def test_table_dump_past_the_cap(self, monkeypatch):
        # A table the parser would refuse: no line is built, no entropy read.
        pool = BitPoolSource([f"b{u}" for u in range(MAX_TABLE_USERS + 1)])
        monkeypatch.setattr(pool, "entropy_int", None)
        with pytest.raises(CapacityError, match="capped at 20 users, got 21"):
            format_table(pool)

    def test_fixture_file_matches_builtin(self, five_user, five_user_path):
        with open(five_user_path, encoding="utf-8") as fh:
            model = parse_model(fh.read())
        assert model.bits_per_user == five_user.bits_per_user
