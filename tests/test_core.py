import pickle
import random
import tracemalloc

# with numpy loaded, the parse tests read every slice that
# core._fromstring_values vouches for by numpy's fromstring
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiperm import core
from quasiperm.core import (
    MAX_SET_MODULUS,
    CyclicInterval,
    InputError,
    Permutation,
    ZnSubset,
    classify_interval,
    components,
    image_of_interval,
    parse_permutation,
    parse_set,
    serialize_permutation,
    serialize_set,
    sym_abs,
)

from fresh import run_fresh
from oracles import brute_components, whole_text_integers


def test_sym_abs_symmetric_representative():
    assert [sym_abs(r, 10) for r in range(10)] == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1]
    assert sym_abs(-1, 10) == 1
    with pytest.raises(InputError):
        sym_abs(0, 0)


def test_interval_wrapping_elements():
    iv = CyclicInterval(10, 9, 2)
    assert list(iv.elements()) == [9, 0]
    assert iv.wraps()
    assert 9 in iv and 0 in iv and 1 not in iv


def test_empty_interval_holds_nothing_and_never_wraps():
    for n in range(1, 7):
        for start in range(n):
            iv = CyclicInterval(n, start, 0)
            assert not any(x in iv for x in range(-n, 2 * n)), (n, start)
            assert not iv.wraps(), (n, start)


def test_interval_complement_partitions():
    iv = CyclicInterval(7, 5, 4)
    comp = iv.complement()
    assert set(iv.elements()) | set(comp.elements()) == set(range(7))
    assert set(iv.elements()) & set(comp.elements()) == set()


def test_interval_validation():
    with pytest.raises(InputError):
        CyclicInterval(5, 5, 1)
    with pytest.raises(InputError):
        CyclicInterval(5, 0, 6)


def test_parse_serialize_permutation_roundtrip():
    p = parse_permutation("3, 0 1,2")
    assert p.images == (3, 0, 1, 2)
    assert parse_permutation(serialize_permutation(p)) == p


def test_parse_permutation_errors_name_the_index():
    with pytest.raises(InputError, match="index 1"):
        parse_permutation("0 x 2")
    with pytest.raises(InputError, match="index 2"):
        parse_permutation("0 1 1")
    with pytest.raises(InputError):
        parse_permutation("")
    with pytest.raises(InputError):
        parse_permutation("0 5 1")


def test_parse_set_roundtrip_and_errors():
    s = parse_set("10: 0 2 4, 6 8")
    assert s.n == 10 and sorted(s.members) == [0, 2, 4, 6, 8]
    assert parse_set(serialize_set(s)) == s
    with pytest.raises(InputError):
        parse_set("0 1 2")
    with pytest.raises(InputError):
        parse_set("10: 0 10")
    with pytest.raises(InputError):
        parse_set("10: 3 3")


def test_parse_set_modulus_limit_raises_before_allocating():
    assert parse_set(f"{MAX_SET_MODULUS}: 0 7").size == 2
    tracemalloc.start()
    try:
        for text in (f"{MAX_SET_MODULUS + 1}: 0", "100000000000: 1"):
            with pytest.raises(InputError, match="exceeds"):
                parse_set(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_permutation_inverse_compose():
    p = Permutation((2, 0, 3, 1))
    assert p.compose(p.inverse()) == Permutation.identity(4)
    assert p.inverse().compose(p) == Permutation.identity(4)
    with pytest.raises(InputError):
        p.compose(Permutation.identity(3))


def test_components_basic():
    count, parts = components(ZnSubset.from_elements(10, [0, 1, 2, 5, 6]))
    assert count == 2
    assert {tuple(sorted(p.elements())) for p in parts} == {(0, 1, 2), (5, 6)}


def test_components_wrapping_run():
    count, parts = components(ZnSubset.from_elements(10, [9, 0, 1]))
    assert count == 1
    assert parts[0] == CyclicInterval(10, 9, 3)


@pytest.mark.parametrize("n", range(1, 11))
def test_components_match_brute_force_in_order(n):
    for mask in range(1 << n):
        s = ZnSubset.from_elements(n, (x for x in range(n) if mask >> x & 1))
        expected = brute_components(s)
        assert components(s) == (len(expected), expected), (n, mask)


def test_components_edge_cases():
    assert components(ZnSubset.empty(6)) == (0, [])
    count, parts = components(ZnSubset.full(6))
    assert count == 1 and parts[0].length == 6


def test_classify_interval_flags():
    f = classify_interval(CyclicInterval(10, 0, 3))
    assert f.contiguous and f.terminal and f.initial and not f.final
    f = classify_interval(CyclicInterval(10, 7, 3))
    assert f.contiguous and f.terminal and f.final and not f.initial
    f = classify_interval(CyclicInterval(10, 3, 3))
    assert f.contiguous and not f.terminal
    # wrapping interval: complement is contiguous, so it is terminal
    f = classify_interval(CyclicInterval(10, 8, 4))
    assert not f.contiguous and f.terminal and f.initial and f.final
    with pytest.raises(InputError):
        classify_interval(CyclicInterval.empty(10))
    with pytest.raises(InputError):
        classify_interval(CyclicInterval.full(10))


def test_image_of_interval():
    p = Permutation((2, 0, 3, 1))
    img = image_of_interval(p, CyclicInterval(4, 3, 2))
    assert sorted(img.members) == [1, 2]


def test_a_token_of_exactly_40_characters_is_shown_whole():
    for length, shown in ((40, f"'{'x' * 40}'"), (41, f"'{'x' * 40}'...")):
        with pytest.raises(InputError) as info:
            parse_permutation("0 " + "x" * length)
        assert str(info.value) == f"token {shown} at index 1 is not an integer"


def test_input_error_pickles():
    # a refusal raised in a process pool worker comes back pickled
    err = pickle.loads(pickle.dumps(InputError("moduli differ: 4 vs 5")))
    assert type(err) is InputError and err.args == ("moduli differ: 4 vs 5",)


def _parsed(parse, text):
    """What parse reads from text: the integers, as a list, or the message
    it refuses the text with."""
    try:
        result = parse(text)
    except InputError as exc:
        return str(exc)
    if isinstance(result, Permutation):
        return list(result.images)
    return sorted(result.members) if isinstance(result, ZnSubset) else list(result)


# Texts whose tokens and separators fall on every side of small slice sizes
BOUNDARY_TEXTS = {
    "spaces": "3 0 1 2",
    "commas": "3,0,1,2",
    "mixed": "3 , 0,,1 ,2",
    "padded": "  3 0 1 2  ",
    "outer commas": ",3 0 1 2,",
    "line ends": "\n3\t0\r\n1 2\n",
    "two digits": "10 0 1 2 3 4 5 6 7 8 9 11",
    "unicode spaces": "0\u20031\x852\u30003\xa04\x1c5",
    "unicode padding": "\u2003 0 1 \u2028",
    "long first token": "12345678 " + " ".join(map(str, range(101))),
    "one long token": "1" * 40,
    "signed": "+3 -0 1 +2",
    "minus space zero": "- 0",
    "plus space one": "+ 1",
    "two minus signs": "--1",
    "sign inside a token": "1+2",
    "sign at the end": "1 2+",
    "sign ending a token": "1- 2",
    "int64 maximum": "9223372036854775807",
    "int64 minimum": "-9223372036854775808",
    "past int64": "-9223372036854775809 9223372036854775808",
    "20 digits": "12345678901234567890",
    "18 digits": "-123456789012345678 999999999999999999",
    "underscore": "1_0 2",
    "arabic-indic digit": "0 \u0663 1",
    "c whitespace": "0\t1\x0b2\x0c3\r4",
}


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 16])
@pytest.mark.parametrize("text", BOUNDARY_TEXTS.values(), ids=BOUNDARY_TEXTS)
def test_parsers_read_each_slice_size_as_the_whole_text(monkeypatch, size, text):
    whole = [_parsed(parse_permutation, text), _parsed(parse_set, "200: " + text)]
    monkeypatch.setattr(core, "_SLICE", size)
    assert _parsed(core._integers, text) == whole_text_integers(text)
    assert [_parsed(parse_permutation, text), _parsed(parse_set, "200: " + text)] == whole


@pytest.mark.parametrize("size", [1, 3, 8, 1 << 14])
def test_a_bad_token_in_a_later_slice_keeps_its_message_and_index(monkeypatch, size):
    monkeypatch.setattr(core, "_SLICE", size)
    images = [str(v) for v in range(200)]
    for index, bad in ((150, "1x"), (199, "9" * 5000), (0, "-")):
        tokens = images[:index] + [bad] + images[index + 1:]
        for text in (" ".join(tokens), ",".join(tokens) + "\n"):
            message = whole_text_integers(text)
            assert message.endswith(f"at index {index} is not an integer")
            assert _parsed(parse_permutation, text) == message
            assert _parsed(parse_set, "300: " + text) == message


@pytest.mark.parametrize("size", [1, 2, 1 << 14])
@pytest.mark.parametrize("text", ["", " ", ",", " , \n", "\u2003\x85 ", ",,,,,,,,,,"])
def test_empty_or_separator_only_text_is_empty_input(monkeypatch, size, text):
    monkeypatch.setattr(core, "_SLICE", size)
    with pytest.raises(InputError, match="^empty input$"):
        parse_permutation(text)
    assert parse_set("5:" + text) == ZnSubset.empty(5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=st.text(st.sampled_from("0123456789, \n\u2003\x85-x+\t\r\x0b\x0c\x1c_.\u0663"),
                   max_size=60),
       size=st.integers(1, 9))
def test_fuzzed_text_splits_as_the_whole_text_does(text, size):
    old = core._SLICE
    core._SLICE = size
    try:
        assert _parsed(core._integers, text) == whole_text_integers(text)
    finally:
        core._SLICE = old


def test_parse_permutation_holds_little_beyond_its_result():
    images = list(range(10 ** 5))
    random.Random(7).shuffle(images)
    text = " ".join(map(str, images))
    tracemalloc.start()
    try:
        sigma = parse_permutation(text)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(sigma.images) == images
    # the result, a tuple and 10^5 int objects, is about 3.6 MB
    assert peak - result <= 1.5 * 10 ** 6, (result, peak)


@pytest.mark.parametrize("text, values", [
    ("3 0 1 2", [3, 0, 1, 2]),
    ("\t+3\x0b-0\x0c1\r2\n", [3, 0, 1, 2]),
    ("-123456789012345678 999999999999999999", [-123456789012345678, 999999999999999999]),
    ("- 0", None), ("+ 1", None), ("--1", None), ("1+2", None), ("1-2", None), ("1- 2", None),
    ("1 2+", None),
    ("9223372036854775807", None), ("-9223372036854775808", None),
    ("12345678901234567890", None), ("-9223372036854775809", None),
    ("1_0", None), ("1.0", None), ("0 \u0663", None), ("0\x1c1", None), (" \n ", None),
])
def test_fromstring_reads_a_slice_only_where_int_reads_it_alike(text, values):
    assert core._fromstring_values(text) == values


def test_parsing_reads_each_slice_by_fromstring_first(monkeypatch):
    fromstring, read = core._fromstring_values, []
    monkeypatch.setattr(core, "_fromstring_values",
                        lambda chunk: read.append(chunk) or fromstring(chunk))
    monkeypatch.setattr(core, "_SLICE", 4)
    assert parse_permutation("3 0 1,2 4").images == (3, 0, 1, 2, 4)
    assert read == ["3 0 1 ", "2 4"]


# Images Permutation refuses, each bad one at index 5
BAD_IMAGES = {
    "float": (0, 1, 2, 3, 4, 1.5, 6, 7),
    "whole float": (0, 1, 2, 3, 4, 5.0, 6, 7),
    "string": (0, 1, 2, 3, 4, "5", 6, 7),
    "2^70": (0, 1, 2, 3, 4, 2 ** 70, 6, 7),
    "-1": (0, 1, 2, 3, 4, -1, 6, 7),
    "duplicate": (0, 1, 2, 3, 4, 3, 6, 7),
    "n": (0, 1, 2, 3, 4, 8, 6, 7),
    "pair": (0, 1, 2, 3, 4, (5, 5), 6, 7),
    "all pairs": tuple((v, v) for v in range(8)),
}


@pytest.mark.parametrize("images", BAD_IMAGES.values(), ids=BAD_IMAGES)
def test_numpy_image_check_refuses_as_the_loop_does(monkeypatch, images):
    def refusal():
        with pytest.raises((InputError, TypeError)) as info:
            Permutation(images)
        return type(info.value), str(info.value)

    monkeypatch.setattr(core, "_NUMPY_IMAGES", 1 << 62)
    by_loop = refusal()
    assert by_loop[0] is TypeError or "at index 5" in by_loop[1]
    monkeypatch.setattr(core, "_NUMPY_IMAGES", 1)
    assert refusal() == by_loop


def test_numpy_image_check_accepts_what_the_loop_accepts(monkeypatch):
    monkeypatch.setattr(core, "_NUMPY_IMAGES", 1)
    assert core._numpy_vouches((2, 0, 1))
    sigma = Permutation(np.array([2, 0, 1]))
    assert sigma.images == (2, 0, 1) and type(sigma.images[0]) is np.int64
    assert Permutation(np.array([1, 0], dtype=np.uint8)).images == (1, 0)
    assert Permutation((True, False)).images == (1, 0)
    assert Permutation((True, 0, 2)).images == (1, 0, 2)


def test_parsing_and_checking_1e5_images_do_not_import_numpy():
    script = ("import sys\n"
              "from quasiperm.core import Permutation, parse_permutation\n"
              "images = tuple(range(10 ** 5 - 1, -1, -1))\n"
              "assert parse_permutation(' '.join(map(str, images))).images == images\n"
              "assert Permutation(images).images == images\n"
              "sys.exit('numpy' in sys.modules)")
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
