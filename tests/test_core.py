import tracemalloc

import pytest

from quasiperm.core import (
    MAX_SET_MODULUS,
    CyclicInterval,
    DegenerateIntervalError,
    ModulusMismatchError,
    ParseError,
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

from oracles import brute_components


def test_sym_abs_symmetric_representative():
    assert [sym_abs(r, 10) for r in range(10)] == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1]
    assert sym_abs(-1, 10) == 1
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        CyclicInterval(5, 5, 1)
    with pytest.raises(ValueError):
        CyclicInterval(5, 0, 6)


def test_parse_serialize_permutation_roundtrip():
    p = parse_permutation("3, 0 1,2")
    assert p.images == (3, 0, 1, 2)
    assert parse_permutation(serialize_permutation(p)) == p


def test_parse_permutation_errors_name_the_index():
    with pytest.raises(ParseError, match="index 1"):
        parse_permutation("0 x 2")
    with pytest.raises(ParseError, match="index 2"):
        parse_permutation("0 1 1")
    with pytest.raises(ParseError):
        parse_permutation("")
    with pytest.raises(ParseError):
        parse_permutation("0 5 1")


def test_parse_set_roundtrip_and_errors():
    s = parse_set("10: 0 2 4, 6 8")
    assert s.n == 10 and sorted(s.members) == [0, 2, 4, 6, 8]
    assert parse_set(serialize_set(s)) == s
    with pytest.raises(ParseError):
        parse_set("0 1 2")
    with pytest.raises(ParseError):
        parse_set("10: 0 10")
    with pytest.raises(ParseError):
        parse_set("10: 3 3")


def test_parse_set_modulus_limit_raises_before_allocating():
    assert parse_set(f"{MAX_SET_MODULUS}: 0 7").size == 2
    tracemalloc.start()
    try:
        for text in (f"{MAX_SET_MODULUS + 1}: 0", "100000000000: 1"):
            with pytest.raises(ParseError, match="exceeds"):
                parse_set(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_permutation_inverse_compose():
    p = Permutation((2, 0, 3, 1))
    assert p.compose(p.inverse()) == Permutation.identity(4)
    assert p.inverse().compose(p) == Permutation.identity(4)
    with pytest.raises(ModulusMismatchError):
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
    with pytest.raises(DegenerateIntervalError):
        classify_interval(CyclicInterval.empty(10))
    with pytest.raises(DegenerateIntervalError):
        classify_interval(CyclicInterval.full(10))


def test_image_of_interval():
    p = Permutation((2, 0, 3, 1))
    img = image_of_interval(p, CyclicInterval(4, 3, 2))
    assert sorted(img.members) == [1, 2]
