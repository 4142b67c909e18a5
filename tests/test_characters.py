"""Kostka polynomials, fiber characters, and fixed-point weight data."""

import copy
import dataclasses
import functools
import pickle
import random
import weakref
from collections import Counter
from itertools import chain
from math import factorial, prod

import pytest
from _oracles import one_minus_quotient
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmkostka import characters, qpoly, schur
from cmkostka import partitions as partitions_module
from cmkostka.characters import (
    CharacterReport,
    character,
    completion_character_check,
    fixed_point_exponents,
    kostka,
    kostka_wreath,
    tangent_weights,
)
from cmkostka.cli import main
from cmkostka.partitions import (
    GammaPartition,
    Partition,
    enumerate_gamma_partitions,
    enumerate_partitions,
    gamma_dimension,
    hook_lengths,
    syt_count,
)
from cmkostka.qpoly import (
    LaurentPoly,
    NonExactDivision,
    evaluate_at_one,
    exact_divide,
    one_minus_q,
    qfactorial_product,
    substitute_inverse,
)
from cmkostka.verify import _cell_hooks


def test_kostka_golden_values():
    assert kostka(Partition(())) == LaurentPoly({0: 1})
    assert kostka(Partition((1,))) == LaurentPoly({0: 1})
    assert kostka(Partition((2, 1))).coeffs == {0: 1, 1: 1}
    assert kostka(Partition((3, 1))).coeffs == {0: 1, 1: 1, 2: 1}
    assert kostka(Partition((2, 2))).coeffs == {0: 1, 2: 1}
    assert kostka(Partition((4,))) == LaurentPoly({0: 1})
    assert kostka(Partition((1, 1, 1, 1))) == LaurentPoly({0: 1})


def test_kostka_wreath_golden_values():
    pair = GammaPartition((Partition((1,)), Partition((1,))))
    assert kostka_wreath(pair).coeffs == {0: 1, 1: 1}
    lone = GammaPartition((Partition((2,)), Partition(())))
    assert kostka_wreath(lone) == LaurentPoly({0: 1})
    mixed = GammaPartition((Partition((1, 1)), Partition((1,))))
    assert kostka_wreath(mixed).coeffs == {0: 1, 1: 1, 2: 1}


def test_character_report_golden():
    report = character(Partition((2, 1)))
    assert report.kostka.coeffs == {0: 1, 1: 1}
    assert report.character.coeffs == {-1: 1, 0: 2, 1: 1}
    assert str(report.character) == "q^-1 + 2 + q"
    assert report.dimension == 2


def test_character_accepts_wreath_labels():
    gp = GammaPartition((Partition((1,)), Partition((1,))))
    report = character(gp)
    assert report.character.coeffs == {-1: 1, 0: 2, 1: 1}
    assert report.dimension == 2


def test_character_rejects_other_types():
    with pytest.raises(TypeError):
        character((2, 1))
    with pytest.raises(TypeError):
        kostka("2,1")


@functools.cache
def _labels():
    """(label, hooks) for every partition of n <= 14 and every wreath label
    with N <= 3, n <= 6, the hooks read cell by cell through Partition.hook,
    so that neither the hook cache nor the hook key is used."""
    labels = [(lam, (lam,)) for n in range(15) for lam in enumerate_partitions(n)]
    labels += [(gp, gp.components) for N in (1, 2, 3) for n in range(7) for gp in enumerate_gamma_partitions(N, n)]
    return tuple((label, tuple(sorted(chain.from_iterable(map(_cell_hooks, components)), reverse=True)))
                 for label, components in labels)


def _set_caches(cache):
    """Empty every hook cache ("cold"), or fill the character cache for every label ("warm")."""
    if cache == "cold":
        _clear_hook_caches()
        partitions_module._hook_lengths.cache_clear()
    else:
        for label, _ in _labels():
            character(label)


def test_kostka_matches_long_division_oracle():
    # _dense_payload divides by each 1 - q^h in turn on a dense coefficient list
    for label, hooks in _labels():
        expected = _dense_payload(hooks)[0]
        k = kostka(label)
        assert k == expected and 0 not in k.coeffs.values(), label
        if isinstance(label, GammaPartition):
            assert kostka_wreath(label) == expected


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_memoised_kostka_matches_fresh_quotient(cache):
    _set_caches(cache)
    warm_misses = characters._hook_character.cache_info().misses
    for label, hooks in _labels():
        report = character(label)
        assert report == CharacterReport(label, *_dense_payload(hooks))
        assert report.kostka is kostka(label)
    assert characters._hook_kostka.cache_info().hits > 0
    if cache == "warm":
        info = characters._hook_character.cache_info()
        assert info.hits > 0 and info.misses == warm_misses


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_report_dimension_matches_the_tableau_oracle(cache):
    # syt_count and gamma_dimension never read the cached value at one
    _set_caches(cache)
    for label, _ in _labels():
        expected = gamma_dimension(label) if isinstance(label, GammaPartition) else syt_count(label)
        assert character(label).dimension == expected, label


def test_word_kernel_matches_dense_quotient_on_every_small_label():
    _assert_word_matches_dense(list(dict.fromkeys(hooks for _, hooks in _labels())), 64)


def test_characters_are_shared_per_hook_multiset():
    lam = Partition((4, 2, 1))
    assert character(lam).character is character(lam.conjugate()).character
    gp = GammaPartition((Partition((2, 1)), Partition(()), Partition((3,))))
    assert character(gp).character is character(gp.permuted((2, 0, 1))).character
    assert character(Partition((3, 1))).character is not character(Partition((2, 2))).character
    first = {}
    for label, hooks in _labels():
        report = character(label)
        shared = first.setdefault(hooks, report)
        assert report.kostka is shared.kostka and report.character is shared.character
    # every report in first is alive, so distinct keys show as distinct ids
    assert len({id(report.character) for report in first.values()}) == len(first)


@pytest.mark.parametrize(
    "label, other",
    [
        (Partition((2, 1)), Partition((2, 1))),
        (Partition((3, 1)), Partition((2, 1, 1))),
        (GammaPartition((Partition((2,)), Partition((1,)))), GammaPartition((Partition((1,)), Partition((2,))))),
    ],
)
def test_shared_polynomials_are_read_only(label, other):
    # the cached objects reach every caller, so a write to one of them would
    # reach every later label with that hook multiset
    report = character(label)
    k, chi = dict(report.kostka.coeffs), dict(report.character.coeffs)
    for poly in (report.kostka, report.character):
        with pytest.raises(TypeError):
            poly.coeffs[5] = 9
        with pytest.raises(TypeError):
            del poly.coeffs[0]
    assert kostka(other).coeffs == k and character(other).character.coeffs == chi
    assert kostka(other) == LaurentPoly(k) and character(other).character == LaurentPoly(chi)


def _hook_key_labels():
    for n in range(13):
        for lam in enumerate_partitions(n):
            yield lam, (lam,)
    for N, top in ((1, 6), (2, 6), (3, 6), (4, 5)):
        for n in range(top + 1):
            for gp in enumerate_gamma_partitions(N, n):
                yield gp, gp.components


def test_hook_key_matches_the_summed_size_oracle():
    # the reference is the key as one chained sort; its length is the size
    count = 0
    for label, components in _hook_key_labels():
        expected = tuple(sorted(chain.from_iterable(map(hook_lengths, components)), reverse=True))
        key = characters._hook_key(label)
        assert key == expected
        assert len(key) == label.size
        count += 1
    assert count == 1272  # 272 partitions and 1000 wreath labels


def test_character_report_is_a_frozen_slotted_dataclass():
    wreath = GammaPartition((Partition((2, 1)), Partition(()), Partition((1,))))
    for label in (Partition((3, 1)), wreath):
        genuine = character(label)
        payload = (genuine.kostka, genuine.character, genuine.dimension)
        built = characters._report(label, payload)
        by_keyword = CharacterReport(
            label=label, kostka=genuine.kostka, character=genuine.character, dimension=genuine.dimension
        )
        by_position = CharacterReport(label, *payload)
        assert by_keyword == by_position
        for report in (genuine, built):
            assert type(report) is CharacterReport
            assert report == by_position and by_position == report
            assert hash(report) == hash(by_position)
            assert repr(report) == repr(by_position)
            assert copy.deepcopy(report) == report
            assert pickle.loads(pickle.dumps(report)) == report
            assert dataclasses.replace(report) == report
            bumped = dataclasses.replace(report, dimension=report.dimension + 1)
            assert bumped != report and bumped.kostka is report.kostka
            assert dataclasses.replace(bumped, dimension=report.dimension) == report
            for field in dataclasses.fields(CharacterReport):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(report, field.name, None)
            assert report.dimension == genuine.dimension
            assert not hasattr(report, "__dict__")
            with pytest.raises(TypeError):
                weakref.ref(report)


def test_caches_are_bounded():
    for cached in (characters._hook_kostka, characters._hook_character, characters._repunit_word,
                   characters._qfactorial_word, partitions_module._hook_lengths,
                   partitions_module._partitions_of, partitions_module._gamma_partitions_of, schur._pieri_level,
                   qpoly._qfactorial_product, qpoly._qmultinomial):
        assert cached.cache_info().maxsize is not None


# -- the word kernel against the dense quotient and the schoolbook character


def _clear_hook_caches():
    for cached in (characters._hook_kostka, characters._hook_character, characters._repunit_word,
                   characters._qfactorial_word):
        cached.cache_clear()


@functools.cache
def _dense_payload(hooks):
    """(kostka, character, dimension) from one_minus_quotient and K * K(1/q),
    with no word arithmetic."""
    k = one_minus_quotient(range(1, len(hooks) + 1), hooks)
    return k, k * substitute_inverse(k), evaluate_at_one(k)


def _assert_word_matches_dense(keys, bits):
    _clear_hook_caches()
    for key in keys:
        assert characters._hook_kostka(key)[2] == bits, key
        assert characters._hook_character(key) == _dense_payload(key), key
        assert characters._hook_kostka(key)[0] is characters._hook_character(key)[0]


def test_word_kernel_matches_dense_quotient_on_wide_words():
    # n >= 21: n! >= 2^64, so two 64-bit halves per word
    rng = random.Random(2125)
    sampled = [lam for n in range(21, 25) for lam in rng.sample(enumerate_partitions(n), 12)]
    _assert_word_matches_dense(list(dict.fromkeys(map(characters._hook_key, sampled))), 128)
    # sixteen single boxes: d = 16! < 2^64 but d^2 >= 2^64
    singles = GammaPartition((Partition((1,)),) * 16)
    assert gamma_dimension(singles) ** 2 >= 2**64 > factorial(16)
    _assert_word_matches_dense([characters._hook_key(singles)], 128)


def test_words_are_64_bits_up_to_the_cli_caps():
    # every partition of n <= 20 and every wreath label the batch caps admit
    labels = [lam for n in range(21) for lam in enumerate_partitions(n)]
    labels += [gp for N in range(1, 5) for n in range(11) for gp in enumerate_gamma_partitions(N, n)]
    assert {characters._hook_kostka(characters._hook_key(label))[2] for label in labels} == {64}


def test_word_kernel_rejects_multisets_that_are_no_labels_hooks():
    # n is the hook count.  5,4,3,3,2,2 divides, but the quotient
    # 1 - q + q^2 borrows digits at q = 2^64; 3,3,1,1 leaves a remainder,
    # and so does 2,2,2,1, though 8 divides 4! and its word is the one divided
    assert one_minus_quotient(range(1, 7), (5, 4, 3, 3, 2, 2)).coeffs == {0: 1, 1: -1, 2: 1}
    for hooks in ((3, 3, 1, 1), (2, 2, 2, 1)):
        with pytest.raises(NonExactDivision):
            one_minus_quotient(range(1, 5), hooks)
    _clear_hook_caches()
    # the last fails the input guard with a hook below 1
    for hooks in ((5, 4, 3, 3, 2, 2), (3, 3, 1, 1), (2, 2, 2, 1), (2, 0)):
        for cached in (characters._hook_kostka, characters._hook_character):
            with pytest.raises(NonExactDivision) as raised:
                cached(hooks)
            assert str(raised.value) == f"hooks {hooks}: no label has these hooks; the word fails its certificate"
            assert raised.value.remainder == {}


@st.composite
def guarded_hook_multisets(draw):
    """A hook multiset passing _hook_kostka's guard (with n hooks: each at
    least 1, prod(hooks) dividing n!, sum(hooks) <= n(n+1)/2), mostly no
    label's hooks: a partition's hooks with factors moved between hooks or
    dropped, which keeps the product a divisor of n!."""
    n = draw(st.integers(min_value=1, max_value=14))
    hooks = list(hook_lengths(draw(st.sampled_from(enumerate_partitions(n)))))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        if hooks[i] == 1:
            continue
        f = draw(st.sampled_from([f for f in range(2, hooks[i] + 1) if hooks[i] % f == 0]))
        hooks[i] //= f
        j = draw(st.integers(min_value=-1, max_value=n - 1))
        if j >= 0:
            hooks[j] *= f
    assume(sum(hooks) <= n * (n + 1) // 2)
    return tuple(sorted(hooks, reverse=True))


@settings(max_examples=300, deadline=None)
@given(guarded_hook_multisets())
@example((2, 2, 2, 1))  # the word leaves a remainder
@example((5, 4, 3, 3, 2, 2))  # exact, with a negative coefficient
@example((1,) * 14)
def test_guarded_word_has_at_most_deg_plus_one_digits(hooks):
    # the bound _hook_kostka's docstring proves, on the integer quotient
    # whether or not it divides exactly
    n = len(hooks)
    top = factorial(n)
    d = top // prod(hooks)
    deg = n * (n + 1) // 2 - sum(hooks)
    assert top % prod(hooks) == 0 and deg >= 0
    bits = 64
    while 1 << bits <= max(top, d * d):
        bits += 64
    x = 1 << bits
    # [m](x) = (x^m - 1) / (x - 1), and the n factors x - 1 cancel
    assert prod(x**m - 1 for m in range(1, n + 1)) // prod(x**h - 1 for h in hooks) < x ** (deg + 1)
    # the certificate accepts exactly the polynomial quotients with
    # nonnegative coefficients, and raises NonExactDivision otherwise
    try:
        dense = one_minus_quotient(range(1, n + 1), hooks)
    except NonExactDivision:
        dense = None
    if dense is None or min(dense.coeffs.values()) < 0:
        with pytest.raises(NonExactDivision):
            characters._hook_kostka(hooks)
    else:
        assert characters._hook_kostka(hooks)[0] == dense


def test_kostka_batches_build_no_character(capsys):
    _clear_hook_caches()
    for n in range(1, 13):
        assert main(["kostka", "--n", str(n)]) == 0
    for n in range(1, 6):
        assert main(["kostka", "--N", "3", "--n", str(n)]) == 0
        assert main(["wreath", "--N", "3", "--n", str(n)]) == 0
    capsys.readouterr()
    assert characters._hook_kostka.cache_info().currsize > 0
    assert characters._hook_character.cache_info().currsize == 0


def test_fresh_character_multiplies_no_polynomials(monkeypatch):
    calls = []
    genuine = LaurentPoly.__mul__

    def spy(self, other):
        calls.append((self, other))
        return genuine(self, other)

    _clear_hook_caches()
    monkeypatch.setattr(LaurentPoly, "__mul__", spy)
    for label in (Partition((5, 3, 2, 1)), GammaPartition((Partition((2, 1)), Partition(()), Partition((3,))))):
        report = character(label)
        assert calls == []
        # the check calls the genuine product, not the spy
        assert report.character == genuine(report.kostka, substitute_inverse(report.kostka))


def _summed_character_sides(n, N=None):
    """Both sides of sum_Lam K_Lam(q) K_Lam(1/q) = sum_mu N^l(mu) z_mu^-1 chi_mu(q) chi_mu(1/q),
    multiplied by n! so that the class sizes n!/z_mu are integers.

    The labels Lam are the partitions of n, or with N the N-component wreath
    labels of total size n, whose identity is Molien's average over
    G(N,1,n).  The left side goes through character(); the right side uses
    only cycle types, with chi_mu = (1-q)...(1-q^n) / prod over parts m of
    (1 - q^m) by long division, and no hooks.
    """
    labels = enumerate_partitions(n) if N is None else enumerate_gamma_partitions(N, n)
    scale = LaurentPoly({0: factorial(n)})
    left = scale * sum((character(label).character for label in labels), LaurentPoly())
    right = LaurentPoly()
    for mu in enumerate_partitions(n):
        chi = exact_divide(qfactorial_product(n), prod(map(one_minus_q, mu.parts), start=LaurentPoly({0: 1})))
        z = prod(m**a * factorial(a) for m, a in Counter(mu.parts).items())
        weight = (N or 1) ** len(mu.parts) * (factorial(n) // z)
        right = right + LaurentPoly({0: weight}) * chi * substitute_inverse(chi)
    return left, right


def test_summed_character_matches_cycle_type_average():
    for n in range(11):
        left, right = _summed_character_sides(n)
        assert left == right
        assert evaluate_at_one(left) == factorial(n) ** 2


def test_summed_character_detects_one_corrupted_hook(monkeypatch):
    # (2,1) has hooks 3,1,1; reading one 1 as 2 turns its Kostka polynomial
    # 1 + q into 1, so no division fails and only the value is wrong.
    genuine = characters.hook_lengths

    def corrupted(lam):
        return (3, 2, 1) if lam == Partition((2, 1)) else genuine(lam)

    monkeypatch.setattr(characters, "hook_lengths", corrupted)
    left, right = _summed_character_sides(3)
    assert left != right


def test_summed_wreath_character_matches_molien_average():
    for N in range(1, 5):
        for n in range(7):
            left, right = _summed_character_sides(n, N)
            assert left == right
            assert evaluate_at_one(left) == factorial(n) * N**n * factorial(n)


def test_summed_wreath_character_detects_one_corrupted_component_hook(monkeypatch):
    # the same corruption as above, reached only through a component of a
    # wreath label: (2,1) in slot 1 of a two-slot label of size 4
    genuine = characters.hook_lengths

    def corrupted(lam):
        return (3, 2, 1) if lam == Partition((2, 1)) else genuine(lam)

    monkeypatch.setattr(characters, "hook_lengths", corrupted)
    assert any(gp.components[1] == Partition((2, 1)) for gp in enumerate_gamma_partitions(2, 4))
    left, right = _summed_character_sides(4, 2)
    assert left != right


def test_dropped_component_hook_changes_the_wreath_character(monkeypatch):
    # n is the hook count: dropping the one hook of a (1) component gives
    # exactly the character of the label with that slot emptied, not the
    # hook formula at the old size.
    labels = [gp for gp in enumerate_gamma_partitions(2, 4) if Partition((1,)) in gp.components]
    assert len(labels) == 6
    genuine = {gp: character(gp) for gp in labels}
    emptied = {gp: character(GammaPartition(Partition(()) if c == Partition((1,)) else c for c in gp.components))
               for gp in labels}
    hooks = characters.hook_lengths

    def dropped(lam):
        return hooks(lam)[:-1] if lam == Partition((1,)) else hooks(lam)

    monkeypatch.setattr(characters, "hook_lengths", dropped)
    for gp in labels:
        report = character(gp)
        assert report != genuine[gp]
        assert report.character != genuine[gp].character
        assert report.kostka == emptied[gp].kostka and report.character == emptied[gp].character
        assert report.dimension == emptied[gp].dimension


def test_fixed_point_exponents_golden():
    assert fixed_point_exponents(Partition((2, 1))) == {5, 3, 1}
    assert fixed_point_exponents(Partition((3,))) == {5, 4, 0}
    assert fixed_point_exponents(Partition((1,))) == {0}


def test_fixed_point_exponents_take_the_size_from_the_partition():
    # n is the partition's size, so no part can exceed it and push an exponent below 0
    assert fixed_point_exponents(Partition(())) == set()
    with pytest.raises(TypeError):
        fixed_point_exponents(Partition((3,)), n=1)


@pytest.mark.parametrize(
    "label", [GammaPartition((Partition((1,)), Partition(()))), (2, 1), "2,1", None], ids=repr
)
def test_fixed_point_data_rejects_other_types(label):
    # the completion check refuses the type before it looks at the order
    for call in (fixed_point_exponents, tangent_weights, lambda lam: completion_character_check(lam, 0)):
        with pytest.raises(TypeError, match=f"^expected Partition, got {type(label).__name__}$"):
            call(label)


def test_fixed_point_exponents_are_distinct_in_range():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            exps = fixed_point_exponents(lam)
            assert len(exps) == n
            assert all(0 <= e < 2 * n for e in exps)


def test_tangent_weights_golden():
    assert tangent_weights(Partition((2, 1))) == (-3, -1, -1)
    assert tangent_weights(Partition((1,))) == (-1,)
    assert tangent_weights(Partition(())) == ()


def test_tangent_weights_match_negated_hooks_through_twelve():
    for n in range(7, 13):
        for lam in enumerate_partitions(n):
            assert tangent_weights(lam) == tuple(sorted(-h for h in hook_lengths(lam)))


# -- the character by localization at the C*-fixed points, from contents alone


def _contents(lam):
    return [col - row for row, p in enumerate(lam.parts) for col in range(p)]


def _fixed_point_tangent(contents):
    """T = (t + 1/t - 2) V V* + V + V*, V = sum of t^content over the cells: the
    tangent character at a fixed point of CM_n, ker d(mu) minus gl_n."""
    v = LaurentPoly(Counter(contents))
    v_star = substitute_inverse(v)
    return LaurentPoly({1: 1, 0: -2, -1: 1}) * v * v_star + v + v_star


def _localized_character(tangent, n):
    """prod_{i<=n} (1 - q^i)(1 - q^-i) / prod_{w in T} (1 - q^w) by exact division,
    or None when T is not a multiset of nonzero weights."""
    if any(m < 0 for m in tangent.coeffs.values()) or 0 in tangent.coeffs:
        return None
    factors = [LaurentPoly({0: 1, w: -1}) for w, m in tangent.coeffs.items() for _ in range(m)]
    weights = prod(factors, start=LaurentPoly({0: 1}))
    numerator = qfactorial_product(n) * substitute_inverse(qfactorial_product(n))
    return exact_divide(numerator, weights)


def test_character_by_localization_from_contents():
    for n in range(11):
        for lam in enumerate_partitions(n):
            tangent = _fixed_point_tangent(_contents(lam))
            hooks = hook_lengths(lam)
            assert tangent == LaurentPoly(Counter([h for h in hooks] + [-h for h in hooks]))
            assert _localized_character(tangent, n) == character(lam).character
            negative = tuple(sorted(w for w, m in tangent.coeffs.items() if w < 0 for _ in range(m)))
            assert negative == tangent_weights(lam)


def test_character_by_localization_breaks_under_a_shifted_content():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            contents = _contents(lam)
            for i in range(n):
                for shift in (1, -1):
                    shifted = contents[:i] + [contents[i] + shift] + contents[i + 1:]
                    tangent = _fixed_point_tangent(shifted)
                    assert tangent != _fixed_point_tangent(contents)
                    assert _localized_character(tangent, n) != character(lam).character


def test_completion_check_detects_corrupted_hooks():
    lam = Partition((2, 1))
    assert not completion_character_check(lam, 12, hooks=(4, 1, 1))
    with pytest.raises(ValueError):
        completion_character_check(lam, 0)
