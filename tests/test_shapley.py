import copy
import hashlib
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import import_sets
from fairbandit.rng import SplitMix64
from fairbandit.shapley import (
    _close,
    _orders_ahead,
    _without_bit,
    AdditiveSteps,
    AxiomReport,
    MAX_EXACT_PLAYERS,
    CharacteristicFunction,
    Coalition,
    CoalitionTooLargeError,
    TableBacked,
    check_axioms,
    load_characteristic,
    shapley_all,
    shapley_oracle_permutations,
    subset_weight,
)
from fairbandit.strictjson import RepeatedKeyError
from fairbandit.verification import random_table_game, run_axiom_suite

TWO_PLAYER_SUPERADDITIVE = TableBacked(
    2, {frozenset([0]): 10000.0, frozenset([1]): 12000.0, frozenset([0, 1]): 23000.0}
)


class LambdaGame(CharacteristicFunction):
    """A game whose v is a function of the subset."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, subset):
        return float(self.fn(subset))


def rel_close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class TestShapleyValue:
    def test_additive_two_players(self):
        v = AdditiveSteps([10.0, 20.0])
        assert shapley_all(v, Coalition.of_size(2))[0] == pytest.approx(10.0)
        assert shapley_all(v, Coalition.of_size(2))[1] == pytest.approx(20.0)

    def test_majority_game_splits_evenly(self):
        v = LambdaGame(lambda s: 1.0 if len(s) >= 2 else 0.0)
        n = Coalition.of_size(3)
        for i in range(3):
            assert shapley_all(v, n)[i] == pytest.approx(1 / 3)

    def test_superadditive_pair(self):
        # Oracle derivation: two arrival orders give marginals
        # (10000, 13000) and (11000, 12000), averaging to 10500 / 12500.
        n = Coalition.of_size(2)
        assert shapley_all(TWO_PLAYER_SUPERADDITIVE, n)[0] == pytest.approx(10500.0)
        assert shapley_all(TWO_PLAYER_SUPERADDITIVE, n)[1] == pytest.approx(12500.0)
        oracle = shapley_oracle_permutations(TWO_PLAYER_SUPERADDITIVE, n)
        assert oracle == pytest.approx([10500.0, 12500.0])

    def test_coalition_too_large(self):
        v = AdditiveSteps([1.0] * 17)
        with pytest.raises(CoalitionTooLargeError):
            shapley_all(v, Coalition.of_size(17))[0]


class TestShapleyAll:
    def test_additive_collapse(self):
        values = shapley_all(AdditiveSteps([10000.0, 12000.0]), Coalition.of_size(2))
        assert values == pytest.approx([10000.0, 12000.0])

    def test_squared_size_game(self):
        # |S|^2 over 3 players: brute force over all 6 orders gives equal
        # attributions; efficiency forces the sum to v(N) = 9.
        v = LambdaGame(lambda s: float(len(s)) ** 2)
        values = shapley_all(v, Coalition.of_size(3))
        assert values == pytest.approx([3.0, 3.0, 3.0])

    def test_superadditive_pair(self):
        values = shapley_all(TWO_PLAYER_SUPERADDITIVE, Coalition.of_size(2))
        assert values == pytest.approx([10500.0, 12500.0])


class TestPermutationOracle:
    def test_additive(self):
        weights = [3.0, 1.5, 4.25, 2.0]
        oracle = shapley_oracle_permutations(AdditiveSteps(weights), Coalition.of_size(4))
        assert oracle == pytest.approx(weights)

    def test_veto_pair_with_null_player(self):
        # v = 1 only when both 0 and 1 are present: hand enumeration over
        # the 6 orders gives 0.5 / 0.5 / 0 (player 2 is null).
        v = LambdaGame(lambda s: 1.0 if {0, 1} <= s else 0.0)
        oracle = shapley_oracle_permutations(v, Coalition.of_size(3))
        assert oracle == pytest.approx([0.5, 0.5, 0.0])

    def test_matches_exact_computation_on_random_games(self):
        rng = SplitMix64(20)
        for _ in range(100):
            n = 2 + rng.randrange(5)  # up to 6 players
            v = random_table_game(n, rng)
            a = shapley_all(v, Coalition.of_size(n))
            b = shapley_oracle_permutations(v, Coalition.of_size(n))
            assert all(rel_close(x, y) for x, y in zip(a, b))

    def test_size_limit(self):
        with pytest.raises(CoalitionTooLargeError):
            shapley_oracle_permutations(AdditiveSteps([1.0] * 9), Coalition.of_size(9))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orders_ahead_counts_each_predecessor_set(self, n):
        # |m|! orders of the players ahead times (n - 1 - |m|)! of those behind
        for player, counts in enumerate(_orders_ahead(n)):
            assert len(counts) == 1 << n
            for mask, count in enumerate(counts):
                size = mask.bit_count()
                want = 0 if mask >> player & 1 else math.factorial(size) * math.factorial(n - 1 - size)
                assert count == want, (player, mask)
            assert sum(counts) == math.factorial(n)

    def _oracle_divergences(self):
        """The trials of a 20-trial suite at max_n 8 that diverge from the
        oracle, and each trial's player count."""
        result = run_axiom_suite(trials=20, max_n=8, seed=3)
        diverged = {
            int(f.split(":")[0].removeprefix("trial "))
            for f in result.failures
            if "diverges from the permutation oracle" in f
        }
        rng, sizes = SplitMix64(3), []
        for _trial in range(20):  # the suite's draws: a size, then two games
            sizes.append(2 + rng.randrange(7))
            random_table_game(sizes[-1], rng), random_table_game(sizes[-1], rng)
        return diverged, sizes

    def test_catches_swapped_subset_weights(self, monkeypatch):
        import fairbandit.shapley as shapley

        weight = shapley.subset_weight
        swap = {1: 2, 2: 1}
        monkeypatch.setattr(
            shapley, "subset_weight",
            lambda s, n: weight(swap.get(s, s) if n >= 5 else s, n),
        )
        diverged, sizes = self._oracle_divergences()
        assert diverged == {t for t, n in enumerate(sizes) if n >= 5} != set()

    def test_catches_swapped_masks(self, monkeypatch):
        import fairbandit.shapley as shapley

        without_bit = shapley._without_bit

        def swapped(seq, bit, offset=0):
            # masks 0 and 1 of the column: the empty set and a singleton,
            # whose weights differ from three players up
            out = without_bit(seq, bit, offset)
            if len(out) > 1:
                out[0], out[1] = out[1], out[0]
            return out

        monkeypatch.setattr(shapley, "_without_bit", swapped)
        diverged, sizes = self._oracle_divergences()
        assert diverged == {t for t, n in enumerate(sizes) if n >= 3} != set()


class TestInvariants:
    def test_weight_normalization(self):
        # the weights over all subsets excluding one player sum to 1
        for n in range(1, 13):
            total = sum(
                math.comb(n - 1, s) * subset_weight(s, n) for s in range(n)
            )
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_efficiency_on_random_games(self):
        rng = SplitMix64(21)
        for _ in range(100):
            n = 2 + rng.randrange(5)
            v = random_table_game(n, rng)
            phi = shapley_all(v, Coalition.of_size(n))
            grand = v(range(n))
            assert abs(sum(phi) - grand) <= 1e-9 * max(1.0, abs(grand))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=8))
    def test_additive_collapse_property(self, weights):
        phi = shapley_all(AdditiveSteps(weights), Coalition.of_size(len(weights)))
        for got, want in zip(phi, weights):
            assert rel_close(got, want)

    @given(
        st.floats(min_value=-1000, max_value=1000).filter(lambda c: abs(c) > 1e-6),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=50)
    def test_scale_equivariance(self, c, seed):
        rng = SplitMix64(seed)
        n = 2 + rng.randrange(3)
        v = random_table_game(n, rng)
        scaled = LambdaGame(lambda s: c * v(s))
        phi = shapley_all(v, Coalition.of_size(n))
        phi_scaled = shapley_all(scaled, Coalition.of_size(n))
        for a, b in zip(phi, phi_scaled):
            assert rel_close(c * a, b, rel=1e-7)


class TestAxioms:
    def test_additive_game_passes_all(self):
        report = check_axioms(AdditiveSteps([5.0, 5.0, 7.0]), Coalition.of_size(3))
        assert report.all_pass
        # the two equal-weight players are flagged interchangeable
        assert (0, 1) in report.witnesses["interchangeable_pairs"]

    def test_dummy_player_gets_zero(self):
        # player 2 never changes the value of any coalition
        v = LambdaGame(lambda s: float(len(s - {2})))
        report = check_axioms(v, Coalition.of_size(3))
        assert report.nullity
        assert report.witnesses["null_players"] == [2]
        assert shapley_all(v, Coalition.of_size(3))[2] == pytest.approx(0.0)

    def test_additivity_on_random_pairs(self):
        rng = SplitMix64(22)
        for _ in range(20):
            v1 = random_table_game(4, rng)
            v2 = random_table_game(4, rng)
            report = check_axioms(v1, Coalition.of_size(4), additivity_partner=v2)
            assert report.additivity

    def test_detects_broken_symmetry(self):
        # symmetric game, asymmetric attribution would fail; here we check
        # the report flags symmetric pairs on a fully symmetric game
        v = LambdaGame(lambda s: float(len(s)))
        report = check_axioms(v, Coalition.of_size(4))
        assert report.symmetry
        assert len(report.witnesses["interchangeable_pairs"]) == 6

    def test_game_is_evaluated_once_per_subset(self):
        seen = []
        v = LambdaGame(lambda s: seen.append(s) or len(s) ** 2)
        check_axioms(v, Coalition.of_size(8))
        assert len(seen) == 255 == len(set(seen))

    def test_coalition_too_large_is_rejected_before_any_evaluation(self):
        seen = []
        v = LambdaGame(lambda s: seen.append(s) or 1.0)
        with pytest.raises(CoalitionTooLargeError):
            check_axioms(v, Coalition.of_size(17))
        assert seen == []


class TestTableBacked:
    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError, match=r"missing value for subset \[1\]"):
            TableBacked(2, {frozenset([0]): 1.0, frozenset([0, 1]): 2.0})

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TableBacked(2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([5]): 1.0})

    def test_empty_set_is_zero(self):
        assert TWO_PLAYER_SUPERADDITIVE(frozenset()) == 0.0

    def test_two_keys_for_one_subset_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TableBacked(2, {(0,): 1.0, (1,): 1.0, (0, 1): 3.0, (1, 0): 9.0})

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match=r"subset \[1\]"):
            TableBacked(2, {frozenset([0]): 1.0, frozenset([1]): math.inf, frozenset([0, 1]): 2.0})

    def test_nonzero_empty_coalition_rejected(self):
        with pytest.raises(ValueError, match="empty-coalition"):
            TableBacked(1, {frozenset(): 5.0, frozenset([0]): 1.0})

    def test_integer_too_large_for_a_float_names_its_subset(self):
        with pytest.raises(ValueError, match=r"^subset \[1\] has a value too large for a float$"):
            TableBacked(2, {frozenset([0]): 1.0, frozenset([1]): 10**400, frozenset([0, 1]): 2.0})


BUILDERS = {
    "TableBacked": lambda players: TableBacked(players, {frozenset([0]): 1.0}),
    "load_characteristic": lambda players: load_characteristic(
        {"players": players, "values": {"0": 1.0}}
    ),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
class TestPlayerCount:
    @pytest.mark.parametrize("players", [-1, 0, 2.7, True, "2", None])
    def test_must_be_a_positive_int(self, build, players):
        with pytest.raises(ValueError, match="players") as err:
            build(players)
        assert not isinstance(err.value, CoalitionTooLargeError)

    def test_above_exact_limit_rejected(self, build):
        with pytest.raises(CoalitionTooLargeError):
            build(MAX_EXACT_PLAYERS + 1)

    def test_huge_count_rejected_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(CoalitionTooLargeError):
                build(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestJsonLoading:
    DOC = {"players": 2, "values": {"0": 10000, "1": 12000, "0,1": 23000}}

    def test_load_from_dict(self):
        v = load_characteristic(self.DOC)
        assert v([0, 1]) == 23000.0
        assert v([]) == 0.0

    def test_load_from_string_and_path(self, tmp_path):
        assert load_characteristic(json.dumps(self.DOC))([0]) == 10000.0
        p = tmp_path / "game.json"
        p.write_text(json.dumps(self.DOC))
        assert load_characteristic(p)([1]) == 12000.0

    def test_load_from_string_longer_than_a_file_name(self):
        values = {",".join(str(i) for i in range(8) if m >> i & 1): 1.0 for m in range(1, 256)}
        text = json.dumps({"players": 8, "values": values})
        assert len(text) > 4096
        assert load_characteristic(text)(range(8)) == 1.0

    def test_missing_subset_is_error(self):
        with pytest.raises(ValueError, match="missing value"):
            load_characteristic({"players": 2, "values": {"0": 1.0, "0,1": 2.0}})

    def test_nonzero_empty_coalition_rejected(self):
        doc = {"players": 1, "values": {"": 5.0, "0": 1.0}}
        with pytest.raises(ValueError, match="empty-coalition"):
            load_characteristic(doc)

    def test_reordered_duplicate_key_rejected(self):
        doc = {"players": 2, "values": {"0": 1, "1": 1, "0,1": 3, "1,0": 9}}
        with pytest.raises(ValueError, match="'1,0'"):
            load_characteristic(doc)

    def test_repeated_member_rejected(self):
        doc = {"players": 2, "values": {"0": 1, "1": 1, "0,1": 3, "0,0": 9}}
        with pytest.raises(ValueError, match="'0,0'"):
            load_characteristic(doc)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "many", None])
    def test_non_finite_or_non_numeric_value_rejected(self, bad):
        doc = {"players": 2, "values": {"0": 1, "1": bad, "0,1": 3}}
        with pytest.raises(ValueError, match="'1'"):
            load_characteristic(doc)

    def test_malformed_key_rejected(self):
        doc = {"players": 2, "values": {"0": 1, "one": 1, "0,1": 3}}
        with pytest.raises(ValueError, match="'one'"):
            load_characteristic(doc)

    def test_missing_path_names_the_file(self, tmp_path):
        missing = tmp_path / "no-such-game.json"
        with pytest.raises(FileNotFoundError, match="no-such-game.json"):
            load_characteristic(missing)

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"players": 2, "values": {"0": 1, "1": 2, "0,1": 3, "0,1": 9}}', '["values"]["0,1"]'),
            ('{"players": 2, "players": 2, "values": {"0": 1, "1": 2, "0,1": 3}}', '["players"]'),
        ],
    )
    def test_repeated_key_is_named_by_its_path(self, tmp_path, text, path):
        game = tmp_path / "game.json"
        game.write_text(text)
        for source in (text, game, str(game)):
            with pytest.raises(RepeatedKeyError) as err:
                load_characteristic(source)
            assert str(err.value) == f"repeated key {path}"

    @pytest.mark.parametrize("raw", ["true", "false", '"7"', '" 3 "', "null"])
    def test_json_text_value_that_is_not_a_number_is_refused(self, raw):
        for key in ("0,1", "1,0"):  # the canonical passes and the per-key walk
            text = f'{{"players": 2, "values": {{"0": 1, "1": 2, "{key}": {raw}}}}}'
            with pytest.raises(ValueError, match=f"key '{key}' has non-numeric value"):
                load_characteristic(text)

    @pytest.mark.parametrize("key", ["0", "1", "0,1", "1,0", ""])
    def test_integer_too_large_for_a_float_names_its_key(self, key):
        huge = "1" + "0" * 400
        values = {"0": "1", "1": "2", "0,1": "3"}
        if key == "1,0":
            del values["0,1"]
        values[key] = huge
        text = '{"players": 2, "values": {%s}}' % ", ".join(f'"{k}": {v}' for k, v in values.items())
        for source in (text, json.loads(text)):  # the parsed text holds a Python int
            with pytest.raises(ValueError, match=f"^key '{key}' has a value too large for a float$"):
                load_characteristic(source)

    def test_number_subclass_loads_from_a_dict(self):
        class Steps(float):
            pass

        doc = {"players": 2, "values": {"0": Steps(1.5), "1": 2, "0,1": Steps(4.0)}}
        assert load_characteristic(doc)._values == [0.0, 1.5, 2.0, 4.0]

    def test_string_neither_file_nor_json_is_named(self, tmp_path):
        missing = str(tmp_path / "no-such-game.json")
        with pytest.raises(ValueError, match="neither an existing file nor valid JSON") as err:
            load_characteristic(missing)
        assert not isinstance(err.value, json.JSONDecodeError)
        assert missing[:30] in str(err.value)


SPELLINGS = {
    "canonical": lambda members: ",".join(map(str, members)),
    "descending": lambda members: ",".join(map(str, reversed(members))),
    "padded": lambda members: ",".join(f" {i} " for i in members),
}


def _spelled_doc(n, values, spell, empty=False, shuffle_seed=None):
    """A table-game document whose key for each subset is `spell(members)`."""
    items = [
        (spell([i for i in range(n) if mask >> i & 1]), v) for mask, v in enumerate(values) if mask
    ]
    if empty:  # "" is the canonical key of the empty set, " " another spelling
        items.insert(0, ("" if spell is SPELLINGS["canonical"] else " ", 0.0))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(items)
    return {"players": n, "values": dict(items)}


def _bits(table):
    return [x.hex() for x in table]


class TestLoaderPaths:
    """A document of canonical keys takes the whole-table passes; any other
    spelling takes the per-key walk. Both must give the same table and
    raise the same error."""

    @pytest.fixture
    def walks(self, monkeypatch):
        import fairbandit.shapley as shapley

        calls = []
        walk = shapley._mask_table
        monkeypatch.setattr(shapley, "_mask_table", lambda *a: calls.append(a[0]) or walk(*a))
        return calls

    @pytest.mark.parametrize("n", [*range(1, 9), 12])
    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
    @pytest.mark.parametrize("empty", [False, True], ids=["no-empty", "empty"])
    def test_every_spelling_loads_the_reference_table(self, walks, n, spelling, shuffled, empty):
        game = random_table_game(n, SplitMix64(100 + n))
        want = TableBacked(
            n, {_members(mask, n): v for mask, v in enumerate(game._values) if mask}
        )._values
        walks.clear()  # TableBacked walks its own mapping
        spell = SPELLINGS[spelling]
        doc = _spelled_doc(n, game._values, spell, empty, 7 * n if shuffled else None)
        assert _bits(load_characteristic(doc)._values) == _bits(want)
        assert _bits(load_characteristic(json.dumps(doc))._values) == _bits(want)
        canonical = _spelled_doc(n, game._values, SPELLINGS["canonical"], empty=True)["values"]
        assert walks == ([] if doc["values"].keys() <= canonical.keys() else [n, n])

    @pytest.mark.parametrize("raw", [True, "7", " 3 ", 7, 7.5, "nan", "inf", None, "x", [1]])
    @pytest.mark.parametrize("where", [[0, 2], []], ids=["member-key", "empty-key"])
    def test_both_paths_agree_on_each_raw_value(self, walks, raw, where):
        values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        outcomes = {}
        for spelling in ("canonical", "padded"):
            doc = _spelled_doc(3, values, SPELLINGS[spelling], empty=True)
            key = SPELLINGS[spelling](where) or ("" if spelling == "canonical" else " ")
            doc["values"][key] = raw
            try:
                outcomes[spelling] = _bits(load_characteristic(doc)._values)
            except ValueError as err:
                outcomes[spelling] = str(err).replace(repr(key), "KEY")
                assert repr(key) in str(err)
        assert outcomes["canonical"] == outcomes["padded"]
        # Only a JSON number loads: true and numeric strings are refused.
        accepted = type(raw) in (int, float) and where != []
        assert isinstance(outcomes["canonical"], list) == accepted
        if accepted:
            assert walks == [3]  # only the padded document walked
        if raw is True or raw in ("7", " 3 "):
            assert outcomes["canonical"] == f"key KEY has non-numeric value {raw!r}"

    def test_integer_too_large_for_a_float_falls_through_to_the_walk(self, walks):
        doc = {"players": 1, "values": {"0": 10**400}}
        with pytest.raises(ValueError) as err:
            load_characteristic(doc)
        assert str(err.value) == "key '0' has a value too large for a float"
        assert walks == [1]  # the canonical passes gave the document to the walk

    @pytest.mark.parametrize("spelling", ["canonical", "descending"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_first_problem_in_document_order_is_named(self, spelling, reverse):
        spell = SPELLINGS[spelling]
        doc = _spelled_doc(3, [0.0] * 8, spell)
        doc["values"][spell([0, 1])] = "x"
        doc["values"][spell([1, 2])] = math.inf
        if reverse:
            doc["values"] = dict(reversed(doc["values"].items()))
        first = f"key {spell([1, 2])!r} has non-finite value inf" if reverse else (
            f"key {spell([0, 1])!r} has non-numeric value 'x'"
        )
        with pytest.raises(ValueError) as err:
            load_characteristic(doc)
        assert str(err.value) == first
        del doc["values"][spell([2])]  # a missing key is only found after the walk
        with pytest.raises(ValueError) as err:
            load_characteristic(doc)
        assert str(err.value) == first


def _old_subsets_excluding(coalition, excluded):
    others = [p for p in coalition if p not in excluded]
    for mask in range(1 << len(others)):
        yield frozenset(others[b] for b in range(len(others)) if mask >> b & 1)


def _old_shapley_value(v, coalition, player):
    """The frozenset enumeration the mask table replaced, kept as the
    reference for bit-identity."""
    n = len(coalition)
    weights = [subset_weight(s, n) for s in range(n)]
    total = 0.0
    for subset in _old_subsets_excluding(coalition, (player,)):
        total += weights[len(subset)] * (v(subset | {player}) - v(subset))
    return total


def _old_oracle(v, coalition):
    n = len(coalition)
    totals = [0.0] * n
    for order in permutations(coalition):
        prefix = frozenset()
        prev = 0.0
        for player in order:
            cur = v(prefix | {player})
            totals[player] += cur - prev
            prefix = prefix | {player}
            prev = cur
    return [t / math.factorial(n) for t in totals]


def _members(mask, n):
    return frozenset(i for i in range(n) if mask >> i & 1)


def _callable_game(s):
    return (1.0 + sum(math.sqrt(i + 1.5) for i in sorted(s))) ** 1.7 - len(s) / 3.0


def _games(n, seed):
    """One game of every characteristic-function subclass at size n."""
    rng = SplitMix64(seed)
    return {
        "table": random_table_game(n, rng),
        "additive": AdditiveSteps([rng.uniform(0.0, 20000.0) for _ in range(n)]),
        "callable": LambdaGame(_callable_game),
    }


class TestMaskTable:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_by_mask_matches_v_for_every_subclass(self, n):
        for name, v in _games(n, 40 + n).items():
            table = v.by_mask(n)
            assert len(table) == 1 << n, name
            assert table[0] == 0.0
            for mask in range(1 << n):
                assert table[mask] == v(_members(mask, n)), (name, mask)

    def test_table_game_serves_its_leading_players(self):
        v = random_table_game(5, SplitMix64(3))
        assert v.by_mask(3) == [v(_members(m, 3)) for m in range(8)]
        with pytest.raises(ValueError, match="5 players"):
            v.by_mask(6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_shapley_all_and_value_bit_identical(self, n):
        coalition = Coalition.of_size(n)
        for name, v in _games(n, 60 + n).items():
            want = [_old_shapley_value(v, coalition, i) for i in coalition]
            assert shapley_all(v, coalition) == want, name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_oracle_bit_identical(self, n):
        coalition = Coalition.of_size(n)
        for name, v in _games(n, 80 + n).items():
            assert shapley_oracle_permutations(v, coalition) == shapley_all(v, coalition), name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_oracle_close_to_the_per_order_fold(self, n):
        coalition = Coalition.of_size(n)
        games = _games(n, 80 + n)
        if n == 8:
            # the frozenset reference takes ~0.3 s per game at n = 8
            games = {"table": games["table"]}
        for name, v in games.items():
            oracle, old = shapley_oracle_permutations(v, coalition), _old_oracle(v, coalition)
            assert all(map(_close, oracle, old)), name

    def test_shapley_all_digest_pinned(self):
        # sha256 of float.hex of every attribution, taken from the
        # frozenset enumeration before the mask table replaced it
        digest = hashlib.sha256()
        rng = SplitMix64(2024)
        for n in range(8, 13):
            v = random_table_game(n, rng)
            for phi in shapley_all(v, Coalition.of_size(n)):
                digest.update(float.hex(phi).encode() + b"\n")
        assert digest.hexdigest() == (
            "f53dda15d31c5226fcbaa599d549e4060e414381e9db860219d0c7926852f3be"
        )

    def test_oracle_digest_pinned(self):
        # sha256 of float.hex of every oracle value, taken when the oracle
        # began weighting each predecessor set by its count of orders (the
        # per-order fold gave 058ee69d...420857); the same on CPython 3.10
        # to 3.13
        digest = hashlib.sha256()
        rng = SplitMix64(7)
        for n in range(1, 9):
            v = random_table_game(n, rng)
            for phi in shapley_oracle_permutations(v, Coalition.of_size(n)):
                digest.update(float.hex(phi).encode() + b"\n")
        assert digest.hexdigest() == (
            "9da8b6b7aa46839dd6a14c1a4929c7d5f1b7cb884b57a2afffb6d8404c370035"
        )

    @pytest.mark.parametrize("n", range(13))
    def test_without_bit_selects_masks_lacking_the_bit(self, n):
        seq = [float(m) for m in range(1 << n)]
        for p in range(n + 1):
            bit = 1 << p
            assert _without_bit(seq, bit) == [seq[m] for m in range(1 << n) if not m & bit]
            if p < n:
                assert _without_bit(seq, bit, bit) == [
                    seq[m | bit] for m in range(1 << n) if not m & bit
                ]

    @pytest.mark.parametrize("p", [MAX_EXACT_PLAYERS // 2 - 1, MAX_EXACT_PLAYERS // 2])
    def test_without_bit_at_the_exact_limit(self, p):
        # strided columns below p = 8 at n = 16, contiguous runs from p = 8
        n, bit = MAX_EXACT_PLAYERS, 1 << p
        seq = list(range(1 << n))
        assert _without_bit(seq, bit) == [m for m in seq if not m & bit]
        assert _without_bit(seq, bit, bit) == [m | bit for m in seq if not m & bit]


def _branchy_attribution(table, player):
    """`_attribution` as it was when it tested the player's bit on every
    mask, with its weights indexed by mask."""
    n = len(table).bit_length() - 1
    weights = [subset_weight(s, n) for s in range(n)] + [0.0]
    weights = [weights[mask.bit_count()] for mask in range(len(table))]
    bit = 1 << player
    total = 0.0
    for mask in range(len(table)):
        if not mask & bit:
            total += weights[mask] * (table[mask | bit] - table[mask])
    return total


def _reduce_oracle(v, coalition):
    """`shapley_oracle_permutations` as it was when it folded each
    player's gain over every arrival order with `reduce`."""
    n = len(coalition)
    table = v.by_mask(n)
    ahead = [[] for _ in coalition]
    for order in permutations(coalition):
        prefix = 0
        for player in order:
            ahead[player].append(prefix)
            prefix |= 1 << player
    phi = []
    for player, masks in enumerate(ahead):
        bit = 1 << player
        gain = [table[mask | bit] - table[mask] for mask in range(len(table))]
        phi.append(reduce(operator.add, map(gain.__getitem__, masks), 0.0) / math.factorial(n))
    return phi


# Zeros of both signs, subnormals, and values near the largest finite
# float, whose differences overflow to inf and whose sums of opposite
# infinities are NaN.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e307, sys.float_info.max),
    st.floats(-sys.float_info.max, -1e307),
)


def _edge_table_game(n, palette, seed):
    """A table game whose values are drawn from `palette`, each scaled by a
    factor in [0.5, 1); the table is too long to draw value by value."""
    rng = SplitMix64(seed)
    table = [0.0] + [
        palette[rng.randrange(len(palette))] * rng.uniform(0.5, 1.0)
        for _mask in range(1, 1 << n)
    ]
    return TableBacked._of_table(n, table)


def _hexes(values):
    return [float.hex(x) for x in values]


class TestEdgeFloatBits:
    def _check_attribution(self, v, n):
        coalition = Coalition.of_size(n)
        want = _hexes(_branchy_attribution(v.by_mask(n), i) for i in coalition)
        assert _hexes(shapley_all(v, coalition)) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.lists(_EDGE_FLOATS, min_size=1, max_size=12),
        st.integers(0, 2**64 - 1),
    )
    def test_small_games_match_the_previous_folds(self, n, palette, seed):
        v = _edge_table_game(n, palette, seed)
        self._check_attribution(v, n)
        coalition = Coalition.of_size(n)
        oracle = shapley_oracle_permutations(v, coalition)
        assert _hexes(oracle) == _hexes(shapley_all(v, coalition))
        # The per-order fold divides once at the end; where its total stayed
        # finite, the oracle's weighted terms must agree with it.
        for got, old in zip(oracle, _reduce_oracle(v, coalition)):
            assert not math.isfinite(old) or _close(got, old), (got, old)

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(9, 12),
        st.lists(_EDGE_FLOATS, min_size=1, max_size=12),
        st.integers(0, 2**64 - 1),
    )
    def test_large_games_match_the_previous_attribution(self, n, palette, seed):
        self._check_attribution(_edge_table_game(n, palette, seed), n)


def test_axiom_suite_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        run_axiom_suite(trials=-3, max_n=6, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_random_table_game_draws_the_scalar_uniforms(seed):
    for n in range(1, 13):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        table = random_table_game(n, block).by_mask(n)
        want = [0.0] + [scalar.uniform(-100.0, 100.0) for _mask in range(1, 1 << n)]
        assert _hexes(table) == _hexes(want), n
        assert block._state == scalar._state, n


def test_coalition_requires_contiguous_members():
    with pytest.raises(ValueError):
        Coalition((0, 2))
    assert list(Coalition.of_size(3)) == [0, 1, 2]


class TestRecordTypes:
    def test_coalition_equality_hash_and_repr(self):
        a, b = Coalition.of_size(3), Coalition((0, 1, 2))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Coalition.of_size(2)
        assert a != (0, 1, 2) and (0, 1, 2) != a
        assert repr(a) == "Coalition(members=(0, 1, 2))"
        assert Coalition(members=(0,)) == Coalition.of_size(1)
        assert len(a) == 3 and 2 in a and 3 not in a and -1 not in a

    def test_coalition_refuses_assignment(self):
        c = Coalition.of_size(2)
        with pytest.raises(AttributeError):
            c.members = (0, 1, 2)
        with pytest.raises(AttributeError):
            c.extra = 1
        with pytest.raises(AttributeError):
            del c.members
        assert c.members == (0, 1)

    @pytest.mark.parametrize("members", [(0, 2), (1,), (1, 0), [0, 1]])
    def test_coalition_refuses_members_that_are_not_0_to_n(self, members):
        with pytest.raises(ValueError, match="contiguous"):
            Coalition(members)

    def test_coalition_pickles_and_copies(self):
        c = Coalition.of_size(4)
        for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
            assert copied == c and copied.members == (0, 1, 2, 3)
            assert type(copied) is Coalition

    def test_axiom_report_fields(self):
        report = check_axioms(TWO_PLAYER_SUPERADDITIVE, Coalition.of_size(2))
        assert AxiomReport._fields == (
            "efficiency", "symmetry", "nullity", "additivity", "witnesses"
        )
        assert report.all_pass and report[:4] == (True, True, True, True)
        assert sorted(report.witnesses) == [
            "additivity", "efficiency", "interchangeable_pairs", "null_players"
        ]
        assert not AxiomReport(True, True, False, True, {}).all_pass


def test_importing_shapley_or_experiment_loads_no_stdlib_module_it_does_not_run():
    assert import_sets.unexpected() == {}


def test_importing_shapley_loads_no_pipeline_module():
    # A fresh interpreter, because the test process has imported every module.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import fairbandit.shapley, sys; "
        "print(' '.join(m for m in ('fairbandit.experiment', 'fairbandit.simworld', "
        "'fairbandit.analysis', 'concurrent.futures.process') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
