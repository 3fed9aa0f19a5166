"""Exact Shapley attribution over small coalitions.

A coalition's collective output is described by a characteristic
function v mapping every subset of members to a real value (v of the
empty set is 0). Each member's attribution is the weighted sum, over
all subsets S not containing them, of the marginal value they add to S,
with weight |S|! (n - |S| - 1)! / n!. Attributions satisfy efficiency
(they sum to the full-coalition value), symmetry, nullity and
additivity, and are the unique allocation that does.

Every exact routine reads one table: `CharacteristicFunction.by_mask(n)`
lists v of all 2^n subsets, indexed by bitmask (bit i set when player i
is a member). Building it costs 2^n evaluations of v; a table game
stores nothing else and evaluates nothing. An attribution then costs
n * 2^(n-1) multiply-adds: for each player, slices of the table list
v(S) and v(S + player) for the 2^(n-1) masks S without their bit, in
ascending order, and one loop adds the weighted marginals. The k-th
such S has as many members as k has bits, so every player shares one
list of weights. Enumeration is exact; coalitions larger than
`MAX_EXACT_PLAYERS` (16) are rejected, before any table is built,
rather than approximated.

The permutation oracle shares the table but not the algorithm: it
averages each player's marginal over all n! arrival orders, so an error
in the subset weights or the enumeration shows up as a disagreement
between the two. The orders are walked once per n, in `permutations`
order, and counted: for every player and every mask, the number of
orders in which exactly that mask's players arrived before them. A call
weights each player's marginal gain over a mask by that count over n!,
taken first so that no product exceeds its gain, and totals the
weighted gains in ascending mask order. The count over n! is one
correctly rounded int/int division, as `subset_weight` is, so the
oracle reproduces `shapley_all` bit for bit while taking its masks and
weights from the walk alone.

Every total is a plain `total += term` loop from 0.0, left to right,
so its bits are the same on every CPython: `sum()` compensates float
addition from 3.12, and `reduce(operator.add, ...)` adds in the same
order but takes about twice as long per term on 3.12 and 3.13.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import strictjson

PlayerId = int

MAX_EXACT_PLAYERS = 16
ORACLE_MAX_PLAYERS = 8
REL_TOL = 1e-9


class CoalitionTooLargeError(ValueError):
    """Exact subset enumeration refused for oversized coalitions."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Coalition:
    """The full player set; members are the contiguous indices 0..n-1.
    Immutable; equal, and hashed, by `members`."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[PlayerId, ...]):
        if members != tuple(range(len(members))):
            raise ValueError(
                f"coalition members must be the contiguous indices 0..n-1, got {members}"
            )
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy would otherwise set the slot
        return type(self), (self.members,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.members,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(members={self.members!r})"

    @classmethod
    def of_size(cls, n: int) -> "Coalition":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, player: PlayerId) -> bool:
        return 0 <= player < len(self.members)

    def __iter__(self):
        return iter(self.members)


class CharacteristicFunction:
    """Maps sub-coalitions to their collective value; v(empty) = 0."""

    def value(self, subset: frozenset[PlayerId]) -> float:
        raise NotImplementedError

    def __call__(self, subset: Iterable[PlayerId]) -> float:
        s = frozenset(subset)
        if not s:
            return 0.0
        return self.value(s)

    def by_mask(self, n: int) -> list[float]:
        """v of every subset of players 0..n-1, indexed by bitmask: entry m
        is v({i : bit i of m is set}), so entry 0 is 0."""
        table = [0.0] * (1 << n)
        for mask in range(1, 1 << n):
            table[mask] = self(frozenset(i for i in range(n) if mask >> i & 1))
        return table


class AdditiveSteps(CharacteristicFunction):
    """v(S) = sum of the members' individual step counts.

    This is the deployed approximation for unobservable sub-coalitions:
    a subset's output is the sum of its members' own contributions, so
    each member's attribution collapses to exactly their own steps.
    """

    def __init__(self, steps: Sequence[float]):
        self.steps = tuple(float(s) for s in steps)

    def value(self, subset: frozenset[PlayerId]) -> float:
        total = 0.0
        for i in subset:
            total += self.steps[i]
        return total


class TableBacked(CharacteristicFunction):
    """Explicit subset -> value map; every non-empty subset must be present.

    The values are held only as the `by_mask` list. Rejected: a player
    count that is not an int from 1 to MAX_EXACT_PLAYERS (checked before
    anything is allocated), members outside 0..n-1, a member repeated in
    one subset, two keys for one subset, non-finite values, ints too large
    for a float and a non-zero empty-coalition value.
    """

    def __init__(self, n_players: int, values: Mapping[Iterable[PlayerId], float]):
        _check_players(n_players)
        self.n_players = n_players
        self._values = _mask_table(
            n_players,
            ((subset, subset, v) for subset, v in values.items()),
            lambda subset: f"subset {sorted(subset)}",
        )

    @classmethod
    def _of_table(cls, n_players: int, table: list[float]) -> "TableBacked":
        """Wrap an already validated by-mask list."""
        game = cls.__new__(cls)
        game.n_players = n_players
        game._values = table
        return game

    def value(self, subset: frozenset[PlayerId]) -> float:
        mask = 0
        for i in subset:
            if not 0 <= i < self.n_players:
                raise ValueError(f"subset {sorted(subset)} not in table")
            mask |= 1 << i
        return self._values[mask]

    def by_mask(self, n: int) -> list[float]:
        if n > self.n_players:
            raise ValueError(f"table covers {self.n_players} players, not {n}")
        return self._values[: 1 << n]


def _check_players(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"players must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"players must be at least 1, got {n}")
    _check_size(n, MAX_EXACT_PLAYERS)


def _mask_table(
    n: int, entries, describe: Callable[[object], str], number: Callable = float
) -> list[float]:
    """The by-mask list from (key, members, value) entries, each value
    converted by `number`; `describe(key)` names the offending entry in
    every error."""
    table: list = [None] * (1 << n)
    for key, members, raw in entries:
        mask = 0
        for i in members:
            if not 0 <= i < n:
                raise ValueError(f"{describe(key)} has members outside 0..{n - 1}")
            if mask >> i & 1:
                raise ValueError(f"{describe(key)} repeats member {i}")
            mask |= 1 << i
        if table[mask] is not None:
            raise ValueError(f"{describe(key)} duplicates an earlier key")
        try:
            value = number(raw)
        except (TypeError, ValueError):
            raise ValueError(f"{describe(key)} has non-numeric value {raw!r}") from None
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{describe(key)} has a value too large for a float") from None
        if not math.isfinite(value):
            raise ValueError(f"{describe(key)} has non-finite value {raw!r}")
        if mask == 0 and value != 0.0:
            raise ValueError(f"{describe(key)}: empty-coalition value must be 0")
        table[mask] = value
    table[0] = 0.0
    if None in table:
        mask = table.index(None)
        raise ValueError(
            f"missing value for subset {[i for i in range(n) if mask >> i & 1]}"
        )
    return table


def _json_number(raw) -> float:
    if not strictjson.is_number(raw):
        raise TypeError(raw)
    return float(raw)


def _key_members(key) -> list[int]:
    if isinstance(key, str):
        try:
            return [int(tok) for tok in key.split(",") if tok.strip() != ""]
        except ValueError:
            pass
    raise ValueError(f"key {key!r} is not comma-separated member indices")


def _canonical_table(n: int, values: dict) -> list[float] | None:
    """The by-mask list when `values` holds exactly the canonical keys (each
    mask's ascending, comma-joined members), perhaps with "", and every value
    is a valid int or float; None sends the document to the per-key walk."""
    if len(values) != (1 << n) - ("" not in values):
        return None
    table = [*map(values.get, _canonical_keys(n))]
    table[0] = values.get("", 0.0)
    if not set(map(type, table)) <= {int, float}:
        return None
    try:
        table = [*map(float, table)]
    except OverflowError:  # the walk names the int beyond the float range
        return None
    if table[0] != 0.0 or not all(map(math.isfinite, table)):
        return None
    table[0] = 0.0  # not -0.0
    return table


def _canonical_keys(n: int) -> list[str]:
    """Each mask's ascending, comma-joined members, indexed by mask."""
    keys = [""]
    for i in range(n):  # a mask's key extends the key of the mask without its top bit
        tail = f",{i}"
        keys += [key + tail for key in keys]
        keys[1 << i] = str(i)
    return keys


def load_characteristic(source) -> TableBacked:
    """Load a TableBacked function from a JSON document.

    Accepts a dict, a JSON string, or a path: a `str` that names an
    existing file, or any `os.PathLike`, is read as a file. Format::

        {"players": 2, "values": {"0": 10000.0, "1": 12000.0, "0,1": 23000.0}}

    Keys are comma-separated member indices; the empty-set entry ("")
    may be omitted and defaults to 0. Any other missing subset is an
    error, as is everything `TableBacked` rejects and a value that is not
    a JSON number (an int or a float, not a bool or a string); errors
    name the key. A JSON text that repeats a key in one object raises
    `strictjson.RepeatedKeyError`, naming the key by its path.
    A document whose keys are the canonical ones (ascending members, no
    spaces) loads in a few whole-table passes; any other spelling, or any
    failed check, takes the per-key walk, which names the first problem
    in document order.
    """
    if isinstance(source, os.PathLike) or isinstance(source, str) and os.path.exists(source):
        doc = strictjson.loads(Path(source).read_text())
    elif isinstance(source, str):
        try:
            doc = strictjson.loads(source)
        except json.JSONDecodeError:
            raise ValueError(
                f"characteristic source is neither an existing file nor valid JSON: {source[:80]!r}"
            ) from None
    else:
        doc = source
    if not isinstance(doc, dict) or "players" not in doc or "values" not in doc:
        raise ValueError('characteristic JSON must have "players" and "values" keys')
    n = doc["players"]
    _check_players(n)
    if not isinstance(doc["values"], dict):
        raise ValueError('"values" must map subset keys to numbers')
    table = _canonical_table(n, doc["values"]) or _mask_table(
        n,
        ((key, _key_members(key), v) for key, v in doc["values"].items()),
        lambda key: f"key {key!r}",
        _json_number,
    )
    return TableBacked._of_table(n, table)


def subset_weight(subset_size: int, n: int) -> float:
    """Marginal-contribution weight |S|! (n - |S| - 1)! / n!."""
    return factorial(subset_size) * factorial(n - subset_size - 1) / factorial(n)


def _check_size(n: int, limit: int) -> None:
    if n > limit:
        raise CoalitionTooLargeError(
            f"coalition of {n} players exceeds exact-enumeration limit {limit}"
        )


def _mask_weights(n: int) -> list[float]:
    """subset_weight(|S|, n) for the k-th mask S without a given player,
    which has as many members as k has bits, for k < 2^(n-1)."""
    weights = [subset_weight(s, n) for s in range(n)]
    return [weights[k.bit_count()] for k in range((1 << n) >> 1)]


def _without_bit(seq: list, bit: int, offset: int = 0) -> list:
    """seq[m + offset] for each mask m < len(seq) without `bit`, ascending:
    sliced as `bit` strided columns or as runs of `bit`, whichever is fewer."""
    step = 2 * bit
    if bit * step < len(seq):
        out = [0.0] * (len(seq) >> 1)
        for j in range(bit):
            out[j::bit] = seq[offset + j :: step]
        return out
    out = []
    for start in range(offset, len(seq), step):
        out += seq[start : start + bit]
    return out


def _attribution(table: list[float], weights: list[float], player: PlayerId) -> float:
    bit = 1 << player
    total = 0.0
    with_player, without = _without_bit(table, bit, bit), _without_bit(table, bit)
    for w, hi, lo in zip(weights, with_player, without):
        total += w * (hi - lo)
    return total


def shapley_all(v: CharacteristicFunction, coalition: Coalition) -> list[float]:
    """Attribution vector for every member; sums to v(full coalition)."""
    n = len(coalition)
    _check_size(n, MAX_EXACT_PLAYERS)
    table = v.by_mask(n)
    weights = _mask_weights(n)
    return [_attribution(table, weights, i) for i in coalition]


@lru_cache(maxsize=None)
def _orders_ahead(n: int) -> tuple[tuple[int, ...], ...]:
    """For each player, indexed by mask m: in how many arrival orders of
    0..n-1 exactly the players of m arrived before them, counted over the
    orders `permutations` yields."""
    ahead = [bytearray() for _ in range(n)]
    for order in permutations(range(n)):
        prefix = 0
        for player in order:
            ahead[player].append(prefix)
            prefix |= 1 << player
    return tuple(tuple(map(Counter(masks).__getitem__, range(1 << n))) for masks in ahead)


def shapley_oracle_permutations(
    v: CharacteristicFunction, coalition: Coalition
) -> list[float]:
    """Independent oracle: average marginal contribution over all n!
    arrival orders. Mathematically identical to `shapley_all`; kept as a
    separate code path for cross-checking, so it is limited to n <= 8.
    """
    n = len(coalition)
    _check_size(n, ORACLE_MAX_PLAYERS)
    table = v.by_mask(n)
    orders = factorial(n)
    phi = []
    for player, counts in enumerate(_orders_ahead(n)):
        bit = 1 << player
        total = 0.0
        for mask, count in enumerate(counts):
            if count:
                total += count / orders * (table[mask | bit] - table[mask])
        phi.append(total)
    return phi


class AxiomReport(NamedTuple):
    """Outcome of checking the four fairness axioms on one game."""

    efficiency: bool
    symmetry: bool
    nullity: bool
    additivity: bool
    witnesses: dict

    @property
    def all_pass(self) -> bool:
        return self.efficiency and self.symmetry and self.nullity and self.additivity


def _interchangeable(table: list[float], i: PlayerId, j: PlayerId) -> bool:
    bi, bj = 1 << i, 1 << j
    for mask in range(len(table)):
        if not mask & (bi | bj) and not _close(table[mask | bi], table[mask | bj]):
            return False
    return True


def _is_null(table: list[float], i: PlayerId) -> bool:
    bit = 1 << i
    for mask in range(len(table)):
        if not mask & bit and not _close(table[mask | bit], table[mask]):
            return False
    return True


def check_axioms(
    v: CharacteristicFunction,
    coalition: Coalition,
    additivity_partner: CharacteristicFunction | None = None,
) -> AxiomReport:
    """Verify efficiency, symmetry, nullity and additivity on one game.

    Symmetry and nullity are checked for every interchangeable pair /
    null player actually present in v (vacuously true when none exist).
    Additivity compares the attribution of the game whose by-mask table is
    v's plus the partner's against the sum of the separate attributions;
    when no partner is supplied, an additive game of v's singletons is used.
    """
    n = len(coalition)
    _check_size(n, MAX_EXACT_PLAYERS)
    table = v.by_mask(n)
    phi = shapley_all(TableBacked._of_table(n, table), coalition)
    grand = table[-1]
    witnesses: dict = {"interchangeable_pairs": [], "null_players": []}

    sum_phi = 0.0
    for share in phi:
        sum_phi += share
    efficiency = _close(sum_phi, grand)
    witnesses["efficiency"] = {"phi": phi, "sum_phi": sum_phi, "grand_value": grand}

    symmetry = True
    for i in coalition:
        for j in coalition:
            if j <= i:
                continue
            if _interchangeable(table, i, j):
                witnesses["interchangeable_pairs"].append((i, j))
                if not _close(phi[i], phi[j]):
                    symmetry = False

    nullity = True
    for i in coalition:
        if _is_null(table, i):
            witnesses["null_players"].append(i)
            if abs(phi[i]) > REL_TOL * max(1.0, abs(grand)):
                nullity = False

    if additivity_partner is None:
        additivity_partner = AdditiveSteps([table[1 << i] for i in coalition])
    partner = additivity_partner.by_mask(n)
    phi_sum = shapley_all(TableBacked._of_table(n, [a + b for a, b in zip(table, partner)]), coalition)
    phi_partner = shapley_all(TableBacked._of_table(n, partner), coalition)
    additivity = all(
        _close(phi_sum[i], phi[i] + phi_partner[i]) for i in coalition
    )
    witnesses["additivity"] = {"phi_sum": phi_sum}

    return AxiomReport(efficiency, symmetry, nullity, additivity, witnesses)
