"""The session-log format: the rows a study writes and `analyze` reads.

A log is one row per player and session day under `LOG_COLUMNS`.
`write_log_csv` writes it, `read_log_csv` reads it back and names the
line and column of the first problem, and `decision_records` and
`log_summary` derive a study's per-day records and JSON summary from its
rows (`write_decisions_jsonl` writes the records). The simulator builds
`SessionRow`s and `StudyLog`s; nothing here runs a study.
"""
from __future__ import annotations

import csv
import io
import json
import locale
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, groupby
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .analysis import PlayerTally, audit_sum_sd, log_metrics
from .bandit import (
    Arm,
    Decision,
    Mode,
    ShapleyBanditState,
    _ARM_BY_LETTER,
    _total,
    combined_reward,
    shapley_update,
)

if TYPE_CHECKING:
    from .simworld import Condition


class SessionRow(NamedTuple):
    day: int
    player: int
    steps: float | None
    missed: bool
    pre_motivation: int | None
    post_motivation: int | None
    arm: Arm
    mode: Mode
    catered_player: int | None
    artificial_steps: float
    best_arm: Arm
    worst_arm: Arm
    baseline_mean: float


@dataclass
class StudyLog:
    """One simulated team study's session rows, from which `log_metrics` derives its figures."""

    rows: list[SessionRow]
    condition: Condition | None = None
    seed: int | None = None
    name: str = ""
    intervention_start: int = field(kw_only=True)  # the analysis window's first day

    @property
    def final_sum_sd(self) -> float | None:
        """The team disparity sum audited at the end of the study."""
        return audit_sum_sd(log_metrics(self))


def decision_records(log: StudyLog, step_scale: float, motivation_weight: float) -> Iterator[dict]:
    """Each session day's record, rebuilt from the log's rows in day order.
    Every row of a day carries its decision, which `shapley_update` folds
    with the day's attended steps into `csv` and `tc`; `rewards` holds each
    attending player's combined reward."""
    n = 1 + max((row.player for row in log.rows), default=-1)
    state = ShapleyBanditState([0.0] * n, [0] * n)
    for day, day_rows in groupby(log.rows, lambda row: row.day):
        steps, rewards = {}, {}
        for row in day_rows:
            if not row.missed:
                steps[row.player] = row.steps
                deltas = row.steps - row.baseline_mean, float(row.post_motivation - row.pre_motivation)
                rewards[row.player] = combined_reward(*deltas, step_scale, motivation_weight)
        shapley_update(state, Decision(row.arm, row.catered_player, row.mode), steps)
        yield {
            "day": day, "mode": row.mode.value, "arm": row.arm.letter,
            "catered_player": row.catered_player, "csv": list(state.csv),
            "tc": list(state.tc), "rewards": {str(p): rewards[p] for p in sorted(rewards)},
        }


def write_decisions_jsonl(records: Iterable[dict], path) -> None:
    with open(path, "w", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=False) + "\n")


LOG_COLUMNS = list(SessionRow._fields)


class SchemaError(ValueError):
    pass


def write_log_csv(log: StudyLog, path) -> None:
    """One row per player-day under the documented stable header. The csv
    module writes None as an empty field and a float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        writer.writerows(
            [row.day, row.player, row.steps, int(row.missed), row.pre_motivation, row.post_motivation,
             row.arm.letter, row.mode.value, row.catered_player, row.artificial_steps,
             row.best_arm.letter, row.worst_arm.letter, row.baseline_mean]
            for row in log.rows
        )


def _flag(raw: str) -> bool:
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise ValueError(f"expected 0 or 1, got {raw!r}")


def _opt_int(raw: str) -> int | None:
    return int(raw) if raw else None


def _opt_score(raw: str) -> int | None:
    """A motivation score on the 1-5 scale, or None for an empty field."""
    if not raw:
        return None
    score = int(raw)
    if not 1 <= score <= 5:
        raise ValueError(f"score {score} is outside the 1-5 scale")
    return score


def _opt_float(raw: str) -> float | None:
    return float(raw) if raw else None


# One parser per LOG_COLUMNS entry, in that order; each raises ValueError.
_PARSERS = (
    int,
    int,
    _opt_float,
    _flag,
    _opt_score,
    _opt_score,
    Arm.from_letter,
    Mode,
    _opt_int,
    float,
    Arm.from_letter,
    Arm.from_letter,
    float,
)

_SCORES = {"": None, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}  # as the writer writes them

# Per LOG_COLUMNS entry, a function that converts a whole column of the
# writer's strings in one pass and raises on any other string, or None
# where each distinct string goes through `_PARSERS` once. A column on
# which it raises is parsed by `_PARSERS` instead, so that every spelling
# `_PARSERS` accepts is accepted and every rejection names its field.
_WRITER_PARSERS = (
    int,
    int,
    None,
    {"0": False, "1": True}.__getitem__,
    _SCORES.__getitem__,
    _SCORES.__getitem__,
    _ARM_BY_LETTER.__getitem__,
    {mode.value: mode for mode in Mode}.__getitem__,
    None,
    None,
    _ARM_BY_LETTER.__getitem__,
    _ARM_BY_LETTER.__getitem__,
    None,
)

# `tuple.__new__` skips the named tuple's Python-level `__new__`.
_new_row = partial(tuple.__new__, SessionRow)


def _row_error(row: SessionRow) -> tuple[str, str] | None:
    """(column, reason) for a parsed row that no simulation can write:
    a day below 1, a step count that is negative or not finite, or a
    missed session with data (or an attended one without steps)."""
    if row.day < 1:
        return "day", f"day {row.day} is below 1"
    if row.missed:
        if row.steps is not None:
            return "steps", "a missed session has steps"
        if row.pre_motivation is not None or row.post_motivation is not None:
            column = "pre_motivation" if row.pre_motivation is not None else "post_motivation"
            return column, "a missed session has motivation scores"
    elif row.steps is None:
        return "steps", "an attended session has no steps"
    elif not 0.0 <= row.steps < math.inf:
        return "steps", f"{row.steps!r} is not a finite non-negative step count"
    if not 0.0 <= row.artificial_steps < math.inf:
        return "artificial_steps", f"{row.artificial_steps!r} is not a finite non-negative step count"
    if not 0.0 <= row.baseline_mean < math.inf:
        return "baseline_mean", f"{row.baseline_mean!r} is not a finite non-negative step count"
    return None


def _read_records(path) -> tuple[list[list[str]], Callable[[int], int], SchemaError | None]:
    """The CSV records of the log at `path` (header first) from one parse,
    `line(k)`, the physical line on which data record `k` starts, and the
    SchemaError for bytes that are not text in the encoding `open`
    defaults to, or for CSV the reader cannot split. The records stop
    before the line that raised it, as a line-at-a-time reader's would.
    Plain text is split as the csv module would split it: a blank line is
    a record with no fields, and a final newline starts no record."""
    with open(path, "rb") as fh:
        data = fh.read()
    encoding = locale.getpreferredencoding(False)
    try:
        text, cut = data.decode(encoding), None
    except UnicodeDecodeError as exc:
        text = data[: data.rfind(b"\n", 0, exc.start) + 1].decode(encoding)
        line = data.count(b"\n", 0, exc.start) + 1
        cut = SchemaError(f"line {line}: not {encoding} text ({exc.reason})")
    if not ('"' in text or "\r" in text or "\0" in text or len(text) > csv.field_size_limit()):
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        # A record is one line, so data record k is on the line k + 2.
        return [line.split(",") if line else [] for line in lines], lambda k: k + 2, cut
    reader = csv.reader(_lines_then_raise(text, cut))
    records, ends = [], []
    try:
        for record in reader:
            records.append(record)
            ends.append(reader.line_num)
    except csv.Error as exc:
        cut = SchemaError(f"line {_line_numbers(text)[reader.line_num - 1]}: {exc}")
    except SchemaError:
        pass
    return records, lambda k: _line_numbers(text)[ends[k]], cut


def _lines_then_raise(text: str, error: SchemaError | None):
    """The lines of `text` as a file opened with newline="" yields them,
    then `error`, so that the CSV reader drops a record it cut open."""
    yield from io.StringIO(text, newline="")
    if error is not None:
        raise error


def _line_numbers(text: str) -> list[int]:
    """The physical line of each line that the CSV reader reads from
    `text`, then the line after the last. Only "\n" ends a physical
    line; a bare "\r" ends a CSV line too."""
    numbers, number = [], 1
    for line in io.StringIO(text, newline=""):
        numbers.append(number)
        number += line.endswith("\n")
    numbers.append(number)
    return numbers


def read_log_csv(path, name: str = "") -> StudyLog:
    """Parse a session log CSV, validating the documented schema.

    Header mismatches, unparseable values, a day below 1, step counts
    that are negative or not finite, motivation scores outside 1-5, a
    missed session with data or an attended one without steps, a
    repeated (day, player) pair, a `catered_player` that has no rows and
    a row that is not forced on a day before the last `forced` row's
    raise SchemaError naming the offending line and column. So do bytes
    that are not text in the locale's encoding and CSV the reader cannot
    split (a field over the csv module's size limit), naming the line.
    The error raised is the first problem in line order, except that the
    last two are only named when nothing else is wrong, as they take the
    whole log to find. Lines are physical lines of the file: a record
    names the line it starts on. The log's `intervention_start` is the
    day after its last `forced` row, or day 1 if it has none.

    Plain text, with no '"', "\\r" or NUL and no longer than
    `csv.field_size_limit()`, is split at each "\\n" and ",".
    `write_log_csv` writes no quote, "\\r" or NUL, so its logs are plain
    up to that length. Any other text (CRLF line ends, quoted fields) is
    split by the csv module. Both name the same line for the same
    problem.

    A log repeats a handful of strings in most columns. `day`, `player`
    and the columns the writer fills from a few strings (`missed`, the
    scores, the arms and `mode`) convert in one pass each, through `int`
    or a table of the writer's spellings. Each other column, and one
    holding another spelling, parses every distinct string once and maps
    its fields through the results. The rows are walked one at a time
    only to name a problem that a check over the whole log found.
    """
    records, line, cut = _read_records(path)
    if not records:
        raise cut or SchemaError("empty file: missing header")
    header, *records = records
    if header != LOG_COLUMNS:
        missing = [c for c in LOG_COLUMNS if c not in header]
        extra = [c for c in header if c not in LOG_COLUMNS]
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unexpected columns {extra}")
        if not detail:
            detail.append(f"column order must be {LOG_COLUMNS}")
        raise SchemaError("bad header: " + "; ".join(detail))

    # Like a read error, a record of the wrong width or with a field that
    # does not parse ends the rows: only a problem on an earlier line, or
    # an earlier such record, is named before it.
    width = len(LOG_COLUMNS)
    stop = next((k for k, record in enumerate(records) if len(record) != width), len(records))
    if stop < len(records):
        cut = SchemaError(f"line {line(stop)}: expected {width} fields, got {len(records[stop])}")
    raw_columns = list(zip(*records[:stop])) or [()] * width
    columns = []
    for column, fast, parse, raws in zip(LOG_COLUMNS, _WRITER_PARSERS, _PARSERS, raw_columns):
        if fast is not None:
            try:
                columns.append(list(map(fast, raws)))
                continue
            except (KeyError, ValueError):
                pass
        parsed, failed = {}, {}
        for raw in set(raws):
            try:
                parsed[raw] = parse(raw)
            except ValueError as exc:
                failed[raw] = exc
        columns.append(list(map(parsed.get, raws)))
        if failed:
            bad = next(k for k, raw in enumerate(raws) if raw in failed)
            if bad < stop:
                stop = bad
                cut = SchemaError(f"line {line(bad)}, column {column!r}: {failed[raws[bad]]}")
    if stop < len(raw_columns[0]):
        columns = [values[:stop] for values in columns]
    rows = list(map(_new_row, zip(*columns)))
    days, players, catered = columns[0], columns[1], columns[8]
    if any(map(_row_error, rows)) or len(set(zip(days, players))) != len(rows):
        raise _first_row_problem(rows, line)
    if cut is not None:
        raise cut
    strays = set(catered).difference(players, (None,))
    if strays:
        k = next(k for k, player in enumerate(catered) if player in strays)
        raise SchemaError(
            f"line {line(k)}, column 'catered_player': player {catered[k]}"
            " has no rows in the log"
        )
    forced = [mode is Mode.FORCED for mode in columns[7]]
    start = 1 + max(compress(days, forced), default=0)
    late = next((k for k, day in enumerate(days) if day < start and not forced[k]), None)
    if late is not None:
        raise SchemaError(
            f"line {line(late)}, column 'mode': day {days[late]} is not forced, day {start - 1} is"
        )
    return StudyLog(rows=rows, name=name, intervention_start=start)


def _first_row_problem(rows: list[SessionRow], line) -> SchemaError:
    """The error for the first row that `_row_error` rejects or whose
    (day, player) pair repeats an earlier row's; `line(k)` is the
    physical line of row `k`."""
    first_row: dict[tuple[int, int], int] = {}
    for k, row in enumerate(rows):
        problem = _row_error(row)
        if problem is not None:
            return SchemaError(f"line {line(k)}, column {problem[0]!r}: {problem[1]}")
        first = first_row.setdefault((row.day, row.player), k)
        if first != k:
            return SchemaError(
                f"line {line(k)}, columns 'day', 'player': day {row.day} player"
                f" {row.player} repeats line {line(first)}"
            )
    raise AssertionError("every row is valid and unique")


def log_summary(log: StudyLog, tallies: dict[int, PlayerTally]) -> dict:
    """Per-study JSON summary: baselines, final strategy state and the
    headline per-player outcomes. `tallies` is the log's `log_metrics`
    over the analysis window, from which every figure is taken."""
    post_sum = _total(tally.post_sum for tally in tallies.values())
    post_count = _total(tally.post_count for tally in tallies.values())
    return {
        "condition": log.condition.value if log.condition else None,
        "seed": log.seed,
        "baseline_means": [t.baseline_mean for t in tallies.values()],
        "final_csv": [t.contribution for t in tallies.values()],
        "final_tc": [t.catered for t in tallies.values()],
        "final_tc_effective": [t.given_best for t in tallies.values()],
        "final_sum_sd": audit_sum_sd(tallies),
        "steps_vs_baseline": {str(p): t.steps_vs_baseline for p, t in tallies.items()},
        "post_motivation_mean": post_sum / post_count if post_count else None,
        "miss_likelihood": {str(p): t.miss_likelihood for p, t in tallies.items()},
    }


def write_log_summary(log: StudyLog, path, tallies: dict[int, PlayerTally]) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(log_summary(log, tallies), fh, indent=2, sort_keys=True)
        fh.write("\n")
