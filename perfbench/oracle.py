"""The sqlite oracle: an engine that shares no code with ``repro``.

It loads the same generated rows into an in-memory sqlite database and
judges every result the program returned by these rules:

* a statement without LIMIT: the rows equal sqlite's as multisets,
  floats within a relative tolerance;
* ``LIMIT k``: the row count is min(k, full count) and the rows are a
  sub-multiset of the full answer;
* ``ORDER BY ... LIMIT k``: as LIMIT, and the sequence of sort keys
  equals sqlite's;
* UPDATE / DELETE: the affected-row count equals sqlite's, and the
  mirror applies the same write (inserts are applied as given).

Run as a script it is the benchmark's oracle process: it rebuilds the
workload from the seed itself, then answers pickled requests on stdin
with pickled verdicts on stdout, one per request. Keeping the oracle in
its own process keeps its memory and CPU out of the program's figures.
"""

from __future__ import annotations

import marshal
import math
import pickle
import re
import sqlite3
import sys
import zlib
from collections import Counter

REL_TOL = 1e-9
_SQLITE_TYPES = {"INTEGER": "INTEGER", "DOUBLE": "REAL",
                 "VARCHAR": "TEXT"}
_LIMIT = re.compile(r"^(?P<body>.*?)(?:\s+ORDER BY\s+(?P<order>.+?))?"
                    r"\s+LIMIT\s+(?P<k>\d+)\s*$", re.S)


def has_limit(sql: str) -> bool:
    return _LIMIT.match(sql) is not None


def digest(rows: list) -> tuple[int, int]:
    """Row count and CRC of the sorted rows: equal digests mean equal
    multisets (floats bit for bit). A mismatch is judged again on the
    rows themselves, with the float tolerance."""
    rows = [tuple(r) for r in rows]
    try:
        rows.sort()
    except TypeError:  # NULLs next to values
        rows.sort(key=repr)
    # format 2 writes no back-references, so equal rows give equal bytes
    return len(rows), zlib.crc32(marshal.dumps(rows, 2))


def to_sqlite(sql: str) -> str:
    """The program's dialect to sqlite's: ``IF(`` is ``IIF(``."""
    return re.sub(r"\bIF\(", "IIF(", sql)


def connect() -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    # The program's LIKE is case-sensitive; sqlite's is not by default.
    conn.execute("PRAGMA case_sensitive_like = ON")
    return conn


def load_table(conn: sqlite3.Connection, name: str, columns, rows) -> None:
    ddl = ", ".join(f'"{col}" {_SQLITE_TYPES[dtype]}'
                    for col, dtype in columns)
    conn.execute(f'CREATE TABLE "{name}" ({ddl})')
    marks = ", ".join("?" for _ in columns)
    conn.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows)
    first = columns[0][0]
    conn.execute(f'CREATE INDEX "{name}_{first}" ON "{name}" ("{first}")')


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)
    return a == b


def _rows_close(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def _sort_key(row: tuple) -> tuple:
    # floats rounded so rows equal within tolerance sort side by side
    return tuple((0, "") if v is None else
                 (1, round(v, 6)) if isinstance(v, float) else
                 (1, v) if isinstance(v, int) else (2, str(v))
                 for v in row)


def multiset_diff(got: list, expected: list) -> str | None:
    """None when the multisets are equal within tolerance, else why."""
    got = [tuple(r) for r in got]
    expected = [tuple(r) for r in expected]
    if len(got) != len(expected):
        return f"{len(got)} rows, expected {len(expected)}"
    if Counter(got) == Counter(expected):
        return None
    for a, b in zip(sorted(got, key=_sort_key),
                    sorted(expected, key=_sort_key)):
        if not _rows_close(a, b):
            return f"row {a!r} where {b!r} was expected"
    return None


def is_submultiset(got: list, full: list) -> str | None:
    """None when every returned row is in the full answer (with
    multiplicity, floats within tolerance), else why."""
    remaining = Counter(tuple(r) for r in full)
    missing = []
    for row in map(tuple, got):
        if remaining[row] > 0:
            remaining[row] -= 1
        else:
            missing.append(row)
    for row in missing:
        match = next((c for c, n in remaining.items()
                      if n > 0 and _rows_close(row, c)), None)
        if match is None:
            return f"row {row!r} is not in the full answer"
        remaining[match] -= 1
    return None


class Checker:
    """Judges program results against one sqlite database."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn

    def matches_digest(self, sql: str, got: tuple[int, int]) -> bool:
        """Fast path for a statement without LIMIT."""
        return digest(self.conn.execute(to_sqlite(sql)).fetchall()) == got

    def check_select(self, sql: str, got: list) -> str | None:
        sql = to_sqlite(sql)
        match = _LIMIT.match(sql)
        if match is None:
            return multiset_diff(got, self.conn.execute(sql).fetchall())
        body, k = match["body"], int(match["k"])
        full_count = self.conn.execute(
            f"SELECT count(*) FROM ({body})").fetchone()[0]
        if len(got) != min(k, full_count):
            return (f"{len(got)} rows, expected min({k}, {full_count}) "
                    f"= {min(k, full_count)}")
        if got:
            # The full answer restricted to rows sharing a first-column
            # value with a returned row holds every row that can match.
            cursor = self.conn.execute(f"SELECT * FROM ({body}) LIMIT 0")
            first = cursor.description[0][0]
            values = sorted({row[0] for row in got}, key=repr)
            marks = ", ".join("?" for _ in values)
            candidates = self.conn.execute(
                f'SELECT * FROM ({body}) WHERE "{first}" IN ({marks})',
                values).fetchall()
            reason = is_submultiset(got, candidates)
            if reason is not None:
                return reason
        if match["order"] is None:
            return None
        cursor = self.conn.execute(sql)
        names = [d[0].lower() for d in cursor.description]
        expected = cursor.fetchall()
        positions = [names.index(item.split()[0].lower())
                     for item in match["order"].split(",")]
        want = [tuple(row[p] for p in positions) for row in expected]
        have = [tuple(row[p] for p in positions) for row in got]
        if len(want) != len(have) or not all(
                _rows_close(a, b) for a, b in zip(have, want)):
            return f"sort keys {have[:5]!r}..., expected {want[:5]!r}..."
        return None

    def apply_dml(self, sql: str, got_count: int) -> str | None:
        """Apply one UPDATE/DELETE to the mirror; compare counts."""
        expected = self.conn.execute(to_sqlite(sql)).rowcount
        if got_count != expected:
            return f"{got_count} rows affected, expected {expected}"
        return None

    def apply_insert(self, table: str, rows: list) -> None:
        if rows:
            marks = ", ".join("?" for _ in rows[0])
            self.conn.executemany(
                f'INSERT INTO "{table}" VALUES ({marks})', rows)

    def check_table(self, table: str, got: list) -> str | None:
        return multiset_diff(
            got, self.conn.execute(f'SELECT * FROM "{table}"').fetchall())


def self_test() -> dict:
    """Feed the checker wrong answers; each must be flagged, and the
    right answers must pass. Returns ``{case: passed}``."""
    conn = connect()
    load_table(conn, "t", (("ts", "INTEGER"), ("tag", "VARCHAR"),
                           ("value", "DOUBLE")),
               [(i, f"t{i % 3}", i * 0.5) for i in range(20)])
    checker = Checker(conn)
    scan = "SELECT * FROM t WHERE ts >= 10"
    topk = "SELECT * FROM t WHERE ts >= 5 ORDER BY ts DESC LIMIT 4"
    update = "UPDATE t SET value = value + 1 WHERE ts < 3"
    rows = conn.execute(scan).fetchall()
    top = conn.execute(topk).fetchall()
    altered = list(rows)
    altered[3] = (altered[3][0], altered[3][1], altered[3][2] + 0.25)
    swapped = [top[1], top[0]] + top[2:]
    results = {
        "correct rows pass": checker.check_select(scan, rows) is None,
        "correct top-k passes": checker.check_select(topk, top) is None,
        "dropped row flagged": checker.check_select(scan, rows[1:])
        is not None,
        "altered row flagged": checker.check_select(scan, altered)
        is not None,
        "swapped top-k keys flagged": checker.check_select(topk, swapped)
        is not None,
    }
    # DML mutates the mirror: judge the wrong count on a copy first.
    spare = Checker(connect())
    load_table(spare.conn, "t", (("ts", "INTEGER"), ("tag", "VARCHAR"),
                                 ("value", "DOUBLE")),
               conn.execute("SELECT * FROM t").fetchall())
    results["wrong affected count flagged"] = spare.apply_dml(update, 4) \
        is not None
    results["right affected count passes"] = checker.apply_dml(update, 3) \
        is None
    return results


def _serve(workload: str, seed: int, rounds: int) -> None:
    import workloads

    wl = workloads.build(workload, seed, rounds)
    conn = connect()
    for table in wl.tables:
        load_table(conn, table.name, table.columns, table.rows)
    checker = Checker(conn)
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer

    def reply(message) -> None:
        pickle.dump(message, stdout, protocol=pickle.HIGHEST_PROTOCOL)
        stdout.flush()

    reply(("ready", self_test()))
    while True:
        try:
            request = pickle.load(stdin)
        except EOFError:
            return
        op = request[0]
        if op == "quit":
            return
        if op == "digest":
            _, index, got = request
            reply(checker.matches_digest(wl.stmts[index].sql, got))
        elif op == "stmt":
            _, index, payload = request
            stmt = wl.stmts[index]
            if stmt.kind == "insert":
                checker.apply_insert(stmt.table, stmt.rows)
                reply(None)
            elif stmt.kind == "dml":
                reply(checker.apply_dml(stmt.sql, payload))
            else:
                reply(checker.check_select(stmt.sql, payload))
        elif op == "tables":
            _, tables = request
            names = {t.name for t in wl.tables}
            problems = [f"tables {sorted(tables)} != {sorted(names)}"] \
                if set(tables) != names else []
            for name in sorted(names & set(tables)):
                reason = checker.check_table(name, tables[name])
                if reason is not None:
                    problems.append(f"{name}: {reason}")
            reply(problems)
        else:
            raise ValueError(f"unknown oracle request {op!r}")


if __name__ == "__main__":
    _serve(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
