"""Seeded tables and statement streams for the three benchmark workloads.

Everything here is plain Python with no import from ``repro``: the
benchmark process (which runs the program) and the oracle process
(which runs sqlite) each call :func:`build` with the same arguments and
get identical tables and statements, so a change to the program's own
workload generator cannot change what is measured.

A stream is a whole number of *rounds*. Every round of a workload has
the same composition (statement counts per kind are fixed, only the
literals, tables and order are drawn from the seed), so per-statement
averages barely move from seed to seed and any statement that fails
every round fails the same share of every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

ROWS_PER_PARTITION = 200
CATEGORIES = tuple(f"cat{i:02d}" for i in range(8))
SCORE_MAX = 1_000_000
DIM_ROWS = 256
#: ts values advance by this step per row (plus a jitter below it), so
#: every table's ts values are unique and time-ordered.
TS_STEP = 10

FACT_COLUMNS = (("ts", "INTEGER"), ("category", "VARCHAR"),
                ("value", "DOUBLE"), ("score", "INTEGER"),
                ("fk", "INTEGER"))
DIM_COLUMNS = (("key", "INTEGER"), ("attr", "VARCHAR"),
               ("weight", "INTEGER"))
EVENT_COLUMNS = (("ts", "INTEGER"), ("user_id", "VARCHAR"),
                 ("tag", "VARCHAR"), ("category", "VARCHAR"),
                 ("score", "INTEGER"), ("value", "DOUBLE"))

WORKLOADS = ("fleet_mix", "dashboard_topk", "ingest_dml")


@dataclass
class TableData:
    """One generated table: schema, rows and physical layout.

    ``layout`` is ``None`` (insertion order), ``("sorted", column)``,
    ``("clustered", column, jitter, seed)`` or ``("random", seed)``.
    """

    name: str
    columns: tuple
    rows: list
    layout: tuple | None = None


@dataclass
class Stmt:
    """One operation of a stream.

    ``kind`` is ``"select"``, ``"dml"`` (UPDATE/DELETE text in
    ``sql``), ``"insert"`` (``rows`` appended to ``table``) or
    ``"recluster"`` (one reclusterer step; not a statement, so it is
    not attempted, and its time is added to the statement before it).
    """

    kind: str
    sql: str = ""
    table: str = ""
    rows: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    rounds: int
    tables: list
    stmts: list
    #: service configuration the benchmark applies (documented per
    #: workload in the README)
    config: dict

    @property
    def statements(self) -> int:
        return sum(1 for s in self.stmts if s.kind != "recluster")


# ----------------------------------------------------------------------
# Shared generators
# ----------------------------------------------------------------------
def _fact_rows(rng: random.Random, n_rows: int, ts_start: int = 0,
               correlated: bool = True) -> list:
    """Fact rows with unique, increasing ts starting at ``ts_start``."""
    span = max(1, n_rows * TS_STEP)
    rows = []
    for i in range(n_rows):
        ts = ts_start + i * TS_STEP + rng.randrange(TS_STEP)
        if correlated:
            base = (ts - ts_start) * DIM_ROWS // span
            fk = min(DIM_ROWS - 1, max(0, base + rng.randint(-4, 4)))
        else:
            fk = rng.randrange(DIM_ROWS)
        rows.append((ts, rng.choice(CATEGORIES), rng.uniform(0.0, 1000.0),
                     rng.randrange(SCORE_MAX), fk))
    return rows


def _dim_rows(rng: random.Random) -> list:
    """Dimension rows; attr values come in contiguous key blocks."""
    block = DIM_ROWS // len(CATEGORIES)
    return [(key, CATEGORIES[min(len(CATEGORIES) - 1, key // block)],
             rng.randrange(1000)) for key in range(DIM_ROWS)]


def _selectivity(rng: random.Random) -> float:
    """Predicate selectivity mixture of the paper's §3.3: half highly
    selective (0.01%–1%), 30% moderate (1%–20%), 20% non-selective."""
    u = rng.random()
    if u < 0.5:
        return math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
    if u < 0.8:
        return math.exp(rng.uniform(math.log(1e-2), math.log(0.2)))
    return rng.uniform(0.2, 1.0)


_LIMIT_POINTS = ((0, 0.20), (1, 0.25), (10, 0.13), (20, 0.05),
                 (100, 0.13), (500, 0.04), (1000, 0.09), (5000, 0.04),
                 (10000, 0.04))


def _limit_k(rng: random.Random) -> int:
    """LIMIT k after the paper's Figure 6: mostly 0/1 and round BI
    numbers, with a log-uniform tail up to 2M."""
    u = rng.random()
    total = 0.0
    for value, mass in _LIMIT_POINTS:
        total += mass
        if u < total:
            return value
    return int(round(math.exp(rng.uniform(math.log(10_001),
                                          math.log(2_000_000)))))


def _zipf_index(rng: random.Random, n: int, alpha: float) -> int:
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    return rng.choices(range(n), weights=weights, k=1)[0]


def _round_kinds(rng: random.Random, counts: dict) -> list:
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


@dataclass
class _Fact:
    """What statement builders know of a fact table: its size and the
    live ts range (ingest_dml moves both ends)."""

    name: str
    partitions: int
    ts_lo: int
    ts_hi: int


class _TableOneReads:
    """Statement builders for the paper's Table 1 read mix.

    Two random sources: ``shape`` draws what a statement is (kind,
    table, predicate type, selectivity, k, sort column) and is reset to
    the same state at the start of every round, so every round of every
    seed has the same make-up; ``rng`` is seeded by ``--seed`` and draws
    the literals (window positions, category values, dimension table).
    """

    def __init__(self, rng: random.Random, facts: list, dims: list,
                 join_safe: bool = False):
        self.rng = rng
        self.shape = random.Random()
        self.facts = facts
        self.dims = dims
        #: never emit a join side whose scan metadata can eliminate at
        #: compile time (used where live windows move under DML)
        self.join_safe = join_safe

    def new_round(self, workload: str) -> None:
        self.shape.seed(f"{workload}/shape")

    def fact(self) -> _Fact:
        """Size-biased: bigger tables attract more queries."""
        return self.shape.choices(
            self.facts, weights=[f.partitions for f in self.facts])[0]

    def small_fact(self) -> _Fact:
        return self.shape.choices(
            self.facts, weights=[f.partitions ** -0.5 for f in self.facts])[0]

    def multi_fact(self) -> _Fact:
        """Size-biased over the tables of more than one partition."""
        multi = [f for f in self.facts if f.partitions > 1]
        return self.shape.choices(
            multi, weights=[f.partitions for f in multi])[0]

    def category(self) -> str:
        return self.rng.choice(CATEGORIES)

    def window(self, spec: _Fact, selectivity: float) -> tuple[int, int]:
        """A ts window inside the live range. Two steps wide at least,
        so it always holds a whole ts slot and at least one row."""
        span = spec.ts_hi - spec.ts_lo
        width = max(2 * TS_STEP, int(selectivity * span))
        lo = spec.ts_lo + self.rng.randrange(max(1, span - width + 1))
        return lo, lo + width - 1

    def predicate(self, spec: _Fact) -> str:
        shape = self.shape
        selectivity = _selectivity(shape)
        large = spec.partitions >= 30
        roll = shape.random()
        with_window = shape.random() < 0.75
        if roll < 0.08:
            return f"ts > {spec.ts_hi * 2}"
        ts_share = 0.84 if large else 0.62
        if roll < ts_share:
            lo, hi = self.window(spec, min(selectivity, 0.05)
                                 if large else selectivity)
            return f"ts BETWEEN {lo} AND {hi}"
        if roll < ts_share + 0.16:
            base = f"category = '{self.category()}'"
            if large and with_window:
                lo, hi = self.window(spec, min(selectivity, 0.08))
                return f"{base} AND ts BETWEEN {lo} AND {hi}"
            return base
        if roll < 0.90:
            return f"score >= {int((1 - selectivity) * SCORE_MAX)}"
        threshold = spec.ts_lo + int((1 - selectivity)
                                     * (spec.ts_hi - spec.ts_lo))
        return (f"IF(category = '{self.category()}', ts * 2, ts) "
                f"> {threshold * 2}")

    def live_predicate(self, spec: _Fact) -> str:
        """A predicate that matches rows of every live time slice it
        covers, so metadata can never prove the scan empty."""
        selectivity = min(_selectivity(self.shape), 0.05)
        with_category = self.shape.random() < 0.2
        lo, hi = self.window(spec, selectivity)
        if not with_category:
            return f"ts BETWEEN {lo} AND {hi}"
        return f"category = '{self.category()}' AND ts BETWEEN {lo} AND {hi}"

    def build(self, kind: str) -> Stmt:
        shape = self.shape
        if kind == "select_pred":
            spec = self.fact()
            sql = f"SELECT * FROM {spec.name} WHERE {self.predicate(spec)}"
        elif kind == "select_nopred":
            sql = f"SELECT * FROM {self.small_fact().name}"
        elif kind == "join":
            spec = self.multi_fact()
            dim = self.rng.choice(self.dims)
            if shape.random() < 0.13 and not self.join_safe:
                # inside the attr min/max range, matching no row: the
                # build side is empty at run time (Figure 10's 100%)
                dim_filter = "d.attr = 'cat00zzz'"
            else:
                dim_filter = f"d.attr = '{self.category()}'"
            fact_filter = ""
            if shape.random() < 0.4:
                fact_filter = " AND " + (self.live_predicate(spec)
                                         if self.join_safe
                                         else self.predicate(spec))
            sql = (f"SELECT * FROM {spec.name} JOIN {dim} AS d "
                   f"ON fk = d.key WHERE {dim_filter}{fact_filter}")
        elif kind == "limit_nopred":
            sql = (f"SELECT * FROM {self.small_fact().name} "
                   f"LIMIT {_limit_k(shape)}")
        elif kind == "limit_pred":
            spec = shape.choice(self.facts)
            roll = shape.random()
            if roll < 0.25:
                predicate = self.predicate(spec)
            elif roll < 0.65:
                predicate = f"category = '{self.category()}'"
            else:
                predicate = f"score >= {shape.randrange(SCORE_MAX)}"
            sql = (f"SELECT * FROM {spec.name} WHERE {predicate} "
                   f"LIMIT {_limit_k(shape)}")
        elif kind == "topk_plain":
            spec = self.multi_fact()
            column = shape.choice(("ts", "score", "score"))
            filtered = shape.random() < 0.5
            where = f" WHERE {self.predicate(spec)}" if filtered else ""
            direction = "DESC" if shape.random() < 0.8 else "ASC"
            sql = (f"SELECT * FROM {spec.name}{where} ORDER BY {column} "
                   f"{direction} "
                   f"LIMIT {shape.choice((3, 5, 10, 20, 50, 100))}")
        elif kind == "topk_group_key":
            spec = self.multi_fact()
            sql = (f"SELECT ts, count(*) AS c FROM {spec.name} GROUP BY ts "
                   f"ORDER BY ts DESC LIMIT {shape.choice((3, 5, 10, 20))}")
        elif kind == "topk_group_agg":
            spec = self.multi_fact()
            agg = shape.choice(("sum(score)", "count(*)", "max(score)"))
            sql = (f"SELECT category, {agg} AS m FROM {spec.name} "
                   f"GROUP BY category ORDER BY m DESC "
                   f"LIMIT {shape.choice((3, 5, 10))}")
        else:
            raise ValueError(f"unknown statement kind {kind!r}")
        return Stmt("select", sql)


# ----------------------------------------------------------------------
# fleet_mix
# ----------------------------------------------------------------------
#: one round of the paper's Table 1 mix (60% filtered, 12% unfiltered,
#: 20% joins, 2.6% LIMIT, 5.6% top-k)
FLEET_ROUND = {"select_pred": 299, "select_nopred": 60, "join": 100,
               "limit_nopred": 2, "limit_pred": 11, "topk_plain": 22,
               "topk_group_key": 1, "topk_group_agg": 5}
FLEET_SIZES = ([("small", 1)] * 10
               + [("medium", n) for n in (4, 6, 8, 10, 12, 16)]
               + [("large", n) for n in (30, 45, 60, 80)])
LAYOUTS = ("sorted", "clustered", "random", "sorted")


def _layout(rng: random.Random, kind: str) -> tuple:
    if kind == "sorted":
        return ("sorted", "ts")
    if kind == "clustered":
        return ("clustered", "ts", ROWS_PER_PARTITION // 3,
                rng.randrange(1 << 30))
    return ("random", rng.randrange(1 << 30))


def _fleet_tables(rng: random.Random) -> tuple[list, list, list]:
    tables, facts = [], []
    counters: dict[str, int] = {}
    for index, (size, partitions) in enumerate(FLEET_SIZES):
        number = counters.get(size, 0)
        counters[size] = number + 1
        name = f"{size}{number:02d}"
        layout = LAYOUTS[index % len(LAYOUTS)]
        n_rows = partitions * ROWS_PER_PARTITION
        tables.append(TableData(
            name, FACT_COLUMNS,
            _fact_rows(rng, n_rows, correlated=layout != "random"),
            _layout(rng, layout)))
        facts.append(_Fact(name, partitions, 0, n_rows * TS_STEP))
    dims = []
    for i in range(3):
        tables.append(TableData(f"dim{i:02d}", DIM_COLUMNS, _dim_rows(rng)))
        dims.append(f"dim{i:02d}")
    return tables, facts, dims


def fleet_mix(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"fleet_mix/{seed}")
    tables, facts, dims = _fleet_tables(rng)
    reads = _TableOneReads(rng, facts, dims)
    stmts = []
    for _ in range(rounds):
        reads.new_round("fleet_mix")
        batch = [reads.build(kind) for kind, n in FLEET_ROUND.items()
                 for _ in range(n)]
        rng.shuffle(batch)
        stmts += batch
    return Workload("fleet_mix", seed, rounds, tables, stmts, {
        "result_cache": True, "plan_cache": False, "predicate_cache": False,
        "sketches": False, "durability": False, "recluster": False})


# ----------------------------------------------------------------------
# dashboard_topk
# ----------------------------------------------------------------------
# The paper gives no figures for a dashboard's traffic. Only the Zipf
# exponent is copied from a calibration (the program's Figure 12 top-k
# stream, ``topk_stream_with_repetition``); the other values are chosen,
# and README.md says why for each.
DASHBOARD_PARTITIONS = (60, 90, 120)
#: chosen: well above the rows of a partition, so ``user_id =`` matches
#: a handful of rows and only the sketches can prune for it
DASHBOARD_USERS = 12_000
#: chosen: a fixed widget pool. Figure 12's pool (0.8 templates per
#: query) would make almost every shape unique and leave the plan
#: cache, which this workload exists to exercise, nothing to serve.
DASHBOARD_TEMPLATES = 40
#: Zipf exponent of widget popularity, copied from the Figure 12
#: calibration
DASHBOARD_ZIPF_ALPHA = 1.05
DASHBOARD_ROUND = 200
#: chosen: share of statements that re-issue a template's previous
#: literals exactly
DASHBOARD_REFRESH = 0.3
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _event_rows(rng: random.Random, n_rows: int) -> list:
    rows = []
    for i in range(n_rows):
        rows.append((
            i * TS_STEP + rng.randrange(TS_STEP),
            f"u{rng.randrange(DASHBOARD_USERS):05d}",
            "".join(rng.choice(_LETTERS) for _ in range(8)),
            rng.choice(CATEGORIES),
            rng.randrange(SCORE_MAX),
            rng.uniform(0.0, 1000.0),
        ))
    return rows


class _DashboardTemplate:
    """A BI widget: fixed shape and k, literals drawn per refresh."""

    KINDS = ("recent_topk", "window_topk", "preview", "user_eq",
             "user_in", "tag_like", "tag_like_topk")

    def __init__(self, rng: random.Random, table: TableData):
        self.table = table
        self.kind = rng.choice(self.KINDS)
        self.k = rng.choice((5, 10, 20, 50))
        self.span = len(table.rows) * TS_STEP
        #: ts width of the widget's time window
        self.width = int(rng.choice((0.002, 0.005, 0.01, 0.02)) * self.span)
        self.arity = rng.randint(2, 5)
        self.last: tuple | None = None

    def literals(self, rng: random.Random) -> tuple:
        span, width = self.span, self.width
        if self.kind == "recent_topk":
            # "the last hour": windows near the head of the table
            return (span - width - rng.randrange(width + 1),)
        if self.kind == "window_topk":
            return (rng.randrange(span - width),)
        if self.kind == "preview":
            return (rng.choice(CATEGORIES),)
        if self.kind == "user_eq":
            return (f"u{rng.randrange(DASHBOARD_USERS):05d}",)
        if self.kind == "user_in":
            return tuple(f"u{rng.randrange(DASHBOARD_USERS):05d}"
                         for _ in range(self.arity))
        tag = rng.choice(self.table.rows)[2]
        start = rng.randrange(len(tag) - 3)
        if self.kind == "tag_like":
            return (tag[start:start + 4],)
        return (tag[start:start + 3], span - 20 * width)

    def sql(self, lits: tuple) -> str:
        name = self.table.name
        if self.kind == "recent_topk":
            return (f"SELECT * FROM {name} WHERE ts >= {lits[0]} "
                    f"ORDER BY ts DESC LIMIT {self.k}")
        if self.kind == "window_topk":
            return (f"SELECT * FROM {name} WHERE ts BETWEEN {lits[0]} AND "
                    f"{lits[0] + self.width} ORDER BY score DESC "
                    f"LIMIT {self.k}")
        if self.kind == "preview":
            return (f"SELECT * FROM {name} WHERE category = '{lits[0]}' "
                    f"LIMIT {self.k}")
        if self.kind == "user_eq":
            return f"SELECT * FROM {name} WHERE user_id = '{lits[0]}'"
        if self.kind == "user_in":
            values = ", ".join(f"'{v}'" for v in lits)
            return (f"SELECT * FROM {name} WHERE user_id IN ({values}) "
                    f"ORDER BY ts DESC LIMIT {self.k}")
        if self.kind == "tag_like":
            return f"SELECT * FROM {name} WHERE tag LIKE '%{lits[0]}%'"
        return (f"SELECT * FROM {name} WHERE tag LIKE '%{lits[0]}%' "
                f"AND ts >= {lits[1]} ORDER BY ts DESC LIMIT {self.k}")


def dashboard_topk(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"dashboard_topk/{seed}")
    tables = [TableData(f"events{i}", EVENT_COLUMNS,
                        _event_rows(rng, n * ROWS_PER_PARTITION),
                        ("clustered", "ts", ROWS_PER_PARTITION // 4,
                         rng.randrange(1 << 30)))
              for i, n in enumerate(DASHBOARD_PARTITIONS)]
    # The widgets and the order they refresh in are the same for every
    # seed and every round; the seed draws the data and the literals.
    shape = random.Random("dashboard_topk/shape")
    templates = [_DashboardTemplate(shape, shape.choice(tables))
                 for _ in range(DASHBOARD_TEMPLATES)]
    stmts = []
    for _ in range(rounds):
        shape.seed("dashboard_topk/sequence")
        for _ in range(DASHBOARD_ROUND):
            template = templates[_zipf_index(shape, len(templates),
                                             DASHBOARD_ZIPF_ALPHA)]
            redraw = shape.random() >= DASHBOARD_REFRESH
            if template.last is None or redraw:
                template.last = template.literals(rng)
            stmts.append(Stmt("select", template.sql(template.last)))
    return Workload("dashboard_topk", seed, rounds, tables, stmts, {
        "result_cache": False, "plan_cache": True, "predicate_cache": True,
        "sketches": True, "durability": False, "recluster": False})


# ----------------------------------------------------------------------
# ingest_dml
# ----------------------------------------------------------------------
INGEST_FACTS = (("fact_a", 40, "sorted"), ("fact_b", 40, "clustered"))
#: chosen: two partitions per insert batch
INGEST_BATCH_ROWS = 2 * ROWS_PER_PARTITION
#: per round: the 68 reads are Table 1's mix (60% filtered, 12%
#: unfiltered, 20% joins, 2.6% LIMIT, 5.6% top-k) apportioned by largest
#: remainder; the paper gives no write rates, so the 18 writes (21% of a
#: round) are chosen, with the deletes set to keep each table's size
#: level (see _ingest_stmt)
INGEST_ROUND = {"insert": 8, "delete": 4, "update": 6, "select_pred": 41,
                "select_nopred": 8, "join": 13, "limit_pred": 2,
                "topk_plain": 4}
#: chosen: statements between reclusterer steps
INGEST_RECLUSTER_EVERY = 20
#: the fixed probe of the skip-set fault: its tables and statements do
#: not depend on the seed, so it fails the same way in every round
PROBE_FACT, PROBE_DIM = "probe_fact", "probe_dim"
PROBE_STMTS = (
    f"SELECT * FROM {PROBE_FACT} JOIN {PROBE_DIM} AS d ON fk = d.key "
    f"WHERE d.attr = 'cat07' AND ts > 999999",
    f"SELECT * FROM {PROBE_DIM} WHERE attr = 'cat07'",
)
#: the statements the skip-set fault makes fail; no other statement of
#: any workload may fail
KNOWN_FAULT_SQL = frozenset(PROBE_STMTS[1:])


def _probe_tables() -> list:
    rng = random.Random("probe")
    return [TableData(PROBE_FACT, FACT_COLUMNS,
                      _fact_rows(rng, 4 * ROWS_PER_PARTITION)),
            TableData(PROBE_DIM, DIM_COLUMNS, _dim_rows(rng))]


def ingest_dml(seed: int, rounds: int) -> Workload:
    rng = random.Random(f"ingest_dml/{seed}")
    tables, facts = [], []
    for name, partitions, layout in INGEST_FACTS:
        n_rows = partitions * ROWS_PER_PARTITION
        tables.append(TableData(name, FACT_COLUMNS,
                                _fact_rows(rng, n_rows),
                                _layout(rng, layout)))
        facts.append(_Fact(name, partitions, 0, n_rows * TS_STEP))
    dims = ["dim00", "dim01"]
    tables += [TableData(d, DIM_COLUMNS, _dim_rows(rng)) for d in dims]
    tables += _probe_tables()
    reads = _TableOneReads(rng, facts, dims, join_safe=True)
    issued = dict.fromkeys(INGEST_ROUND, 0)
    stmts = []
    for _ in range(rounds):
        reads.new_round("ingest_dml")
        kinds = _round_kinds(reads.shape, INGEST_ROUND)
        for position, kind in enumerate(kinds, 1):
            # writes go round-robin over the facts, so inserts and
            # rolling deletes stay balanced on every table
            spec = facts[issued[kind] % len(facts)]
            issued[kind] += 1
            stmts.append(_ingest_stmt(rng, reads, spec, kind))
            if position % INGEST_RECLUSTER_EVERY == 0:
                stmts.append(Stmt("recluster"))
        stmts += [Stmt("select", sql) for sql in PROBE_STMTS]
    return Workload("ingest_dml", seed, rounds, tables, stmts, {
        "result_cache": True, "plan_cache": True, "predicate_cache": False,
        "sketches": True, "durability": True, "recluster": True})


def _ingest_stmt(rng: random.Random, reads: _TableOneReads, spec: _Fact,
                 kind: str) -> Stmt:
    if kind == "insert":
        rows = _fact_rows(rng, INGEST_BATCH_ROWS, ts_start=spec.ts_hi)
        spec.ts_hi += INGEST_BATCH_ROWS * TS_STEP
        return Stmt("insert", table=spec.name, rows=rows)
    if kind == "delete":
        # roll the oldest window off so table size stays level: two
        # deletes per table per round balance its four batch inserts
        cut = spec.ts_lo + 2 * INGEST_BATCH_ROWS * TS_STEP
        spec.ts_lo = cut
        return Stmt("dml", f"DELETE FROM {spec.name} WHERE ts < {cut}")
    if kind == "update":
        lo, hi = reads.window(spec, 0.002)
        return Stmt("dml", f"UPDATE {spec.name} SET score = score + "
                           f"{rng.randint(1, 9)} WHERE ts BETWEEN {lo} "
                           f"AND {hi}")
    if kind == "select_nopred":
        return Stmt("select", f"SELECT * FROM {rng.choice(reads.dims)}")
    return reads.build(kind)


def build(workload: str, seed: int, rounds: int) -> Workload:
    """The tables and statement stream of one workload run."""
    builders = {"fleet_mix": fleet_mix, "dashboard_topk": dashboard_topk,
                "ingest_dml": ingest_dml}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    return builders[workload](seed, rounds)
