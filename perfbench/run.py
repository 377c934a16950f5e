#!/usr/bin/env python3
"""Wall-clock benchmark of the repro query engine, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 10 --trace 0

One process runs one workload. It generates the tables and statement
stream from ``--seed`` (``perfbench/workloads.py``), builds the program
from ``src/``, and issues the fixed stream from one client thread in a
closed loop. Every result is checked by a sqlite oracle running in a
second process (``perfbench/oracle.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``). See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads  # the script's directory is on sys.path
from oracle import digest, has_limit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: run outputs (durability directories, trace files); ignored by git
OUT_DIR = ROOT / ".perfbench"

#: rounds per second of --seconds. The stream length is fixed by
#: --seconds alone (never by a clock), so every count repeats exactly
#: across runs of one seed; on a 2-vCPU x86 VM the statements then take
#: 0.55 to 1.3 times --seconds.
ROUNDS_PER_SECOND = {"fleet_mix": 0.37, "dashboard_topk": 0.5,
                     "ingest_dml": 0.75}
#: WAL size that triggers a checkpoint in ingest_dml
CHECKPOINT_BYTES = 1 << 20


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Oracle:
    """Client side of the sqlite oracle process."""

    def __init__(self, workload: str, seed: int, rounds: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "oracle.py"), workload,
             str(seed), str(rounds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=BENCH_DIR)
        #: wall seconds spent waiting on the oracle (outside the timing)
        self.busy_s = 0.0

    def call(self, *request):
        started = time.perf_counter()
        pickle.dump(request, self.proc.stdin,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        reply = pickle.load(self.proc.stdout)
        self.busy_s += time.perf_counter() - started
        return reply

    def ready(self) -> dict:
        tag, self_test = pickle.load(self.proc.stdout)
        if tag != "ready":
            raise RuntimeError(f"oracle sent {tag!r} before ready")
        return self_test

    def close(self) -> None:
        try:
            pickle.dump(("quit",), self.proc.stdin)
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _wait_for_checkpoint() -> None:
    """Let the service's background checkpoint, if one started, finish.

    Joining it right after the write that triggered it charges the
    checkpoint to that write and makes every count repeat exactly."""
    for thread in threading.enumerate():
        if thread.name == "durability-checkpoint":
            thread.join()


def _layout(spec):
    from repro import Layout

    if spec is None:
        return None
    if spec[0] == "sorted":
        return Layout.sorted_by(spec[1])
    if spec[0] == "clustered":
        return Layout.clustered_by(spec[1], jitter=spec[2], seed=spec[3])
    return Layout.random(seed=spec[1])


def build_service(wl, durability_dir: Path | None):
    """The catalog and service the workload runs against."""
    from repro import Catalog, DataType, QueryService, Schema

    catalog = Catalog(rows_per_partition=200, scan_parallelism=1)
    for table in wl.tables:
        schema = Schema.of(**{name: DataType[dtype]
                              for name, dtype in table.columns})
        catalog.create_table_from_rows(table.name, schema, table.rows,
                                       layout=_layout(table.layout))
    config = wl.config
    if config["sketches"]:
        catalog.enable_sketches()
    if config["predicate_cache"]:
        catalog.enable_predicate_cache()
    service = QueryService(
        catalog, enable_result_cache=config["result_cache"],
        plan_cache_entries=256 if config["plan_cache"] else None,
        scan_parallelism=1,
        durability_dir=durability_dir,
        durability_checkpoint_bytes=CHECKPOINT_BYTES)
    if config["recluster"]:
        service.enable_reclustering()
    return catalog, service


class Tally:
    """What the stream did, from the results the program returned."""

    def __init__(self):
        #: wall and CPU seconds of each statement, in stream order
        self.latencies: list[float] = []
        self.cpus: list[float] = []
        self.wall_s = 0.0
        self.selects = 0
        self.result_cache_hits = 0
        self.partitions_total = 0
        self.partitions_loaded = 0
        self.bytes_loaded = 0
        self.plan_cache_checked = 0
        self.plan_cache_hits = 0
        self.pruned: dict[str, int] = dict.fromkeys(
            ("filter", "sketch", "skip_set", "join", "limit", "topk"), 0)
        self.recluster_bytes = 0
        self.recluster_partitions = 0

    def select(self, profile, cache_hit: bool) -> None:
        self.selects += 1
        self.partitions_total += profile.total_partitions
        if cache_hit:
            self.result_cache_hits += 1
            return
        self.partitions_loaded += profile.partitions_loaded
        self.bytes_loaded += sum(s.bytes_scanned for s in profile.scans)
        self.plan_cache_checked += profile.plan_cache_checked
        self.plan_cache_hits += profile.plan_cache_hit
        for scan in profile.scans:
            for key, result in (("filter", scan.filter_result),
                                ("sketch", scan.sketch_result),
                                ("join", scan.join_result)):
                if result is not None:
                    self.pruned[key] += result.pruned
            if scan.limit_report is not None:
                self.pruned["limit"] += scan.limit_report.result.pruned
            self.pruned["skip_set"] += scan.skip_set_pruned
            self.pruned["topk"] += scan.topk_skipped


def run_stream(wl, service, oracle: Oracle, recorder=None):
    """Issue the stream; returns (tally, attempted, failed, unexpected),
    where ``unexpected`` counts failures of statements outside
    ``workloads.KNOWN_FAULT_SQL``."""
    hits = service.metrics.counter("result_cache_hits")
    tally = Tally()
    attempted = failed = unexpected = 0
    reported = 0
    clock, cpu = time.perf_counter, time.process_time
    stream_started = clock()
    for index, stmt in enumerate(wl.stmts):
        if recorder is not None:
            recorder.stmt = index
        if stmt.kind == "recluster":
            # A foreground step: its wall and CPU time are charged to the
            # statement it follows, as a checkpoint is to its write.
            t0, c0 = clock(), cpu()
            if recorder is not None:
                with recorder.span("recluster.step"):
                    report = service.reclusterer.step()
            else:
                report = service.reclusterer.step()
            tally.latencies[-1] += clock() - t0
            tally.cpus[-1] += cpu() - c0
            if report is not None:
                tally.recluster_bytes += report.bytes_rewritten
                tally.recluster_partitions += report.partitions_selected
            continue
        attempted += 1
        hits_before = hits.value
        span = (recorder.span(f"service.{stmt.kind}")
                if recorder is not None else None)
        error = None
        result = None
        t0, c0 = clock(), cpu()
        try:
            if span is not None:
                span.__enter__()
            if stmt.kind == "insert":
                service.insert(stmt.table, stmt.rows)
            else:
                result = service.sql(stmt.sql)
            if stmt.kind != "select":
                _wait_for_checkpoint()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        t1, c1 = clock(), cpu()
        tally.latencies.append(t1 - t0)
        tally.cpus.append(c1 - c0)
        if recorder is not None:
            recorder.stmt = -1
        if error is None:
            payload = None
            if stmt.kind == "select":
                tally.select(result.profile, hits.value > hits_before)
                payload = result.rows
                # Unlimited results are compared by digest first; rows
                # cross the pipe only when the digests differ.
                if not has_limit(stmt.sql) and oracle.call(
                        "digest", index, digest(payload)):
                    continue
            elif stmt.kind == "dml":
                payload = result.rows[0][0]
            error = oracle.call("stmt", index, payload)
        elif stmt.kind != "select":
            # keep the mirror in step with the program's state
            oracle.call("stmt", index, None)
        if error is not None:
            failed += 1
            unexpected += stmt.sql not in workloads.KNOWN_FAULT_SQL
            if reported < 5:
                reported += 1
                print(f"perfbench: statement {index} failed: {error}\n"
                      f"  {stmt.sql or 'INSERT INTO ' + stmt.table}",
                      file=sys.stderr)
    tally.wall_s = clock() - stream_started
    return tally, attempted, failed, unexpected


def _table_rows(catalog) -> dict:
    return {name: table.to_rows() for name, table in catalog.tables.items()}


def check_durable_state(catalog, durability_dir: Path, oracle: Oracle,
                        recorder=None) -> list:
    """Live and recovered catalogs must both equal the mirror."""
    from repro import Catalog

    _wait_for_checkpoint()
    problems = [f"live {p}" for p in
                oracle.call("tables", _table_rows(catalog))]
    catalog.durability.close()
    if recorder is not None:
        recorder.stmt = -2
        with recorder.span("durability.recover"):
            recovered = Catalog.recover(durability_dir)
        recorder.stmt = -1
    else:
        recovered = Catalog.recover(durability_dir)
    problems += [f"recovered {p}" for p in
                 oracle.call("tables", _table_rows(recovered))]
    recovered.durability.close()
    return problems


def end_to_end_metrics(tally: Tally, setup_s: float, peak_rss_mb: float,
                       statements: int) -> dict:
    latencies = sorted(tally.latencies)
    busy = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "stmts_per_s": (statements / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(latencies, 0.99) * 1e3, "ms"),
        "cpu_ms_per_stmt": (sum(tally.cpus) * 1e3 / statements, "ms"),
        "pruning_ratio": (1.0 - tally.partitions_loaded
                          / max(1, tally.partitions_total), "ratio"),
        "bytes_loaded_per_stmt": (tally.bytes_loaded
                                  / max(1, tally.selects), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


#: per-layer self times reported, by span name (see tracing.install)
LAYER_TIMES = (
    "sql.parse", "sql.plan", "plancache.parameterize", "plan.compile",
    "pruning.filter", "pruning.sketch", "pruning.limit", "pruning.topk",
    "pruning.join", "storage.load", "storage.nbytes", "expr.eval",
    "engine.materialize", "engine.scan", "engine.filter", "engine.project",
    "engine.join", "engine.aggregate", "engine.sort", "engine.topk",
    "engine.limit", "storage.build", "storage.stats_index",
    "pruning.sketch_build", "durability.wal_append",
    "durability.checkpoint", "service.select", "service.dml",
    "service.insert", "recluster.step", "obs.telemetry", "obs.trace")


def per_layer_metrics(recorder, tally: Tally, statements: int,
                      predicate_cache: tuple) -> dict:
    self_ms, counts = recorder.self_times()
    per = 1.0 / statements
    metrics = {f"{name}_ms": (self_ms.get(name, 0.0) * per, "ms/stmt")
               for name in LAYER_TIMES}
    recover_ms, _ = recorder.self_times({-2})
    metrics["durability.recover_ms"] = (
        sum(recover_ms.values()), "ms")
    metrics["storage.loads"] = (counts.get("storage.load", 0) * per,
                                "count/stmt")
    metrics["durability.wal_bytes"] = (
        recorder.values.get("durability.wal_bytes", 0.0) * per, "B/stmt")
    metrics["durability.checkpoints"] = (
        counts.get("durability.checkpoint", 0) * per, "count/stmt")
    metrics["recluster.bytes_rewritten"] = (tally.recluster_bytes * per,
                                            "B/stmt")
    metrics["recluster.partitions_rewritten"] = (
        tally.recluster_partitions * per, "count/stmt")
    for key, value in tally.pruned.items():
        metrics[f"pruning.pruned_{key}"] = (value * per, "count/stmt")
    checked, hits = predicate_cache
    metrics["plancache.hit_ratio"] = (
        tally.plan_cache_hits / max(1, tally.plan_cache_checked), "ratio")
    metrics["pruning.predicate_cache_hit_ratio"] = (
        hits / max(1, checked), "ratio")
    metrics["service.result_cache_hit_ratio"] = (
        tally.result_cache_hits / max(1, tally.selects), "ratio")
    metrics["trace.wall_ms_per_stmt"] = (tally.wall_s * 1e3 * per,
                                         "ms/stmt")
    metrics["trace.busy_ms_per_stmt"] = (
        sum(tally.latencies) * 1e3 * per, "ms/stmt")
    return metrics


def _select_loads(recorder, wl) -> int:
    """StorageLayer.load calls made while a SELECT was running."""
    selects = {i for i, s in enumerate(wl.stmts) if s.kind == "select"}
    _, counts = recorder.self_times(selects)
    return counts.get("storage.load", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}; run from the "
              f"root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}")
    rounds = max(1, round(args.seconds
                          * ROUNDS_PER_SECOND[args.workload]))
    # The inputs are the benchmark's own work, so they are generated
    # before the set-up clock starts; the program is first imported after.
    wl = workloads.build(args.workload, args.seed, rounds)
    oracle = None
    durability_dir = None
    try:
        setup_started = time.perf_counter()
        import repro  # noqa: F401 - the cold import is part of set-up

        recorder = None
        if args.trace:
            import tracing

            recorder = tracing.install()
        if wl.config["durability"]:
            durability_dir = (OUT_DIR / f"wal-{args.workload}-"
                              f"{args.seed}-{os.getpid()}")
            shutil.rmtree(durability_dir, ignore_errors=True)
            durability_dir.mkdir(parents=True)
        catalog, service = build_service(wl, durability_dir)
        setup_s = time.perf_counter() - setup_started
        for table in wl.tables:
            table.rows = None  # the program holds its own copy now

        # The oracle starts only now, so that it cannot slow the set-up.
        waited = time.perf_counter()
        oracle = Oracle(args.workload, args.seed, rounds)
        self_test = oracle.ready()
        waited = time.perf_counter() - waited
        correct = all(self_test.values())
        print(f"perfbench: checker self-test: "
              f"{sum(self_test.values())} of {len(self_test)} cases pass"
              + ("" if correct else f"; failing: {self_test}"),
              file=sys.stderr)
        cache = catalog.predicate_cache
        before = (cache.hits, cache.misses) if cache is not None else (0, 0)
        tally, attempted, failed, unexpected = run_stream(
            wl, service, oracle, recorder)
        # Only the statements of the named fault may fail; any other
        # wrong result makes the run incorrect.
        correct = correct and unexpected == 0
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        predicate_cache = (0, 0)  # lookups, hits during the stream
        if cache is not None:
            hits = cache.hits - before[0]
            predicate_cache = (hits + cache.misses - before[1], hits)
        if durability_dir is not None:
            problems = check_durable_state(catalog, durability_dir, oracle,
                                           recorder)
            for problem in problems:
                print(f"perfbench: durable state differs: {problem}",
                      file=sys.stderr)
            correct = correct and not problems
        statements = wl.statements
        print(f"perfbench: {args.workload} seed {args.seed}: {rounds} "
              f"rounds, {statements} statements; set-up {setup_s:.2f} s, "
              f"oracle ready {waited:.2f} s later, stream "
              f"{tally.wall_s:.2f} s of which program "
              f"{sum(tally.latencies):.2f} s and oracle "
              f"{oracle.busy_s:.2f} s", file=sys.stderr)
        if args.trace:
            metrics = per_layer_metrics(recorder, tally, statements,
                                        predicate_cache)
            loads = _select_loads(recorder, wl)
            if loads != tally.partitions_loaded:
                correct = False
                print(f"perfbench: traced SELECT loads {loads} != summed "
                      f"partitions_loaded {tally.partitions_loaded}",
                      file=sys.stderr)
            spans = recorder.write(OUT_DIR / f"trace-{args.workload}-"
                                             f"{args.seed}.tsv")
            print(f"perfbench: {spans} spans written; SELECT loads "
                  f"{loads} = partitions_loaded {tally.partitions_loaded}",
                  file=sys.stderr)
        else:
            metrics = end_to_end_metrics(tally, setup_s, peak_rss_mb,
                                         statements)
    finally:
        if oracle is not None:
            oracle.close()
        if durability_dir is not None:
            shutil.rmtree(durability_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
