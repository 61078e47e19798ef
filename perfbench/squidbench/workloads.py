"""The benchmark's three workloads: inputs, timed loop, output checks.

Every workload runs closed loop with one client on the default path
(``SquidConfig()``: vectorized engine, ``jobs=1``, result cache on):

* ``imdb-serve``   -- JSON requests through ``DiscoveryServer.handle``;
* ``dblp-session`` -- ``DiscoverySession.discover`` then
  ``SquidSystem.execute`` of the abduced query;
* ``imdb-mutate``  -- every round opens with one write batch
  (``Database.insert`` + ``adb.refresh``) followed by serve requests.

A run times ``seconds`` of rounds, each a fixed number of requests.
Set-up (αDB build plus warm-up) is sampled several times, spread over the
run between rounds.  Every time is divided by the machine slowdown
measured during it (see calibrate.py); throughput, set-up and write times
are then medians over rounds or samples, latency percentiles are taken
over every request of the run.  The inputs come only from the seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import pickle
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import SquidConfig, SquidSystem
from repro.datasets import dblp, imdb
from repro.serve import DiscoveryServer, encode_response, sequential_response
from repro.workloads import dblp_queries, imdb_queries

from .calibrate import Calibrator
from .tracing import Tracer

#: Examples per request: the paper's few-examples protocol.  One-example
#: requests are left out on purpose (see README: known defects).
MIN_EXAMPLES, MAX_EXAMPLES = 2, 20

#: Rows per write batch.
WRITE_ROWS = 20

#: ``limit`` carried by every serve request.
RESPONSE_LIMIT = 25


@dataclass(frozen=True)
class Dataset:
    """A generator plus its workload registry and a seeded write target."""

    generate: Callable[[Any], Any]
    metadata: Callable[[], Any]
    registry: Callable[[], Any]
    write_table: str
    write_refs: Tuple[str, ...]
    """Tables whose primary keys fill the write table's columns after
    ``id``, in column order (writes only reference existing rows)."""


DATASETS: Dict[str, Dataset] = {
    "imdb": Dataset(
        imdb.generate,
        imdb.metadata,
        imdb_queries.build_registry,
        "castinfo",
        ("person", "movie", "roletype"),
    ),
    "dblp": Dataset(
        dblp.generate,
        dblp.metadata,
        dblp_queries.build_registry,
        "authortopub",
        ("author", "publication"),
    ),
}


@dataclass(frozen=True)
class Spec:
    """How one workload drives the system."""

    dataset: str
    front: str
    """``server`` (DiscoveryServer.handle) or ``session``."""

    round_requests: int
    warmup_requests: int
    setups: int
    """Set-up samples per run; the first one builds the system under
    test, the others are spread over the run and then discarded."""

    setup_writes: int = 0
    """Write batches timed on each discarded set-up system (workloads
    whose request stream has no writes)."""

    inline_writes: bool = False
    """Open every round with one write batch on the system under test."""

    final_requests: int = 0
    """Untimed requests after the last round, checked with it."""


WORKLOADS: Dict[str, Spec] = {
    "imdb-serve": Spec("imdb", "server", 200, 400, setups=6, setup_writes=2),
    "dblp-session": Spec("dblp", "session", 1000, 1000, setups=9, setup_writes=4),
    "imdb-mutate": Spec(
        "imdb", "server", 150, 400, setups=5, inline_writes=True, final_requests=600
    ),
}


@dataclass(frozen=True)
class Profile:
    """Dataset sizes plus a divisor for request counts (tests shrink)."""

    imdb: Any
    dblp: Any
    shrink: int = 1
    max_setups: int = 99


PROFILES: Dict[str, Profile] = {
    "medium": Profile(
        imdb.ImdbSize(persons=1000, movies=2000, companies=60, keywords=80),
        dblp.DblpSize(authors=500, publications=1600),
    ),
    "tiny": Profile(
        imdb.ImdbSize(persons=120, movies=240, companies=12, keywords=24),
        dblp.DblpSize(authors=80, publications=240),
        shrink=20,
        max_setups=2,
    ),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def f1(predicted: set, intended: set) -> float:
    """F1 of two entity-key sets (1.0 when both are empty)."""
    if not predicted and not intended:
        return 1.0
    overlap = len(predicted & intended)
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(predicted), overlap / len(intended)
    return 2 * precision * recall / (precision + recall)


def strip_seconds(response: Dict[str, Any]) -> str:
    """A serve response's canonical bytes without the advisory timing."""
    return encode_response({k: v for k, v in response.items() if k != "seconds"})


@dataclass
class Record:
    """One request and what the system under test answered."""

    request: Dict[str, Any]
    qid: str
    round: int
    answer: Any = None
    """Serve: the response dict.  Session: ``(sql, row count)``; None
    when the call raised."""


@dataclass
class Round:
    wall: float
    latencies: List[float]
    traced: bool
    slowdown: float
    """Machine slowdown during the round (see calibrate.py)."""


@dataclass
class Sample:
    """One set-up or write time with the machine slowdown during it."""

    seconds: float
    slowdown: float

    @property
    def reference_seconds(self) -> float:
        return self.seconds / self.slowdown


@dataclass
class Front:
    """The system under test and the object requests go through."""

    system: SquidSystem
    server: Optional[DiscoveryServer] = None
    session: Any = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        else:
            self.session.close()


class Run:
    """One benchmark run of one workload."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        profile: str = "medium",
    ) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seconds = seconds
        self.profile = PROFILES[profile]
        self.dataset = DATASETS[self.spec.dataset]
        size = getattr(self.profile, self.spec.dataset)
        base = self.dataset.generate(size)
        self.metadata = self.dataset.metadata()
        self.registry = self.dataset.registry()
        self.pools = {
            w.qid: values
            for w in self.registry
            if len(values := w.ground_truth_examples(base)) >= MIN_EXAMPLES
        }
        self.qids = sorted(self.pools)
        self.base_blob = pickle.dumps(base)
        self.write_keys = [
            base.relation(t).column(base.relation(t).schema.primary_key)
            for t in self.dataset.write_refs
        ]
        self.next_write_id = max(base.relation(self.dataset.write_table).column("id")) + 1
        self.request_rng = random.Random(f"{workload}/requests/{seed}")
        self.write_rng = random.Random(f"{workload}/writes/{seed}")
        self.requests_made = 0
        self.tracer = Tracer() if trace else None
        self.loop = asyncio.new_event_loop()
        self.calibrator = Calibrator()

        self.records: List[Record] = []
        self.rounds: List[Round] = []
        self.setup_samples: List[Sample] = []
        self.write_samples: List[Sample] = []
        self.inserted: List[Tuple[Any, ...]] = []
        self.writes_attempted = 0
        self.writes_failed = 0
        self.counter_deltas: Dict[str, float] = {}
        self.traced_requests = 0
        self.errors: List[str] = []

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def scaled(self, count: int) -> int:
        return max(2, count // self.profile.shrink)

    def next_request(self, round_index: int) -> Record:
        rng = self.request_rng
        qid = rng.choice(self.qids)
        values = self.pools[qid]
        count = rng.randint(MIN_EXAMPLES, min(MAX_EXAMPLES, len(values)))
        self.requests_made += 1
        request = {
            "id": self.requests_made,
            "examples": rng.sample(values, count),
            "limit": RESPONSE_LIMIT,
        }
        return Record(request, qid, round_index)

    def next_write_batch(self) -> List[Tuple[Any, ...]]:
        rows = []
        for _ in range(WRITE_ROWS):
            refs = tuple(self.write_rng.choice(keys) for keys in self.write_keys)
            rows.append((self.next_write_id,) + refs)
            self.next_write_id += 1
        return rows

    # ------------------------------------------------------------------
    # set-up and writes
    # ------------------------------------------------------------------
    def build_front(self, db) -> Front:
        system = SquidSystem.build(db, self.metadata, SquidConfig())
        if self.spec.front == "server":
            return Front(system, server=DiscoveryServer(system))
        session = system.session()
        session.warm()
        return Front(system, session=session)

    def timed_setup(self) -> Front:
        """Base database -> ready system; one ``setup_s`` sample."""
        db = pickle.loads(self.base_blob)
        gc.collect()
        with self.traced(True):
            start = time.perf_counter()
            front = self.build_front(db)
            end = time.perf_counter()
        self.setup_samples.append(Sample(end - start, self.calibrator.slowdown(start, end)))
        return front

    def write(self, front: Front, rows: List[Tuple[Any, ...]]) -> Optional[Sample]:
        """One write batch: insert the rows, refresh the αDB; returns
        its time (None when it failed)."""
        table = self.dataset.write_table
        self.writes_attempted += 1
        start = time.perf_counter()
        try:
            for row in rows:
                front.system.adb.db.insert(table, row)
            counts = front.system.adb.refresh([table])
        except Exception as exc:  # a failed write is counted, not fatal
            self.writes_failed += 1
            self.errors.append(f"write: {type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter()
        if counts.get("rematerialized_relations", 0) < 1:
            self.writes_failed += 1
            self.errors.append(f"write: refresh did no work: {counts}")
        return Sample(end - start, self.calibrator.slowdown(start, end))

    def extra_setup(self) -> None:
        """A set-up sample between rounds, plus its write samples."""
        front = self.timed_setup()
        try:
            for _ in range(self.spec.setup_writes):
                gc.collect()
                with self.traced(True):
                    sample = self.write(front, self.next_write_batch())
                if sample is not None:
                    self.write_samples.append(sample)
        finally:
            front.close()

    def traced(self, enabled: bool):
        """Trace the body when this is a traced run and ``enabled``."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.active(enabled)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def _serve(self, server: DiscoveryServer, batch: List[Record], lat: List[float]) -> None:
        tracer = self.tracer
        for record in batch:
            if tracer is not None:
                tracer.request = record.request["id"]
            start = time.perf_counter()
            record.answer = await server.handle(record.request)
            lat.append(time.perf_counter() - start)

    def _session(self, front: Front, batch: List[Record], lat: List[float]) -> None:
        tracer = self.tracer
        session, system = front.session, front.system
        for record in batch:
            if tracer is not None:
                tracer.request = record.request["id"]
            start = time.perf_counter()
            try:
                result = session.discover(record.request["examples"])
                rows = system.execute(result.query).rows
                record.answer = (result.sql, len(rows))
            except Exception as exc:  # counted against completed_share
                self.errors.append(f"request {record.request['id']}: {exc!r}")
            lat.append(time.perf_counter() - start)

    def run_requests(self, front: Front, batch: List[Record]) -> List[float]:
        lat: List[float] = []
        if front.server is not None:
            self.loop.run_until_complete(self._serve(front.server, batch, lat))
        else:
            self._session(front, batch, lat)
        self.records.extend(batch)
        return lat

    def counters(self, front: Front) -> Dict[str, float]:
        session = front.server.session if front.server is not None else front.session
        stats = session.stats()
        return {
            key: float(stats.get(key, 0))
            for key in (
                "probe_hits",
                "probe_family_scans",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_invalidations",
            )
        }

    def run_round(self, front: Front, index: int, traced: bool) -> None:
        batch = [
            self.next_request(index)
            for _ in range(self.scaled(self.spec.round_requests))
        ]
        rows = None
        if self.spec.inline_writes:
            rows = self.next_write_batch()
            gc.collect()
        before = self.counters(front) if traced else None
        write = None
        with self.traced(traced):
            start = time.perf_counter()
            if rows is not None:
                write = self.write(front, rows)
                self.inserted.extend(rows)
            lat = self.run_requests(front, batch)
            end = time.perf_counter()
        if write is not None:
            self.write_samples.append(write)
        if before is not None:
            after = self.counters(front)
            for key, value in after.items():
                self.counter_deltas[key] = self.counter_deltas.get(key, 0.0) + value - before[key]
            self.traced_requests += len(batch)
        slowdown = self.calibrator.slowdown(start, end)
        self.rounds.append(Round(end - start, lat, traced, slowdown))

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def measure(self) -> None:
        """Set up, warm up, then time rounds for ``seconds``; the extra
        set-up samples fall between rounds, spread over the run."""
        setups = min(self.spec.setups, self.profile.max_setups)
        self.calibrator.start()
        front = None
        try:
            front = self.timed_setup()
            warmup = self.scaled(self.spec.warmup_requests)
            self.run_requests(front, [self.next_request(-1) for _ in range(warmup)])
            marks = [self.seconds * (i + 0.5) / (setups - 1) for i in range(setups - 1)]
            gc.collect()
            timed = 0.0
            index = 0
            while timed < self.seconds or index < 2:
                traced = self.tracer is not None and index % 2 == 1
                self.run_round(front, index, traced)
                timed += self.rounds[-1].wall
                index += 1
                while marks and timed >= marks[0]:
                    marks.pop(0)
                    self.extra_setup()
            for _ in marks:
                self.extra_setup()
            if self.spec.final_requests:
                final = self.scaled(self.spec.final_requests)
                self.run_requests(front, [self.next_request(index - 1) for _ in range(final)])
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            self.calibrator.stop()
            if front is not None:
                front.close()

    def finish(self) -> Dict[str, Any]:
        """Check every recorded answer and compute the metrics."""
        gc.collect()
        try:
            passed, scores = self.verify()
        finally:
            self.loop.close()
        return self.report(passed, scores)

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------
    def reference_db(self, with_writes: bool):
        db = pickle.loads(self.base_blob)
        if with_writes:
            for row in self.inserted:
                db.insert(self.dataset.write_table, row)
        return db

    def verify(self) -> Tuple[List[bool], List[float]]:
        """Check every answer; returns per-record pass flags and the F1
        of each checked answer against its workload's ground truth."""
        if self.spec.inline_writes:
            return self.verify_mutate()
        reference = SquidSystem.build(self.reference_db(False), self.metadata, SquidConfig())
        truth = self.ground_truth(reference)
        keys_by_sql: Dict[str, set] = {}
        passed, scores = [], []
        for record in self.records:
            examples = record.request["examples"]
            if self.spec.front == "server":
                expected = sequential_response(reference, record.request)
                ok = (
                    isinstance(record.answer, dict)
                    and record.answer.get("ok") is True
                    and strip_seconds(record.answer) == encode_response(expected)
                )
            else:
                result = reference.discover(examples)
                rows = reference.execute(result.query).rows
                ok = record.answer == (result.sql, len(rows))
                keys_by_sql.setdefault(result.sql, reference.result_keys(result))
            passed.append(ok)
            if not ok:
                self.errors.append(f"request {record.request['id']}: answer differs")
                continue
            sql = record.answer["sql"] if self.spec.front == "server" else record.answer[0]
            if sql not in keys_by_sql:
                keys_by_sql[sql] = reference.result_keys(reference.discover(examples))
            scores.append(f1(keys_by_sql[sql], truth[record.qid]))
        return passed, scores

    def verify_mutate(self) -> Tuple[List[bool], List[float]]:
        """Reads after the last write must match a server built from
        scratch over the base rows plus every inserted row; earlier reads
        must be ok (their αDB state no longer exists)."""
        last = max(record.round for record in self.records)
        reference = SquidSystem.build(self.reference_db(True), self.metadata, SquidConfig())
        truth = self.ground_truth(reference)
        server = DiscoveryServer(reference)
        passed, scores = [], []
        try:
            for record in self.records:
                answer = record.answer
                ok = isinstance(answer, dict) and answer.get("ok") is True
                if ok and record.round == last:
                    expected = self.loop.run_until_complete(server.handle(record.request))
                    ok = strip_seconds(answer) == strip_seconds(expected)
                    if ok:
                        keys = reference.result_keys(reference.discover(record.request["examples"]))
                        scores.append(f1(keys, truth[record.qid]))
                passed.append(ok)
                if not ok:
                    self.errors.append(f"request {record.request['id']}: answer differs")
        finally:
            server.close()
        return passed, scores

    def ground_truth(self, reference: SquidSystem) -> Dict[str, set]:
        db = reference.adb.db
        return {w.qid: w.ground_truth_keys(db) for w in self.registry if w.qid in self.pools}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def report(self, passed: List[bool], scores: List[float]) -> Dict[str, Any]:
        attempted = len(passed) + self.writes_attempted
        completed = sum(passed) + self.writes_attempted - self.writes_failed
        for line in self.errors[:20]:
            print(f"[{self.name}] {line}", file=sys.stderr)
        if self.tracer is not None and self.tracer.missing:
            print(f"[{self.name}] not traced: {', '.join(self.tracer.missing)}", file=sys.stderr)
        if self.tracer is None:
            metrics = self.end_to_end(completed / attempted, scores)
        else:
            metrics = self.per_layer()
        return {
            "correct": completed == attempted,
            "attempted": attempted,
            "failed": attempted - completed,
            "metrics": metrics,
        }

    def round_medians(self, traced: bool, reference: bool = True) -> Tuple[float, float, float]:
        """(p50 s, p90 s) of every request of the rounds, each divided by
        its round's slowdown, and the median over rounds of requests per
        second; in reference units unless ``reference`` is false."""
        rounds = [r for r in self.rounds if r.traced == traced]
        scale = [r.slowdown if reference else 1.0 for r in rounds]
        latencies = [x / k for r, k in zip(rounds, scale) for x in r.latencies]
        return (
            percentile(latencies, 50),
            percentile(latencies, 90),
            statistics.median(len(r.latencies) / r.wall * k for r, k in zip(rounds, scale)),
        )

    def end_to_end(self, completed_share: float, scores: List[float]) -> Dict[str, Dict[str, Any]]:
        p50, p90, rate = self.round_medians(False)
        values = {
            "setup_s": (statistics.median(x.reference_seconds for x in self.setup_samples), "s"),
            "request_p50_ms": (p50 * 1e3, "ms"),
            "request_p90_ms": (p90 * 1e3, "ms"),
            "requests_per_s": (rate, "1/s"),
            "write_p50_ms": (
                statistics.median(x.reference_seconds for x in self.write_samples) * 1e3,
                "ms",
            ),
            "f1_mean": (statistics.fmean(scores) if scores else 0.0, "share"),
            "completed_share": (completed_share, "share"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        tracer = self.tracer
        assert tracer is not None
        totals = tracer.totals()
        requests = max(1, self.traced_requests)
        counts = tracer.counters
        deltas = self.counter_deltas

        # Span times are in reference units too: request-path spans
        # divide by the traced rounds' slowdown, build-path spans by the
        # set-ups' and writes'.
        request_slowdown = statistics.median(r.slowdown for r in self.rounds if r.traced)
        build_slowdown = statistics.median(
            x.slowdown for x in self.setup_samples + self.write_samples
        )

        def spans(name: str) -> Tuple[int, float, float]:
            return totals.get(name, (0, 0.0, 0.0))

        def per_request_ms(seconds: float) -> float:
            return seconds * 1e3 / requests / request_slowdown

        def mean_ms(name: str) -> float:
            count, inclusive, _ = spans(name)
            return inclusive * 1e3 / count / build_slowdown if count else 0.0

        builds = spans("adb.build")[0]
        refreshes = spans("adb.refresh")[0]
        hits, misses = deltas.get("cache_hits", 0.0), deltas.get("cache_misses", 0.0)
        untraced_rate = self.round_medians(False)[2]
        traced_rate = self.round_medians(True)[2]
        untraced_latencies = [
            x / r.slowdown for r in self.rounds if not r.traced for x in r.latencies
        ]
        raw_p50, _, raw_rate = self.round_medians(False, reference=False)
        values = {
            "request_p99_ms": (percentile(untraced_latencies, 99) * 1e3, "ms"),
            "calibration.slowdown": (statistics.median(r.slowdown for r in self.rounds), "x"),
            "raw.request_p50_ms": (raw_p50 * 1e3, "ms"),
            "raw.requests_per_s": (raw_rate, "1/s"),
            "raw.setup_s": (statistics.median(x.seconds for x in self.setup_samples), "s"),
            "trace.overhead_share": (1.0 - traced_rate / untraced_rate, "share"),
            "serve.handle_self_ms": (per_request_ms(spans("serve.handle")[2]), "ms"),
            "serve.hop_wait_ms": (
                per_request_ms(tracer.nested_wait("session.discover_async", "pipeline.discover")),
                "ms",
            ),
            "serve.exec_wait_ms": (
                per_request_ms(tracer.nested_wait("serve.async_execute", "cache.execute")),
                "ms",
            ),
        }
        for stage in ("lookup", "disambiguation", "context", "abduction", "construction"):
            values[f"{stage}.ms"] = (per_request_ms(spans(stage)[2]), "ms")
        values["pipeline.candidates"] = (spans("disambiguation")[0] / requests, "1/req")
        for key in ("hits", "misses", "evictions", "invalidations"):
            values[f"cache.{key}"] = (deltas.get(f"cache_{key}", 0.0) / requests, "1/req")
        values["cache.hit_share"] = (hits / (hits + misses) if hits + misses else 0.0, "share")
        values["cache.self_ms"] = (per_request_ms(spans("cache.execute")[2]), "ms")
        values["vectorized.execute_ms"] = (per_request_ms(spans("vectorized.execute")[1]), "ms")
        values["vectorized.calls"] = (spans("vectorized.execute")[0] / requests, "1/req")
        values["vectorized.rows_out"] = (counts["vectorized.rows_out"] / requests, "1/req")
        values["vectorized.aliases"] = (counts["vectorized.aliases"] / requests, "1/req")
        values["vectorized.plan_joins_ms"] = (
            per_request_ms(spans("vectorized.plan_joins")[1]),
            "ms",
        )
        values["session.probe_hits"] = (deltas.get("probe_hits", 0.0) / requests, "1/req")
        values["session.probe_family_scans"] = (
            deltas.get("probe_family_scans", 0.0) / requests,
            "1/req",
        )
        values["adb.build_ms"] = (mean_ms("adb.build"), "ms")
        values["adb.refresh_ms"] = (mean_ms("adb.refresh"), "ms")
        values["derived.materialize_ms"] = (mean_ms("derived.materialize"), "ms")
        values["derived.materialize_calls"] = (
            spans("derived.materialize")[0] / max(1, builds + refreshes),
            "1/op",
        )
        values["statistics.compute_ms"] = (mean_ms("statistics.compute"), "ms")
        values["inverted.build_ms"] = (mean_ms("inverted.build"), "ms")
        for key in ("rematerialized_relations", "recomputed_families"):
            values[f"adb.{key}"] = (counts[f"adb.{key}"] / max(1, refreshes), "1/refresh")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    profile: str = "medium",
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload and return the result object ``run.py`` prints."""
    bench = Run(workload, seed, seconds, trace, profile)
    bench.measure()
    result = bench.finish()
    if bench.tracer is not None and trace_path is not None:
        bench.tracer.write(trace_path)
    return result
