"""The traced run: where a request's time goes, layer by layer.

Never the source of an end-to-end metric.  It spends the run's seconds
on three passes over the same schedule as the timed run:

1. **baseline** — the plain session (or HTTP) path, untraced;
2. **own spans** — every request is followed by a *replay*: the same
   work as decomposed calls into each layer's public functions
   (``parse_xquery`` → ``normalize`` → ``translate`` → ``unnest_plan``
   → ``digest`` → ``execute``), each wrapped in one of the ledger's own
   spans.  The replay mirrors what the session just did — it compiles
   only when the session's plan cache missed and executes only when the
   result cache missed — and its output must equal the session's;
3. **obs attached** — the same again with ``repro.obs.Tracer`` /
   ``MetricsRegistry`` passed through the public ``tracer=`` /
   ``metrics=`` arguments, which splits the optimizer into its passes
   and the execution into operators.

Module names are the layer names.  For serve-http the spans are
client-side (connect / send / wait / read) and the server's own numbers
come from ``GET /stats`` and the reply bodies; spans inside the server
process are a later change.
"""

from __future__ import annotations

import itertools
import pathlib
import statistics
import time
from collections import defaultdict

from repro import Database, execute, unnest_plan
from repro.engine.executor import operators_by_path
from repro.nal.scalar import NestedPlan
from repro.obs import MetricsRegistry, Tracer
from repro.xmldb.parser import parse_document
from repro.xquery import normalize, parse_xquery, translate

import workloads as wl
from spans import SpanLog, write_chrome_trace
from summary import geomean, median
from worker import (
    Client,
    UpdateMix,
    SharedRequests,
    http_step,
    in_threads,
    merge,
    session_cycles,
    set_up,
    warm_up,
)

#: share of the run's seconds given to each pass
BASELINE, OWN, OBS = 0.3, 0.35, 0.35

#: the replay's layer spans, in request order
LAYER_SPANS = ("xquery.parse", "xquery.normalize", "xquery.translate",
               "optimizer.rewrite", "optimizer.digest", "engine.execute")

#: requests per pass whose spans go into the Chrome trace file
TRACE_FILE_REQUESTS = 100

_OPTIMIZER_PASSES = {"optimizer.unnest_ms": "obs:rewrite/unnest",
                     "optimizer.access_paths_ms": "obs:access-paths",
                     "optimizer.elide_ms": "obs:sort-elision",
                     "optimizer.rank_ms": "obs:cost-ranking"}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def hit_rates(before: dict, after: dict) -> dict:
    """Plan- and result-cache hit rates between two ``cache_stats()``
    (or ``GET /stats``) snapshots."""
    def rate(cache: str) -> float:
        return _rate(after[cache]["hits"] - before[cache]["hits"],
                     after[cache]["misses"] - before[cache]["misses"])
    return {"session.plan_hit_rate": rate("plan_cache"),
            "session.result_hit_rate": rate("result_cache")}


# ----------------------------------------------------------------------
# xmldb: parsing and registration, measured on the input files
# ----------------------------------------------------------------------
def measure_xmldb(docs_dir: pathlib.Path, log: SpanLog) -> dict:
    db = Database()
    parse_s = register_s = 0.0
    elements = 0
    for path in sorted(docs_dir.glob("*.xml")):
        text = path.read_text()
        with log.span("xmldb.parse", doc=path.name) as index:
            parse_document(text)
        parse_s += log.spans[index].duration
        with log.span("xmldb.register", doc=path.name) as index:
            document = db.register_text(path.name, text)
        register_s += log.spans[index].duration
        elements += document.element_count
    db.close()
    return {"xmldb.parse_ms": parse_s * 1e3,
            "xmldb.register_ms": register_s * 1e3,
            "xmldb.nodes_per_s": elements / register_s}


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _hosts_nested(operator) -> bool:
    """Whether the operator's subscript holds a nested algebraic
    expression — the per-outer-tuple cost unnesting removes."""
    pending = list(operator.scalar_exprs())
    while pending:
        expr = pending.pop()
        if isinstance(expr, NestedPlan):
            return True
        pending.extend(expr.children())
    return False


def _count_operators(plan) -> int:
    """Operators in a plan, nested subscript plans included."""
    count = 0
    pending = [plan]
    while pending:
        operator = pending.pop()
        count += 1
        pending.extend(operator.children)
        exprs = list(operator.scalar_exprs())
        while exprs:
            expr = exprs.pop()
            if isinstance(expr, NestedPlan):
                pending.append(expr.plan)
            exprs.extend(expr.children())
    return count


class InProcessTrace:
    """Session call + decomposed replay for every request of a
    session/update workload."""

    def __init__(self, workload, target):
        self.workload = workload
        self.session = target.session
        self.store = target.db.store
        self.log = SpanLog()
        self.requests = itertools.count()
        self.plans: dict = {}
        #: request id → facts the spans do not carry
        self.facts: dict[int, dict] = {}
        #: (text, obs attached) → scan statistics of its first replayed
        #: execution; on a static corpus every later one must repeat
        #: them exactly
        self.counts: dict[tuple, dict] = {}
        self.failed = 0
        self.errors: list[str] = []
        self.obs = False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, step) -> str:
        """One traced request; returns the session's output."""
        request = next(self.requests)
        shape = step.shape.name
        if step.text is None:
            with self.log.span("request", request, shape=shape):
                with self.log.span("xmldb.update", request):
                    return step.perform()
        before = self.session.cache_stats()
        with self.log.span("request", request, shape=shape):
            with self.log.span("session.execute", request):
                output = step.perform()
        after = self.session.cache_stats()
        plan_missed = after["plan_cache"]["misses"] \
            > before["plan_cache"]["misses"]
        result_hit = after["result_cache"]["hits"] \
            > before["result_cache"]["hits"]
        with self.log.span("replay", request, shape=shape):
            self._replay(step, request, output, plan_missed,
                         not result_hit)
        return output

    def _replay(self, step, request, output, compiles, executes) -> None:
        log, text, label = self.log, step.text, step.shape.label
        facts = self.facts[request] = {}
        entry = self.plans.get((text, label))
        if compiles or entry is None:
            with log.span("xquery.parse", request):
                ast = parse_xquery(text)
            with log.span("xquery.normalize", request):
                normalized = normalize(ast)
            with log.span("xquery.translate", request):
                translation = translate(normalized, self.store)
            tracer = Tracer() if self.obs else None
            with log.span("optimizer.rewrite", request) as index:
                alternatives = unnest_plan(
                    translation.plan, self.store,
                    ranking=self.session.ranking, tracer=tracer)
            if tracer is not None:
                log.adopt(tracer, index, request)
            chosen = alternatives[0] if label is None else next(
                alt for alt in alternatives if alt.label == label)
            with log.span("optimizer.digest", request):
                chosen.digest()
            entry = self.plans[(text, label)] = {"chosen": chosen}
            facts["translated"] = translation.plan
            facts["alternatives"] = len(alternatives)
        if not executes:
            return
        chosen = entry["chosen"]
        tracer, metrics = (Tracer(), MetricsRegistry()) if self.obs \
            else (None, None)
        with log.span("engine.execute", request) as index:
            result = execute(chosen.plan, self.store,
                             mode=self.session.default_mode,
                             tracer=tracer, metrics=metrics)
        if tracer is not None:
            if "classes" not in entry:
                operators = operators_by_path(chosen.plan)
                entry["classes"] = {path: type(operator).__name__
                                    for path, operator in operators.items()}
                entry["nested"] = {path for path, operator
                                   in operators.items()
                                   if _hosts_nested(operator)}
            classes, nested = entry["classes"], entry["nested"]

            def annotate(span):
                path = tuple((span.args or {}).get("path", ()))
                return {"op": classes.get(path, "?"),
                        "hosts_nested": path in nested}
            log.adopt(tracer, index, request, annotate)
            facts["mode"] = next(
                (s.args["mode"] for s in tracer.spans
                 if s.cat == "lifecycle" and s.args), None)
            facts["rows_moved"] = sum(
                counter.value for name, counter
                in metrics.counters.items()
                if name.startswith("operator.")
                and name.endswith(".rows_out"))
        if result.output != output:
            self._fail(f"{step.shape.name}: decomposed replay differs "
                       f"from the session's output")
        stats = result.stats
        facts["stats"] = stats
        facts["rows"] = len(result.rows)
        if self.workload.kind == "session" and \
                self.counts.setdefault((text, self.obs), stats) != stats:
            self._fail(f"{step.shape.name}: scan counts did not repeat "
                       f"exactly on a static corpus")


def fold(log: SpanLog) -> dict[int, dict]:
    """Request id → shape, summed duration per span name, and (from
    adopted operator spans) self seconds per operator class and inside
    operators that host a nested subscript."""
    own = log.self_times()
    out: dict[int, dict] = {}
    for index, span in enumerate(log.spans):
        if span.request is None:
            continue
        record = out.setdefault(span.request, {
            "shape": None, "dur": defaultdict(float),
            "ops": defaultdict(float), "nested": 0.0})
        if span.name == "request":
            record["shape"] = span.args["shape"]
        record["dur"][span.name] += span.duration
        if span.args.get("cat") == "operator":
            record["ops"][span.args["op"]] += own[index]
            if span.args["hosts_nested"]:
                record["nested"] += own[index]
    return out


def shape_medians(records: dict[int, dict], value) -> dict[str, float]:
    """Per shape, the median over its requests of ``value(record)``."""
    grouped: dict[str, list] = defaultdict(list)
    for record in records.values():
        grouped[record["shape"]].append(value(record))
    return {shape: statistics.median(values)
            for shape, values in grouped.items()}


def layer_sum(record: dict) -> float:
    return sum(record["dur"].get(name, 0.0) for name in LAYER_SPANS)


def in_process_metrics(trace: InProcessTrace, own: dict, obs: dict,
                       baseline: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics and informational extras from the folded own
    (pass 2) and obs (pass 3) records; ``baseline`` is the untraced
    per-shape median latency in ms."""
    def ms(records, name):
        return _mean(shape_medians(
            records, lambda r: r["dur"].get(name, 0.0) * 1e3).values())

    queries = {rid: r for rid, r in own.items() if "replay" in r["dur"]}
    obs_queries = {rid: r for rid, r in obs.items()
                   if "replay" in r["dur"]}
    facts = [trace.facts.get(rid, {}) for rid in queries]
    executed = [f for f in facts if "stats" in f]
    visits = sum(f["stats"]["node_visits"] for f in executed)
    rows = sum(f["rows"] for f in executed)
    fast = sum(f["stats"]["order_fastpath_hits"] for f in executed)
    slow = sum(f["stats"]["order_dedup_passes"] for f in executed)
    metrics = {
        "xquery.parse_ms": ms(queries, "xquery.parse"),
        "xquery.normalize_ms": ms(queries, "xquery.normalize"),
        "xquery.translate_ms": ms(queries, "xquery.translate"),
        "xquery.plan_ops": _mean(_count_operators(f["translated"])
                                 for f in facts if "translated" in f),
        "optimizer.rewrite_ms": ms(queries, "optimizer.rewrite"),
        "optimizer.alternatives": _mean(f["alternatives"] for f in facts
                                        if "alternatives" in f),
        "optimizer.digest_ms": ms(queries, "optimizer.digest"),
        "engine.execute_ms": ms(queries, "engine.execute"),
        "xpath.node_visits": _mean(f["stats"]["node_visits"]
                                   for f in executed),
        "xpath.document_scans": _mean(f["stats"]["total_scans"]
                                      for f in executed),
        "xpath.visits_per_row": visits / max(1, rows),
        "xpath.order_fastpath_rate": _rate(fast, slow),
        "index.probes": _mean(f["stats"]["total_probes"]
                              for f in executed),
        "index.full_builds": trace.store.indexes.full_builds,
        "xmldb.update_ms": ms(own, "xmldb.update"),
    }
    for name, span_name in _OPTIMIZER_PASSES.items():
        metrics[name] = ms(obs_queries, span_name)

    session_ms = shape_medians(
        queries, lambda r: r["dur"]["session.execute"] * 1e3)
    replay_ms = shape_medians(queries, lambda r: layer_sum(r) * 1e3)
    metrics["session.overhead_ms"] = _mean(
        session_ms[shape] - replay_ms[shape] for shape in session_ms)

    executing = [r for r in obs_queries.values()
                 if r["dur"].get("engine.execute")]
    execute_s = sum(r["dur"]["engine.execute"] for r in executing)
    metrics["nal.nested_share"] = \
        sum(r["nested"] for r in executing) / execute_s \
        if execute_s else 0.0
    moved = sum(trace.facts[rid].get("rows_moved", 0)
                for rid in obs_queries)
    metrics["engine.rows_per_s"] = moved / execute_s if execute_s else 0.0

    covered = sum(layer_sum(r) for r in queries.values())
    replayed = sum(r["dur"]["replay"] for r in queries.values())
    metrics["obs.span_coverage"] = covered / replayed if replayed else 0.0
    traced_ms = shape_medians(
        obs, lambda r: (r["dur"]["request"]
                        + r["dur"].get("replay", 0.0)) * 1e3)
    metrics["obs.trace_overhead"] = geomean(
        [traced_ms[shape] / baseline[shape] for shape in traced_ms
         if baseline.get(shape)])

    operator_ms: dict[str, list] = defaultdict(list)
    for shape in {r["shape"] for r in executing}:
        mine = [r for r in executing if r["shape"] == shape]
        for op in {op for r in mine for op in r["ops"]}:
            operator_ms[op].append(statistics.median(
                r["ops"].get(op, 0.0) * 1e3 for r in mine))
    extras = {f"engine.op_ms.{op}": _mean(values)
              for op, values in sorted(operator_ms.items())}
    modes = {f.get("mode") for f in trace.facts.values()} - {None}
    extras["engine.mode"] = "/".join(sorted(modes))
    total = _mean(session_ms.values())

    def share(*names) -> float:
        return sum(metrics[name] for name in names) / total \
            if total else 0.0

    extras["shares"] = {
        "xquery": share("xquery.parse_ms", "xquery.normalize_ms",
                        "xquery.translate_ms"),
        "optimizer": share("optimizer.rewrite_ms",
                           "optimizer.digest_ms"),
        "engine": share("engine.execute_ms"),
        "session": share("session.overhead_ms"),
    }
    return metrics, extras


def trace_in_process(workload, target, seed, seconds, first, mix):
    """Passes 1–3 for a session/update workload."""
    def cycles(client):
        return mix.cycles(client) if mix is not None \
            else session_cycles(workload, target, seed)

    before = target.session.cache_stats()
    applies_before = target.db.store.indexes.incremental_applies
    version_before = mix.version if mix is not None else 0
    baseline = Client(first)
    baseline.drive(cycles(baseline), seconds * BASELINE)
    after = target.session.cache_stats()
    updates = (mix.version - version_before) if mix is not None else 0
    applies = target.db.store.indexes.incremental_applies \
        - applies_before

    trace = InProcessTrace(workload, target)
    folded = []
    for share, obs in ((OWN, False), (OBS, True)):
        trace.obs = obs
        trace.log = SpanLog()
        observer = Client(first)   # only carries checkpoint bookkeeping
        deadline = time.perf_counter() + seconds * share
        for cycle in cycles(observer):
            for step in cycle:
                observer.last_output[step.shape.name] = trace.run(step)
            if time.perf_counter() >= deadline:
                break
        folded.append((trace.log, fold(trace.log)))
    if mix is not None:
        mix.final_checkpoint(observer)

    untraced = {name: median([v for v in values if v is not None])
                for name, values in baseline.latency_ms.items()}
    metrics, extras = in_process_metrics(
        trace, folded[0][1], folded[1][1], untraced)
    metrics.update(hit_rates(before, after))
    metrics["index.incremental_applies"] = \
        applies / updates if updates else 0.0
    if untraced.get("read-scan-repeat"):
        metrics["xmldb.first_read_penalty"] = \
            untraced["read-scan"] / untraced["read-scan-repeat"]
    counted = merge([baseline])
    counted["failed"] += trace.failed
    counted["errors"] = (counted["errors"] + trace.errors)[:5]
    return metrics, extras, counted, [log for log, _ in folded]


# ----------------------------------------------------------------------
# serve-http: client-side spans, /stats deltas, reply bodies
# ----------------------------------------------------------------------
def traced_client(requests, target, index, seconds, first):
    """One traced HTTP client: like ``Client.drive`` but keeps the
    reply's body facts and records connect/send/wait/read spans."""
    log = SpanLog(lane=index + 1)
    client = Client(first)
    replies = []
    deadline = time.perf_counter() + seconds
    for number in itertools.count():
        request = index * 1_000_000 + number
        step = http_step(target, *requests.take())
        client.send(step)
        if step.exchange is not None:
            reply, (start, connected, sent, first_byte, done) = \
                step.exchange
            parent = log.add("request", start, done, request=request,
                             shape=step.name)
            for name, begin, end in (
                    ("client.connect", start, connected),
                    ("client.send", connected, sent),
                    ("client.wait", sent, first_byte),
                    ("client.read", first_byte, done)):
                log.add(name, begin, end, parent, request)
            replies.append({
                "shape": step.name, "cached": reply["cached"],
                "latency_ms": (done - start) * 1e3,
                "elapsed_ms": reply["elapsed"] * 1e3,
                "stats": reply["stats"], "rows": reply["rows"]})
        if time.perf_counter() >= deadline:
            break
    return log, client, replies


def trace_http(workload, target, seed, seconds, first):
    clients = [Client(first) for _ in range(workload.clients)]

    requests = SharedRequests(workload, seed)
    before = target.stats()
    in_threads(len(clients), lambda i: clients[i].drive(
        requests.cycles(target), seconds * BASELINE))
    traced = in_threads(len(clients), lambda i: traced_client(
        requests, target, i, seconds * (OWN + OBS), first))
    after = target.stats()

    replies = [r for _, _, rs in traced for r in rs]
    fresh = [r for r in replies if not r["cached"]]
    visits = sum(r["stats"]["node_visits"] for r in fresh)
    fast = sum(r["stats"]["order_fastpath_hits"] for r in fresh)
    slow = sum(r["stats"]["order_dedup_passes"] for r in fresh)
    server = {key: after["server"][key] - before["server"][key]
              for key in ("rejected_total", "coalesced_total",
                          "timeouts_total")}
    untraced = merge(clients)
    base = {name: median([v for v in values if v is not None])
            for name, values in untraced["latency_ms"].items()}
    by_shape: dict[str, list] = defaultdict(list)
    for reply in replies:
        by_shape[reply["shape"]].append(reply["latency_ms"])
    metrics = {
        "engine.execute_ms": _mean(r["elapsed_ms"] for r in fresh),
        "xpath.node_visits": _mean(r["stats"]["node_visits"]
                                   for r in fresh),
        "xpath.document_scans": _mean(r["stats"]["total_scans"]
                                      for r in fresh),
        "xpath.visits_per_row": visits / max(1, sum(r["rows"]
                                                    for r in fresh)),
        "xpath.order_fastpath_rate": _rate(fast, slow),
        "index.probes": _mean(r["stats"]["total_probes"] for r in fresh),
        **hit_rates(before, after),
        "server.overhead_ms": median(
            [r["latency_ms"] - r["elapsed_ms"] for r in replies]),
        "server.rejected": server["rejected_total"],
        "server.coalesced": server["coalesced_total"],
        "server.timeouts": server["timeouts_total"],
        "obs.trace_overhead": geomean(
            [statistics.median(values) / base[shape]
             for shape, values in by_shape.items() if base.get(shape)]),
        # client spans tile the request by construction
        "obs.span_coverage": 1.0,
    }
    counted = merge(clients + [client for _, client, _ in traced])
    return metrics, {}, counted, [log for log, _, _ in traced]


def first_probe_ms(workload, target, seed) -> float:
    """serve-http, right after start: per shape, the first request
    (compiles, and builds the lazy indexes it probes) minus the median
    of that shape's other first-time texts (compile only)."""
    by_shape: dict[str, list] = defaultdict(list)
    for shape, text, _, _ in wl.oracle_texts(workload, seed):
        start = time.perf_counter()
        target.query(text, shape.label)
        by_shape[shape.name].append((time.perf_counter() - start) * 1e3)
    return sum(max(0.0, values[0] - statistics.median(values[1:]))
               for values in by_shape.values() if len(values) > 1)


# ----------------------------------------------------------------------
def run_traced(job: dict) -> dict:
    workload = wl.WORKLOADS[job["workload"]]
    seed, seconds = job["seed"], job["seconds"]
    docs_dir = pathlib.Path(job["docs"])
    setup_log = SpanLog()
    metrics = measure_xmldb(docs_dir, setup_log)
    _samples, target = set_up(workload, docs_dir, 1)
    try:
        first: dict = {}
        if workload.kind == "http":
            metrics["index.first_probe_ms"] = first_probe_ms(
                workload, target, seed)
        mix = UpdateMix(workload, target, seed) \
            if workload.kind == "update" else None
        outputs = warm_up(workload, target, seed, first, mix)
        if workload.kind == "http":
            layer, extras, counted, logs = trace_http(
                workload, target, seed, seconds, first)
        else:
            layer, extras, counted, logs = trace_in_process(
                workload, target, seed, seconds, first, mix)
        caches = target.stats()
    finally:
        target.close()
    metrics.update(layer)
    if job.get("trace_out"):
        write_chrome_trace(job["trace_out"], [setup_log] + logs,
                           TRACE_FILE_REQUESTS)
    del counted["clients"]      # block statistics are the timed run's
    counted.update({
        "layer_metrics": metrics, "extras": extras, "outputs": outputs,
        "checkpoints": [] if mix is None else mix.checkpoints,
        "caches": caches})
    return counted
