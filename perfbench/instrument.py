"""Span and counter probes at each layer's public entry points, and the
per-layer metrics computed from them.

:func:`install` wraps the entry points named in ``NOTES.md`` (layer
table) for the duration of a traced segment; :func:`layer_metrics`
turns the collected spans and counters into the ``per_layer`` metrics
of ``BENCHMARK.json``.  Metrics of layers a workload does not reach
read 0: the layer did no work there.
"""

from __future__ import annotations

from perfbench.tracing import Tracer, layer_totals, self_times

#: Span names whose summed self time forms one ``*.s`` metric.
SPAN_METRICS = {
    "minic.compile_c.s": ("minic.compile_c",),
    "sched.digest.function_digests.s": ("sched.digest.function_digests",),
    "sched.cache.get.s": ("sched.cache.get",),
    "sched.cache.put.s": ("sched.cache.put",),
    "clou.acfg.build_acfg.s": ("clou.acfg.build_acfg",),
    "clou.aeg.SAEG.s": ("clou.aeg.SAEG",),
    "clou.aeg.window.s": ("clou.aeg.window",),
    "analysis.interval.s": ("analysis.interval",),
    "clou.engine.run.s.pht": ("clou.engine.run.pht",),
    "clou.engine.run.s.stl": ("clou.engine.run.stl",),
    "solver.solve.s": ("solver.solve",),
    "serve.codec.s": ("serve.codec.to_dict", "serve.codec.from_dict",
                      "serve.codec.encode", "serve.codec.decode"),
    "ir.interp.call.s": ("ir.interp.call",),
    "fuzz.lowering.lower_function.s": ("fuzz.lowering.lower_function",),
    "fuzz.conformance.check_conformance.s": (
        "fuzz.conformance.check_conformance",),
    "lcm.analyze.s": ("lcm.analyze",),
}

#: Span names whose call count forms one ``*.calls`` metric.
CALL_METRICS = {
    "minic.compile_c.calls": "minic.compile_c",
    "clou.aeg.window.calls": "clou.aeg.window",
    "ir.interp.calls": "ir.interp.call",
}

#: Counters reported as they are.
COUNTER_METRICS = (
    "minic.ir_instructions", "clou.acfg.instructions", "clou.aeg.nodes",
    "clou.engine.candidates", "clou.engine.pruned", "clou.engine.witnesses",
    "solver.queries", "solver.conflicts", "solver.propagations",
    "solver.unknowns", "lcm.xstate.concrete_access.calls",
    "fuzz.conformance.pairs", "fuzz.conformance.vectors", "lcm.reports",
    "sched.cache.corrupt",
)

#: Metrics a workload module fills in from its own measurements.
WORKLOAD_METRICS = (
    "sched.scheduler.work_s", "sched.scheduler.busy_share",
    "sched.scheduler.parallel_inflation", "serve.queue_wait_ms",
    "serve.served", "serve.busy_rejected", "serve.deadline_dropped",
    "loadgen.late_p90_ms", "litmus.label_mismatches",
    "trace.overhead_share",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (undo with
    ``tracer.restore()``)."""
    import repro.minic
    from repro.analysis.interval import IntervalAnalysis
    from repro.clou import acfg
    from repro.clou.aeg import SAEG
    from repro.clou.engine import DetectionEngine
    from repro.fuzz import conformance, lowering
    from repro.ir.interp import Interpreter
    from repro.lcm.contracts import LeakageContainmentModel
    from repro.lcm.xstate import DirectMappedPolicy
    from repro.sched import AnalysisRequest, AnalysisResult, ClouSession
    from repro.sched import digest, worker
    from repro.sched.cache import ResultCache
    from repro.serve import ClouClient, protocol
    from repro.solver.sat import SatSolver

    count = tracer.count

    def compiled(module, args, kwargs):
        count("minic.ir_instructions", sum(
            function.instruction_count()
            for function in module.functions.values()))

    tracer.patch_function(repro.minic, "compile_c", lambda f: tracer.wrap(
        f, "minic.compile_c", compiled))
    tracer.patch_function(digest, "function_digests", lambda f: tracer.wrap(
        f, "sched.digest.function_digests"))

    def probed(value, args, kwargs):
        count("sched.cache.gets")
        if value is not None:
            count("sched.cache.hits")

    tracer.patch_method(ResultCache, "get", tracer.wrap(
        ResultCache.get, "sched.cache.get", probed))
    tracer.patch_method(ResultCache, "put", tracer.wrap(
        ResultCache.put, "sched.cache.put"))
    tracer.patch_function(worker, "module_for", lambda f: tracer.wrap(
        f, "sched.worker.module_for"))
    tracer.patch_method(ClouSession, "run", tracer.wrap(
        ClouSession.run, "sched.session.run",
        lambda results, a, k: count("sched.cache.corrupt", sum(
            result.stats.cache_corrupt for result in results))))

    tracer.patch_function(acfg, "build_acfg", lambda f: tracer.wrap(
        f, "clou.acfg.build_acfg",
        lambda result, a, k: count("clou.acfg.instructions",
                                   result.instruction_count)))
    tracer.patch_method(SAEG, "__init__", tracer.wrap(
        SAEG.__init__, "clou.aeg.SAEG",
        lambda result, args, k: count("clou.aeg.nodes", args[0].size)))
    tracer.patch_method(SAEG, "window", tracer.wrap(
        SAEG.window, "clou.aeg.window"))
    tracer.patch_method(IntervalAnalysis, "__init__", tracer.wrap(
        IntervalAnalysis.__init__, "analysis.interval"))
    tracer.patch_method(IntervalAnalysis, "access_in_bounds", tracer.wrap(
        IntervalAnalysis.access_in_bounds, "analysis.interval"))

    def searched(report, args, kwargs):
        count("clou.engine.candidates", report.candidates)
        count("clou.engine.pruned", report.pruned)
        count("clou.engine.witnesses", len(report.witnesses))
        sat = report.sat_stats or {}
        for key in ("queries", "conflicts", "propagations", "unknowns",
                    "memo_hits", "memo_misses"):
            count(f"solver.{key}", sat.get(key, 0))

    tracer.patch_method(DetectionEngine, "run", tracer.wrap(
        DetectionEngine.run, lambda args: f"clou.engine.run.{args[0].name}",
        searched))
    tracer.patch_method(SatSolver, "solve", tracer.wrap(
        SatSolver.solve, "solver.solve"))

    def encoded(data, args, kwargs):
        result = args[0].get("result")
        if isinstance(result, dict) and "report" in result:
            count("serve.analyze_responses")
            count("serve.response_bytes_total", len(data))

    tracer.patch_function(protocol, "encode", lambda f: tracer.wrap(
        f, "serve.codec.encode", encoded))
    tracer.patch_function(protocol, "decode_line", lambda f: tracer.wrap(
        f, "serve.codec.decode"))
    tracer.patch_method(AnalysisResult, "to_dict", tracer.wrap(
        AnalysisResult.to_dict, "serve.codec.to_dict"))
    tracer.patch_method(AnalysisResult, "from_dict", classmethod(tracer.wrap(
        AnalysisResult.__dict__["from_dict"].__func__,
        "serve.codec.from_dict")))
    tracer.patch_method(ClouClient, "analyze", tracer.wrap(
        ClouClient.analyze, "serve.client.analyze"))
    _link_requests(tracer, protocol, AnalysisRequest)

    tracer.patch_method(Interpreter, "call", tracer.wrap(
        Interpreter.call, "ir.interp.call"))
    tracer.patch_method(DirectMappedPolicy, "concrete_access", tracer.hook(
        DirectMappedPolicy.concrete_access,
        lambda r, a, k: count("lcm.xstate.concrete_access.calls")))
    tracer.patch_function(lowering, "lower_function", lambda f: tracer.wrap(
        f, "fuzz.lowering.lower_function"))

    def checked(result, args, kwargs):
        count("fuzz.conformance.pairs", result.pairs_checked)
        count("fuzz.conformance.vectors", result.vectors_run)

    tracer.patch_function(conformance, "check_conformance",
                          lambda f: tracer.wrap(
                              f, "fuzz.conformance.check_conformance",
                              checked))
    tracer.patch_method(LeakageContainmentModel, "analyze", tracer.wrap(
        LeakageContainmentModel.analyze, "lcm.analyze",
        lambda result, a, k: count("lcm.reports", len(result.reports))))


def _link_requests(tracer: Tracer, protocol, request_class) -> None:
    """Carry a client request's id and span across the socket to the
    daemon thread that serves it, through public protocol calls only:
    the client's envelope (tenant, id) names the request at
    ``make_request``; the server's ``parse_request`` maps the payload
    dict to it; ``AnalysisRequest.from_dict`` on that exact dict makes
    the serving thread adopt the request."""
    sent: dict = {}
    received: dict = {}

    def made(envelope, args, kwargs):
        request, span = tracer.current()
        if request is not None:
            sent[(envelope.get("tenant"), envelope.get("id"))] = (request,
                                                                  span)

    def parsed(parsed_request, args, kwargs):
        key = (parsed_request.tenant, parsed_request.id)
        if parsed_request.payload is not None and key in sent:
            received[id(parsed_request.payload)] = sent.pop(key)

    def rebuilt(result, args, kwargs):
        link = received.pop(id(args[-1]), None)
        if link is not None:
            tracer.adopt(*link)

    tracer.patch_function(protocol, "make_request",
                          lambda f: tracer.hook(f, made))
    tracer.patch_function(protocol, "parse_request",
                          lambda f: tracer.hook(f, parsed))
    function = request_class.__dict__["from_dict"].__func__
    tracer.patch_method(request_class, "from_dict",
                        classmethod(tracer.hook(function, rebuilt)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, memo: dict, extra: dict) -> dict:
    """Every per-layer metric.  ``memo`` holds the S-AEG memo hit/miss
    deltas over the traced segment; ``extra`` the workload-measured
    values of :data:`WORKLOAD_METRICS` (missing ones read 0)."""
    spans = tracer.spans
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for metric, names in SPAN_METRICS.items():
        out[metric] = sum(totals.get(name, {}).get("self", 0.0)
                          for name in names)
    for metric, name in CALL_METRICS.items():
        out[metric] = float(totals.get(name, {}).get("calls", 0))
    counters = tracer.counters
    for metric in COUNTER_METRICS:
        out[metric] = float(counters.get(metric, 0.0))
    out["sched.cache.hit_ratio"] = _ratio(counters.get("sched.cache.hits", 0),
                                          counters.get("sched.cache.gets", 0))
    out["solver.memo_hit_ratio"] = _ratio(
        counters.get("solver.memo_hits", 0),
        counters.get("solver.memo_hits", 0)
        + counters.get("solver.memo_misses", 0))
    out["serve.response_bytes"] = _ratio(
        counters.get("serve.response_bytes_total", 0),
        counters.get("serve.analyze_responses", 0))
    out["sched.worker.saeg_memo.hit_ratio"] = _ratio(
        memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0))
    out["sched.worker.module_memo.hit_ratio"] = module_memo_hit_ratio(spans)
    for metric in WORKLOAD_METRICS:
        out[metric] = float(extra.get(metric, 0.0))
    out["trace.spans"] = float(len(spans))
    out["trace.failures"] = float(sum(tracer.failures.values()))
    return out


def module_memo_hit_ratio(spans) -> float:
    """A ``module_for`` call that compiled nothing was a memo hit."""
    compiled = {span.parent for span in spans
                if span.name == "minic.compile_c"}
    lookups = [span for span in spans
               if span.name == "sched.worker.module_for"]
    hits = sum(1 for span in lookups if span.sid not in compiled)
    return _ratio(hits, len(lookups))


def self_exceeds_total(spans) -> list[str]:
    """Span names whose summed self time exceeds their summed span
    time (never, unless the self-time arithmetic is wrong)."""
    return [name for name, entry in layer_totals(spans).items()
            if entry["self"] > entry["total"] + 1e-9]


def codec_seconds_by_request(spans) -> dict:
    """Summed codec self time per request id."""
    own = self_times(spans)
    out: dict = {}
    for span in spans:
        if span.name.startswith("serve.codec.") and span.request is not None:
            out[span.request] = out.get(span.request, 0.0) + own[span.sid]
    return out

