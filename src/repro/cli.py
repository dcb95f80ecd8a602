"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``  Evaluate JW/BK/BTT/HATT on a benchmark Hamiltonian and print a
             Table-I-style row set (``--json`` for machine-readable output).
``map``      Compile one mapping and optionally save it to JSON.
``compile``  Route a single-Trotter-step circuit onto hardware coupling
             graphs and print a Table-IV-style row set (routed CNOT / SWAP /
             depth per mapping kind × architecture).
``batch``    Compile a suite of cases × mappings through the compilation
             service (fingerprint dedup, process-pool fan-out, shared cache).
``serve``    Run the async compilation-service HTTP API (job queue, request
             coalescing, LRU-capped caches).
``cache``    Inspect or clear the content-addressed artifact cache, per
             namespace (``mappings`` / ``circuits``).
``cases``    List the registered Hamiltonian sources and built-in cases
             (``--json`` enumerates the full spec-grammar catalog).

Conventions
-----------
* **JSON envelope** — every ``--json`` path emits the same versioned wrapper
  the HTTP API speaks: ``{"schema": "repro/v1", "command": ..., "result":
  ...}`` (see :mod:`repro.serve.schema`).
* **Engines** — there is no engine flag: every command runs the one fast
  kernel per stage.  The scalar reference engines live in
  ``tests/reference/`` as test oracles and are not part of the package (the
  ``--backend`` / ``--hatt-backend`` / ``--router-backend`` flags were
  removed in repro 1.1, the library's ``backend=`` parameters in 1.8).
* **Cases** — every ``case`` argument is a Hamiltonian source spec resolved
  through the :mod:`repro.sources` registry: built-in generators
  (``hubbard:2x3``, ``neutrino:3x2F``, electronic names), files
  (``npz:path``, ``fcidump:path``), or synthetic ensembles
  (``random:syk:n=24,seed=7``).  ``repro cases`` prints the grammar.
* **Caching** — ``map``/``compare``/``compile`` use the compilation cache
  when ``--cache-dir`` is given or ``$REPRO_CACHE_DIR`` is set (opt-in, so
  ad-hoc runs leave no state behind); ``batch``/``serve``/``cache`` default
  to the standard cache directory (``~/.cache/repro-hatt``).  ``--no-cache``
  always wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .analysis import compare_mappings, format_table
from .mappings.io import save_mapping
from .serve.schema import envelope
from .sources import build_case, source_catalog
from .service import (
    MAPPING_KINDS,
    ArtifactStore,
    MappingService,
    MappingSpec,
    compile_suite,
    default_cache_dir,
)
from .service.store import NAMESPACES

__all__ = ["main"]


def _emit_json(command: str, result, **extra) -> None:
    """Print one versioned envelope — the only JSON emitter in the CLI."""
    print(json.dumps(envelope(command, result, **extra), indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Shared parent parsers (defined once, inherited by every subcommand)
# ----------------------------------------------------------------------
def _json_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true",
                   help="emit a versioned JSON envelope "
                        '({"schema": "repro/v1", ...}) instead of text')
    return p


def _cache_parent(opt_in: bool) -> argparse.ArgumentParser:
    default_hint = (
        "default: no cache unless $REPRO_CACHE_DIR is set"
        if opt_in
        else f"default: {default_cache_dir()}"
    )
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--cache-dir", metavar="DIR",
                   help=f"compilation-cache directory ({default_hint})")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the compilation cache entirely")
    return p


def _jobs_parent(help_text: str = "compile with N worker processes (cache-backed; "
                                  "ignored without an enabled cache)"
                 ) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", type=int, default=1, metavar="N", help=help_text)
    return p


def _arch_parent() -> argparse.ArgumentParser:
    """--arch/--arch-weight for the hatt-arch construction kind."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--arch", default=None, metavar="NAME",
                   help="coupling graph for hatt-arch construction "
                        "(manhattan, montreal, sycamore, ionq_forte)")
    p.add_argument("--arch-weight", type=float, default=None, metavar="W",
                   help="hatt-arch distance-penalty blend (>= 0; "
                        "default: the construction default)")
    return p


def _resolve_cache_dir(args: argparse.Namespace, opt_in: bool) -> str | None:
    """The cache root for this invocation, or ``None`` when caching is off."""
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    if os.environ.get("REPRO_CACHE_DIR"):
        return os.environ["REPRO_CACHE_DIR"]
    return None if opt_in else str(default_cache_dir())


def _make_service(cache_dir: str | None) -> MappingService | None:
    return MappingService(cache_dir=cache_dir) if cache_dir is not None else None


def _prewarm(args: argparse.Namespace, cache_dir: str | None,
             cases: list[str], kinds: list[str],
             arch: str | None = None, arch_weight: float | None = None) -> None:
    """Fan the compiles of an impending serial step across worker processes."""
    if args.jobs > 1 and cache_dir is not None:
        compile_suite(cases, kinds, jobs=args.jobs, cache_dir=cache_dir,
                      evaluate=False, arch=arch, arch_weight=arch_weight)


def _check_arch_flags(prog: str, args: argparse.Namespace,
                      wants_arch: bool) -> str | None:
    """Validate the --arch/--arch-weight pairing; returns an error or None.

    ``wants_arch`` — whether any requested mapping kind is ``hatt-arch``
    (the only kind these flags configure).
    """
    from .compile import ARCHITECTURES

    arch = getattr(args, "arch", None)
    if wants_arch and arch is None:
        return f"{prog}: error: hatt-arch needs --arch (one of " \
               f"{', '.join(ARCHITECTURES)})"
    if arch is not None and arch not in ARCHITECTURES:
        return f"{prog}: error: unknown --arch {arch!r} " \
               f"(choose from {', '.join(ARCHITECTURES)})"
    if args.arch_weight is not None and not wants_arch:
        return f"{prog}: error: --arch-weight only applies to hatt-arch"
    return None


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.pipeline import COMPARE_KINDS

    error = _check_arch_flags("repro compare", args,
                              wants_arch=args.arch is not None)
    if error:
        print(error, file=sys.stderr)
        return 2
    h = build_case(args.case)
    n = h.n_modes
    cache_dir = _resolve_cache_dir(args, opt_in=True)
    kinds = list(COMPARE_KINDS.values()) + (["hatt-unopt"] if args.unopt else [])
    if args.arch is not None:
        kinds.append("hatt-arch")
    _prewarm(args, cache_dir, [args.case], kinds,
             arch=args.arch, arch_weight=args.arch_weight)
    service = _make_service(cache_dir)
    reports = compare_mappings(
        h,
        n,
        compile_circuit=not args.no_circuit,
        include_unopt=args.unopt,
        service=service,
        arch=args.arch,
        arch_weight=args.arch_weight,
    )
    if args.json:
        result = {
            "case": args.case,
            "n_modes": n,
            "reports": {name: r.to_dict() for name, r in reports.items()},
        }
        if service is not None:
            result["cache"] = service.stats()
        _emit_json("compare", result)
        return 0
    rows = [r.row() for r in reports.values()]
    print(format_table(
        f"{args.case} ({n} modes)",
        ["mapping", "Pauli weight", "CNOT", "depth"],
        rows,
    ))
    return 0


# ----------------------------------------------------------------------
# map
# ----------------------------------------------------------------------
def _cmd_map(args: argparse.Namespace) -> int:
    is_arch = args.mapping == "hatt-arch"
    error = _check_arch_flags("repro map", args, wants_arch=is_arch)
    if error is None and not is_arch and args.arch is not None:
        error = "repro map: error: --arch only applies to --mapping hatt-arch"
    if error:
        print(error, file=sys.stderr)
        return 2
    h = build_case(args.case)
    n = h.n_modes
    spec = MappingSpec(
        kind=args.mapping,
        n_modes=n,
        arch=args.arch if is_arch else None,
        arch_weight=args.arch_weight if is_arch else None,
    )
    service = _make_service(_resolve_cache_dir(args, opt_in=True))
    fingerprint = source = None
    if service is not None:
        result = service.get_or_compile(h, spec)
        mapping, weight = result.mapping, result.pauli_weight(h)
        fingerprint, source = result.fingerprint, result.source
        cache_note = f" [{source}, key {fingerprint[:12]}]"
    else:
        from .service import compile_mapping

        mapping = compile_mapping(h, spec)
        weight = int(mapping.map(h).pauli_weight())
        cache_note = ""
    if args.output:
        save_mapping(mapping, args.output)
    if args.json:
        _emit_json("map", {
            "case": args.case,
            "kind": args.mapping,
            "mapping": mapping.name,
            "n_modes": n,
            "n_qubits": mapping.n_qubits,
            "pauli_weight": weight,
            "preserves_vacuum": bool(mapping.preserves_vacuum()),
            "fingerprint": fingerprint,
            "source": source,
            "saved_to": args.output,
        })
        return 0
    print(f"{mapping.name} mapping for {args.case}: {n} modes, "
          f"Pauli weight {weight}, vacuum preserved: "
          f"{mapping.preserves_vacuum()}{cache_note}")
    if args.output:
        print(f"saved to {args.output}")
    if args.show_strings:
        for i, s in enumerate(mapping.strings):
            print(f"  M_{i} -> {s}")
    return 0


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
def _cmd_compile(args: argparse.Namespace) -> int:
    from .compile import ARCHITECTURES, CompilationPipeline, CompileOptions

    if args.arch == "all":
        archs = ARCHITECTURES
    elif args.arch in ARCHITECTURES:
        archs = (args.arch,)
    else:
        print(
            f"repro compile: error: unknown --arch {args.arch!r} "
            f"(choose from {', '.join(ARCHITECTURES)} or 'all')",
            file=sys.stderr,
        )
        return 2
    kinds = tuple(k.strip() for k in args.mappings.split(",") if k.strip())
    bad = [k for k in kinds if k not in MAPPING_KINDS]
    if bad or not kinds:
        print(
            f"repro compile: error: invalid --mappings {args.mappings!r} "
            f"(choose from {','.join(MAPPING_KINDS)})",
            file=sys.stderr,
        )
        return 2
    if args.arch_weight is not None and "hatt-arch" not in kinds:
        print("repro compile: error: --arch-weight only applies when "
              "--mappings includes hatt-arch", file=sys.stderr)
        return 2
    opt_kwargs = {"term_order": args.order}
    if args.lookahead is not None:
        opt_kwargs["lookahead"] = args.lookahead
    try:
        options = CompileOptions(**opt_kwargs)
    except ValueError as exc:
        print(f"repro compile: error: {exc}", file=sys.stderr)
        return 2
    h = build_case(args.case)
    cache_dir = _resolve_cache_dir(args, opt_in=True)
    # hatt-arch mappings are per-architecture; the mapping prewarm can only
    # target one graph, so it covers that kind only on single-arch runs
    # (the sweep itself fills the cache for the rest).
    prewarm_kinds = [k for k in kinds if k != "hatt-arch" or len(archs) == 1]
    _prewarm(args, cache_dir, [args.case], prewarm_kinds,
             arch=archs[0] if len(archs) == 1 else None,
             arch_weight=args.arch_weight)
    service = _make_service(cache_dir)
    pipeline = CompilationPipeline(
        service=service,
        options=options,
        arch_weight=args.arch_weight,
    )
    from .obs.trace import TraceContext, activate

    trace_ctx = TraceContext()
    sweep_started = time.perf_counter()
    with activate(trace_ctx):
        report = pipeline.sweep(h, kinds=kinds, architectures=archs, case=args.case)
    sweep_wall = time.perf_counter() - sweep_started
    if args.json:
        result = report.to_dict()
        result["pipeline"] = dict(pipeline.stats)
        result["timings"] = trace_ctx.summary()
        result["timings"]["wall_seconds"] = round(sweep_wall, 6)
        result["trace"] = trace_ctx.to_dict()
        result["trace_id"] = trace_ctx.trace_id
        if service is not None:
            result["cache"] = service.stats()
        _emit_json("compile", result)
        return 0
    print(report.table())
    if service is not None:
        hits, routed = pipeline.stats["circuit_hits"], pipeline.stats["routed"]
        print(f"[circuit cache: {hits} hits, {routed} routed]", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
def _cmd_batch(args: argparse.Namespace) -> int:
    kinds = [k.strip() for k in args.mappings.split(",") if k.strip()]
    bad = [k for k in kinds if k not in MAPPING_KINDS]
    if bad or not kinds:
        print(
            f"repro batch: error: invalid --mappings {args.mappings!r} "
            f"(choose from {','.join(MAPPING_KINDS)})",
            file=sys.stderr,
        )
        return 2
    error = _check_arch_flags("repro batch", args,
                              wants_arch="hatt-arch" in kinds)
    if error:
        print(error, file=sys.stderr)
        return 2
    cache_dir = _resolve_cache_dir(args, opt_in=False)
    progress = None
    if not args.json:
        def progress(t):  # noqa: E306
            status = t.source if t.ok else f"error: {t.error}"
            print(f"  {t.case} × {t.kind}: {status}", file=sys.stderr)

    report = compile_suite(
        args.cases,
        kinds,
        jobs=args.jobs,
        cache_dir=cache_dir,
        use_cache=cache_dir is not None,
        evaluate=not args.no_eval,
        progress=progress,
        arch=args.arch,
        arch_weight=args.arch_weight,
    )
    content = (
        json.dumps(envelope("batch", report.to_dict()), indent=2, sort_keys=True)
        if args.json
        else report.table()
    )
    print(content)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(content + "\n")
    return 1 if report.n_errors else 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.logging import configure_logging, set_slow_compile_threshold
    from .serve import EXECUTORS, JobQueue, RetryPolicy, run_server

    configure_logging(fmt=args.log_format, level=args.log_level)
    if args.slow_compile_threshold is not None:
        set_slow_compile_threshold(args.slow_compile_threshold)
    if args.executor not in EXECUTORS:
        print(
            f"repro serve: error: unknown --executor {args.executor!r} "
            f"(choose from {', '.join(EXECUTORS)})",
            file=sys.stderr,
        )
        return 2
    cache_dir = _resolve_cache_dir(args, opt_in=False)
    service_kwargs: dict = {
        "cache_dir": cache_dir,
        "use_disk": cache_dir is not None,
        "max_bytes": args.max_bytes,
    }
    if args.memory_capacity is not None:
        service_kwargs["memory_capacity"] = args.memory_capacity
    service = MappingService(**service_kwargs)
    queue = JobQueue(
        service=service,
        workers=args.jobs,
        executor=args.executor,
        job_timeout=args.job_timeout,
        max_pending=args.max_pending or None,
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
    )

    def ready(server) -> None:
        cache_note = cache_dir if cache_dir is not None else "disabled"
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(executor={args.executor}, workers={queue.workers}, "
            f"cache={cache_note})",
            file=sys.stderr,
        )

    try:
        run_server(
            queue,
            host=args.host,
            port=args.port,
            ready=ready,
            drain_timeout=args.drain_timeout,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        # cancel_futures settles every still-queued job as cancelled before
        # stopping the pool, so no ``?wait=1`` client is left hanging on a
        # Ctrl-C (run_server's drain normally did this already; after a
        # drain this is an idempotent no-op).
        queue.shutdown(wait=False, cancel_futures=True)
    return 0


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _cache_namespaces(args: argparse.Namespace) -> tuple[str, ...]:
    return NAMESPACES if args.namespace is None else (args.namespace,)


def _cache_list_entry(store: ArtifactStore, namespace: str, entry: dict) -> dict:
    """One inventory row: store accounting + a peek into the document."""
    fp = entry["fingerprint"]
    out = {
        "namespace": namespace,
        "fingerprint": fp,
        "bytes": entry["bytes"],
        "mtime": entry["mtime"],
    }
    if namespace == "mappings":
        prov = store.provenance(fp) or {}
        out.update(
            kind=prov.get("kind", "?"),
            n_modes=prov.get("n_modes", "?"),
            compile_seconds=prov.get("compile_seconds", "?"),
            created_at=prov.get("created_at", "?"),
        )
    else:
        doc = store.get_circuit_report(fp) or {}
        out.update(
            kind=doc.get("kind", "?"),
            architecture=doc.get("architecture", "?"),
            routed_cx=doc.get("routed_cx", "?"),
        )
    return out


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args, opt_in=False)
    if cache_dir is None:
        print("cache disabled (--no-cache)", file=sys.stderr)
        return 2
    store = ArtifactStore(cache_dir)
    namespaces = _cache_namespaces(args)
    if args.cache_command == "stats":
        stats = store.stats()
        stats["namespaces"] = {
            ns: stats["namespaces"][ns] for ns in namespaces
        }
        if args.json:
            from .obs.metrics import get_registry

            stats["metrics"] = get_registry().snapshot()
            _emit_json("cache.stats", stats)
            return 0
        print(f"cache root:  {stats['root']}")
        for ns in namespaces:
            s = stats["namespaces"][ns]
            cap = s["max_bytes"] if s["max_bytes"] is not None else "unbounded"
            print(f"{ns + ':':<12} {s['entries']} entries, {s['bytes']} bytes "
                  f"(cap: {cap}, evictions: {s['evictions']})")
        print(f"total bytes: {sum(s['bytes'] for s in stats['namespaces'].values())}")
        return 0
    if args.cache_command == "list":
        entries = [
            _cache_list_entry(store, ns, e)
            for ns in namespaces
            for e in store.entries(ns)
        ]
        if args.json:
            _emit_json("cache.list", entries)
            return 0
        for ns in namespaces:
            ns_entries = [e for e in entries if e["namespace"] == ns]
            if ns == "mappings":
                headers = ["fingerprint", "kind", "modes", "compile s", "created"]
                rows = [[e["fingerprint"][:16], e["kind"], e["n_modes"],
                         e["compile_seconds"], e["created_at"]] for e in ns_entries]
            else:
                headers = ["fingerprint", "kind", "architecture", "routed CX", "bytes"]
                rows = [[e["fingerprint"][:16], e["kind"], e["architecture"],
                         e["routed_cx"], e["bytes"]] for e in ns_entries]
            print(format_table(
                f"{store.root}/{ns} ({len(ns_entries)} entries, LRU first)",
                headers,
                rows,
            ))
        return 0
    # clear
    removed = {ns: store.clear(ns) for ns in namespaces}
    if args.json:
        _emit_json("cache.clear", {"root": str(store.root), "removed": removed})
        return 0
    scope = ", ".join(f"{n} {ns}" for ns, n in removed.items())
    print(f"removed {scope} entries from {store.root}")
    return 0


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def _cmd_cases(args: argparse.Namespace) -> int:
    from .models.electronic import electronic_case_names

    catalog = source_catalog()
    if args.json:
        _emit_json("cases", {
            # Registered HamiltonianSource families (prefix, grammar,
            # examples, file_backed) — the authoritative spec listing.
            "sources": catalog,
            "electronic": electronic_case_names(),
            # Legacy per-family keys, kept for consumers of the old shape.
            "hubbard": {"pattern": "hubbard:<AxB>",
                        "examples": ["hubbard:2x2", "hubbard:2x3", "hubbard:3x3"]},
            "neutrino": {"pattern": "neutrino:<NxFF>",
                         "examples": ["neutrino:2x2F", "neutrino:3x2F"]},
            "mappings": list(MAPPING_KINDS),
        })
        return 0
    print(format_table(
        "registered Hamiltonian sources (spec grammar)",
        ["prefix", "grammar", "file-backed", "description"],
        [[s["prefix"], s["grammar"], "yes" if s["file_backed"] else "no",
          s["description"]] for s in catalog],
    ))
    print("electronic case names:", ", ".join(electronic_case_names()))
    examples = [ex for s in catalog for ex in s["examples"]]
    print("examples:", ", ".join(examples))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HATT fermion-to-qubit mapping toolkit (HPCA 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_parent = _json_parent()
    cache_opt_in = _cache_parent(opt_in=True)
    cache_default = _cache_parent(opt_in=False)
    arch_parent = _arch_parent()
    jobs_parent = _jobs_parent()

    p_compare = sub.add_parser(
        "compare", help="evaluate all mappings on a case",
        parents=[json_parent, cache_opt_in, jobs_parent, arch_parent],
    )
    p_compare.add_argument("case", help="e.g. H2_sto3g, hubbard:2x3, neutrino:3x2F")
    p_compare.add_argument("--no-circuit", action="store_true",
                           help="skip circuit synthesis (Pauli weight only)")
    p_compare.add_argument("--unopt", action="store_true",
                           help="include HATT without vacuum pairing")
    p_compare.set_defaults(func=_cmd_compare)

    p_map = sub.add_parser(
        "map", help="compile one mapping",
        parents=[json_parent, cache_opt_in, arch_parent],
    )
    p_map.add_argument("case")
    p_map.add_argument("--mapping", choices=sorted(MAPPING_KINDS),
                       default="hatt")
    p_map.add_argument("--output", help="save mapping JSON here")
    p_map.add_argument("--show-strings", action="store_true")
    p_map.set_defaults(func=_cmd_map)

    p_compile = sub.add_parser(
        "compile",
        help="route a Trotter step onto hardware architectures (Table IV)",
        parents=[json_parent, cache_opt_in, jobs_parent],
    )
    p_compile.add_argument("case", help="e.g. H2_sto3g, hubbard:2x3")
    p_compile.add_argument("--arch", default="all", metavar="NAME",
                           help="architecture (manhattan, montreal, sycamore, "
                                "ionq_forte) or 'all' (default)")
    p_compile.add_argument("--mappings", default="jw,bk,btt,hatt", metavar="K1,K2",
                           help=f"comma-separated kinds from {','.join(MAPPING_KINDS)}")
    p_compile.add_argument("--order", choices=("mutual", "lexicographic"),
                           default="mutual",
                           help="Pauli-term ordering pass (mutual-support "
                                "aligned ladders cut CNOTs; default)")
    p_compile.add_argument("--lookahead", type=int, default=None,
                           metavar="N", help="router lookahead horizon "
                           "(default: the router's deep-window default)")
    p_compile.add_argument("--arch-weight", type=float, default=None, metavar="W",
                           help="hatt-arch distance-penalty blend (>= 0; only "
                                "with --mappings including hatt-arch)")
    p_compile.set_defaults(func=_cmd_compile)

    p_batch = sub.add_parser(
        "batch",
        help="compile a suite of cases × mappings through the service",
        parents=[json_parent, cache_default, jobs_parent, arch_parent],
    )
    p_batch.add_argument("cases", nargs="+",
                         help="case specs (see `repro cases`)")
    p_batch.add_argument("--mappings", default="hatt", metavar="K1,K2",
                         help=f"comma-separated kinds from {','.join(MAPPING_KINDS)} "
                              "(default: hatt)")
    p_batch.add_argument("--no-eval", action="store_true",
                         help="skip per-task Pauli-weight evaluation")
    p_batch.add_argument("--output", metavar="FILE",
                         help="also write the report here")
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the compilation-service HTTP API",
        parents=[cache_default,
                 _jobs_parent("executor width: N worker threads or "
                              "processes (default: 1)")],
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8035,
                         help="bind port; 0 picks a free port (default: 8035)")
    p_serve.add_argument("--executor", default="thread", metavar="KIND",
                         help="job executor: 'thread' (shared memory LRU, "
                              "default) or 'process' (fork pool over the "
                              "shared disk store)")
    p_serve.add_argument("--memory-capacity", type=int, default=None, metavar="N",
                         help="memory-LRU capacity per namespace (mappings, "
                              "routed circuits; default: the service default)")
    p_serve.add_argument("--max-bytes", type=int, default=None, metavar="BYTES",
                         help="disk LRU cap applied to each artifact namespace "
                              "(default: unbounded)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-attempt execution deadline for every job; "
                              "requests may set a 'deadline' of their own "
                              "(default: no limit)")
    p_serve.add_argument("--max-pending", type=int, default=256, metavar="N",
                         help="load-shedding cap on live (queued+running) "
                              "jobs; past it cold submissions get 503 + "
                              "Retry-After; 0 disables (default: 256)")
    p_serve.add_argument("--retries", type=int, default=3, metavar="N",
                         help="max attempts per job for retryable failures "
                              "(worker crash, transient store I/O); 1 "
                              "disables retry (default: 3)")
    p_serve.add_argument("--log-format", choices=("text", "json"),
                         default="text",
                         help="log output format (json = one JSON object "
                              "per line, with trace_id fields)")
    p_serve.add_argument("--log-level", default="info", metavar="LEVEL",
                         choices=("debug", "info", "warning", "error"),
                         help="log verbosity (default: info)")
    p_serve.add_argument("--slow-compile-threshold", type=float, default=None,
                         metavar="SECONDS",
                         help="warn (with trace_id) when a compile exceeds "
                              "this many seconds (default: "
                              "$REPRO_SLOW_COMPILE_SECONDS or 30)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="graceful-shutdown budget: on SIGTERM/SIGINT "
                              "in-flight jobs get this long to settle before "
                              "being cancelled (default: 30)")
    p_serve.set_defaults(func=_cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the artifact cache",
        parents=[json_parent, cache_default],
    )
    p_cache.add_argument("cache_command", choices=["stats", "list", "clear"])
    p_cache.add_argument("--namespace", choices=list(NAMESPACES), default=None,
                         help="restrict to one artifact namespace "
                              "(default: all namespaces)")
    p_cache.set_defaults(func=_cmd_cache)

    p_cases = sub.add_parser(
        "cases", help="list built-in benchmark cases", parents=[json_parent],
    )
    p_cases.set_defaults(func=_cmd_cases)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
