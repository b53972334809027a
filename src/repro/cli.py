"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands:

``eval``       evaluate a KOLA query against a generated database
``optimize``   run the full optimizer on OQL text or a KOLA query
``run``        optimize *and execute* a query on a chosen backend
               (compiled codegen kernels by default), reporting
               measured vs. estimated cost
``optimize-batch``  optimize a generated query corpus over a worker
               pool (see :mod:`repro.parallel.batch`)
``fuzz``       generate random well-typed queries and differentially
               check every optimizer configuration against direct
               evaluation (see :mod:`repro.fuzz`)
``untangle``   run the five-step hidden-join strategy, printing the
               derivation
``verify``     check a rule (given as ``lhs == rhs``) with the
               Larch-substitute model checker
``prove``      search for an equational proof of ``lhs == rhs`` from the
               standard rule pool
``rules``      list the rule pool (optionally one group)
``rulepack``   check, list or load declarative ``.kpack`` rule packs
               through the three-stage admission gate
               (see :mod:`repro.rulepacks`)

Examples::

    python -m repro.cli eval "iterate(Kp(T), city o addr) ! P"
    python -m repro.cli optimize "select p.age from p in P where p.age > 25"
    python -m repro.cli untangle --paper-garage
    python -m repro.cli verify "iterate(\\$p, id) o iterate(\\$q, id)" \\
        "iterate(\\$q, id) o iterate(\\$p, id)"
    python -m repro.cli rules --group fig8
    python -m repro.cli rulepack check --standard --report gate.json
    python -m repro.cli rulepack check my-rules.kpack --trials 200
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import KolaError, VerificationError
from repro.core.eval import eval_obj
from repro.core.parser import parse_fun, parse_obj, parse_pred
from repro.core.pretty import pretty, pretty_multiline
from repro.core.terms import Sort
from repro.core.values import value_repr


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="KOLA: combinator query algebra and rule language "
                    "(SIGMOD '96 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    eval_cmd = sub.add_parser("eval", help="evaluate a KOLA query")
    eval_cmd.add_argument("query", help="query text, e.g. "
                          "'iterate(Kp(T), age) ! P'")
    eval_cmd.add_argument("--persons", type=int, default=40)
    eval_cmd.add_argument("--vehicles", type=int, default=25)
    eval_cmd.add_argument("--seed", type=int, default=2026)

    opt_cmd = sub.add_parser("optimize", help="optimize OQL or KOLA text")
    opt_cmd.add_argument("query")
    opt_cmd.add_argument("--kola", action="store_true",
                         help="input is KOLA text, not OQL")
    opt_cmd.add_argument("--persons", type=int, default=40)
    opt_cmd.add_argument("--vehicles", type=int, default=25)
    opt_cmd.add_argument("--seed", type=int, default=2026)
    opt_cmd.add_argument("--execute", action="store_true",
                         help="also run the chosen plan")
    opt_cmd.add_argument("--search", choices=("greedy", "saturate"),
                         default="greedy",
                         help="plan search: greedy pipeline (default) "
                         "or equality saturation over an e-graph")

    run_cmd = sub.add_parser(
        "run",
        help="optimize and execute a query, reporting measured vs. "
             "estimated cost")
    run_cmd.add_argument("query")
    run_cmd.add_argument("--kola", action="store_true",
                         help="input is KOLA text, not OQL")
    run_cmd.add_argument("--backend", choices=("codegen", "plan"),
                         default="codegen",
                         help="execution backend: compiled source "
                         "kernel (codegen, the default) or the chosen "
                         "physical plan")
    run_cmd.add_argument("--search", choices=("greedy", "saturate"),
                         default="greedy")
    run_cmd.add_argument("--repeat", type=int, default=3,
                         help="timed runs to average over")
    run_cmd.add_argument("--explain", action="store_true",
                         help="also print the executed plan/pipeline")
    run_cmd.add_argument("--dump-kernel", action="store_true",
                         help="print the generated kernel source "
                         "(codegen backend only)")
    run_cmd.add_argument("--persons", type=int, default=40)
    run_cmd.add_argument("--vehicles", type=int, default=25)
    run_cmd.add_argument("--seed", type=int, default=2026)

    batch_cmd = sub.add_parser(
        "optimize-batch",
        help="optimize a generated query corpus over a worker pool")
    batch_cmd.add_argument("--distinct", type=int, default=100,
                           help="distinct queries in the corpus")
    batch_cmd.add_argument("--traffic", type=int, default=None,
                           help="total optimize calls (default: one "
                           "pass over the distinct set)")
    batch_cmd.add_argument("--workers", type=int, default=None,
                           help="pool size; <=1 runs in-process")
    batch_cmd.add_argument("--search", choices=("greedy", "saturate"),
                           default="greedy")
    batch_cmd.add_argument("--persons", type=int, default=40)
    batch_cmd.add_argument("--vehicles", type=int, default=25)
    batch_cmd.add_argument("--seed", type=int, default=2026)
    batch_cmd.add_argument("--show", type=int, default=3,
                           help="print the first N optimized plans")
    batch_cmd.add_argument("--no-abstract-cache", action="store_true",
                           help="disable the parameterized "
                           "(constant-abstracted) plan-cache level, "
                           "skeleton-affinity routing and warm e-graph "
                           "reuse; exact keying only")

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differentially fuzz the optimizer configuration matrix")
    fuzz_cmd.add_argument("--count", type=int, default=100,
                          help="queries to generate (seeds seed..seed+N-1)")
    fuzz_cmd.add_argument("--seconds", type=float, default=None,
                          help="wall-clock budget; stops early when spent")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="first generator seed (replay: rerun with "
                          "the seed a failure reports and --count 1)")
    fuzz_cmd.add_argument("--max-depth", type=int, default=None,
                          help="generator recursion budget")
    fuzz_cmd.add_argument("--configs", choices=("all", "sequential"),
                          default="all",
                          help="'sequential' drops the two batch configs")
    fuzz_cmd.add_argument("--workers", type=int, default=1,
                          help="batch-config pool size (1 = in-process)")
    fuzz_cmd.add_argument("--no-shrink", action="store_true",
                          help="report divergences unshrunk")
    fuzz_cmd.add_argument("--corpus-dir", default=None,
                          help="persist shrunk divergences as corpus "
                          "entries in this directory")

    unt_cmd = sub.add_parser("untangle",
                             help="five-step hidden-join strategy")
    group = unt_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("query", nargs="?",
                       help="a KOLA query (object expression)")
    group.add_argument("--paper-garage", action="store_true",
                       help="use Figure 3's Garage Query KG1")

    verify_cmd = sub.add_parser("verify", help="model-check a rule")
    verify_cmd.add_argument("lhs")
    verify_cmd.add_argument("rhs")
    verify_cmd.add_argument("--sort", choices=["fun", "pred", "obj"],
                            default="fun")
    verify_cmd.add_argument("--trials", type=int, default=200)

    prove_cmd = sub.add_parser("prove", help="equational proof search")
    prove_cmd.add_argument("lhs")
    prove_cmd.add_argument("rhs")
    prove_cmd.add_argument("--sort", choices=["fun", "pred", "obj"],
                           default="fun")
    prove_cmd.add_argument("--depth", type=int, default=3)

    rules_cmd = sub.add_parser("rules", help="list the rule pool")
    rules_cmd.add_argument("--group", default=None)

    rulepack_cmd = sub.add_parser(
        "rulepack",
        help="check, list or load declarative .kpack rule packs")
    rp_sub = rulepack_cmd.add_subparsers(dest="rulepack_command",
                                         required=True)

    def _pack_selection(command) -> None:
        command.add_argument("packs", nargs="*", metavar="PACK",
                             help=".kpack file(s)")
        command.add_argument("--standard", action="store_true",
                             help="include the shipped standard packs")

    rp_check = rp_sub.add_parser(
        "check", help="run the three-stage admission gate over packs")
    _pack_selection(rp_check)
    rp_check.add_argument("--trials", type=int, default=None,
                          help="model-check trials per direction")
    rp_check.add_argument("--seed", type=int, default=None,
                          help="model-check base seed")
    rp_check.add_argument("--oracle-queries", type=int, default=None,
                          help="stage-3 generated sweep queries per rule")
    rp_check.add_argument("--oracle-probes", type=int, default=None,
                          help="stage-3 LHS-instantiated probe queries")
    rp_check.add_argument("--report", default=None, metavar="PATH",
                          help="write the machine-readable gate report "
                               "(gate_report.json) here")
    rp_check.add_argument("--verbose", action="store_true",
                          help="show per-stage results for admitted "
                               "rules too")

    rp_list = rp_sub.add_parser(
        "list", help="list packs, their rules and group blocks")
    _pack_selection(rp_list)
    rp_list.add_argument("--rules", action="store_true",
                         help="also list each rule with its safety tag")

    rp_load = rp_sub.add_parser(
        "load", help="gate packs jointly, then load them into a fresh "
                     "rulebase and summarize it")
    _pack_selection(rp_load)
    rp_load.add_argument("--trials", type=int, default=None)
    rp_load.add_argument("--seed", type=int, default=None)
    rp_load.add_argument("--oracle-queries", type=int, default=None)
    rp_load.add_argument("--oracle-probes", type=int, default=None)
    rp_load.add_argument("--no-verify", action="store_true",
                         help="skip the admission gate (trusted packs)")

    pool_cmd = sub.add_parser("verify-pool",
                              help="model-check every rule in the pool")
    pool_cmd.add_argument("--trials", type=int, default=30)
    pool_cmd.add_argument("--group", default=None)

    decompile_cmd = sub.add_parser(
        "decompile", help="show a KOLA query in lambda notation")
    decompile_cmd.add_argument("query")

    serve_cmd = sub.add_parser(
        "serve", help="run the plan-serving daemon "
                      "(TCP and/or unix socket)")
    serve_cmd.add_argument("--host", default=None,
                           help="TCP listen host (default 127.0.0.1 "
                                "unless --unix-socket is given)")
    serve_cmd.add_argument("--port", type=int, default=None,
                           help="TCP listen port (0 picks a free one)")
    serve_cmd.add_argument("--unix-socket", default=None,
                           help="unix socket path to listen on")
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="worker pool size")
    serve_cmd.add_argument("--backend", choices=("process", "thread"),
                           default="process")
    serve_cmd.add_argument("--search", choices=("greedy", "saturate"),
                           default="greedy")
    serve_cmd.add_argument("--queue-depth", type=int, default=None,
                           help="per-worker in-flight bound")
    serve_cmd.add_argument("--max-inflight", type=int, default=None,
                           help="global admission bound (shed beyond)")
    serve_cmd.add_argument("--recycle-after", type=int, default=None,
                           help="recycle a worker after serving N "
                                "requests")
    serve_cmd.add_argument("--stats-interval", type=float, default=None,
                           help="log a stats summary every N seconds")
    serve_cmd.add_argument("--persons", type=int, default=40)
    serve_cmd.add_argument("--vehicles", type=int, default=25)
    serve_cmd.add_argument("--seed", type=int, default=2026)

    client_cmd = sub.add_parser(
        "client", help="one-shot request against a serving daemon")
    client_cmd.add_argument("query", nargs="?",
                            help="OQL text (KOLA with --kola); omit "
                                 "with --ping/--stats")
    client_cmd.add_argument("--kola", action="store_true",
                            help="the query is KOLA text, not OQL")
    client_cmd.add_argument("--host", default=None)
    client_cmd.add_argument("--port", type=int, default=None)
    client_cmd.add_argument("--unix-socket", default=None)
    client_cmd.add_argument("--ping", action="store_true")
    client_cmd.add_argument("--stats", action="store_true")
    client_cmd.add_argument("--search",
                            choices=("greedy", "saturate"), default=None)
    client_cmd.add_argument("--shed-retries", type=int, default=3,
                            help="retries after load-shed responses")
    return parser


def _database(args):
    from repro.schema.generator import GeneratorConfig, generate_database
    return generate_database(GeneratorConfig(
        n_persons=args.persons, n_vehicles=args.vehicles, seed=args.seed))


def _parse_by_sort(text: str, sort: str):
    return {"fun": parse_fun, "pred": parse_pred,
            "obj": parse_obj}[sort](text)


def cmd_eval(args) -> int:
    db = _database(args)
    query = parse_obj(args.query)
    print("query :", pretty(query))
    print("result:", value_repr(eval_obj(query, db), limit=20))
    return 0


def cmd_optimize(args) -> int:
    from repro.optimizer.optimizer import Optimizer
    db = _database(args)
    source = parse_obj(args.query) if args.kola else args.query
    optimized = Optimizer().optimize(source, db, search=args.search)
    print(optimized.explain())
    if args.execute:
        print("result:", value_repr(optimized.execute(db), limit=20))
    return 0


def cmd_run(args) -> int:
    import time

    from repro.optimizer.optimizer import Optimizer
    db = _database(args)
    source = parse_obj(args.query) if args.kola else args.query
    optimizer = Optimizer()
    optimized = optimizer.optimize(source, db, search=args.search)
    repeat = max(1, args.repeat)

    result = optimized.execute(db, backend=args.backend)  # warm + verify
    start = time.perf_counter()
    for _ in range(repeat):
        optimized.execute(db, backend=args.backend)
    measured_ms = (time.perf_counter() - start) / repeat * 1000

    print("query    :", pretty(optimized.initial))
    print("executed :", pretty(optimized.best_term))
    print("backend  :", args.backend)
    kernel = (optimizer.kernel_for(optimized, db)[0]
              if args.backend == "codegen" else None)
    if kernel is not None:
        coverage = ("fully lowered" if kernel.fully_lowered
                    else "partially lowered (closure fallback)")
        print("pipeline :", coverage)
    estimated = ("(not costed)" if optimized.estimated_cost is None
                 else f"{optimized.estimated_cost:.1f} model units")
    print("est. cost:", estimated)
    print(f"measured : {measured_ms:.3f} ms/run "
          f"(averaged over {repeat} runs)")
    print("result   :", value_repr(result, limit=20))
    if args.dump_kernel:
        if kernel is None:
            print("(--dump-kernel needs --backend codegen)")
        else:
            print()
            print(kernel.source)
    if args.explain:
        print()
        print(optimized.plan.explain() if kernel is None
              else kernel.explain())
    return 0


def cmd_optimize_batch(args) -> int:
    from repro.parallel.batch import optimize_many
    from repro.workloads.corpus import (CorpusConfig, corpus_stream,
                                        generate_corpus)
    db = _database(args)
    corpus = generate_corpus(CorpusConfig(distinct=args.distinct,
                                          seed=args.seed))
    traffic = args.traffic if args.traffic is not None else len(corpus)
    stream = corpus_stream(corpus, traffic, seed=args.seed)
    report = optimize_many(stream, db, workers=args.workers,
                           search=args.search,
                           abstract_cache=not args.no_abstract_cache)
    print(report.summary())
    for info in report.per_worker:
        cache = info["plan_cache"]
        line = (f"  worker {info['worker']}: {info['processed']} queries, "
                f"plan cache {cache['hits']}/"
                f"{cache['hits'] + cache['misses']}"
                f" hits, size {cache['size']}")
        param = cache.get("param")
        if param is not None:
            line += (f"; skeletons {param['hits']}/"
                     f"{param['hits'] + param['misses']} hits, "
                     f"size {param['size']}, "
                     f"{param['blocked']} blocked, "
                     f"{param['warm_hits']} warm e-graph reuse(s)")
        print(line)
    for batch_result in report.results[:max(0, args.show)]:
        print()
        print(f"-- query #{batch_result.index} "
              f"(worker {batch_result.worker}) --")
        print(batch_result.result.explain())
    return 0


def cmd_fuzz(args) -> int:
    from pathlib import Path

    from repro.fuzz.corpus import from_divergence, save
    from repro.fuzz.generator import FuzzConfig
    from repro.fuzz.oracle import (DifferentialOracle, default_matrix,
                                   sequential_matrix)
    configs = (sequential_matrix() if args.configs == "sequential"
               else default_matrix(batch_workers=args.workers))
    fuzz_config = FuzzConfig()
    if args.max_depth is not None:
        fuzz_config = FuzzConfig(max_depth=args.max_depth)
    with DifferentialOracle(configs=configs,
                            shrink=not args.no_shrink) as oracle:
        report = oracle.run(count=args.count, seed=args.seed,
                            seconds=args.seconds, fuzz_config=fuzz_config)
    print(report.summary())
    if args.corpus_dir and report.divergences:
        directory = Path(args.corpus_dir)
        for i, divergence in enumerate(report.divergences):
            stem = (f"seed{divergence.seed}" if divergence.seed is not None
                    else f"q{i}")
            path = save(from_divergence(
                divergence, name=f"fuzz-{stem}-{divergence.config}"),
                directory)
            print(f"saved reproducer: {path}")
    return 0 if report.ok else 1


def cmd_untangle(args) -> int:
    from repro.coko.hidden_join import untangle
    from repro.rules.registry import standard_rulebase
    if args.paper_garage:
        from repro.workloads.queries import paper_queries
        query = paper_queries().kg1
    else:
        query = parse_obj(args.query)
    final, derivation = untangle(query, standard_rulebase())
    print(derivation.render())
    print()
    print("final form:")
    print(pretty_multiline(final))
    return 0


def cmd_verify(args) -> int:
    from repro.larch.checker import check_rule
    from repro.rewrite.rule import rule
    sort = {"fun": Sort.FUN, "pred": Sort.PRED, "obj": Sort.OBJ}[args.sort]
    candidate = rule("cli-rule", args.lhs, args.rhs, sort=sort,
                     bidirectional=False)
    try:
        report = check_rule(candidate, trials=args.trials)
    except VerificationError as refutation:
        print(f"REFUTED: {refutation}")
        return 1
    print(f"PASS: verified on {report.trials} random instantiations "
          f"({report.skipped_trials} skipped)")
    return 0


def cmd_prove(args) -> int:
    from repro.larch.prover import EquationalProver
    from repro.rules.registry import standard_rulebase
    base = standard_rulebase()
    prover = EquationalProver(base.group("simplify")
                              + base.group("fig4") + base.group("fig5"),
                              max_depth=args.depth)
    lhs = _parse_by_sort(args.lhs, args.sort)
    rhs = _parse_by_sort(args.rhs, args.sort)
    proof = prover.prove(lhs, rhs)
    if proof is None:
        print(f"no proof found within depth {args.depth}")
        return 1
    print(proof.render())
    return 0


def cmd_rules(args) -> int:
    from repro.rules.registry import standard_rulebase
    base = standard_rulebase()
    rules = base.group(args.group) if args.group else base.all_rules()
    for one_rule in rules:
        print(repr(one_rule))
    print(f"({len(rules)} rules)")
    return 0


def _rulepack_sources(args):
    """Resolve the selected packs (positional files and/or --standard)."""
    from pathlib import Path

    from repro.rulepacks import load_pack_file, standard_pack_paths
    packs = []
    if args.standard:
        packs.extend(load_pack_file(path)
                     for path in standard_pack_paths())
    for path in args.packs:
        packs.append(load_pack_file(Path(path)))
    if not packs:
        print("error: name at least one .kpack file or pass --standard",
              file=sys.stderr)
        return None
    return packs


def _gate_config(args):
    from dataclasses import replace

    from repro.rulepacks import GateConfig
    overrides = {name: getattr(args, name)
                 for name in ("trials", "seed", "oracle_queries",
                              "oracle_probes")
                 if getattr(args, name, None) is not None}
    return replace(GateConfig(), **overrides)


def cmd_rulepack(args) -> int:
    handler = {"check": _rulepack_check, "list": _rulepack_list,
               "load": _rulepack_load}[args.rulepack_command]
    return handler(args)


def _rulepack_check(args) -> int:
    from pathlib import Path

    from repro.rulepacks import AdmissionGate
    packs = _rulepack_sources(args)
    if packs is None:
        return 2
    gate = AdmissionGate(_gate_config(args))
    report = gate.check(packs)
    print(report.render(verbose=args.verbose))
    if args.report:
        Path(args.report).write_text(report.to_json_text())
        print(f"wrote {args.report}")
    return 0 if report.ok else 1


def _rulepack_list(args) -> int:
    packs = _rulepack_sources(args)
    if packs is None:
        return 2
    for pack in packs:
        line = f"pack {pack.name} v{pack.version}: {len(pack.rules)} rule(s)"
        if pack.group_blocks:
            line += f", {len(pack.group_blocks)} group block(s)"
        if pack.description:
            line += f" — {pack.description}"
        print(line)
        if args.rules:
            for decl in pack.rules:
                groups = (f"  [{', '.join(decl.groups)}]"
                          if decl.groups else "")
                guard = " (guarded)" if decl.preconditions else ""
                print(f"  {decl.name}: {decl.safety}{guard}{groups}")
        for group_name, names in pack.group_blocks:
            print(f"  group {group_name}: {len(names)} member(s)")
    return 0


def _rulepack_load(args) -> int:
    from repro.rewrite.rulebase import RuleBase
    from repro.rulepacks import AdmissionGate
    packs = _rulepack_sources(args)
    if packs is None:
        return 2
    if not args.no_verify:
        # Gate the whole selection jointly so cross-pack group blocks
        # (e.g. the standard-groups pack) resolve during coherence
        # checks; then apply without re-gating pack by pack.
        gate = AdmissionGate(_gate_config(args))
        report = gate.check(packs)
        if not report.ok:
            print(report.render())
            return 1
    base = RuleBase()
    for pack in packs:
        base.load_pack(pack, verify=False)
    print(f"loaded {len(base)} rule(s) into "
          f"{len(base.group_names())} group(s)")
    for name in base.group_names():
        print(f"  {name}: {len(base.group(name))} rule(s)")
    return 0


def cmd_verify_pool(args) -> int:
    from repro.larch.report import pool_report, render_report
    from repro.rules.registry import standard_rulebase
    base = standard_rulebase()
    rules = base.group(args.group) if args.group else base
    reports = pool_report(rules, trials=args.trials)
    print(render_report(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_decompile(args) -> int:
    from repro.aqua.terms import aqua_pretty
    from repro.translate.kola_to_aqua import decompile
    query = parse_obj(args.query)
    print("KOLA:", pretty(query))
    print("AQUA:", aqua_pretty(decompile(query)))
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import PlanServer
    from repro.serve.daemon import DEFAULT_PORT

    host, port = args.host, args.port
    if host is None and args.unix_socket is None:
        host = "127.0.0.1"
    if host is not None and port is None:
        port = DEFAULT_PORT
    db = _database(args)
    server = PlanServer(db, workers=args.workers, search=args.search,
                        backend=args.backend, host=host, port=port,
                        unix_path=args.unix_socket,
                        max_inflight=args.max_inflight,
                        recycle_after=args.recycle_after,
                        **({"queue_depth": args.queue_depth}
                           if args.queue_depth is not None else {}))

    async def _run() -> None:
        # SIGTERM takes Ctrl-C's path: asyncio.run answers SIGINT by
        # cancelling this task, whose ``finally`` stops the server (the
        # workers exit and the socket file goes).
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        await server.start()
        where = []
        if host is not None:
            where.append(f"tcp {host}:{server.tcp_port}")
        if args.unix_socket is not None:
            where.append(f"unix {args.unix_socket}")
        print(f"[serve] listening on {' and '.join(where)} — "
              f"{server.pool.workers} {server.pool.backend} worker(s), "
              f"search={server.search}", flush=True)
        logger = None
        if args.stats_interval:
            logger = asyncio.ensure_future(
                server.log_stats_forever(args.stats_interval))
        try:
            await server.serve_forever()
        finally:
            if logger is not None:
                logger.cancel()
            await server.stop()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("\n[serve] shutting down")
    return 0


def cmd_client(args) -> int:
    from repro.serve import ServeClient, snapshot_summary
    from repro.serve.daemon import DEFAULT_PORT

    host, port = args.host, args.port
    if args.unix_socket is not None:
        host = port = None  # the unix socket wins when both are given
    elif host is None:
        host = "127.0.0.1"
    if host is not None and port is None:
        port = DEFAULT_PORT
    with ServeClient(host=host, port=port,
                     unix_path=args.unix_socket) as client:
        if args.ping:
            print(f"pong in {client.ping() * 1000:.2f}ms")
            return 0
        if args.stats:
            stats = client.stats()
            print(snapshot_summary(stats))
            server = stats.get("server", {})
            if server:
                print(f"served {server.get('served', 0)}, "
                      f"shed {server.get('shed', 0)}, "
                      f"errors {server.get('errors', 0)}, "
                      f"recycles {server.get('recycles', 0)}, "
                      f"inflight {server.get('inflight', 0)}, "
                      f"uptime {server.get('uptime_s', 0.0):.1f}s")
            return 0
        if args.query is None:
            print("error: client needs a query, --ping or --stats",
                  file=sys.stderr)
            return 2
        served = client.optimize(args.query, kola=args.kola,
                                 search=args.search,
                                 shed_retries=args.shed_retries)
        print(served.result.explain())
        print(f"[served by worker {served.worker}, "
              f"{served.elapsed_ms:.2f}ms server-side]")
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "optimize": cmd_optimize,
    "run": cmd_run,
    "optimize-batch": cmd_optimize_batch,
    "fuzz": cmd_fuzz,
    "untangle": cmd_untangle,
    "verify": cmd_verify,
    "prove": cmd_prove,
    "rules": cmd_rules,
    "rulepack": cmd_rulepack,
    "verify-pool": cmd_verify_pool,
    "decompile": cmd_decompile,
    "serve": cmd_serve,
    "client": cmd_client,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KolaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
