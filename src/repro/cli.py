"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``inventory``
    Build a testbed and print the Figure-1 deployment inventory.
``describe``
    Print the Figure-2 workflow-step view.
``run``
    Execute the 4-step CONNECT workflow and print Table I (and, with
    ``--figures``, Figures 3–6).
``lint``
    Static analysis (repro-lint) over Python sources, or — with no
    paths — over the built testbed (spec pack), the CONNECT workflow
    (dag pack), the loadtest deployment config (deploy pack) and the
    installed ``repro`` package.  Python sources get the call-graph
    determinism lint (DET001, DET010+) and concurrency hazards (CONC).
    ``./lint-baseline.json`` is loaded when present.  Exits nonzero on
    error findings (and on warnings under ``--strict``), and with 2 on a
    target that is missing or not Python.
``trace``
    Run the CONNECT workflow with tracing on, export a Chrome
    trace-event JSON (loadable at chrome://tracing or ui.perfetto.dev),
    and print the critical-path report plus an ASCII flame summary.
``loadtest``
    Multi-tenant overload drill: tens of simulated tenants submit
    CONNECT-derived workflows through the admission gateway while the
    chaos monkey degrades the infrastructure.  Exits nonzero if any
    workflow is lost (no structured outcome) or hung at the horizon.
``version``
    Print the package version.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t
import warnings

from repro._version import __version__

__all__ = ["build_parser", "main"]


def _scale(text: str) -> float:
    """``--scale`` type: an archive fraction in (0, 1], else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid scale {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"scale must be in (0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Workflow-Driven Distributed Machine Learning "
            "in CHASE-CI' (Altintas et al., 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="root seed")
        p.add_argument(
            "--scale",
            type=_scale,
            default=0.005,
            help="archive fraction (1.0 = the paper's 112,249 files)",
        )

    p_inv = sub.add_parser("inventory", help="print the Figure-1 inventory")
    common(p_inv)

    p_desc = sub.add_parser("describe", help="print the Figure-2 step view")
    p_desc.add_argument("--workers", type=int, default=10)
    p_desc.add_argument("--gpus", type=int, default=50)

    p_run = sub.add_parser("run", help="run the CONNECT workflow")
    common(p_run)
    p_run.add_argument("--workers", type=int, default=10,
                       help="step-1 download workers")
    p_run.add_argument("--gpus", type=int, default=50,
                       help="step-3 inference GPUs")
    p_run.add_argument("--no-real-ml", action="store_true",
                       help="skip the real NumPy FFN (timing model only)")
    p_run.add_argument("--no-subset", action="store_true",
                       help="download entire files instead of IVT variables")
    p_run.add_argument("--figures", action="store_true",
                       help="also print Figures 3-6")

    p_lint = sub.add_parser(
        "lint", help="static analysis over specs, workflows and sources"
    )
    common(p_lint)
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="Python files and/or directories; with no paths, lint the "
             "built testbed, the CONNECT workflow, the loadtest deployment "
             "and the repro package sources",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    p_lint.add_argument(
        "--select", action="append", default=None, metavar="CODE",
        help="run only these rule codes (repeatable or comma-separated)",
    )
    p_lint.add_argument(
        "--disable", action="append", default=None, metavar="CODE",
        help="switch these rule codes off (repeatable or comma-separated; "
             "wins over --select)",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="JSON baseline of accepted findings to suppress (default: "
             "./lint-baseline.json when present)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )

    p_trace = sub.add_parser(
        "trace", help="run the CONNECT workflow traced and export the spans"
    )
    common(p_trace)
    p_trace.add_argument("--workers", type=int, default=10,
                         help="step-1 download workers")
    p_trace.add_argument("--gpus", type=int, default=50,
                         help="step-3 inference GPUs")
    p_trace.add_argument("--no-real-ml", action="store_true",
                         help="skip the real NumPy FFN (timing model only)")
    p_trace.add_argument(
        "--overlap", action="store_true",
        help="pipelined driver: stream downloads into training instead "
             "of barriering per step",
    )
    p_trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="path for the Chrome trace-event JSON (default: trace.json)",
    )
    p_trace.add_argument(
        "--flame-width", type=int, default=48,
        help="timeline width of the ASCII flame summary",
    )

    p_load = sub.add_parser(
        "loadtest", help="multi-tenant overload drill through the gateway"
    )
    p_load.add_argument("--seed", type=int, default=42, help="root seed")
    p_load.add_argument("--tenants", type=int, default=50,
                        help="simulated tenants")
    p_load.add_argument("--workflows", type=int, default=4,
                        help="workflows per tenant")
    p_load.add_argument("--fiona8", type=int, default=4,
                        help="GPU nodes in the testbed (small = overload)")
    p_load.add_argument("--fanout", type=int, default=4,
                        help="inference shards per workflow")
    p_load.add_argument("--no-chaos", action="store_true",
                        help="disable fault injection")
    p_load.add_argument("--no-degradation", action="store_true",
                        help="disable graceful degradation policies")
    p_load.add_argument("--horizon", type=float, default=4 * 3600.0,
                        help="sim-time ceiling in seconds")
    p_load.add_argument("--out", default=None, metavar="FILE",
                        help="write the full metrics report JSON here")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.testbed import build_nautilus_testbed
    from repro.viz import render_figure1

    testbed = build_nautilus_testbed(seed=args.seed, scale=args.scale)
    print(render_figure1(testbed))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.viz import render_figure2
    from repro.workflow import build_connect_workflow

    workflow = build_connect_workflow(
        n_workers=args.workers, n_gpus=args.gpus
    )
    print(render_figure2(workflow))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.testbed import build_nautilus_testbed
    from repro.viz import (
        render_figure3,
        render_figure4,
        render_figure5,
        render_figure6,
        render_table1,
    )
    from repro.workflow import WorkflowDriver, build_connect_workflow

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        testbed = build_nautilus_testbed(seed=args.seed, scale=args.scale)
        workflow = build_connect_workflow(
            testbed,
            n_workers=args.workers,
            n_gpus=args.gpus,
            subset=not args.no_subset,
            real_ml=not args.no_real_ml,
        )
        print(f"Running workflow {workflow.name!r} at scale={args.scale} "
              f"({len(testbed.archive):,} granules)...")
        report = WorkflowDriver(testbed).run(workflow)

    if args.figures:
        for renderer in (render_figure3, render_figure4, render_figure5,
                         render_figure6):
            print()
            print(renderer(testbed, report))
    print()
    print(render_table1(report))
    if not report.succeeded:
        for step in report.steps:
            if not step.succeeded:
                print(f"FAILED step {step.name}: {step.error}",
                      file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from repro.analysis import Baseline, LintEngine, cluster_view, registry, workflow_view

    if args.list_rules:
        print(registry.render_table())
        return 0

    baseline = None
    baseline_path = pathlib.Path(args.baseline) if args.baseline else None
    # The committed repo baseline gates `lint --strict` in CI; an explicit
    # --baseline wins, and only an explicit one is ever rewritten.
    load_path = baseline_path or pathlib.Path("lint-baseline.json")
    if load_path.exists():
        baseline = Baseline.load(load_path)

    def split_codes(values: "list[str] | None") -> "list[str] | None":
        if values is None:
            return None
        return [c for v in values for c in v.split(",") if c]

    try:
        engine = LintEngine(
            select=split_codes(args.select),
            disable=split_codes(args.disable),
            baseline=baseline,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    if args.paths:
        try:
            report = engine.lint_paths(args.paths)
        except (FileNotFoundError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        # No paths: lint the deployment itself — the built testbed's
        # cluster, the CONNECT workflow against its GPU total, the
        # loadtest deployment config and the package sources.
        import repro as _repro_pkg
        from repro.loadgen import LoadgenConfig, loadtest_deployment_view
        from repro.testbed import build_nautilus_testbed
        from repro.workflow import build_connect_workflow

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            testbed = build_nautilus_testbed(seed=args.seed, scale=args.scale)
            workflow = build_connect_workflow(testbed)
        report = engine.lint_views(
            cluster=cluster_view(testbed.cluster),
            workflows=[
                workflow_view(workflow, total_gpus=testbed.total_gpus())
            ],
            deployment=loadtest_deployment_view(LoadgenConfig()),
        )
        pkg_report = engine.lint_paths(
            [pathlib.Path(_repro_pkg.__file__).parent]
        )
        report.merge(pkg_report.findings)
        report.suppressed.extend(pkg_report.suppressed)

    if args.update_baseline:
        if baseline_path is None:
            print("--update-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        new_baseline = baseline or Baseline()
        for finding in report.findings:
            new_baseline.add(finding, justification="accepted via --update-baseline")
        new_baseline.save(baseline_path)
        print(f"baseline updated: {baseline_path} "
              f"({len(new_baseline.entries)} accepted finding(s))")
        return 0

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.testbed import build_nautilus_testbed
    from repro.tracing import (
        analyze_run,
        spans_to_metrics,
        validate_spans,
        validate_trace,
        write_chrome_trace,
    )
    from repro.viz.flame import flame_summary
    from repro.workflow import WorkflowDriver, build_connect_workflow

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        testbed = build_nautilus_testbed(seed=args.seed, scale=args.scale)
        workflow = build_connect_workflow(
            testbed,
            n_workers=args.workers,
            n_gpus=args.gpus,
            real_ml=not args.no_real_ml,
        )
        print(f"Tracing workflow {workflow.name!r} at scale={args.scale} "
              f"({len(testbed.archive):,} granules"
              f"{', pipelined' if args.overlap else ''})...")
        report = WorkflowDriver(testbed).run(workflow, overlap=args.overlap)

    spans = testbed.tracer.finished_spans()
    problems = validate_spans(spans)
    if problems:
        for problem in problems:
            print(f"span-tree problem: {problem}", file=sys.stderr)
        return 1

    path = write_chrome_trace(spans, args.out)
    with open(path, encoding="utf-8") as fh:
        trace_problems = validate_trace(json.load(fh))
    if trace_problems:
        for problem in trace_problems:
            print(f"trace-json problem: {problem}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({len(spans)} spans) — load at chrome://tracing "
          "or https://ui.perfetto.dev")

    spans_to_metrics(spans, testbed.registry, workflow=workflow.name)

    analysis = analyze_run(spans)
    print()
    print(analysis.render())
    print()
    print(flame_summary(spans, width=args.flame_width, min_fraction=0.005))
    return 0 if report.succeeded else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import LoadgenConfig, run_loadtest

    cfg = LoadgenConfig(
        n_tenants=args.tenants,
        workflows_per_tenant=args.workflows,
        seed=args.seed,
        n_fiona8=args.fiona8,
        inference_fanout=args.fanout,
        chaos=not args.no_chaos,
        degradation=not args.no_degradation,
        horizon_s=args.horizon,
    )
    print(
        f"Overload drill: {cfg.n_tenants} tenants x "
        f"{cfg.workflows_per_tenant} workflows on {cfg.n_fiona8} GPU nodes "
        f"(chaos={'on' if cfg.chaos else 'off'}, seed={cfg.seed})..."
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_loadtest(cfg)

    counts = report.counts
    print()
    print(f"workflows : {cfg.expected_workflows()} submitted over "
          f"{report.makespan_s / 60:.0f} sim-minutes")
    print(f"outcomes  : {counts['completed']} completed, "
          f"{counts['shed']} shed, {counts['rejected']} rejected, "
          f"{counts['failed']} failed")
    print(f"invariant : lost={report.lost} hung={report.hung}")
    print(f"scheduler : {report.scheduler_throughput:.2f} binds/s, "
          f"{report.preemptions:.0f} preemptions, "
          f"peak queue depth {report.peak_queue_depth:.0f}")
    for cls, pct in report.latency_by_class.items():
        print(f"latency   : {cls:>6} p50={pct['p50']:.1f}s "
              f"p99={pct['p99']:.1f}s (n={pct['count']})")
    degr = report.degradation_summary
    if degr:
        print(f"degraded  : {len(degr.get('dropped_steps', []))} optional "
              f"steps dropped, {len(degr.get('coarsened_fanouts', []))} "
              f"fan-outs coarsened")
    print(f"chaos     : {report.chaos_failures} faults injected")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"\nwrote {args.out}")

    if report.lost or report.hung:
        print(f"ERROR: {report.lost} workflow(s) lost, {report.hung} "
              "tenant process(es) hung — the control plane dropped work "
              "without a structured outcome", file=sys.stderr)
        return 1
    return 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "inventory":
        return _cmd_inventory(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
