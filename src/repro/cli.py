"""Command-line interface.

Usage examples::

    repro-power list-modules
    repro-power characterize --kind csa_multiplier --width 8 -o model.json
    repro-power characterize --kind ripple_adder,csa_multiplier \\
        --width 4,8,16 --jobs 4 --cache
    repro-power characterize --kind ripple_adder --width 8 --json
    repro-power characterize --kind ripple_adder --width 8 \\
        --profile trace.json   # Chrome about://tracing artifact
    repro-power cache stats
    repro-power estimate --model model.json --kind csa_multiplier \\
        --width 8 --data-type III
    repro-power table 1
    repro-power figure 9
    repro-power reproduce -o report.txt
    repro-power verilog --kind csa_multiplier --width 8 -o mult.v
    repro-power hotspots --kind csa_multiplier --width 8 --data-type III
    repro-power budget my_filter.json --cache-dir ./model_cache
    repro-power verify fuzz --budget 2000 --seed 0
    repro-power serve --port 8719 --jobs 4
    repro-power warmup --jobs 4           # pre-fill the model cache
    repro-power serve --port 8719 --workers 4 --warmup default

The ``table``/``figure``/``reproduce`` subcommands regenerate the paper's
evaluation artifacts (see EXPERIMENTS.md); ``--scale small`` trades
fidelity for speed.

Machine-facing conventions (see docs/API.md):

* ``--json`` on ``characterize``/``estimate``/``verify fuzz`` prints one
  JSON envelope on stdout — ``{"status", "command", "elapsed_seconds",
  ..., "artifacts"}`` — with all human chatter on stderr.
* ``--profile PATH`` wraps the command in a trace and writes a Chrome
  ``about://tracing`` JSON to PATH (plus a span tree on stderr).
* Exit codes: 0 success, 1 partial/complete failure (failed jobs,
  fuzz mismatches), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    from .circuit.power import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro-power",
        description="Hamming-distance power macro-models (DATE 1999 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-modules", help="list datapath module kinds")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable listing (kind, operands, width "
                        "probe, complexity features) for ops tooling")

    p = sub.add_parser("characterize", help="characterize modules")
    p.add_argument("--kind", required=True,
                   help="module kind, or a comma-separated list of kinds")
    p.add_argument("--width", required=True,
                   help="operand width, or a comma-separated list; jobs are "
                        "the cross product of kinds and widths")
    p.add_argument("--patterns", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; per-job seeds derive deterministically")
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--stimulus", default="uniform_hd",
                   choices=["random", "uniform_hd", "mixed", "corner"])
    p.add_argument("--engine", default="auto",
                   choices=ENGINES,
                   help="simulation kernel: the straight-line "
                        "instruction tape ('compiled', fastest on long "
                        "streams), the byte-per-value reference "
                        "('bool'), or pick per stream ('auto': compiled "
                        "from 64 transitions, bool below); results are "
                        "bit-identical")
    p.add_argument("--jobs", type=int, default=1,
                   help="characterize jobs in parallel with this many "
                        "worker processes")
    p.add_argument("--cache", action="store_true",
                   help="serve/store results via the persistent cache "
                        "(~/.cache/repro-hd or $REPRO_CACHE_DIR)")
    p.add_argument("--cache-dir",
                   help="persistent cache directory (implies --cache)")
    p.add_argument("-o", "--output",
                   help="write the model as JSON (with several jobs: a "
                        "directory, one <kind>_<width>[_enhanced].json each)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print one machine-readable result envelope on "
                        "stdout (status, per-job results, artifacts)")
    p.add_argument("--profile", metavar="PATH",
                   help="trace the run and write a Chrome about://tracing "
                        "JSON to PATH")

    p = sub.add_parser(
        "cache", help="inspect the persistent characterization cache"
    )
    p.add_argument("action", choices=["ls", "stats", "clear"])
    p.add_argument("--cache-dir",
                   help="cache directory (default ~/.cache/repro-hd or "
                        "$REPRO_CACHE_DIR)")

    p = sub.add_parser("estimate", help="estimate power for a data stream")
    p.add_argument("--kind", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--data-type", default="I", choices=list("I II III IV V".split()))
    p.add_argument("--patterns", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="JSON model from 'characterize' "
                                   "(characterizes on the fly if omitted)")
    p.add_argument("--method", default="trace",
                   choices=["trace", "distribution", "avg-hd"])
    p.add_argument("--engine", default="auto",
                   choices=ENGINES,
                   help="simulation kernel for reference/characterization")
    p.add_argument("--reference", action="store_true",
                   help="also run the gate-level reference simulation")
    p.add_argument("--node",
                   help="technology node (e.g. 45nm) for physical units: "
                        "charge/energy/power plus area and leakage from "
                        "the repro.tech calibration table")
    p.add_argument("--vdd", type=float,
                   help="supply voltage in volts (default: the node's "
                        "nominal; without --node, legacy 1 fF/unit "
                        "conversion)")
    p.add_argument("--f-clk", type=float,
                   help="clock frequency in hertz (default: the node's "
                        "nominal, or 50 MHz without --node)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print one machine-readable result envelope")
    p.add_argument("--profile", metavar="PATH",
                   help="trace the run and write a Chrome about://tracing "
                        "JSON to PATH")

    p = sub.add_parser("verilog", help="export a module as structural Verilog")
    p.add_argument("--kind", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("hotspots", help="per-net power breakdown")
    p.add_argument("--kind", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--data-type", default="I",
                   choices=list("I II III IV V".split()))
    p.add_argument("--patterns", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--engine", default="auto",
                   choices=ENGINES,
                   help="simulation kernel for the per-net breakdown")

    p = sub.add_parser(
        "budget", help="power-budget a JSON dataflow graph"
    )
    p.add_argument("graph", help="JSON graph description (see "
                                 "repro.flow.graph_io for the schema)")
    p.add_argument("--width", type=int, default=8,
                   help="default operand width")
    p.add_argument("--patterns", type=int, default=3000)
    p.add_argument("--cache-dir",
                   help="persistent cache directory for the node models")

    p = sub.add_parser(
        "verify", help="differential verification (see docs/VERIFICATION.md)"
    )
    p.add_argument("action", choices=["fuzz"],
                   help="'fuzz': cross-engine/oracle differential fuzzing")
    p.add_argument("--budget", type=int, default=2000,
                   help="total transitions to simulate across all cases")
    p.add_argument("--seed", type=int, default=0,
                   help="session seed; the whole run is reproducible from it")
    p.add_argument("--kinds",
                   help="comma-separated module kinds (default: all)")
    p.add_argument("--max-width", type=int, default=6,
                   help="largest operand width drawn")
    p.add_argument("--oracle-prefix", type=int, default=24,
                   help="transitions per case re-checked by the Python "
                        "oracle (the slow, obviously-correct model)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report mismatches without minimizing them")
    p.add_argument("--artifacts", default="artifacts/repros",
                   help="directory for generated repro scripts")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print one machine-readable result envelope "
                        "(progress and chatter go to stderr)")

    p = sub.add_parser(
        "serve",
        help="run the online estimation server (see docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8719,
                   help="bind port; 0 picks an ephemeral port")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker threads for model loads (warmup, cold "
                        "requests), session creates and self-check "
                        "sessions; warm estimates and plain session "
                        "appends run on the event loop")
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission limit; excess requests get 429")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request deadline in seconds (504 past it)")
    p.add_argument("--max-exact-width", type=int, default=16,
                   help="widths above this are served from the Eq. 6-10 "
                        "width regression instead of being characterized")
    p.add_argument("--patterns", type=int, default=2000,
                   help="patterns per on-demand characterization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="auto",
                   choices=ENGINES)
    p.add_argument("--cache-dir",
                   help="persistent model cache directory (default "
                        "~/.cache/repro-hd or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the persistent cache (every cold lookup "
                        "characterizes)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; >1 runs the SO_REUSEPORT fleet "
                        "supervisor (docs/SERVING.md)")
    p.add_argument("--metrics-port", type=int,
                   help="fleet-only: serve the aggregated /metrics + "
                        "/healthz on this port (default: serve port + 1)")
    p.add_argument("--warmup", metavar="MANIFEST",
                   help="pre-materialize models from a warmup manifest "
                        "before accepting traffic; 'default' sweeps every "
                        "Table-1 family across the stock widths")
    p.add_argument("--max-sessions", type=int, default=64,
                   help="streaming sessions open at once per worker; "
                        "past it, POST /v1/sessions gets 429")
    p.add_argument("--session-ttl", type=float, default=600.0,
                   help="idle seconds before a streaming session is "
                        "evicted")
    p.add_argument("--session-snapshot", metavar="PATH",
                   help="persist open sessions here on drain and restore "
                        "them on the next start (fleet: suffixed per "
                        "worker)")

    p = sub.add_parser(
        "warmup",
        help="pre-materialize models into the cache from a manifest",
    )
    p.add_argument("--manifest",
                   help="warmup manifest JSON (default: every Table-1 "
                        "family across the stock width sweep)")
    p.add_argument("--write-default", metavar="PATH",
                   help="write the default manifest to PATH and exit")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel characterization processes")
    p.add_argument("--max-exact-width", type=int, default=16)
    p.add_argument("--patterns", type=int, default=2000,
                   help="patterns per characterization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="auto",
                   choices=ENGINES)
    p.add_argument("--cache-dir",
                   help="persistent model cache directory (default "
                        "~/.cache/repro-hd or $REPRO_CACHE_DIR)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print one machine-readable result envelope")

    p = sub.add_parser(
        "report",
        help="deployment-facing reports (see docs/TECHNOLOGY.md)",
    )
    p.add_argument("action", choices=["pae", "pareto"],
                   help="'pae': power-area-energy sweep of module families "
                        "across widths and technology nodes; 'pareto': "
                        "power-vs-error sweep of parameterized variant "
                        "families (docs/MODULES.md)")
    p.add_argument("--kinds", default="ripple_adder,csa_multiplier",
                   help="comma-separated module families (pae)")
    p.add_argument("--widths", default="4,8,16",
                   help="comma-separated operand widths")
    p.add_argument("--nodes", default="90nm,45nm,22nm",
                   help="comma-separated technology nodes from the "
                        "repro.tech table (pae)")
    p.add_argument("--families", default="trunc_adder,lor_adder",
                   help="comma-separated variant families (pareto)")
    p.add_argument("--values", default="0,1,2,4",
                   help="comma-separated parameter values swept per "
                        "family (pareto)")
    p.add_argument("--node",
                   help="optional technology node: pareto cells carry a "
                        "calibrated physical block")
    p.add_argument("--data-type", default="III",
                   choices=list("I II III IV V".split()),
                   help="stimulus class for the normalized estimates")
    p.add_argument("--patterns", type=int, default=1500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vdd", type=float,
                   help="override every node's nominal supply voltage")
    p.add_argument("--f-clk", type=float,
                   help="override every node's nominal clock frequency")
    p.add_argument("--cache", action="store_true",
                   help="serve/store models via the persistent cache")
    p.add_argument("--cache-dir",
                   help="persistent cache directory (implies --cache)")
    p.add_argument("-o", "--output",
                   help="also write the JSON envelope to this file")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print one machine-readable result envelope "
                        "(the table goes to stderr)")

    p = sub.add_parser(
        "reproduce", help="regenerate every table and figure"
    )
    p.add_argument("--scale", default="full", choices=["full", "small"])
    p.add_argument("-o", "--output", help="write the report to a file")

    p = sub.add_parser("table", help="reproduce a paper table")
    p.add_argument("number", type=int, choices=[1, 2, 3])
    p.add_argument("--scale", default="full", choices=["full", "small"])

    p = sub.add_parser("figure", help="reproduce a paper figure")
    p.add_argument("number", type=int, choices=[1, 2, 3, 4, 6, 9])
    p.add_argument("--scale", default="full", choices=["full", "small"])

    return parser


def _emit_envelope(args, command, status, started, payload, artifacts=()):
    """Print the one-object ``--json`` envelope on stdout.

    Every machine-facing subcommand shares this shape so callers can
    parse results uniformly: ``status`` is "ok" or "failed", timings are
    wall-clock, and ``artifacts`` lists every file the command wrote
    (model JSON, Chrome traces, repro scripts).
    """
    import json
    import time

    envelope = {
        "status": status,
        "command": command,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }
    envelope.update(payload)
    artifacts = [str(a) for a in artifacts if a]
    if getattr(args, "profile", None):
        artifacts.append(str(args.profile))
    envelope["artifacts"] = artifacts
    print(json.dumps(envelope, indent=2))


def _make_harness(scale: str):
    from .eval import ExperimentConfig, Harness

    if scale == "small":
        return Harness(ExperimentConfig(n_characterization=1500, n_eval=1500))
    return Harness(ExperimentConfig(n_characterization=5000, n_eval=5000))


def _cmd_list_modules(args) -> int:
    from .modules import MODULE_KINDS, PAPER_MODULE_KINDS, make_module

    if getattr(args, "as_json", False):
        import json

        entries = []
        for name in sorted(MODULE_KINDS):
            entry = MODULE_KINDS[name]
            record = {
                "kind": name,
                "paper": name in PAPER_MODULE_KINDS,
                "features": list(entry.feature_names),
            }
            if entry.params:
                record["params"] = [p.to_schema() for p in entry.params]
            if entry.parent is not None:
                record["parent"] = entry.parent
            min_width = None
            for width in range(1, 9):
                try:
                    module = make_module(name, width)
                except ValueError:
                    continue
                if min_width is None:
                    min_width = width
                if width == 8:
                    record["gates_at_w8"] = module.netlist.n_gates
                    record["input_bits_at_w8"] = module.input_bits
                    record["operands"] = [
                        {"name": op_name, "width": op_width}
                        for op_name, op_width in module.operand_specs
                    ]
            record["min_width"] = min_width
            entries.append(record)
        print(json.dumps({"modules": entries}, indent=2))
        return 0

    print(f"{'kind':26s} {'features':14s} {'gates@w=8':>9s}")
    for name in sorted(MODULE_KINDS):
        entry = MODULE_KINDS[name]
        try:
            gates = make_module(name, 8).netlist.n_gates
        except ValueError:
            gates = -1
        star = "*" if name in PAPER_MODULE_KINDS else " "
        features = "(" + ", ".join(entry.feature_names) + ")"
        print(f"{star}{name:25s} {features:14s} {gates:9d}")
    print("\n* = module types evaluated in the paper's Table 1")
    return 0


def _cmd_characterize(args) -> int:
    import time
    from pathlib import Path

    from .core.serialize import save_model
    from .eval import ExperimentConfig
    from .runtime import CharacterizationJob, ModelCache, characterize_jobs

    started = time.perf_counter()
    info = sys.stderr if args.as_json else sys.stdout
    kinds = [k.strip() for k in args.kind.split(",") if k.strip()]
    try:
        widths = [int(w) for w in args.width.split(",") if w.strip()]
    except ValueError:
        print(f"error: --width must be int(s), got {args.width!r}",
              file=sys.stderr)
        return 2
    jobs = [
        CharacterizationJob(kind=k, width=w, enhanced=args.enhanced)
        for k in kinds for w in widths
    ]
    config = ExperimentConfig(
        n_characterization=args.patterns,
        seed=args.seed,
        basic_stimulus=args.stimulus,
        enhanced_stimulus=args.stimulus,
        engine=args.engine,
    )
    cache = None
    if args.cache or args.cache_dir:
        cache = ModelCache(args.cache_dir)
    # strict=False: one bad job no longer aborts the batch — failed jobs
    # are reported per-job and turn the exit code to 1.
    report = characterize_jobs(
        jobs, config=config, jobs=args.jobs, cache=cache, strict=False
    )
    artifacts = []
    for job, result in zip(report.jobs, report.results):
        if result is None:
            continue
        model = result.model
        print(f"characterized {model.name}: {result.n_patterns} patterns"
              f" (converged: {result.converged})", file=info)
        print(f"total average deviation eps = "
              f"{model.total_average_deviation * 100:.1f}%", file=info)
        print("p_i:", np.array2string(model.coefficients, precision=1),
              file=info)
    for job, error in zip(report.jobs, report.errors):
        if error is not None:
            print(f"error: {job.label} failed: {error}", file=sys.stderr)
    if args.output:
        if len(jobs) == 1:
            result = report.results[0]
            if result is not None:
                target = result.enhanced if args.enhanced else result.model
                save_model(args.output, target)
                artifacts.append(args.output)
                print(f"model written to {args.output}", file=info)
        else:
            directory = Path(args.output)
            directory.mkdir(parents=True, exist_ok=True)
            for job, result in zip(report.jobs, report.results):
                if result is None:
                    continue
                target = result.enhanced if args.enhanced else result.model
                suffix = "_enhanced" if args.enhanced else ""
                path = directory / f"{job.kind}_{job.width}{suffix}.json"
                save_model(path, target)
                artifacts.append(path)
            print(f"{len(artifacts)} models written to {directory}",
                  file=info)
    if cache is not None or args.jobs > 1 or len(jobs) > 1:
        print(report.summary(), file=info)
    if args.as_json:
        records = []
        for job, result, error in zip(
            report.jobs, report.results, report.errors
        ):
            record = {
                "kind": job.kind,
                "width": job.width,
                "enhanced": job.enhanced,
                "label": job.label,
                "status": "ok" if result is not None else "failed",
            }
            if result is not None:
                record.update(
                    n_patterns=result.n_patterns,
                    converged=bool(result.converged),
                    epsilon=float(result.model.total_average_deviation),
                    coefficients=[
                        float(c) for c in result.model.coefficients
                    ],
                )
            else:
                record["error"] = error
            records.append(record)
        _emit_envelope(
            args, "characterize",
            "ok" if not report.failures else "failed",
            started,
            {
                "jobs": records,
                "failures": report.failures,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "workers": report.n_workers,
            },
            artifacts,
        )
    return 1 if report.failures else 0


def _cmd_cache(args) -> int:
    from .runtime import ModelCache

    cache = ModelCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.directory}")
        return 0
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache {cache.directory} is empty")
            return 0
        print(f"{'key':12s} {'record':16s} {'module':28s} {'size':>8s}")
        for row in entries:
            name = row.get("name") or (
                f"{row.get('kind', '?')}_{row.get('width', '?')}"
                if "kind" in row else "-"
            )
            if row.get("record") == "trace":
                name = (f"{row.get('kind', '?')}_{row.get('width', '?')}"
                        f"/{row.get('data_type', '?')}")
            print(f"{row['key'][:12]:12s} {row.get('record', '?'):16s} "
                  f"{name:28s} {row['bytes']:8d}")
        return 0
    stats = cache.stats()
    print(f"directory   : {stats['directory']}")
    print(f"entries     : {stats['entries']}")
    print(f"total bytes : {stats['total_bytes']}")
    print(f"session     : {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['stores']} stores")
    return 0


def _cmd_estimate(args) -> int:
    import time

    from .api import Session
    from .circuit import PowerSimulator
    from .core import PowerEstimator
    from .core.serialize import load_model
    from .core.hd_model import HdPowerModel
    from .core.enhanced import EnhancedHdModel
    from .eval import ExperimentConfig
    from .modules import make_module
    from .signals import make_operand_streams, module_stimulus
    from .tech import Calibration

    started = time.perf_counter()
    info = sys.stderr if args.as_json else sys.stdout
    module = make_module(args.kind, args.width)
    enhanced = None
    if args.model:
        loaded = load_model(args.model)
        if isinstance(loaded, EnhancedHdModel):
            enhanced, model = loaded, loaded.fallback
        elif isinstance(loaded, HdPowerModel):
            model = loaded
        else:
            print("error: unsupported model type for estimation",
                  file=sys.stderr)
            return 2
        if model.width != module.input_bits:
            print(
                f"error: model width {model.width} does not match module "
                f"input bits {module.input_bits}", file=sys.stderr,
            )
            return 2
    else:
        model = Session(config=ExperimentConfig(
            n_characterization=args.patterns, seed=args.seed,
            engine=args.engine,
        )).characterize(args.kind, args.width).model

    streams = make_operand_streams(module, args.data_type, args.patterns,
                                   seed=args.seed + 1)
    estimator = PowerEstimator(model, enhanced=enhanced)
    if args.method == "trace":
        estimate = estimator.estimate_from_streams(module, streams)
    elif args.method == "distribution":
        estimate = estimator.estimate_analytic_from_streams(module, streams)
    else:
        estimate = estimator.estimate_analytic_from_streams(
            module, streams, use_distribution=False
        )
    print(f"method            : {estimate.method}", file=info)
    print(f"estimated charge  : {estimate.average_charge:.2f} per cycle",
          file=info)
    payload = {
        "kind": args.kind,
        "width": args.width,
        "data_type": args.data_type,
        "method": estimate.method,
        "average_charge": float(estimate.average_charge),
        "n_patterns": args.patterns,
    }
    try:
        calibration = Calibration.from_spec(
            node=args.node, vdd=args.vdd, f_clk=args.f_clk
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    physical = calibration.physical_block(
        estimate.average_charge, netlist=module
    )
    if physical is not None:
        print(f"estimated power   : {physical['power_watts'] * 1e6:.2f} uW "
              f"@ {physical['vdd']}V, "
              f"{physical['f_clk'] / 1e6:.0f}MHz"
              + (f", {physical['node']}" if physical.get("node") else ""),
              file=info)
        if "leakage_watts" in physical:
            print(f"leakage / area    : "
                  f"{physical['leakage_watts'] * 1e6:.3f} uW / "
                  f"{physical['area_m2'] * 1e12:.1f} um^2", file=info)
        payload["physical"] = physical
    if args.reference:
        bits = module_stimulus(module, streams)
        reference = PowerSimulator(
            module.compiled, engine=args.engine
        ).simulate(bits)
        err = (estimate.average_charge / reference.average_charge - 1) * 100
        print(f"reference charge  : {reference.average_charge:.2f} "
              f"(error {err:+.1f}%)", file=info)
        payload["reference_charge"] = float(reference.average_charge)
        payload["reference_error_percent"] = float(err)
    if args.as_json:
        _emit_envelope(args, "estimate", "ok", started, payload)
    return 0


def _cmd_verilog(args) -> int:
    from .circuit.verilog import to_verilog
    from .modules import make_module

    module = make_module(args.kind, args.width)
    text = to_verilog(module.netlist)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} "
              f"({module.netlist.n_gates} cells)")
    else:
        print(text, end="")
    return 0


def _cmd_hotspots(args) -> int:
    from .circuit import net_power_breakdown, render_hotspots
    from .modules import make_module
    from .signals import make_operand_streams, module_stimulus

    module = make_module(args.kind, args.width)
    streams = make_operand_streams(
        module, args.data_type, args.patterns, seed=args.seed
    )
    bits = module_stimulus(module, streams)
    hotspots = net_power_breakdown(
        module.compiled, bits, top=args.top, engine=args.engine
    )
    print(render_hotspots(
        hotspots,
        title=f"{module.netlist.name}, data type {args.data_type}: "
              f"top {args.top} nets",
    ))
    return 0


def _cmd_budget(args) -> int:
    from .api import Session
    from .eval import ExperimentConfig
    from .flow import DatapathPower, load_graph

    graph, widths = load_graph(args.graph)
    # seed=0, the ``characterize`` default: node models match its output.
    session = Session(
        cache_dir=args.cache_dir,
        config=ExperimentConfig(n_characterization=args.patterns, seed=0),
    )
    budgeter = DatapathPower(graph, session, default_width=args.width)
    for node, width in widths.items():
        budgeter.set_width(node, width)
    print(budgeter.estimate_analytic().render())
    return 0


def _cmd_verify(args) -> int:
    import time

    from .verify import run_fuzz

    started = time.perf_counter()
    info = sys.stderr if args.as_json else sys.stdout
    kinds = None
    if args.kinds:
        from .modules import module_kinds

        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        unknown = sorted(set(kinds) - set(module_kinds()))
        if unknown:
            print(f"error: unknown module kind(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        kinds=kinds,
        max_width=args.max_width,
        oracle_prefix=args.oracle_prefix,
        shrink=not args.no_shrink,
        artifacts_dir=args.artifacts,
        progress=lambda line: print(line, file=info),
    )
    print(report.summary(), file=info)
    if args.as_json:
        _emit_envelope(
            args, "verify fuzz",
            "ok" if report.ok else "failed",
            started,
            {
                "n_cases": report.n_cases,
                "n_transitions": report.n_transitions,
                "budget": report.budget,
                "seed": report.seed,
                "kind_counts": report.kind_counts,
                "mismatches": [
                    {"check": m.check, "case": m.case.to_dict(),
                     "detail": m.detail}
                    for m in report.mismatches
                ],
            },
            report.repro_paths,
        )
    return 0 if report.ok else 1


def _cmd_reproduce(args) -> int:
    from .eval import render_report, reproduce_all

    report = render_report(reproduce_all(scale=args.scale))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_table(args) -> int:
    from .eval import (
        render_table1, render_table2, render_table3,
        table1, table2, table3,
    )

    harness = _make_harness(args.scale)
    if args.number == 1:
        print(render_table1(table1(harness)))
    elif args.number == 2:
        print(render_table2(table2(harness)))
    else:
        n = 1500 if args.scale == "small" else 3000
        print(render_table3(table3(harness, n_prototype_patterns=n)))
    return 0


def _cmd_figure(args) -> int:
    from .eval import (
        figure1, figure2, figure3_complexity, figure4, figure6, figure9,
        render_figure1, render_figure2, render_figure6, render_figure9,
    )

    harness = _make_harness(args.scale)
    if args.number == 1:
        print(render_figure1(figure1(harness)))
    elif args.number == 2:
        print(render_figure2(figure2(harness)))
    elif args.number == 3:
        for row in figure3_complexity():
            print(f"{row.width_a:2d}x{row.width_b:2d}: {row.n_gates} gates, "
                  f"{row.n_full_adders_equivalent} FA-equiv "
                  f"(m1*m0 = {row.predicted_complexity:.0f})")
    elif args.number == 4:
        n = 1200 if args.scale == "small" else 3000
        for s in figure4(harness, n_prototype_patterns=n):
            print(f"{s.kind} p_{s.class_index}: instance "
                  f"{np.round(s.instance, 1).tolist()}")
            for subset, values in s.regression.items():
                print(f"  {subset}: {np.round(values, 1).tolist()}")
    elif args.number == 6:
        print(render_figure6(figure6(harness)))
    else:
        n = 3000 if args.scale == "small" else 10000
        print(render_figure9(figure9(n=n)))
    return 0


def _resolve_manifest(spec):
    """``--warmup`` / ``--manifest`` value -> WarmupManifest."""
    from .serve import WarmupManifest, default_manifest

    if spec is None or spec == "default":
        return default_manifest()
    return WarmupManifest.load(spec)


def _cmd_serve(args) -> int:
    import asyncio

    from .eval import ExperimentConfig
    from .runtime import ModelCache
    from .serve import EstimationServer, ModelRegistry

    config = ExperimentConfig(
        n_characterization=args.patterns,
        seed=args.seed,
        engine=args.engine,
    )
    cache = None if args.no_cache else ModelCache(args.cache_dir)
    registry = ModelRegistry(
        config=config, cache=cache, max_exact_width=args.max_exact_width
    )
    if args.warmup:
        from .serve import warm_registry

        report = warm_registry(
            registry, _resolve_manifest(args.warmup), jobs=args.jobs,
        )
        print(f"warmup: {report.summary()}", flush=True)
    if args.workers > 1:
        return _serve_fleet(args, registry, cache)
    server = EstimationServer(
        registry,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        jobs=args.jobs,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        session_snapshot_path=args.session_snapshot,
    )

    async def _run() -> None:
        await server.start()
        cache_note = "disabled" if cache is None else cache.directory
        print(f"serving on http://{server.host}:{server.port} "
              f"(cache: {cache_note}) — SIGTERM/Ctrl-C drains gracefully",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass  # signal handler already drained; bare Ctrl-C on exotic loops
    return 0


def _serve_fleet(args, registry, cache) -> int:
    """``serve --workers N``: supervise a multi-process fleet."""
    import signal
    import threading

    from .serve import FleetMetricsServer, ServeFleet

    fleet = ServeFleet(
        registry,
        host=args.host,
        port=args.port,
        workers=args.workers,
        server_options={
            "max_queue": args.max_queue,
            "request_timeout": args.request_timeout,
            "jobs": args.jobs,
            "max_sessions": args.max_sessions,
            "session_ttl": args.session_ttl,
            "session_snapshot_path": args.session_snapshot,
        },
    )
    fleet.start()
    metrics_port = (
        args.metrics_port if args.metrics_port is not None
        else fleet.port + 1
    )
    metrics = FleetMetricsServer(fleet, host=args.host, port=metrics_port)
    metrics.start()
    cache_note = "disabled" if cache is None else cache.directory
    print(
        f"fleet of {fleet.n_workers} workers on "
        f"http://{fleet.host}:{fleet.port} "
        f"[{fleet.strategy}] (cache: {cache_note}); aggregated metrics on "
        f"http://{metrics.host}:{metrics.port}/metrics — "
        f"SIGTERM/Ctrl-C drains gracefully",
        flush=True,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except (ValueError, OSError):
            pass  # non-main thread / exotic platform: Ctrl-C still works
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        metrics.stop()
        fleet.stop()
    return 0


def _cmd_warmup(args) -> int:
    import json
    import time

    from .eval import ExperimentConfig
    from .runtime import ModelCache
    from .serve import ModelRegistry, warm_registry

    started = time.time()
    if args.write_default:
        path = _resolve_manifest(None).dump(args.write_default)
        print(f"default manifest written to {path}")
        return 0
    try:
        manifest = _resolve_manifest(args.manifest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = ExperimentConfig(
        n_characterization=args.patterns,
        seed=args.seed,
        engine=args.engine,
    )
    cache = ModelCache(args.cache_dir)
    registry = ModelRegistry(
        config=config, cache=cache, max_exact_width=args.max_exact_width
    )
    report = warm_registry(
        registry, manifest, jobs=args.jobs,
        progress=None if args.as_json else (
            lambda line: print(f"  {line}", file=sys.stderr, flush=True)
        ),
    )
    if args.as_json:
        _emit_envelope(
            args, "warmup", "ok" if report.ok else "failed", started,
            {**report.to_dict(), "cache_dir": str(cache.directory),
             "n_jobs": len(manifest.jobs())},
        )
    else:
        print(report.summary())
        for failure in report.failures:
            print(f"  FAIL {failure['model']}: {failure['error']}",
                  file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    import json
    import time

    import repro
    from .tech import pae_report, render_pae, validate_pae

    started = time.perf_counter()
    try:
        widths = [int(w) for w in args.widths.split(",") if w.strip()]
    except ValueError:
        print(f"error: bad --widths {args.widths!r}", file=sys.stderr)
        return 2
    info = sys.stderr if args.as_json else sys.stdout
    from .eval import ExperimentConfig

    cache_dir = args.cache_dir or ("default" if args.cache else None)
    session = repro.Session(
        cache_dir=cache_dir,
        config=ExperimentConfig(
            n_characterization=args.patterns, n_eval=args.patterns
        ),
    )

    if args.action == "pareto":
        from .eval import pareto_report, render_pareto, validate_pareto

        families = [f.strip() for f in args.families.split(",") if f.strip()]
        values = [
            int(v) if v.strip().lstrip("-").isdigit() else v.strip()
            for v in args.values.split(",") if v.strip()
        ]
        if not (families and values and widths):
            print("error: --families, --values and --widths must be "
                  "non-empty", file=sys.stderr)
            return 2
        try:
            report = pareto_report(
                families, values, widths,
                session=session,
                node=args.node,
                data_type=args.data_type,
                n_patterns=args.patterns,
                seed=args.seed,
                vdd=args.vdd,
                f_clk=args.f_clk,
                progress=lambda line: print(line, file=info),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        envelope = report.to_dict()
        validate_pareto(envelope)
        print(render_pareto(report), file=info)
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(envelope, handle, indent=2)
            print(f"report written to {args.output}", file=info)
        if args.as_json:
            _emit_envelope(
                args, "report", "ok", started, envelope,
                artifacts=[args.output] if args.output else (),
            )
        return 0

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    nodes = [n.strip() for n in args.nodes.split(",") if n.strip()]
    if not (kinds and widths and nodes):
        print("error: --kinds, --widths and --nodes must be non-empty",
              file=sys.stderr)
        return 2
    try:
        report = pae_report(
            kinds, widths, nodes,
            session=session,
            data_type=args.data_type,
            n_patterns=args.patterns,
            seed=args.seed,
            vdd=args.vdd,
            f_clk=args.f_clk,
            progress=lambda line: print(line, file=info),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = report.to_dict()
    validate_pae(envelope)
    print(render_pae(report), file=info)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(envelope, handle, indent=2)
        print(f"report written to {args.output}", file=info)
    if args.as_json:
        _emit_envelope(
            args, "report", "ok", started, envelope,
            artifacts=[args.output] if args.output else (),
        )
    return 0


_COMMANDS = {
    "list-modules": _cmd_list_modules,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "warmup": _cmd_warmup,
    "characterize": _cmd_characterize,
    "cache": _cmd_cache,
    "estimate": _cmd_estimate,
    "verilog": _cmd_verilog,
    "hotspots": _cmd_hotspots,
    "budget": _cmd_budget,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
    "table": _cmd_table,
    "figure": _cmd_figure,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    profile_path = getattr(args, "profile", None)
    if not profile_path:
        return handler(args)

    # --profile: run the whole command under a trace, then emit both the
    # Chrome about://tracing artifact and a human span tree (stderr, so
    # --json output on stdout stays a single parseable object).
    from .obs import profile_tree, tracing, write_chrome

    with tracing.trace(f"cli.{args.command}") as ctx:
        code = handler(args)
    write_chrome(ctx, profile_path)
    print(profile_tree(ctx), file=sys.stderr)
    print(f"profile written to {profile_path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
