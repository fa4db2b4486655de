"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``idd``          — datasheet IDD currents of a built or described device
``pattern``      — power of a command pattern on a device
``verify``       — the Figure 8/9 model-vs-datasheet comparison
``trends``       — the Figure 11/12/13 generation tables
``sensitivity``  — the Figure 10 Pareto for one device
``schemes``      — the Section V scheme comparison for one device
``trace``        — trace-based power of a generated workload or an
external trace file (k6 / gem5-mase / NDJSON, gzip transparent)
``dump``         — serialise a built device to the description language
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import DramPowerModel, Pattern, build_device
from .analysis import (
    energy_reduction_factors,
    format_table,
    generation_trend,
    sensitivity,
    verification_report,
    verify_ddr2,
    verify_ddr3,
)
from .core.idd import standard_idd_suite
from .core.trace import TraceError, evaluate_trace
from .trace import AddressDecoder, replay_trace_file
from .description import DramDescription
from .engine import AUTO, BACKENDS, EvaluationSession
from .dsl import dumps, load
from .schemes import compare_schemes, scheme_report
from .units import parse_quantity
from .workloads import random_trace, streaming_trace


def _parse_density(text: str) -> int:
    """Parse a density like ``2Gb`` or ``512M`` as *binary* bits.

    Memory capacities use binary prefixes: 1 Gb = 2³⁰ bits.
    """
    cleaned = text.strip()
    if cleaned.endswith("bit"):
        cleaned = cleaned[:-3]
    elif cleaned.endswith("b"):
        cleaned = cleaned[:-1]
    shifts = {"G": 30, "M": 20, "K": 10, "k": 10}
    if cleaned and cleaned[-1] in shifts:
        return int(float(cleaned[:-1])) << shifts[cleaned[-1]]
    return int(float(cleaned))


def _device_from_args(args: argparse.Namespace) -> DramDescription:
    """Build or load the device a subcommand operates on."""
    if getattr(args, "file", None):
        return load(args.file)
    kwargs = {}
    if args.interface:
        kwargs["interface"] = args.interface
    if args.density:
        kwargs["density_bits"] = _parse_density(args.density)
    if args.datarate:
        kwargs["datarate"] = parse_quantity(args.datarate)
    return build_device(args.node, io_width=args.width, **kwargs)


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", help="description-language file to load "
                                       "(overrides the build options)")
    parser.add_argument("--node", type=float, default=55,
                        help="technology node in nm (default 55)")
    parser.add_argument("--interface",
                        choices=["SDR", "DDR", "DDR2", "DDR3", "DDR4",
                                 "DDR5"],
                        help="interface family (default: node mainstream)")
    parser.add_argument("--density",
                        help="density in bits, units allowed (e.g. 2Gb)")
    parser.add_argument("--width", type=int, default=16,
                        help="I/O width (default 16)")
    parser.add_argument("--datarate",
                        help="per-pin data rate (e.g. 1.6Gbps)")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The uniform sweep-execution options of every sweep subcommand."""
    parser.add_argument("--backend", default=AUTO, choices=BACKENDS,
                        help="sweep execution backend (default auto: "
                             "vector when numpy is installed and the "
                             "sweep holds a batchable family, serial "
                             "otherwise; vector = columnar numpy "
                             "kernel over batchable sweep families)")


def _cmd_idd(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    model = DramPowerModel(device)
    rows = [[result.measure.value, round(result.milliamps, 1),
             round(result.power.power * 1e3, 1)]
            for result in standard_idd_suite(model).values()]
    print(format_table(["measure", "mA", "mW"], rows,
                       title=f"IDD currents of {device.name}"))
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    model = DramPowerModel(device)
    pattern = Pattern.parse(args.loop)
    result = model.pattern_power(pattern)
    print(f"device       : {device.name}")
    print(f"pattern      : {pattern}")
    print(f"power        : {result.power * 1e3:.1f} mW "
          f"({result.current * 1e3:.1f} mA)")
    print(f"energy/bit   : {result.energy_per_bit_pj:.2f} pJ")
    rows = [[name, round(value * 1e3, 1)]
            for name, value in result.breakdown.as_dict().items()]
    print(format_table(["component", "mW"], rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.standard in ("ddr2", "both"):
        print(verification_report(verify_ddr2(),
                                  title="Figure 8 - 1G DDR2 (mA)"))
        print()
    if args.standard in ("ddr3", "both"):
        print(verification_report(verify_ddr3(),
                                  title="Figure 9 - 1G DDR3 (mA)"))
    return 0


def _cmd_trends(args: argparse.Namespace) -> int:
    points = generation_trend(io_width=args.width,
                              backend=args.backend)
    rows = [[point.node_nm, point.interface,
             point.datarate / 1e9, point.vdd, point.die_area_mm2,
             point.idd0_ma, point.idd4r_ma, point.energy_idd7_pj]
            for point in points]
    print(format_table(
        ["node nm", "interface", "Gb/s", "Vdd", "die mm2", "IDD0 mA",
         "IDD4R mA", "pJ/bit"],
        rows, title="Figures 11-13 - generation trends",
    ))
    early, late = energy_reduction_factors(points)
    print(f"\nenergy reduction per generation: {early:.2f}x "
          f"(170->44nm), {late:.2f}x (44->16nm)")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    results = sensitivity(device, variation=args.variation,
                          backend=args.backend)
    rows = [[result.name, f"{result.impact:+.1%}"] for result in results]
    print(format_table(
        ["parameter", f"impact of +/-{args.variation:.0%}"], rows,
        title=f"Figure 10 - sensitivity of {device.name}",
    ))
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    results = compare_schemes(device)
    print(scheme_report(results,
                        title=f"Section V - schemes on {device.name}"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    model = DramPowerModel(device)
    if args.trace_file:
        return _trace_file(args, device, model)
    if args.workload == "streaming":
        commands = streaming_trace(device, args.accesses,
                                   read_fraction=args.read_fraction)
    else:
        commands = random_trace(device, args.accesses,
                                row_hit_rate=args.hit_rate,
                                read_fraction=args.read_fraction,
                                seed=args.seed)
    result = evaluate_trace(model, commands)
    print(f"device        : {device.name}")
    print(f"workload      : {args.workload}, {args.accesses} accesses")
    print(f"duration      : {result.duration * 1e6:.2f} us")
    print(f"row hit rate  : {result.row_hit_rate:.2f}")
    print(f"bandwidth     : "
          f"{result.data_bits / result.duration / 1e9:.2f} Gb/s")
    print(f"average power : {result.average_power * 1e3:.1f} mW "
          f"({result.average_current * 1e3:.1f} mA)")
    print(f"energy/bit    : {result.energy_per_bit * 1e12:.2f} pJ")
    return 0


def _trace_file(args: argparse.Namespace, device, model) -> int:
    """``repro trace <file>``: replay an external trace on the chosen
    backend (serial fold or columnar kernel) and summarize."""
    decoder = AddressDecoder.from_device(
        device, policy=args.policy,
        channel_bits=args.channel_bits, rank_bits=args.rank_bits,
        offset_bits=args.offset_bits)
    fmt = None if args.format == "auto" else args.format
    started = time.perf_counter()
    try:
        accumulator, backend = replay_trace_file(
            model, args.trace_file, fmt=fmt, decoder=decoder,
            clock=parse_quantity(args.clock), backend=args.backend)
    except (TraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    result = accumulator.result()
    commands_seen = accumulator.commands_seen
    rate = commands_seen / elapsed if elapsed > 0 else float("inf")
    print(f"device        : {device.name}")
    print(f"backend       : {backend}")
    print(f"trace         : {args.trace_file} "
          f"({commands_seen} commands)")
    print(f"duration      : {result.duration * 1e6:.2f} us")
    print(f"row hit rate  : {result.row_hit_rate:.2f} "
          f"(hits {result.row_hits}, misses {result.row_misses}, "
          f"conflicts {result.row_conflicts})")
    if result.data_bits:
        print(f"bandwidth     : "
              f"{result.data_bits / result.duration / 1e9:.2f} Gb/s")
    print(f"average power : {result.average_power * 1e3:.1f} mW "
          f"({result.average_current * 1e3:.1f} mA)")
    if result.data_bits:
        print(f"energy/bit    : "
              f"{result.energy_per_bit * 1e12:.2f} pJ")
    print(f"throughput    : {rate / 1e6:.2f} Mcmd/s")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import check_device

    device = _device_from_args(args)
    session = EvaluationSession()
    session.model(device)
    results = check_device(device, session=session)
    rows = [[result.severity, result.check, result.message]
            for result in results]
    print(format_table(["severity", "check", "finding"], rows,
                       title=f"Feasibility of {device.name}"))
    print(f"engine: {session.stats}")
    return 0 if all(result.is_ok for result in results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from .service import ApiKeyAuth, ServiceLimits, create_service
    from .service.prefork import serve_prefork

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    limits = ServiceLimits(max_inflight=args.max_inflight,
                           max_queue=args.max_queue,
                           queue_timeout=args.queue_timeout,
                           request_timeout=args.request_timeout,
                           retry_after=args.retry_after,
                           result_cache=args.result_cache)
    auth = ApiKeyAuth.from_options(keys=args.api_key)
    guard = f"{len(auth)} API key(s)" if auth is not None else "open"
    jobs = args.jobs_dir or "disabled"
    if args.workers > 1:
        supervisor = serve_prefork(
            host=args.host, port=args.port, workers=args.workers,
            capacity=args.capacity, limits=limits, auth=auth,
            jobs_dir=args.jobs_dir, job_ttl=args.job_ttl)
        print(f"repro service listening on "
              f"http://{args.host}:{supervisor.port} "
              f"({args.workers} workers, "
              f"model-cache capacity={args.capacity}, "
              f"jobs-dir={jobs}, auth={guard}); "
              f"SIGTERM or Ctrl-C drains and exits",
              flush=True)
        supervisor.run_until_signal()
        print("repro service stopped "
              f"({supervisor.respawns} worker respawns)")
        return 0
    service = create_service(host=args.host, port=args.port,
                             capacity=args.capacity,
                             limits=limits, auth=auth,
                             jobs_dir=args.jobs_dir,
                             job_ttl=args.job_ttl)
    print(f"repro service listening on "
          f"http://{args.host}:{service.server_port} "
          f"(model-cache capacity={args.capacity}, "
          f"jobs-dir={jobs}, auth={guard}, "
          f"in-flight<={limits.max_inflight}, "
          f"queue<={limits.max_queue}, "
          f"request-timeout={limits.request_timeout:g}s); "
          f"SIGTERM or Ctrl-C drains and exits",
          flush=True)
    service.run()
    print("repro service stopped")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from .client import ServiceClient
    from .errors import JobError, JobNotFound, ServiceError

    client = ServiceClient(args.url, api_key=args.api_key,
                           timeout=args.timeout)
    try:
        if args.job_command == "submit":
            try:
                params = json.loads(args.params)
            except ValueError as exc:
                print(f"error: --params is not valid JSON: {exc}",
                      file=sys.stderr)
                return 2
            handle = client.submit_job(
                args.kind, params=params,
                chunk_size=args.chunk_size,
                idempotency_key=args.key)
            if args.wait:
                print(json.dumps(handle.result(), indent=2))
            else:
                print(json.dumps(handle.submitted, indent=2))
        elif args.job_command == "status":
            print(json.dumps(client.job(args.job_id).status(),
                             indent=2))
        elif args.job_command == "watch":
            handle = client.job(args.job_id)
            last = None
            for status in handle.watch(interval=args.interval,
                                       timeout=args.timeout_watch):
                line = (f"{status.get('state')} "
                        f"{status.get('chunks_done', 0)}/"
                        f"{status.get('chunks_total') or '?'} chunks")
                if line != last:
                    print(line, flush=True)
                    last = line
        elif args.job_command == "result":
            result = client.job(args.job_id).result(
                timeout=args.timeout_watch)
            print(json.dumps(result, indent=2))
        elif args.job_command == "cancel":
            print(json.dumps(client.job(args.job_id).cancel(),
                             indent=2))
        else:  # list
            print(json.dumps(client.request("GET", "/jobs"),
                             indent=2))
    except JobNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .analysis import export_all

    paths = export_all(args.directory)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_corners(args: argparse.Namespace) -> int:
    from .analysis.corners import VENDOR_SPREAD_CORNERS, corner_sweep
    from .analysis.montecarlo import monte_carlo

    device = _device_from_args(args)
    session = EvaluationSession()
    corners = (VENDOR_SPREAD_CORNERS if args.vendor
               else None)
    bands = (corner_sweep(device, corners=corners, session=session,
                          backend=args.backend)
             if corners
             else corner_sweep(device, session=session,
                               backend=args.backend))
    rows = []
    for band in bands:
        rows.append([band.measure.value, round(band.minimum, 1),
                     round(band.typical, 1), round(band.maximum, 1),
                     f"{band.spread:.1%}"])
    label = "vendor-spread" if args.vendor else "process"
    print(format_table(
        ["measure", "min mA", "typ mA", "max mA", "spread"],
        rows, title=f"{label} corners of {device.name}",
    ))
    if args.samples:
        print()
        rows = []
        for dist in monte_carlo(device, samples=args.samples,
                                seed=args.seed, session=session,
                                backend=args.backend):
            rows.append([dist.measure.value, round(dist.mean, 1),
                         round(dist.stdev, 2),
                         round(dist.percentile(0.95), 1),
                         f"{dist.guard_band:.3f}"])
        print(format_table(
            ["measure", "mean mA", "sigma", "p95 mA", "p95/mean"],
            rows, title=f"Monte-Carlo ({args.samples} samples)",
        ))
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from .description import Command

    device = _device_from_args(args)
    model = DramPowerModel(device)
    command = Command(args.operation)
    rows = []
    for event, energy in model.event_energies(command):
        rows.append([
            event.name,
            event.component.value,
            event.rail.value,
            f"{event.count:g}",
            f"{event.capacitance * 1e15:.2f}",
            f"{event.swing:.2f}",
            round(energy * 1e12, 2),
        ])
    print(format_table(
        ["event", "component", "rail", "count", "C (fF)", "swing (V)",
         "energy (pJ)"],
        rows,
        title=f"Charge events of one {command.value} on {device.name}",
    ))
    total = model.operation_energy(command)
    print(f"\ntotal: {total * 1e12:.1f} pJ per {command.value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_report
    from .dsl import load as load_description

    left = load_description(args.left)
    right = load_description(args.right)
    print(compare_report(left, right))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .analysis.breakdown import breakdown_report
    from .floorplan import FloorplanGeometry

    device = _device_from_args(args)
    geometry = FloorplanGeometry(device)
    spec = device.spec
    print(f"device        : {device.name}")
    print(f"interface     : {device.interface}, "
          f"{spec.datarate / 1e9:g} Gb/s/pin, x{spec.io_width}, "
          f"prefetch {spec.prefetch}")
    print(f"organisation  : {spec.banks} banks x {spec.rows_per_bank} "
          f"rows x {spec.page_bits} bits/page "
          f"({device.density_label})")
    print(f"array         : {device.floorplan.array.bitline_arch} "
          f"bitlines, {device.floorplan.array.bits_per_bitline} "
          f"cells/BL, {device.swls_per_activate} SWLs/activate, "
          f"{device.csls_per_access} CSLs/access")
    print(f"die           : {geometry.die_width * 1e3:.1f} x "
          f"{geometry.die_height * 1e3:.1f} mm = "
          f"{geometry.die_area * 1e6:.1f} mm2, efficiency "
          f"{geometry.array_efficiency:.0%}")
    print(f"stripes       : SA {geometry.sa_stripe_share:.1%}, "
          f"SWD {geometry.swd_stripe_share:.1%} of die")
    volts = device.voltages
    print(f"voltages      : Vdd {volts.vdd:g}, Vint {volts.vint:g}, "
          f"Vbl {volts.vbl:g}, Vpp {volts.vpp:g} V")
    print()
    model = DramPowerModel(device)
    print(breakdown_report(model))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    if args.format == "json":
        from .description.jsonio import dumps_json
        text = dumps_json(device)
    else:
        text = dumps(device)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {device.name} to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bottom-up DRAM power model "
                    "(Vogelsang, MICRO 2010 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    idd = subparsers.add_parser("idd", help="datasheet IDD currents")
    _add_device_arguments(idd)
    idd.set_defaults(handler=_cmd_idd)

    pattern = subparsers.add_parser("pattern",
                                    help="power of a command pattern")
    _add_device_arguments(pattern)
    pattern.add_argument("--loop",
                         default="act nop wrt nop rd nop pre nop",
                         help="command loop (paper syntax)")
    pattern.set_defaults(handler=_cmd_pattern)

    verify = subparsers.add_parser("verify",
                                   help="Figure 8/9 datasheet comparison")
    verify.add_argument("standard", nargs="?", default="both",
                        choices=["ddr2", "ddr3", "both"])
    verify.set_defaults(handler=_cmd_verify)

    trends = subparsers.add_parser("trends",
                                   help="Figure 11-13 generation tables")
    trends.add_argument("--width", type=int, default=16)
    _add_sweep_arguments(trends)
    trends.set_defaults(handler=_cmd_trends)

    sens = subparsers.add_parser("sensitivity",
                                 help="Figure 10 parameter Pareto")
    _add_device_arguments(sens)
    sens.add_argument("--variation", type=float, default=0.2)
    _add_sweep_arguments(sens)
    sens.set_defaults(handler=_cmd_sensitivity)

    schemes = subparsers.add_parser("schemes",
                                    help="Section V scheme comparison")
    _add_device_arguments(schemes)
    schemes.set_defaults(handler=_cmd_schemes)

    trace = subparsers.add_parser("trace",
                                  help="trace-based workload power")
    _add_device_arguments(trace)
    trace.add_argument("trace_file", nargs="?", default=None,
                       help="external trace file to evaluate (k6 / "
                            "gem5-mase / NDJSON, gzip transparent); "
                            "omit to price a generated workload")
    trace.add_argument("--format", default="auto",
                       choices=["auto", "k6", "mase", "jsonl"],
                       help="trace line format (default: sniffed)")
    trace.add_argument("--clock", default="1GHz",
                       help="cycle clock of the trace's cycle stamps "
                            "(default 1GHz)")
    trace.add_argument("--policy", default="row-bank-column",
                       choices=["row-bank-column", "bank-row-column"],
                       help="address bit-slice ordering")
    trace.add_argument("--channel-bits", dest="channel_bits",
                       type=int, default=0)
    trace.add_argument("--rank-bits", dest="rank_bits", type=int,
                       default=0)
    trace.add_argument("--offset-bits", dest="offset_bits", type=int,
                       default=None,
                       help="low address bits below the column field "
                            "(default: one access width)")
    trace.add_argument("--backend", default=AUTO, choices=BACKENDS,
                       help="replay backend (default auto): serial "
                            "is the scalar fold; vector and auto run "
                            "the columnar kernel when numpy is "
                            "installed")
    trace.add_argument("--workload", default="random",
                       choices=["random", "streaming"])
    trace.add_argument("--accesses", type=int, default=2000)
    trace.add_argument("--hit-rate", dest="hit_rate", type=float,
                       default=0.5)
    trace.add_argument("--read-fraction", dest="read_fraction",
                       type=float, default=0.67)
    trace.add_argument("--seed", type=int, default=1)
    trace.set_defaults(handler=_cmd_trace)

    check = subparsers.add_parser(
        "check", help="feasibility checks (stripe shares, die area)")
    _add_device_arguments(check)
    check.set_defaults(handler=_cmd_check)

    serve = subparsers.add_parser(
        "serve", help="long-lived evaluation service over HTTP "
                      "(see docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8080)")
    serve.add_argument("--capacity", type=int, default=256,
                       help="in-memory model cache capacity "
                            "(default 256 models)")
    serve.add_argument("--jobs-dir", dest="jobs_dir", default=None,
                       help="durable job journal directory (default: "
                            "none, and the job API answers 503)")
    serve.add_argument("--job-ttl", dest="job_ttl",
                       type=float, default=3600.0,
                       help="seconds a finished job's journal and "
                            "result stay on disk before GC "
                            "(default 3600)")
    serve.add_argument("--max-inflight", dest="max_inflight",
                       type=int, default=8,
                       help="concurrent requests admitted before "
                            "queueing (default 8)")
    serve.add_argument("--max-queue", dest="max_queue",
                       type=int, default=16,
                       help="requests allowed to wait for a slot; "
                            "beyond this the service sheds with 429 "
                            "(default 16)")
    serve.add_argument("--queue-timeout", dest="queue_timeout",
                       type=float, default=5.0,
                       help="seconds a request may wait for a slot "
                            "before a 503 (default 5)")
    serve.add_argument("--request-timeout", dest="request_timeout",
                       type=float, default=30.0,
                       help="per-request deadline in seconds, 0 "
                            "disables; clients may override per "
                            "request via X-Request-Timeout "
                            "(default 30)")
    serve.add_argument("--retry-after", dest="retry_after",
                       type=float, default=1.0,
                       help="Retry-After hint sent with shed "
                            "responses, seconds (default 1)")
    serve.add_argument("--result-cache", dest="result_cache",
                       type=int, default=256,
                       help="memoized /evaluate responses kept in "
                            "the LRU result cache, 0 disables "
                            "(default 256)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; >1 pre-forks a "
                            "supervised fleet sharing the port via "
                            "SO_REUSEPORT (default 1)")
    serve.add_argument("--api-key", dest="api_key", action="append",
                       default=None, metavar="KEY",
                       help="require this X-Api-Key on every request "
                            "but /healthz (repeatable; also read "
                            "from $REPRO_API_KEYS)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request (DEBUG level)")
    serve.set_defaults(handler=_cmd_serve)

    jobs = subparsers.add_parser(
        "jobs", help="submit and track durable jobs on a running "
                     "service")
    jobs.add_argument("--url", default="http://127.0.0.1:8080",
                      help="service base URL "
                           "(default http://127.0.0.1:8080)")
    jobs.add_argument("--api-key", dest="api_key", default=None,
                      help="X-Api-Key sent with every request")
    jobs.add_argument("--timeout", type=float, default=60.0,
                      help="per-request HTTP timeout in seconds "
                           "(default 60)")
    jobs_sub = jobs.add_subparsers(dest="job_command", required=True)
    submit = jobs_sub.add_parser(
        "submit", help="POST /jobs: submit a durable job")
    submit.add_argument("kind",
                        help="job kind (the service names its kinds "
                             "when refusing one)")
    submit.add_argument("--params", default="{}",
                        help="job parameters as a JSON object "
                             "(default {})")
    submit.add_argument("--chunk-size", dest="chunk_size", type=int,
                        default=None,
                        help="units checkpointed per journal chunk")
    submit.add_argument("--key", default=None,
                        help="idempotency key: resubmits land on "
                             "the same job")
    submit.add_argument("--wait", action="store_true",
                        help="block until done and print the result")
    status = jobs_sub.add_parser(
        "status", help="GET /jobs/<id>: state and progress")
    status.add_argument("job_id")
    watch = jobs_sub.add_parser(
        "watch", help="poll a job, printing progress until terminal")
    watch.add_argument("job_id")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="poll interval, seconds (default 0.5)")
    watch.add_argument("--timeout", dest="timeout_watch", type=float,
                       default=None,
                       help="give up after this many seconds")
    result = jobs_sub.add_parser(
        "result", help="wait for and print a job's final result")
    result.add_argument("job_id")
    result.add_argument("--timeout", dest="timeout_watch",
                        type=float, default=None,
                        help="give up after this many seconds")
    cancel = jobs_sub.add_parser(
        "cancel", help="DELETE /jobs/<id>: cooperative cancel")
    cancel.add_argument("job_id")
    jobs_sub.add_parser("list", help="GET /jobs: list known jobs")
    jobs.set_defaults(handler=_cmd_jobs)

    export = subparsers.add_parser(
        "export", help="write all experiment data as CSV/JSON")
    export.add_argument("directory", help="output directory")
    export.set_defaults(handler=_cmd_export)

    corners = subparsers.add_parser(
        "corners", help="process/vendor corner bands and Monte-Carlo")
    _add_device_arguments(corners)
    corners.add_argument("--vendor", action="store_true",
                         help="use the wider vendor-spread corner set")
    corners.add_argument("--samples", type=int, default=0,
                         help="add a Monte-Carlo run with N samples")
    corners.add_argument("--seed", type=int, default=1)
    _add_sweep_arguments(corners)
    corners.set_defaults(handler=_cmd_corners)

    events = subparsers.add_parser(
        "events", help="per-event energy catalog of one operation")
    _add_device_arguments(events)
    events.add_argument("--operation", default="act",
                        choices=["act", "pre", "rd", "wr"])
    events.set_defaults(handler=_cmd_events)

    compare = subparsers.add_parser(
        "compare", help="diff two description files and their IDDs")
    compare.add_argument("left", help="first description file")
    compare.add_argument("right", help="second description file")
    compare.set_defaults(handler=_cmd_compare)

    info = subparsers.add_parser(
        "info", help="device organisation, geometry and breakdown")
    _add_device_arguments(info)
    info.set_defaults(handler=_cmd_info)

    report = subparsers.add_parser(
        "report", help="full reproduction report (all experiments)")
    report.add_argument("-o", "--output",
                        help="output file (default stdout)")
    report.set_defaults(handler=_cmd_report)

    dump = subparsers.add_parser(
        "dump", help="serialise a device to the description language")
    _add_device_arguments(dump)
    dump.add_argument("-o", "--output", help="output file (default stdout)")
    dump.add_argument("--format", choices=["dsl", "json"], default="dsl",
                      help="output format (default: the description "
                           "language)")
    dump.set_defaults(handler=_cmd_dump)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
