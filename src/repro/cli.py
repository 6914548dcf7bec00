"""Command-line interface.

``python -m repro <noun> <verb>`` exposes the harness without writing any
Python. Commands follow a consistent noun-verb scheme:

==================  ======================================================
sim run             run one app on one machine, print the headline metrics
sim compare         run Baseline and WiDir on the same traces, print ratio
sim profile         cProfile one in-process run; write a pstats report
figure render       regenerate a paper artifact (fig5..fig10, table4..
                    table6, motivation) and print its table
apps list           list the 20 application profiles and their calibration
verify run          protocol verification campaign (litmus + fuzzing)
verify replay       re-execute a failure artifact (see docs/TESTING.md)
trace run           run one app with observability enabled; export traces
trace export        re-export a saved capture (chrome or text timeline)
trace summarize     span/latency statistics of a saved capture
traces record       record an app's reference stream to a trace file
traces convert      convert an external CSV op listing to the trace format
traces info         print a trace file's header/index summary
traces validate     full-scan integrity check (decompress + CRC all chunks)
traces replay       replay a recorded trace (optionally snapshot/resume)
campaign run        start a fault-tolerant, checkpointed sweep campaign
campaign resume     resume an interrupted/degraded campaign where it died
campaign status     inspect a campaign's journal (progress, retries)
campaign render     render a figure from a campaign's (possibly partial)
                    results
campaign serve      drive a campaign over distributed workers (local
                    forks and/or remote ``campaign worker`` agents)
campaign worker     join a running coordinator and execute leases
campaign submit     push pending runs into a running coordinator
==================  ======================================================

The ``trace`` noun is the *observability* layer (captures, timelines);
the ``traces`` noun is the *recorded-trace* subsystem (the canonical
chunked/compressed file format of :mod:`repro.traces`). The old
single-word spellings (``repro run``, ``repro compare``, ``repro
figure``, ``repro apps``, ``repro profile``, bare ``repro verify``) and
the singular ``repro trace record/convert/info/validate/replay``
spellings still work for one release as hidden aliases that print a
deprecation notice to stderr. Shared options are declared once on parent
parsers: ``--workers``/``--no-cache`` (execution), ``--cores``/
``--memops``/``--seed`` (machine), ``--out`` (output path).

Simulations execute through :mod:`repro.harness.executor` (dedup +
on-disk memoization, ``REPRO_CACHE_DIR``, ``--no-cache``, ``--workers``);
campaigns add the fault-tolerant supervisor + crash-safe checkpoints of
:mod:`repro.harness.campaign`. See docs/API.md and docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.coherence.backend import backend_names
from repro.config.presets import protocol_config
from repro.harness import figures as figure_functions
from repro.harness.executor import Executor
from repro.harness.motivation import section2c_sharing_probe
from repro.harness.results_io import result_to_dict
from repro.wireless.mac import mac_names
from repro.workloads.profiles import ALL_APPS, APP_PROFILES

FIGURES = {
    "motivation": lambda **kw: section2c_sharing_probe(
        apps=list(kw["apps"]), num_cores=kw["cores"], memops=kw["memops"]
    ),
    "table4": lambda **kw: figure_functions.table4_mpki_characterization(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "fig5": lambda **kw: figure_functions.figure5_sharer_histogram(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "fig6": lambda **kw: figure_functions.figure6_mpki(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "fig7": lambda **kw: figure_functions.figure7_memory_latency(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "table5": lambda **kw: figure_functions.table5_hop_distribution(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "fig8": lambda **kw: figure_functions.figure8_execution_time(
        apps=kw["apps"], memops=kw["memops"], executor=kw["executor"]
    ),
    "fig9": lambda **kw: figure_functions.figure9_energy(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "fig10": lambda **kw: figure_functions.figure10_scalability(
        apps=kw["apps"], memops=kw["memops"], executor=kw["executor"]
    ),
    "table6": lambda **kw: figure_functions.table6_sensitivity(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"],
    ),
    "protocols": lambda **kw: figure_functions.figure_protocol_comparison(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"], protocols=kw.get("protocols"),
        seed=kw.get("seed", 42),
    ),
    "macs": lambda **kw: figure_functions.figure_mac_comparison(
        apps=kw["apps"], num_cores=kw["cores"], memops=kw["memops"],
        executor=kw["executor"], protocols=kw.get("protocols"),
        macs=kw.get("macs"), seed=kw.get("seed", 42),
    ),
}

#: Every canonical ``(noun, verb)`` command path; the CLI contract tests
#: snapshot ``--help`` for each of these (plus the root parser).
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("sim", "run"),
    ("sim", "compare"),
    ("sim", "profile"),
    ("figure", "render"),
    ("apps", "list"),
    ("verify", "run"),
    ("verify", "replay"),
    ("trace", "run"),
    ("trace", "export"),
    ("trace", "summarize"),
    ("traces", "record"),
    ("traces", "convert"),
    ("traces", "info"),
    ("traces", "validate"),
    ("traces", "replay"),
    ("campaign", "run"),
    ("campaign", "resume"),
    ("campaign", "status"),
    ("campaign", "render"),
    ("campaign", "serve"),
    ("campaign", "worker"),
    ("campaign", "submit"),
)

#: Old spelling -> new spelling, for the deprecation notices.
DEPRECATED_ALIASES = {
    "run": "sim run",
    "compare": "sim compare",
    "profile": "sim profile",
    "figure": "figure render",
    "apps": "apps list",
    "verify": "verify run",
    # The recorded-trace verbs briefly shipped under the singular noun;
    # they now live on `traces` (the `trace` noun is the obs layer).
    "trace record": "traces record",
    "trace convert": "traces convert",
    "trace info": "traces info",
    "trace validate": "traces validate",
    "trace replay": "traces replay",
}


# -------------------------------------------------------- parent parsers


def _execution_parent() -> argparse.ArgumentParser:
    """Shared ``--workers`` / ``--no-cache`` (declared once, used by every
    simulating subcommand)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: REPRO_WORKERS or CPU "
        "count; 1 forces the deterministic serial path)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (REPRO_CACHE_DIR) and "
        "re-simulate every run",
    )
    return parent


def _machine_parent(
    cores: int = 16, memops: int = 800, seed: int = 42
) -> argparse.ArgumentParser:
    """Shared ``--cores`` / ``--memops`` / ``--seed`` machine options."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("machine")
    group.add_argument("--cores", type=int, default=cores, help="core count")
    group.add_argument(
        "--memops", type=int, default=memops,
        help="memory references per core",
    )
    group.add_argument("--seed", type=int, default=seed, help="machine seed")
    return parent


def _out_parent(default: Optional[str], help_text: str) -> argparse.ArgumentParser:
    """Shared ``--out`` output-path option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", default=default, help=help_text)
    return parent


def _add_mac_option(parser: argparse.ArgumentParser) -> None:
    """``--mac``: wireless MAC backend (ignored by wired protocols)."""
    parser.add_argument(
        "--mac",
        choices=mac_names(),
        default="brs",
        help="wireless MAC backend (wired protocols ignore it; see "
        "repro apps list --macs)",
    )


def _config_with_mac(config, mac: str):
    """Apply ``--mac`` to a preset config; no-op for the default MAC."""
    from dataclasses import replace

    return config if mac == config.mac else replace(config, mac=mac)


def _executor_from(args: argparse.Namespace) -> Executor:
    return Executor(
        workers=args.workers, use_cache=False if args.no_cache else None
    )


# ------------------------------------------------- subcommand definitions


def _configure_sim_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=ALL_APPS)
    parser.add_argument(
        "--protocol", choices=backend_names(), default="widir"
    )
    _add_mac_option(parser)
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_sim_compare(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=ALL_APPS)


def _configure_sim_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=ALL_APPS)
    parser.add_argument(
        "--protocol", choices=backend_names(), default="widir"
    )
    _add_mac_option(parser)
    parser.add_argument(
        "--trace-seed", type=int, default=7, help="workload trace seed"
    )
    parser.add_argument(
        "--sort",
        choices=("tottime", "cumulative"),
        default="tottime",
        help="pstats sort key (default: tottime)",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="number of pstats rows to keep"
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="skip the warm-up run (include trace synthesis and import "
        "effects in the profile)",
    )
    # Old spelling of --out; kept working but hidden from help.
    parser.add_argument(
        "--output", dest="out", default=None, help=argparse.SUPPRESS
    )


def _configure_figure_render(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=sorted(FIGURES))
    parser.add_argument(
        "--apps", default="radiosity,water-spa,blackscholes",
        help="comma-separated app list, or 'all'",
    )


def _configure_verify_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--campaign", default="smoke", help="campaign name (smoke, deep)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign root seed"
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override the trial count"
    )
    parser.add_argument(
        "--mutate",
        default=None,
        help="apply a seeded protocol mutation to every WiDir trial "
        "(mutation smoke testing; the campaign must fail)",
    )
    parser.add_argument(
        "--litmus-schedules",
        type=int,
        default=6,
        help="issue schedules per litmus (test, config) pair",
    )
    parser.add_argument(
        "--skip-litmus", action="store_true", help="fuzz trials only"
    )
    parser.add_argument(
        "--artifact-dir",
        default="verify-artifacts",
        help="where failing trials are archived as replayable JSON",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="archive failing trials without the delta-debugging pass",
    )


def _configure_trace_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app", choices=ALL_APPS, default="radiosity", help="application"
    )
    parser.add_argument(
        "--preset", choices=backend_names(), default="widir"
    )
    _add_mac_option(parser)
    parser.add_argument(
        "--trace-seed", type=int, default=0, help="workload trace seed"
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        help="counter sampling interval in cycles (default: ObsConfig)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="flight-recorder ring depth per node (default: ObsConfig)",
    )
    parser.add_argument(
        "--capture",
        default=None,
        help="also save the raw capture JSON (re-exportable offline)",
    )
    parser.add_argument(
        "--timeline", action="store_true", help="print the text timeline too"
    )
    parser.add_argument(
        "--limit", type=int, default=40, help="timeline rows to print"
    )


def _configure_traces_record(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=ALL_APPS)
    parser.add_argument(
        "--trace-seed", type=int, default=0, help="workload trace seed"
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per compressed chunk (default: format default)",
    )
    parser.add_argument(
        "--codec",
        choices=("zstd", "zlib"),
        default=None,
        help="chunk codec (default: zstd when available, else zlib)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_traces_convert(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("src", help="CSV/text op listing to convert")
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count (default: max core id in the input + 1)",
    )
    parser.add_argument(
        "--app", default="imported", help="app name stored in the header"
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per compressed chunk (default: format default)",
    )
    parser.add_argument(
        "--codec",
        choices=("zstd", "zlib"),
        default=None,
        help="chunk codec (default: zstd when available, else zlib)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_traces_info(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="trace file to summarize")
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_traces_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="trace file to scan")
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_traces_replay(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="trace file to replay")
    parser.add_argument(
        "--protocol", choices=backend_names(), default="widir"
    )
    parser.add_argument("--seed", type=int, default=42, help="machine seed")
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="segment the replay with a machine snapshot roughly every N "
        "chunks per core (0: continuous, digest-identical to the live run)",
    )
    parser.add_argument(
        "--snapshot-path",
        default=None,
        help="durable snapshot file: a killed replay resumes from it with "
        "a byte-identical final digest (removed after a completed run)",
    )
    parser.add_argument(
        "--expect-trace-id",
        default="",
        help="fail unless the file's content digest matches",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _configure_campaign_common(parser: argparse.ArgumentParser) -> None:
    """Supervision knobs shared by ``campaign run`` and ``campaign resume``."""
    group = parser.add_argument_group("supervision")
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run wall-clock budget in seconds (default: unlimited)",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per run before giving up and degrading (default 3)",
    )
    group.add_argument(
        "--backoff-seed", type=int, default=0,
        help="seed of the retry-backoff RNG",
    )
    group.add_argument(
        "--backoff-unit",
        type=float,
        default=0.05,
        help="seconds per backoff cycle (0 retries instantly; default 0.05)",
    )
    group.add_argument(
        "--inject",
        default=None,
        help="seeded fault injection for drills, e.g. 'crash=0.2,hang=0.1' "
        "(kinds: crash, hang, stall, error)",
    )
    group.add_argument(
        "--inject-seed", type=int, default=0, help="fault-injection seed"
    )
    group.add_argument(
        "--trace-out",
        default=None,
        help="write campaign retry spans as a Chrome trace JSON",
    )


def _configure_campaign_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--name", default=None,
        help="campaign name (default: the --out directory name)",
    )
    parser.add_argument(
        "--sweep",
        choices=("protocols", "thresholds", "trace"),
        default="protocols",
        help="run matrix: Baseline-vs-WiDir pairs, a MaxWiredSharers "
        "threshold sweep, or barrier-safe shards of one recorded trace",
    )
    parser.add_argument(
        "--apps", default=None,
        help="comma-separated app list, or 'all' (required unless "
        "--sweep trace)",
    )
    parser.add_argument(
        "--thresholds", default="2,3,4,5",
        help="MaxWiredSharers values for --sweep thresholds",
    )
    parser.add_argument(
        "--protocols", default="baseline,widir",
        help="comma-separated backend names for --sweep protocols, or "
        "'all' (see repro apps list --protocols)",
    )
    parser.add_argument(
        "--macs", default="brs",
        help="comma-separated wireless MAC backends to cross with every "
        "wireless protocol, or 'all' (see repro apps list --macs)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=0, help="workload trace seed"
    )
    parser.add_argument(
        "--trace-path", default=None,
        help="recorded trace file for --sweep trace",
    )
    parser.add_argument(
        "--trace-shards", type=int, default=0,
        help="shard-window count for --sweep trace (<= 1: whole trace)",
    )
    _configure_campaign_common(parser)


def _configure_campaign_resume(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", help="campaign directory to resume")
    _configure_campaign_common(parser)


def _configure_campaign_status(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="campaign directory to inspect (optional with --connect)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="query a running coordinator for live per-shard progress",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="auto-discover the coordinator advertised in DIR and query it",
    )


def _configure_campaign_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--name", default=None,
        help="campaign name (default: the --out directory name)",
    )
    parser.add_argument(
        "--sweep",
        choices=("protocols", "thresholds", "trace"),
        default="protocols",
        help="run matrix: Baseline-vs-WiDir pairs, a MaxWiredSharers "
        "threshold sweep, or barrier-safe shards of one recorded trace",
    )
    parser.add_argument(
        "--apps",
        default=None,
        help="comma-separated app list, or 'all' (omit to resume an "
        "existing campaign directory)",
    )
    parser.add_argument(
        "--thresholds", default="2,3,4,5",
        help="MaxWiredSharers values for --sweep thresholds",
    )
    parser.add_argument(
        "--protocols", default="baseline,widir",
        help="comma-separated backend names for --sweep protocols, or "
        "'all' (see repro apps list --protocols)",
    )
    parser.add_argument(
        "--macs", default="brs",
        help="comma-separated wireless MAC backends to cross with every "
        "wireless protocol, or 'all' (see repro apps list --macs)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=0, help="workload trace seed"
    )
    parser.add_argument(
        "--trace-path", default=None,
        help="recorded trace file for --sweep trace",
    )
    parser.add_argument(
        "--trace-shards", type=int, default=0,
        help="shard-window count for --sweep trace (<= 1: whole trace)",
    )
    group = parser.add_argument_group("distributed")
    group.add_argument(
        "--host", default="127.0.0.1", help="coordinator bind address"
    )
    group.add_argument(
        "--port", type=int, default=0,
        help="coordinator TCP port (0 picks a free port)",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=None,
        help="journal shard count (default: 2x workers, so steals occur)",
    )
    group.add_argument(
        "--lease-timeout",
        type=float,
        default=120.0,
        help="seconds before an unacknowledged lease is requeued",
    )
    group.add_argument(
        "--store",
        default=None,
        help="content-addressed result-store directory (multi-tenant "
        "cross-campaign dedup)",
    )
    group.add_argument(
        "--tenant", default="default", help="result-store tenant name"
    )
    group.add_argument(
        "--runner",
        choices=("sim", "sleep"),
        default="sim",
        help="what workers execute: real simulations, or deterministic "
        "sleeps (orchestration benchmarking)",
    )
    group.add_argument(
        "--runner-seconds",
        type=float,
        default=0.0,
        help="per-run sleep for --runner sleep",
    )
    group.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        help="SIGKILL one busy local worker after N results (fault drill)",
    )
    supervision = parser.add_argument_group("supervision")
    supervision.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="campaign wall-clock budget in seconds (default: unlimited)",
    )
    supervision.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per run before giving up and degrading (default 3)",
    )
    supervision.add_argument(
        "--backoff-seed", type=int, default=0,
        help="seed of the retry-backoff RNG",
    )
    supervision.add_argument(
        "--trace-out",
        default=None,
        help="write lease/steal spans as a Chrome trace JSON",
    )


def _configure_campaign_worker(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint to join",
    )
    parser.add_argument(
        "--name", default="", help="worker name shown in status/telemetry"
    )


def _configure_campaign_submit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="campaign directory whose advertised coordinator to use "
        "(optional with --connect)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="coordinator endpoint to submit to",
    )
    parser.add_argument(
        "--keys",
        default=None,
        help="comma-separated run keys to enqueue (default: every pending "
        "run in the plan)",
    )
    parser.add_argument(
        "--wait",
        type=float,
        default=10.0,
        help="seconds to keep retrying while the coordinator throttles "
        "submissions (429)",
    )


def _configure_campaign_render(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", help="campaign directory to render from")
    parser.add_argument(
        "--figure",
        choices=sorted(name for name in FIGURES if name != "motivation"),
        required=True,
        help="paper artifact to render from the campaign's results",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail instead of rendering partial output when runs are "
        "missing",
    )


# ---------------------------------------------------------- parser build


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed for the contract tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiDir (HPCA 2021) reproduction harness",
    )
    nouns = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{sim,figure,apps,verify,trace,traces,campaign}",
    )
    execution = _execution_parent()

    # ---- sim -----------------------------------------------------------
    sim = nouns.add_parser("sim", help="run simulations")
    sim_verbs = sim.add_subparsers(dest="verb", required=True)
    sim_run = sim_verbs.add_parser(
        "run",
        help="run one application",
        parents=[_machine_parent(), execution],
    )
    _configure_sim_run(sim_run)
    sim_compare = sim_verbs.add_parser(
        "compare",
        help="Baseline vs WiDir on the same traces",
        parents=[_machine_parent(), execution],
    )
    _configure_sim_compare(sim_compare)
    sim_profile = sim_verbs.add_parser(
        "profile",
        help="cProfile one in-process simulation; write a pstats report",
        parents=[
            _machine_parent(cores=64),
            _out_parent(
                None,
                "report path ('-' for stdout only; default "
                "docs/profiles/<app>-<protocol>-<cores>c.txt)",
            ),
        ],
    )
    _configure_sim_profile(sim_profile)

    # ---- figure --------------------------------------------------------
    figure = nouns.add_parser("figure", help="regenerate paper artifacts")
    figure_verbs = figure.add_subparsers(dest="verb", required=True)
    figure_render = figure_verbs.add_parser(
        "render",
        help="regenerate a paper artifact and print its table",
        parents=[_machine_parent(), execution],
    )
    _configure_figure_render(figure_render)

    # ---- apps ----------------------------------------------------------
    apps = nouns.add_parser("apps", help="application profiles")
    apps_verbs = apps.add_subparsers(dest="verb", required=True)
    apps_list = apps_verbs.add_parser(
        "list", help="list the 20 application profiles"
    )
    apps_list.add_argument(
        "--protocols",
        action="store_true",
        help="list the registered coherence-protocol backends instead",
    )
    apps_list.add_argument(
        "--macs",
        action="store_true",
        help="list the registered wireless MAC backends instead",
    )

    # ---- verify --------------------------------------------------------
    verify = nouns.add_parser(
        "verify", help="protocol verification campaigns"
    )
    verify_verbs = verify.add_subparsers(dest="verb")
    verify_run = verify_verbs.add_parser(
        "run", help="run a verification campaign (litmus + fuzzing)"
    )
    _configure_verify_opts(verify_run)
    replay = verify_verbs.add_parser(
        "replay", help="re-execute a failure artifact"
    )
    replay.add_argument("artifact", help="path to the artifact JSON")
    # Old spelling: bare `repro verify --campaign ...` (no verb).
    _configure_verify_opts(verify)

    # ---- trace ---------------------------------------------------------
    trace = nouns.add_parser(
        "trace", help="record / export / summarize observability captures"
    )
    trace_verbs = trace.add_subparsers(dest="verb", required=True)
    trace_run = trace_verbs.add_parser(
        "run",
        help="run one app with tracing enabled and export a trace",
        parents=[
            _machine_parent(),
            _out_parent("trace.json", "Chrome/Perfetto trace output path"),
        ],
    )
    _configure_trace_run(trace_run)
    trace_export = trace_verbs.add_parser(
        "export",
        help="re-export a saved capture JSON",
        parents=[
            _out_parent(
                None,
                "output path (default: trace.json for chrome, stdout for "
                "text)",
            )
        ],
    )
    trace_export.add_argument("capture", help="path to a saved capture JSON")
    trace_export.add_argument(
        "--format", choices=("chrome", "text"), default="chrome"
    )
    trace_export.add_argument(
        "--limit", type=int, default=None, help="text-timeline row cap"
    )
    trace_summarize = trace_verbs.add_parser(
        "summarize", help="print span/latency statistics of a saved capture"
    )
    trace_summarize.add_argument("capture", help="path to a saved capture JSON")
    trace_summarize.add_argument(
        "--timeline", action="store_true", help="print the text timeline too"
    )
    trace_summarize.add_argument(
        "--limit", type=int, default=40, help="timeline rows to print"
    )

    # ---- traces (recorded-trace subsystem; distinct from obs `trace`) --
    traces = nouns.add_parser(
        "traces",
        help="record / convert / inspect / replay canonical trace files",
    )
    traces_verbs = traces.add_subparsers(dest="verb", required=True)
    traces_record = traces_verbs.add_parser(
        "record",
        help="record an app's reference stream into a trace file",
        parents=[
            _machine_parent(),
            _out_parent(None, "trace output path (required)"),
        ],
    )
    _configure_traces_record(traces_record)
    traces_convert = traces_verbs.add_parser(
        "convert",
        help="convert an external CSV op listing into the trace format",
        parents=[_out_parent(None, "trace output path (required)")],
    )
    _configure_traces_convert(traces_convert)
    traces_info = traces_verbs.add_parser(
        "info", help="print a trace file's header/index summary"
    )
    _configure_traces_info(traces_info)
    traces_validate = traces_verbs.add_parser(
        "validate",
        help="full-scan integrity check (decompress + CRC every chunk)",
    )
    _configure_traces_validate(traces_validate)
    traces_replay = traces_verbs.add_parser(
        "replay",
        help="replay a recorded trace through the full machine",
    )
    _configure_traces_replay(traces_replay)

    # ---- campaign ------------------------------------------------------
    campaign = nouns.add_parser(
        "campaign",
        help="fault-tolerant, crash-safe-resumable sweep campaigns",
    )
    campaign_verbs = campaign.add_subparsers(dest="verb", required=True)
    campaign_run = campaign_verbs.add_parser(
        "run",
        help="start a checkpointed campaign (resumable with `campaign "
        "resume`)",
        parents=[
            _machine_parent(),
            execution,
            _out_parent(None, "campaign directory (required)"),
        ],
    )
    _configure_campaign_run(campaign_run)
    campaign_resume = campaign_verbs.add_parser(
        "resume",
        help="resume an interrupted or degraded campaign where it died",
        parents=[execution],
    )
    _configure_campaign_resume(campaign_resume)
    campaign_status = campaign_verbs.add_parser(
        "status", help="inspect a campaign's checkpoint journal"
    )
    _configure_campaign_status(campaign_status)
    campaign_render = campaign_verbs.add_parser(
        "render",
        help="render a paper figure from a campaign's (partial) results",
    )
    _configure_campaign_render(campaign_render)
    campaign_serve = campaign_verbs.add_parser(
        "serve",
        help="drive a campaign over distributed workers (work-stealing "
        "coordinator; local forks and/or remote `campaign worker` agents)",
        parents=[
            _machine_parent(),
            execution,
            _out_parent(None, "campaign directory (required)"),
        ],
    )
    _configure_campaign_serve(campaign_serve)
    campaign_worker = campaign_verbs.add_parser(
        "worker",
        help="join a running coordinator and execute leased runs",
    )
    _configure_campaign_worker(campaign_worker)
    campaign_submit = campaign_verbs.add_parser(
        "submit",
        help="push pending runs into a running coordinator (rate-limited)",
    )
    _configure_campaign_submit(campaign_submit)

    # ---- hidden deprecated aliases ------------------------------------
    legacy_run = nouns.add_parser(
        "run", parents=[_machine_parent(), execution]
    )
    _configure_sim_run(legacy_run)
    legacy_run.set_defaults(command="sim", verb="run", _deprecated="run")
    legacy_compare = nouns.add_parser(
        "compare", parents=[_machine_parent(), execution]
    )
    _configure_sim_compare(legacy_compare)
    legacy_compare.set_defaults(
        command="sim", verb="compare", _deprecated="compare"
    )
    legacy_profile = nouns.add_parser(
        "profile",
        parents=[
            _machine_parent(cores=64),
            _out_parent(None, "report path"),
        ],
    )
    _configure_sim_profile(legacy_profile)
    legacy_profile.set_defaults(
        command="sim", verb="profile", _deprecated="profile"
    )
    # `repro apps` (no verb) must keep working: the canonical `apps` parser
    # above requires a verb, so route the bare spelling through a default.
    apps_verbs.required = False
    apps.set_defaults(verb="list")

    # Singular spellings of the recorded-trace verbs (`repro trace record`
    # etc.) route to the `traces` noun with a deprecation notice; the
    # `trace` noun itself stays the observability layer.
    for verb, configure in (
        ("record", _configure_traces_record),
        ("convert", _configure_traces_convert),
        ("info", _configure_traces_info),
        ("validate", _configure_traces_validate),
        ("replay", _configure_traces_replay),
    ):
        parents = []
        if verb == "record":
            parents = [
                _machine_parent(),
                _out_parent(None, "trace output path (required)"),
            ]
        elif verb == "convert":
            parents = [_out_parent(None, "trace output path (required)")]
        legacy = trace_verbs.add_parser(verb, parents=parents)
        configure(legacy)
        legacy.set_defaults(
            command="traces", verb=verb, _deprecated=f"trace {verb}"
        )

    return parser


def _rewrite_legacy_argv(argv: List[str]) -> tuple:
    """Map old command spellings onto the noun-verb grammar.

    ``repro figure <artifact>`` (old) becomes ``repro figure render
    <artifact>``; the pure renames (``run``/``compare``/``profile``) are
    handled by hidden alias subparsers instead. Returns the possibly
    rewritten argv plus the deprecated spelling used (or ``None``).
    """
    if (
        len(argv) >= 2
        and argv[0] == "figure"
        and argv[1] not in ("render", "-h", "--help")
    ):
        return ["figure", "render"] + list(argv[1:]), "figure"
    return list(argv), None


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    if argv is None:
        argv = sys.argv[1:]
    argv, legacy = _rewrite_legacy_argv(list(argv))
    args = build_parser().parse_args(argv)
    if legacy is not None:
        args._deprecated = legacy
    # Bare `repro verify ...` (no verb) is the old spelling of `verify run`.
    if args.command == "verify" and getattr(args, "verb", None) is None:
        args.verb = "run"
        args._deprecated = "verify"
    return args


def _warn_deprecated(args: argparse.Namespace) -> None:
    old = getattr(args, "_deprecated", None)
    if old:
        print(
            f"repro: `repro {old}` is deprecated; use "
            f"`repro {DEPRECATED_ALIASES[old]}` (see docs/API.md)",
            file=sys.stderr,
        )


# ------------------------------------------------------------- handlers


def _cmd_sim_run(args: argparse.Namespace) -> int:
    config = _config_with_mac(
        protocol_config(args.protocol, num_cores=args.cores, seed=args.seed),
        args.mac,
    )
    result = _executor_from(args).run(args.app, config, args.memops)
    if args.json:
        print(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
        return 0
    print(f"{args.app} on {args.protocol} @ {args.cores} cores")
    print(f"  cycles            : {result.cycles:,}")
    print(f"  L1 MPKI           : {result.mpki:.2f}")
    print(f"  memory stall      : {result.memory_stall_fraction:.1%}")
    percentiles = result.latency_percentiles()
    if percentiles:
        print(
            f"  latency p50/95/99 : "
            f"{percentiles['p50']:.0f} / {percentiles['p95']:.0f} / "
            f"{percentiles['p99']:.0f} cycles"
        )
    print(f"  wireless writes   : {result.wireless_writes:,}")
    print(f"  collision prob    : {result.collision_probability:.2%}")
    print(f"  energy (pJ)       : {result.energy.total:,.0f}")
    return 0


def _cmd_sim_compare(args: argparse.Namespace) -> int:
    base, widir = _executor_from(args).run_pair(
        args.app, num_cores=args.cores, memops_per_core=args.memops, seed=args.seed
    )
    print(f"{args.app} @ {args.cores} cores ({args.memops} refs/core)")
    print(f"  Baseline cycles : {base.cycles:,}  (MPKI {base.mpki:.2f})")
    print(f"  WiDir cycles    : {widir.cycles:,}  (MPKI {widir.mpki:.2f})")
    print(f"  WiDir speedup   : {base.cycles / widir.cycles:.3f}x")
    print(f"  energy ratio    : {widir.energy.total / base.energy.total:.3f}")
    return 0


def _cmd_figure_render(args: argparse.Namespace) -> int:
    apps = ALL_APPS if args.apps.strip() == "all" else tuple(
        name.strip() for name in args.apps.split(",") if name.strip()
    )
    unknown = [a for a in apps if a not in APP_PROFILES]
    if unknown:
        print(f"unknown apps: {', '.join(unknown)}", file=sys.stderr)
        return 2
    result = FIGURES[args.name](
        apps=apps,
        cores=args.cores,
        memops=args.memops,
        executor=_executor_from(args),
    )
    if isinstance(result, dict):  # figure8-style multi-table
        for figure in result.values():
            print(figure.text)
    else:
        print(result.text)
    return 0


def _cmd_sim_profile(args: argparse.Namespace) -> int:
    """Profile one simulation in-process and write a pstats report.

    The run goes straight through :func:`repro.harness.runner.run_app`
    (no executor, no subprocesses, no result cache) so the profile shows
    the simulation inner loop itself. By default one warm-up run executes
    first: it populates the trace-synthesis memo so the report reflects
    the steady-state cost a sweep pays per point, which is what
    docs/PERFORMANCE.md tracks. Pass ``--cold`` to include synthesis.
    """
    import cProfile
    import io
    import pstats
    import time
    from pathlib import Path

    from repro.harness.runner import run_app

    def one_run():
        config = _config_with_mac(
            protocol_config(
                args.protocol, num_cores=args.cores, seed=args.seed
            ),
            args.mac,
        )
        return run_app(
            args.app, config, args.memops, trace_seed=args.trace_seed
        )

    if not args.cold:
        one_run()  # warm the trace memo / imports
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = one_run()
    profiler.disable()
    wall = time.perf_counter() - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    header = (
        f"# repro profile: {args.app} on {args.protocol} @ {args.cores} cores\n"
        f"# memops/core={args.memops} seed={args.seed} "
        f"trace_seed={args.trace_seed} "
        f"{'cold' if args.cold else 'warm'} sort={args.sort}\n"
        f"# simulated cycles={result.cycles:,} "
        f"wall={wall:.3f}s (uninstrumented wall is lower; "
        f"cProfile adds per-call overhead)\n\n"
    )
    # Relativize source paths so reports are comparable across checkouts.
    text = (header + stream.getvalue()).replace(str(Path.cwd().resolve()) + "/", "")
    print(text)
    if args.out != "-":
        if args.out is None:
            out_path = Path("docs") / "profiles" / (
                f"{args.app}-{args.protocol}-{args.cores}c.txt"
            )
        else:
            out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        print(f"wrote {out_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run a verification campaign, or replay a failure artifact.

    Campaign mode output is fully deterministic for a given
    ``(--campaign, --seed, --trials, --mutate)`` tuple — no wall-clock
    times, no absolute paths in the summary — so two identical invocations
    produce byte-identical stdout (the CI determinism gate diffs them).
    """
    from pathlib import Path

    from repro.verify.artifacts import FailureArtifact, shrink_trial
    from repro.verify.fuzz import CAMPAIGNS, execute_trial, run_campaign
    from repro.verify.litmus import run_suite
    from repro.verify.mutations import MUTATIONS

    if args.verb == "replay":
        artifact = FailureArtifact.load(args.artifact)
        print(
            f"replaying: campaign={artifact.campaign} seed={artifact.seed} "
            f"trial={artifact.trial_index} "
            f"(shrunk {artifact.original_ops} -> {artifact.shrunk_ops} ops)"
            if artifact.shrunk
            else f"replaying: campaign={artifact.campaign} "
            f"seed={artifact.seed} trial={artifact.trial_index}"
        )
        print(f"recorded failure: {artifact.failure}")
        if artifact.trace:
            from repro.obs.recorder import FlightRecorder

            print("recorded timeline (flight-recorder window of the "
                  "original failing run):")
            for line in FlightRecorder.render_payload(
                artifact.trace, indent="  "
            ):
                print(line)
        result = execute_trial(artifact.spec)
        if result.ok:
            print("replay PASSED — the failure did not reproduce")
            return 1
        print(f"replay failure  : {result.failure}")
        print("failure reproduced")
        return 0

    if args.campaign not in CAMPAIGNS:
        print(
            f"unknown campaign {args.campaign!r}; "
            f"available: {', '.join(sorted(CAMPAIGNS))}",
            file=sys.stderr,
        )
        return 2
    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; "
            f"available: {', '.join(sorted(MUTATIONS))}",
            file=sys.stderr,
        )
        return 2

    violations = 0
    if not args.skip_litmus:
        litmus_results = run_suite(
            num_cores=8,
            schedules=args.litmus_schedules,
            seed=args.seed,
            online_interval=150,
        )
        print(f"== litmus: {len(litmus_results)} (test, config) pairs ==")
        for result in litmus_results:
            print(f"  {result.summary()}")
            for violation in result.violations:
                print(f"    ! {violation}")
            violations += len(result.violations)

    plan = CAMPAIGNS[args.campaign]
    trials = args.trials if args.trials is not None else plan.trials
    suffix = f" mutate={args.mutate}" if args.mutate else ""
    print(
        f"== fuzz: campaign={args.campaign} seed={args.seed} "
        f"trials={trials}{suffix} =="
    )
    artifact_dir = Path(args.artifact_dir)
    artifacts: List[str] = []

    def on_trial(index, spec, trial) -> None:
        from repro.coherence.backend import get_backend

        protocol = spec.config["protocol"]
        mws = spec.config["directory"]["max_wired_sharers"]
        label = (
            f"{protocol}-mws{mws}"
            if get_backend(protocol).uses_sharer_threshold
            else protocol
        )
        if trial.ok:
            print(
                f"  trial {index:02d} {label:<12} ok    "
                f"digest={trial.digest} cycles={trial.cycles}"
            )
            return
        print(f"  trial {index:02d} {label:<12} FAIL  {trial.failure}")
        spec_to_save = spec
        original_ops = spec.total_ops
        if not args.no_shrink:
            spec_to_save = shrink_trial(spec)
            print(
                f"    shrunk {original_ops} -> {spec_to_save.total_ops} ops"
            )
        artifact = FailureArtifact(
            campaign=args.campaign,
            seed=args.seed,
            trial_index=index,
            failure=trial.failure,
            spec=spec_to_save,
            shrunk=not args.no_shrink,
            original_ops=original_ops,
            shrunk_ops=spec_to_save.total_ops,
            trace=trial.trace,
        )
        name = f"{args.campaign}-s{args.seed}-t{index:03d}.json"
        artifact.save(artifact_dir / name)
        artifacts.append(name)
        print(f"    artifact: {name}")

    campaign_result = run_campaign(
        args.campaign,
        seed=args.seed,
        trials=trials,
        mutation=args.mutate,
        on_trial=on_trial,
    )
    failures = violations + len(campaign_result.failures)
    print(
        f"== summary: litmus_violations={violations} "
        f"fuzz_failures={len(campaign_result.failures)} "
        f"campaign_digest={campaign_result.digest} =="
    )
    if artifacts:
        print(
            f"replay with: python -m repro verify replay "
            f"{args.artifact_dir}/{artifacts[0]}"
        )
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record, export, or summarize an observability capture.

    ``trace run`` executes in-process through
    :func:`repro.harness.runner.run_app` (no executor, no cache: the run
    must own a live machine to read the capture from). The simulated
    results are bit-identical with tracing on or off — the exported
    ``trace.json`` is pure addition.
    """
    from dataclasses import replace
    from pathlib import Path

    from repro.config.system import ObsConfig
    from repro.obs import (
        counter_track_names,
        export_chrome_trace,
        render_text_timeline,
        summarize_capture,
        validate_chrome_trace,
        write_chrome_trace,
    )

    if args.verb in ("export", "summarize"):
        capture = json.loads(Path(args.capture).read_text(encoding="utf-8"))
        if args.verb == "summarize":
            print(summarize_capture(capture))
            if args.timeline:
                print(render_text_timeline(capture, limit=args.limit))
            return 0
        if args.format == "text":
            text = render_text_timeline(capture, limit=args.limit)
            if args.out is None:
                print(text)
            else:
                Path(args.out).write_text(text + "\n", encoding="utf-8")
                print(f"wrote {args.out}")
            return 0
        out = Path(args.out if args.out is not None else "trace.json")
        write_chrome_trace(capture, out)
        print(f"wrote {out}")
        return 0

    # trace run
    from repro.harness.runner import run_app

    config = _config_with_mac(
        protocol_config(args.preset, num_cores=args.cores, seed=args.seed),
        args.mac,
    )
    obs_defaults = ObsConfig()
    config = replace(
        config,
        obs=ObsConfig(
            enabled=True,
            flight_recorder_depth=(
                args.depth
                if args.depth is not None
                else obs_defaults.flight_recorder_depth
            ),
            sample_interval=(
                args.sample_interval
                if args.sample_interval is not None
                else obs_defaults.sample_interval
            ),
        ),
    )
    sink: List = []
    result = run_app(
        args.app,
        config,
        args.memops,
        trace_seed=args.trace_seed,
        machine_sink=sink,
    )
    machine = sink[0]
    capture = machine.obs.capture(app=args.app)

    print(
        f"{args.app} on {args.preset} @ {args.cores} cores: "
        f"{result.cycles:,} cycles, {len(capture['spans'])} spans, "
        f"{len(capture['events']['events'])} recorder events"
    )
    orphans = capture.get("orphans", [])
    if orphans:
        print(f"WARNING: {len(orphans)} orphan spans (ids {orphans[:8]} ...)")

    if args.capture is not None:
        capture_path = Path(args.capture)
        capture_path.parent.mkdir(parents=True, exist_ok=True)
        capture_path.write_text(
            json.dumps(capture, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote capture {capture_path}")

    trace = export_chrome_trace(capture)
    problems = validate_chrome_trace(trace)
    out = Path(args.out)
    write_chrome_trace(capture, out)
    tracks = counter_track_names(trace)
    print(f"wrote {out} ({len(trace['traceEvents'])} events)")
    print(f"counter tracks: {', '.join(tracks)}")
    if args.timeline:
        print(render_text_timeline(capture, limit=args.limit))
    if problems:
        for problem in problems[:10]:
            print(f"trace validation problem: {problem}", file=sys.stderr)
        return 1
    return 1 if orphans else 0


def _cmd_traces(args: argparse.Namespace) -> int:
    """``traces record/convert/info/validate/replay`` — the recorded-trace
    subsystem (:mod:`repro.traces`; see docs/TRACES.md)."""
    from repro import api
    from repro.traces import TraceCorruptionError, TraceFormatError
    from repro.traces.replay import result_digest

    def show(info, extra: str = "") -> None:
        if getattr(args, "json", False):
            print(json.dumps(info.details, indent=2, sort_keys=True))
            return
        print(
            f"{info.path}: {info.app} x {info.num_cores} cores, "
            f"{info.records:,} records in {info.chunks} chunks "
            f"({info.codec}, {info.file_bytes:,} bytes, "
            f"{info.compression_ratio:.1f}x)"
        )
        print(f"  trace_id: {info.trace_id}")
        if extra:
            print(f"  {extra}")

    try:
        if args.verb == "record":
            if args.out is None:
                print("traces record requires --out PATH", file=sys.stderr)
                return 2
            info = api.record_trace(
                args.app,
                out=args.out,
                cores=args.cores,
                memops=args.memops,
                trace_seed=args.trace_seed,
                chunk_records=args.chunk_records,
                codec=args.codec,
            )
            show(info)
            return 0
        if args.verb == "convert":
            if args.out is None:
                print("traces convert requires --out PATH", file=sys.stderr)
                return 2
            info = api.convert_trace(
                args.src,
                out=args.out,
                cores=args.cores,
                app=args.app,
                chunk_records=args.chunk_records,
                codec=args.codec,
            )
            show(info)
            return 0
        if args.verb == "info":
            show(api.trace_info(args.path))
            return 0
        if args.verb == "validate":
            info = api.validate_trace(args.path)
            if getattr(args, "json", False):
                print(json.dumps(info.details, indent=2, sort_keys=True))
            else:
                print(
                    f"{info.path}: OK — {info.records:,} records in "
                    f"{info.chunks} chunks, trace_id {info.trace_id}"
                )
            return 0

        # replay
        result = api.replay(
            args.path,
            protocol=args.protocol,
            seed=args.seed,
            snapshot_every=args.snapshot_every,
            snapshot_path=args.snapshot_path,
            expect_trace_id=args.expect_trace_id,
        )
        if args.json:
            print(
                json.dumps(result_to_dict(result), indent=2, sort_keys=True)
            )
            return 0
        print(
            f"{result.app} replayed on {args.protocol}: "
            f"{result.cycles:,} cycles"
        )
        print(f"  L1 MPKI       : {result.mpki:.2f}")
        print(f"  memory stall  : {result.memory_stall_fraction:.1%}")
        print(f"  result digest : {result_digest(result)}")
        return 0
    except TraceCorruptionError as error:
        print(f"trace corrupt: {error}", file=sys.stderr)
        return 1
    except (TraceFormatError, OSError) as error:
        print(f"trace error: {error}", file=sys.stderr)
        return 2


def _cmd_apps_list(_args: argparse.Namespace) -> int:
    if getattr(_args, "macs", False):
        from repro.wireless.mac import registered_macs

        print(
            f"{'mac':14s} {'collision-free':14s} {'backoff':8s} "
            f"{'channels':9s} description"
        )
        for mac in registered_macs():
            print(
                f"{mac.name:14s} "
                f"{'yes' if mac.collision_free else 'no':14s} "
                f"{'yes' if mac.uses_backoff else 'no':8s} "
                f"{'multi' if mac.multi_channel else 'single':9s} "
                f"{mac.description}"
            )
        return 0
    if getattr(_args, "protocols", False):
        from repro.coherence.backend import registered_backends

        print(f"{'protocol':16s} {'wireless':8s} {'threshold':9s} description")
        for backend in registered_backends():
            print(
                f"{backend.name:16s} "
                f"{'yes' if backend.uses_wireless else 'no':8s} "
                f"{'yes' if backend.uses_sharer_threshold else 'no':9s} "
                f"{backend.description}"
            )
        return 0
    print(f"{'app':14s} {'suite':8s} {'paper MPKI':>10s} {'sharing mix'}")
    for name in ALL_APPS:
        profile = APP_PROFILES[name]
        mix = ", ".join(f"{s}w x{w:.2f}" for s, w in profile.sharing_mix)
        print(f"{name:14s} {profile.suite:8s} {profile.paper_mpki:>10.2f} {mix}")
    return 0


def _parse_protocols(value: str) -> Tuple[str, ...]:
    """Parse a ``--protocols`` list; 'all' means every registered backend."""
    if value.strip() == "all":
        return backend_names()
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _parse_macs(value: str) -> Tuple[str, ...]:
    """Parse a ``--macs`` list; 'all' means every registered MAC."""
    if value.strip() == "all":
        return mac_names()
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _campaign_spec_from_args(args: argparse.Namespace, directory):
    """Build a :class:`CampaignSpec` from ``campaign run/serve`` flags.

    Prints a usage error and returns ``None`` when the flags are invalid
    (missing apps for generator sweeps, missing --trace-path for trace
    sweeps, unknown app names).
    """
    from repro.harness.campaign import CampaignSpec

    if args.sweep == "trace":
        if not args.trace_path:
            print(
                "campaign --sweep trace requires --trace-path FILE",
                file=sys.stderr,
            )
            return None
        apps = ()
    else:
        if not args.apps:
            print(
                "campaign requires --apps (unless --sweep trace)",
                file=sys.stderr,
            )
            return None
        apps = (
            ALL_APPS
            if args.apps.strip() == "all"
            else tuple(
                name.strip() for name in args.apps.split(",") if name.strip()
            )
        )
        unknown = [a for a in apps if a not in APP_PROFILES]
        if unknown:
            print(f"unknown apps: {', '.join(unknown)}", file=sys.stderr)
            return None
    return CampaignSpec(
        name=args.name if args.name else directory.name,
        kind=args.sweep,
        apps=apps,
        cores=(args.cores,),
        memops=args.memops,
        seed=args.seed,
        thresholds=tuple(
            int(t) for t in args.thresholds.split(",") if t.strip()
        ),
        trace_seed=args.trace_seed,
        protocols=_parse_protocols(args.protocols),
        macs=_parse_macs(args.macs),
        trace_path=args.trace_path or "",
        trace_shards=args.trace_shards,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``campaign run/resume/status/render`` — see docs/API.md for the
    on-disk checkpoint formats and the resume-identity contract."""
    from pathlib import Path

    from repro.harness.campaign import (
        Campaign,
        CampaignError,
        CampaignSpec,
        run_campaign,
    )
    from repro.harness.supervisor import (
        RetryPolicy,
        SeededFaults,
        WorkerSupervisor,
    )
    from repro.obs.campaign import CampaignTelemetry

    try:
        if args.verb == "status":
            code = _campaign_live_status(args)
            if code is not None:
                return code
            if args.dir is None:
                print(
                    "campaign status requires DIR or --connect HOST:PORT",
                    file=sys.stderr,
                )
                return 2
            print(Campaign.load(Path(args.dir)).status().render())
            return 0

        if args.verb == "render":
            campaign = Campaign.load(Path(args.dir))
            spec = campaign.spec
            source = campaign.result_source(strict=args.strict)
            result = FIGURES[args.figure](
                apps=spec.apps,
                cores=spec.cores[0],
                memops=spec.memops,
                executor=source,
                protocols=spec.protocols,
                macs=spec.macs,
                seed=spec.seed,
            )
            if isinstance(result, dict):  # figure8-style multi-table
                partial = False
                for figure in result.values():
                    print(figure.text)
                    partial = partial or figure.partial
            else:
                print(result.text)
                partial = result.partial
            return 3 if partial else 0

        # run / resume
        if args.verb == "run":
            if args.out is None:
                print("campaign run requires --out DIR", file=sys.stderr)
                return 2
            directory = Path(args.out)
            spec = _campaign_spec_from_args(args, directory)
            if spec is None:
                return 2
        else:  # resume
            directory = Path(args.dir)
            spec = None

        faults = (
            SeededFaults.parse(args.inject, seed=args.inject_seed)
            if args.inject
            else None
        )
        supervisor = WorkerSupervisor(
            workers=args.workers,
            timeout=args.timeout,
            retry=RetryPolicy(
                max_attempts=args.retries,
                unit=args.backoff_unit,
                seed=args.backoff_seed,
            ),
            faults=faults,
        )
        telemetry = CampaignTelemetry()
        report = run_campaign(
            directory,
            spec,
            supervisor=supervisor,
            executor=_executor_from(args),
            telemetry=telemetry,
        )
        print(report.render())
        print("telemetry:")
        for line in telemetry.render_counters(indent="  "):
            print(line)
        if args.trace_out:
            written = telemetry.write_chrome_trace(
                args.trace_out, workers=supervisor.workers
            )
            print(f"wrote campaign trace {written}")
        return 0 if report.ok else 1
    except CampaignError as error:
        print(f"campaign error: {error}", file=sys.stderr)
        return 2


def _campaign_live_status(args: argparse.Namespace) -> Optional[int]:
    """Handle ``campaign status --connect/--live``.

    Returns an exit code when a live query was requested (successful or
    not), or ``None`` to fall through to the journal-based status.
    """
    from pathlib import Path

    from repro.harness.distributed import (
        coordinator_endpoint,
        live_status,
        render_live_status,
    )
    from repro.harness.protocol import ProtocolError, RpcError, parse_endpoint

    endpoint = None
    if args.connect:
        try:
            endpoint = parse_endpoint(args.connect)
        except ValueError as error:
            print(f"campaign status: {error}", file=sys.stderr)
            return 2
    elif args.live:
        if args.dir is None:
            print(
                "campaign status --live requires DIR", file=sys.stderr
            )
            return 2
        endpoint = coordinator_endpoint(Path(args.dir))
        if endpoint is None:
            print(
                f"no coordinator advertised in {args.dir} (is `campaign "
                "serve` running?)",
                file=sys.stderr,
            )
            return 2
    if endpoint is None:
        return None
    try:
        print(render_live_status(live_status(*endpoint)))
        return 0
    except (OSError, ProtocolError, RpcError) as error:
        print(
            f"coordinator at {endpoint[0]}:{endpoint[1]} unreachable: "
            f"{error}",
            file=sys.stderr,
        )
        return 2


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    """``campaign serve`` — the distributed analogue of ``campaign run``:
    an asyncio coordinator shards the plan, forks ``--workers`` local
    agents, and accepts remote ``campaign worker`` joins on --host:--port.
    """
    from pathlib import Path

    from repro.harness.campaign import CampaignError, CampaignSpec
    from repro.harness.distributed import DistributedError, run_distributed
    from repro.harness.resultstore import ResultStore
    from repro.harness.supervisor import RetryPolicy
    from repro.obs.campaign import CampaignTelemetry

    if args.out is None:
        print("campaign serve requires --out DIR", file=sys.stderr)
        return 2
    directory = Path(args.out)
    spec = None
    if args.apps or (args.sweep == "trace" and args.trace_path):
        spec = _campaign_spec_from_args(args, directory)
        if spec is None:
            return 2

    telemetry = CampaignTelemetry()
    try:
        report = run_distributed(
            directory,
            spec,
            workers=args.workers,
            shards=args.shards,
            host=args.host,
            port=args.port,
            executor=Executor(
                workers=1, use_cache=False if args.no_cache else None
            ),
            store=ResultStore(Path(args.store)) if args.store else None,
            tenant=args.tenant,
            retry=RetryPolicy(
                max_attempts=args.retries, seed=args.backoff_seed
            ),
            lease_timeout=args.lease_timeout,
            runner=args.runner,
            runner_seconds=args.runner_seconds,
            chaos_kill_after=args.chaos_kill_after,
            timeout=args.timeout,
            telemetry=telemetry,
        )
    except (CampaignError, DistributedError) as error:
        print(f"campaign error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    print("telemetry:")
    for line in telemetry.render_counters(indent="  "):
        print(line)
    if args.trace_out:
        written = telemetry.write_chrome_trace(
            args.trace_out, workers=report.workers
        )
        print(f"wrote campaign trace {written}")
    return 0 if report.ok else 1


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    """``campaign worker`` — join a coordinator, lease/steal/execute until
    the campaign drains, then exit."""
    from repro.harness.distributed import WorkerAgent
    from repro.harness.protocol import ProtocolError, RpcError, parse_endpoint

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as error:
        print(f"campaign worker: {error}", file=sys.stderr)
        return 2
    try:
        completed = WorkerAgent(host, port, name=args.name).run()
    except (OSError, ProtocolError, RpcError) as error:
        print(
            f"worker lost coordinator {host}:{port}: {error}",
            file=sys.stderr,
        )
        return 2
    print(f"worker drained: {completed} runs executed")
    return 0


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    """``campaign submit`` — enqueue pending runs into a live coordinator,
    respecting its token-bucket rate limit (retries on 429)."""
    import time as _time
    from pathlib import Path

    from repro.harness.distributed import coordinator_endpoint
    from repro.harness.protocol import (
        ERR_THROTTLED,
        ProtocolError,
        RpcClient,
        RpcError,
        parse_endpoint,
    )

    if args.connect:
        try:
            endpoint = parse_endpoint(args.connect)
        except ValueError as error:
            print(f"campaign submit: {error}", file=sys.stderr)
            return 2
    elif args.dir is not None:
        endpoint = coordinator_endpoint(Path(args.dir))
        if endpoint is None:
            print(
                f"no coordinator advertised in {args.dir} (is `campaign "
                "serve` running?)",
                file=sys.stderr,
            )
            return 2
    else:
        print(
            "campaign submit requires DIR or --connect HOST:PORT",
            file=sys.stderr,
        )
        return 2

    keys = (
        [key.strip() for key in args.keys.split(",") if key.strip()]
        if args.keys
        else None
    )
    deadline = _time.monotonic() + max(0.0, args.wait)
    throttled = 0
    try:
        with RpcClient(*endpoint) as client:
            while True:
                try:
                    result = client.call("submit", keys=keys)
                    break
                except RpcError as error:
                    if error.code != ERR_THROTTLED:
                        raise
                    throttled += 1
                    if _time.monotonic() >= deadline:
                        print(
                            f"submit still throttled after {args.wait:.1f}s "
                            f"({throttled} attempts): {error}",
                            file=sys.stderr,
                        )
                        return 1
                    _time.sleep(0.2)
    except (OSError, ProtocolError, RpcError) as error:
        print(
            f"coordinator at {endpoint[0]}:{endpoint[1]} unreachable: "
            f"{error}",
            file=sys.stderr,
        )
        return 2
    print(
        f"submitted: {result.get('accepted', 0)} queued, "
        f"{result.get('cache_hits', 0)} cache hits, "
        f"{result.get('store_hits', 0)} store hits, "
        f"{result.get('queued', 0)} now pending"
        + (f" ({throttled} throttled retries)" if throttled else "")
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    _warn_deprecated(args)
    handlers = {
        ("sim", "run"): _cmd_sim_run,
        ("sim", "compare"): _cmd_sim_compare,
        ("sim", "profile"): _cmd_sim_profile,
        ("figure", "render"): _cmd_figure_render,
        ("apps", "list"): _cmd_apps_list,
        ("verify", "run"): _cmd_verify,
        ("verify", "replay"): _cmd_verify,
        ("trace", "run"): _cmd_trace,
        ("trace", "export"): _cmd_trace,
        ("trace", "summarize"): _cmd_trace,
        ("traces", "record"): _cmd_traces,
        ("traces", "convert"): _cmd_traces,
        ("traces", "info"): _cmd_traces,
        ("traces", "validate"): _cmd_traces,
        ("traces", "replay"): _cmd_traces,
        ("campaign", "run"): _cmd_campaign,
        ("campaign", "resume"): _cmd_campaign,
        ("campaign", "status"): _cmd_campaign,
        ("campaign", "render"): _cmd_campaign,
        ("campaign", "serve"): _cmd_campaign_serve,
        ("campaign", "worker"): _cmd_campaign_worker,
        ("campaign", "submit"): _cmd_campaign_submit,
    }
    try:
        return handlers[(args.command, args.verb)](args)
    except BrokenPipeError:  # e.g. `repro sim run ... | head`
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-close race
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
