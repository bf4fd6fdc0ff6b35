"""Command-line interface: ``python -m repro <experiment> [options]``.

Each subcommand regenerates one paper artefact, prints the
measured-vs-paper table and one ``<claim>: PASS|FAIL`` line per paper
shape claim, and exits 1 when any claim fails; ``attack`` runs a single
annotated session.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, default_n: int) -> None:
    parser.add_argument("-n", "--loads", type=_at_least_one,
                        default=default_n,
                        help=f"loads per measurement point "
                             f"(default {default_n}; the paper used 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")


#: Subcommands backed by the parallel runner (repro.experiments.runner).
RUNNER_COMMANDS = ("table1", "figure5", "drops", "table2", "defenses",
                   "faults", "dos")


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the on-disk run cache")
    parser.add_argument("--cache-dir", default=None,
                        help="run-cache location (default $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-runs)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per grid cell; a cell "
                             "that overruns is killed and marked failed "
                             "(default: none)")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for a crashed/hung/raising "
                             "cell, with exponential backoff (default 0)")
    parser.add_argument("-w", "--workers", type=int, default=0,
                        metavar="N",
                        help="run the grid on N supervised persistent "
                             "worker processes (heartbeats, crash respawn, "
                             "poison-cell quarantine); default 0 runs "
                             "inline, results are identical either way")


def _runner_kwargs(args) -> dict:
    from repro.experiments.runner import RunCache

    cache = RunCache(root=args.cache_dir, enabled=not args.no_cache)
    return {"cache": cache,
            "cell_timeout_s": args.cell_timeout, "retries": args.retries,
            "workers": args.workers}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Depending on HTTP/2 for Privacy? "
                    "Good Luck!' (DSN 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack",
                            help="run one attacked survey load (quickstart)")
    attack.add_argument("--seed", type=int, default=7)

    for name, default_n, help_text in (
            ("baseline", 40, "E1: baseline multiplexing (no adversary)"),
            ("table1", 30, "E2: Table I jitter sweep"),
            ("figure5", 20, "E3: Fig. 5 bandwidth sweep"),
            ("drops", 25, "E4: Section IV-D drop burst"),
            ("table2", 40, "E5: Table II attack accuracy"),
            ("defenses", 15, "E7b: defenses evaluation"),
            ("faults", 20, "EF: attack success under injected faults"),
            ("dos", 2, "DOS: slow-HTTP/2 attacks vs hardening vs "
                       "detection"),
            ("fingerprint", 32, "E7a: ML classification of traces"),
            ("streaming", 8, "E8 extension: streaming traffic"),
            ("quic", 5, "E9 extension: the attack over HTTP/3-lite"),
            ("recovery-ablation", 15, "modern vs legacy TCP recovery"),
            ("scheduler-ablation", 15, "round-robin vs FIFO vs weighted "
                                       "server scheduler"),
            ("dupserve-ablation", 15, "duplicate-GET service on vs off"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd, default_n)
        if name in RUNNER_COMMANDS:
            _add_runner(cmd)
        if name == "table1":
            cmd.add_argument("--style", choices=("spacing", "netem"),
                             default="spacing")

    sub.add_parser("size-estimation", help="E6: Fig. 1 micro-benchmark")

    chaos = sub.add_parser(
        "chaos",
        help="fuzz sessions (topologies x faults x defenses) with "
             "invariant monitors armed; minimize any failure to a "
             "reproducer spec")
    chaos.add_argument("--seeds", type=int, default=25,
                       help="fuzzed sessions to draw from the master seed "
                            "(default 25)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed of the campaign (default 0)")
    chaos.add_argument("--budget", type=int, default=200,
                       help="max shrinker session runs per violation "
                            "(default 200)")
    chaos.add_argument("--plan", default=None, metavar="FILE",
                       help="fault-plan JSON forced into every generated "
                            "spec (replaces the random fault events)")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run one reproducer spec file and exit")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="report violations without minimizing them")
    chaos.add_argument("--out", default="chaos-reproducers",
                       help="directory for minimized reproducer specs "
                            "(default ./chaos-reproducers)")
    _add_runner(chaos)

    lint = sub.add_parser("lint",
                          help="whole-program static checks (rule "
                               "families DET/SIM/CACHE/PROTO/PERF/RES/"
                               "DOS/LEAK)")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "attack":
        _run_attack(args.seed)
        return 0

    if args.command == "lint":
        from repro.lint.cli import run_lint_command
        return run_lint_command(args)

    if args.command == "chaos":
        from repro.experiments.chaos import run_chaos_command
        return run_chaos_command(args, **_runner_kwargs(args))

    if args.command == "baseline":
        from repro.experiments.baseline import run_baseline
        result = run_baseline(n_loads=args.loads, base_seed=args.seed)
    elif args.command == "table1":
        from repro.experiments.table1 import run_table1
        result = run_table1(n_per_point=args.loads, base_seed=args.seed,
                            style=args.style, **_runner_kwargs(args))
    elif args.command == "figure5":
        from repro.experiments.figure5 import run_figure5
        result = run_figure5(n_per_point=args.loads, base_seed=args.seed,
                             **_runner_kwargs(args))
    elif args.command == "drops":
        from repro.experiments.drops import run_drops
        result = run_drops(n_per_point=args.loads, base_seed=args.seed,
                           **_runner_kwargs(args))
    elif args.command == "table2":
        from repro.experiments.table2 import run_table2
        result = run_table2(n_loads=args.loads, base_seed=args.seed,
                            **_runner_kwargs(args))
    elif args.command == "defenses":
        from repro.experiments.defenses_eval import run_defenses
        result = run_defenses(n_per_defense=args.loads, base_seed=args.seed,
                              **_runner_kwargs(args))
    elif args.command == "faults":
        from repro.experiments.faults_eval import run_faults_eval
        result = run_faults_eval(n_per_point=args.loads, base_seed=args.seed,
                                 **_runner_kwargs(args))
    elif args.command == "dos":
        from repro.experiments.dos_eval import run_dos_eval
        result = run_dos_eval(n_per_point=args.loads, base_seed=args.seed,
                              **_runner_kwargs(args))
    elif args.command == "size-estimation":
        from repro.experiments.size_estimation import run_size_estimation
        result = run_size_estimation()
    elif args.command == "fingerprint":
        from repro.experiments.fingerprinting import run_fingerprinting
        result = run_fingerprinting(n_loads=args.loads, base_seed=args.seed)
    elif args.command == "streaming":
        from repro.experiments.streaming import run_streaming
        result = run_streaming(n_sessions=args.loads, base_seed=args.seed)
    elif args.command == "quic":
        from repro.experiments.quic_transfer import run_quic_transfer
        result = run_quic_transfer(n_sessions=args.loads, base_seed=args.seed)
    elif args.command == "recovery-ablation":
        from repro.experiments.ablations import run_recovery_ablation
        result = run_recovery_ablation(n_per_point=args.loads,
                                       base_seed=args.seed)
    elif args.command == "scheduler-ablation":
        from repro.experiments.ablations import run_scheduler_ablation
        result = run_scheduler_ablation(n_per_point=args.loads,
                                        base_seed=args.seed)
    elif args.command == "dupserve-ablation":
        from repro.experiments.ablations import run_dupserve_ablation
        result = run_dupserve_ablation(n_per_point=args.loads,
                                       base_seed=args.seed)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)

    print(result.table().to_text())
    claims = result.claims() if hasattr(result, "claims") else []
    for text, holds in claims:
        print(f"{text}: {'PASS' if holds else 'FAIL'}")
    for failure in getattr(result, "failures", ()) or ():
        print(f"failed cell: {failure}")
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        print(telemetry.line())
    return 0 if all(holds for _, holds in claims) else 1


def _run_attack(seed: int) -> None:
    from repro import AttackConfig, SessionConfig, run_session

    result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
    report = result.report
    print("phases:")
    for phase, when in sorted(report.phase_times.items(), key=lambda kv: kv[1]):
        print(f"  {when:7.3f}s  {phase}")
    print("adversary decoded:", report.predicted_labels)
    print("ground truth     :", ["html"] + list(result.permutation))
    party_sequence = [l for l in report.predicted_labels if l != "html"]
    correct = sum(1 for i, party in enumerate(result.permutation)
                  if i < len(party_sequence) and party_sequence[i] == party)
    print(f"positions recovered: {correct}/8; resets={result.load.resets}; "
          f"load {'ok' if result.load.success else 'FAILED'}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
