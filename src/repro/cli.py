"""Command-line interface: ``python -m repro <experiment> [options]``.

Each subcommand regenerates one paper artefact, prints the
measured-vs-paper table and one ``<claim>: PASS|FAIL`` line per paper
shape claim, and exits 1 when any claim fails; ``chaos`` prints its
fuzzing campaign the same way, and ``attack`` runs a single annotated
session.
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


def _add_common(parser: argparse.ArgumentParser, default_n: int,
                what: str) -> None:
    parser.add_argument("-n", "--loads", type=_at_least_one,
                        default=default_n,
                        help=f"{what} (default {default_n})")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")


#: One row per grid command, each paper artefact and the chaos campaign:
#: subcommand, default ``-n`` (None: the artefact is a fixed run and
#: takes no ``-n``/``--seed``), entry point and help.  An entry point takes ``(n, base_seed, **grid)`` -- or
#: ``**grid`` alone -- passes ``grid`` to ``run_grid``, and returns a
#: result with ``table()`` and, optionally, ``claims()``, ``failures``
#: and ``telemetry``.
ARTEFACTS = (
    ("baseline", 40, "repro.experiments.baseline:run_baseline",
     "E1: baseline multiplexing (no adversary)"),
    ("table1", 30, "repro.experiments.table1:run_table1",
     "E2: Table I jitter sweep"),
    ("figure5", 20, "repro.experiments.figure5:run_figure5",
     "E3: Fig. 5 bandwidth sweep"),
    ("drops", 25, "repro.experiments.drops:run_drops",
     "E4: Section IV-D drop burst"),
    ("table2", 40, "repro.experiments.table2:run_table2",
     "E5: Table II attack accuracy"),
    ("defenses", 15, "repro.experiments.defenses_eval:run_defenses",
     "E7b: defenses evaluation"),
    ("faults", 20, "repro.experiments.faults_eval:run_faults_eval",
     "EF: attack success under injected faults"),
    ("dos", 2, "repro.experiments.dos_eval:run_dos_eval",
     "DOS: slow-HTTP/2 attacks vs hardening vs detection"),
    ("fingerprint", 32, "repro.experiments.fingerprinting:run_fingerprinting",
     "E7a: ML classification of traces"),
    ("streaming", 8, "repro.experiments.streaming:run_streaming",
     "E8 extension: streaming traffic"),
    ("quic", 5, "repro.experiments.quic_transfer:run_quic_transfer",
     "E9 extension: the attack over HTTP/3-lite"),
    ("recovery-ablation", 15,
     "repro.experiments.ablations:run_recovery_ablation",
     "modern vs legacy TCP recovery"),
    ("scheduler-ablation", 15,
     "repro.experiments.ablations:run_scheduler_ablation",
     "round-robin vs FIFO vs weighted server scheduler"),
    ("dupserve-ablation", 15,
     "repro.experiments.ablations:run_dupserve_ablation",
     "duplicate-GET service on vs off"),
    ("size-estimation", None,
     "repro.experiments.size_estimation:run_size_estimation",
     "E6: Fig. 1 micro-benchmark"),
    ("chaos", 25, "repro.experiments.chaos:run_chaos",
     "fuzz sessions (topologies x faults x defenses) with invariant "
     "monitors armed; minimize any failure to a reproducer spec"),
)


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
    parser.add_argument("-w", "--workers", type=int, default=0,
                        metavar="N",
                        help="run the grid on N forked worker processes "
                             "(crash isolation); default 0 runs inline, "
                             "results are identical either way")


def _runner_kwargs(options: dict) -> dict:
    """Pop the runner options out of ``options`` (the parsed
    namespace's dict) as ``run_grid`` keyword arguments."""
    from repro.experiments.runner import RunCache

    cache = RunCache(root=options.pop("cache_dir"),
                     enabled=not options.pop("no_cache"))
    return {"cache": cache,
            "cell_timeout_s": options.pop("cell_timeout"),
            "workers": options.pop("workers")}


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.chaos import load_replay_spec
    from repro.lint.cli import add_lint_arguments, run_lint_command

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Depending on HTTP/2 for Privacy? "
                    "Good Luck!' (DSN 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack",
                            help="run one attacked survey load (quickstart)")
    attack.add_argument("--seed", type=int, default=7)
    attack.set_defaults(run=_run_attack)

    for name, default_n, entry, help_text in ARTEFACTS:
        cmd = sub.add_parser(name, help=help_text)
        if default_n is not None:
            _add_common(cmd, default_n,
                        "fuzzed sessions" if name == "chaos"
                        else "loads per measurement point, 100 in the "
                             "paper")
        _add_runner(cmd)
        if name == "table1":
            cmd.add_argument("--style", choices=("spacing", "netem"),
                             default="spacing")
        if name == "chaos":
            cmd.add_argument("--no-shrink", dest="shrink",
                             action="store_false",
                             help="report violations without minimizing "
                                  "them")
            cmd.add_argument("--out", dest="out_dir",
                             default="chaos-reproducers",
                             help="directory for minimized reproducer "
                                  "specs (default ./chaos-reproducers)")
            cmd.add_argument("--replay", type=load_replay_spec,
                             metavar="FILE",
                             help="re-run one reproducer spec file "
                                  "instead of a campaign")
        cmd.set_defaults(run=_run_artefact, entry=entry)

    lint = sub.add_parser("lint",
                          help="whole-program static checks (rule "
                               "families DET/CACHE/PERF/DOS/LEAK)")
    add_lint_arguments(lint)
    lint.set_defaults(run=run_lint_command)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


def _run_artefact(args: argparse.Namespace) -> int:
    """Regenerate one artefact: its table, one line per claim, failed
    cells and the runner telemetry; exit 1 when a claim or a cell
    fails."""
    from repro.experiments.runner import GridError, resolve_cell

    options = {name: value for name, value in vars(args).items()
               if name not in ("command", "run", "entry")}
    positional = [options.pop(name) for name in ("loads", "seed")
                  if name in options]
    runner = _runner_kwargs(options)
    try:
        result = resolve_cell(args.entry)(*positional, **options, **runner)
    except GridError as exc:
        for failure in exc.failures:
            print(f"failed cell: {failure.spec.label()}: {failure.error}")
        return 1

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


def _run_attack(args: argparse.Namespace) -> int:
    from repro import AttackConfig, SessionConfig, run_session

    result = run_session(SessionConfig(seed=args.seed,
                                       attack=AttackConfig()))
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
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
