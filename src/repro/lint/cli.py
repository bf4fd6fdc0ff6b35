"""Command line for the linter: ``repro lint`` / ``python -m repro.lint``.

Exit status: 0 when the tree is clean, 1 when any finding (including an
unused suppression) survives, 2 on usage errors (unknown rule codes,
unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint.engine import ALL_CODES, lint_paths, source_line
from repro.lint.rules import RULES


def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def package_root() -> str:
    """Directory of the installed ``repro`` package (the default
    target when no paths are given)."""
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared by ``repro lint`` and -m)."""
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format (default text)")
    parser.add_argument("--select", type=_csv, default=None,
                        metavar="CODES",
                        help="comma-separated rule codes to run "
                             f"(default: all of {', '.join(ALL_CODES)})")
    parser.add_argument("--ignore", type=_csv, default=None,
                        metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="drop findings recorded in this baseline "
                             "file (see docs/LINTING.md)")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write surviving findings to FILE as a new "
                             "baseline and exit 0")
    parser.add_argument("--stats", action="store_true",
                        help="print a per-rule summary table after the "
                             "findings")


def _print_stats(report) -> None:
    counts = report.by_code()
    print("per-rule summary:")
    for code in sorted(counts):
        description = RULES.get(code, "(engine diagnostic)")
        print(f"  {code:<9} {counts[code]:>4}  {description.split(';')[0]}")
    if not counts:
        print("  (no findings)")
    print(f"  baselined: {report.baselined}, "
          f"stale baseline entries: {report.stale_baseline}")
    for path, code, context, count in report.stale_entries:
        suffix = f" (x{count})" if count > 1 else ""
        print(f"  stale: {path} {code} {context!r}{suffix} -- "
              f"matches nothing; drop it or regenerate with "
              f"--write-baseline")


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit status."""
    paths = list(args.paths) or [package_root()]
    try:
        report = lint_paths(paths, select=args.select, ignore=args.ignore,
                            baseline_path=args.baseline)
    except (ValueError, OSError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    write_to = args.write_baseline
    if write_to:
        from repro.lint.baseline import write_baseline
        cache = {}
        entries = write_baseline(write_to, report.findings,
                                 lambda f: source_line(cache, f))
        print(f"wrote {entries} baseline entr"
              f"{'y' if entries == 1 else 'ies'} "
              f"({len(report.findings)} findings) to {write_to}",
              file=sys.stderr)
        return 0

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        counts = ", ".join(f"{code}: {n}" for code, n
                           in sorted(report.by_code().items()))
        summary = (f"{len(report.findings)} finding"
                   f"{'' if len(report.findings) == 1 else 's'}"
                   f" ({report.files_checked} files checked")
        if report.baselined:
            summary += f", {report.baselined} baselined"
        if report.stale_baseline:
            summary += f", {report.stale_baseline} stale baseline entries"
        summary += f"; {counts})" if counts else ")"
        print(summary)
    if args.stats and args.format != "json":
        _print_stats(report)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Whole-program determinism, caching, DoS, "
                    "performance and information-boundary linter for the "
                    "repro package (rule families DET/CACHE/PERF/DOS/"
                    "LEAK; see docs/LINTING.md)")
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
