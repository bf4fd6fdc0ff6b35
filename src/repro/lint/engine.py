"""File discovery, whole-program model construction, and rule dispatch.

A lint run parses every discovered file once, builds the
:class:`repro.lint.project.Project` (symbol table, call graph,
reachability closures) over all of them, then dispatches the per-module
visitor with that project in hand so the interprocedural rules (DET001
through helpers, CACHE/PERF reachability) see across file boundaries,
and finally the project-level rules (DOS002 handler appends, LEAK
taint flows).

Files that are not valid UTF-8, or carry a UTF-8 BOM, produce a
structured ``E902`` finding instead of a traceback; syntax errors
produce ``E999``.  Both keep the exit status nonzero without aborting
the run.
"""

from __future__ import annotations

import ast
import codecs
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.families import check_dos_appends
from repro.lint.findings import Finding, LintReport
from repro.lint.project import ModuleInfo, Project
from repro.lint.rules import RULES, check_module
from repro.lint.suppressions import (UNKNOWN_CODE, UNUSED_CODE,
                                     apply_suppressions)
from repro.lint.taint import check_taint


def _project_findings(project, enabled) -> List[Finding]:
    """The whole-program rules: DOS002 appends, LEAK taint flows."""
    findings = list(check_dos_appends(project, set(enabled)))
    findings.extend(check_taint(project, set(enabled)))
    return findings


ALL_CODES = tuple(sorted(RULES))

#: Codes the engine emits itself (not selectable rules, but legal in
#: suppression comments).
SPECIAL_CODES = ("E902", "E999", UNUSED_CODE, UNKNOWN_CODE)

KNOWN_CODES = frozenset(ALL_CODES) | frozenset(SPECIAL_CODES)


def _expand_codes(tokens: Sequence[str]) -> set:
    """Expand --select/--ignore tokens to exact codes.

    A token is either an exact code (``LEAK001``) or a family prefix
    (``LEAK``, ``DET``) that selects every code starting with it.
    Unknown tokens raise, same as before.
    """
    resolved = set()
    unknown: List[str] = []
    for token in tokens:
        token = token.upper()
        if token in RULES:
            resolved.add(token)
            continue
        family = {code for code in ALL_CODES if code.startswith(token)}
        if family:
            resolved |= family
        else:
            unknown.append(token)
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return resolved


def resolve_codes(select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None) -> frozenset:
    """The enabled rule-code set for --select/--ignore.

    Both accept exact codes and family prefixes (``--select LEAK``
    enables LEAK001 and LEAK002)."""
    enabled = _expand_codes(select) if select else set(ALL_CODES)
    if ignore:
        enabled -= _expand_codes(ignore)
    return frozenset(enabled)


def module_name_for(path: str) -> str:
    """Dotted module name, derived by walking package ``__init__``s up."""
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts) if parts else stem


def _package_of(module: str, path: str) -> str:
    if os.path.basename(path) == "__init__.py":
        return module
    return module.rpartition(".")[0]


def discover_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    return sorted(dict.fromkeys(files))


def _decode(raw: bytes, rel: str) -> Tuple[Optional[str], List[Finding]]:
    """Decode file bytes, reporting BOM / non-UTF-8 as E902 findings."""
    findings: List[Finding] = []
    if raw.startswith(codecs.BOM_UTF8):
        findings.append(Finding(
            path=rel, line=1, col=0, code="E902",
            message="file starts with a UTF-8 BOM; save without a BOM "
                    "(the rest of the file was still linted)"))
        raw = raw[len(codecs.BOM_UTF8):]
    try:
        return raw.decode("utf-8"), findings
    except UnicodeDecodeError as exc:
        findings.append(Finding(
            path=rel, line=1, col=0, code="E902",
            message=f"file is not valid UTF-8 ({exc.reason} at byte "
                    f"{exc.start}); file skipped"))
        return None, findings


def _parse_files(files: Sequence[str]):
    """(modules, io/syntax findings) for every discovered file."""
    contexts: List[ModuleInfo] = []
    findings: List[Finding] = []
    for file_path in files:
        rel = os.path.relpath(file_path)
        with open(file_path, "rb") as handle:
            raw = handle.read()
        source, file_findings = _decode(raw, rel)
        findings.extend(file_findings)
        if source is None:
            continue
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            findings.append(Finding(
                path=rel, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                code="E999", message=f"syntax error: {exc.msg}"))
            continue
        module = module_name_for(file_path)
        contexts.append(ModuleInfo(
            path=rel, module=module,
            package=_package_of(module, file_path),
            tree=tree, source=source))
    return contexts, findings


def build_project(contexts: Sequence[ModuleInfo]) -> Project:
    """The whole-program model over every successfully parsed module."""
    return Project(contexts)


def lint_source(source: str, module_name: str, path: str = "<string>",
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None,
                package: Optional[str] = None) -> List[Finding]:
    """Lint one source string (the unit the fixture tests drive).

    The module is its own single-file project, so the interprocedural
    rules work within it (helpers, schedule seeds, cell specs naming
    this module).
    """
    enabled = resolve_codes(select, ignore)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, code="E999",
                        message=f"syntax error: {exc.msg}")]
    if package is None:
        package = module_name.rpartition(".")[0]
    ctx = ModuleInfo(path=path, module=module_name, package=package,
                     tree=tree, source=source)
    project = build_project([ctx])
    findings = check_module(ctx, set(enabled), project)
    findings.extend(_project_findings(project, enabled))
    kept, _ = apply_suppressions(findings, source, path, enabled,
                                 known_codes=KNOWN_CODES)
    kept.sort(key=lambda f: f.sort_key())
    return kept


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None,
               baseline_path: Optional[str] = None) -> LintReport:
    """Lint files and directories; the CLI's workhorse."""
    enabled = resolve_codes(select, ignore)
    files = discover_files(paths)
    contexts, findings = _parse_files(files)
    project = build_project(contexts)
    per_file: Dict[str, List[Finding]] = {
        ctx.path: check_module(ctx, set(enabled), project)
        for ctx in contexts}
    for finding in _project_findings(project, enabled):
        per_file.setdefault(finding.path, []).append(finding)
    sources = {ctx.path: ctx.source for ctx in contexts}
    for ctx in contexts:
        kept, _ = apply_suppressions(per_file[ctx.path], ctx.source,
                                     ctx.path, enabled,
                                     known_codes=KNOWN_CODES)
        findings.extend(kept)
    baselined = stale = 0
    stale_entries: Tuple[Tuple[str, str, str, int], ...] = ()
    if baseline_path is not None:
        baseline = Baseline.load(baseline_path)
        surviving: List[Finding] = []
        for finding in findings:
            if baseline.absorb(finding,
                               source_line(sources, finding)):
                baselined += 1
            else:
                surviving.append(finding)
        stale = baseline.stale_count()
        stale_entries = tuple(baseline.stale_entries())
        findings = surviving
    findings.sort(key=lambda f: f.sort_key())
    return LintReport(findings=findings, files_checked=len(files),
                      baselined=baselined, stale_baseline=stale,
                      stale_entries=stale_entries)


def source_line(sources: Dict[str, str], finding: Finding) -> str:
    """The source line a finding points at ('' when unknown)."""
    source = sources.get(finding.path)
    if source is None:
        try:
            with open(finding.path, "rb") as handle:
                decoded, _ = _decode(handle.read(), finding.path)
            source = decoded or ""
        except OSError:
            source = ""
        sources[finding.path] = source
    lines = source.splitlines()
    if 1 <= finding.line <= len(lines):
        return lines[finding.line - 1]
    return ""


__all__ = ["ALL_CODES", "KNOWN_CODES", "SPECIAL_CODES", "UNUSED_CODE",
           "UNKNOWN_CODE", "build_project", "discover_files",
           "lint_paths", "lint_source", "module_name_for",
           "resolve_codes", "source_line"]
