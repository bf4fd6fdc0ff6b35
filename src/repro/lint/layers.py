"""The machine-checked layer map (docs/ARCHITECTURE.md).

Lower layers must never import higher ones.  The map below is the
single source of truth for DET004; keep it in sync with the diagram in
docs/ARCHITECTURE.md when a new sub-package is added.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Layer names, lowest first.  ``interface`` (the CLI, the package root
#: re-exports and the linter itself) sits above everything and may
#: import freely.
LAYER_ORDER = (
    "substrate",
    "transport",
    "protocols",
    "application",
    "analysis",
    "experiments",
    "interface",
)

#: Longest-prefix map from dotted module name to layer.
PACKAGE_LAYERS = (
    ("repro.simnet", "substrate"),
    ("repro.tcp", "transport"),
    ("repro.tls", "transport"),
    ("repro.http1", "protocols"),
    ("repro.http2", "protocols"),
    ("repro.quic", "protocols"),
    ("repro.browser", "application"),
    ("repro.website", "application"),
    # Attack agents are hostile *clients*: they drive the same
    # transport/protocol stacks the browser does, so they live in the
    # application layer beside it.
    ("repro.attacks", "application"),
    ("repro.core", "analysis"),
    ("repro.analysis", "analysis"),
    ("repro.defenses", "analysis"),
    ("repro.faults", "analysis"),
    ("repro.invariants", "analysis"),
    # The runner substrate (forked worker pool) rides in the
    # experiments layer with the grid runner itself; the explicit entry
    # documents that it is *not* interface-layer tooling even though
    # the CLI plumbs flags straight into it.
    ("repro.experiments.workers", "experiments"),
    ("repro.experiments", "experiments"),
    # The taint engine is part of the linter; the explicit entry keeps
    # the layer map in lockstep with the module list in docs/LINTING.md
    # (and gives DET004 a longest-prefix anchor if repro.lint ever
    # splits).
    ("repro.lint.taint", "interface"),
    ("repro.lint", "interface"),
    ("repro.cli", "interface"),
    ("repro.__main__", "interface"),
    ("repro", "interface"),
)


def layer_of(module: str) -> Optional[Tuple[str, int]]:
    """Return ``(layer_name, rank)`` for a dotted module name.

    Longest matching prefix wins, so ``repro.simnet.engine`` resolves via
    ``repro.simnet`` before falling back to the ``repro`` root entry.
    Modules outside the map (tests, fixtures, third-party) return None
    and are exempt from DET004.
    """
    best = None
    for prefix, layer in PACKAGE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    if best is None:
        return None
    layer = best[1]
    return layer, LAYER_ORDER.index(layer)


def resolve_relative(package: str, level: int, target: Optional[str]) -> str:
    """Resolve a ``from . import x``-style import to a dotted name.

    ``package`` is the importing module's containing package (for a
    package ``__init__`` that is the package itself); ``level`` is the
    number of leading dots; ``target`` is the module text after them
    (None for a bare ``from . import x``).
    """
    parts = package.split(".") if package else []
    # One dot means the containing package itself; each further dot
    # climbs one more level.
    drop = level - 1
    base = parts[:len(parts) - drop] if drop <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)
