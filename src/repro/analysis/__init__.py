"""Project-specific static analysis for the repro engine.

The engine accumulated cross-cutting invariants that no test suite can
exhaustively cover — catalog/plan-cache/store mutations must happen
under the Engine's RW lock (PR 4), every WAL op code needs matched
encode/decode/replay paths (PR 5), every wire message needs
encode+parse+test coverage (PR 6), vector kernels must stay pure
(PR 7), and nothing may hold a lock or fsync on the forked worker side
(PR 8).  This package machine-checks them on every CI run:

* :mod:`repro.analysis.project` — loads a package tree into parsed
  modules with symbol tables, qualified-name resolution and
  per-function facts (calls, ``with`` contexts, raises, excepts,
  attribute writes, annotations, suppression pragmas);
* :mod:`repro.analysis.callgraph` — a best-effort call graph with a
  reachability engine answering "can any entry point reach X without
  passing through Y?";
* :mod:`repro.analysis.rules` — the rule registry and the project
  checkers (lock-discipline, exhaustiveness, purity, hygiene, typing,
  config-knobs);
* :mod:`repro.analysis.baseline` — a committed, triaged baseline so CI
  fails on *new* violations only;
* ``python -m repro.analysis [--json] [--baseline FILE]`` — the CLI.

A finding can be suppressed in place with an inline pragma on the
offending line (or the enclosing ``def``/``class`` line)::

    message = pickle.loads(conn.recv_bytes())  # repro: allow(hygiene-pickle)

Suppressions should say *why* in a neighbouring comment; the catalogue
of checked invariants lives in ``docs/invariants.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .baseline import Baseline, diff_violations
from .callgraph import CallGraph
from .project import FunctionInfo, ModuleInfo, Project
from .rules import AnalysisConfig, Violation, available_rules, run_rules

__all__ = [
    "AnalysisConfig",
    "Baseline",
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "Violation",
    "available_rules",
    "diff_violations",
    "run_rules",
    "analyze_tree",
]


def analyze_tree(root: Path | str, config: AnalysisConfig | None = None,
                 rules: Iterable[str] | None = None,
                 ) -> tuple[Project, list[Violation]]:
    """Load the package at *root* and run *rules* (default: all) over it.

    Returns ``(project, violations)`` — the loaded :class:`Project` and
    the sorted violation list.  This is the programmatic equivalent of
    ``python -m repro.analysis``.
    """
    project = Project.load(root)
    graph = CallGraph(project)
    return project, run_rules(project, graph, config=config, rules=rules)
