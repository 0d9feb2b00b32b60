"""Audit orchestration: extraction + mutation scan + rule proofs.

:func:`run_audit` runs all three passes over an :class:`EngineSource`
and folds the results into one :class:`~repro.verify.report.PassResult`
(``stats``: the extraction, the mutation sites, the witness proofs and
the exempted sites).  The result is "ok" iff every rule-matching
mutation site has a witness invalidation path (or a documented
exemption), every integrity check holds, every bee kind embeds at least
its expected invariant classes, and no generator embeds
:data:`BeeSettings` flags.  A finding's ``pass_name`` is the violated
rule and its ``subject`` the function the gap sits in.
"""

from __future__ import annotations

import ast

from repro.hiveaudit.callgraph import CallGraph
from repro.hiveaudit.extract import (
    EXPECTED_EMBEDDINGS,
    KindExtraction,
    extract_embeddings,
)
from repro.hiveaudit.mutations import scan_mutations
from repro.hiveaudit.rules import EXEMPTIONS, INTEGRITY_CHECKS, RULES
from repro.hiveaudit.source import EngineSource
from repro.verify.report import Finding, PassResult


def _check_extraction(
    extraction: dict[str, KindExtraction], findings: list
) -> None:
    for kind, expected in EXPECTED_EMBEDDINGS.items():
        ext = extraction.get(kind)
        got = ext.classes if ext is not None else frozenset()
        missing = expected - got
        if missing:
            findings.append(
                Finding(
                    "extraction-coverage", kind,
                    f"bee kind {kind!r} expected to embed "
                    f"{sorted(expected)} but extraction only proves "
                    f"{sorted(got)} (missing {sorted(missing)}) — the "
                    "analysis has degraded",
                )
            )
    for kind, ext in extraction.items():
        if "settings.flags" in ext.classes:
            findings.append(
                Finding(
                    "settings-never-embedded", kind,
                    f"bee kind {kind!r} embeds BeeSettings flags; a "
                    "settings swap would stale the bee with no "
                    "invalidation edge defined",
                )
            )


def _check_rules(
    graph: CallGraph, mutations: list, findings: list, stats: dict
) -> None:
    for rule in RULES:
        for site in mutations:
            if site.invariant != rule.invariant:
                continue
            if site.verb not in rule.verbs:
                continue
            exemption = EXEMPTIONS.get((rule.name, site.qualname))
            if exemption is not None:
                stats["exempted"].append({
                    "rule": rule.name,
                    "function": site.qualname,
                    "line": site.lineno,
                    "reason": exemption,
                })
                continue
            if not rule.targets:
                findings.append(
                    Finding(rule.name, site.qualname, rule.rationale,
                            site.module, site.lineno)
                )
                continue
            path = graph.reaches(site.qualname, rule.targets)
            if path is None:
                findings.append(
                    Finding(
                        rule.name, site.qualname,
                        f"no call path from {site.qualname} "
                        f"({site.detail}) to any of "
                        f"{sorted(rule.targets)} — {rule.rationale}",
                        site.module, site.lineno,
                    )
                )
            else:
                stats["proofs"].append({
                    "rule": rule.name,
                    "function": site.qualname,
                    "line": site.lineno,
                    "witness": path,
                })


def _has_unlink(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unlink"
        ):
            return True
    return False


def _removes_entries(fn: ast.FunctionDef, attr: str) -> bool:
    """Does *fn* ``del <...>.attr[key]`` or call ``<...>.attr.pop(...)``?"""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == attr
        ):
            return True
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == attr
                ):
                    return True
    return False


def _clears_attribute(fn: ast.FunctionDef, attr: str) -> bool:
    """Does *fn* call ``<...>.attr.clear()``?"""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "clear"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == attr
        ):
            return True
    return False


def _has_string_constant(fn: ast.FunctionDef, text: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Constant) and node.value == text:
            return True
    return False


def _reads_attribute(fn: ast.FunctionDef, attr: str) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.ctx, ast.Load)
        ):
            return True
    return False


def _page_bump_per_version_bump(fn: ast.FunctionDef) -> bool:
    """As many ``page_versions[...] += 1`` as ``version += 1`` (> 0)."""
    bumps = [
        node.target for node in ast.walk(fn) if isinstance(node, ast.AugAssign)
    ]
    heap = sum(
        1 for t in bumps if isinstance(t, ast.Attribute) and t.attr == "version"
    )
    pages = sum(
        1 for t in bumps
        if isinstance(t, ast.Subscript)
        and isinstance(t.value, ast.Attribute)
        and t.value.attr == "page_versions"
    )
    return heap > 0 and heap == pages


def _check_integrity(graph: CallGraph, findings: list) -> None:
    for name, qualname, description in INTEGRITY_CHECKS:
        info = graph.functions.get(qualname)
        if info is None:
            findings.append(
                Finding(name, qualname, f"{qualname} not found — {description}")
            )
            continue
        if name in ("disk-eviction-unlinks", "stale-load-unlinks"):
            ok = _has_unlink(info.node)
        elif name == "parallel-prefix-invalidated":
            ok = _has_string_constant(info.node, "PAR:")
        elif name == "parallel-epoch-consulted":
            ok = _reads_attribute(info.node, "query_epoch")
        elif name == "page-version-tracks-heap-version":
            ok = _page_bump_per_version_bump(info.node)
        elif name == "alter-edge-clears-query-bees":
            ok = _clears_attribute(info.node, "query_bees")
        else:  # query-budget-evicts, drop-edge-deletes-query-bees
            ok = _removes_entries(info.node, "query_bees")
        if not ok:
            findings.append(
                Finding(name, qualname, description, info.module, info.lineno)
            )


def run_audit(source: EngineSource | None = None) -> PassResult:
    """Run the full three-pass audit; see the module docstring."""
    source = source or EngineSource()
    extraction = extract_embeddings(source)
    graph = CallGraph(source)
    mutations = scan_mutations(source, graph)
    findings: list[Finding] = []
    stats: dict = {
        "bee_kinds": len(extraction),
        "mutation_sites": len(mutations),
        "extraction": {
            kind: ext.to_dict() for kind, ext in extraction.items()
        },
        "mutations": [site.to_dict() for site in mutations],
        "proofs": [],
        "exempted": [],
    }
    _check_extraction(extraction, findings)
    _check_rules(graph, mutations, findings, stats)
    _check_integrity(graph, findings)
    stats["proven_edges"] = len(stats["proofs"])
    return PassResult("hiveaudit", stats, findings)


__all__ = ["run_audit"]
