#!/usr/bin/env python3
"""Docs hygiene checks, run by the CI `docs` job (stdlib only).

1. Link check: every relative markdown link in README.md and docs/*.md
   must resolve to an existing file (external http(s)/mailto links and
   same-file #anchors are skipped).

2. Engine handbook drift: every `EngineConfig::field`,
   `EngineCounters::member` and `AdpEngine::Method` named in docs/ENGINE.md
   must still be declared in src/engine/engine.h — and, the other way,
   every field those structs declare and every public method of
   `AdpEngine` must be named in the handbook. Either direction failing
   means docs/ENGINE.md silently rotted relative to the engine surface.

3. Streaming protocol drift: the same two-way check between
   docs/STREAMING.md and the streaming surface in
   src/engine/result_stream.h — `StreamItem`'s data members and
   `ResultStream`'s public methods.

4. Orphan check: every docs/*.md must be reachable from README.md by
   following relative markdown links (transitively). An unreachable doc is
   dead weight nobody can discover; link it or delete it. Scoped to docs/
   on purpose — repo-management files (ROADMAP.md, CHANGES.md, ...) are
   not navigation targets.

5. Observability catalog drift: the metric/span name literals declared in
   src/obs/names.h and the backticked `adp_*`/`adp.*` tokens in
   docs/OBSERVABILITY.md must agree in both directions. Fenced code blocks
   are exempt (exporter output samples legitimately show derived names
   like the per-bucket Prometheus series).

6. Relational core drift: the same two-way check between
   docs/RELATIONAL.md and the columnar storage surface in
   src/relational/relation.h — the public methods of `RelationInstance`.

7. Wire protocol drift: every `FrameType::kName` mentioned in
   docs/PROTOCOL.md must be an enumerator of `enum class FrameType` in
   src/net/wire.h — and every enumerator the enum declares must be
   documented. A frame added without a spec entry (or a spec entry for a
   removed frame) fails the build.

8. Workload harness drift: the same two-way check between
   docs/WORKLOAD.md and the workload surface — `FamilySpec` and
   `FamilyInstance` members in src/workload/families.h, `TrafficMix`
   and `DriverConfig` members in src/workload/driver.h, and
   `LoadDriver`'s public methods.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `code` spans are stripped first so example links inside backticks
# (protocol lines, shell output) are not treated as real links.
CODE_SPAN_RE = re.compile(r"`[^`]*`")


def md_link_targets(md):
    """Relative link targets of one markdown file (code spans/fences
    stripped), as (raw_target, resolved_path) pairs."""
    text = CODE_SPAN_RE.sub("", md.read_text(encoding="utf-8"))
    # Fenced code blocks hold shell/C++ samples, not navigable links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    out = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        out.append((target, (md.parent / path).resolve()))
    return out


def check_links(md_files):
    errors = []
    for md in md_files:
        for target, resolved in md_link_targets(md):
            if not resolved.exists():
                errors.append(f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


def check_orphans(md_files):
    """BFS over relative md links from README.md; every docs/*.md must be
    visited."""
    readme = REPO / "README.md"
    visited = set()
    frontier = [readme.resolve()]
    while frontier:
        md = frontier.pop()
        if md in visited or not md.exists() or md.suffix != ".md":
            continue
        visited.add(md)
        for _, resolved in md_link_targets(md):
            if resolved.suffix == ".md" and resolved not in visited:
                frontier.append(resolved)
    errors = []
    for md in md_files:
        if md.resolve() not in visited:
            errors.append(
                f"{md.relative_to(REPO)}: orphan — not reachable from "
                "README.md via markdown links"
            )
    return errors


def struct_members(header_text, struct_name):
    """Names of the data members declared in `struct <name> { ... };`."""
    start = header_text.index(f"struct {struct_name} {{")
    depth = 0
    body = []
    for i in range(start, len(header_text)):
        c = header_text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                break
        if depth >= 1:
            body.append(c)
    block = "".join(body)
    block = re.sub(r"//[^\n]*", "", block)  # comments mention other names
    members = set()
    # Both structs are plain aggregates: every `;`-terminated statement is a
    # data member. The member name is the last identifier of the declarator
    # once a default initializer and an array suffix are stripped — this
    # stays correct for pointer/reference/array/std::function members.
    for stmt in block.split(";"):
        stmt = stmt.split("=", 1)[0]           # drop default initializer
        stmt = re.sub(r"\[[^\]]*\]\s*$", "", stmt.strip())  # array suffix
        if not stmt or stmt.endswith(")"):     # defensive: skip functions
            continue
        m = re.search(r"(\w+)$", stmt)
        if m and not m.group(1).isdigit():
            members.add(m.group(1))
    return members


def class_public_methods(header_text, class_name):
    """Names of the public member functions of `class <name> { ... };`
    (constructors, the destructor, and operators excluded)."""
    start = header_text.index(f"class {class_name} {{")
    depth = 0
    body = []
    for i in range(start, len(header_text)):
        c = header_text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                break
        if depth >= 1:
            body.append(c)
    block = "".join(body)
    # Public section(s): classes here lead with `public:` and end with one
    # `private:` section; keep everything in between.
    block = block.split("private:", 1)[0]
    block = block.split("public:", 1)[-1]
    block = re.sub(r"//[^\n]*", "", block)
    # Inline bodies call other functions (`{ return pool_.num_threads(); }`).
    block = re.sub(r"\{[^{}]*\}", ";", block)
    methods = set()
    for m in re.finditer(r"(~?\w+)\s*\(", block):
        name = m.group(1)
        if name == class_name or name.startswith("~"):
            continue
        # `void` opens a function type (`std::function<void(AdpResponse)>`).
        if name in {"if", "while", "for", "switch", "return", "sizeof",
                    "void"}:
            continue
        methods.add(name)
    return methods


def two_way_drift(doc_rel, doc_text, header_rel, surface):
    """`surface` maps a type name to the member names its header declares;
    both directions of `Type::member` mentions must agree with the doc."""
    errors = []
    for type_name, declared in surface.items():
        documented = set(re.findall(rf"{type_name}::(\w+)", doc_text))
        for name in sorted(documented - declared):
            errors.append(
                f"{doc_rel} names {type_name}::{name}, which "
                f"{header_rel} no longer declares"
            )
        for name in sorted(declared - documented):
            errors.append(
                f"{header_rel} declares {type_name}::{name}, which "
                f"{doc_rel} does not document"
            )
    return errors


def check_engine_handbook():
    handbook = (REPO / "docs" / "ENGINE.md").read_text(encoding="utf-8")
    header = (REPO / "src" / "engine" / "engine.h").read_text(encoding="utf-8")
    return two_way_drift(
        "docs/ENGINE.md",
        handbook,
        "src/engine/engine.h",
        {
            "EngineConfig": struct_members(header, "EngineConfig"),
            "EngineCounters": struct_members(header, "EngineCounters"),
            "AdpEngine": class_public_methods(header, "AdpEngine"),
        },
    )


def check_streaming_protocol():
    spec = (REPO / "docs" / "STREAMING.md").read_text(encoding="utf-8")
    header = (REPO / "src" / "engine" / "result_stream.h").read_text(
        encoding="utf-8"
    )
    return two_way_drift(
        "docs/STREAMING.md",
        spec,
        "src/engine/result_stream.h",
        {
            "StreamItem": struct_members(header, "StreamItem"),
            "ResultStream": class_public_methods(header, "ResultStream"),
        },
    )


def check_relational_core():
    doc = (REPO / "docs" / "RELATIONAL.md").read_text(encoding="utf-8")
    header = (REPO / "src" / "relational" / "relation.h").read_text(
        encoding="utf-8"
    )
    return two_way_drift(
        "docs/RELATIONAL.md",
        doc,
        "src/relational/relation.h",
        {
            "RelationInstance": class_public_methods(
                header, "RelationInstance"
            ),
        },
    )


def enum_members(header_text, enum_name):
    """Enumerator names of `enum class <name> ... { ... };`."""
    start = header_text.index(f"enum class {enum_name}")
    block = header_text[header_text.index("{", start):
                        header_text.index("};", start)]
    block = re.sub(r"//[^\n]*", "", block)
    members = set()
    for stmt in block.strip("{").split(","):
        m = re.match(r"\s*(\w+)", stmt)
        if m:
            members.add(m.group(1))
    return members


def check_wire_protocol():
    spec = (REPO / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    header = (REPO / "src" / "net" / "wire.h").read_text(encoding="utf-8")
    return two_way_drift(
        "docs/PROTOCOL.md",
        spec,
        "src/net/wire.h",
        {"FrameType": enum_members(header, "FrameType")},
    )


def check_workload_harness():
    doc = (REPO / "docs" / "WORKLOAD.md").read_text(encoding="utf-8")
    families = (REPO / "src" / "workload" / "families.h").read_text(
        encoding="utf-8"
    )
    driver = (REPO / "src" / "workload" / "driver.h").read_text(
        encoding="utf-8"
    )
    return two_way_drift(
        "docs/WORKLOAD.md",
        doc,
        "src/workload/families.h",
        {
            "FamilySpec": struct_members(families, "FamilySpec"),
            "FamilyInstance": struct_members(families, "FamilyInstance"),
        },
    ) + two_way_drift(
        "docs/WORKLOAD.md",
        doc,
        "src/workload/driver.h",
        {
            "TrafficMix": struct_members(driver, "TrafficMix"),
            "DriverConfig": struct_members(driver, "DriverConfig"),
            "LoadDriver": class_public_methods(driver, "LoadDriver"),
        },
    )


OBS_NAME_RE = re.compile(r"adp(?:_[a-z0-9_]+|\.[a-z._]+[a-z])")
# Name-shaped tokens that are not catalog entries: binaries and tools.
OBS_NAME_EXEMPT = {"adp_cli", "adp_netserver", "adp_netclient"}


def check_observability_catalog():
    """Two-way drift between src/obs/names.h string literals and the
    backticked name tokens of docs/OBSERVABILITY.md."""
    header = (REPO / "src" / "obs" / "names.h").read_text(encoding="utf-8")
    declared = set()
    for literal in re.findall(r'"([^"\n]+)"', header):
        if OBS_NAME_RE.fullmatch(literal):
            declared.add(literal)
    doc = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    # Fenced blocks show exporter output (derived series names); only
    # inline `code` spans document catalog entries.
    doc = re.sub(r"```.*?```", "", doc, flags=re.DOTALL)
    documented = set()
    for span in re.findall(r"`([^`\n]+)`", doc):
        if OBS_NAME_RE.fullmatch(span) and span not in OBS_NAME_EXEMPT:
            documented.add(span)
    errors = []
    for name in sorted(documented - declared):
        errors.append(
            f"docs/OBSERVABILITY.md names `{name}`, which src/obs/names.h "
            "no longer declares"
        )
    for name in sorted(declared - documented):
        errors.append(
            f"src/obs/names.h declares \"{name}\", which "
            "docs/OBSERVABILITY.md does not document"
        )
    return errors


def main():
    md_files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    docs_only = [p for p in md_files if p.parent == REPO / "docs"]
    errors = (
        check_links(md_files)
        + check_orphans(docs_only)
        + check_engine_handbook()
        + check_streaming_protocol()
        + check_observability_catalog()
        + check_relational_core()
        + check_wire_protocol()
        + check_workload_harness()
    )
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    names = ", ".join(str(p.relative_to(REPO)) for p in md_files)
    print(f"docs OK: links resolve in {names}; every docs/*.md is reachable "
          "from README.md; docs/ENGINE.md agrees with src/engine/engine.h; "
          "docs/STREAMING.md agrees with src/engine/result_stream.h; "
          "docs/OBSERVABILITY.md agrees with src/obs/names.h; "
          "docs/RELATIONAL.md agrees with src/relational/relation.h; "
          "docs/PROTOCOL.md agrees with src/net/wire.h; "
          "docs/WORKLOAD.md agrees with src/workload/{families,driver}.h")
    return 0


if __name__ == "__main__":
    sys.exit(main())
