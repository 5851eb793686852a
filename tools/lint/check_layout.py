#!/usr/bin/env python3
"""Frozen-POD layout lint + hot-path hygiene checks.

Three rules, all cheap enough to run in every CI job:

1. Layout manifest: every struct in tools/lint/layout_manifest.json must
   (a) declare exactly the manifest's fields, in order, in its header;
   (b) carry a `static_assert(sizeof(S) == N)` pin matching the manifest;
   (c) carry a `static_assert(offsetof(S, field) == N)` pin for every
       field, matching the manifest.
   The compiler proves the asserts are TRUE; this lint proves the asserts
   EXIST and agree with the checked-in manifest, so layout drift cannot be
   "fixed" by quietly editing an assert -- the manifest diff shows up in
   review as a format change.

2. Kernel purity: no mutex acquisition in files under src/core/kernels/.
   The kernel layer is the per-query inner loop; a lock there is always a
   bug (the serving stack provides all synchronization above it).

3. Hot-path regions: code between `// PROBGRAPH_HOT_PATH_BEGIN(name)` and
   `// PROBGRAPH_HOT_PATH_END(name)` markers must not allocate, lock, or
   grow containers (denylist below). The markers fence the LiveEngine pin
   path, the lock-free instrument record paths and the Bloom membership
   compaction kernel; the EXPECTED_REGIONS set pins the markers themselves
   so deleting one is also a lint failure.

Exit status 0 iff every rule passes. No dependencies beyond the stdlib.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

MANIFEST = "tools/lint/layout_manifest.json"

MUTEX_FREE_DIRS = ["src/core/kernels"]
MUTEX_TOKENS = re.compile(
    r"std::mutex|util::Mutex\b|MutexLock|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable|\.lock\s*\(|\.try_lock\s*\("
)

EXPECTED_REGIONS = {
    "src/core/kernels/kernels.hpp": ["bloom-member-compact"],
    "src/engine/generation.hpp": ["live-pin"],
    "src/obs/instruments.hpp": ["counter-add", "gauge-set", "histogram-observe"],
}
HOT_PATH_DENYLIST = re.compile(
    r"\bnew\b|\bdelete\b|\bmalloc\b|\bcalloc\b|\brealloc\b|\bfree\s*\("
    r"|make_unique|make_shared|push_back|emplace_back|emplace\s*\("
    r"|\.resize\s*\(|\.reserve\s*\(|std::string\b|to_string"
    r"|std::mutex|util::Mutex\b|MutexLock|lock_guard|unique_lock|scoped_lock"
    r"|\.lock\s*\(|throw\b"
)
BEGIN_RE = re.compile(r"//\s*PROBGRAPH_HOT_PATH_BEGIN\(([\w-]+)\)")
END_RE = re.compile(r"//\s*PROBGRAPH_HOT_PATH_END\(([\w-]+)\)")


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':  # skip string literals so "//" inside one survives
            out.append(ch)
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out.append(text[i])
                    i += 1
                    if i < n:
                        out.append(text[i])
                        i += 1
                    continue
                out.append(text[i])
                i += 1
            if i < n:
                out.append('"')
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def drop_canary_blocks(text: str) -> str:
    """Remove the PROBGRAPH_LAYOUT_DRIFT_CANARY #if blocks (test-only)."""
    out_lines = []
    depth_in_canary = 0
    for line in text.splitlines():
        stripped = line.strip()
        if depth_in_canary:
            if stripped.startswith("#if"):
                depth_in_canary += 1
            elif stripped.startswith("#endif"):
                depth_in_canary -= 1
            continue
        if stripped.startswith("#if") and "PROBGRAPH_LAYOUT_DRIFT_CANARY" in stripped:
            depth_in_canary = 1
            continue
        out_lines.append(line)
    return "\n".join(out_lines)


MEMBER_RE = re.compile(
    r"^\s*(?!static\b|friend\b|using\b|enum\b|struct\b|class\b|public|private|protected)"
    r"[\w:<>,\s]+?[\s&*]"  # the type (possibly qualified/templated)
    r"(\w+)"  # the member name
    r"(?:\[\w+\])?"  # optional array extent
    r"\s*(?:=[^;]+)?;\s*$"  # optional default initializer
)


def parse_struct_fields(text: str, name: str, path: str, errors: list[str]):
    """Member names, in declaration order, of `struct name { ... };`."""
    m = re.search(r"struct\s+" + re.escape(name) + r"\s*\{", text)
    if not m:
        errors.append(f"{path}: struct {name} not found")
        return []
    depth, i = 1, m.end()
    while i < len(text) and depth:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    body = text[m.end() : i - 1]
    fields = []
    for line in body.splitlines():
        stripped = line.strip()
        if stripped.startswith(("friend ", "static ", "using ", "#")):
            continue
        if "(" in line:
            continue  # member function declaration/definition
        fm = MEMBER_RE.match(line)
        if fm:
            fields.append(fm.group(1))
    return fields


def check_layout(root: pathlib.Path, errors: list[str]) -> None:
    manifest = json.loads((root / MANIFEST).read_text())
    cache: dict[str, str] = {}

    def text_of(rel: str) -> str:
        if rel not in cache:
            raw = (root / rel).read_text()
            cache[rel] = drop_canary_blocks(strip_comments(raw))
        return cache[rel]

    for spec in manifest["structs"]:
        name = spec["name"]
        header = spec["header"]
        where = f"{header} (struct {name})"
        body_text = text_of(header)
        # The asserts may live in a different header than the struct
        # (BottomKEntry is declared in core/ but frozen by io/).
        assert_text = text_of(spec.get("assert_header", header))

        declared = parse_struct_fields(body_text, name, header, errors)
        expected = [f["name"] for f in spec["fields"]]
        if declared and declared != expected:
            errors.append(
                f"{where}: declared fields {declared} != manifest {expected} "
                "(frozen format: a new field needs a version bump, not an edit)"
            )

        size_re = re.compile(
            r"static_assert\s*\(\s*sizeof\s*\(\s*" + re.escape(name) + r"\s*\)\s*==\s*(\d+)"
        )
        sizes = [int(s) for s in size_re.findall(assert_text)]
        if not sizes:
            errors.append(f"{where}: missing static_assert(sizeof({name}) == {spec['size']})")
        elif any(s != spec["size"] for s in sizes):
            errors.append(f"{where}: sizeof pin {sizes} != manifest {spec['size']}")

        off_re = re.compile(
            r"static_assert\s*\(\s*offsetof\s*\(\s*" + re.escape(name)
            + r"\s*,\s*(\w+)\s*\)\s*==\s*(\d+)"
        )
        pinned = {f: int(off) for f, off in off_re.findall(assert_text)}
        for field in spec["fields"]:
            fname, foff = field["name"], field["offset"]
            if fname not in pinned:
                errors.append(
                    f"{where}: missing static_assert(offsetof({name}, {fname}) == {foff})"
                )
            elif pinned[fname] != foff:
                errors.append(
                    f"{where}: offsetof({name}, {fname}) pinned at {pinned[fname]}, "
                    f"manifest says {foff}"
                )
        for fname in sorted(set(pinned) - {f["name"] for f in spec["fields"]}):
            errors.append(f"{where}: offsetof pin for '{fname}' not in manifest")


def check_kernel_purity(root: pathlib.Path, errors: list[str]) -> None:
    for rel in MUTEX_FREE_DIRS:
        for path in sorted((root / rel).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            clean = strip_comments(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                if MUTEX_TOKENS.search(line):
                    errors.append(
                        f"{path.relative_to(root)}:{lineno}: mutex use in the kernel "
                        f"layer (locks live above core/kernels/): {line.strip()}"
                    )


def check_hot_paths(root: pathlib.Path, errors: list[str]) -> None:
    seen: dict[str, list[str]] = {}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = str(path.relative_to(root))
        raw_lines = path.read_text().splitlines()
        open_region: str | None = None
        open_line = 0
        for lineno, raw in enumerate(raw_lines, 1):
            b, e = BEGIN_RE.search(raw), END_RE.search(raw)
            if b:
                if open_region is not None:
                    errors.append(f"{rel}:{lineno}: nested hot-path region")
                open_region, open_line = b.group(1), lineno
                seen.setdefault(rel, []).append(open_region)
                continue
            if e:
                if open_region != e.group(1):
                    errors.append(
                        f"{rel}:{lineno}: END({e.group(1)}) does not match "
                        f"BEGIN({open_region})"
                    )
                open_region = None
                continue
            if open_region is None:
                continue
            code = re.sub(r"//.*$", "", raw)
            code = re.sub(r"=\s*(delete|default)", "", code)  # deleted members, not delete-expr
            m = HOT_PATH_DENYLIST.search(code)
            if m:
                errors.append(
                    f"{rel}:{lineno}: '{m.group(0).strip()}' inside hot-path "
                    f"region '{open_region}' (atomics only -- no allocation, "
                    "locking, or container growth)"
                )
        if open_region is not None:
            errors.append(f"{rel}:{open_line}: unterminated hot-path region '{open_region}'")

    for rel, regions in EXPECTED_REGIONS.items():
        for region in regions:
            if region not in seen.get(rel, []):
                errors.append(
                    f"{rel}: expected hot-path region '{region}' is missing "
                    "(markers are part of the contract; do not delete them)"
                )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo", default=str(pathlib.Path(__file__).resolve().parents[2]),
        help="repository root (default: inferred from this script's location)",
    )
    args = parser.parse_args()
    root = pathlib.Path(args.repo)

    errors: list[str] = []
    check_layout(root, errors)
    check_kernel_purity(root, errors)
    check_hot_paths(root, errors)

    if errors:
        print(f"check_layout: {len(errors)} finding(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("check_layout: layout manifest, kernel purity, and hot-path regions OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
