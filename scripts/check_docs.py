#!/usr/bin/env python3
"""Documentation consistency checks (scripts/check.sh --docs).

1. Every relative Markdown link in the top-level *.md files and docs/
   resolves to a file or directory in the repository.
2. Every `bench_*` binary named in EXPERIMENTS.md is declared in
   bench/CMakeLists.txt (no stale instructions for removed binaries),
   and every declared binary is named in EXPERIMENTS.md (no
   undocumented benchmarks).
3. Every `DFS_*` environment variable the code reads (any
   `getenv("DFS_...")` under src/, bench/ or tools/) is documented in
   EXPERIMENTS.md — env knobs must not be discoverable only by reading
   the source — and every `DFS_*` row of EXPERIMENTS.md's "Environment
   knobs" table is read by some such `getenv` (no rows for deleted
   knobs).
4. Every tool binary declared in tools/CMakeLists.txt (`dfs_*`) is
   mentioned in at least one top-level or docs/ Markdown file — a tool
   nobody can find from the docs is a tool nobody runs.
5. For each documented surface in SURFACES (`cache`, `router`): every
   `<prefix>.*` instrument the code registers (counter/gauge/histogram
   under src/) has a row in docs/PROTOCOL.md's instrument registry — the
   surface is documented by name, not by archaeology — and every
   `<prefix>.*` row of that registry is registered somewhere under src/
   (no rows for deleted instruments). A dynamic family registered as
   `"<prefix>.family." + label` matches a `<prefix>.family.<label>` row.
6. The on-disk format version documented in docs/CACHE.md matches
   `kEvalCacheFormatVersion` in src/core/eval_cache.h, so the byte-level
   spec can never drift silently from the decoder.
7. The committed lock-order artifact (docs/lock_order.dot) is linked
   from at least one Markdown file, and every acquisition site its edge
   labels cite (`label="<file>:<line>"`) points at a file that still
   exists under src/. Exact line-level sync is `check.sh --analyze`'s
   job (it re-derives the graph); this keeps the artifact findable and
   its citations non-dangling even on docs-only runs.
8. For each surface in SURFACES, every field row of docs/PROTOCOL.md's
   verb table names a key that the verb's handler in
   src/serve/frontend.cc writes (`object["<key>"]`), and every key it
   writes has a row, so a removed field cannot linger in the docs. A key
   written as `object["family." + label]` matches a `family.<label>` row.
   `ok`, the envelope field of every response, is exempt.
9. Every example declared in examples/CMakeLists.txt
   (`dfs_add_example(<name>)`) has a row in README.md's examples table,
   and every row of that table names a declared example.
10. Every `--flag` that follows a tool name (`dfs_*` declared in
   tools/CMakeLists.txt) in a fenced code block or an inline code span
   of the documents that describe present usage (README.md, DESIGN.md,
   EXPERIMENTS.md, ROADMAP.md and docs/) is declared by that tool's
   `FlagParser` (`Add{String,Double,Int,Bool}("<flag>", ...)` in
   tools/<tool>.cc), so a deleted flag cannot linger in a usage example.
   Documents that record history may name flags that are gone.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The wire surfaces checks 5 and 8 hold to docs/PROTOCOL.md: (instrument
# prefix, handler in src/serve/frontend.cc, verb section heading).
SURFACES = [
    ("cache", "HandleCache", "cache"),
    ("router", "HandleRouter", "router"),
]

# [text](target) — stop at the first ')' so "(see [a](b))" parses; skip
# images the same way (the leading '!' does not change resolution rules).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    files = sorted(glob.glob(os.path.join(REPO, "*.md")))
    files += sorted(glob.glob(os.path.join(REPO, "docs", "**", "*.md"),
                              recursive=True))
    return files


def strip_code_blocks(text):
    """Removes fenced code blocks: link syntax inside them is example
    text, not navigation."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_links():
    errors = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as handle:
            text = strip_code_blocks(handle.read())
        base = os.path.dirname(path)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]  # drop in-page anchors
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(path, REPO)}: broken link "
                    f"'{match.group(1)}' -> {os.path.relpath(resolved, REPO)}"
                )
    return errors


def check_bench_binaries():
    # Binary names only — "bench_results" (the cache dir), "bench_common"
    # (the shared library), and "bench_diff" (the comparison script in
    # scripts/) are not benchmark binaries.
    with open(os.path.join(REPO, "EXPERIMENTS.md"), encoding="utf-8") as f:
        named = set(re.findall(r"\b(bench_[a-z0-9_]+)\b", f.read()))
    named -= {"bench_results", "bench_common", "bench_diff"}
    with open(os.path.join(REPO, "bench", "CMakeLists.txt"),
              encoding="utf-8") as f:
        declared = set(re.findall(r"\b(bench_[a-z0-9_]+)\b", f.read()))
    declared.discard("bench_common")  # the shared library, not a binary
    errors = [
        f"EXPERIMENTS.md names '{name}' but bench/CMakeLists.txt does not "
        f"declare it" for name in sorted(named - declared)
    ]
    # The reverse direction: a benchmark binary nobody can find from the
    # docs is a benchmark nobody runs.
    errors += [
        f"bench/CMakeLists.txt declares '{name}' but EXPERIMENTS.md does "
        f"not mention it" for name in sorted(declared - named)
    ]
    return errors


def table_rows(text, start_re, end_re):
    """First-cell backticked names of the Markdown table rows after the
    first line matching `start_re`, up to the first later line matching
    `end_re` once a row has been seen; None when `start_re` never
    matches."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if re.match(start_re, line)), None)
    if start is None:
        return None
    names = []
    seen_row = False
    for line in lines[start + 1:]:
        if seen_row and re.match(end_re, line):
            break
        if line.startswith("|"):
            seen_row = True
            cell = re.match(r"\|\s*`([^`]+)`", line)
            if cell:
                names.append(cell.group(1))
    return names


def check_env_knobs():
    getenv_re = re.compile(r"getenv\(\s*\"(DFS_[A-Z0-9_]+)\"")
    read = {}
    for root in ("src", "bench", "tools"):
        pattern = os.path.join(REPO, root, "**", "*.cc")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                for name in getenv_re.findall(handle.read()):
                    read.setdefault(name, os.path.relpath(path, REPO))
    with open(os.path.join(REPO, "EXPERIMENTS.md"), encoding="utf-8") as f:
        text = f.read()
    documented = set(re.findall(r"\b(DFS_[A-Z0-9_]+)\b", text))
    errors = [
        f"{path} reads '{name}' but EXPERIMENTS.md does not document it"
        for name, path in sorted(read.items()) if name not in documented
    ]
    # The table ends at its first non-row line.
    rows = table_rows(text, r"Environment knobs", r"(?!\|)")
    if rows is None:
        return errors + ["EXPERIMENTS.md has no 'Environment knobs' table"]
    errors += [
        f"EXPERIMENTS.md documents env knob '{name}' but no getenv under "
        f"src/, bench/ or tools/ reads it"
        for name in rows if name.startswith("DFS_") and name not in read
    ]
    return errors


def check_tool_binaries():
    with open(os.path.join(REPO, "tools", "CMakeLists.txt"),
              encoding="utf-8") as f:
        declared = set(
            re.findall(r"add_executable\(\s*(dfs_[a-z0-9_]+)", f.read()))
    documented = set()
    for path in markdown_files():
        with open(path, encoding="utf-8") as handle:
            # Unlike links, code blocks count here: usage examples are
            # exactly how tools are documented.
            documented |= set(re.findall(r"\b(dfs_[a-z0-9_]+)\b",
                                         handle.read()))
    return [
        f"tools/CMakeLists.txt declares '{name}' but no Markdown file "
        f"mentions it" for name in sorted(declared - documented)
    ]


def family_name(name):
    """`family.<label>` (a documented dynamic family) -> `family.`."""
    return name.split("<", 1)[0]


def check_instruments(prefix):
    instrument_re = re.compile(
        r"\b(?:counter|gauge|histogram)\(\s*\"(" + re.escape(prefix) +
        r"\.[a-z0-9_.]+)\"")
    registered = {}
    pattern = os.path.join(REPO, "src", "**", "*.cc")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            for name in instrument_re.findall(handle.read()):
                registered.setdefault(name, os.path.relpath(path, REPO))
    with open(os.path.join(REPO, "docs", "PROTOCOL.md"),
              encoding="utf-8") as f:
        text = f.read()
    # The registry spans several tables, up to the next heading.
    rows = table_rows(text, r"#+\s*Instrument registry", r"#")
    if rows is None:
        return ["docs/PROTOCOL.md has no 'Instrument registry' table"]
    documented = {family_name(name) for name in rows
                  if name.startswith(prefix + ".")}
    errors = [
        f"{path} registers instrument '{name}' but docs/PROTOCOL.md's "
        f"instrument registry has no row for it"
        for name, path in sorted(registered.items())
        if name not in documented
    ]
    errors += [
        f"docs/PROTOCOL.md lists instrument '{name}' but nothing under "
        f"src/ registers it"
        for name in sorted(documented) if name not in registered
    ]
    return errors


def check_cache_format_version():
    with open(os.path.join(REPO, "src", "core", "eval_cache.h"),
              encoding="utf-8") as f:
        code = re.search(r"kEvalCacheFormatVersion\s*=\s*(\d+)", f.read())
    if code is None:
        return ["src/core/eval_cache.h no longer defines "
                "kEvalCacheFormatVersion (update check_docs.py)"]
    with open(os.path.join(REPO, "docs", "CACHE.md"), encoding="utf-8") as f:
        doc = re.search(r"\*\*Format version:\*\*\s*`?(\d+)`?", f.read())
    if doc is None:
        return ["docs/CACHE.md is missing its '**Format version:** `N`' "
                "line"]
    if code.group(1) != doc.group(1):
        return [
            f"docs/CACHE.md documents format version {doc.group(1)} but "
            f"src/core/eval_cache.h defines kEvalCacheFormatVersion = "
            f"{code.group(1)}"
        ]
    return []


def check_lock_order_artifact():
    dot_path = os.path.join(REPO, "docs", "lock_order.dot")
    if not os.path.exists(dot_path):
        return ["docs/lock_order.dot is missing; regenerate it with "
                "`python3 tools/dfs_analyze.py --write-dot "
                "docs/lock_order.dot`"]
    referenced = any(
        "lock_order.dot" in open(path, encoding="utf-8").read()
        for path in markdown_files())
    errors = []
    if not referenced:
        errors.append("no Markdown file references docs/lock_order.dot — "
                      "the lock-order artifact is unfindable from the docs")
    with open(dot_path, encoding="utf-8") as handle:
        labels = re.findall(r'label="([^":]+):\d+"', handle.read())
    for cited in sorted(set(labels)):
        if not os.path.exists(os.path.join(REPO, "src", cited)):
            errors.append(
                f"docs/lock_order.dot cites acquisition site '{cited}' but "
                f"src/{cited} does not exist (stale artifact; regenerate "
                f"with --write-dot)")
    return errors


def check_verb_fields(handler, verb):
    with open(os.path.join(REPO, "src", "serve", "frontend.cc"),
              encoding="utf-8") as f:
        body = re.search(r"\nstd::string " + handler + r"\(.*?\n}\n",
                         f.read(), re.DOTALL)
    if body is None:
        return [f"src/serve/frontend.cc no longer defines {handler} "
                f"(update check_docs.py)"]
    # object["key"] = ..., or object["family." + label] = ... for a family.
    written = set(re.findall(r'object\["([^"]+)"(?:\]|\s*\+)',
                             body.group(0)))
    written.discard("ok")
    with open(os.path.join(REPO, "docs", "PROTOCOL.md"),
              encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if re.match(r"#+\s*" + re.escape(verb) + r"\s*$", line)),
                 None)
    if start is None:
        return [f"docs/PROTOCOL.md has no '### {verb}' verb section"]
    # A row's first cell may name several fields ("`hits` / `misses`");
    # the table ends at its first non-row line.
    documented = set()
    seen_row = False
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            if seen_row:
                break
            continue
        seen_row = True
        first_cell = line.split("|")[1]
        documented |= {family_name(name)
                       for name in re.findall(r"`([^`]+)`", first_cell)}
    errors = [
        f"docs/PROTOCOL.md documents {verb} verb field '{name}' but "
        f"{handler} in src/serve/frontend.cc does not write it"
        for name in sorted(documented - written)
    ]
    errors += [
        f"{handler} in src/serve/frontend.cc writes '{name}' but "
        f"docs/PROTOCOL.md's {verb} verb table has no row for it"
        for name in sorted(written - documented)
    ]
    return errors


def check_examples():
    with open(os.path.join(REPO, "examples", "CMakeLists.txt"),
              encoding="utf-8") as f:
        declared = set(re.findall(
            r"^dfs_add_example\(\s*([A-Za-z0-9_]+)\s*\)", f.read(),
            re.MULTILINE))
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        # The table ends at its first non-row line.
        rows = table_rows(f.read(), r"Runnable programs in `examples/`",
                          r"(?!\|)")
    if rows is None:
        return ["README.md has no examples table (expected after a "
                "'Runnable programs in `examples/`' line)"]
    documented = set(rows)
    errors = [
        f"examples/CMakeLists.txt declares '{name}' but README.md's "
        f"examples table has no row for it"
        for name in sorted(declared - documented)
    ]
    errors += [
        f"README.md's examples table lists '{name}' but "
        f"examples/CMakeLists.txt does not declare it"
        for name in sorted(documented - declared)
    ]
    return errors


# A tool name not glued to a file suffix ("dfs_analyze.py", "dfs_cli.cc"),
# then the rest of its command: up to a shell separator or comment.
TOOL_COMMAND_RE = r"\b({tools})\b(?![.\w])([^|;&#`]*)"
FLAG_RE = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")
# The root documents check 10 holds to the tools' present flags.
USAGE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")


def declared_tool_flags():
    """tool name -> the flag names its FlagParser declares."""
    with open(os.path.join(REPO, "tools", "CMakeLists.txt"),
              encoding="utf-8") as f:
        tools = re.findall(r"add_executable\(\s*(dfs_[a-z0-9_]+)", f.read())
    flags = {}
    for tool in tools:
        with open(os.path.join(REPO, "tools", tool + ".cc"),
                  encoding="utf-8") as handle:
            flags[tool] = set(re.findall(
                r"\bAdd(?:String|Double|Int|Bool)\(\s*\"([^\"]+)\"",
                handle.read()))
    return flags


def check_tool_flags():
    flags = declared_tool_flags()
    command_re = re.compile(TOOL_COMMAND_RE.format(
        tools="|".join(sorted(flags, key=len, reverse=True))))
    errors = []
    for path in markdown_files():
        if (os.path.basename(path) not in USAGE_DOCS and
                not path.startswith(os.path.join(REPO, "docs", ""))):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        # A fenced block holds one command per line, continued across
        # trailing backslashes; an inline span is one command, which may
        # wrap onto the next line.
        lines = []
        for block in re.findall(r"```.*?```", text, re.DOTALL):
            lines += block.replace("\\\n", " ").splitlines()
        lines += [span.replace("\n", " ") for span in
                  re.findall(r"`([^`]+)`", strip_code_blocks(text))
                  if "\n\n" not in span]
        for line in lines:
            for match in command_re.finditer(line):
                tool = match.group(1)
                errors += [
                    f"{os.path.relpath(path, REPO)}: '{tool} --{flag}' but "
                    f"tools/{tool}.cc declares no '{flag}' flag"
                    for flag in FLAG_RE.findall(match.group(2))
                    if flag not in flags[tool]]
    return sorted(set(errors))


def main():
    errors = (check_links() + check_bench_binaries() + check_env_knobs() +
              check_tool_binaries() + check_cache_format_version() +
              check_lock_order_artifact() + check_examples() +
              check_tool_flags())
    for prefix, handler, verb in SURFACES:
        errors += check_instruments(prefix) + check_verb_fields(handler, verb)
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(markdown_files())} Markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
