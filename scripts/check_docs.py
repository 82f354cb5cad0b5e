#!/usr/bin/env python3
"""Documentation consistency checks, run by the CI docs job.

1. Every relative link in every tracked markdown file resolves to a file
   or directory that exists (anchors and external URLs are ignored).
2. Every src/*/ directory has a README.md.
3. ARCHITECTURE.md references every one of those per-directory READMEs,
   so the subsystem map cannot silently go stale.
4. Every header src/<dir>/*.h is named in src/<dir>/README.md, as
   `name.h` or `name.{h,cc}`, so a header cannot be added or renamed
   without its directory's map following.
5. Layering: only src/sim/, src/workload/ and src/runtime/sim_runtime.h
   include a sim/ header. Actors see the simulator only through the
   runtime interfaces, so they run unchanged on the loopback runtime.
6. Every backticked message-type-like name (CamelCase, ending in
   Request, Response, Ack, Offer, Decline, Batch, Chunk, Announce, Update
   or Redirect) in src/*/README.md, ARCHITECTURE.md and bench/README.md
   is an entry of the runtime/message.h X-list, so a deleted message
   cannot linger in the docs. Handler and sender names (`On...`,
   `Send...`, `Handle...`) are functions, not messages.
7. Every backticked `XxxConfig::field` in those same docs names a field
   that struct declares under src/ (parsed with check_knobs'
   config_fields), so a deleted or renamed setting cannot linger either.

Exits non-zero with a per-problem report.
"""

import os
import re
import sys

from check_knobs import config_fields

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {"build", ".git", ".claude", "bench/out"}

# [text](target) — excluding images' inner text handling (same syntax) and
# reference-style links, which the repo does not use.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def tracked_markdown():
    for root, dirs, files in os.walk(REPO):
        rel_root = os.path.relpath(root, REPO)
        dirs[:] = [
            d
            for d in dirs
            if d not in SKIP_DIRS
            and os.path.join(rel_root, d).replace("\\", "/").lstrip("./")
            not in SKIP_DIRS
        ]
        for name in files:
            if name.endswith(".md"):
                yield os.path.join(root, name)


def check_links(problems):
    for path in tracked_markdown():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # Links inside fenced code blocks are examples, not references.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target)
            )
            if not os.path.exists(resolved):
                problems.append(f"{rel}: broken link -> {match.group(1)}")


def check_src_readmes(problems):
    src = os.path.join(REPO, "src")
    with open(os.path.join(REPO, "ARCHITECTURE.md"), encoding="utf-8") as f:
        architecture = f.read()
    for entry in sorted(os.listdir(src)):
        dir_path = os.path.join(src, entry)
        if not os.path.isdir(dir_path):
            continue
        readme = os.path.join(dir_path, "README.md")
        if not os.path.exists(readme):
            problems.append(f"src/{entry}/ has no README.md")
            continue
        needle = f"src/{entry}/README.md"
        if needle not in architecture:
            problems.append(f"ARCHITECTURE.md does not reference {needle}")
        check_headers_named(entry, dir_path, readme, problems)


def check_headers_named(entry, dir_path, readme, problems):
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    for name in sorted(os.listdir(dir_path)):
        if not name.endswith(".h"):
            continue
        stem = name[: -len(".h")]
        # A name preceded by a letter, digit, "_" or "/" is part of a
        # longer name or a path into another directory, not this header.
        pattern = rf"(?<![\w/]){re.escape(stem)}\.(h\b|\{{h,)"
        if not re.search(pattern, text):
            problems.append(f"src/{entry}/README.md does not name {name}")


SIM_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"sim/', re.M)
SIM_INCLUDERS = ("src/sim/", "src/workload/", "src/runtime/sim_runtime.h")


def check_sim_layering(problems):
    src = os.path.join(REPO, "src")
    for root, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, REPO).replace("\\", "/")
            if rel.startswith(SIM_INCLUDERS):
                continue
            with open(path, encoding="utf-8") as f:
                if SIM_INCLUDE_RE.search(f.read()):
                    problems.append(f"{rel} includes a sim/ header")


X_ENTRY_RE = re.compile(r"X\(\w+,\s*(\w+)\)")
MESSAGE_NAME_RE = re.compile(
    r"(?<!\w)(?!Send|On[A-Z]|Handle)([A-Z][A-Za-z0-9]*"
    r"(?:Request|Response|Ack|Offer|Decline|Batch|Chunk|Announce|Update"
    r"|Redirect))(?!\w)"
)


def doc_spans():
    """Yields (doc, span) for each backticked span outside code fences in
    src/*/README.md, ARCHITECTURE.md and bench/README.md."""
    src = os.path.join(REPO, "src")
    docs = [
        os.path.join("src", entry, "README.md")
        for entry in sorted(os.listdir(src))
        if os.path.isfile(os.path.join(src, entry, "README.md"))
    ] + ["ARCHITECTURE.md", os.path.join("bench", "README.md")]
    for rel in docs:
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = re.sub(r"```.*?```", "", f.read(), flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", text):
            yield rel, span


def check_message_names(problems):
    with open(os.path.join(REPO, "src/runtime/message.h"),
              encoding="utf-8") as f:
        messages = set(X_ENTRY_RE.findall(f.read()))
    for rel, span in doc_spans():
        for name in MESSAGE_NAME_RE.findall(span):
            if name not in messages:
                problems.append(
                    f"{rel}: `{name}` is not a message type "
                    "(runtime/message.h)"
                )


CONFIG_FIELD_RE = re.compile(r"(?<!\w)([A-Z]\w*Config)::(\w+)")


def check_config_fields(problems):
    declared = set()
    for root, _, files in os.walk(os.path.join(REPO, "src")):
        for name in sorted(files):
            if name.endswith(".h"):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    declared.update((struct, field) for struct, field, _
                                    in config_fields(f.read()))
    for rel, span in doc_spans():
        for struct, field in CONFIG_FIELD_RE.findall(span):
            if (struct, field) not in declared:
                problems.append(
                    f"{rel}: `{struct}::{field}` is not a declared field"
                )


def main():
    problems = []
    check_links(problems)
    check_src_readmes(problems)
    check_sim_layering(problems)
    check_message_names(problems)
    check_config_fields(problems)
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print("docs check: all markdown links resolve, "
          "all src/*/ READMEs present, referenced and naming every header, "
          "sim/ included only by the simulator's own layers, "
          "every backticked message name a message type and every "
          "backticked config field a declared one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
