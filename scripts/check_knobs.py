#!/usr/bin/env python3
"""Settings nobody sets: a CI check that every config field is assigned.

Every field of every `struct *Config` declared under src/ is an option a
caller can set. A field that no file in the repository ever assigns has
one value in practice, so it belongs in a named constant where it is
read, not in a config struct. This check fails, naming each such field,
until it is folded or listed in ALLOWLIST with its reason.

A field counts as assigned when any C++ or Python file outside its own
declaration line does one of:
  .name = ...   ->name = ...   name = ...   name += ...  (also -=, |= ...)
  .name = ... inside a designated initializer
  name[...] = ...   name.assign(   name.push_back(   name.emplace...(
  name.insert(
Matching is by field name only, so one assignment of any field with that
name counts for all of them.

It also fails when the number of `*Config` fields under src/ exceeds
FIELD_CEILING. The count may fall freely; raising it means editing the
ceiling here, in the same diff as the new field, where a reviewer sees it.

Usage: python3 scripts/check_knobs.py   (exits non-zero on a finding)
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "build", "build-asan", "build-tsan", ".bench_build",
             "Testing"}
SOURCE_EXTS = (".h", ".cc", ".cpp", ".py")

# Fields kept settable although nothing in the repository assigns them.
ALLOWLIST = {
    "table_id": "perfbench/geotp_perf.cc reads YcsbConfig::table_id",
    "districts_per_warehouse":
        "perfbench/geotp_perf.cc reads TpccConfig::districts_per_warehouse",
    "port": "LoopbackConfig::port is a deployment setting",
}

# Most `*Config` fields src/ may declare. Lower it when fields go.
FIELD_CEILING = 99

CONFIG_RE = re.compile(r"\bstruct\s+(\w*Config)\s*(?:final\s*)?\{")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Statements in a struct body that declare no settable field.
NON_FIELD_PREFIXES = ("static", "using", "enum", "struct", "class")


def source_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for name in sorted(files):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(root, name)


def strip_comments(text):
    """Blanks // and /* */ comments, keeping offsets and line numbers."""
    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))
    return re.sub(r"//[^\n]*|/\*.*?\*/", blank, text, flags=re.S)


def matching_brace(text, open_pos):
    depth = 0
    for pos in range(open_pos, len(text)):
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
            if depth == 0:
                return pos
    return len(text)


# A member function's head: its parameter list, maybe qualified.
FUNCTION_HEAD_RE = re.compile(r"\)\s*(?:const|override|noexcept|\s)*$")


def field_name(statement):
    """The field a member statement declares, or None for a non-field."""
    head = statement.strip()
    if not head or head.startswith(NON_FIELD_PREFIXES):
        return None
    # Drop the default: `= value` or a brace initializer `{...}`.
    head = re.split(r"=|\{", head, maxsplit=1)[0].strip()
    head = re.sub(r"\[[^\]]*\]$", "", head).strip()  # array extent
    if FUNCTION_HEAD_RE.search(head):
        return None
    names = IDENT_RE.findall(head)
    # A field has a type before its name.
    return names[-1] if len(names) >= 2 else None


def config_fields(text):
    """Yields (struct, field, line) for each field of each *Config."""
    code = strip_comments(text)
    for match in CONFIG_RE.finditer(code):
        open_pos = match.end() - 1
        close_pos = matching_brace(code, open_pos)
        pos = start = open_pos + 1
        while pos < close_pos:
            ch = code[pos]
            if ch == "{":
                end = matching_brace(code, pos)
                # A function body ends its statement; a brace initializer
                # is part of the field's.
                if FUNCTION_HEAD_RE.search(code[start:pos]):
                    start = end + 1
                pos = end + 1
                continue
            if ch == ";":
                statement = code[start:pos]
                name = field_name(statement)
                if name:
                    decl = pos - len(statement.lstrip())
                    yield match.group(1), name, code.count("\n", 0, decl) + 1
                start = pos + 1
            pos += 1


def assignment_re(name):
    n = re.escape(name)
    return re.compile(
        r"(?:[.>{,(]|^)[ \t]*" + n +
        r"(?:\s*\.\s*\w+|\s*\[[^\]\n]*\])*\s*(?:[-+*/|&^]|<<|>>)?=(?!=)"
        r"|\b" + n + r"(?:\s*\.\s*\w+|\s*\[[^\]\n]*\])*\s*\.\s*"
        r"(?:assign|push_back|emplace\w*|insert)\s*\(",
        re.M)


def main():
    texts = {}
    for path in source_files():
        with open(path, encoding="utf-8", errors="replace") as f:
            texts[path] = f.read()

    declared = []  # (path, struct, field, line)
    for path, text in texts.items():
        rel = os.path.relpath(path, REPO)
        if rel.startswith("src" + os.sep) and path.endswith(".h"):
            for struct, field, line in config_fields(text):
                declared.append((rel, struct, field, line))
    decl_lines = {(rel, line) for rel, _, _, line in declared}

    code = {os.path.relpath(p, REPO): strip_comments(t)
            for p, t in texts.items()}
    assigned = {}
    for name in sorted({field for _, _, field, _ in declared}):
        pattern = assignment_re(name)
        for rel, text in code.items():
            for m in pattern.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                if (rel, line) in decl_lines:
                    continue
                # `Type name = value;` declares a variable of that name.
                line_text = text.splitlines()[line - 1]
                if re.search(r"[\w>&*]\s+" + re.escape(name) + r"\s*=",
                             line_text) and "." + name not in line_text:
                    continue
                assigned[name] = (rel, line)
                break
            if name in assigned:
                break

    problems = []
    for rel, struct, field, line in declared:
        if field in assigned or field in ALLOWLIST:
            continue
        problems.append(f"{rel}:{line}: {struct}::{field} is never assigned")

    status = 0
    if problems:
        print("Config fields that nothing assigns (fold each into a named "
              "constant, or allowlist it with a reason):")
        for problem in problems:
            print("  " + problem)
        print(f"{len(problems)} unassigned config field(s)")
        status = 1
    if len(declared) > FIELD_CEILING:
        print(f"{len(declared)} config fields, over the ceiling of "
              f"{FIELD_CEILING}: fold a setting into a named constant, or "
              f"raise FIELD_CEILING in scripts/check_knobs.py")
        status = 1
    if status == 0:
        print(f"check_knobs: all {len(declared)} config fields are assigned "
              f"somewhere ({len(ALLOWLIST)} allowlisted; ceiling "
              f"{FIELD_CEILING})")
    return status


if __name__ == "__main__":
    sys.exit(main())
