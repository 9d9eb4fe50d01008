#!/usr/bin/env python3
"""statcube-lint: project-specific invariants no off-the-shelf tool knows.

Rules (each has an id; suppress one occurrence with a trailing or
preceding-line comment `// statcube-lint: allow(<rule-id>)`):

  naked-new        `new` outside the sanctioned idioms: smart-pointer
                   adoption (`std::unique_ptr<T>(new T...)`) and the
                   intentionally-leaked function-local static singleton
                   (`static T* x = new T;` or `static T* x = [] { ...
                   return new T; }();`). Everything else must use
                   make_unique/containers/arena types.
  naked-delete     any `delete` expression (deleted special members,
                   `= delete`, are fine). The repo owns no raw lifetimes.
  banned-random    std::rand/srand, std::random_device, std::mt19937,
                   time(nullptr)-style seeding. Determinism is a tested
                   contract (serial == parallel bit-for-bit); all
                   randomness must flow through common/rng.h's seeded
                   splitmix64 Rng.
  unconsumed-status  a bare statement call of a function whose declared
                   return type is Status/Result<...> silently drops the
                   error. Consume it, or cast with `(void)`. Function
                   names are harvested from src/**/*.h; names that are
                   also declared with a non-Status return type anywhere
                   (Set, Get, ...) are ambiguous and skipped.
  include-cc       `#include` of a .cc file: creates double-definition
                   traps and breaks the one-TU-per-.cc build model.
  codegen-drift    a `STATCUBE-CODEGEN-BEGIN <name> sha256:<12hex>` ...
                   `STATCUBE-CODEGEN-END <name>` region whose content no
                   longer matches its recorded hash. The hash makes
                   "this table is generated/kept-in-lockstep" a checked
                   claim instead of a comment; refresh deliberate edits
                   with `tools/statcube_lint.py --update-codegen-hash`.
                   src/statcube/query/parser.cc must carry at least one
                   region (its token/keyword tables).
  doc-gated        a top-level class/struct in a doxygen-gated header
                   (the GATED list in tools/check_doxygen_warnings.sh)
                   with no comment immediately above it, or a gated
                   header that does not open with a file comment.
  no-cout          std::cout/std::cerr in src/: library code reports
                   through Status and obs/log.h, never the process's
                   streams. (Examples, tools and tests may print.)
  sleep            std::this_thread::sleep_for in tests/: wall-clock
                   waits are either too short (flaky under sanitizers
                   and load) or too long (slow everywhere). Tests must
                   poll the observable condition or drive the
                   component's deterministic hook (e.g. SweepOnce).

Usage:
  tools/statcube_lint.py                      # lint src tests bench examples
  tools/statcube_lint.py src/statcube/obs     # lint a subtree
  tools/statcube_lint.py --update-codegen-hash
  tools/statcube_lint.py --list-rules

Exit status: 0 clean, 1 violations, 2 usage/internal error.
Stdlib only; runs under any Python >= 3.8.
"""

import argparse
import hashlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOTS = ["src", "tests", "bench", "examples"]
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# Headers under the documentation gate (a path ending in "/" gates a
# directory). The one list: tools/check_doxygen_warnings.sh reads it too.
DOXYGEN_GATED = [
    "src/statcube/exec/task_scheduler.h",
    "src/statcube/common/vec_block.h",
    "src/statcube/materialize/view_store.h",
    "src/statcube/olap/backend.h",
    "src/statcube/cache/",
    "src/statcube/obs/json.h",
    "src/statcube/obs/query_registry.h",
    "src/statcube/obs/resource.h",
    "src/statcube/obs/timeseries_ring.h",
    "src/statcube/serve/",
]

ALLOW_RE = re.compile(r"statcube-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

CODEGEN_BEGIN_RE = re.compile(
    r"^\s*//\s*STATCUBE-CODEGEN-BEGIN\s+(\S+)\s+sha256:([0-9a-f]{12})\s*$")
CODEGEN_END_RE = re.compile(r"^\s*//\s*STATCUBE-CODEGEN-END\s+(\S+)\s*$")

# Region-bearing files that MUST contain at least one codegen region.
CODEGEN_REQUIRED = ["src/statcube/query/parser.cc"]


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Comment/string stripping.
#
# Produces a "code view" of the file: same line structure, but comment and
# string-literal bodies blanked with spaces so the rules never match inside
# prose or literals. Raw lines are kept for allow() escapes and codegen
# markers (which live in comments by design).
# --------------------------------------------------------------------------

def strip_code_view(text):
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings R"(...)" get the simple treatment: the repo
                # does not use raw literals with embedded quotes.
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def allowed_rules_at(raw_lines, idx):
    """Rule ids suppressed at line index `idx` (same line or the line above)."""
    rules = set()
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


# --------------------------------------------------------------------------
# Rule: naked-new / naked-delete
# --------------------------------------------------------------------------

SMART_PTR_ADOPT_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*$")
STATIC_NEW_RE = re.compile(r"\bstatic\b[^;=]*=\s*new\b")
STATIC_LAMBDA_RE = re.compile(r"\bstatic\b[^;=]*=[^;\[]*\[")
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` placement also banned
DELETE_EXPR_RE = re.compile(r"(?<![=\w])\s*\bdelete\b(?:\s*\[\s*\])?\s+[\w(*]")


def check_new_delete(path, raw_lines, code_lines, violations):
    for idx, line in enumerate(code_lines):
        for m in NEW_RE.finditer(line):
            if "naked-new" in allowed_rules_at(raw_lines, idx):
                continue
            if STATIC_NEW_RE.search(line):
                continue  # static T* x = new T;  (leaked singleton)
            # std::unique_ptr<T>(new T...) — the `(` may close on the
            # previous line, so join the tail of the previous line in.
            prefix = line[: m.start()]
            joined = (code_lines[idx - 1] if idx > 0 else "") + " " + prefix
            if SMART_PTR_ADOPT_RE.search(joined.rstrip()):
                continue
            # `return new T;` / `auto* p = new T;` inside the leaked-
            # singleton lambda: `static T* x = [] { ... return new T; }();`
            in_singleton_lambda = False
            for back in range(idx - 1, max(-1, idx - 13), -1):
                if "}();" in code_lines[back]:
                    break  # any candidate lambda already closed above us
                if STATIC_LAMBDA_RE.search(code_lines[back]):
                    in_singleton_lambda = True
                    break
            if in_singleton_lambda:
                continue
            violations.append(Violation(
                path, idx + 1, "naked-new",
                "raw `new` outside smart-pointer adoption or a leaked "
                "function-local static singleton; use std::make_unique or "
                "a container"))
        dm = DELETE_EXPR_RE.search(line)
        if dm and "naked-delete" not in allowed_rules_at(raw_lines, idx):
            violations.append(Violation(
                path, idx + 1, "naked-delete",
                "raw `delete` expression; no code in this repo owns a raw "
                "lifetime — use std::unique_ptr"))


# --------------------------------------------------------------------------
# Rule: banned-random
# --------------------------------------------------------------------------

BANNED_RANDOM = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])rand\s*\("), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
]


def check_banned_random(path, raw_lines, code_lines, violations):
    for idx, line in enumerate(code_lines):
        for pat, what in BANNED_RANDOM:
            if pat.search(line):
                if "banned-random" in allowed_rules_at(raw_lines, idx):
                    continue
                violations.append(Violation(
                    path, idx + 1, "banned-random",
                    f"{what}: nondeterministic/unseeded randomness breaks "
                    "the serial==parallel determinism contract; use the "
                    "seeded Rng in common/rng.h"))


# --------------------------------------------------------------------------
# Rule: unconsumed-status
# --------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+)*"
    r"(?:statcube::)?(Status|Result\s*<)[^;{()]*?\s(\w+)\s*\(")
OTHER_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*"
    r"(void|bool|int|unsigned|long|float|double|char|auto|size_t|u?int\d+_t|"
    r"std::\w[\w:<>]*)\s+(\w+)\s*\(")


def harvest_status_names(src_root):
    """Names declared returning Status/Result in src headers, minus names
    that are also declared with some other return type (ambiguous)."""
    status_names, other_names = set(), set()
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fn in sorted(filenames):
            if not fn.endswith((".h", ".hpp")):
                continue
            full = os.path.join(dirpath, fn)
            try:
                code = strip_code_view(read_text(full))
            except OSError:
                continue
            for line in code.splitlines():
                m = STATUS_DECL_RE.match(line)
                if m:
                    status_names.add(m.group(2))
                    continue
                m = OTHER_DECL_RE.match(line)
                if m:
                    other_names.add(m.group(2))
    return status_names - other_names


# A full statement on one line: optional receiver chain, then the call.
BARE_CALL_TMPL = r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*({names})\s*\(.*\)\s*;\s*$"
CONTINUATION_TAIL = tuple("(,=&|?:+-*/%<>")


def check_unconsumed_status(path, raw_lines, code_lines, status_names,
                            violations):
    # A file-local declaration with a non-Status return type (e.g. a static
    # helper `void Count(...)` in a .cc) shadows a same-named Status-returning
    # function harvested from the headers.
    local_other = set()
    for line in code_lines:
        m = OTHER_DECL_RE.match(line)
        if m:
            local_other.add(m.group(2))
    status_names = status_names - local_other
    if not status_names:
        return
    bare_call_re = re.compile(
        BARE_CALL_TMPL.format(names="|".join(sorted(map(re.escape,
                                                        status_names)))))
    for idx, line in enumerate(code_lines):
        if "=" in line or "return" in line or line.lstrip().startswith("#"):
            continue
        m = bare_call_re.match(line)
        if not m:
            continue
        # Part of a larger multi-line expression? The previous code line
        # would end mid-expression.
        prev = ""
        for back in range(idx - 1, -1, -1):
            if code_lines[back].strip():
                prev = code_lines[back].rstrip()
                break
        if prev.endswith(CONTINUATION_TAIL) or prev.endswith("return"):
            continue
        if "unconsumed-status" in allowed_rules_at(raw_lines, idx):
            continue
        violations.append(Violation(
            path, idx + 1, "unconsumed-status",
            f"result of {m.group(1)}() is declared Status/Result and is "
            "discarded; handle it or cast with (void)"))


# --------------------------------------------------------------------------
# Rule: include-cc
# --------------------------------------------------------------------------

INCLUDE_CC_RE = re.compile(r'^\s*#\s*include\s*["<][^">]*\.cc[">]')


def check_include_cc(path, raw_lines, code_lines, violations):
    for idx, line in enumerate(raw_lines):
        if INCLUDE_CC_RE.match(line):
            if "include-cc" in allowed_rules_at(raw_lines, idx):
                continue
            violations.append(Violation(
                path, idx + 1, "include-cc",
                "#include of a .cc file; every .cc is its own translation "
                "unit — include the header instead"))


# --------------------------------------------------------------------------
# Rule: codegen-drift
# --------------------------------------------------------------------------

def region_hash(lines):
    body = "\n".join(l.rstrip() for l in lines)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


def find_codegen_regions(raw_lines):
    """Yields (name, recorded_hash, begin_idx, end_idx) — indices of the
    marker lines; raises ValueError with a line number on malformed nesting."""
    regions = []
    open_name, open_hash, open_idx = None, None, None
    for idx, line in enumerate(raw_lines):
        bm = CODEGEN_BEGIN_RE.match(line)
        em = CODEGEN_END_RE.match(line)
        if bm:
            if open_name is not None:
                raise ValueError((idx + 1,
                                  f"BEGIN '{bm.group(1)}' inside open region "
                                  f"'{open_name}'"))
            open_name, open_hash, open_idx = bm.group(1), bm.group(2), idx
        elif em:
            if open_name is None:
                raise ValueError((idx + 1, f"END '{em.group(1)}' with no "
                                           "open region"))
            if em.group(1) != open_name:
                raise ValueError((idx + 1, f"END '{em.group(1)}' closes "
                                           f"region '{open_name}'"))
            regions.append((open_name, open_hash, open_idx, idx))
            open_name = None
        elif "STATCUBE-CODEGEN" in line:
            raise ValueError((idx + 1, "malformed STATCUBE-CODEGEN marker"))
    if open_name is not None:
        raise ValueError((open_idx + 1, f"region '{open_name}' never closed"))
    return regions


def check_codegen(path, raw_lines, code_lines, violations):
    try:
        regions = find_codegen_regions(raw_lines)
    except ValueError as e:
        (lineno, msg) = e.args[0]
        violations.append(Violation(path, lineno, "codegen-drift", msg))
        return
    rel = os.path.relpath(path, REPO_ROOT)
    if rel in CODEGEN_REQUIRED and not regions:
        violations.append(Violation(
            path, 1, "codegen-drift",
            "file must carry at least one STATCUBE-CODEGEN region around "
            "its generated tables"))
    for name, recorded, begin, end in regions:
        actual = region_hash(raw_lines[begin + 1:end])
        if actual != recorded:
            violations.append(Violation(
                path, begin + 1, "codegen-drift",
                f"region '{name}' hashes to sha256:{actual} but the marker "
                f"records sha256:{recorded}; if the edit is deliberate run "
                "tools/statcube_lint.py --update-codegen-hash"))


def update_codegen_hashes(paths):
    """Rewrites BEGIN markers to the current content hash. Returns the
    number of markers changed."""
    changed = 0
    for path in paths:
        raw = read_text(path)
        raw_lines = raw.splitlines()
        try:
            regions = find_codegen_regions(raw_lines)
        except ValueError:
            continue  # the lint pass reports malformed markers
        for name, recorded, begin, end in regions:
            actual = region_hash(raw_lines[begin + 1:end])
            if actual != recorded:
                raw_lines[begin] = raw_lines[begin].replace(
                    f"sha256:{recorded}", f"sha256:{actual}")
                changed += 1
        new_text = "\n".join(raw_lines) + ("\n" if raw.endswith("\n") else "")
        if new_text != raw:
            with open(path, "w", encoding="utf-8") as f:
                f.write(new_text)
            print(f"updated {os.path.relpath(path, REPO_ROOT)}")
    return changed


# --------------------------------------------------------------------------
# Rule: doc-gated
# --------------------------------------------------------------------------

TOP_TYPE_RE = re.compile(r"^(class|struct)\s+(?:STATCUBE_\w+(?:\([^)]*\))?\s+)?"
                         r"(\w+)[^;]*$")
COMMENT_TAIL_RE = re.compile(r"^\s*(///|//|\*/|\*|/\*)")


def is_doxygen_gated(path):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.endswith((".h", ".hpp")):
        return False
    for gated in DOXYGEN_GATED:
        if gated.endswith("/"):
            if rel.startswith(gated):
                return True
        elif rel == gated:
            return True
    return False


def check_doc_gated(path, raw_lines, code_lines, violations):
    if not is_doxygen_gated(path):
        return
    if not raw_lines or not COMMENT_TAIL_RE.match(raw_lines[0]):
        if "doc-gated" not in allowed_rules_at(raw_lines, 0):
            violations.append(Violation(
                path, 1, "doc-gated",
                "gated header must open with a file-level comment"))
    for idx, line in enumerate(code_lines):
        m = TOP_TYPE_RE.match(line)
        if not m:
            continue
        # The immediately preceding line must be a comment — doxygen only
        # attaches a doc comment when it is adjacent; a blank line detaches
        # it, so we require adjacency too.
        prev = raw_lines[idx - 1] if idx > 0 else ""
        if prev.strip() and COMMENT_TAIL_RE.match(prev):
            continue
        if "doc-gated" in allowed_rules_at(raw_lines, idx):
            continue
        violations.append(Violation(
            path, idx + 1, "doc-gated",
            f"{m.group(1)} {m.group(2)} in a doxygen-gated header has no "
            "doc comment above it"))


# --------------------------------------------------------------------------
# Rule: no-cout
# --------------------------------------------------------------------------

COUT_RE = re.compile(r"\bstd::(cout|cerr)\b")


def check_no_cout(path, raw_lines, code_lines, violations):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return
    for idx, line in enumerate(code_lines):
        m = COUT_RE.search(line)
        if m and "no-cout" not in allowed_rules_at(raw_lines, idx):
            violations.append(Violation(
                path, idx + 1, "no-cout",
                f"std::{m.group(1)} in library code; report errors through "
                "Status and diagnostics through obs/log.h"))


# --------------------------------------------------------------------------
# Rule: sleep
# --------------------------------------------------------------------------

SLEEP_RE = re.compile(r"\bstd::this_thread::sleep_for\b")


def check_sleep(path, raw_lines, code_lines, violations):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("tests" + os.sep):
        return
    for idx, line in enumerate(code_lines):
        if SLEEP_RE.search(line) and "sleep" not in allowed_rules_at(
                raw_lines, idx):
            violations.append(Violation(
                path, idx + 1, "sleep",
                "std::this_thread::sleep_for in a test: a wall-clock wait "
                "is flaky when short and slow when long — poll the "
                "observable condition (loop + yield) or call the "
                "component's deterministic hook instead"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = [
    "naked-new", "naked-delete", "banned-random", "unconsumed-status",
    "include-cc", "codegen-drift", "doc-gated", "no-cout", "sleep",
]


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def collect_files(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(CXX_EXTENSIONS):
                files.append(os.path.abspath(root))
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("build", ".git", "third_party"))
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.abspath(os.path.join(dirpath, fn)))
    return files


def lint_file(path, status_names, violations):
    raw = read_text(path)
    raw_lines = raw.splitlines()
    code_lines = strip_code_view(raw).splitlines()
    # splitlines on the code view can drop a trailing blank; pad to match.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    check_new_delete(path, raw_lines, code_lines, violations)
    check_banned_random(path, raw_lines, code_lines, violations)
    check_unconsumed_status(path, raw_lines, code_lines, status_names,
                            violations)
    check_include_cc(path, raw_lines, code_lines, violations)
    check_codegen(path, raw_lines, code_lines, violations)
    check_doc_gated(path, raw_lines, code_lines, violations)
    check_no_cout(path, raw_lines, code_lines, violations)
    check_sleep(path, raw_lines, code_lines, violations)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="statcube-lint",
        description="project-specific invariant checks for StatCube")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "bench examples under the repo root)")
    parser.add_argument("--update-codegen-hash", action="store_true",
                        help="rewrite STATCUBE-CODEGEN-BEGIN hashes to the "
                             "current region content")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    roots = args.paths or [os.path.join(REPO_ROOT, d) for d in DEFAULT_ROOTS]
    roots = [r for r in roots if os.path.exists(r)]
    files = collect_files(roots)
    if not files:
        print("statcube-lint: no C++ sources found", file=sys.stderr)
        return 2

    if args.update_codegen_hash:
        changed = update_codegen_hashes(files)
        print(f"{changed} marker(s) updated")
        return 0

    status_names = harvest_status_names(os.path.join(REPO_ROOT, "src"))
    violations = []
    for path in files:
        lint_file(path, status_names, violations)

    for v in sorted(violations, key=lambda v: (v.path, v.line)):
        print(v)
    if violations:
        print(f"statcube-lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"statcube-lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
