"""Pass 4: hot-path purity.

The morsel/kernel bodies are the code the engine runs once per row or
once per block under the parallel scheduler; a blocking operation there
serializes every worker behind it. Hot regions:

 * lambdas passed to `RunMorsels(` / `ParallelFor(` (the morsel bodies:
   the coded group-by's pass);
 * `*Block*` kernels (SumBlockOrdered & co in common/vec_block.cc, and in
   exec/parallel_kernels.cc the SumBlockAuto router that the empty BY's
   fold calls);
 * functions transitively called from a hot region within the same file.

Flagged inside a hot region:

 * mutex acquisition (`MutexLock`, `.Lock()`) and `CondVar` waits;
 * sleeping (`sleep_for`, `usleep`);
 * IO (streams, printf-family, fopen);
 * metric-registry lookups (`GetCounter(...)` by name takes the registry
   lock — hoist the counter out of the loop like LoopOptions does);
 * allocation: `new`, `make_unique/make_shared`, and named container
   constructions (`std::vector<T> v(n)`) — per-morsel setup allocations
   are sometimes the right design, which is what justified
   suppressions are for.

Suppression key: `<path>:<region>:<category>` — one justified entry per
(region, operation-class) pair.
"""

import re

PASS_ID = "hotpath"

HOT_CALL_RE = re.compile(r"\b(RunMorsels|ParallelFor)\s*\(")
HOT_FUNC_NAME_RE = re.compile(r"\w*Block\w*")

_FLAG_PATTERNS = [
    ("mutex", re.compile(r"\bMutexLock\b|\.\s*Lock\s*\(|->\s*Lock\s*\(|"
                         r"\bCondVar\b|\.\s*Wait\s*\(")),
    ("sleep", re.compile(r"\bsleep_for\s*\(|\busleep\s*\(|"
                         r"\bstd::this_thread\b")),
    ("io", re.compile(r"\b[io]?fstream\b|\bfopen\s*\(|\bf?printf\s*\(|"
                      r"\bstd::cout\b|\bstd::cerr\b|\bsystem\s*\(")),
    ("registry", re.compile(r"\bGet(Counter|Gauge|Histogram)\s*\(")),
    ("alloc", re.compile(r"\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|"
                         r"\bstd::(vector|string|unordered_map|map|deque)\s*"
                         r"<[^;=]{0,120}>\s+\w+\s*\(")),
]

_CALL_ID_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")


def _function_bodies(ctx, relpath):
    """{function-name: (start_line, body_text, body_lines_offset)} using
    the cxxmodel scan for extents is overkill here; a simple signature
    scan over the code view recovers the free-function bodies the pass
    cares about."""
    from core import find_matching_brace
    lines = ctx.code_lines(relpath)
    sig_re = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?([A-Za-z_]\w*)\s*\(")
    out = {}
    idx = 0
    while idx < len(lines):
        m = sig_re.match(lines[idx])
        if not m or lines[idx].lstrip().startswith(("#", "using", "return")):
            idx += 1
            continue
        name = m.group(1)
        # Find the opening brace of the body within the next few lines,
        # bailing on a ';' first (declaration, not definition).
        open_at = None
        for j in range(idx, min(idx + 8, len(lines))):
            semi = lines[j].find(";")
            brace = lines[j].find("{", m.end() if j == idx else 0)
            if brace >= 0 and (semi < 0 or brace < semi):
                open_at = (j, brace)
                break
            if semi >= 0:
                break
        if open_at is None:
            idx += 1
            continue
        end = find_matching_brace(lines, open_at[0], open_at[1])
        if end is None:
            idx += 1
            continue
        out[name] = (idx + 1, open_at[0], end[0])
        idx = end[0] + 1
    return out


def _lambda_regions(ctx, relpath):
    """Hot lambda bodies: (label, start_line_idx, end_line_idx) for every
    lambda argument of a RunMorsels/ParallelFor call."""
    from core import find_matching_brace
    lines = ctx.code_lines(relpath)
    regions = []
    for idx, line in enumerate(lines):
        m = HOT_CALL_RE.search(line)
        if not m:
            continue
        # First '[' at or after the call, within a few lines, then the
        # first '{' after its lambda intro.
        for j in range(idx, min(idx + 6, len(lines))):
            lb = lines[j].find("[", m.end() if j == idx else 0)
            if lb < 0:
                continue
            bi, bj = None, None
            for k in range(j, min(j + 4, len(lines))):
                b = lines[k].find("{", lb + 1 if k == j else 0)
                if b >= 0:
                    bi, bj = k, b
                    break
            if bi is None:
                break
            end = find_matching_brace(lines, bi, bj)
            if end is None:
                break
            regions.append((f"{m.group(1)}-lambda", idx, bi, end[0]))
            break
    return regions


def _region_findings(ctx, relpath, label, start, end, raw_lines, findings,
                     seen):
    from core import Finding
    lines = ctx.code_lines(relpath)
    body = lines[start:end + 1]
    in_static = False  # function-local `static` initializers run once
    for off, line in enumerate(body):
        if re.match(r"\s*static\b", line):
            in_static = True
        if in_static:
            if ";" in line:
                in_static = False
            continue
        for category, pat in _FLAG_PATTERNS:
            if pat.search(line):
                key = f"{relpath}:{label}:{category}"
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    PASS_ID, key, relpath, start + off + 1,
                    f"{category} operation inside hot region '{label}' "
                    "(runs per morsel/block under the scheduler); hoist it "
                    "out of the kernel or suppress with a justification"))


def _callees(ctx, relpath, start, end):
    text = "\n".join(ctx.code_lines(relpath)[start:end + 1])
    return {m.group(1) for m in _CALL_ID_RE.finditer(text)}


def run(ctx, files=None):
    files = files if files is not None else ctx.src_files()
    findings = []
    for relpath in files:
        lines_raw = ctx.raw(relpath).split("\n")
        funcs = _function_bodies(ctx, relpath)
        regions = []  # (label, body_start, body_end)
        for label, _, bi, be in _lambda_regions(ctx, relpath):
            regions.append((label, bi, be))
        for name, (sig_line, bi, be) in funcs.items():
            if HOT_FUNC_NAME_RE.fullmatch(name):
                regions.append((name, bi, be))
        # Pull in same-file helpers called from hot regions (transitively).
        hot_names = {label for label, _, _ in regions}
        frontier = list(regions)
        while frontier:
            label, bi, be = frontier.pop()
            for callee in sorted(_callees(ctx, relpath, bi, be)):
                if callee in funcs and callee not in hot_names:
                    hot_names.add(callee)
                    _, cbi, cbe = funcs[callee]
                    regions.append((callee, cbi, cbe))
                    frontier.append((callee, cbi, cbe))
        seen = set()
        for label, bi, be in regions:
            _region_findings(ctx, relpath, label, bi, be, lines_raw,
                             findings, seen)
    return findings
