#!/usr/bin/env python3
"""tglink_lint — repo-specific static checks for the tglink codebase.

Run from anywhere:  python3 tools/tglink_lint.py [--root REPO_ROOT]
Self-test:          python3 tools/tglink_lint.py --selftest
List rules:         python3 tools/tglink_lint.py --list-rules

Registered as the `tglink_lint` ctest; exits non-zero on any finding.

Architecture: every source file is read and comment/string-scrubbed exactly
once into a FileContext; all per-file rules and the repo-level rules consume
those cached contexts. Adding a rule never adds a file read.

Rules (library code = everything under src/tglink/): see RULES below, or
run --list-rules. Suppression: append  // tglink-lint: disable=<rule>  to
the offending line. The nondeterministic-iteration rule has its own
allowlist pragma that carries a mandatory justification:

    // tglink-lint: nondeterministic-iteration-ok(<reason>)

An empty reason does not suppress — the point of the pragma is that every
unordered iteration in library code states WHY the order cannot leak into
output (e.g. "order-independent reduction" or "sorted before use").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

LIB_PREFIX = os.path.join("src", "tglink")

# rule name -> one-line contract. The single source of truth for
# --list-rules; the selftest fails if a fixture names an unknown rule.
RULES = {
    "guard-missing": (
        ".h files must use an include guard, not #pragma once"
    ),
    "guard-mismatch": (
        "the guard macro must be TGLINK_<PATH>_H_ derived from the file's "
        "path under src/ (src/tglink/util/csv.h -> TGLINK_UTIL_CSV_H_)"
    ),
    "include-relative": (
        'no relative ("../" or "./") includes anywhere'
    ),
    "include-style": (
        'project headers are included as "tglink/..." with quotes, never '
        "<tglink/...> and never bare \"csv.h\""
    ),
    "include-self": (
        "a .cc file's first include is its own header"
    ),
    "raw-rand": (
        "no rand()/srand()/random_shuffle in library code — use "
        "tglink/util/random.h (deterministic, seedable)"
    ),
    "raw-stdout": (
        "no std::cout / printf / puts in library code — return values or "
        "TGLINK_LOG keep the library silent for embedding"
    ),
    "ignored-status": (
        "a statement that calls a known Status-returning function and "
        "drops the result; consume it or TGLINK_CHECK_OK it"
    ),
    "dcheck-side-effect": (
        "TGLINK_DCHECK conditions must not contain obvious mutations "
        "(++/--/=), since they vanish under NDEBUG"
    ),
    "raw-stopwatch": (
        "no hand-rolled std::chrono stopwatches or tglink/util/timer.h in "
        "library code — instrument with the tglink/obs APIs instead (the "
        "obs layer, util/timer.h and logging.cc implement the clocks and "
        "are exempt)"
    ),
    "raw-thread": (
        "no std::thread / std::jthread / std::async in library code — "
        "parallel sections go through tglink/util/parallel.h (which itself "
        "implements the pool and is exempt)"
    ),
    "raw-mutex": (
        "no raw std::mutex / std::shared_mutex / lock wrappers / "
        "condition_variable spellings in library code — use the "
        "capability-annotated types in tglink/util/thread_annotations.h so "
        "the analyze preset can check the lock discipline (that header "
        "implements the wrappers and is exempt)"
    ),
    "nondeterministic-iteration": (
        "no iteration (range-for or .begin()) over std::unordered_map/"
        "unordered_set variables in library code — hash order is not a "
        "program invariant and silently leaks into output; sort into a "
        "vector first, or annotate the line with "
        "// tglink-lint: nondeterministic-iteration-ok(<reason>) stating "
        "why the order cannot be observed"
    ),
    "pointer-keyed-order": (
        "no ordered containers keyed on raw pointers (std::map<T*, ...>, "
        "std::set<T*>, std::less<T*>) and no address-comparing sorts in "
        "library code — pointer order is allocation order, which varies "
        "run to run; key on a stable id instead"
    ),
    "blocking-test-missing": (
        "every source file under src/tglink/blocking/ must have a test "
        "under tests/ that includes its header (repo-level rule; no inline "
        "suppression)"
    ),
    "hot-path-alloc": (
        "similarity kernels must not take std::string by value or "
        "construct std::set/std::map — the scoring hot loop stays "
        "allocation-free (string_view / const& and flat or unordered "
        "containers are fine)"
    ),
    "raw-allocator-hook": (
        "no operator new/delete replacement, malloc_usable_size, or "
        "/proc/self access in library code — allocator interposition and "
        "RSS sampling live only in src/tglink/obs/memprof.{h,cc}, which "
        "implements them and is exempt"
    ),
    "scenario-schema": (
        'every scenarios/*.json must be a valid tglink.scenario/1 document: '
        "strict JSON, schema + name fields, name matching the filename, "
        "only known section keys, and every rate in range (repo-level "
        "rule; no inline suppression)"
    ),
}

# Functions returning Status whose result must be consumed. Kept explicit
# (rather than parsed out of headers) so the lint is fast and the contract
# is reviewable; extend when new Status-returning APIs appear.
STATUS_FUNCTIONS = (
    "RecordMapping::Add",
    "WriteCsv",
    "LoadCsv",
    "SaveResult",
    "LoadResult",
)
# Method-call spellings of the above (obj.Add(...) / ptr->Add(...)).
STATUS_METHOD_NAMES = ("Add",)

SUPPRESS_RE = re.compile(r"//\s*tglink-lint:\s*disable=([\w,-]+)")

# The justification pragma for nondeterministic-iteration. The reason group
# must contain a non-space character; `-ok()` suppresses nothing.
ITERATION_OK_RE = re.compile(
    r"//\s*tglink-lint:\s*nondeterministic-iteration-ok\(\s*[^)\s][^)]*\)"
)

# Library files allowed to touch std::chrono directly: the observability
# layer and the timing/timestamp utilities ARE the sanctioned clocks.
STOPWATCH_EXEMPT = (
    os.path.join("src", "tglink", "obs") + os.sep,
    os.path.join("src", "tglink", "util", "timer.h"),
    os.path.join("src", "tglink", "util", "logging.cc"),
)

STOPWATCH_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)

# Library files allowed to spawn threads directly: the parallel-execution
# layer IS the sanctioned thread owner.
THREAD_EXEMPT = (
    os.path.join("src", "tglink", "util", "parallel.h"),
    os.path.join("src", "tglink", "util", "parallel.cc"),
)

THREAD_RE = re.compile(r"std::(?:jthread|thread|async)\b")

# The one library file allowed to spell the std synchronization vocabulary:
# it implements the annotated wrappers everything else must use.
MUTEX_EXEMPT = (
    os.path.join("src", "tglink", "util", "thread_annotations.h"),
)

MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_(?:timed_)?|timed_)?mutex\b"
    r"|\bstd::shared_(?:timed_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)

# The one library component allowed to replace the global allocator and
# read /proc/self: the memory profiler implements the interposition and
# RSS sampling everything else observes through its API.
ALLOCATOR_HOOK_EXEMPT = (
    os.path.join("src", "tglink", "obs", "memprof.h"),
    os.path.join("src", "tglink", "obs", "memprof.cc"),
)

ALLOCATOR_HOOK_RE = re.compile(
    r"\boperator\s+(?:new|delete)\b|\bmalloc_usable_size\b"
)
# Matched against RAW lines: the path only ever appears inside string
# literals, which the scrubber blanks out.
PROC_SELF_RE = re.compile(r"/proc/self")

# --- nondeterministic-iteration machinery ----------------------------------
# Variable names are collected per file from declaration-looking lines; a
# name also declared with a deterministic container type anywhere in the
# same file is treated as ambiguous and skipped (file-level name tracking
# has no scopes, so a collision must never produce a false positive).
UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
DETERMINISTIC_DECL_RE = re.compile(
    r"\bstd::(?:vector|array|deque|list|map|set|multimap|multiset)\s*<"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*):\s*([\w.\->]+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

# --- pointer-keyed-order machinery -----------------------------------------
# An ordered map/set whose FIRST template argument is a pointer type. The
# character class excludes ',', so std::map<int, Foo*> (pointer value, fine)
# cannot match: the scan stops at the comma before reaching '*'.
POINTER_KEY_RE = re.compile(
    r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:<>\s]*\*"
)
POINTER_LESS_RE = re.compile(r"\bstd::less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>")
# One-line lambda comparing two pointer parameters by address. Line-local by
# construction; multi-line address comparators are caught in review, not
# here (a cross-line parser is not worth the rule).
ADDRESS_SORT_RE = re.compile(
    r"\(\s*(?:const\s+)?[\w:]+\s*\*\s*(\w+)\s*,\s*(?:const\s+)?[\w:]+\s*\*"
    r"\s*(\w+)\s*\)[^;{]*\{\s*return\s+(?:\1\s*<\s*\2|\2\s*<\s*\1)\b"
)

# The similarity layer is the scoring hot path; see DESIGN.md §10.
HOT_PATH_PREFIX = os.path.join("src", "tglink", "similarity") + os.sep

# `std::string name` immediately followed by `,` or `)` — a by-value string
# parameter. Return types (`std::string Foo(`), references, pointers,
# string_view and locals (`std::string s;`) all fail the tail match.
STRING_BYVAL_RE = re.compile(r"std::string\s+\w+\s*[,)]")

# Node-based ordered containers allocate per element; the hot path uses
# sorted flat vectors (gram profiles) or unordered maps (interner, memo).
ORDERED_CONTAINER_RE = re.compile(r"std::(?:multi)?(?:set|map)\s*<")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub so tokens inside strings/comments don't trip
    rules. Block comments spanning lines are handled by FileContext."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    line = re.sub(r"//.*", "", line)
    return line


class FileContext:
    """One source file, read and scrubbed exactly once. Every rule — per-file
    and repo-level — works from this cache; none re-opens the file."""

    def __init__(self, relpath: str, text: str):
        self.relpath = relpath
        self.text = text
        self.raw_lines: list[str] = text.splitlines()
        self.is_lib = relpath.startswith(LIB_PREFIX)
        self.is_header = relpath.endswith(".h")
        self.is_source = relpath.endswith((".cc", ".cpp"))
        # Scrubbed lines: strings/comments blanked, block comments (which
        # the per-line scrub can't see) resolved with carried state. A line
        # fully inside a block comment scrubs to "".
        self.scrubbed_lines: list[str] = []
        in_block = False
        for raw in self.raw_lines:
            line = raw
            if in_block:
                if "*/" in line:
                    line = line.split("*/", 1)[1]
                    in_block = False
                else:
                    self.scrubbed_lines.append("")
                    continue
            scrubbed = strip_comments_and_strings(line)
            if "/*" in scrubbed and "*/" not in scrubbed:
                in_block = True
                scrubbed = scrubbed.split("/*", 1)[0]
            self.scrubbed_lines.append(scrubbed)

    @staticmethod
    def load(root: str, relpath: str) -> "FileContext | None":
        try:
            with open(os.path.join(root, relpath), encoding="utf-8",
                      errors="replace") as f:
                return FileContext(relpath, f.read())
        except OSError:
            return None


def expected_guard(relpath: str) -> str:
    # src/tglink/util/csv.h -> TGLINK_UTIL_CSV_H_
    inner = relpath[len("src") + 1 :]  # tglink/util/csv.h
    stem = inner[: -len(".h")]
    return stem.upper().replace(os.sep, "_").replace("-", "_") + "_H_"


def suppressed(line: str, rule: str) -> bool:
    m = SUPPRESS_RE.search(line)
    return bool(m) and rule in m.group(1).split(",")


def _names_declared_with(line: str, type_re: re.Pattern[str]) -> set[str]:
    """Names of variables a scrubbed line declares with a type matching
    `type_re` (which must end at the opening '<' of the template args):
    walks to the matching '>' and takes the identifier that follows."""
    names: set[str] = set()
    for m in type_re.finditer(line):
        i, depth = m.end(), 1
        while i < len(line) and depth:
            if line[i] == "<":
                depth += 1
            elif line[i] == ">":
                depth -= 1
            i += 1
        vm = re.match(r"[&\s]*(\w+)", line[i:])
        if vm:
            names.add(vm.group(1))
    return names


def lint_file(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    relpath = ctx.relpath
    raw_lines = ctx.raw_lines

    is_lib = ctx.is_lib
    stopwatch_exempt = relpath.startswith(STOPWATCH_EXEMPT)
    thread_exempt = relpath in THREAD_EXEMPT
    mutex_exempt = relpath in MUTEX_EXEMPT
    allocator_hook_exempt = relpath in ALLOCATOR_HOOK_EXEMPT

    def add(line_no: int, rule: str, message: str) -> None:
        if not suppressed(raw_lines[line_no - 1], rule):
            findings.append(Finding(relpath, line_no, rule, message))

    # --- header guard rules -------------------------------------------------
    if ctx.is_header and is_lib:
        text = ctx.text
        if "#pragma once" in text:
            line = next(
                i + 1 for i, l in enumerate(raw_lines) if "#pragma once" in l
            )
            add(line, "guard-missing",
                "use a TGLINK_..._H_ include guard, not #pragma once")
        else:
            m = re.search(r"^#ifndef\s+(\S+)", text, re.MULTILINE)
            want = expected_guard(relpath)
            if not m:
                add(1, "guard-missing", f"missing include guard {want}")
            elif m.group(1) != want:
                line = text[: m.start()].count("\n") + 1
                add(line, "guard-mismatch",
                    f"guard {m.group(1)} should be {want}")

    # --- nondeterministic-iteration prepass ---------------------------------
    # Collect names declared as unordered containers; drop any name that is
    # also declared with a deterministic container type somewhere in the
    # file (scope collisions must never flag the deterministic one).
    unordered_names: set[str] = set()
    deterministic_names: set[str] = set()
    if is_lib:
        for scrubbed in ctx.scrubbed_lines:
            if "unordered_" in scrubbed:
                unordered_names |= _names_declared_with(
                    scrubbed, UNORDERED_DECL_RE)
            deterministic_names |= _names_declared_with(
                scrubbed, DETERMINISTIC_DECL_RE)
        unordered_names -= deterministic_names

    # --- line-by-line rules -------------------------------------------------
    first_include: str | None = None
    for i, raw in enumerate(raw_lines, start=1):
        scrubbed = ctx.scrubbed_lines[i - 1]

        # Includes are parsed from the unscrubbed line: the quoted target is
        # a string literal and must survive.
        inc = re.match(r'\s*#\s*include\s+(["<])([^">]+)[">]', raw)
        if inc:
            style, target = inc.group(1), inc.group(2)
            if target.startswith(("../", "./")):
                add(i, "include-relative",
                    f'relative include "{target}"; include from the '
                    f'source root as "tglink/..."')
            if "tglink/" in target and style == "<":
                add(i, "include-style",
                    f"project header <{target}> must use quotes")
            if (
                style == '"'
                and is_lib
                and not target.startswith("tglink/")
                and not target.startswith(("../", "./"))
            ):
                add(i, "include-style",
                    f'"{target}" must be included by its full '
                    f'"tglink/..." path')
            if (
                is_lib
                and not stopwatch_exempt
                and target == "tglink/util/timer.h"
            ):
                add(i, "raw-stopwatch",
                    "util/timer.h in library code; time phases with "
                    "TGLINK_TRACE_SPAN / tglink/obs metrics instead")
            if first_include is None:
                first_include = target

        if not is_lib:
            continue

        if not stopwatch_exempt and STOPWATCH_RE.search(scrubbed):
            add(i, "raw-stopwatch",
                "hand-rolled std::chrono stopwatch in library code; use "
                "TGLINK_TRACE_SPAN / tglink/obs metrics instead")

        if not thread_exempt and THREAD_RE.search(scrubbed):
            add(i, "raw-thread",
                "raw thread spawn in library code; run the work through "
                "ParallelFor/ParallelMap in tglink/util/parallel.h")

        if not mutex_exempt and MUTEX_RE.search(scrubbed):
            add(i, "raw-mutex",
                "raw std synchronization primitive in library code; use "
                "Mutex/MutexLock/CondVar from "
                "tglink/util/thread_annotations.h so the lock discipline "
                "is visible to -Wthread-safety")

        if not allocator_hook_exempt and (
            ALLOCATOR_HOOK_RE.search(scrubbed) or PROC_SELF_RE.search(raw)
        ):
            add(i, "raw-allocator-hook",
                "raw allocator hook or /proc/self access in library code; "
                "allocation tracking and RSS sampling go through "
                "tglink/obs/memprof.h")

        if unordered_names:
            flagged_iteration = False
            fm = RANGE_FOR_RE.search(scrubbed)
            if fm:
                container = re.split(r"\.|->", fm.group(2))[-1]
                if container in unordered_names:
                    flagged_iteration = True
            if not flagged_iteration:
                for bm in BEGIN_CALL_RE.finditer(scrubbed):
                    if bm.group(1) in unordered_names:
                        flagged_iteration = True
                        break
            # The justification pragma may sit on the flagged line or, for
            # 80-column hygiene, on the line directly above it.
            justified = bool(ITERATION_OK_RE.search(raw)) or (
                i >= 2 and bool(ITERATION_OK_RE.search(raw_lines[i - 2]))
            )
            if flagged_iteration and not justified:
                add(i, "nondeterministic-iteration",
                    "iteration over an unordered container in library "
                    "code; hash order is not deterministic — sort into a "
                    "vector, or justify with // tglink-lint: "
                    "nondeterministic-iteration-ok(<reason>)")

        if (POINTER_KEY_RE.search(scrubbed)
                or POINTER_LESS_RE.search(scrubbed)):
            add(i, "pointer-keyed-order",
                "ordered container keyed on a raw pointer; pointer order "
                "is allocation order and varies run to run — key on a "
                "stable id")
        elif ADDRESS_SORT_RE.search(scrubbed):
            add(i, "pointer-keyed-order",
                "comparator orders by pointer address; address order "
                "varies run to run — compare a stable id")

        if relpath.startswith(HOT_PATH_PREFIX):
            if STRING_BYVAL_RE.search(scrubbed):
                add(i, "hot-path-alloc",
                    "std::string by-value parameter in a similarity kernel; "
                    "take std::string_view (or const std::string&)")
            if ORDERED_CONTAINER_RE.search(scrubbed):
                add(i, "hot-path-alloc",
                    "std::set/std::map in the similarity hot path; use a "
                    "sorted flat vector or an unordered container")

        if re.search(r"(?<![\w:])s?rand\s*\(", scrubbed) or re.search(
            r"std::random_shuffle", scrubbed
        ):
            add(i, "raw-rand",
                "raw C PRNG in library code; use tglink/util/random.h")

        if re.search(r"std::cout|(?<![\w:])printf\s*\(|(?<![\w:])puts\s*\(",
                     scrubbed):
            add(i, "raw-stdout",
                "stdout output in library code; return data or use "
                "TGLINK_LOG")

        # Ignored Status: a bare call statement to a known Status API.
        stmt = scrubbed.strip()
        for fn in STATUS_FUNCTIONS:
            bare = fn.split("::")[-1]
            if re.match(rf"(?:\w+(?:\.|->))?{re.escape(bare)}\s*\(.*\)\s*;\s*$",
                        stmt) and bare in [
                f.split("::")[-1] for f in STATUS_FUNCTIONS
            ]:
                if bare in STATUS_METHOD_NAMES and not re.match(
                    r"\w+(?:\.|->)", stmt
                ):
                    continue  # free function named Add: not ours
                add(i, "ignored-status",
                    f"result of Status-returning {bare}() is dropped; "
                    f"assign it or wrap in TGLINK_CHECK_OK")
                break

        dm = re.search(r"TGLINK_DCHECK\s*\((.*)\)", scrubbed)
        if dm:
            cond = dm.group(1)
            if re.search(r"\+\+|--", cond) or re.search(
                r"(?<![=!<>+\-*/&|^])=(?![=])", cond
            ):
                add(i, "dcheck-side-effect",
                    "TGLINK_DCHECK condition appears to mutate state; it "
                    "is compiled out under NDEBUG")

    # --- include-self -------------------------------------------------------
    if ctx.is_source and is_lib and first_include is not None:
        own = relpath[len("src") + 1 :]
        own_header = re.sub(r"\.(cc|cpp)$", ".h", own).replace(os.sep, "/")
        if first_include != own_header:
            add(1, "include-self",
                f'first include should be own header "{own_header}", '
                f'found "{first_include}"')

    return findings


def lint_blocking_tests(contexts: dict[str, FileContext]) -> list[Finding]:
    """Repo-level rule: each file in src/tglink/blocking/ needs a test under
    tests/ that includes its header (a .cc is covered via its .h sibling).
    Works entirely from the preloaded contexts — no extra file reads."""
    findings: list[Finding] = []
    blocking_prefix = os.path.join("src", "tglink", "blocking") + os.sep
    tests_prefix = "tests" + os.sep

    include_re = re.compile(r'#\s*include\s+"(tglink/blocking/[^"]+)"')
    included: set[str] = set()
    for relpath, ctx in contexts.items():
        if relpath.startswith(tests_prefix):
            included.update(include_re.findall(ctx.text))

    for relpath in sorted(contexts):
        if not relpath.startswith(blocking_prefix):
            continue
        name = os.path.basename(relpath)
        stem = re.sub(r"\.(h|cc|cpp)$", "", name)
        header = f"tglink/blocking/{stem}.h"
        if header not in included:
            findings.append(Finding(
                relpath, 1, "blocking-test-missing",
                f'no test under tests/ includes "{header}"; add one '
                f"exercising this file"))
    return findings


# --- scenario-schema machinery ---------------------------------------------
# A python-side mirror of synth/scenario.cc's strict parser, kept in sync by
# the selftest fixtures AND by ctest's scenario_test (which byte-compares the
# embedded presets against scenarios/). The lint catches a broken profile at
# review time, before any binary is built.

SCENARIO_SCHEMA = "tglink.scenario/1"

SCENARIO_TOP_KEYS = {
    "schema", "name", "description", "generator", "population", "corruption",
}
SCENARIO_GENERATOR_KEYS = {"seed", "start_year", "num_censuses", "scale"}
SCENARIO_POPULATION_PROBS = {
    "death_prob_child", "death_prob_young", "death_prob_mid",
    "death_prob_old", "death_prob_elder", "marriage_prob",
    "couple_new_household_prob", "leave_home_prob", "leave_as_lodger_prob",
    "household_move_prob", "occupation_change_prob",
    "female_occupation_prob", "emigration_prob", "widow_merge_prob",
    "servant_prob", "lodger_prob", "parent_coresident_prob",
    "servant_turnover_prob", "mass_surname_change_prob",
    "household_dissolution_prob",
}
SCENARIO_POPULATION_NONNEG = {
    "birth_mean", "initial_children_mean", "migration_shock_multiplier",
}
SCENARIO_POPULATION_KEYS = (
    SCENARIO_POPULATION_PROBS | SCENARIO_POPULATION_NONNEG
    | {"household_targets", "migration_shock_decade"}
)
SCENARIO_CORRUPTION_SCALED_PROBS = {
    "name_typo_prob", "nickname_prob", "age_error_prob",
    "missing_first_name", "missing_surname", "missing_sex", "missing_age",
    "missing_address", "missing_occupation",
}
SCENARIO_CORRUPTION_KEYS = (
    SCENARIO_CORRUPTION_SCALED_PROBS
    | {"noise_scale", "age_error_max", "duplicate_record_prob"}
)


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate object key '{key}'")
        seen.add(key)
    return dict(pairs)


def _scenario_problems(name_stem: str, text: str) -> list[str]:
    """All schema violations of one scenario document (empty = valid)."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ValueError as err:
        return [f"not valid JSON: {err}"]
    if not isinstance(doc, dict):
        return ["document must be an object"]

    problems: list[str] = []

    def number(section: str, key: str, value) -> float | None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{section}.{key} must be a number")
            return None
        return float(value)

    for key in doc:
        if key not in SCENARIO_TOP_KEYS:
            problems.append(f"{key} is not a scenario field")
    if doc.get("schema") != SCENARIO_SCHEMA:
        problems.append(f'schema must be "{SCENARIO_SCHEMA}"')
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name must be a non-empty string")
    elif name != name_stem:
        problems.append(
            f"name '{name}' must match the filename stem '{name_stem}'")

    generator = doc.get("generator", {})
    if not isinstance(generator, dict):
        problems.append("generator must be an object")
        generator = {}
    for key, value in generator.items():
        if key not in SCENARIO_GENERATOR_KEYS:
            problems.append(f"generator.{key} is not a generator field")
            continue
        v = number("generator", key, value)
        if v is None:
            continue
        if key != "scale" and v != math.floor(v):
            problems.append(f"generator.{key} must be an integer")
        elif key == "seed" and v < 0:
            problems.append("generator.seed must be non-negative")
        elif key == "num_censuses" and v < 1:
            problems.append("generator.num_censuses must be >= 1")
        elif key == "scale" and not v > 0:
            problems.append("generator.scale must be positive")

    population = doc.get("population", {})
    if not isinstance(population, dict):
        problems.append("population must be an object")
        population = {}
    for key, value in population.items():
        if key == "household_targets":
            if (not isinstance(value, list) or not value
                    or any(isinstance(t, bool) or not isinstance(t, int)
                           or t < 1 for t in value)):
                problems.append(
                    "population.household_targets must be a non-empty "
                    "array of integers >= 1")
        elif key == "migration_shock_decade":
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                problems.append(
                    "population.migration_shock_decade must be a "
                    "non-negative integer")
        elif key in SCENARIO_POPULATION_PROBS:
            v = number("population", key, value)
            if v is not None and not 0.0 <= v <= 1.0:
                problems.append(f"population.{key} = {v} outside [0, 1]")
        elif key in SCENARIO_POPULATION_NONNEG:
            v = number("population", key, value)
            if v is not None and v < 0:
                problems.append(f"population.{key} = {v} is negative")
        else:
            problems.append(f"population.{key} is not a population field")

    corruption = doc.get("corruption", {})
    if not isinstance(corruption, dict):
        problems.append("corruption must be an object")
        corruption = {}
    noise_scale = corruption.get("noise_scale", 1.0)
    if isinstance(noise_scale, bool) or \
            not isinstance(noise_scale, (int, float)):
        noise_scale = 1.0
    for key, value in corruption.items():
        if key == "noise_scale":
            v = number("corruption", key, value)
            if v is not None and v < 0:
                problems.append("corruption.noise_scale must be "
                                "non-negative")
        elif key == "age_error_max":
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                problems.append("corruption.age_error_max must be an "
                                "integer >= 1")
        elif key == "duplicate_record_prob":
            v = number("corruption", key, value)
            if v is not None and not 0.0 <= v <= 1.0:
                problems.append(
                    f"corruption.duplicate_record_prob = {v} outside "
                    "[0, 1]")
        elif key in SCENARIO_CORRUPTION_SCALED_PROBS:
            v = number("corruption", key, value)
            if v is not None:
                if not 0.0 <= v <= 1.0:
                    problems.append(
                        f"corruption.{key} = {v} outside [0, 1]")
                elif v * noise_scale > 1.0:
                    problems.append(
                        f"corruption.{key} * noise_scale = "
                        f"{v * noise_scale} exceeds 1")
        else:
            problems.append(f"corruption.{key} is not a corruption field")

    return problems


def lint_scenarios(root: str) -> list[Finding]:
    """Repo-level rule: every scenarios/*.json validates against the
    tglink.scenario/1 schema and is named after its file."""
    findings: list[Finding] = []
    base = os.path.join(root, "scenarios")
    if not os.path.isdir(base):
        return findings
    for name in sorted(os.listdir(base)):
        if not name.endswith(".json"):
            continue
        relpath = os.path.join("scenarios", name)
        try:
            with open(os.path.join(base, name), encoding="utf-8") as f:
                text = f.read()
        except OSError as err:
            findings.append(Finding(relpath, 1, "scenario-schema",
                                    f"unreadable: {err}"))
            continue
        for problem in _scenario_problems(name[: -len(".json")], text):
            findings.append(Finding(relpath, 1, "scenario-schema", problem))
    return findings


def collect_files(root: str) -> list[str]:
    out: list[str] = []
    for sub in ("src", "tools", "tests", "bench", "examples"):
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".cpp")):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    return sorted(out)


def load_contexts(root: str) -> dict[str, FileContext]:
    """The single read pass: every collected file becomes one FileContext."""
    contexts: dict[str, FileContext] = {}
    for relpath in collect_files(root):
        ctx = FileContext.load(root, relpath)
        if ctx is not None:
            contexts[relpath] = ctx
    return contexts


def run_lint(root: str) -> int:
    contexts = load_contexts(root)
    if not contexts:
        print(f"tglink_lint: no sources found under {root}", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for relpath in sorted(contexts):
        findings.extend(lint_file(contexts[relpath]))
    findings.extend(lint_blocking_tests(contexts))
    findings.extend(lint_scenarios(root))
    for f in findings:
        print(f)
    summary = (f"tglink_lint: {len(contexts)} files, "
               f"{len(findings)} finding(s)")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


def list_rules() -> int:
    width = max(len(name) for name in RULES)
    for name in sorted(RULES):
        print(f"{name:<{width}}  {RULES[name]}")
    return 0


# --- self-test -------------------------------------------------------------

# Each fixture is (relative path, content, set of rules it must trigger).
FIXTURES = [
    (
        "src/tglink/bad/pragma.h",
        "#pragma once\nint X();\n",
        {"guard-missing"},
    ),
    (
        "src/tglink/bad/wrong_guard.h",
        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
        {"guard-mismatch"},
    ),
    (
        "src/tglink/bad/relative.cc",
        '#include "tglink/bad/relative.h"\n#include "../util/csv.h"\n',
        {"include-relative"},
    ),
    (
        "src/tglink/bad/angle.cc",
        '#include "tglink/bad/angle.h"\n#include <tglink/util/csv.h>\n',
        {"include-style"},
    ),
    (
        "src/tglink/bad/bare_include.cc",
        '#include "tglink/bad/bare_include.h"\n#include "csv.h"\n',
        {"include-style"},
    ),
    (
        "src/tglink/bad/not_self_first.cc",
        '#include "tglink/util/csv.h"\n'
        '#include "tglink/bad/not_self_first.h"\n',
        {"include-self"},
    ),
    (
        "src/tglink/bad/uses_rand.cc",
        '#include "tglink/bad/uses_rand.h"\n'
        "int Noise() { return rand() % 6; }\n",
        {"raw-rand"},
    ),
    (
        "src/tglink/bad/uses_cout.cc",
        '#include "tglink/bad/uses_cout.h"\n'
        "#include <iostream>\n"
        'void Shout() { std::cout << "loud";\n}\n',
        {"raw-stdout"},
    ),
    (
        "src/tglink/bad/drops_status.cc",
        '#include "tglink/bad/drops_status.h"\n'
        "void F(tglink::RecordMapping& m) {\n"
        "  m.Add(1, 2);\n"
        "}\n",
        {"ignored-status"},
    ),
    (
        "src/tglink/bad/dcheck_mutates.cc",
        '#include "tglink/bad/dcheck_mutates.h"\n'
        "void G(int n) {\n"
        "  TGLINK_DCHECK(n++ < 10);\n"
        "}\n",
        {"dcheck-side-effect"},
    ),
    (
        "src/tglink/bad/stopwatch.cc",
        '#include "tglink/bad/stopwatch.h"\n'
        "#include <chrono>\n"
        "double Now() {\n"
        "  auto t = std::chrono::steady_clock::now();\n"
        "  return t.time_since_epoch().count();\n"
        "}\n",
        {"raw-stopwatch"},
    ),
    (
        "src/tglink/bad/timer_include.cc",
        '#include "tglink/bad/timer_include.h"\n'
        '#include "tglink/util/timer.h"\n',
        {"raw-stopwatch"},
    ),
    (
        "src/tglink/bad/spawns_thread.cc",
        '#include "tglink/bad/spawns_thread.h"\n'
        "#include <thread>\n"
        "void Fire() {\n"
        "  std::thread t([] {});\n"
        "  t.join();\n"
        "}\n",
        {"raw-thread"},
    ),
    (
        "src/tglink/bad/uses_async.cc",
        '#include "tglink/bad/uses_async.h"\n'
        "#include <future>\n"
        "int Later() { return std::async([] { return 1; }).get(); }\n",
        {"raw-thread"},
    ),
    (
        # The parallel layer owns the workers — exempt from raw-thread.
        "src/tglink/util/parallel.cc",
        '#include "tglink/util/parallel.h"\n'
        "#include <thread>\n"
        "namespace tglink {\n"
        "unsigned Hw() { return std::thread::hardware_concurrency(); }\n"
        "}  // namespace tglink\n",
        set(),
    ),
    (
        # The obs layer implements the clocks — exempt from raw-stopwatch.
        "src/tglink/obs/exempt_clock.cc",
        '#include "tglink/obs/exempt_clock.h"\n'
        "#include <chrono>\n"
        "long Tick() {\n"
        "  return std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "}\n",
        set(),
    ),
    (
        # A clean library file: none of the rules may fire on it.
        "src/tglink/bad/clean.h",
        "#ifndef TGLINK_BAD_CLEAN_H_\n"
        "#define TGLINK_BAD_CLEAN_H_\n"
        '#include "tglink/util/status.h"\n'
        "namespace tglink {\n"
        "int F();\n"
        "}  // namespace tglink\n"
        "#endif  // TGLINK_BAD_CLEAN_H_\n",
        set(),
    ),
    (
        # Suppression comment must silence the finding.
        "src/tglink/bad/suppressed.cc",
        '#include "tglink/bad/suppressed.h"\n'
        "int H() { return rand(); }  // tglink-lint: disable=raw-rand\n",
        set(),
    ),
    # --- raw-mutex ---------------------------------------------------------
    (
        "src/tglink/bad/raw_mutex.cc",
        '#include "tglink/bad/raw_mutex.h"\n'
        "#include <mutex>\n"
        "namespace tglink {\n"
        "std::mutex g_mu;\n"
        "void Bump(int* n) {\n"
        "  std::lock_guard<std::mutex> lock(g_mu);\n"
        "  ++*n;\n"
        "}\n"
        "}  // namespace tglink\n",
        {"raw-mutex"},
    ),
    (
        "src/tglink/bad/raw_shared_mutex.h",
        "#ifndef TGLINK_BAD_RAW_SHARED_MUTEX_H_\n"
        "#define TGLINK_BAD_RAW_SHARED_MUTEX_H_\n"
        "#include <shared_mutex>\n"
        "namespace tglink {\n"
        "struct Table {\n"
        "  mutable std::shared_mutex mu;\n"
        "};\n"
        "}  // namespace tglink\n"
        "#endif  // TGLINK_BAD_RAW_SHARED_MUTEX_H_\n",
        {"raw-mutex"},
    ),
    (
        "src/tglink/bad/raw_condvar.cc",
        '#include "tglink/bad/raw_condvar.h"\n'
        "#include <condition_variable>\n"
        "namespace tglink {\n"
        "std::condition_variable g_cv;\n"
        "void Poke() { g_cv.notify_one(); }\n"
        "}  // namespace tglink\n",
        {"raw-mutex"},
    ),
    (
        # The wrapper header itself implements the primitives — exempt.
        "src/tglink/util/thread_annotations.h",
        "#ifndef TGLINK_UTIL_THREAD_ANNOTATIONS_H_\n"
        "#define TGLINK_UTIL_THREAD_ANNOTATIONS_H_\n"
        "#include <mutex>\n"
        "namespace tglink {\n"
        "class Mutex {\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "};\n"
        "}  // namespace tglink\n"
        "#endif  // TGLINK_UTIL_THREAD_ANNOTATIONS_H_\n",
        set(),
    ),
    (
        # Non-library code (tools/tests/bench) may use std primitives.
        "tests/raw_mutex_ok_test.cc",
        "#include <mutex>\n"
        "std::mutex g_mu;\n",
        set(),
    ),
    # --- nondeterministic-iteration ----------------------------------------
    (
        "src/tglink/bad/unordered_rangefor.cc",
        '#include "tglink/bad/unordered_rangefor.h"\n'
        "#include <unordered_map>\n"
        "#include <vector>\n"
        "namespace tglink {\n"
        "std::vector<int> Keys() {\n"
        "  std::unordered_map<int, int> table;\n"
        "  std::vector<int> keys;\n"
        "  for (const auto& [key, value] : table) keys.push_back(key);\n"
        "  return keys;\n"
        "}\n"
        "}  // namespace tglink\n",
        {"nondeterministic-iteration"},
    ),
    (
        "src/tglink/bad/unordered_begin.cc",
        '#include "tglink/bad/unordered_begin.h"\n'
        "#include <algorithm>\n"
        "#include <unordered_set>\n"
        "namespace tglink {\n"
        "int First() {\n"
        "  std::unordered_set<int> seen;\n"
        "  return *std::min_element(seen.begin(), seen.end());\n"
        "}\n"
        "}  // namespace tglink\n",
        {"nondeterministic-iteration"},
    ),
    (
        # The justification pragma with a reason silences the rule, from
        # the flagged line itself or from the line directly above.
        "src/tglink/bad/unordered_justified.cc",
        '#include "tglink/bad/unordered_justified.h"\n'
        "#include <unordered_map>\n"
        "namespace tglink {\n"
        "int Total() {\n"
        "  std::unordered_map<int, int> table;\n"
        "  int total = 0;\n"
        "  // tglink-lint: nondeterministic-iteration-ok(order-independent "
        "sum)\n"
        "  for (const auto& [key, value] : table) total += value;\n"
        "  int spread = 0;\n"
        "  for (const auto& [key, value] : table) spread += key;"
        "  // tglink-lint: nondeterministic-iteration-ok(order-independent "
        "sum)\n"
        "  return total + spread;\n"
        "}\n"
        "}  // namespace tglink\n",
        set(),
    ),
    (
        # An empty reason is no justification: the rule still fires.
        "src/tglink/bad/unordered_empty_reason.cc",
        '#include "tglink/bad/unordered_empty_reason.h"\n'
        "#include <unordered_map>\n"
        "namespace tglink {\n"
        "int Total() {\n"
        "  std::unordered_map<int, int> table;\n"
        "  int total = 0;\n"
        "  for (const auto& [key, value] : table) total += value;"
        "  // tglink-lint: nondeterministic-iteration-ok()\n"
        "  return total;\n"
        "}\n"
        "}  // namespace tglink\n",
        {"nondeterministic-iteration"},
    ),
    (
        # Lookup-only unordered maps are the sanctioned pattern — clean.
        "src/tglink/bad/unordered_lookup_only.cc",
        '#include "tglink/bad/unordered_lookup_only.h"\n'
        "#include <unordered_map>\n"
        "namespace tglink {\n"
        "int Get(int key) {\n"
        "  std::unordered_map<int, int> table;\n"
        "  auto it = table.find(key);\n"
        "  return it == table.end() ? 0 : it->second;\n"
        "}\n"
        "}  // namespace tglink\n",
        set(),
    ),
    (
        # A name declared unordered in one scope and vector in another is
        # ambiguous at file granularity: iterating the vector must be clean.
        "src/tglink/bad/unordered_name_collision.cc",
        '#include "tglink/bad/unordered_name_collision.h"\n'
        "#include <algorithm>\n"
        "#include <unordered_map>\n"
        "#include <vector>\n"
        "namespace tglink {\n"
        "int A() {\n"
        "  std::unordered_map<int, int> out;\n"
        "  return static_cast<int>(out.size());\n"
        "}\n"
        "void B() {\n"
        "  std::vector<int> out;\n"
        "  std::sort(out.begin(), out.end());\n"
        "}\n"
        "}  // namespace tglink\n",
        set(),
    ),
    # --- pointer-keyed-order -----------------------------------------------
    (
        "src/tglink/bad/pointer_key_map.cc",
        '#include "tglink/bad/pointer_key_map.h"\n'
        "#include <map>\n"
        "namespace tglink {\n"
        "struct Node {};\n"
        "int Count() {\n"
        "  std::map<const Node*, int> ranks;\n"
        "  return static_cast<int>(ranks.size());\n"
        "}\n"
        "}  // namespace tglink\n",
        {"pointer-keyed-order"},
    ),
    (
        "src/tglink/bad/pointer_key_set.cc",
        '#include "tglink/bad/pointer_key_set.h"\n'
        "#include <set>\n"
        "namespace tglink {\n"
        "struct Node {};\n"
        "int Count() {\n"
        "  std::set<Node*> live;\n"
        "  return static_cast<int>(live.size());\n"
        "}\n"
        "}  // namespace tglink\n",
        {"pointer-keyed-order"},
    ),
    (
        "src/tglink/bad/pointer_less.cc",
        '#include "tglink/bad/pointer_less.h"\n'
        "#include <functional>\n"
        "namespace tglink {\n"
        "struct Node {};\n"
        "bool Before(const Node* a, const Node* b) {\n"
        "  return std::less<const Node*>()(a, b);\n"
        "}\n"
        "}  // namespace tglink\n",
        {"pointer-keyed-order"},
    ),
    (
        "src/tglink/bad/address_sort.cc",
        '#include "tglink/bad/address_sort.h"\n'
        "#include <algorithm>\n"
        "#include <vector>\n"
        "namespace tglink {\n"
        "struct Node {};\n"
        "void Order(std::vector<const Node*>& nodes) {\n"
        "  std::sort(nodes.begin(), nodes.end(),\n"
        "            [](const Node* a, const Node* b) { return a < b; });\n"
        "}\n"
        "}  // namespace tglink\n",
        {"pointer-keyed-order"},
    ),
    (
        # Pointer VALUES in an ordered map are fine; only pointer keys sort
        # by address.
        "src/tglink/bad/pointer_value_map.cc",
        '#include "tglink/bad/pointer_value_map.h"\n'
        "#include <map>\n"
        "namespace tglink {\n"
        "struct Node {};\n"
        "int Count() {\n"
        "  std::map<int, const Node*> by_id;\n"
        "  return static_cast<int>(by_id.size());\n"
        "}\n"
        "}  // namespace tglink\n",
        set(),
    ),
    # --- hot-path-alloc ------------------------------------------------------
    (
        "src/tglink/similarity/byval_string.cc",
        '#include "tglink/similarity/byval_string.h"\n'
        "double Score(std::string a, std::string b) {\n"
        "  return a == b ? 1.0 : 0.0;\n"
        "}\n",
        {"hot-path-alloc"},
    ),
    (
        "src/tglink/similarity/ordered_map.cc",
        '#include "tglink/similarity/ordered_map.h"\n'
        "#include <map>\n"
        "int Count() {\n"
        "  std::map<int, int> grams;\n"
        "  return static_cast<int>(grams.size());\n"
        "}\n",
        {"hot-path-alloc"},
    ),
    (
        "src/tglink/similarity/ordered_set.cc",
        '#include "tglink/similarity/ordered_set.h"\n'
        "#include <set>\n"
        "int Distinct() {\n"
        "  std::set<unsigned> grams;\n"
        "  return static_cast<int>(grams.size());\n"
        "}\n",
        {"hot-path-alloc"},
    ),
    (
        # Views, references and unordered containers stay legal in the hot
        # path; return-type std::string must not trip the by-value check.
        "src/tglink/similarity/clean_kernel.h",
        "#ifndef TGLINK_SIMILARITY_CLEAN_KERNEL_H_\n"
        "#define TGLINK_SIMILARITY_CLEAN_KERNEL_H_\n"
        "#include <string>\n"
        "#include <string_view>\n"
        "#include <unordered_map>\n"
        "namespace tglink {\n"
        "double Score(std::string_view a, const std::string& b);\n"
        "std::string Render();\n"
        "}  // namespace tglink\n"
        "#endif  // TGLINK_SIMILARITY_CLEAN_KERNEL_H_\n",
        set(),
    ),
    (
        # The ban is scoped to the similarity hot path; elsewhere a by-value
        # std::string parameter is an API-taste question, not a lint error.
        "src/tglink/util/byval_elsewhere.cc",
        '#include "tglink/util/byval_elsewhere.h"\n'
        "#include <string>\n"
        "#include <utility>\n"
        "namespace tglink {\n"
        "std::string Hold(std::string s) { return s; }\n"
        "}  // namespace tglink\n",
        set(),
    ),
    # --- raw-allocator-hook --------------------------------------------------
    (
        "src/tglink/util/own_new.cc",
        '#include "tglink/util/own_new.h"\n'
        "#include <cstddef>\n"
        "void* operator new(std::size_t size);\n",
        {"raw-allocator-hook"},
    ),
    (
        "src/tglink/util/usable_size.cc",
        '#include "tglink/util/usable_size.h"\n'
        "#include <malloc.h>\n"
        "namespace tglink {\n"
        "unsigned long Usable(void* p) { return malloc_usable_size(p); }\n"
        "}  // namespace tglink\n",
        {"raw-allocator-hook"},
    ),
    (
        "src/tglink/util/proc_status.cc",
        '#include "tglink/util/proc_status.h"\n'
        "#include <cstdio>\n"
        "namespace tglink {\n"
        'void* Open() { return std::fopen("/proc/self/status", "r"); }\n'
        "}  // namespace tglink\n",
        {"raw-allocator-hook"},
    ),
    (
        # The memory profiler implements the hooks and is exempt.
        "src/tglink/obs/memprof.cc",
        '#include "tglink/obs/memprof.h"\n'
        "#include <cstdio>\n"
        "#include <malloc.h>\n"
        "#include <new>\n"
        "namespace tglink {\n"
        'void* Probe() { return std::fopen("/proc/self/status", "r"); }\n'
        "}  // namespace tglink\n"
        "void* operator new(std::size_t size);\n",
        set(),
    ),
]


# Scenario fixtures: (filename under scenarios/, content, set of rules
# lint_scenarios must report). Exercised against a temp tree so the schema
# mirror provably rejects each violation class.
SCENARIO_FIXTURES = [
    (
        "good.json",
        '{"schema": "tglink.scenario/1", "name": "good",\n'
        ' "description": "clean",\n'
        ' "generator": {"num_censuses": 4, "scale": 0.5},\n'
        ' "population": {"emigration_prob": 0.06,\n'
        '                "household_targets": [40, 50]},\n'
        ' "corruption": {"noise_scale": 2.0, "missing_age": 0.2}}\n',
        set(),
    ),
    (
        "broken_json.json",
        '{"schema": "tglink.scenario/1", "name": "broken_json",\n',
        {"scenario-schema"},
    ),
    (
        "dup_key.json",
        '{"schema": "tglink.scenario/1", "name": "dup_key",\n'
        ' "population": {}, "population": {}}\n',
        {"scenario-schema"},
    ),
    (
        "wrong_schema.json",
        '{"schema": "tglink.scenario/9", "name": "wrong_schema"}\n',
        {"scenario-schema"},
    ),
    (
        "misnamed.json",
        '{"schema": "tglink.scenario/1", "name": "other"}\n',
        {"scenario-schema"},
    ),
    (
        "unknown_key.json",
        '{"schema": "tglink.scenario/1", "name": "unknown_key",\n'
        ' "population": {"emigration": 0.1}}\n',
        {"scenario-schema"},
    ),
    (
        "bad_rate.json",
        '{"schema": "tglink.scenario/1", "name": "bad_rate",\n'
        ' "population": {"emigration_prob": 1.5}}\n',
        {"scenario-schema"},
    ),
    (
        "scaled_overflow.json",
        '{"schema": "tglink.scenario/1", "name": "scaled_overflow",\n'
        ' "corruption": {"noise_scale": 4.0, "missing_surname": 0.3}}\n',
        {"scenario-schema"},
    ),
    (
        "bad_targets.json",
        '{"schema": "tglink.scenario/1", "name": "bad_targets",\n'
        ' "population": {"household_targets": []}}\n',
        {"scenario-schema"},
    ),
]


# Repo-level fixtures: (files to create, set of rules lint_blocking_tests
# must report across the whole tree).
TREE_FIXTURES = [
    (
        # Orphan blocking file, no test includes its header -> two findings
        # (one per sibling), same rule.
        {
            "src/tglink/blocking/orphan.h": "#ifndef X\n#define X\n#endif\n",
            "src/tglink/blocking/orphan.cc":
                '#include "tglink/blocking/orphan.h"\n',
            "tests/unrelated_test.cc":
                '#include "tglink/blocking/other.h"\n',
        },
        {"blocking-test-missing"},
    ),
    (
        # Same tree plus a test including the header -> clean.
        {
            "src/tglink/blocking/orphan.h": "#ifndef X\n#define X\n#endif\n",
            "src/tglink/blocking/orphan.cc":
                '#include "tglink/blocking/orphan.h"\n',
            "tests/orphan_test.cc":
                '#include "tglink/blocking/orphan.h"\n',
        },
        set(),
    ),
]


def run_selftest() -> int:
    failures = 0
    for relpath, content, expected in FIXTURES:
        unknown = expected - set(RULES)
        if unknown:
            failures += 1
            print(f"SELFTEST FAIL {relpath}: unknown rule(s) {unknown}",
                  file=sys.stderr)
            continue
        got = {f.rule for f in lint_file(FileContext(relpath, content))}
        missing = expected - got
        unexpected = got - expected if not expected else set()
        if missing or unexpected:
            failures += 1
            print(
                f"SELFTEST FAIL {relpath}: expected {sorted(expected)}, "
                f"got {sorted(got)}",
                file=sys.stderr,
            )
    for filename, content, expected in SCENARIO_FIXTURES:
        with tempfile.TemporaryDirectory(
            prefix="tglink_lint_selftest_scenario"
        ) as tmp:
            os.makedirs(os.path.join(tmp, "scenarios"))
            with open(os.path.join(tmp, "scenarios", filename), "w",
                      encoding="utf-8") as f:
                f.write(content)
            got = {f.rule for f in lint_scenarios(tmp)}
            if got != expected:
                failures += 1
                print(
                    f"SELFTEST FAIL scenarios/{filename}: expected "
                    f"{sorted(expected)}, got {sorted(got)}",
                    file=sys.stderr,
                )
    for i, (tree, expected) in enumerate(TREE_FIXTURES):
        with tempfile.TemporaryDirectory(
            prefix="tglink_lint_selftest_tree"
        ) as tmp:
            for relpath, content in tree.items():
                full = os.path.join(tmp, relpath)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(content)
            got = {f.rule for f in lint_blocking_tests(load_contexts(tmp))}
            if got != expected:
                failures += 1
                print(
                    f"SELFTEST FAIL tree fixture {i}: expected "
                    f"{sorted(expected)}, got {sorted(got)}",
                    file=sys.stderr,
                )
    if failures:
        print(f"tglink_lint selftest: {failures} failure(s)", file=sys.stderr)
        return 1
    total = len(FIXTURES) + len(SCENARIO_FIXTURES) + len(TREE_FIXTURES)
    print(f"tglink_lint selftest: {total} fixtures OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="lint known-bad fixture snippets and verify each rule fires",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule name with its one-line contract and exit",
    )
    args = parser.parse_args()
    if args.list_rules:
        return list_rules()
    if args.selftest:
        return run_selftest()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
