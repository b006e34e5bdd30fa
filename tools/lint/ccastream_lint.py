#!/usr/bin/env python3
"""ccastream's structural lint: invariants the type system cannot express.

The simulator's correctness story rests on a handful of repo-wide
conventions — FIFO mutations go through the counter-maintaining ComputeCell
helpers, the core contains no nondeterminism sources, threading stays inside
sim/parallel, and every runtime knob (env var or CLI flag) is documented in
docs/TUNING.md. This tool makes those conventions machine-checked; CI runs
it on every push (and `--self-test` proves each rule still has teeth).

Usage:
  tools/lint/ccastream_lint.py                 # lint the repository
  tools/lint/ccastream_lint.py --only env-docs,flag-docs,doc-links
  tools/lint/ccastream_lint.py --self-test     # each rule catches its seed
  tools/lint/ccastream_lint.py --list-rules

Rules live in tools/lint/rules.toml. A finding is suppressed by putting
`lint:allow(<rule>)` in a comment on the offending line — pair every
suppression with a justification.

Exit status: 0 clean, 1 findings (or a failed self-test), 2 usage/config
error. Requires Python >= 3.11 (tomllib); no third-party packages.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
import tempfile
import tomllib
from pathlib import Path
from typing import NamedTuple


class Finding(NamedTuple):
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def strip_comments(text: str) -> str:
    """Blanks C++ // and /* */ comments, preserving line structure and
    string/char literals (env-var names live in strings). Comment bytes
    become spaces so column/line numbers of the surviving code are stable.
    """
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
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
                state = "dquote"
            elif c == "'":
                state = "squote"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # dquote / squote
            quote = '"' if state == "dquote" else "'"
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def allowed(line: str, rule: str) -> bool:
    return f"lint:allow({rule})" in line


def iter_source_files(
    root: Path, paths: list[str], include: list[str], exclude_files: list[str]
) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        base = root / p
        if not base.exists():
            continue
        for f in sorted(base.rglob("*")):
            if not f.is_file():
                continue
            if not any(fnmatch.fnmatch(f.name, g) for g in include):
                continue
            if rel(f, root) in exclude_files:
                continue
            files.append(f)
    return files


# --- Rule runners -----------------------------------------------------------


def run_regex_rule(name: str, cfg: dict, root: Path) -> list[Finding]:
    pattern = re.compile(cfg["pattern"])
    allow_files = set(cfg.get("allow_files", []))
    findings: list[Finding] = []
    for f in iter_source_files(
        root, cfg["paths"], cfg["include"], cfg.get("exclude_files", [])
    ):
        rpath = rel(f, root)
        if rpath in allow_files:
            continue
        text = f.read_text(errors="replace")
        scan = strip_comments(text) if cfg.get("strip_comments") else text
        originals = text.splitlines()
        for lineno, line in enumerate(scan.splitlines(), start=1):
            if not pattern.search(line):
                continue
            if allowed(originals[lineno - 1], name):
                continue
            findings.append(Finding(name, rpath, lineno, cfg["message"]))
    return findings


def run_env_docs_rule(name: str, cfg: dict, root: Path) -> list[Finding]:
    doc_path = root / cfg["doc"]
    if not doc_path.is_file():
        return [Finding(name, cfg["doc"], 1, "tuning documentation missing")]
    doc_text = doc_path.read_text(errors="replace")
    pattern = re.compile(cfg["env_pattern"])
    first_ref: dict[str, tuple[str, int]] = {}
    for f in iter_source_files(
        root, cfg["paths"], cfg["include"], cfg.get("exclude_files", [])
    ):
        rpath = rel(f, root)
        for lineno, line in enumerate(
            f.read_text(errors="replace").splitlines(), start=1
        ):
            if allowed(line, name):
                continue
            for var in pattern.findall(line):
                first_ref.setdefault(var, (rpath, lineno))
    return [
        Finding(name, path, lineno, f"{var} is not documented in {cfg['doc']}")
        for var, (path, lineno) in sorted(first_ref.items())
        if var not in doc_text
    ]


def run_flag_docs_rule(name: str, cfg: dict, root: Path) -> list[Finding]:
    cli_path = root / cfg["cli"]
    if not cli_path.is_file():
        return [Finding(name, cfg["cli"], 1, "CLI source missing")]
    doc_path = root / cfg["doc"]
    if not doc_path.is_file():
        return [Finding(name, cfg["doc"], 1, "tuning documentation missing")]
    doc_text = doc_path.read_text(errors="replace")
    pattern = re.compile(cfg["flag_pattern"])
    allow_flags = set(cfg.get("allow_flags", []))
    first_ref: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(
        cli_path.read_text(errors="replace").splitlines(), start=1
    ):
        if allowed(line, name):
            continue
        for flag in pattern.findall(line):
            if flag not in allow_flags:
                first_ref.setdefault(flag, (rel(cli_path, root), lineno))
    return [
        Finding(name, path, lineno, f"{flag} is not documented in {cfg['doc']}")
        for flag, (path, lineno) in sorted(first_ref.items())
        if f"`{flag}" not in doc_text and flag not in doc_text
    ]


LINK_RE = re.compile(r"\]\(([^)]+)\)")


def run_doc_links_rule(name: str, cfg: dict, root: Path) -> list[Finding]:
    findings: list[Finding] = []
    docs: list[Path] = []
    for g in cfg["docs"]:
        docs.extend(sorted(root.glob(g)))
    for doc in docs:
        if not doc.is_file():
            continue
        rpath = rel(doc, root)
        for lineno, line in enumerate(
            doc.read_text(errors="replace").splitlines(), start=1
        ):
            if allowed(line, name):
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                file_part = target.split("#", 1)[0]
                if not file_part:
                    continue
                if not (doc.parent / file_part).exists():
                    findings.append(
                        Finding(name, rpath, lineno, f"broken link -> {target}")
                    )
    return findings


RUNNERS = {
    "regex": run_regex_rule,
    "env-docs": run_env_docs_rule,
    "flag-docs": run_flag_docs_rule,
    "doc-links": run_doc_links_rule,
}


def run_rules(
    rules: dict[str, dict], root: Path, only: list[str] | None = None
) -> list[Finding]:
    findings: list[Finding] = []
    for name, cfg in rules.items():
        if only is not None and name not in only:
            continue
        findings.extend(RUNNERS[cfg["kind"]](name, cfg, root))
    return findings


# --- Self-test --------------------------------------------------------------

# One seeded violation per rule: (file to create, its content, substring the
# finding's message must contain). The self-test plants each seed in a
# scratch tree, asserts the rule fires on it, then appends a
# `lint:allow(<rule>)` marker and asserts the finding is suppressed — so CI
# proves both halves of every rule on every run.
SELF_TEST_SEEDS: dict[str, tuple[str, str, str]] = {
    "fifo-discipline": (
        "src/sim/bad_fifo.cpp",
        "void f(FifoView<Message> lane, const Message& m) { lane.push(m); }\n",
        "sanctioned ComputeCell helpers",
    ),
    "determinism": (
        "src/sim/bad_det.cpp",
        "int f() { return std::rand(); }\n",
        "nondeterminism",
    ),
    "soa-atomics": (
        "src/sim/bad_atomic.cpp",
        "void f(std::uint64_t& w) { std::atomic_ref<std::uint64_t>(w).store(1); }\n",
        "atomic_ref outside the CellSoA activity bitmap",
    ),
    "soa-backdoor": (
        "src/sim/bad_backdoor.cpp",
        "void f(CellSoA& s) { s.corrupt_summary_flag(3, false); }\n",
        "corruption backdoor",
    ),
    "thread-primitives": (
        "src/runtime/bad_thread.hpp",
        "static std::mutex guard;\n",
        "threading primitive",
    ),
    "oracle-independence": (
        "src/baseline/bad_oracle.hpp",
        '#include "apps/monotone.hpp"\n',
        "includes a layer it is the oracle for",
    ),
    "env-docs": (
        "src/sim/bad_env.cpp",
        'const char* v = std::getenv("CCASTREAM_SELFTEST_BOGUS");\n',
        "CCASTREAM_SELFTEST_BOGUS is not documented",
    ),
    "flag-docs": (
        "tools/ccastream_cli.cpp",
        'if (arg == "--selftest-bogus") {}\n',
        "--selftest-bogus is not documented",
    ),
    "doc-links": (
        "README.md",
        "See [missing](no_such_selftest_file.md) for details.\n",
        "broken link",
    ),
}


def self_test(rules: dict[str, dict]) -> int:
    missing = set(rules) - set(SELF_TEST_SEEDS)
    if missing:
        print(f"self-test: no seed for rule(s): {', '.join(sorted(missing))}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ccastream_lint_selftest_") as tmp:
        root = Path(tmp)
        # A TUNING.md that documents nothing, so the doc rules must fire.
        (root / "docs").mkdir()
        (root / "docs" / "TUNING.md").write_text("# Tuning\n")
        for rule, (seed_path, content, expect) in SELF_TEST_SEEDS.items():
            target = root / seed_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)

            hits = [
                f for f in run_rules(rules, root, only=[rule]) if expect in f.message
            ]
            if len(hits) != 1 or hits[0].rule != rule:
                print(f"self-test FAIL: {rule}: expected 1 finding "
                      f"matching {expect!r}, got {hits}")
                failures += 1

            # The suppression half: the same seed with an allow marker on
            # the offending line must produce no finding.
            marker = f"lint:allow({rule})"
            comment = "" if seed_path.endswith(".md") else "// "
            target.write_text(
                content.rstrip("\n") + f"  {comment}{marker} self-test\n"
            )
            if run_rules(rules, root, only=[rule]):
                print(f"self-test FAIL: {rule}: {marker} did not suppress")
                failures += 1
            target.unlink()
    if failures:
        print(f"self-test FAILED: {failures} assertion(s)")
        return 1
    print(f"self-test OK: all {len(SELF_TEST_SEEDS)} rules fire on their "
          "seed and honour lint:allow")
    return 0


# --- Entry point ------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ccastream_lint.py",
        description="structural lint for the ccastream repository",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent.parent,
        help="repository root (default: two levels above this script)",
    )
    parser.add_argument(
        "--rules",
        type=Path,
        default=Path(__file__).resolve().parent / "rules.toml",
        help="rule configuration file",
    )
    parser.add_argument(
        "--only",
        metavar="RULE[,RULE...]",
        help="run only the named rules (e.g. env-docs,flag-docs,doc-links)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify every rule catches a seeded violation (and that "
        "lint:allow suppresses it), then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list configured rules"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.rules, "rb") as fh:
            rules = tomllib.load(fh)["rules"]
    except (OSError, tomllib.TOMLDecodeError, KeyError) as e:
        print(f"cannot load rules from {args.rules}: {e}", file=sys.stderr)
        return 2
    unknown = [n for n, c in rules.items() if c.get("kind") not in RUNNERS]
    if unknown:
        print(f"unknown rule kind for: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.list_rules:
        for name, cfg in rules.items():
            print(f"{name} ({cfg['kind']})")
        return 0
    if args.self_test:
        return self_test(rules)

    only = None
    if args.only:
        only = [r.strip() for r in args.only.split(",") if r.strip()]
        bad = [r for r in only if r not in rules]
        if bad:
            print(f"unknown rule(s): {', '.join(bad)}", file=sys.stderr)
            return 2

    findings = run_rules(rules, args.root, only)
    for f in findings:
        print(f.render())
    ran = only if only is not None else list(rules)
    if findings:
        print(f"lint FAILED: {len(findings)} finding(s) across "
              f"{len(ran)} rule(s)")
        return 1
    print(f"lint OK: {len(ran)} rule(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
