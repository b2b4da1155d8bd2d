"""cqlint command line driver.

  cqlint.py [paths...]        analyze (default: every .hpp/.cpp under src/)
  cqlint.py --self-test       prove every rule against its negative fixture
  cqlint.py --list-rules      print the rule catalog

Exit status: 0 clean, 1 findings/baseline problems, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import rules as rules_mod
from baseline import Baseline
from model import Facts, Finding
from textual import TextualBackend

REPO = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def gather_paths(args_paths: list[str]) -> list[Path]:
    if args_paths:
        out: list[Path] = []
        for a in args_paths:
            p = Path(a)
            if p.is_dir():
                out += [f for f in sorted(p.rglob("*"))
                        if f.suffix in (".hpp", ".cpp", ".h")]
            else:
                out.append(p)
        return out
    src = REPO / "src"
    return [f for f in sorted(src.rglob("*")) if f.suffix in (".hpp", ".cpp", ".h")]


def analyze(paths: list[Path], only: set[str] | None = None) -> list[Finding]:
    facts: Facts = TextualBackend(REPO, paths).extract()
    return rules_mod.run_rules(facts, only)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="cqlint", description=__doc__)
    ap.add_argument("paths", nargs="*")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    ap.add_argument("--no-baseline", action="store_true",
                    help="report raw findings, ignoring suppressions")
    ap.add_argument("--rule", action="append", default=None,
                    help="run only this rule (repeatable)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        print(rules_mod.__doc__)
        return 0
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.rule:
        unknown = set(args.rule) - set(rules_mod.RULE_IDS)
        if unknown:
            sys.exit(f"cqlint: unknown rule(s): {', '.join(sorted(unknown))}")

    paths = gather_paths(args.paths)
    if not paths:
        sys.exit("cqlint: nothing to analyze")
    findings = analyze(paths, set(args.rule) if args.rule else None)

    problems: list[str] = []
    if args.no_baseline:
        kept = findings
    else:
        bl = Baseline.load(Path(args.baseline))
        problems += bl.validate()
        kept = bl.filter(findings)
        problems += bl.stale()

    for f in kept:
        print(f.render(), file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    n_sup = len(findings) - len(kept)
    if kept or problems:
        print(f"cqlint: {len(kept)} finding(s), "
              f"{len(problems)} baseline problem(s), {n_sup} suppressed, "
              f"{len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"cqlint: clean — {len(paths)} file(s), "
          f"{len(rules_mod.RULE_IDS)} rule(s), {n_sup} suppressed with "
          "justification")
    return 0
