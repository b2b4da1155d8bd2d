"""cqlint — whole-project semantic analysis for the CQ engine.

The analyzer extracts a fact model (model.py) from every .hpp/.cpp under
src/ with a dependency-free lexer/scope tracker (textual.py) and runs the
five rules in rules.py over it. docs/static-analysis.md lists what the
textual extraction cannot resolve.

Entry points:
  python3 scripts/cqlint/cqlint.py
  python3 scripts/cqlint/cqlint.py --self-test
"""

__version__ = "1.0"
