"""Minimal C++ lexical utilities for cqlint's fact extractor.

The extractor never builds a real AST; it works on a *blanked*
copy of each file — comments and string/char literal contents replaced
with spaces, byte-for-byte the same length — so regex hits carry true
offsets and brace matching is exact even when literals contain braces.
"""

from __future__ import annotations

import bisect
import re

_RAW_OPEN_RE = re.compile(r'R"([^()\s\\]{0,16})\(')


def blank_comments_and_strings(text: str) -> str:
    """Replace comment bodies and literal contents with spaces (newlines
    kept, so line numbers survive). Quote delimiters are kept so string
    positions remain visible; their contents are blanked."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == "R" and (m := _RAW_OPEN_RE.match(text, i)):
            close = ")" + m.group(1) + '"'
            j = text.find(close, m.end())
            j = n if j < 0 else j + len(close)
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c in "\"'":
            # Skip char/string literal; keep the delimiters.
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


class Source:
    """A blanked file plus the index structures every rule pass shares."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.raw = text
        self.text = blank_comments_and_strings(text)
        self._line_starts = [0]
        for m in re.finditer("\n", self.text):
            self._line_starts.append(m.end())
        # Matching close brace (and reverse) for every '{' outside
        # literals — one linear pass.
        self.close_of: dict[int, int] = {}
        self.open_of: dict[int, int] = {}
        stack: list[int] = []
        for i, ch in enumerate(self.text):
            if ch == "{":
                stack.append(i)
            elif ch == "}" and stack:
                o = stack.pop()
                self.close_of[o] = i
                self.open_of[i] = o
        self._opens = sorted(self.close_of)

    def line_of(self, idx: int) -> int:
        return bisect.bisect_right(self._line_starts, idx)

    def enclosing_blocks(self, idx: int) -> list[tuple[int, int]]:
        """All {open, close} pairs containing idx, innermost first."""
        found = [
            (o, c)
            for o in self._opens
            if o < idx and (c := self.close_of[o]) > idx
        ]
        found.sort(key=lambda oc: oc[1] - oc[0])
        return found

    _SIG_TAIL_RE = re.compile(
        r"\)\s*(?:const)?\s*(?:noexcept(?:\([^()]*\))?)?\s*"
        r"(?:[A-Z_]{2,}\w*\s*\([^{}]*\)\s*)*"  # trailing CQ_* annotation macros
        r"(?:->\s*[^;{}]+?)?\s*(?:override|final)?\s*(?:try\s*)?$"
    )
    _CONTROL_RE = re.compile(r"^(?:else\s+)?(?:if|for|while|switch|catch|return)\b")

    def function_sig_before(self, open_idx: int) -> str | None:
        """The signature text of the function whose body opens at
        open_idx, or None when the block is not a function body (plain
        scope, class body, initializer list, lambda, ...)."""
        head = self.text[:open_idx].rstrip()
        # Member-initializer lists: walk back over `: a_(x), b_{y}` to the
        # closing paren of the parameter list.
        probe = head
        m = re.search(r"(?<!:):(?!:)\s*\w+[({][^{}]*[)}]\s*(?:,\s*\w+[({][^{}]*[)}]\s*)*$", probe)
        if m and ")" in probe[: m.start()]:
            probe = probe[: m.start()].rstrip()
        if not self._SIG_TAIL_RE.search(probe[-200:]):
            return None
        # Back to the statement boundary before the signature.
        start = max(probe.rfind(";"), probe.rfind("}"), probe.rfind("{"))
        sig = probe[start + 1 :].strip()
        # Lambdas carry their intro right before the params.
        if re.search(r"\]\s*\([^()]*\)[^()]*$", sig):
            return None
        if not sig or sig.endswith("]") or self._CONTROL_RE.match(sig):
            return None
        return sig

    def enclosing_function(self, idx: int) -> tuple[str, int, int, int] | None:
        """(signature, open_idx, close_idx, line) of the innermost
        function body containing idx."""
        for o, c in self.enclosing_blocks(idx):
            sig = self.function_sig_before(o)
            if sig is not None:
                return sig, o, c, self.line_of(o)
        return None

    def enclosing_class_span(self, idx: int) -> tuple[str, int, int]:
        """(name, open, close) of the innermost class/struct whose body
        contains idx; ("", -1, -1) when idx is at namespace scope."""
        best = ("", -1, -1)
        best_span = None
        for m in re.finditer(r"\b(?:class|struct)\s+(?:CQ_\w+\([^)]*\)\s+)?(\w+)[^;{(]*\{",
                             self.text):
            o = m.end() - 1
            c = self.close_of.get(o)
            if c is None or not (o < idx < c):
                continue
            if best_span is None or (c - o) < best_span:
                best, best_span = (m.group(1), o, c), c - o
        return best

    def enclosing_class(self, idx: int) -> str:
        return self.enclosing_class_span(idx)[0]


_QUAL = r"(?:[A-Za-z_]\w*::)*"


def parse_sig(sig: str) -> tuple[str, str, str]:
    """(return type text, class qualifier, function name) from a
    signature. Heuristic; empty strings when unparseable."""
    m = re.search(
        rf"({_QUAL})(~?[A-Za-z_]\w*|operator\S{{1,3}})\s*\($", sig.split("(")[0] + "(",
    )
    if not m:
        return "", "", ""
    qual = m.group(1).rstrip(":")
    name = m.group(2)
    ret = sig[: m.start()].strip()
    # A trailing return type (`auto f() const -> T&`) is the real one.
    trailing = re.search(r"\)[^()]*->\s*([^()]+?)\s*(?:override|final)?\s*$", sig)
    if trailing:
        ret = trailing.group(1)
    # Drop storage/attribute noise from the return type text.
    ret = re.sub(r"\[\[[^\]]*\]\]|\b(static|inline|constexpr|virtual|explicit)\b", "", ret).strip()
    return ret, qual.split("::")[-1] if qual else "", name


def split_commas(s: str) -> list[str]:
    """Split on commas not nested in (), <>, [], {}."""
    items, depth, cur = [], 0, []
    for ch in s:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        items.append(tail)
    return items
