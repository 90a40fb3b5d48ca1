"""Outcome checker for benchmark operations.

Independent of the library: it reads the program's stdout, stderr and
exit code with the standard library only, and knows the CLI contract
from the README (exit 0 verified, 1 usage/parse/schema, 2 a failed
mathematical check) plus the stdout digests recorded in digests.json.

``check`` returns None for a correct outcome and a one-line reason
otherwise; it never raises on bad program output.
"""

from __future__ import annotations

import hashlib
import json

FLAGS = (
    "is_partition",
    "blocks_isomorphic_to_base",
    "group_invariant",
    "group_transitive",
    "stabilizer_trivial",
    "semiregular",
)


class Expect:
    """What a correct run of one command looks like.

    ``kind`` selects the stdout check:
      digest     stdout sha256 equals ``digest`` (fixed commands)
      staircase  digest, and stdout is a verified n-block decomposition of K_n box K_n
      report     stdout is a verify report whose six flags equal ``flags``, with a
                 witness for exactly the false flags, equal to ``witnesses`` where given
      malformed  stdout empty, stderr names the JSON ``path``
    """

    __slots__ = ("kind", "exit", "digest", "n", "flags", "witnesses", "path")

    def __init__(self, kind, exit, digest=None, n=None, flags=None, witnesses=None, path=None):
        self.kind = kind
        self.exit = exit
        self.digest = digest
        self.n = n
        self.flags = flags
        self.witnesses = witnesses or {}
        self.path = path


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(expect: Expect, exit_code, stdout: str, stderr: str, raised: str | None):
    if raised is not None:
        return f"raised {raised}"
    if exit_code != expect.exit:
        return f"exit {exit_code}, expected {expect.exit}"
    if expect.kind == "digest":
        return _check_digest(expect, stdout)
    if expect.kind == "staircase":
        return _check_digest(expect, stdout) or _check_staircase(expect.n, stdout)
    if expect.kind == "report":
        return _check_report(expect, stdout)
    if expect.kind == "malformed":
        if stdout:
            return "malformed input wrote to stdout"
        if expect.path not in stderr:
            return f"stderr does not name {expect.path}"
        return None
    return f"unknown expectation {expect.kind!r}"


def _check_digest(expect: Expect, stdout: str):
    if expect.digest is None:
        return "no recorded digest for this command"
    if sha256(stdout) != expect.digest:
        return "stdout differs from the recorded digest"
    return None


def _decode(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_report(expect: Expect, stdout: str):
    report = _decode(stdout)
    if not isinstance(report, dict) or any(not isinstance(report.get(f), bool) for f in FLAGS):
        return "stdout is not a verification report"
    for f in FLAGS:
        if report[f] is not expect.flags[f]:
            return f"report has {f}={report[f]}, expected {expect.flags[f]}"
    failed = {f for f in FLAGS if not expect.flags[f]}
    witnesses = report.get("witnesses", {})
    if set(report) - set(FLAGS) - {"witnesses"} or not isinstance(witnesses, dict):
        return "report has unexpected keys"
    if set(witnesses) != failed or ("witnesses" in report and not failed):
        return f"witnesses name {sorted(witnesses)}, expected {sorted(failed)}"
    for f, value in expect.witnesses.items():
        if witnesses[f] != value:
            return f"witness for {f} is {witnesses[f]!r}, expected {value!r}"
    return None


def _grid_edge(edge, n: int):
    """((r1, c1), (r2, c2)) if ``edge`` is a canonical edge of K_n box K_n, else None."""
    if not (isinstance(edge, list) and len(edge) == 2):
        return None
    ends = []
    for v in edge:
        if not (isinstance(v, list) and len(v) == 2):
            return None
        r, c = v
        if type(r) is not int or type(c) is not int or not (0 <= r < n and 0 <= c < n):
            return None
        ends.append((r, c))
    (r1, c1), (r2, c2) = ends
    if (r1 == r2) == (c1 == c2) or ends[0] >= ends[1]:
        return None
    return ends[0], ends[1]


def _check_staircase(n: int, stdout: str):
    """n blocks of n(n-1) distinct edges that together are every edge once, six flags true."""
    data = _decode(stdout)
    if not isinstance(data, dict):
        return "stdout is not JSON"
    if data.get("graph") != {"kind": "grid", "n": n, "m": n}:
        return "wrong graph header"
    report = data.get("report")
    if not isinstance(report, dict) or any(report.get(f) is not True for f in FLAGS):
        return "report does not have all six flags true"
    blocks = data.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != n:
        return f"expected {n} blocks"
    seen = set()
    for i, block in enumerate(blocks):
        edges = block.get("edges") if isinstance(block, dict) else None
        if not isinstance(edges, list) or len(edges) != n * (n - 1):
            return f"block {i} does not have {n * (n - 1)} edges"
        for edge in edges:
            key = _grid_edge(edge, n)
            if key is None:
                return f"block {i} holds a non-edge {edge!r}"
            if key in seen:
                return f"edge {edge!r} appears twice"
            seen.add(key)
    if len(seen) != n * n * (n - 1):
        return "blocks do not cover every edge"
    return None
