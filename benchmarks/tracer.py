"""Spans and counts around tonnetz calls, installed from outside the package.

Modules inside tonnetz call each other through their own globals (for
example `reduced_word` calls `core.right_mult_generator`, and
`progressions` binds its own name for `perm_of`), so a function is
wrapped at every binding site: each tonnetz module, and the package
namespace, whose attribute is the original function gets the wrapper.
Methods of AffinePermutation are wrapped on the class.

Spans (name, start, end, parent, request id) are kept in memory in
column arrays and written out when the run ends.  Hot helpers that run
once per word step or BFS expansion are only counted, since a span each
would cost more than the work it measures.
"""

from __future__ import annotations

import re
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute); "core.mul" etc. are methods, see below
SPAN_FUNCTIONS = {
    "core.ball": ("core", "ball"),
    "lattice.perm_to_iso": ("lattice", "perm_to_iso"),
    "lattice.triangle_of": ("lattice", "triangle_of"),
    "lattice.perm_of": ("lattice", "perm_of"),
    "lattice.gallery_distance_bfs": ("lattice", "gallery_distance_bfs"),
    "lattice.triangle_ball": ("lattice", "triangle_ball"),
    "subgroups.decompose": ("subgroups", "decompose"),
    "subgroups.translation_perm": ("subgroups", "translation_perm"),
    "subgroups.is_translation": ("subgroups", "is_translation"),
    "pitch.parse_chord": ("pitch", "parse_chord"),
    "pitch.format_chord": ("pitch", "format_chord"),
    "progressions.analyze": ("progressions", "analyze"),
    "progressions.triangle_distance": ("progressions", "triangle_distance"),
    "progressions.plr_path": ("progressions", "plr_path"),
    "progressions.hexagon_cycle": ("progressions", "hexagon_cycle"),
    "render.render_svg": ("render", "render_svg"),
}

SPAN_METHODS = {
    "core.mul": "__mul__",
    "core.inverse": "inverse",
    "core.reduced_word": "reduced_word",
    "core.length": "length",
    "core.classify": "classify",
}

COUNT_FUNCTIONS = {
    "core.right_mult_generator": ("core", "right_mult_generator"),
    "lattice.neighbors": ("lattice", "neighbors"),
    "progressions.apply_move": ("progressions", "apply_move"),
}

SPAN_NAMES = tuple(SPAN_METHODS) + tuple(SPAN_FUNCTIONS)

_CASES = re.compile(r"(\d+) cases$")


def _suite_cases(results) -> int:
    """Cases a verify suite checked: its "N cases" details, else one per check."""
    total = 0
    for r in results:
        m = _CASES.match(r.detail)
        total += int(m.group(1)) if m else 1
    return total


# span name -> (counter, amount taken from the call's result)
_RESULT_COUNTERS = {
    "progressions.plr_path": ("progressions.plr_path.letters", len),
    "progressions.analyze": ("progressions.analyze.chords", lambda r: len(r.steps)),
    "render.render_svg": ("render.bytes", lambda doc: len(doc.encode("utf-8"))),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.request_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, counter=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        counts = self.counts
        if counter is not None:
            counts.setdefault(counter[0], 0)

        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- installation ---------------------------------------------------------

    def install(self, library: bool = True, suites: bool = False) -> None:
        """Wrap library functions, verify suites, or both, in every loaded tonnetz module."""
        import tonnetz
        from tonnetz import core

        modules = [m for n, m in sorted(sys.modules.items()) if n == "tonnetz" or n.startswith("tonnetz.")]
        replace = {}
        if library:
            for name, (mod, attr) in SPAN_FUNCTIONS.items():
                fn = getattr(getattr(tonnetz, mod), attr)
                replace[id(fn)] = (fn, self._span(name, fn, _RESULT_COUNTERS.get(name)))
            for name, (mod, attr) in COUNT_FUNCTIONS.items():
                fn = getattr(getattr(tonnetz, mod), attr)
                replace[id(fn)] = (fn, self._count(name, fn))
            from tonnetz import riemann

            for attr, fn in vars(riemann).items():
                if callable(fn) and getattr(fn, "__module__", None) == riemann.__name__:
                    if not attr.startswith("_") and not isinstance(fn, type):
                        replace[id(fn)] = (fn, self._span(f"riemann.{attr}", fn))
            for name, method in SPAN_METHODS.items():
                fn = getattr(core.AffinePermutation, method)
                self._set(core.AffinePermutation, method, self._span(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        if suites:
            from tonnetz import verify

            self.counts.setdefault("verify.cases", 0)
            for name, fn in list(verify.SUITES.items()):
                self._set_suite(verify.SUITES, name, fn)

    def _set_suite(self, suites: dict, name: str, fn) -> None:
        span = self._span(f"verify.{name}", fn)

        def suite(radius):
            results = span(radius)
            self.counts["verify.cases"] += _suite_cases(results)
            return results

        self._undo.append((suites, name, fn))
        suites[name] = suite

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # --- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }


def write_spans(dumps: list[dict], path) -> None:
    """One tab-separated line per span: source, index, name, start, end, parent, request."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source\tindex\tname\tstart\tend\tparent\trequest\n")
        for source, d in enumerate(dumps):
            names = d["names"]
            for i, (n, s, e, p, r) in enumerate(
                zip(d["name"], d["start"], d["end"], d["parent"], d["request"])
            ):
                fh.write(f"{source}\t{i}\t{names[n]}\t{s!r}\t{e!r}\t{p}\t{r}\n")


def summarize(dumps: list[dict]) -> dict:
    """Calls and self time per span name, summed counters, and the analyze candidates.

    Self time is a span's duration minus the durations of its child
    spans; calls nest on one thread, so children never overlap.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    under_analyze = 0
    for d in dumps:
        names = d["names"]
        nid, parent, start, end = d["name"], d["parent"], d["start"], d["end"]
        child = [0.0] * len(nid)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        analyze_id = names.index("progressions.analyze") if "progressions.analyze" in names else -1
        td_id = (
            names.index("progressions.triangle_distance")
            if "progressions.triangle_distance" in names
            else -1
        )
        inside = [False] * len(nid)
        for i, n in enumerate(nid):
            name = names[n]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - child[i]
            p = parent[i]
            inside[i] = n == analyze_id or (p >= 0 and inside[p])
            if n == td_id and inside[i]:
                under_analyze += 1
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {
        "calls": calls,
        "self_ms": {k: v * 1e3 for k, v in self_s.items()},
        "counts": counts,
        "analyze_triangle_distance_calls": under_analyze,
    }
