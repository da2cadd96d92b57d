"""Outside-in span tracer for the kisnap layers.

The benchmark never edits the program. It times a layer by replacing a
public function with a wrapper at every `kisnap.*` module binding that
holds it: modules import each other's functions by name (`experiments`
holds its own `run_random`, `core` its own `kis_commit_batch`), so wrapping
only the defining module would miss those calls.

Each wrapped call records a span (id, name, start, end, parent). Spans
of one run (a trial, a leaf or a replay) are kept in memory and folded into
per-layer totals when the run ends: calls, inclusive seconds (outermost
span of a name only, so nested calls count once) and self seconds (span
minus its child spans).
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer span name -> (module, attribute) of each public function it times
TIMED = {
    "core.enabled": [
        ("kisnap.core", "enabled_step_actions"),
        ("kisnap.core", "enabled_commit_actions"),
        ("kisnap.core", "commit_candidates"),
        ("kisnap.core", "crash_candidates"),
    ],
    "core.choose": [
        ("kisnap.core", "RandomSchedule.choose"),
        ("kisnap.core", "ReplaySchedule.choose"),
    ],
    "core.apply": [("kisnap.core", "apply_action")],
    "core.run": [("kisnap.core", "run")],
    "core.init": [("kisnap.core", "initial_world")],
    "core.finalize": [("kisnap.core", "finalize_trace")],
    "objects.kis_invoke": [("kisnap.objects", "kis_invoke")],
    "objects.kis_commit": [("kisnap.objects", "kis_commit_batch")],
    "objects.cons_propose": [("kisnap.objects", "consensus_propose")],
    "explore.footprint": [("kisnap.explore", "action_footprint")],
    "explore.independent": [("kisnap.explore", "independent")],
    "checkers.check_is": [("kisnap.checkers", "check_is")],
    "checkers.check_xsa": [("kisnap.checkers", "check_xsa")],
    "checkers.check_theorem1": [("kisnap.checkers", "check_theorem1")],
    "checkers.check_consensus": [
        ("kisnap.checkers", "check_consensus_linearizable")
    ],
    "checkers.validate_trace": [("kisnap.checkers", "validate_trace")],
    "trace.encode": [("kisnap.trace", "trace_to_jsonl")],
    "trace.decode": [("kisnap.trace", "trace_from_jsonl")],
    "trace.sched_encode": [("kisnap.trace", "schedule_to_jsonl")],
    "trace.sched_decode": [("kisnap.trace", "schedule_from_jsonl")],
    "experiments.matrix": [("kisnap.experiments", "run_matrix")],
    "reductions.make_instance": [("kisnap.reductions", "make_instance")],
}


NO_SPAN = (None, None)


def lookup(module: str, attr: str):
    """The object at `module`.`attr` (attr may be `Class.method`), or None."""
    obj = sys.modules.get(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None) if obj is not None else None
    return obj


def rebind(module: str, attr: str, new) -> None:
    """Replace the function at `module`.`attr` by `new` at every kisnap
    binding that holds it."""
    orig = lookup(module, attr)
    if "." in attr:
        cls_name, meth = attr.rsplit(".", 1)
        setattr(lookup(module, cls_name), meth, new)
        return
    for name, mod in list(sys.modules.items()):
        if name == "kisnap" or name.startswith("kisnap."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


class Tracer:
    """Span recorder and per-layer totals for one process.

    A wrapper's own bookkeeping runs outside its span, so without correction
    it would land in the caller's self time. `calibrate` measures that cost
    per call, and the totals subtract it once per child span.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # closed spans of the current run
        self.stack: list[tuple] = [NO_SPAN]  # (id, name) of open spans
        self.ids = itertools.count()
        self.kids: dict[int, tuple] = {}  # span id -> (children, child s, descendants)
        self.excess = 0.0  # seconds a wrapped call adds outside its span
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        """`fn` timed as a span called `name`; `hook()` runs on each call."""
        append, stack, ids = self.spans.append, self.stack, self.ids
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook()
            sid = next(ids)
            parent = stack[-1]
            push((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                append((sid, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 20000, trials: int = 7) -> None:
        clock = time.perf_counter
        probe = self.wrap("calibrate", lambda: None)
        samples = []
        for _ in range(trials):
            t0 = clock()
            for _ in range(calls):
                pass
            loop = clock() - t0
            t0 = clock()
            for _ in range(calls):
                probe()
            total = clock() - t0
            inside = sum(end - start for _, _, start, end, _ in self.spans)
            self.spans.clear()
            samples.append((total - inside - loop) / calls)
        self.excess = max(0.0, statistics.median(samples))

    def end_run(self) -> None:
        """Fold the current run's spans into the totals and drop them."""
        kids, excess = self.kids, self.excess
        for sid, name, start, end, (psid, pname) in self.spans:
            dur = end - start
            n_child, child_s, n_desc = kids.pop(sid, (0, 0, 0))
            self.calls[name] += 1
            self.self_s[name] += dur - child_s - n_child * excess
            if pname != name:  # a nested call of the same layer counts once
                self.incl_s[name] += dur - n_desc * excess
            if psid is not None:
                pn, ps, pd = kids.get(psid, (0, 0, 0))
                kids[psid] = (pn + 1, ps + dur, pd + 1 + n_desc)
        self.spans.clear()

    # ── installation ─────────────────────────────────────────────────────

    def install(self) -> None:
        """Wrap every layer in TIMED plus the explore and encode counters.
        Call after `import kisnap` and before any workload code runs."""
        self.calibrate()
        for name, targets in TIMED.items():
            for module, attr in targets:
                fn = lookup(module, attr)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                new = self.wrap(name, fn)
                if name == "trace.encode":
                    new = self._count_bytes(new)
                rebind(module, attr, new)
        self._install_explore()

    def _count_bytes(self, encode):
        counts = self.counts

        def encode_counted(*args, **kwargs):
            text = encode(*args, **kwargs)
            counts["trace.encode.bytes"] += len(text.encode())
            return text

        return encode_counted

    def _install_explore(self) -> None:
        """Explore counters, taken at the `kisnap.explore` bindings only.

        nodes: explore's calls to enabled_step_actions (one per DFS node);
        interior: its calls to crash_candidates (nodes that have a menu);
        sleep_blocked: interior nodes that made no action_footprint call,
        i.e. every option was asleep; leaves: traces the generator yields.
        The walk's own time is the generator's next() calls, minus the
        wrapped layers they call.
        """
        explore = sys.modules.get("kisnap.explore")
        counts = self.counts
        marked = 0  # interior node that last called action_footprint

        def node():
            counts["explore.nodes"] += 1

        def interior():
            counts["explore.interior"] += 1

        def footprint():
            nonlocal marked
            if marked != counts["explore.interior"]:
                marked = counts["explore.interior"]
                counts["explore.footprint_nodes"] += 1

        for attr, layer, hook in (
            ("enabled_step_actions", "core.enabled", node),
            ("crash_candidates", "core.enabled", interior),
            ("action_footprint", "explore.footprint", footprint),
        ):
            fn = getattr(explore, attr, None)
            if fn is None:
                self.missing.append(f"kisnap.explore.{attr}")
                continue
            fn = getattr(fn, "__wrapped__", fn)  # one span, not two
            setattr(explore, attr, self.wrap(layer, fn, hook))

        enumerate_runs = getattr(explore, "enumerate_runs", None)
        if enumerate_runs is None:
            self.missing.append("kisnap.explore.enumerate_runs")
            return
        wrap = self.wrap

        def enumerate_traced(*args, **kwargs):
            step = wrap("explore", iter(enumerate_runs(*args, **kwargs)).__next__)
            while True:
                try:
                    tr = step()
                except StopIteration:
                    return
                counts["explore.leaves"] += 1
                yield tr

        rebind("kisnap.explore", "enumerate_runs", enumerate_traced)

    # ── report ───────────────────────────────────────────────────────────

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        self.end_run()
        c, calls, incl, own = self.counts, self.calls, self.incl_s, self.self_s
        interior = c["explore.interior"]
        sleep_blocked = interior - c["explore.footprint_nodes"]
        leaves = c["explore.leaves"]
        out = {
            "core.enabled.calls": calls["core.enabled"],
            "core.enabled.s": incl["core.enabled"],
            "core.choose.self_s": own["core.choose"],
            "core.apply.calls": calls["core.apply"],
            "core.apply.s": incl["core.apply"],
            "core.run.calls": calls["core.run"],
            "core.run.self_s": own["core.run"],
            "core.init.s": incl["core.init"],
            "core.finalize.s": incl["core.finalize"],
            "explore.nodes": c["explore.nodes"],
            "explore.interior": interior,
            "explore.sleep_blocked": sleep_blocked,
            "explore.leaves": leaves,
            "explore.useful_ratio": (
                leaves / (leaves + sleep_blocked) if leaves else 0.0
            ),
            "explore.self_s": own["explore"],
            "trace.encode.bytes": c["trace.encode.bytes"],
            "experiments.matrix.self_s": own["experiments.matrix"],
            "reductions.make_instance.s": incl["reductions.make_instance"],
        }
        for layer in (
            "objects.kis_invoke",
            "objects.kis_commit",
            "objects.cons_propose",
            "explore.footprint",
            "explore.independent",
            "checkers.check_is",
            "checkers.check_xsa",
            "checkers.check_theorem1",
            "checkers.check_consensus",
            "checkers.validate_trace",
            "trace.encode",
            "trace.decode",
        ):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = incl[layer]
        out["trace.sched_encode.s"] = incl["trace.sched_encode"]
        out["trace.sched_decode.s"] = incl["trace.sched_decode"]
        return out
