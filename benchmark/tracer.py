"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the public entry points of each gbsr module
with timing wrappers, in every gbsr module namespace that holds them (so
the names `explorer` and `cli` import from `moves`, `words` and
`rigidity` are wrapped too), and `Tracer.restore()` puts the originals
back.  A target that no longer exists is listed in `missing` and skipped,
so a refactor that deletes or renames one does not break the benchmark.

Every wrapped call updates an in-memory aggregate: calls, total time,
self time (total minus time spent in wrapped callees) and outermost
inclusive time (time in calls with no enclosing call of the same
target, so a recursive target is not counted twice).  The coarse
targets in `SPANS` also record one span each, with its parent span and
the operation it belongs to; the hot word-engine calls keep aggregates
only, because they run millions of times.
"""

import sys
import time

# (metric name, module, attribute path, extra counter, extra value)
# The extra value is computed from (args, result) of each call.
TARGETS = (
    ("graph.parse", "gbsr.graph", "parse", None, None),
    ("graph.GbsGraph", "gbsr.graph", "GbsGraph.__init__", None, None),
    ("graph.canonical_form", "gbsr.graph", "GbsGraph.canonical_form", None, None),
    ("words.Presentation", "gbsr.words", "Presentation.__init__", None, None),
    ("words.reduce_letters", "gbsr.words", "reduce_letters",
     "letters_in", lambda args, result: len(args[1])),
    ("words.cyclically_reduce_letters", "gbsr.words", "cyclically_reduce_letters", None, None),
    ("words.to_path_word", "gbsr.words", "to_path_word", None, None),
    ("words.path_to_generators", "gbsr.words", "path_to_generators", None, None),
    ("words.substitute", "gbsr.words", "substitute", None, None),
    ("moves.apply_move", "gbsr.moves", "apply_move", None, None),
    ("moves.enumerate_moves", "gbsr.moves", "enumerate_moves",
     "moves_out", lambda args, result: len(result)),
    ("moves.MarkedState.marking", "gbsr.moves", "MarkedState.marking", None, None),
    ("moves.MarkedState.seed_length", "gbsr.moves", "MarkedState.seed_length", None, None),
    ("moves.MarkedState.verify", "gbsr.moves", "MarkedState.verify", None, None),
    ("explorer.explore", "gbsr.explorer", "explore", None, None),
    ("explorer.fingerprint", "gbsr.explorer", "fingerprint", None, None),
    ("explorer.stage_samples", "gbsr.explorer", "_stage_samples", None, None),
    ("explorer.soundness", "gbsr.explorer", "_soundness_check", None, None),
    ("explorer.reduce_state", "gbsr.explorer", "reduce_state", None, None),
    ("explorer.states_expanded", "gbsr.explorer", "_legal_children",
     "kept", lambda args, result: len(result)),
    ("explorer.classify", "gbsr.explorer", "_ClassTable.classify", None, None),
    ("explorer.classify_memo", "gbsr.explorer", "_ClassTable.classify_memo", None, None),
    ("rigidity.check", "gbsr.rigidity", "check", None, None),
    ("cli.main", "gbsr.cli", "main", None, None),
)

SPANS = frozenset(
    ["op", "explorer.explore", "explorer.fingerprint", "moves.apply_move",
     "explorer.soundness", "cli.main"]
)


class Tracer:
    def __init__(self):
        # name -> [calls, self_s, outer_s, active calls, extra counter]
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name, *_ in TARGETS}
        self.stats["op"] = [0, 0.0, 0.0, 0, 0]
        self.missing = []
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self._frames = []  # [child time, span id] per active wrapped call
        self._span_stack = []
        self._op_id = None
        self._undo = []

    # -- instrumentation -------------------------------------------------

    def _timed(self, name, fn, extra):
        stat = self.stats[name]
        frames = self._frames
        clock = time.perf_counter
        span = name in SPANS
        spans = self.spans
        span_stack = self._span_stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                parent = span_stack[-1] if span_stack else None
                spans.append(None)
                span_stack.append(frame[1])
            frames.append(frame)
            outermost = stat[3] == 0
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                frames.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[1] += dt - frame[0]
                if outermost:
                    stat[2] += dt
                if frames:
                    frames[-1][0] += dt
                if span:
                    span_stack.pop()
                    spans[frame[1]] = (frame[1], parent, tracer._op_id, name, start, end)
            if extra is not None:
                stat[4] += extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, fn, *args):
        """Run one benchmark operation as the root span."""
        self._op_id = len(self.spans)
        try:
            return self._timed("op", fn, None)(*args)
        finally:
            self._op_id = None

    def install(self):
        """Wrap every target that exists; list the others in `missing`."""
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "gbsr" or key.startswith("gbsr.")]
        for name, modname, path, _, extra in TARGETS:
            module = sys.modules.get(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append("%s (%s.%s)" % (name, modname, path))
            elif isinstance(raw, property):
                self._set(owner, attr, raw, property(self._timed(name, raw.fget, extra)))
            elif owner is not module:
                self._set(owner, attr, raw, self._timed(name, raw, extra))
            else:
                # a module function: rebind it in every gbsr namespace that imported it
                wrapped = self._timed(name, raw, extra)
                for mod in namespaces:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, wrapped)
        return self

    def _set(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-target calls, self time and outermost inclusive time, plus
        the extra counters and the ratios derived from them."""
        out = {}
        for name, _, _, extra_name, _ in TARGETS:
            calls, self_s, outer_s, _, extra = self.stats[name]
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
            out[name + ".incl_s"] = (outer_s, "s")
            if extra_name:
                out["%s.%s" % (name, extra_name)] = (extra, "count")
        moves_out = self.stats["moves.enumerate_moves"][4]
        kept = self.stats["explorer.states_expanded"][4]
        out["explorer.children_kept_ratio"] = (kept / moves_out if moves_out else 0.0, "ratio")
        memo = self.stats["explorer.classify_memo"][0]
        plain = self.stats["explorer.classify"][0]
        out["explorer.classify_memo_hit_ratio"] = (1 - plain / memo if memo else 0.0, "ratio")
        out["trace.missing_targets"] = (len(self.missing), "count")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in self.spans:
                f.write("%d\t%s\t%s\t%s\t%.9f\t%.9f\n" % (
                    sid, "" if parent is None else parent, "" if op is None else op,
                    name, start, end))
