"""Traced run of one discoparse command, and the per-layer metrics it gives.

    python3 tracer.py SPANS_OUT -- train|parse|score [discoparse options]

Before the command runs, every public function named in LAYERS is wrapped
in each discoparse module that holds it by name, so calls between modules
go through the wrapper, and a `gc.callbacks` hook times the cyclic
collector. A wrapper records one span per call (function, parent span,
start, end, and a count taken from the return value) in per-thread arrays
that the collector does not track. The spans stay in memory until the
command ends and are then written to SPANS_OUT in one piece.
`summarize` turns that file into per-function self time (span minus child
spans), calls and counts; `layer_metrics` names them.
"""

import array
import functools
import gc
import importlib
import pickle
import pkgutil
import sys
import threading
import time

# Layer module -> public functions timed in it. A function that a later
# layout moves to another discoparse module is looked up there by name.
LAYERS = {
    "parse_tree": ["parse_ptb", "exact_cover_chain", "render_path"],
    "corpus_io": ["load_parses", "load_relations", "export_relations"],
    "connective_lexicon": ["mine_lexicon"],
    "connective_annotator": ["find_candidates", "extract_connective_features",
                             "classify_usage"],
    "argument_labeler": ["prune_candidates", "extract_node_features",
                         "classify_constituents", "merge_arguments",
                         "gold_constituent_label"],
    "sense_annotator": ["annotate_sense"],
    "decision_tree": ["train", "predict"],
    "evaluation": ["score"],
    "pipeline": ["build_usage_dataset", "build_argument_dataset",
                 "parse_document", "load_model", "save_model"],
}

# Functions each command calls, reported as <phase>.<layer>.<fn>.{self_s,calls}.
PHASE_FUNCTIONS = {
    "train": ["corpus_io.load_relations", "corpus_io.load_parses",
              "parse_tree.parse_ptb", "connective_lexicon.mine_lexicon",
              "pipeline.build_usage_dataset", "pipeline.build_argument_dataset",
              "connective_annotator.find_candidates",
              "connective_annotator.extract_connective_features",
              "parse_tree.exact_cover_chain", "argument_labeler.prune_candidates",
              "argument_labeler.extract_node_features", "parse_tree.render_path",
              "argument_labeler.gold_constituent_label", "decision_tree.train",
              "pipeline.save_model"],
    "parse": ["pipeline.load_model", "corpus_io.load_parses",
              "parse_tree.parse_ptb", "pipeline.parse_document",
              "connective_annotator.find_candidates",
              "connective_annotator.extract_connective_features",
              "connective_annotator.classify_usage", "decision_tree.predict",
              "parse_tree.exact_cover_chain", "argument_labeler.prune_candidates",
              "argument_labeler.extract_node_features", "parse_tree.render_path",
              "argument_labeler.classify_constituents",
              "argument_labeler.merge_arguments", "sense_annotator.annotate_sense",
              "corpus_io.export_relations"],
    "score": ["corpus_io.load_relations", "evaluation.score"],
}

# Counts summed from return values: metric -> (phase, function, unit, better).
COUNTS = {
    "train.connective_annotator.candidates":
        ("train", "connective_annotator.find_candidates", "count", "lower"),
    "train.argument_labeler.pruned_nodes":
        ("train", "argument_labeler.prune_candidates", "count", "lower"),
    "train.decision_tree.tree_nodes": ("train", "decision_tree.train", "count", "lower"),
    "train.pipeline.usage_instances":
        ("train", "pipeline.build_usage_dataset", "count", "higher"),
    "train.pipeline.argument_instances":
        ("train", "pipeline.build_argument_dataset", "count", "higher"),
    "parse.connective_annotator.candidates":
        ("parse", "connective_annotator.find_candidates", "count", "lower"),
    "parse.connective_annotator.usage_accepted":
        ("parse", "connective_annotator.classify_usage", "count", "higher"),
    "parse.argument_labeler.pruned_nodes":
        ("parse", "argument_labeler.prune_candidates", "count", "lower"),
    "parse.argument_labeler.merge_dropped":
        ("parse", "argument_labeler.merge_arguments", "count", "lower"),
    "parse.pipeline.relations": ("parse", "pipeline.parse_document", "count", "higher"),
}


def _tree_nodes(tree):
    children = getattr(tree, "children", None)
    if not isinstance(children, dict):
        return 1
    return 1 + sum(_tree_nodes(child) for child in children.values())


# How a span's count is read off the function's return value.
MEASURES = {
    "connective_annotator.find_candidates": len,
    "argument_labeler.prune_candidates": len,
    "connective_annotator.classify_usage": lambda accepted: int(bool(accepted)),
    "argument_labeler.merge_arguments": lambda merged: int(merged is None),
    "decision_tree.train": _tree_nodes,
    "pipeline.build_usage_dataset": len,
    "pipeline.build_argument_dataset": len,
    "pipeline.parse_document": len,
}

PHASES = ("train", "parse", "score")


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for phase in PHASES:
        specs.append((f"{phase}.wall_s", "s", "lower"))
        specs.append((f"{phase}.trace_overhead_s", "s", "lower"))
        specs.append((f"{phase}.gc.collections", "count", "lower"))
        specs.append((f"{phase}.gc.pause_s", "s", "lower"))
        if phase != "score":
            specs.append((f"{phase}.corpus_io.load_parses.gc_pause_s", "s", "lower"))
        for function in PHASE_FUNCTIONS[phase]:
            specs.append((f"{phase}.{function}.self_s", "s", "lower"))
            specs.append((f"{phase}.{function}.calls", "count", "lower"))
    for name, (_, _, unit, better) in COUNTS.items():
        specs.append((name, unit, better))
    specs.append(("parse.parse_tree.exact_cover_chain.calls_per_candidate",
                  "calls/candidate", "lower"))
    specs.append(("parse.cli.pool_parse_s", "s", "lower"))
    specs.append(("parse.cli.serial_parse_s", "s", "lower"))
    return specs


class _Buffer:
    """Spans of one thread, in call order, as parallel untracked arrays."""

    def __init__(self):
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.value = array.array("q")
        self.stack = []


class Tracer:
    def __init__(self):
        self.names = []
        self.buffers = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.gc_started = 0.0
        self.gc_by_function = []

    def buffer(self):
        try:
            return self.local.buffer
        except AttributeError:
            buf = _Buffer()
            with self.lock:
                self.buffers.append(buf)
            self.local.buffer = buf
            return buf

    def wrap(self, name, function):
        fid = len(self.names)
        self.names.append(name)
        self.gc_by_function.append(0.0)
        measure = MEASURES.get(name)
        perf = time.perf_counter
        get_buffer = self.buffer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            index = len(buf.fid)
            buf.fid.append(fid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.t0.append(0.0)
            buf.t1.append(0.0)
            buf.value.append(0)
            stack.append(index)
            started = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = perf()
                stack.pop()
                buf.t0[index] = started
                buf.t1[index] = ended
            if measure is not None:
                buf.value[index] = measure(result)
            return result

        return wrapper

    def on_gc(self, phase, info):
        if phase == "start":
            self.gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self.gc_started
        self.gc_collections += 1
        self.gc_pause_s += pause
        buf = getattr(self.local, "buffer", None)
        if buf is not None:
            for fid in {buf.fid[index] for index in buf.stack}:
                self.gc_by_function[fid] += pause

    def install(self):
        """Wrap every LAYERS function wherever a discoparse module binds it."""
        package = importlib.import_module("discoparse")
        modules = [package] + [importlib.import_module(f"discoparse.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"discoparse.{layer}")
            for function_name in functions:
                original = getattr(home, function_name, None)
                if original is None:
                    original = next((getattr(m, function_name) for m in modules
                                     if getattr(getattr(m, function_name, None),
                                                "__module__", None) == m.__name__),
                                    None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{function_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        gc.callbacks.append(self.on_gc)

    def dump(self, path):
        gc.callbacks.remove(self.on_gc)
        threads = [{"fid": b.fid, "parent": b.parent, "t0": b.t0, "t1": b.t1,
                    "value": b.value} for b in self.buffers]
        with open(path, "wb") as handle:
            pickle.dump({"functions": self.names, "threads": threads,
                         "gc": {"collections": self.gc_collections,
                                "pause_s": self.gc_pause_s,
                                "by_function": self.gc_by_function}}, handle)


def summarize(path):
    """Per-function totals from a spans file written by this module."""
    with open(path, "rb") as handle:
        data = pickle.load(handle)
    names = data["functions"]
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0,
                    "gc_pause_s": 0.0, "first": None, "last": None} for name in names}
    for name, pause in zip(names, data["gc"]["by_function"]):
        stats[name]["gc_pause_s"] = pause
    for thread in data["threads"]:
        fid, parent, t0, t1, value = (thread[k] for k in
                                      ("fid", "parent", "t0", "t1", "value"))
        children = [0.0] * len(fid)
        for i, p in enumerate(parent):
            if p >= 0:
                children[p] += t1[i] - t0[i]
        for i, f in enumerate(fid):
            entry = stats[names[f]]
            entry["calls"] += 1
            entry["self_s"] += (t1[i] - t0[i]) - children[i]
            entry["total_s"] += t1[i] - t0[i]
            entry["value"] += value[i]
            if entry["first"] is None or t0[i] < entry["first"]:
                entry["first"] = t0[i]
            if entry["last"] is None or t1[i] > entry["last"]:
                entry["last"] = t1[i]
    return {"functions": stats, "gc": data["gc"]}


def layer_metrics(phase, summary):
    """Metric name -> value for one traced phase (span-derived metrics only)."""
    functions = summary["functions"]
    empty = {"calls": 0, "self_s": 0.0, "value": 0, "gc_pause_s": 0.0,
             "first": None, "last": None}
    metrics = {f"{phase}.gc.collections": summary["gc"]["collections"],
               f"{phase}.gc.pause_s": summary["gc"]["pause_s"]}
    if phase != "score":
        metrics[f"{phase}.corpus_io.load_parses.gc_pause_s"] = functions.get(
            "corpus_io.load_parses", empty)["gc_pause_s"]
    for function in PHASE_FUNCTIONS[phase]:
        entry = functions.get(function, empty)
        metrics[f"{phase}.{function}.self_s"] = entry["self_s"]
        metrics[f"{phase}.{function}.calls"] = entry["calls"]
    for name, (count_phase, function, _, _) in COUNTS.items():
        if count_phase == phase:
            metrics[name] = functions.get(function, empty)["value"]
    if phase == "parse":
        candidates = functions.get("connective_annotator.find_candidates", empty)["value"]
        covers = functions.get("parse_tree.exact_cover_chain", empty)["calls"]
        metrics["parse.parse_tree.exact_cover_chain.calls_per_candidate"] = (
            covers / candidates if candidates else 0.0)
        documents = functions.get("pipeline.parse_document", empty)
        metrics["parse.cli.pool_parse_s"] = (
            documents["last"] - documents["first"] if documents["calls"] else 0.0)
    return metrics


def main(argv):
    spans_out, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- COMMAND [OPTIONS]")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("discoparse.cli")
    try:
        return cli.main(command)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
