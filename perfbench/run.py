"""Train/parse benchmark of discoparse on seeded synthetic corpora.

    python3 perfbench/run.py --workload newswire --seed 1 --seconds 35 --trace 0

Generates the workload's train and test splits from the seed, then repeats
whole rounds for about --seconds. An untraced round runs, each in a fresh
process: `discoparse train`, `discoparse parse` with default flags, a
serial library pass timing `parse_document` per document, and set-up
probes (import and `load_model`); the first round also runs `discoparse
score`. A traced round (--trace 1) runs train, parse and score both
untraced and under tracer.py, plus the serial pass. The outputs go through
the independent checks in check.py; each check and each child process is
one operation, and a failed check or process is a failed operation.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Figures are medians over rounds.
Without a discoparse source tree beside this directory the run exits with
code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

END_TO_END = [
    ("setup_s", "s"), ("train_s", "s"), ("parse_tokens_per_s", "tokens/s"),
    ("doc_latency_p50_ms", "ms"), ("doc_latency_tail_ms", "ms"),
    ("train_peak_rss_mb", "MiB"), ("parse_peak_rss_mb", "MiB"),
]
SETUP_PROBES_PER_ROUND = 3
TAIL_SAMPLES_BEYOND = 10
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def tail_rank(samples):
    """0-based rank of the highest sample with ten samples beyond it."""
    return samples - 1 - TAIL_SAMPLES_BEYOND


class Bench:
    def __init__(self, workload, seed, work, launcher):
        self.work = work
        self.launcher = launcher
        self.started = time.perf_counter()
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("PYTHON")}
        self.env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
        # Byte-compiles the package once, before anything is timed.
        self.run(["-c", "import discoparse.cli"], "warmup")
        self.train_split = corpus.generate(workload, seed, "train")
        self.test_split = corpus.generate(workload, seed, "test")
        self.train_dir = os.path.join(work, "train")
        self.test_dir = os.path.join(work, "test")
        corpus.write_split(self.train_split, self.train_dir)
        corpus.write_split(self.test_split, self.test_dir)
        self.model = os.path.join(work, "model.json")
        self.senses = check.most_frequent_senses(self.train_split.gold)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # (relations, model) bytes of the first round
        self.connective_f1 = None

    def path(self, name):
        return os.path.join(self.work, name)

    def run(self, argv, name):
        """Run a child to completion: (wall seconds, peak RSS MiB, stdout)."""
        out, err = self.path(f"{name}.out"), self.path(f"{name}.err")
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise ChildFailed(f"{name}: no time left before the deadline")
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, *argv], "env": self.env, "cwd": ROOT,
            "stdout": out, "stderr": err, "timeout_s": remaining}) + "\n")
        self.launcher.stdin.flush()
        result = json.loads(self.launcher.stdout.readline())
        if result["returncode"] != 0:
            with open(err, encoding="utf-8", errors="replace") as handle:
                detail = handle.read()[-2000:]
            raise ChildFailed(f"{name} exited with {result['returncode']}:\n{detail}")
        with open(out, encoding="utf-8") as handle:
            return result["wall_s"], result["maxrss_kib"] / 1024.0, handle.read()

    def cli(self, command, traced=False):
        split = self.train_dir if command == "train" else self.test_dir
        if command == "train":
            args = ["train", "--relations", os.path.join(split, "relations.jsonl"),
                    "--out", self.model]
        elif command == "parse":
            args = ["parse", "--model", self.model, "--out", self.path("pred.jsonl")]
        else:
            args = ["score", "--gold", os.path.join(split, "relations.jsonl"),
                    "--pred", self.path("pred.jsonl")]
        if command != "score":
            args += ["--parses", os.path.join(split, "parses.json"),
                     "--raw", os.path.join(split, "raw")]
        if traced:
            spans = self.path(f"{command}.spans")
            result = self.run([os.path.join(HERE, "tracer.py"), spans, "--", *args],
                              f"{command}-traced")
            return result, tracer.summarize(spans)
        return self.run(["-m", "discoparse.cli", *args], command)

    def serial_pass(self, traced=False):
        export, report = self.path("serial.jsonl"), self.path("serial.json")
        mode = ["serial-traced", self.path("serial.spans")] if traced else ["serial"]
        self.run([os.path.join(HERE, "probe.py"), *mode, self.model,
                  os.path.join(self.test_dir, "parses.json"),
                  os.path.join(self.test_dir, "raw"), export, report], "serial")
        with open(report, encoding="utf-8") as handle:
            data = json.load(handle)
        with open(export, "rb") as handle:
            return data, handle.read()

    def setup_probe(self):
        _, _, out = self.run([os.path.join(HERE, "probe.py"), "setup", self.model],
                             "setup")
        return float(out)

    def verify(self, score_out, serial_report, serial_export):
        """Check this round's outputs; each check is one operation.

        The first round's outputs get every check. Later rounds must
        reproduce the first round's model and relations byte for byte.
        """
        with open(self.path("pred.jsonl"), "rb") as handle:
            pred_bytes = handle.read()
        with open(self.model, "rb") as handle:
            model_bytes = handle.read()
        results = {"pool_equals_serial": check.check_identical(
            "parse output vs serial pass", serial_export, pred_bytes)}
        if self.reference is None:
            self.reference = (pred_bytes, model_bytes)
            predicted = check.read_relations(pred_bytes)
            gold, documents = self.test_split.gold, self.test_split.documents
            self.connective_f1 = check.connective_f1(gold, predicted)
            results.update({
                "score": check.check_score_report(json.loads(score_out), gold,
                                                  predicted),
                "senses": check.check_senses(predicted, documents, self.senses),
                "lexicon": check.check_lexicon(serial_report["lexicon"],
                                               self.train_split.gold),
                "invariants": check.check_invariants(predicted, documents),
                "connective_f1": check.check_connective_f1(gold, predicted),
            })
        else:
            results.update({
                "parse_repeatable": check.check_identical(
                    "parse output vs the first round's", self.reference[0], pred_bytes),
                "model_repeatable": check.check_identical(
                    "model vs the first round's", self.reference[1], model_bytes),
            })
        for name, problems in results.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"check {name}: " + "; ".join(problems[:5]))

    def operation(self, function, *args):
        self.attempted += 1
        try:
            return function(*args)
        except ChildFailed:
            self.failed += 1
            raise

    def untraced_round(self, samples):
        wall, rss, _ = self.operation(self.cli, "train")
        samples["train_s"].append(wall)
        samples["train_peak_rss_mb"].append(rss)
        wall, rss, _ = self.operation(self.cli, "parse")
        samples["parse_s"].append(wall)
        samples["parse_peak_rss_mb"].append(rss)
        score_out = None
        if self.reference is None:
            _, _, score_out = self.operation(self.cli, "score")
        report, export = self.operation(self.serial_pass)
        samples["doc_latency_s"].append(report["latencies_s"])
        for _ in range(SETUP_PROBES_PER_ROUND):
            samples["setup_s"].append(self.operation(self.setup_probe))
        self.verify(score_out, report, export)

    def traced_round(self, samples):
        for phase in tracer.PHASES:
            wall, _, out = self.operation(self.cli, phase)
            (traced_wall, _, _), summary = self.operation(self.cli, phase, True)
            samples[f"{phase}.wall_s"].append(wall)
            samples[f"{phase}.trace_overhead_s"].append(traced_wall - wall)
            for name, value in tracer.layer_metrics(phase, summary).items():
                samples[name].append(value)
            if phase == "score":
                score_out = out
        report, export = self.operation(self.serial_pass, True)
        documents = tracer.summarize(self.path("serial.spans"))["functions"].get(
            "pipeline.parse_document", {"total_s": 0.0})
        samples["parse.cli.serial_parse_s"].append(documents["total_s"])
        self.verify(score_out, report, export)


def end_to_end_metrics(samples, tokens):
    direct = ("setup_s", "train_s", "train_peak_rss_mb", "parse_peak_rss_mb")
    metrics = {name: statistics.median(samples[name]) for name in direct}
    metrics["parse_tokens_per_s"] = tokens / statistics.median(samples["parse_s"])
    # A document's latency is the median of its rounds; the percentiles are
    # taken over documents.
    latencies = sorted(statistics.median(per_round)
                       for per_round in zip(*samples["doc_latency_s"]))
    metrics["doc_latency_p50_ms"] = 1000 * statistics.median(latencies)
    metrics["doc_latency_tail_ms"] = 1000 * latencies[tail_rank(len(latencies))]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(samples):
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit, _ in tracer.metric_specs()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "discoparse", "__init__.py")):
        print(f"error: no discoparse sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # Started before the corpora exist, so that it stays small (launcher.py).
    launcher = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        bench = Bench(args.workload, args.seed, work, launcher)
        samples = defaultdict(list)
        rounds = 0
        measuring = time.perf_counter()
        # Whole rounds only: stop before a round that would end past --seconds.
        while rounds == 0 or (time.perf_counter() - measuring) * (rounds + 1) / rounds <= args.seconds:
            round_samples = defaultdict(list)
            try:
                if args.trace:
                    bench.traced_round(round_samples)
                else:
                    bench.untraced_round(round_samples)
            except ChildFailed as exc:
                bench.problems.append(str(exc))
                break
            for name, values in round_samples.items():
                samples[name].extend(values)
            rounds += 1
    finally:
        launcher.stdin.close()
        launcher.wait()
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    if rounds == 0:
        print("error: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(samples)
    else:
        metrics = end_to_end_metrics(samples, bench.test_split.token_count)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{bench.test_split.token_count} test tokens, connective F1 "
          f"{bench.connective_f1:.4f}", file=sys.stderr)
    if not args.trace:
        for name in ("train_s", "parse_s"):
            print(f"  {name} per round: " + " ".join(f"{v:.4g}" for v in samples[name]),
                  file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
