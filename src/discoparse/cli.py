"""Command-line front door: train, parse and score subcommands.

Exit codes: 0 success, 1 internal error, 2 usage or input error. Logs go to
standard error only; data goes to the files named by flags or to standard
output.

Collector policy. Every parse tree is a reference cycle (each node points
at its parent), so the cyclic collector rescans the whole training corpus
while `train` runs, and frees it all again at interpreter shutdown. Two
settings, measured on CPython 3.11 (3.14 makes the collector incremental):

* cmd_train raises the first-generation threshold to _TRAIN_GC_THRESHOLD
  and restores the caller's thresholds on return, success or error.
  `parse` keeps the default: its trees die one document at a time, and the
  larger threshold measured slower on short documents.
* run, the process entry point, freezes every object once main returns,
  so the shutdown collection skips the dead trees and the OS reclaims
  their memory. main never freezes, so an in-process caller gets its
  interpreter back as it was.

Process pool. `parse --jobs N` with N > 1 runs the function that N = 1
runs in process (_export_batch) in N workers forked with the fork start
method, pinned. They are forked once the model, the raw texts and the
parses file's text are in memory and the output file is open, so they
inherit all three, and a batch travels as (doc_id, slice) pairs one way
and export bytes the other, over one pipe per worker. The parent starts no
thread, so no fork ever meets a running thread. The parent decodes every
entry itself, so a malformed entry fails where a serial run would, and
writes each batch's bytes in file order. Workers keep the default
collector thresholds and take no part in run's freeze: the parent stops
them with SIGTERM once it has their last answer, or on any error, so no
atexit hook or finalizer of the caller runs in them. `multiprocessing` is
imported only for N > 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from collections import deque
from contextlib import contextmanager
from itertools import cycle, islice

from .corpus_io import (_build_document, _decode_entries, _read_text, atomic_output,
                        export_relations, load_parses, load_relations)
from .decision_tree import tree_size, tree_support
from .errors import DiscoParseError, InputFormatError
from .evaluation import format_table, report_dict, score
from .pipeline import load_model, parse_document, save_model, train_model

LOG_LEVELS = ("debug", "info", "warning", "error")
# Collector thresholds while train loads the corpus and trains on it.
_TRAIN_GC_THRESHOLD = (20000, 10, 10)
# Characters of parses-file JSON text in one batch of documents (about 64 KiB).
_BATCH_CHARS = 1 << 16
# Batches sent to pool workers and not yet answered, at most, per worker.
_BATCHES_AHEAD_PER_JOB = 4
# Every character str.splitlines breaks at, escaped, so an error stays one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_jobs():
    """Usable CPUs, or 1 where the fork start method does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="discoparse",
        description="Shallow discourse parser for explicit relations "
                    "over CoNLL-format corpora.")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning")
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train a parser model from gold relations")
    train_p.add_argument("--relations", required=True, help="gold relations JSONL")
    train_p.add_argument("--parses", required=True, help="parses JSON file")
    train_p.add_argument("--raw", required=True, help="directory of raw text files named by DocID")
    train_p.add_argument("--out", required=True, help="model file to write")
    train_p.add_argument("--min-leaf", type=_positive_int, default=2)
    train_p.set_defaults(func=cmd_train)

    parse_p = sub.add_parser("parse", help="parse documents with a trained model")
    parse_p.add_argument("--model", required=True)
    parse_p.add_argument("--parses", required=True)
    parse_p.add_argument("--raw", required=True)
    parse_p.add_argument("--out", required=True, help="relations JSONL to write")
    parse_p.add_argument("--conll-tokenlist", action="store_true",
                         help="emit 5-tuple TokenList entries for strict "
                              "shared-task compatibility")
    parse_p.add_argument("--jobs", type=_positive_int,
                         help="worker processes (default: usable CPUs; 1 where "
                              "the fork start method does not exist)")
    parse_p.set_defaults(func=cmd_parse)

    score_p = sub.add_parser("score", help="score predicted relations against gold")
    score_p.add_argument("--gold", required=True)
    score_p.add_argument("--pred", required=True)
    score_p.add_argument("--table", action="store_true",
                         help="also print a readable table to stderr")
    score_p.set_defaults(func=cmd_score)
    return parser


def _configure_logging(args):
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_raw_dir(path):
    raw = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            with open(full, "rb") as handle:
                raw[name] = _read_text(handle, "raw text file")[0]
    return raw


def _load_documents(parses_path, raw_dir):
    raw = _read_raw_dir(raw_dir)
    with open(parses_path, "rb") as handle:
        documents = load_parses(handle, raw)
    return {doc.doc_id: doc for doc in documents}


def cmd_train(args):
    """Train and write the model; a bad --out is refused before any input is read.

    Runs under _TRAIN_GC_THRESHOLD and restores the caller's thresholds.
    """
    saved = gc.get_threshold()
    gc.set_threshold(*_TRAIN_GC_THRESHOLD)
    try:
        with atomic_output(args.out) as out:
            with open(args.relations, "rb") as handle:
                gold = load_relations(handle)
            documents = _load_documents(args.parses, args.raw)
            model = train_model(documents, gold, args.min_leaf)
            save_model(model, out)
    finally:
        gc.set_threshold(*saved)
    print(f"lexicon: {len(model.lexicon.entries)} connectives", file=sys.stderr)
    for name, tree in (("usage", model.usage_tree),
                       ("argument", model.argument_tree)):
        print(f"{name} classifier: {tree_support(tree)} instances, "
              f"tree size {tree_size(tree)}", file=sys.stderr)
    print(f"model written to {args.out}", file=sys.stderr)
    return 0


def _batches(entries):
    """Lists of (doc_id, slice of text) pairs of consecutive _decode_entries
    entries, each ending with the entry that brings its JSON text to
    _BATCH_CHARS. A decode error is raised once the list of the entries
    before it has been yielded."""
    batch, size = [], 0
    try:
        for doc_id, _, span in entries:
            batch.append((doc_id, span))
            size += span.stop - span.start
            if size >= _BATCH_CHARS:
                yield batch
                batch, size = [], 0
    except InputFormatError:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _export_batch(batch, model, raw, conll_tokenlist):
    """(export_relations bytes, relation count) of a batch of decoded
    entries: each document is built, parsed, exported and dropped in turn."""
    chunks = []
    count = 0
    for doc_id, entry in batch:
        doc = _build_document(doc_id, entry, raw)
        relations = parse_document(doc, model)
        chunks.append(export_relations(relations, {doc_id: doc},
                                       conll_tokenlist=conll_tokenlist))
        count += len(relations)
    return b"".join(chunks), count


def _serve(conn, text, context):
    """A pool worker: for each batch of (doc_id, slice of text) pairs that
    conn receives, send back (True, _export_batch's result) or (False, the
    error), in the order received. Returns at end of file, which it reads
    only if the parent is gone; the parent otherwise stops it."""
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        try:
            reply = True, _export_batch(
                [(doc_id, json.loads(text[span])) for doc_id, span in batch], *context)
        except Exception as exc:
            reply = False, exc
        conn.send(reply)


@contextmanager
def _worker_pool(jobs, text, context):
    """None for one job, else connections to jobs forked workers (_serve)
    that hold text and context; on exit the workers are killed and reaped."""
    if jobs == 1:
        yield None
        return
    import multiprocessing
    import signal
    fork = multiprocessing.get_context("fork")
    workers = []
    # Workers inherit the blocked SIGINT, so Ctrl-C reaches the parent alone,
    # and never between a fork and the append that puts the worker in reach
    # of the finally clause. Should a second Ctrl-C cut that clause short,
    # multiprocessing stops daemon workers at interpreter exit.
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for _ in range(jobs):
            ours, theirs = fork.Pipe()
            process = fork.Process(target=_serve, args=(theirs, text, context), daemon=True)
            process.start()
            workers.append((process, ours))
            theirs.close()  # so that a worker's death reads as EOF
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        yield [conn for _, conn in workers]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        for process, _ in workers:
            process.terminate()
        for process, conn in workers:
            process.join()
            conn.close()


def _answer(conn):
    ok, value = conn.recv()
    if not ok:
        raise value
    return value


def _pooled_exports(conns, batches, ahead):
    """_export_batch's result for each batch, in order: batch i goes to the
    worker behind conns[i % len(conns)], which answers in the order it is
    sent batches, and at most ahead batches are unanswered at once."""
    workers = cycle(conns)
    pending = deque()  # the connection of each unanswered batch, in order
    try:
        while True:
            try:
                for batch in islice(batches, ahead - len(pending)):
                    conn = next(workers)
                    conn.send(batch)
                    pending.append(conn)
            except InputFormatError:
                for conn in pending:  # a document before the malformed entry fails first
                    _answer(conn)
                raise
            if not pending:
                return
            yield _answer(pending.popleft())
    except (EOFError, OSError) as exc:
        raise DiscoParseError("a parse worker ended abruptly") from exc


def cmd_parse(args):
    """Parse and export every document in parses-file order: one at a time
    in process (--jobs 1), or in batches on a pool of forked workers.

    The output file appears, whole, only if every document succeeds, and
    the first failing document in file order decides the error.
    """
    model = load_model(args.model)
    raw = _read_raw_dir(args.raw)
    jobs = args.jobs or _default_jobs()
    context = (model, raw, args.conll_tokenlist)
    count = 0
    with atomic_output(args.out) as out:
        with open(args.parses, "rb") as handle:
            text, name, gate = _read_text(handle, "parses file")
        entries = _decode_entries(text, name, gate)
        with _worker_pool(jobs, text, context) as conns:
            if conns is None:
                exports = (_export_batch([(doc_id, entry)], *context)
                           for doc_id, entry, _ in entries)
            else:
                exports = _pooled_exports(conns, _batches(entries),
                                          _BATCHES_AHEAD_PER_JOB * jobs)
            for data, relations in exports:
                out.write(data)
                count += relations
    print(f"{count} relations written to {args.out}", file=sys.stderr)
    return 0


def cmd_score(args):
    with open(args.gold, "rb") as handle:
        gold = load_relations(handle)
    with open(args.pred, "rb") as handle:
        predicted = load_relations(handle)
    scores = score(gold, predicted)
    print(json.dumps(report_dict(scores), indent=2, sort_keys=True))
    if args.table:
        print(format_table(scores), file=sys.stderr)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) and args.jobs > 1 and not hasattr(os, "fork"):
        parser.error("--jobs above 1 needs the fork start method")
    _configure_logging(args)
    try:
        return args.func(args)
    except InputFormatError as exc:
        message, code = exc, 2
    except OSError as exc:
        message, code = f"cannot access {exc.filename or ''}: {exc.strerror or exc}", 2
    except DiscoParseError as exc:
        message, code = exc, 1
    print(f"error: {message}".translate(_LINE_BREAKS), file=sys.stderr)
    return code


def run():
    """Process entry point: main, then gc.freeze, then exit with main's code.

    The freeze moves every object, the dead parse trees included, into the
    permanent generation, which the shutdown collection skips; the OS
    reclaims that memory instead. Files are closed before main returns,
    and logging's and the standard streams' flushes still run at exit, but
    cyclic garbage left at exit gets no finalizers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
