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
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys

from .corpus_io import (atomic_output, export_relations, iter_parses,
                        load_parses, load_relations)
from .decision_tree import tree_size, tree_support
from .errors import DiscoParseError, InputFormatError
from .evaluation import format_table, report_dict, score
from .pipeline import load_model, parse_document, save_model, train_model

LOG_LEVELS = ("debug", "info", "warning", "error")
# Collector thresholds while train loads the corpus and trains on it.
_TRAIN_GC_THRESHOLD = (20000, 10, 10)
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
            with open(full, "r", encoding="utf-8", newline="") as handle:
                try:
                    raw[name] = handle.read()
                except UnicodeDecodeError as exc:
                    raise InputFormatError(
                        f"raw text file '{full}' is not UTF-8: {exc}") from exc
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


def cmd_parse(args):
    """Parse, export and drop one document at a time, in parses-file order.

    The output file appears, whole, only if every document succeeds.
    """
    model = load_model(args.model)
    raw = _read_raw_dir(args.raw)
    with open(args.parses, "rb") as handle:
        documents = iter_parses(handle, raw)
    count = 0
    with atomic_output(args.out) as out:
        for doc in documents:
            relations = parse_document(doc, model)
            out.write(export_relations(relations, {doc.doc_id: doc},
                                       conll_tokenlist=args.conll_tokenlist))
            count += len(relations)
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
