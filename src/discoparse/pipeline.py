"""End-to-end orchestration: training and parsing.

Training mines the connective lexicon from gold relations, builds both
classifier datasets in one pass over each document's lexicon matches (usage
labels from gold connective spans, argument labels from gold argument spans
projected onto the pruned constituents of gold-matched candidates) and
induces both trees. Parsing makes the same pass: it runs candidates through
the usage filter, labels and merges arguments, and annotates the most
frequent sense; later stages only ever see survivors of earlier ones.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .argument_labeler import (classify_constituents, extract_node_features,
                               gold_constituent_label, merge_arguments,
                               prune_candidates)
from .connective_annotator import (USAGE_NEGATIVE, USAGE_POSITIVE,
                                   classify_usage, extract_connective_features,
                                   find_candidates)
from .connective_lexicon import (ConnectiveLexicon, annotate_sense,
                                 lexicon_from_json, lexicon_to_json,
                                 mine_lexicon)
from .corpus_io import DiscourseRelation
from .decision_tree import Instance, train, tree_from_json, tree_to_json
from .errors import ModelFormatError, TrainingError
from .parse_tree import exact_cover_chain

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


@dataclass
class ParserModel:
    lexicon: ConnectiveLexicon
    usage_tree: object
    argument_tree: object


def _connective_syntax(candidate, sentence):
    """(exact-cover chain, connective features) of one candidate.

    The chain is computed once and serves the usage features, the pruning
    anchor (its bottom) and the target of every node's path (its top).
    """
    chain = exact_cover_chain(sentence.tree,
                              (candidate.token_begin, candidate.token_end))
    return chain, extract_connective_features(candidate, sentence, chain)


def _node_candidates(candidate, chain, features):
    """(node, feature dict) for every pruned constituent of a candidate."""
    top = chain[-1]
    return [(node, extract_node_features(node, candidate, features, top))
            for node in prune_candidates(chain[0])]


def build_datasets(documents, gold, lexicon):
    """(usage instances, argument instances) from one walk over each
    document's lexicon matches, the same walk parse_document makes.

    Each match gives one usage instance, positive iff gold explicit
    relations sit on its span. The pruned constituents of a positive match
    are labeled once per gold relation on that span, by projecting the
    relation's argument spans. Gold connectives the matcher does not
    reproduce (discontiguous spans, tokenization mismatches) are skipped
    with a warning each, in gold order.
    """
    explicit = [((rel.doc_id, tuple(sorted(rel.connective_tokens))), rel)
                for rel in gold if rel.relation_type == "Explicit"]
    # A candidate takes the relations on its span out; the rest never match.
    unmatched = {}
    for key, rel in explicit:
        unmatched.setdefault(key, []).append(rel)
    usage, argument = [], []
    for doc_id, document in documents.items():
        for candidate in find_candidates(document, lexicon):
            sentence = document.sentences[candidate.sent_index]
            chain, features = _connective_syntax(candidate, sentence)
            span = sentence.doc_span(candidate.token_begin, candidate.token_end)
            relations = unmatched.pop((doc_id, tuple(span)), None)
            usage.append(Instance(features, USAGE_POSITIVE if relations
                                  else USAGE_NEGATIVE))
            if relations:
                pairs = _node_candidates(candidate, chain, features)
                argument.extend(
                    Instance(vector, gold_constituent_label(
                        node, sentence, rel.arg1_tokens, rel.arg2_tokens).value)
                    for rel in relations for node, vector in pairs)
    skipped = [rel for key, rel in explicit if key in unmatched]
    for rel in skipped:
        logger.warning(
            "relation %s in '%s': gold connective span %s not reproduced "
            "by the matcher; skipped",
            rel.relation_id, rel.doc_id, rel.connective_tokens)
    if skipped:
        logger.warning("%d gold connectives skipped during training", len(skipped))
    return usage, argument


def train_model(documents, gold_relations, min_leaf=2):
    """Mine the lexicon and train both classifiers from gold relations."""
    gold = list(gold_relations)
    if not gold:
        raise TrainingError("no gold relations to train on")
    lexicon = mine_lexicon(gold, documents)
    if not lexicon.entries:
        raise TrainingError("gold data contains no explicit relations")
    usage_dataset, argument_dataset = build_datasets(documents, gold, lexicon)
    if not usage_dataset:
        raise TrainingError("no connective candidates in the training documents")
    if not argument_dataset:
        raise TrainingError("no argument-labeling instances could be built")
    logger.info("training: %d usage instances, %d argument instances",
                len(usage_dataset), len(argument_dataset))
    usage_tree = train(usage_dataset, min_leaf)
    argument_tree = train(argument_dataset, min_leaf)
    return ParserModel(lexicon, usage_tree, argument_tree)


def parse_document(document, model):
    """All explicit relations the model finds in one document.

    Relation ids are assigned sequentially from 0 within the document.
    Candidates rejected by the usage classifier contribute nothing; merge
    failures (connective in the first sentence with no Arg1 constituent)
    drop the relation.
    """
    relations = []
    dropped = 0
    for candidate in find_candidates(document, model.lexicon):
        sentence = document.sentences[candidate.sent_index]
        chain, features = _connective_syntax(candidate, sentence)
        if not classify_usage(features, model.usage_tree):
            continue
        pairs = _node_candidates(candidate, chain, features)
        labels = classify_constituents(pairs, model.argument_tree)
        merged = merge_arguments(labels, candidate, document)
        if merged is None:
            dropped += 1
            continue
        arg1, arg2 = merged
        relation = DiscourseRelation(
            doc_id=document.doc_id,
            relation_id=len(relations),
            relation_type="Explicit",
            connective_tokens=tuple(sentence.doc_span(candidate.token_begin,
                                                      candidate.token_end)),
            arg1_tokens=arg1,
            arg2_tokens=arg2,
            senses=(),
        )
        relations.append(annotate_sense(relation, model.lexicon, candidate.surface))
    if dropped:
        logger.debug("document '%s': dropped %d relations without a previous "
                     "sentence for Arg1", document.doc_id, dropped)
    return relations


def model_to_json(model):
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "lexicon": lexicon_to_json(model.lexicon),
        "usage_tree": tree_to_json(model.usage_tree),
        "argument_tree": tree_to_json(model.argument_tree),
    }


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_json(model), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file '{path}' is not JSON: {exc}") from exc
    version = data.get("format_version") if isinstance(data, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model file '{path}' has format_version {version!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}")
    try:
        return ParserModel(
            lexicon=lexicon_from_json(data["lexicon"]),
            usage_tree=tree_from_json(data["usage_tree"]),
            argument_tree=tree_from_json(data["argument_tree"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelFormatError(
            f"model file '{path}' is incomplete or malformed: {exc}") from exc
