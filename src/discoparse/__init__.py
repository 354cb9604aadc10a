"""Trainable shallow discourse parser for explicit PDTB-style relations.

The pipeline reads CoNLL-format syntax, matches discourse connectives
against a lexicon mined from gold relations, filters matches with a
usage classifier, labels Arg1/Arg2 spans by classifying and merging pruned
constituents, annotates each relation with its connective's most frequent
sense, and exports CoNLL-format JSON lines. Each stage is exported on its
own as well; the sense lookup, annotate_sense, lives beside the lexicon it
reads.
"""

from .argument_labeler import (ConstituentLabel, extract_node_features,
                               merge_arguments, prune_candidates)
from .connective_annotator import (ConnectiveCandidate, classify_usage,
                                   extract_connective_features,
                                   find_candidates)
from .connective_lexicon import (ConnectiveLexicon, ConnectiveStats,
                                 annotate_sense, mine_lexicon)
from .corpus_io import (DiscourseRelation, Document, Sentence, Token,
                        export_relations, iter_parses, load_parses,
                        load_relations)
from .decision_tree import Branch, Instance, Leaf, predict, train
from .errors import DiscoParseError
from .evaluation import PRF, score
from .parse_tree import (ConstituentNode, exact_cover_chain, node_context,
                         parse_ptb, path_to_root)
from .pipeline import (ParserModel, load_model, parse_document, save_model,
                       train_model)

__version__ = "0.1.0"

__all__ = [
    "ConnectiveCandidate", "ConnectiveLexicon", "ConnectiveStats",
    "ConstituentLabel", "ConstituentNode", "Branch", "DiscoParseError",
    "DiscourseRelation", "Document", "Instance", "Leaf", "PRF",
    "ParserModel", "Sentence", "Token",
    "annotate_sense", "classify_usage", "exact_cover_chain",
    "export_relations", "extract_connective_features",
    "extract_node_features", "find_candidates", "iter_parses",
    "load_model", "load_parses", "load_relations", "merge_arguments",
    "mine_lexicon", "node_context", "parse_document",
    "parse_ptb", "path_to_root", "predict", "prune_candidates",
    "save_model", "score", "train", "train_model",
]
