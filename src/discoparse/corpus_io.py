"""CoNLL-style corpus I/O.

Reads the shared-task parses JSON (token offsets, POS tags and PTB
bracketings per sentence; dependency parses are tolerated and discarded)
together with per-document raw text, reads gold relations from JSON lines,
and writes predicted relations back out as one JSON object per line.
Output files are replaced atomically (atomic_output).
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import (AlignmentError, ExportError, InputFormatError,
                     MissingDocumentError, TreeParseError)
from .parse_tree import ConstituentNode, _parse_ptb_leaves

RELATION_TYPES = frozenset({"Explicit", "Implicit", "AltLex", "EntRel"})

# PTB bracketings escape brackets; raw text does not.
PTB_ESCAPES = {"-LRB-": "(", "-RRB-": ")", "-LCB-": "{", "-RCB-": "}"}

# The whitespace JSON allows between tokens (str.isspace is wider).
_JSON_WHITESPACE = re.compile(r"[ \t\n\r]*")
# Text decoded from UTF-8 holds no surrogate, so JSON text without one of
# these escapes decodes to none; one scan of it gates the full check.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    char_begin: int
    char_end: int
    pos: str
    doc_index: int


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    tree: ConstituentNode

    def doc_span(self, begin, end):
        """Document-level indices of this sentence's tokens [begin, end).

        Doc indices run consecutively through a document's sentences, and
        every sentence has a token, so they are offsets from the first.
        """
        first = self.tokens[0].doc_index
        return range(first + begin, first + end)


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]

    @cached_property
    def tokens(self):
        """Every token of the document; tokens[i].doc_index == i."""
        return tuple(token for sentence in self.sentences for token in sentence.tokens)


@dataclass(frozen=True)
class DiscourseRelation:
    doc_id: str
    relation_id: int
    relation_type: str
    connective_tokens: tuple[int, ...]
    arg1_tokens: tuple[int, ...]
    arg2_tokens: tuple[int, ...]
    senses: tuple[str, ...]


def _read_text(source, kind):
    """(text, name) of a binary handle, bytes or str: name, for errors, is
    kind with the handle's file name."""
    if hasattr(source, "read"):
        if hasattr(source, "name"):
            kind = f"{kind} '{source.name}'"
        source = source.read()
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8"), kind
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{kind} is not UTF-8: {exc}") from exc
    return source, kind


def _check_surrogates(value, where):
    """Raise InputFormatError when a key or string of value, decoded JSON,
    holds a lone surrogate, which UTF-8 cannot encode. json pairs surrogate
    escapes into one character, so any surrogate left is lone."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if found := _SURROGATE.search(item):
                raise InputFormatError(f"{where} holds a lone surrogate {ascii(found[0])}")
        elif isinstance(item, dict):
            stack += item
            stack += item.values()
        elif isinstance(item, list):
            stack += item


def iter_parses(parses_json, raw_texts):
    """Documents from a parses JSON stream and a doc_id -> raw text map,
    one at a time in parses-file order.

    The JSON object is decoded one document's entry at a time. The opening
    brace and the first entry are decoded here, so empty input yields no
    documents, and input that is not UTF-8, a top level that is not an
    object or a malformed first entry (a lone surrogate in it included)
    raises InputFormatError from this call. Every other error (a later
    malformed entry, a repeated document id, data after the closing brace,
    a document without raw text, a malformed sentence, word or tree)
    raises when iteration reaches it, after the documents before it have
    been yielded. Each entry is dropped as its Document is built, so a
    caller that drops each Document in turn holds one document at a time.
    Extra raw entries are ignored; dependency parses present in the file
    are discarded.
    """
    entries = _decode_entries(*_read_text(parses_json, "parses file"))
    first = next(entries, None)
    if first is None:
        return iter(())
    return _build_documents(chain((first,), entries), raw_texts)


def _decode_entries(text, name):
    """(doc_id, decoded entry) for each member of the parses JSON object,
    in file order, decoding one member per step; malformed JSON, a repeated
    doc_id or a lone surrogate raises InputFormatError from the step that
    meets it. name names the file in the surrogate error."""
    if not text.strip():
        return
    surrogates = _SURROGATE_ESCAPE.search(text)
    skip = _JSON_WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    index = skip(text).end()
    if not text.startswith("{", index):
        raise InputFormatError("parses JSON must be an object keyed by document id")
    seen = set()
    try:
        index = skip(text, index + 1).end()
        more = not text.startswith("}", index)
        while more:
            doc_id, end = decode(text, index)
            if not isinstance(doc_id, str):
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes", text, index)
            if doc_id in seen:
                raise InputFormatError(f"parses JSON repeats document id '{doc_id}'")
            seen.add(doc_id)
            index = skip(text, end).end()
            if not text.startswith(":", index):
                raise json.JSONDecodeError("Expecting ':' delimiter", text, index)
            entry, end = decode(text, skip(text, index + 1).end())
            if surrogates:
                _check_surrogates([doc_id, entry], f"{name} document {doc_id!r}")
            yield doc_id, entry
            index = skip(text, end).end()
            more = text.startswith(",", index)
            if more:
                index = skip(text, index + 1).end()
            elif not text.startswith("}", index):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, index)
        index = skip(text, index + 1).end()
        if index != len(text):
            raise json.JSONDecodeError("Extra data", text, index)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long to read
        raise InputFormatError(f"malformed parses JSON: {exc}") from exc


def _build_documents(entries, raw_texts):
    for doc_id, doc_data in entries:
        if doc_id not in raw_texts:
            raise MissingDocumentError(f"no raw text for document '{doc_id}'")
        yield _build_document(doc_id, doc_data, len(raw_texts[doc_id]))


def load_parses(parses_json, raw_texts):
    """Every Document of iter_parses, as a list."""
    return list(iter_parses(parses_json, raw_texts))


def _build_document(doc_id, doc_data, text_length):
    if not isinstance(doc_data, dict) or not isinstance(doc_data.get("sentences"), list):
        raise InputFormatError(f"document '{doc_id}': missing 'sentences' array")
    sentences = []
    doc_index = 0
    last_begin = -1
    unescape = PTB_ESCAPES.get
    for sent_index, entry in enumerate(doc_data["sentences"]):
        where = f"document '{doc_id}' sentence {sent_index}"
        if not isinstance(entry, dict) or "parsetree" not in entry \
                or not isinstance(entry.get("words"), list):
            raise InputFormatError(f"{where}: missing 'parsetree' or 'words' array")
        try:
            tree, leaves = _parse_ptb_leaves(entry["parsetree"])
        except TreeParseError as exc:
            raise InputFormatError(f"{where}: {exc}") from exc
        tokens = []
        for i, word in enumerate(entry["words"]):
            try:
                surface = word[0]
                attrs = word[1]
                begin = attrs["CharacterOffsetBegin"]
                end = attrs["CharacterOffsetEnd"]
                pos = attrs["PartOfSpeech"]
            except (TypeError, KeyError, IndexError) as exc:
                raise InputFormatError(f"{where}: malformed word entry {i}") from exc
            if not isinstance(surface, str) or not isinstance(pos, str):
                raise InputFormatError(f"{where}: word {i} has a non-string surface or tag")
            if type(begin) is not int or type(end) is not int or not 0 <= begin < end:
                raise InputFormatError(
                    f"{where}: word {i} has invalid character span [{begin}, {end})")
            if end > text_length:
                raise InputFormatError(
                    f"{where}: word {i} ends at {end}, past the raw text")
            if not last_begin < begin:
                raise InputFormatError(
                    f"{where}: word {i} is not ordered by character offset")
            last_begin = begin
            tokens.append(Token(surface, begin, end, pos, doc_index))
            doc_index += 1
        if len(leaves) != len(tokens):
            raise AlignmentError(
                f"{where}: parse tree has {len(leaves)} leaves "
                f"for {len(tokens)} words")
        for i, (leaf, token) in enumerate(zip(leaves, tokens)):
            if unescape(leaf.label, leaf.label) != unescape(token.surface, token.surface):
                raise AlignmentError(
                    f"{where}: leaf '{leaf.label}' does not match "
                    f"word '{token.surface}' at position {i}")
        sentences.append(Sentence(tuple(tokens), tree))
    return Document(doc_id, tuple(sentences))


def _token_indices(token_list, line_number):
    indices = []
    for entry in token_list:
        # An index, or [char_begin, char_end, doc_index, ...].
        index = entry[2] if isinstance(entry, list) and len(entry) >= 3 else entry
        if type(index) is not int or index < 0:
            raise InputFormatError(
                f"line {line_number}: unreadable TokenList entry {entry!r}")
        indices.append(index)
    return tuple(indices)


def load_relations(relations_jsonl):
    """Read DiscourseRelations from a JSON-lines stream.

    TokenList entries may be plain document-level indices or the 5-tuple
    form; either way only the document-level index is kept.
    """
    text, name = _read_text(relations_jsonl, "relations file")
    surrogates = _SURROGATE_ESCAPE.search(text)
    relations = []
    # "\n" only: str.splitlines also breaks at U+2028, U+2029 and U+0085 inside strings.
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long to read
            raise InputFormatError(f"line {line_number}: malformed JSON: {exc}") from exc
        if surrogates:
            _check_surrogates(obj, f"{name} line {line_number}")
        relations.append(_relation_from_json(obj, line_number))
    return relations


def _relation_from_json(obj, line_number):
    try:
        doc_id = obj["DocID"]
        relation_id = obj["ID"]
        relation_type = obj["Type"]
        senses = obj["Sense"]
        spans = {name: obj[name] for name in ("Connective", "Arg1", "Arg2")}
    except (TypeError, KeyError) as exc:
        raise InputFormatError(f"line {line_number}: missing or malformed field: {exc}") from exc
    if not isinstance(doc_id, str):
        raise InputFormatError(f"line {line_number}: DocID must be a string")
    if type(relation_id) is not int:
        raise InputFormatError(f"line {line_number}: ID must be an integer")
    if not isinstance(relation_type, str) or relation_type not in RELATION_TYPES:
        raise InputFormatError(
            f"line {line_number}: unknown relation type {relation_type!r}")
    if not isinstance(senses, list) or not all(isinstance(s, str) for s in senses):
        raise InputFormatError(f"line {line_number}: Sense must be a list of strings")
    token_sets = {}
    for name, span in spans.items():
        if not isinstance(span, dict) or not isinstance(span.get("TokenList"), list):
            raise InputFormatError(f"line {line_number}: {name} has no TokenList array")
        token_sets[name] = _token_indices(span["TokenList"], line_number)
    return DiscourseRelation(doc_id, relation_id, relation_type,
                             token_sets["Connective"], token_sets["Arg1"],
                             token_sets["Arg2"], tuple(senses))


def _span_json(rel, indices, document, conll_tokenlist):
    flat_tokens, sentences = document.tokens, document.sentences
    for index in indices:
        if not 0 <= index < len(flat_tokens):
            raise ExportError(
                f"relation {rel.relation_id}: token index {index} out of "
                f"range for document '{rel.doc_id}'")
    raw_text = " ".join(flat_tokens[i].surface for i in sorted(indices))
    token_list = list(indices)
    if conll_tokenlist:
        for k, index in enumerate(indices):
            sent = bisect_right(sentences, index, key=lambda s: s.tokens[0].doc_index) - 1
            token_list[k] = [flat_tokens[index].char_begin, flat_tokens[index].char_end,
                             index, sent, index - sentences[sent].tokens[0].doc_index]
    return {"RawText": raw_text, "TokenList": token_list}


def export_relations(relations, documents, conll_tokenlist=False):
    """Serialize relations as UTF-8 JSON lines, one relation per line.

    Output is deterministic given the input order. With conll_tokenlist
    each TokenList entry is the 5-tuple
    [char_begin, char_end, doc_index, sent_index, index_in_sentence]
    instead of a single document-level index.
    """
    lines = []
    for rel in relations:
        if rel.doc_id not in documents:
            raise ExportError(
                f"relation {rel.relation_id}: unknown document '{rel.doc_id}'")
        document = documents[rel.doc_id]
        obj = {
            "DocID": rel.doc_id,
            "ID": rel.relation_id,
            "Type": rel.relation_type,
            "Sense": list(rel.senses),
            "Connective": _span_json(rel, rel.connective_tokens, document, conll_tokenlist),
            "Arg1": _span_json(rel, rel.arg1_tokens, document, conll_tokenlist),
            "Arg2": _span_json(rel, rel.arg2_tokens, document, conll_tokenlist),
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


@contextmanager
def atomic_output(path):
    """Binary handle whose bytes replace the file at path when the block ends.

    The bytes go to a new file beside the target, which replaces it with
    os.replace only if the block exits normally; on any exception that
    file is deleted and the target keeps its old bytes. A symlink is
    written through, as open() would. A new file gets the mode open(path,
    "wb") would give it and an existing one keeps its mode. A target that
    exists and is not a regular file (a FIFO, a device, /dev/stdout) is
    refused with OSError before anything is created: replacing it would
    swap out the node itself, and opening a FIFO for writing blocks.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise OSError(errno.EINVAL, "not a regular file", path)
    directory, name = os.path.split(os.path.realpath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        handle = open(temp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with handle:
            if mode is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(mode))
            yield handle
        os.replace(temp, os.path.join(directory, name))
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
