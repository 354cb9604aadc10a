"""Child processes of the benchmark that call the parser as a library.

    python3 probe.py setup MODEL
        Prints the seconds from before `import discoparse` to a loaded
        model, ready to parse.
    python3 probe.py serial MODEL PARSES RAW_DIR EXPORT_OUT REPORT_OUT
        Loads the model and documents, then times `parse_document` on each
        document in turn. Writes `export_relations` of all relations to
        EXPORT_OUT and a JSON report (per-document seconds, the model's
        lexicon counts) to REPORT_OUT.
    python3 probe.py serial-traced SPANS_OUT MODEL PARSES RAW_DIR EXPORT_OUT REPORT_OUT
        The serial pass under tracer.py, so that its spans compare with
        those of a traced `discoparse parse`.
"""

import time

START = time.perf_counter()


def setup(model_path):
    import discoparse
    discoparse.load_model(model_path)
    print(repr(time.perf_counter() - START))


def serial(model_path, parses_path, raw_dir, export_out, report_out):
    import json
    import os

    from discoparse import export_relations, load_model, load_parses, parse_document

    model = load_model(model_path)
    raw = {}
    for name in sorted(os.listdir(raw_dir)):
        with open(os.path.join(raw_dir, name), encoding="utf-8") as handle:
            raw[name] = handle.read()
    with open(parses_path, "rb") as handle:
        documents = load_parses(handle, raw)
    latencies = []
    relations = []
    for document in documents:
        started = time.perf_counter()
        found = parse_document(document, model)
        latencies.append(time.perf_counter() - started)
        relations.extend(found)
    data = export_relations(relations, {doc.doc_id: doc for doc in documents})
    with open(export_out, "wb") as handle:
        handle.write(data)
    lexicon = {key: stats.total_count for key, stats in model.lexicon.entries.items()}
    with open(report_out, "w", encoding="utf-8") as handle:
        json.dump({"latencies_s": latencies, "lexicon": lexicon}, handle)


def serial_traced(spans_out, *args):
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        serial(*args)
    finally:
        traced.dump(spans_out)


if __name__ == "__main__":
    import sys

    mode, *args = sys.argv[1:]
    {"setup": setup, "serial": serial, "serial-traced": serial_traced}[mode](*args)
