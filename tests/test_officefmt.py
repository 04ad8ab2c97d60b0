"""Stdlib .docx / .xlsx / PDF parsers (ops/officefmt.py).

Fixtures are generated in-process by the module's own builders
(make_docx / make_xlsx / make_pdf — plain zipfile/zlib, no libraries),
then parsed back and checked against the reference processors' output
contract (word_processor.py:90-136, spreadsheet_processor.py:196-281,
pdf_processor.py:60-103).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from agraph_ray.ops.officefmt import (make_docx, make_pdf, make_xlsx,
                                      parse_docx, parse_pdf, parse_xlsx)


# ---------------------------------------------------------------------------
# docx
# ---------------------------------------------------------------------------

def test_docx_paragraphs_then_tables():
    data = make_docx(
        ["First paragraph.", "  ", "Second & <special> one"],
        tables=[[["h1", "h2"], ["a", "b"], ["", ""]]])
    out = parse_docx(data)
    # paragraphs first (blank dropped), then table rows tab-joined,
    # all-empty rows dropped — word_processor.py:95-136 contract
    assert out == ("First paragraph.\nSecond & <special> one\n"
                   "h1\th2\na\tb")


def test_docx_empty_and_tables_only():
    assert parse_docx(make_docx([])) == ""
    assert parse_docx(make_docx([], tables=[[["x", ""], ["y", "z"]]])) \
        == "x\t\ny\tz"


def test_docx_rejects_garbage():
    with pytest.raises(ValueError):
        parse_docx(b"not a zip at all")


# ---------------------------------------------------------------------------
# xlsx
# ---------------------------------------------------------------------------

def test_xlsx_sheet_rendering():
    data = make_xlsx({"People": [["name", "age"],
                                 ["alice", "30"],
                                 ["bob", "7"]],
                      "Empty": [],
                      "Notes": [["text"], ["hi"]]})
    out = parse_xlsx(data)
    # "Sheet: name" header, column-aligned " | " table, blank line
    # between sheets, empty sheet skipped
    assert out == ("Sheet: People\n"
                   "name  | age\n"
                   "alice | 30 \n"
                   "bob   | 7  \n"
                   "\n"
                   "Sheet: Notes\n"
                   "text\n"
                   "hi  \n")


def test_xlsx_max_rows_cap():
    rows = [["v"]] + [[str(i)] for i in range(50)]
    out = parse_xlsx(make_xlsx({"S": rows}), max_rows=10)
    # header + 10 data rows
    assert len([l for l in out.splitlines() if l and not
                l.startswith("Sheet:")]) == 11


def test_xlsx_sparse_cells_and_headers_off():
    # row 2 only fills column C: A/B must render as empty cells
    data = make_xlsx({"S": [["a", "b", "c"], ["", "", "z"]]})
    out = parse_xlsx(data)
    assert "  |   | z" in out
    out2 = parse_xlsx(data, include_headers=False)
    assert "a" not in out2.splitlines()[1]


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------

def test_pdf_roundtrip_compressed_and_raw():
    lines = ["Hello PDF world.", "Second line (with parens) and \\ esc.",
             "Third."]
    for compress in (True, False):
        data = make_pdf(lines, compress=compress)
        assert parse_pdf(data) == "\n".join(lines)


def test_pdf_hex_and_tj_array():
    import zlib
    content = (b"BT /F1 12 Tf 72 720 Td "
               b"[(ab) -120 (cd)] TJ 0 -14 Td <48495821> Tj ET")
    body = zlib.compress(content)
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " +
           str(len(body)).encode() +
           b" /Filter /FlateDecode >>\nstream\n" + body +
           b"\nendstream\nendobj\ntrailer\n<< >>\n%%EOF\n")
    assert parse_pdf(pdf) == "abcd\nHIX!"


def test_pdf_filter_of_earlier_object_not_applied_to_stream():
    """An unfiltered text stream after a non-stream object whose dict
    names a /Filter: the stream is read under its own dict, not from the
    earlier object's ``<<`` on."""
    content = b"BT /F1 12 Tf 72 720 Td (Hello) Tj ET"
    pdf = (b"%PDF-1.4\n"
           b"1 0 obj\n<< /Type /XObject /Filter /FlateDecode >>\nendobj\n"
           b"5 0 obj\n<< /Length " + str(len(content)).encode() +
           b" >>\nstream\n" + content + b"\nendstream\nendobj\n"
           b"trailer\n<< >>\n%%EOF\n")
    assert parse_pdf(pdf) == "Hello"


def test_pdf_nested_dict_filter_kept():
    import zlib
    body = zlib.compress(b"BT (Nested) Tj ET")
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " + str(len(body)).encode() +
           b" /DecodeParms << /Columns 1 >> /Filter /FlateDecode >>\n"
           b"stream\n" + body + b"\nendstream\nendobj\n%%EOF\n")
    assert parse_pdf(pdf) == "Nested"


def test_pdf_encrypted_raises():
    data = make_pdf(["secret"])
    data = data.replace(b"/Root 1 0 R", b"/Root 1 0 R /Encrypt 9 0 R")
    with pytest.raises(NotImplementedError):
        parse_pdf(data)


def test_pdf_rejects_non_pdf():
    with pytest.raises(ValueError):
        parse_pdf(b"plain text")


# ---------------------------------------------------------------------------
# registry dispatch with the binary column
# ---------------------------------------------------------------------------

def test_parse_documents_binary_formats(ray_session):
    import ray.data as rd
    from agraph_ray.ops.parse import parse_documents

    docx = make_docx(["from docx"])
    xlsx = make_xlsx({"S": [["col"], ["from xlsx"]]})
    pdf = make_pdf(["from pdf"])
    t = pa.table({
        "content": pa.array([None, None, None, "plain text", None],
                            pa.string()),
        "content_binary": pa.array([docx, xlsx, pdf, None, b"garbage"],
                                   pa.binary()),
        "format": ["docx", "xlsx", "pdf", "txt", "docx"],
    })
    out = parse_documents(rd.from_arrow(t)).to_pandas()
    assert out["text"][0] == "from docx"
    assert "from xlsx" in out["text"][1]
    assert out["text"][2] == "from pdf"
    assert out["text"][3] == "plain text"
    assert out["text"][4] is None            # poison pill -> error column
    assert "docx" in out["parse_error"][4]
    assert out["parse_error"][:4].isna().all()


# ---------------------------------------------------------------------------
# metadata extraction (the extract_metadata surface)
# ---------------------------------------------------------------------------

def test_docx_metadata_counts_and_props():
    from agraph_ray.ops.officefmt import docx_metadata
    data = make_docx(["One.", "  ", "Two."],
                     tables=[[["a", "b"]]],
                     props={"title": "T", "author": "A & B"})
    m = docx_metadata(data)
    assert m["paragraph_count"] == 3
    assert m["non_empty_paragraph_count"] == 2
    assert m["table_count"] == 1
    assert m["section_count"] >= 1
    assert m["title"] == "T" and m["author"] == "A & B"


def test_xlsx_metadata_sheets_info():
    from agraph_ray.ops.officefmt import xlsx_metadata
    data = make_xlsx({"S1": [["c1", "c2"], ["x", "y"], ["z", ""]],
                      "Empty": []})
    m = xlsx_metadata(data)
    assert m["sheet_names"] == ["S1", "Empty"]
    assert m["sheet_count"] == 2
    s1 = m["sheets_info"]["S1"]
    assert s1 == {"row_count": 2, "column_count": 2,
                  "columns": ["c1", "c2"], "has_data": True}
    assert m["sheets_info"]["Empty"]["has_data"] is False


def test_pdf_metadata_pages_and_flags():
    from agraph_ray.ops.officefmt import pdf_metadata
    data = make_pdf(["hello"])
    m = pdf_metadata(data)
    assert m["page_count"] == 1
    assert m["is_encrypted"] is False
    assert m["has_bookmarks"] is False
    enc = data.replace(b"/Root 1 0 R", b"/Root 1 0 R /Encrypt 9 0 R")
    assert pdf_metadata(enc)["is_encrypted"] is True


def test_extract_document_metadata_dispatch(ray_session):
    import json as _json

    import ray.data as rd
    from agraph_ray.ops.parse import extract_document_metadata

    docx = make_docx(["hello world"])
    t = pa.table({
        "content": pa.array(
            ['{"a": 1, "b": "x"}', "c1,c2\n1,2\n3,4",
             "<html><head><title> Hi </title>"
             '<meta name="k" content="v"></head></html>',
             "line one\n\nline two", None], pa.string()),
        "content_binary": pa.array([None, None, None, None, docx],
                                   pa.binary()),
        "format": ["json", "csv", "html", "txt", "docx"],
    })
    out = extract_document_metadata(rd.from_arrow(t)).to_pandas()
    metas = [_json.loads(s) for s in out["metadata"]]
    assert metas[0]["key_count"] == 2
    assert metas[0]["top_level_keys"] == ["a", "b"]
    assert metas[1] == {"format": "csv", "row_count": 2,
                        "column_count": 2, "detected_delimiter": ","}
    assert metas[2]["title"] == "Hi" and metas[2]["meta_tags"] == {"k": "v"}
    assert metas[3]["line_count"] == 3
    assert metas[3]["non_empty_line_count"] == 2
    assert metas[4]["paragraph_count"] == 1
    assert out["content_bytes"][4] == len(docx)
    # poison pill: garbage binary for a binary format -> error field
    t2 = pa.table({"content": pa.array([None], pa.string()),
                   "content_binary": pa.array([b"junk"], pa.binary()),
                   "format": ["xlsx"]})
    bad = extract_document_metadata(rd.from_arrow(t2)).to_pandas()
    assert "error" in _json.loads(bad["metadata"][0])


def test_parse_documents_max_bytes_guard(ray_session):
    import ray.data as rd
    from agraph_ray.ops.parse import parse_documents
    t = pa.table({"content": ["small", "x" * 100],
                  "format": ["txt", "txt"]})
    out = parse_documents(rd.from_arrow(t), max_bytes=50).to_pandas()
    assert out["text"][0] == "small"
    assert out["text"][1] is None
    assert "exceeds max_bytes" in out["parse_error"][1]
