"""Stdlib parsers for .docx / .xlsx / common-case PDF.

The reference's Word / spreadsheet / PDF processors shell out to
python-docx, pandas.read_excel(openpyxl) and pypdf — none of which exist
in this environment. But .docx and .xlsx are just zip archives of XML
(stdlib ``zipfile`` + ``xml.etree.ElementTree``), and the common PDF case
is FlateDecode content streams (stdlib ``zlib``) holding Tj/TJ text
operators. These parsers re-express the reference's *observable output*:

- docx (agraph/processer/word_processor.py:90-136): body-level paragraph
  texts (stripped, non-empty) first, then each body-level table rendered
  one row per line with tab-joined cells (empty cells preserved,
  all-empty rows dropped), all joined by "\\n".
- xlsx (agraph/processer/spreadsheet_processor.py:196-281): per
  non-empty sheet "Sheet: {name}" + a column-aligned table (header row
  then data rows capped at max_rows, cells ljust-padded, " | "
  separator), a blank line between sheets.
- pdf (agraph/processer/pdf_processor.py:60-103): page texts joined by
  "\\n", empty pages skipped; encrypted PDFs raise (the reference raises
  ProcessingError without a password — we have no decryption).

All three accept ``bytes`` (or a latin-1-encodable str carrying bytes).
Vector shape: these run inside ``parse_documents``'s ``map_batches``
stage — pure-Python per *document*, not per row of a hot table; document
parsing is a boundary ingest step, not a 100 TB inner loop.
"""

from __future__ import annotations

import re
import zipfile
import zlib
from io import BytesIO
from typing import List, Optional
from xml.etree import ElementTree as ET

_W = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
_S = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_R = ("{http://schemas.openxmlformats.org/officeDocument/2006/"
      "relationships}")
_PR = ("{http://schemas.openxmlformats.org/package/2006/"
       "relationships}")


def _as_bytes(data) -> bytes:
    if isinstance(data, bytes):
        return data
    if isinstance(data, bytearray):
        return bytes(data)
    # str carrying binary (latin-1 round-trips all byte values)
    return data.encode("latin-1", "ignore")


# ---------------------------------------------------------------------------
# docx
# ---------------------------------------------------------------------------

def _docx_par_text(p: ET.Element) -> str:
    """Paragraph text like python-docx: run texts concatenated, tabs and
    breaks rendered as \\t / \\n."""
    parts: List[str] = []
    for el in p.iter():
        tag = el.tag
        if tag == f"{_W}t":
            parts.append(el.text or "")
        elif tag == f"{_W}tab":
            parts.append("\t")
        elif tag in (f"{_W}br", f"{_W}cr"):
            parts.append("\n")
    return "".join(parts)


def _docx_cell_text(tc: ET.Element) -> str:
    """Cell text = its paragraphs joined by \\n (python-docx Cell.text)."""
    return "\n".join(_docx_par_text(p) for p in tc.findall(f"{_W}p"))


def parse_docx(data) -> str:
    """word/document.xml walk. Output order matches the reference
    (word_processor.py:95-108): every body-level paragraph first, then
    every body-level table."""
    raw = _as_bytes(data)
    try:
        with zipfile.ZipFile(BytesIO(raw)) as z:
            doc = z.read("word/document.xml")
    except (zipfile.BadZipFile, KeyError) as e:
        raise ValueError(f"not a .docx file: {e}")
    body = ET.fromstring(doc).find(f"{_W}body")
    if body is None:
        return ""
    paras: List[str] = []
    tables: List[str] = []
    for child in body:
        if child.tag == f"{_W}p":
            t = _docx_par_text(child).strip()
            if t:
                paras.append(t)
        elif child.tag == f"{_W}tbl":
            for tr in child.findall(f"{_W}tr"):
                cells = [_docx_cell_text(tc).strip()
                         for tc in tr.findall(f"{_W}tc")]
                if any(cells):                    # drop all-empty rows
                    tables.append("\t".join(cells))
    return "\n".join(paras + tables)


# ---------------------------------------------------------------------------
# xlsx
# ---------------------------------------------------------------------------

def _col_index(ref: str) -> int:
    """'A1' → 0, 'AB3' → 27."""
    n = 0
    for ch in ref:
        if ch.isalpha():
            n = n * 26 + (ord(ch.upper()) - 64)
        else:
            break
    return n - 1


def _shared_strings(z: zipfile.ZipFile) -> List[str]:
    try:
        raw = z.read("xl/sharedStrings.xml")
    except KeyError:
        return []
    out = []
    for si in ET.fromstring(raw).findall(f"{_S}si"):
        # rich-text runs: concatenate every <t> descendant
        out.append("".join(t.text or "" for t in si.iter(f"{_S}t")))
    return out


def _cell_value(c: ET.Element, shared: List[str]) -> str:
    t = c.get("t", "n")
    if t == "inlineStr":
        is_el = c.find(f"{_S}is")
        if is_el is None:
            return ""
        return "".join(el.text or "" for el in is_el.iter(f"{_S}t"))
    v = c.find(f"{_S}v")
    if v is None or v.text is None:
        return ""
    if t == "s":
        try:
            return shared[int(v.text)]
        except (ValueError, IndexError):
            return ""
    if t == "b":
        return "True" if v.text.strip() == "1" else "False"
    return v.text


def _sheet_rows(z: zipfile.ZipFile, target: str,
                max_rows: int) -> List[List[str]]:
    shared = _shared_strings(z)
    raw = z.read(target)
    rows: List[List[str]] = []
    for row in ET.fromstring(raw).iter(f"{_S}row"):
        cells: List[str] = []
        for c in row.findall(f"{_S}c"):
            ref = c.get("r")
            idx = _col_index(ref) if ref else len(cells)
            while len(cells) <= idx:
                cells.append("")
            cells[idx] = _cell_value(c, shared)
        rows.append(cells)
        if max_rows and len(rows) > max_rows:   # header + max_rows data
            break
    return rows


def _format_table_rows(rows: List[List[str]]) -> str:
    """Column-aligned ljust rendering, " | " separated
    (spreadsheet_processor.py:252-281)."""
    if not rows:
        return ""
    ncols = max(len(r) for r in rows)
    widths = [0] * ncols
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for r in rows:
        lines.append(" | ".join(
            (r[i] if i < len(r) else "").ljust(widths[i])
            for i in range(len(r))))
    return "\n".join(lines)


def parse_xlsx(data, max_rows: int = 1000,
               include_headers: bool = True) -> str:
    """All-sheets rendering (spreadsheet_processor.py:196-219): per
    non-empty sheet a "Sheet: {name}" line, the aligned table, then a
    blank line."""
    raw = _as_bytes(data)
    try:
        z = zipfile.ZipFile(BytesIO(raw))
    except zipfile.BadZipFile as e:
        raise ValueError(f"not a .xlsx file: {e}")
    with z:
        wb = ET.fromstring(z.read("xl/workbook.xml"))
        rels = {}
        try:
            rel_xml = ET.fromstring(z.read("xl/_rels/workbook.xml.rels"))
            for rel in rel_xml.findall(f"{_PR}Relationship"):
                rels[rel.get("Id")] = rel.get("Target")
        except KeyError:
            pass
        out: List[str] = []
        sheets = wb.find(f"{_S}sheets")
        for i, sheet in enumerate(sheets.findall(f"{_S}sheet")
                                  if sheets is not None else []):
            name = sheet.get("name", f"Sheet{i + 1}")
            target = rels.get(sheet.get(f"{_R}id"),
                              f"worksheets/sheet{i + 1}.xml")
            target = target.lstrip("/")
            if not target.startswith("xl/"):
                target = "xl/" + target
            try:
                rows = _sheet_rows(z, target, max_rows)
            except KeyError:
                continue
            if not rows or (len(rows) == 1 and include_headers):
                continue                      # empty sheet (pandas: df.empty)
            render = rows if include_headers else rows[1:]
            out.append(f"Sheet: {name}")
            out.append(_format_table_rows(render))
            out.append("")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# pdf (common case: FlateDecode / raw content streams, Tj/TJ operators)
# ---------------------------------------------------------------------------

_STREAM_RE = re.compile(rb">>\s*stream\r?\n")
_ESCAPES = {b"n": "\n", b"r": "\r", b"t": "\t", b"b": "\b", b"f": "\f",
            b"(": "(", b")": ")", b"\\": "\\"}


def _pdf_stream_dict(buf: bytes, close: int) -> bytes:
    """The body of the stream dict whose closing ``>>`` is at ``close``,
    back to its balanced ``<<``: nested dicts stay in, an earlier object's
    dict stays out."""
    depth, i = 1, close
    while depth and i > 0:
        i = max(buf.rfind(b"<<", 0, i), buf.rfind(b">>", 0, i))
        depth += 1 if buf.startswith(b">>", i) else -1
    return buf[i + 2:close]


def _pdf_literal(buf: bytes, i: int) -> tuple:
    """Parse a ( ... ) string literal starting at buf[i] == '('.
    Returns (text, next_index). Handles \\-escapes, octal and nesting."""
    assert buf[i:i + 1] == b"("
    out: List[str] = []
    depth, i = 1, i + 1
    while i < len(buf) and depth:
        ch = buf[i:i + 1]
        if ch == b"\\":
            nxt = buf[i + 1:i + 2]
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
            elif nxt.isdigit():
                j = i + 1
                while j < min(i + 4, len(buf)) and buf[j:j + 1].isdigit():
                    j += 1
                out.append(chr(int(buf[i + 1:j], 8) & 0xFF))
                i = j
            else:
                i += 2                         # line continuation etc.
        elif ch == b"(":
            depth += 1
            out.append("(")
            i += 1
        elif ch == b")":
            depth -= 1
            if depth:
                out.append(")")
            i += 1
        else:
            out.append(ch.decode("latin-1"))
            i += 1
    return "".join(out), i


def _pdf_hex(buf: bytes, i: int) -> tuple:
    j = buf.find(b">", i)
    if j < 0:
        return "", len(buf)
    hx = re.sub(rb"\s", b"", buf[i + 1:j])
    if len(hx) % 2:
        hx += b"0"
    try:
        return bytes.fromhex(hx.decode("ascii")).decode("latin-1"), j + 1
    except ValueError:
        return "", j + 1


_TOKEN_RE = re.compile(
    rb"\(|<[0-9A-Fa-f\s]*>|\]\s*TJ|\bTj\b|\bT\*|\bTd\b|\bTD\b|'|\"|\bBT\b"
    rb"|\bET\b")


def _pdf_stream_text(content: bytes) -> str:
    """Evaluate the text-showing subset of the content-stream grammar:
    string literals/hex strings feed Tj/TJ/'/\" shows; T*, ', \" and
    Td/TD line moves emit newlines. Good for the common single-column
    text PDF — not a layout engine."""
    out: List[str] = []
    pend: List[str] = []      # strings seen since the last operator
    in_text = False
    i = 0
    while True:
        m = _TOKEN_RE.search(content, i)
        if not m:
            break
        tok = m.group()
        if tok == b"(":
            s, i = _pdf_literal(content, m.start())
            pend.append(s)
            continue
        i = m.end()
        if tok.startswith(b"<"):
            s, _ = _pdf_hex(content, m.start())
            pend.append(s)
        elif tok == b"BT":
            in_text, pend = True, []
        elif tok == b"ET":
            in_text = False
            pend = []
        elif not in_text:
            pend = []
        elif tok == b"Tj":
            if pend:
                out.append(pend[-1])
            pend = []
        elif tok.endswith(b"TJ"):
            out.append("".join(pend))
            pend = []
        elif tok in (b"'", b'"'):
            out.append("\n" + (pend[-1] if pend else ""))
            pend = []
        elif tok in (b"T*", b"Td", b"TD"):
            if out and not out[-1].endswith("\n"):
                out.append("\n")
            pend = []
    return "".join(out)


def parse_pdf(data) -> str:
    """Common-case PDF text: inflate each content stream, evaluate its
    text operators; pages (streams with text) joined by "\\n" like the
    reference's pypdf loop. Encrypted PDFs raise NotImplementedError
    (the reference raises ProcessingError absent a password)."""
    raw = _as_bytes(data)
    if not raw.lstrip()[:5].startswith(b"%PDF"):
        raise ValueError("not a PDF (missing %PDF header)")
    if re.search(rb"/Encrypt\b", raw):
        raise NotImplementedError(
            "encrypted PDF: decryption not supported without pypdf")
    pages: List[str] = []
    for m in _STREAM_RE.finditer(raw):
        d = _pdf_stream_dict(raw, m.start())
        start = m.end()
        end = raw.find(b"endstream", start)
        if end < 0:
            continue
        body = raw[start:end].rstrip(b"\r\n")
        if re.search(rb"/Filter", d):
            if re.search(rb"/FlateDecode\b", d):
                try:
                    body = zlib.decompress(body)
                except zlib.error:
                    continue
            else:
                continue            # exotic filter (DCT, LZW, ...): skip
        if b"BT" not in body:
            continue                # not a text content stream
        text = _pdf_stream_text(body).strip("\n")
        if text.strip():
            pages.append(text)
    return "\n".join(pages)


# ---------------------------------------------------------------------------
# metadata extraction (the processors' extract_metadata surface —
# word_processor.py:166-263, spreadsheet_processor.py:282-402,
# pdf_processor.py:105-166 — minus filesystem stat fields, which don't
# exist for row payloads; callers get content_bytes instead)
# ---------------------------------------------------------------------------

_CORE_PROPS = {
    "title": "title", "subject": "subject", "creator": "author",
    "keywords": "keywords", "description": "comments",
    "category": "category", "created": "created",
    "modified": "modified", "lastModifiedBy": "last_modified_by",
}


def docx_metadata(data) -> dict:
    """Core properties (docProps/core.xml) + document structure counts
    (word_processor.py:217-240 fields)."""
    raw = _as_bytes(data)
    out: dict = {"format": "docx"}
    with zipfile.ZipFile(BytesIO(raw)) as z:
        try:
            core = ET.fromstring(z.read("docProps/core.xml"))
            for el in core.iter():
                local = el.tag.rsplit("}", 1)[-1]
                if local in _CORE_PROPS:
                    out[_CORE_PROPS[local]] = el.text or ""
        except KeyError:
            pass
        body = ET.fromstring(z.read("word/document.xml")) \
            .find(f"{_W}body")
        paras = body.findall(f"{_W}p") if body is not None else []
        out["paragraph_count"] = len(paras)
        out["non_empty_paragraph_count"] = sum(
            1 for p in paras if _docx_par_text(p).strip())
        out["table_count"] = len(body.findall(f"{_W}tbl")) \
            if body is not None else 0
        out["section_count"] = max(
            1, len(list(body.iter(f"{_W}sectPr"))) if body is not None
            else 0)
    return out


def xlsx_metadata(data, max_rows: int = 1000) -> dict:
    """Sheet inventory + per-sheet shape
    (spreadsheet_processor.py:340-402 fields)."""
    raw = _as_bytes(data)
    out: dict = {"format": "excel"}
    with zipfile.ZipFile(BytesIO(raw)) as z:
        wb = ET.fromstring(z.read("xl/workbook.xml"))
        rels = {}
        try:
            rel_xml = ET.fromstring(z.read("xl/_rels/workbook.xml.rels"))
            for rel in rel_xml.findall(f"{_PR}Relationship"):
                rels[rel.get("Id")] = rel.get("Target")
        except KeyError:
            pass
        sheets = wb.find(f"{_S}sheets")
        names, info = [], {}
        for i, sheet in enumerate(sheets.findall(f"{_S}sheet")
                                  if sheets is not None else []):
            name = sheet.get("name", f"Sheet{i + 1}")
            names.append(name)
            target = rels.get(sheet.get(f"{_R}id"),
                              f"worksheets/sheet{i + 1}.xml").lstrip("/")
            if not target.startswith("xl/"):
                target = "xl/" + target
            try:
                rows = _sheet_rows(z, target, max_rows)
            except KeyError:
                info[name] = {"error": "missing sheet part"}
                continue
            data_rows = rows[1:] if rows else []
            info[name] = {
                "row_count": len(data_rows),
                "column_count": len(rows[0]) if rows else 0,
                "columns": rows[0] if rows else [],
                "has_data": bool(data_rows),
            }
        out["sheet_names"] = names
        out["sheet_count"] = len(names)
        out["sheets_info"] = info
    return out


_INFO_KEYS = {b"Title": "title", b"Author": "author",
              b"Subject": "subject", b"Creator": "creator",
              b"Producer": "producer", b"CreationDate": "creation_date",
              b"ModDate": "modification_date"}


def pdf_metadata(data) -> dict:
    """Page count, encryption flag, Info-dictionary strings
    (pdf_processor.py:105-166 fields; has_bookmarks via /Outlines)."""
    raw = _as_bytes(data)
    if not raw.lstrip()[:5].startswith(b"%PDF"):
        raise ValueError("not a PDF (missing %PDF header)")
    out: dict = {
        "format": "pdf",
        "page_count": len(re.findall(rb"/Type\s*/Page\b(?!s)", raw)),
        "is_encrypted": bool(re.search(rb"/Encrypt\b", raw)),
        "has_bookmarks": bool(re.search(rb"/Outlines\b", raw)),
    }
    for key, name in _INFO_KEYS.items():
        m = re.search(rb"/" + key + rb"\s*\(", raw)
        if m:
            s, _ = _pdf_literal(raw, m.end() - 1)
            out[name] = s
    return out


# ---------------------------------------------------------------------------
# deterministic fixture builders (the write side of the subset the
# parsers understand) — used by tests and the parse_documents query to
# generate .docx/.xlsx/.pdf payloads in-process, no library needed
# ---------------------------------------------------------------------------

def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def make_docx(paragraphs: List[str],
              tables: Optional[List[List[List[str]]]] = None,
              props: Optional[dict] = None) -> bytes:
    """Minimal valid .docx: [Content_Types].xml + word/document.xml
    (+ docProps/core.xml when ``props`` gives core-property values,
    keyed by the metadata field names: title, author, subject, ...)."""
    ns = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
    parts = []
    for p in paragraphs:
        parts.append(f"<w:p><w:r><w:t xml:space=\"preserve\">"
                     f"{_xml_escape(p)}</w:t></w:r></w:p>")
    for tbl in (tables or []):
        rows = []
        for row in tbl:
            cells = "".join(
                f"<w:tc><w:p><w:r><w:t xml:space=\"preserve\">"
                f"{_xml_escape(c)}</w:t></w:r></w:p></w:tc>" for c in row)
            rows.append(f"<w:tr>{cells}</w:tr>")
        parts.append(f"<w:tbl>{''.join(rows)}</w:tbl>")
    doc = (f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
           f'<w:document xmlns:w="{ns}"><w:body>{"".join(parts)}'
           f'</w:body></w:document>')
    ctypes = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
              '<Types xmlns="http://schemas.openxmlformats.org/package/'
              '2006/content-types">'
              '<Default Extension="xml" ContentType="application/xml"/>'
              '<Override PartName="/word/document.xml" ContentType='
              '"application/vnd.openxmlformats-officedocument.'
              'wordprocessingml.document.main+xml"/></Types>')
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ctypes)
        z.writestr("word/document.xml", doc)
        if props:
            inv = {v: k for k, v in _CORE_PROPS.items()}
            cpns = ("http://schemas.openxmlformats.org/package/2006/"
                    "metadata/core-properties")
            dcns = "http://purl.org/dc/elements/1.1/"
            els = []
            for field, val in props.items():
                tag = inv.get(field, field)
                ns = dcns if tag in ("title", "subject", "creator",
                                     "description") else cpns
                pre = "dc" if ns == dcns else "cp"
                els.append(f"<{pre}:{tag}>{_xml_escape(str(val))}"
                           f"</{pre}:{tag}>")
            z.writestr(
                "docProps/core.xml",
                f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                f'<cp:coreProperties xmlns:cp="{cpns}" '
                f'xmlns:dc="{dcns}">{"".join(els)}</cp:coreProperties>')
    return buf.getvalue()


def make_xlsx(sheets: "dict[str, List[List[str]]]") -> bytes:
    """Minimal valid .xlsx with inline-string cells, one worksheet per
    dict entry (insertion order preserved)."""
    sns = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    rns = ("http://schemas.openxmlformats.org/officeDocument/2006/"
           "relationships")
    prns = ("http://schemas.openxmlformats.org/package/2006/"
            "relationships")
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        sheet_tags, rel_tags = [], []
        for i, (name, rows) in enumerate(sheets.items(), start=1):
            xml_rows = []
            for ri, row in enumerate(rows, start=1):
                cells = []
                for ci, val in enumerate(row):
                    col = ""
                    n = ci + 1
                    while n:
                        n, rem = divmod(n - 1, 26)
                        col = chr(65 + rem) + col
                    cells.append(
                        f'<c r="{col}{ri}" t="inlineStr"><is><t '
                        f'xml:space="preserve">{_xml_escape(val)}</t>'
                        f'</is></c>')
                xml_rows.append(f'<row r="{ri}">{"".join(cells)}</row>')
            z.writestr(
                f"xl/worksheets/sheet{i}.xml",
                f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                f'<worksheet xmlns="{sns}"><sheetData>'
                f'{"".join(xml_rows)}</sheetData></worksheet>')
            sheet_tags.append(
                f'<sheet name="{_xml_escape(name)}" sheetId="{i}" '
                f'r:id="rId{i}"/>')
            rel_tags.append(
                f'<Relationship Id="rId{i}" Type="{rns}/worksheet" '
                f'Target="worksheets/sheet{i}.xml"/>')
        z.writestr(
            "xl/workbook.xml",
            f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            f'<workbook xmlns="{sns}" xmlns:r="{rns}"><sheets>'
            f'{"".join(sheet_tags)}</sheets></workbook>')
        z.writestr(
            "xl/_rels/workbook.xml.rels",
            f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            f'<Relationships xmlns="{prns}">{"".join(rel_tags)}'
            f'</Relationships>')
        z.writestr(
            "[Content_Types].xml",
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<Types xmlns="http://schemas.openxmlformats.org/package/'
            '2006/content-types">'
            '<Default Extension="xml" ContentType="application/xml"/>'
            '</Types>')
    return buf.getvalue()


def make_pdf(lines: List[str], compress: bool = True) -> bytes:
    """Minimal valid one-page PDF whose content stream draws ``lines``
    one Tj per line with Td line moves; FlateDecode when ``compress``."""
    ops = ["BT", "/F1 12 Tf", "72 720 Td"]
    for i, line in enumerate(lines):
        esc = (line.replace("\\", r"\\").replace("(", r"\(")
               .replace(")", r"\)"))
        if i:
            ops.append("0 -14 Td")
        ops.append(f"({esc}) Tj")
    ops.append("ET")
    content = "\n".join(ops).encode("latin-1", "replace")
    filt = b""
    if compress:
        content = zlib.compress(content)
        filt = b" /Filter /FlateDecode"
    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>",
        b"<< /Length %d%s >>\nstream\n%s\nendstream"
        % (len(content), filt, content),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    out = BytesIO()
    out.write(b"%PDF-1.4\n")
    offsets = []
    for i, body in enumerate(objs, start=1):
        offsets.append(out.tell())
        out.write(b"%d 0 obj\n%s\nendobj\n" % (i, body))
    xref = out.tell()
    out.write(b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1))
    for off in offsets:
        out.write(b"%010d 00000 n \n" % off)
    out.write(b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n"
              b"%%%%EOF\n" % (len(objs) + 1, xref))
    return out.getvalue()
