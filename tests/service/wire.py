"""Raw result responses, fetched and parsed without ``ServiceClient``."""

import json
import urllib.request

from repro.explore.columnar import ResultTable
from repro.service.server import NDJSON_CONTENT_TYPE
from repro.study import Record


def fetch(url: str, payload: dict | None = None, accept: str | None = None):
    """(Content-Type, body) of one GET, or POST when ``payload`` is given."""
    headers = {}
    body = None
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if accept is not None:
        headers["Accept"] = accept
    request = urllib.request.Request(url, data=body, headers=headers)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.headers["Content-Type"], response.read()


def _table(records: list[dict]) -> ResultTable:
    return ResultTable.from_records([Record.from_dict(r) for r in records])


def json_result(body: bytes) -> tuple[dict, ResultTable]:
    """The header and table of a plain JSON result body."""
    payload = json.loads(body)
    records = payload.pop("records")
    return payload, _table(records)


def ndjson_result(body: bytes) -> tuple[dict, ResultTable]:
    """The header and table of an NDJSON result body."""
    lines = [json.loads(line) for line in body.splitlines() if line]
    assert lines[0].pop("kind") == "header"
    assert all(line.pop("kind") == "record" for line in lines[1:])
    return lines[0], _table(lines[1:])


def text_results(url: str, payload: dict | None = None):
    """(JSON, NDJSON) of one result request: each a (header, table) pair."""
    return (
        json_result(fetch(url, payload)[1]),
        ndjson_result(fetch(url, payload, accept=NDJSON_CONTENT_TYPE)[1]),
    )
