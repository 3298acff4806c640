"""Bronze metadata projection (operator M1, ×3 sources).

Mirror of the reference's ``META_COLS`` + ordered select
(/root/reference/transformations/pipelines/github/audit_logs/
bronze_github_audit_logs.py:19-27,52-63 and the slack/atlassian twins):
adds ``_event_time,_event_date,_source,_source_type,_ingest_time,_hostname,
_file_path`` in front of the raw variant column. Event time parsing differs
per source: github epoch-ms ``$.created_at`` (bronze_github_audit_logs.py:20),
slack epoch-s ``$.date_create`` (bronze_slack_audit_logs.py:20), atlassian
ISO-8601 ``$.attributes.time`` (bronze_atlassian_audit_logs.py:20).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .. import expr
from ..schema import BRONZE

SOURCE_TYPE = "audit_logs"  # reference utilities/utils.py:68

TIME_SPECS = {
    # source: (json path, raw type, converter)
    "github": ("$.created_at", "BIGINT", expr.from_unixtime_ms),
    "slack": ("$.date_create", "BIGINT", expr.from_unixtime_s),
    "atlassian": ("$.attributes.time", "STRING", expr.to_timestamp_iso),
}

HOSTNAME_PATHS = {
    # _hostname = COALESCE(ip-ish field, 'unknown') (bronze_github_audit_logs.py:25)
    "github": "$.actor_location.ip",
    "slack": "$.context.ip_address",
    "atlassian": "$.attributes.location.ip",
}


class BronzeMeta:
    """Append-flow transform of ``sources.jsonl.read_lines`` rows
    (``text``: one raw JSON line, ``path``: its source file) → BRONZE rows;
    the runner calls it once per unit, inside the unit's Ray Data task."""

    def __init__(self, source: str):
        tp, tt, conv = TIME_SPECS[source]
        self.source = source
        self.conv = conv
        self.extract = expr.VariantExtractor(
            [("_raw_time", tp, tt), ("_hostname", HOSTNAME_PATHS[source], "STRING")]
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        data = batch["text"]
        n = batch.num_rows
        got = self.extract(data.combine_chunks() if isinstance(data, pa.ChunkedArray) else data)
        event_time = self.conv(got["_raw_time"])
        return pa.table(
            {
                "_event_time": event_time,
                "_event_date": expr.to_date(event_time),
                "_file_path": pc.cast(batch["path"], pa.string()),
                "_source": expr.lit(self.source, n, pa.string()),
                "_source_type": expr.lit(SOURCE_TYPE, n, pa.string()),
                "_ingest_time": expr.current_timestamp(n),
                "_hostname": pc.coalesce(got["_hostname"], pa.scalar("unknown")),
                "data": pc.cast(data, pa.string()),
            },
            schema=BRONZE,
        )
