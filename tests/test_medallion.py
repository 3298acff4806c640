"""Bronze → silver → gold medallion pipeline on the audit-log fixtures
(reference EP1-EP3, SURVEY.md §3)."""

import json
import os

import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg, synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.ocsf import GoldTransform, flows
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import builder
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import (
    GOLD_TABLES,
    SOURCES,
    Medallion,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.sources.jsonl import ingest_jsonl


@pytest.fixture(scope="module")
def medallion(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("medallion")
    fixtures = str(root / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=125)
    m = Medallion(str(root / "tables"), cfg.test_config())
    m.run_all(fixtures, use_actor_gold=True)
    return m, fixtures


def test_bronze_shape_and_metadata(medallion):
    m, _ = medallion
    for src in ("github", "slack", "atlassian"):
        t = m.table(f"bronze_{src}_audit_logs")
        got = t.read_arrow()
        assert got.num_rows == 125
        names = got.schema.names
        assert names[:7] == [
            "_event_time", "_event_date", "_file_path", "_source",
            "_source_type", "_ingest_time", "_hostname",
        ]
        assert names[-1] == "data"  # raw variant LAST
        assert got["_event_time"].null_count == 0
        assert set(got["_source"].to_pylist()) == {src}
        # _file_path populated from the reader (S2)
        assert all(p and p.endswith(".jsonl") for p in got["_file_path"].to_pylist())


def test_bronze_ingest_is_incremental(medallion):
    m, fixtures = medallion
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.meta import BronzeMeta

    t = m.table("bronze_github_audit_logs")
    [(sid, new)] = ingest_jsonl([(t, f"{fixtures}/github", BronzeMeta("github"))])
    assert sid is None and new == []  # exactly-once: nothing new to consume


@pytest.mark.parametrize("layer", ["bronze", "silver"])
def test_bronze_ingest_exactly_once_survives_lineage_loss(medallion, layer):
    """Crash window between commit and lineage write: the consumed-file set
    must come from the SNAPSHOT metadata (atomic with the commit), so even
    with the lineage log gone nothing is re-ingested as duplicates — for
    JSONL ingest into bronze and for the bronze → silver flow alike."""
    import shutil as _shutil

    m, fixtures = medallion
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.meta import BronzeMeta
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage

    t = m.table(f"{layer}_slack_audit_logs")
    if layer == "bronze":
        op = "flow-ingest-slack"

        def rerun():
            return ingest_jsonl([(t, f"{fixtures}/slack", BronzeMeta("slack"))])[0]
    else:
        op = "flow-silver-slack"

        def rerun():
            return m.run_silver()["slack"], []
    before = lineage.consumed_inputs(t.dir, [op])[op]
    assert before  # consumed during fixture setup
    # simulate the lineage record never landing
    _shutil.rmtree(f"{t.dir}/_lineage", ignore_errors=True)
    after = lineage.consumed_inputs(t.dir, [op])[op]
    assert after == before  # recovered from snapshot extra metadata
    sid, new = rerun()
    assert sid is None and new == []


def test_silver_typed_extraction(medallion):
    m, _ = medallion
    t = m.table("silver_github_audit_logs")
    got = t.read_arrow()
    assert got.num_rows == 125
    assert got["action"].null_count == 0
    assert got["created_at_ms"].type == "int64"
    assert got["hook_id"].type == "int32"
    # null-on-missing semantics: optional field has some nulls, some values
    emails = got["email"].to_pylist()
    assert any(e is None for e in emails) and any(e for e in emails)
    # extraction agrees with raw JSON (try_variant_get parity)
    raw = [json.loads(s) for s in got["data"].to_pylist()]
    assert got["actor"].to_pylist() == [d.get("actor") for d in raw]
    at = m.table("silver_atlassian_audit_logs").read_arrow()
    # array-index path '$.attributes.container[0].id'
    assert at["container_id"].null_count < at.num_rows
    assert at["risk_score"].type == "int32"


def test_gold_routing_and_nested_shape(medallion):
    m, _ = medallion
    total = 0
    for cls, name in GOLD_TABLES.items():
        t = m.table(name)
        got = t.read_arrow()
        total += got.num_rows
        if got.num_rows == 0:
            continue
        assert set(got["class_uid"].to_pylist()) == {
            {"account_change": 3001, "authentication": 3002, "authorize_session": 3003,
             "entity_management": 3004, "user_access": 3005, "group_management": 3006}[cls]
        }
        md = got["metadata"].to_pylist()[0]
        assert md["version"] == "1.7.0"
        assert md["profiles"] == ["cloud", "datetime"]
        assert "@audit_logs__1.0" in md["log_version"]
        row0 = got.to_pylist()[0]
        # actor user type_id ∈ {1 User, 3 System/Service} per the reference
        # CASE chains (gold_slack_audit_logs.py:88, gold_atlassian:80)
        assert row0["actor"]["user"]["type_id"] in (1, 3)
        # per-source observables are 2 or 3 items; enrichments end with the
        # 'source' source_system item in every one of the 15 transforms
        assert len(row0["observables"]) in (2, 3)
        assert row0["enrichments"][-1]["name"] == "source"
        assert row0["enrichments"][-1]["type"] == "source_system"
        assert json.loads(row0["unmapped"]["raw_data"])  # to_json(data) analog
        # multi-source sinks discriminate via _source (README.md:41 analog)
        assert set(got["_source"].to_pylist()) <= {"github", "slack", "atlassian"}
    assert total > 0


def test_gold_per_class_shapes(medallion):
    """Per-class structural fidelity vs the reference projections: class-
    specific columns exist exactly where the reference defines them
    (resource/privileges gold_github_audit_logs.py:210-217, group :336,
    dst_endpoint :155, entity_management resource gold_atlassian:334-350)."""
    m, _ = medallion
    by_cls = {cls: m.table(name).read_arrow() for cls, name in GOLD_TABLES.items()}

    auth = by_cls["authentication"]
    for col in ("src_endpoint", "auth_protocol", "auth_protocol_id", "dst_endpoint"):
        assert col in auth.schema.names
    assert "message" not in auth.schema.names and "user" not in auth.schema.names
    dst = {r["hostname"] for r in auth["dst_endpoint"].to_pylist()}
    assert dst <= {"github.com", "atlassian.com"} | {d for d in dst if d.endswith(".slack.com")}

    authz = by_cls["authorize_session"]
    for col in ("resource", "privileges", "user"):
        assert col in authz.schema.names
    gh = authz.filter(pc.equal(authz["_source"], "github"))
    if gh.num_rows:
        r0 = gh.to_pylist()[0]
        assert r0["resource"]["type"] in ("Repository", "Organization")
        assert set(dict(r0["resource"]["data"])) == {"ref", "visibility"}

    grp = by_cls["group_management"]
    assert "group" in grp.schema.names
    sl = grp.filter(pc.equal(grp["_source"], "slack"))
    if sl.num_rows:
        g0 = sl["group"].to_pylist()[0]
        assert g0 is None or g0["type"] in ("channel", "usergroup")
        assert all(r is None for r in sl["user"].to_pylist())  # :392 typed NULL

    ent = by_cls["entity_management"]
    if ent.num_rows:
        assert set(ent["_source"].to_pylist()) == {"atlassian"}  # only source
        r0 = ent.to_pylist()[0]
        assert r0["resource"]["name"] in ("Workspace", "Project", "Webhook", "Entity")

    ua = by_cls["user_access"]
    if ua.num_rows:
        assert "privileges" in ua.schema.names
        for r in ua.filter(pc.equal(ua["_source"], "slack"))["privileges"].to_pylist():
            assert r == ["access"]  # gold_slack_audit_logs.py:309

    acc = by_cls["account_change"]
    assert "message" in acc.schema.names
    at = acc.filter(pc.equal(acc["_source"], "atlassian"))
    if at.num_rows:
        e = at["enrichments"].to_pylist()[0]
        assert [x["name"] for x in e] == ["auth_type", "risk_assessment", "source"]
        assert "score" in dict(e[1]["data"])  # risk map gold_atlassian:93


def test_gold_reference_case_chains():
    """severity/activity/status chains match the reference VALUES for known
    actions (transcribed from gold_*_audit_logs.py; cited per transform)."""
    import pyarrow as pa_

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.meta import BronzeMeta
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.variant import SilverExtract

    def gold(src, cls, doc):
        raw = pa_.table({"text": pa_.array([json.dumps(doc)]), "path": pa_.array(["f"])})
        silver = SilverExtract(src)(BronzeMeta(src)(raw))
        out = GoldTransform(src, cls)(silver)
        assert out.num_rows == 1, (src, cls, doc)
        return out.to_pylist()[0]

    gh = {"id": "g", "created_at": 1700000000000, "actor": "a", "org": "o", "data": {}}
    # authorize_session severity Medium/Low + activity Add/Remove 5/6
    # (gold_github_audit_logs.py:202-205) — NOT the generic Create/Update/
    # Delete chain
    r = gold("github", "authorize_session", dict(gh, action="repo.remove_member"))
    assert (r["severity_id"], r["severity"], r["activity_id"], r["activity_name"]) == (
        3, "Medium", 6, "Remove")
    r = gold("github", "group_management", dict(gh, action="team.create"))
    assert (r["severity_id"], r["activity_id"], r["activity_name"]) == (2, 1, "Create")
    r = gold("github", "authentication", dict(gh, action="user.logout"))
    assert (r["activity_id"], r["activity_name"], r["auth_protocol_id"]) == (2, "Logoff", 1)
    r = gold("github", "user_access", dict(gh, action="org.update_member"))
    assert (r["activity_id"], r["activity_name"], r["privileges"]) == (3, "Update", ["member"])

    sl = {"id": "s", "date_create": 1700000000, "actor": {"type": "user",
          "user": {"id": "U", "name": "n", "email": "e"}},
          "entity": {"type": "user", "id": "E", "name": "en"},
          "context": {"location": {"domain": "d"}, "ip_address": "1.1.1.1"}}
    r = gold("slack", "account_change", dict(sl, action="user_deactivated"))
    # gold_slack_audit_logs.py:55-67: deactivated → sev 4 High, act 4 Delete
    assert (r["severity_id"], r["severity"], r["activity_id"]) == (4, "High", 4)
    assert r["message"] == "Slack user account deactivated for user en"
    r = gold("slack", "authorize_session", dict(sl, action="workspace_sso_enabled"))
    assert (r["severity_id"], r["severity"], r["activity_id"]) == (3, "Medium", 1)

    at = {"id": "a", "attributes": {"time": "2025-01-05T10:00:00Z",
          "actor": {"id": "A", "name": "n", "email": "e", "links": {"self": "L"},
                    "auth": {"authType": "password", "sessionId": "s"}},
          "location": {"ip": "1.1.1.1"}}, "risk": {"score": 75, "level": "low"}}
    def at_act(action):
        d = json.loads(json.dumps(at)); d["attributes"]["action"] = action
        return d
    # risk_score >= 70 dominates (gold_atlassian_audit_logs.py:57-62)
    r = gold("atlassian", "account_change", at_act("user.updated"))
    assert (r["severity_id"], r["severity"], r["activity_id"]) == (4, "High", 3)
    r = gold("atlassian", "authorize_session", at_act("permission.granted"))
    # :233-243 — ELSE 2 baseline, granted → act 5 Add; score 75 → sev 4
    assert (r["severity_id"], r["activity_id"], r["activity_name"]) == (4, 5, "Add")
    r = gold("atlassian", "entity_management", at_act("project.created"))
    assert (r["severity_id"], r["activity_id"]) == (4, 1)  # score 75 wins
    assert r["resource"]["name"] == "Project"
    r = gold("atlassian", "group_management", at_act("group.member_removed"))
    assert (r["severity_id"], r["activity_id"], r["activity_name"]) == (1, 6, "Remove")
    assert r["user"] is None  # :425 typed NULL struct


#: (rows, sha256[:16] of str(schema), sha256[:16] of the rows as JSON) per
#: flow for ``synth.audit_events(src, 125)`` (actor fields varied) with
#: ``_ingest_time`` pinned.
#: Recorded before the projection became spec-driven; a change to any name,
#: message, observable, enrichment, unmapped field or column order moves it.
_GOLD_PINNED = {
    ("atlassian", "account_change"): (26, "056723e9a4474ab8", "bf1b00773d1f9aa7"),
    ("atlassian", "authentication"): (15, "16118252ee7e1806", "1c577b6496dba09e"),
    ("atlassian", "authorize_session"): (15, "7167834f3dccb1f2", "40030445a296151f"),
    ("atlassian", "entity_management"): (14, "3536c954c381b1bd", "939f52c08bc12759"),
    ("atlassian", "group_management"): (20, "486d17304e07a2c4", "f38678c9f8dcd682"),
    ("github", "account_change"): (15, "056723e9a4474ab8", "85e2d7d5f0d7d5c0"),
    ("github", "authentication"): (30, "16118252ee7e1806", "0746b947c535a85d"),
    ("github", "authorize_session"): (18, "7167834f3dccb1f2", "c7b4c3caa0628deb"),
    ("github", "group_management"): (14, "486d17304e07a2c4", "0153293dc42ae60a"),
    ("github", "user_access"): (1, "1dda28a11716a2d2", "c5d85b14f3b233ff"),
    ("slack", "account_change"): (20, "056723e9a4474ab8", "0eba37330b1d6771"),
    ("slack", "authentication"): (16, "16118252ee7e1806", "13f5adc9adfe2474"),
    ("slack", "authorize_session"): (6, "7167834f3dccb1f2", "7fb28ba312ca99a2"),
    ("slack", "group_management"): (36, "486d17304e07a2c4", "28dac0dcebd47113"),
    ("slack", "user_access"): (14, "1dda28a11716a2d2", "1ceaad013bab6397"),
}


def test_gold_projection_pinned():
    """The whole gold output of every flow — schema (field order included)
    and every value — equals the recorded projection, in-process."""
    import datetime
    import hashlib

    import pyarrow as pa_

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.meta import BronzeMeta
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.ocsf import class_schema
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.variant import SilverExtract

    def sha(s):
        return hashlib.sha256(s.encode()).hexdigest()[:16]

    def vary(src, i, line):
        # synth writes only user actors and no 'api-token'/sso auth types:
        # vary them so the actor type and auth protocol CASEs both fire
        doc = json.loads(line)
        if src == "slack":
            doc["actor"]["type"] = ["user", "bot", "service"][i % 3]
        if src == "atlassian":
            doc["attributes"]["actor"]["auth"]["authType"] = ["password", "api-token", "sso-okta"][i % 3]
        return json.dumps(doc)

    assert sorted(_GOLD_PINNED) == flows()
    got = {}
    for src, cls in flows():
        lines = [vary(src, i, ln) for i, ln in enumerate(synth.audit_events(src, 125))]
        raw = pa_.table({"text": pa_.array(lines), "path": pa_.array(["f"] * len(lines))})
        silver = SilverExtract(src)(BronzeMeta(src)(raw))
        i = silver.schema.get_field_index("_ingest_time")  # wall clock: pin it
        pinned = pa_.array([datetime.datetime(2025, 1, 1)] * silver.num_rows,
                           silver.schema.field(i).type)
        silver = silver.set_column(i, "_ingest_time", pinned)
        out = GoldTransform(src, cls)(silver)
        assert out.num_rows >= 1, (src, cls)  # premise: every flow routes rows
        assert out.schema.equals(class_schema(cls)), (src, cls)
        got[(src, cls)] = (
            out.num_rows, sha(str(out.schema)), sha(json.dumps(out.to_pylist(), default=str))
        )
    assert got == _GOLD_PINNED


def test_gold_regex_routing_matches_reference_semantics(medallion):
    """Every routed row's action matches the class regex; rows matching no
    regex appear in no gold table."""
    import re

    m, _ = medallion
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.ocsf import CLASS_REGEX

    for cls, name in GOLD_TABLES.items():
        got = m.table(name).read_arrow()
        if got.num_rows == 0:
            continue
        for src in set(got["_source"].to_pylist()):
            rx = re.compile(CLASS_REGEX[(src, cls)])
            sub = got.filter(pc.equal(got["_source"], src))
            actions = [m_["event_code"] for m_ in sub["metadata"].to_pylist()]
            assert all(rx.search(a) for a in actions)


def test_gold_authentication_extras(medallion):
    m, _ = medallion
    got = m.table(GOLD_TABLES["authentication"]).read_arrow()
    if got.num_rows:
        assert "src_endpoint" in got.schema.names
        assert "auth_protocol_id" in got.schema.names
        se = got["src_endpoint"].to_pylist()[0]
        assert "location" in se and "ip" in se


def test_gold_incremental_noop(medallion):
    m, _ = medallion
    out = m.run_gold()
    assert all(v is None for v in out.values())  # nothing new upstream


def test_fifteen_flows_registered():
    assert len(flows()) == 15
    GoldTransform("github", "account_change")  # constructs + compiles


def _silver_ready(root, n_per_source):
    fixtures = str(root / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=n_per_source, wave="w1", start=0)
    m = Medallion(str(root / "tables"), cfg.test_config())
    m.setup()
    m.run_bronze(fixtures)
    m.run_silver()
    return m, fixtures


def _gold_counts(m):
    """{(sink, _source): rows} over the six gold sinks."""
    out = {}
    for name in GOLD_TABLES.values():
        got = m.table(name).read_arrow(columns=["_source"])
        for src in set(got["_source"].to_pylist()):
            out[(name, src)] = got.filter(pc.equal(got["_source"], src)).num_rows
    return out


def test_gold_reads_each_silver_table_once(tmp_path, ray_session, monkeypatch):
    """One gold run is ONE runner call for all 15 flows, and its plan puts
    each new silver file in exactly one unit, every source's new files of
    one partition in the same unit."""
    m, _ = _silver_ready(tmp_path, 30)
    calls, plans = [], []
    real_run, real_plan = builder.run_flows, builder._plan

    def run(flows_, **kw):
        calls.append(sorted(f.tag for f in flows_))
        return real_run(flows_, **kw)

    def plan(flows_):
        out = real_plan(flows_)
        plans.append(out[0])
        return out

    monkeypatch.setattr(builder, "run_flows", run)
    monkeypatch.setattr(builder, "_plan", plan)
    out = m.run_gold(use_actor=False)
    assert all(v is not None for v in out.values())
    assert calls == [sorted(f"gold-{src}-{cls}" for src, cls in flows())]
    units = [json.loads(u["inputs"]) for u in plans[0]]
    silver = [p for src in SOURCES for p in m.table(f"silver_{src}_audit_logs").live_files()]
    assert sorted(p for u in units for p in u) == sorted(silver)
    unit_of: dict[str, set[int]] = {}
    for i, u in enumerate(units):
        for p in u:
            unit_of.setdefault(p.split("/data/")[1].split("/")[0], set()).add(i)
    assert len(unit_of) > 1 and all(len(v) == 1 for v in unit_of.values())


def test_gold_writes_one_file_per_sink_partition(tmp_path, ray_session, monkeypatch):
    """One gold run writes exactly one file per (sink, partition) present
    in its rows, and makes exactly one commit per sink, whose extras name
    the consumed inputs of every flow into that sink."""
    import pyarrow as pa_

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    m, _ = _silver_ready(tmp_path, 40)
    commits = []
    real = Table.commit

    def recording(self, **kw):
        commits.append((self.dir, kw))
        return real(self, **kw)

    monkeypatch.setattr(Table, "commit", recording)
    m.run_gold(use_actor=False)
    monkeypatch.undo()
    sinks = {m.table(name).dir: cls for cls, name in GOLD_TABLES.items()}
    assert sorted(d for d, _ in commits) == sorted(sinks)
    silver = {src: m.table(f"silver_{src}_audit_logs").live_files() for src in SOURCES}
    for d, kw in commits:
        cls = sinks[d]
        t = Table(d)
        dates = t.read_arrow(columns=["_event_date"])["_event_date"].cast(pa_.string())
        want = sorted(f"_event_date-{v}" for v in pc.unique(dates).to_pylist())
        assert sorted(t.entries()["partition"].to_pylist()) == want, cls
        consumed = json.loads(kw["extra"][lineage.INPUTS_EXTRA])
        mine = [src for src, c in flows() if c == cls]
        assert consumed == {f"flow-gold-{src}-{cls}": sorted(silver[src]) for src in mine}


@pytest.mark.parametrize("k", [1, 4])
def test_gold_crash_between_sink_commits_resumes_exactly_once(
    tmp_path, ray_session, monkeypatch, k
):
    """A crash after the k-th of a run's 6 sink commits leaves some flows
    of a silver table committed and the rest not. A second wave lands
    before the resume, so the committed flows see only its files and the
    others see both waves: the resume gives each flow its own file set and
    the sinks end up equal to a clean run, nothing lost or doubled."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    m, fixtures = _silver_ready(tmp_path / "crash", 40)
    real = Table.commit
    calls = []

    def crashing(self, **kw):
        calls.append(kw["operation"])
        if len(calls) > k:
            raise RuntimeError("injected crash")
        return real(self, **kw)

    monkeypatch.setattr(Table, "commit", crashing)
    with pytest.raises(RuntimeError, match="injected crash"):
        m.run_gold(use_actor=False)
    monkeypatch.undo()
    assert len(calls) == k + 1

    synth.write_audit_fixture(fixtures, n_per_source=20, wave="w2", start=1000)
    m.run_bronze(fixtures)
    m.run_silver()
    assert all(v is not None for v in m.run_gold(use_actor=False).values())
    assert all(v is None for v in m.run_gold(use_actor=False).values())

    clean = Medallion(str(tmp_path / "clean" / "tables"), cfg.test_config())
    clean.run_all(fixtures, use_actor_gold=False)
    assert _gold_counts(m) == _gold_counts(clean)


def test_gold_parallel_file_protocol_matches_actor_path(tmp_path_factory, ray_session):
    """Gold through the flock'd FILE-based optimistic commit protocol
    (use_actor=False) and through the sinks' metastore actors converges to
    the same counts. Racing commits to one table are covered by
    test_concurrency.py::test_concurrent_file_based_commits_do_not_lose_appends."""
    root = tmp_path_factory.mktemp("medallion_par")
    fixtures = str(root / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=60)
    m = Medallion(str(root / "a"), cfg.test_config())
    m.setup()
    m.run_bronze(fixtures)
    m.run_silver()
    m.run_gold(use_actor=False)
    m2 = Medallion(str(root / "b"), cfg.test_config())
    m2.setup()
    m2.run_bronze(fixtures)
    m2.run_silver()
    m2.run_gold(use_actor=True)
    for cls, name in GOLD_TABLES.items():
        a = m.table(name).read_arrow(columns=["class_uid"]).num_rows
        b = m2.table(name).read_arrow(columns=["class_uid"]).num_rows
        assert a == b, cls


def test_summary_query(medallion):
    m, _ = medallion
    s = m.summary()
    assert s.num_rows > 0
    assert s.schema.names == ["_source", "class_name", "n_events"]
    assert int(pc.sum(s["n_events"]).as_py()) > 0


def _write_github_jsonl(root, files: dict[str, str]) -> str:
    """Write ``{name: text}`` as UTF-8 files under root/github, byte for
    byte (no newline translation); returns the fixture root."""
    d = os.path.join(root, "github")
    os.makedirs(d, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(d, name), "wb") as f:
            f.write(text.encode("utf-8"))
    return str(root)


def _github_docs(n):
    return [json.loads(line) for line in synth.audit_events("github", n)]


def _bronze_rows(m, root):
    """The github bronze rows without ``_ingest_time`` (wall clock), file
    paths relative to the fixture root, sorted."""
    got = m.table("bronze_github_audit_logs").read_arrow().drop_columns(["_ingest_time"])
    rows = [dict(r, _file_path=os.path.relpath(r["_file_path"], root)) for r in got.to_pylist()]
    return sorted(rows, key=lambda r: json.dumps(r, sort_keys=True, default=str))


#: (rows, sha256[:16] of the rows as JSON) of ``_bronze_rows`` over the
#: edge-case fixture below, recorded through ``ray.data.read_text``.
_BRONZE_EDGE_PINNED = (12, "a441c374d67c241b")


def test_bronze_reader_matches_read_text(tmp_path, ray_session):
    """Blank and whitespace-only lines, CRLF endings, a file without a
    trailing newline, a file of blank lines only, trailing spaces and raw
    non-ASCII text give the bronze rows ``ray.data.read_text`` gave."""
    import hashlib

    docs = _github_docs(12)
    docs[1]["actor"] = "José Ñúñez"
    docs[4]["org"] = "日本語チーム"
    docs[7]["repo"] = "org/répo-\U0001f680"
    raw = [json.dumps(d, ensure_ascii=False) for d in docs]
    root = _write_github_jsonl(
        tmp_path / "raw",
        {
            "a.jsonl": "\n".join(raw[0:4]) + "\n\n",
            "b.jsonl": "\r\n".join(raw[4:8]) + "\r\n",
            "c.jsonl": raw[8] + "\n \t \n\n" + raw[9] + "  \n" + "\n".join(raw[10:12]),
            "d.jsonl": " \r\n\n",
        },
    )
    m = Medallion(str(tmp_path / "tables"), cfg.test_config())
    m.setup()
    m.run_bronze(root)
    rows = _bronze_rows(m, root)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True, default=str).encode()).hexdigest()
    assert (len(rows), digest[:16]) == _BRONZE_EDGE_PINNED


def test_bronze_keeps_raw_line_separators_inside_records(tmp_path, ray_session):
    """JSON allows raw U+2028, U+2029 and U+0085 inside strings: each
    record stays one bronze row and every ``data`` value parses."""
    docs = _github_docs(4)
    docs[0]["action"] = "repo.create\u2028x"
    docs[2]["actor"] = "a\u0085b"
    docs[3]["org"] = "o\u2029p"
    raw = [json.dumps(d, ensure_ascii=False) for d in docs]
    root = _write_github_jsonl(tmp_path / "raw", {"a.jsonl": "\n".join(raw) + "\n"})
    m = Medallion(str(tmp_path / "tables"), cfg.test_config())
    m.setup()
    m.run_bronze(root)
    got = m.table("bronze_github_audit_logs").read_arrow()
    assert got.num_rows == 4
    assert got["_event_time"].null_count == 0
    assert sorted(json.loads(s)["id"] for s in got["data"].to_pylist()) == [d["id"] for d in docs]
    assert sorted(got["data"].to_pylist()) == sorted(raw)


def _layer_counts(m):
    counts = {name: m.table(name).read_arrow(columns=["_source"]).num_rows
              for src in SOURCES for name in (f"bronze_{src}_audit_logs", f"silver_{src}_audit_logs")}
    return counts, _gold_counts(m)


@pytest.mark.parametrize("layer", ["bronze", "silver"])
def test_layer_crash_between_sink_commits_resumes_exactly_once(
    tmp_path, ray_session, monkeypatch, layer
):
    """A crash after the first of a layer's 3 sink commits leaves one
    source's sink committed and the others not. A second wave lands before
    the whole medallion resumes: every layer ends up equal to a clean run,
    nothing lost or doubled."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    fixtures = str(tmp_path / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=40, wave="w1", start=0)
    m = Medallion(str(tmp_path / "crash" / "tables"), cfg.test_config())
    m.setup()
    if layer == "silver":
        m.run_bronze(fixtures)
    real = Table.commit
    calls = []

    def crashing(self, **kw):
        calls.append(kw["operation"])
        if len(calls) > 1:
            raise RuntimeError("injected crash")
        return real(self, **kw)

    monkeypatch.setattr(Table, "commit", crashing)
    with pytest.raises(RuntimeError, match="injected crash"):
        m.run_bronze(fixtures) if layer == "bronze" else m.run_silver()
    monkeypatch.undo()
    assert len(calls) >= 2

    synth.write_audit_fixture(fixtures, n_per_source=20, wave="w2", start=1000)
    m.run_all(fixtures, use_actor_gold=False)
    clean = Medallion(str(tmp_path / "clean" / "tables"), cfg.test_config())
    clean.run_all(fixtures, use_actor_gold=False)
    assert _layer_counts(m) == _layer_counts(clean)
    assert all(n == 60 for n in _layer_counts(m)[0].values())


def test_wave_is_one_job_per_layer_and_one_ledger_file_per_commit(
    tmp_path, ray_session, monkeypatch
):
    """Bronze, silver and gold each run as exactly one Ray Data job, and
    each sink commit mirrors its input ledger into one lineage log file."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage

    fixtures = str(tmp_path / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=30)
    m = Medallion(str(tmp_path / "tables"), cfg.test_config())
    m.setup()
    jobs = []
    real = rewrite.ray_map_units

    def counting(*a, **kw):
        jobs.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(rewrite, "ray_map_units", counting)
    for layer, run in (
        ("bronze", lambda: m.run_bronze(fixtures)),
        ("silver", m.run_silver),
        ("gold", lambda: m.run_gold(use_actor=False)),
    ):
        before = len(jobs)
        run()
        assert len(jobs) - before == 1, layer
    names = [f"{layer}_{src}_audit_logs" for layer in ("bronze", "silver") for src in SOURCES]
    for name in names + list(GOLD_TABLES.values()):
        t = m.table(name)
        log = os.path.join(t.dir, lineage.LINEAGE_DIR, "log")
        logged = os.listdir(log) if os.path.isdir(log) else []
        commits = [h for h in t.history() if h["snapshot_id"] > 0]
        assert len(logged) == len(commits), name
