"""Gold OCSF transforms (operators M3+M4): 15 (source, class) flows over
3 sources × 6 classes, run by ONE generic projection.

Re-expression of the reference's 15 ``transform_<source>_to_<class>``
functions (reference transformations/mappings/ocsf/iam/
gold_github_audit_logs.py, gold_slack_audit_logs.py,
gold_atlassian_audit_logs.py; file:line cited at each site below). Each
transform is ONE fused map_batches callable: the action-regex row filter (M3
— regexes copied verbatim from the reference ``.where("action RLIKE ...")``
lines) plus the wide nested OCSF projection (M4) built with the vectorized
builders in expr.py.

Every fact the 15 reference functions share is stated once here:

- the head: passthrough meta, the ``metadata`` struct, category/class
  constants and ``time``;
- names from ids: ``severity`` from ``SEVERITY``, ``activity_name`` from the
  class's ``activity_names`` table (any other id is "Other");
- ``status``: a flow's status kind is ``failed`` ('%failed%' → 2) or
  ``const`` (1), and ``status`` is "Failure" iff ``status_id = 2``;
- per source (``_SOURCES``): the ``actor`` columns and the context
  enrichments before the closing 'source' item; ``actor`` takes the source's
  type CASE except in authentication, which uses the plain 'User'/1;
- per flow (``_Flow``, registered by ``@_flow``): its status kind, its
  observables as (name, type, value column) rows with ``type_id`` from
  ``OBSERVABLE_TYPE_IDS``, its ``unmapped`` fields (``raw_data`` always
  last) and, for atlassian, its enrichment parameters.

What truly differs per flow stays code: one small function per flow returns
its severity and activity CASE chains plus its own structs (``message``,
``user``, ``resource``, ``privileges``, ``group``, ``src_endpoint``,
``dst_endpoint``, ``auth_protocol*``).

Because the 6 sinks are multi-source (mergeSchema sinks,
gold_ocsf_iam_event_classes_delta_sinks.py:94-124) and the per-source
projections for one class differ, every transform aligns its output to the
per-class UNION schema (``class_schema``) with ``table.align_to`` — which is
exactly the table shape Delta mergeSchema converges to.

Constants (uids 3001-3006, category 3, OCSF 1.7.0) from
/root/reference/utilities/utils.py:70-81.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from .. import expr
from ..table import align_to

OCSF_VERSION = "1.7.0"
OCSF_CATEGORY_UID = 3
OCSF_CATEGORY_NAME = "Identity & Access Management"

OCSF_CLASS_UIDS = {
    "account_change": 3001,
    "authentication": 3002,
    "authorize_session": 3003,
    "entity_management": 3004,
    "user_access": 3005,
    "group_management": 3006,
}
CLASS_NAMES = {
    "account_change": "Account Change",
    "authentication": "Authentication",
    "authorize_session": "Authorize Session",
    "entity_management": "Entity Management",
    "user_access": "User Access",
    "group_management": "Group Management",
}

PRODUCTS = {
    # gold_github_audit_logs.py:40 / gold_slack_audit_logs.py:40 /
    # gold_atlassian_audit_logs.py:42
    "github": ("GitHub", "GitHub Inc."),
    "slack": ("Slack", "Slack Technologies"),
    "atlassian": ("Atlassian", "Atlassian"),
}

#: metadata.original_time source column (cast to string for the epoch ones):
#: gold_github_audit_logs.py:49, gold_slack_audit_logs.py:49,
#: gold_atlassian_audit_logs.py:51
ORIGINAL_TIME_COL = {
    "github": "created_at_ms",
    "slack": "date_create_ts",
    "atlassian": "event_time_iso",
}

#: action RLIKE regex per (source, class) — copied VERBATIM from the
#: reference .where() lines (file:line in comments).
CLASS_REGEX = {
    # gold_github_audit_logs.py:30,110,177,240,297
    ("github", "account_change"): r"org\.(add_member|remove_member|update_member)",
    ("github", "authentication"): r"user\.(login|logout)|oauth_authorization\.(create|destroy)",
    ("github", "authorize_session"): r"repo\.(add_member|remove_member|update_member)|protected_branch\.(create|destroy)",
    ("github", "user_access"): r"org\.(update_member|add_billing_manager)",
    ("github", "group_management"): r"team\.(add_member|remove_member|create|destroy)",
    # gold_slack_audit_logs.py:30,115,187,258,330
    ("slack", "account_change"): r"user_(created|deactivated|reactivated|role_changed|email_changed|permissions_assigned)",
    ("slack", "authentication"): r"user_(login|logout|login_failed)",
    ("slack", "authorize_session"): r"workspace_(setting_changed|sso_enabled|sso_disabled|created|name_changed|domain_changed)",
    ("slack", "user_access"): r"app_(installed|uninstalled|scopes_expanded)|guest_(invited|removed)",
    ("slack", "group_management"): r"channel_(created|deleted|archive|unarchive|rename|converted_to_private|posting_permissions_updated|member_joined)|usergroup_(created|member_added|member_removed)",
    # gold_atlassian_audit_logs.py:32,114,208,286,373
    ("atlassian", "account_change"): r"user\.(created|deleted|updated|deactivated|reactivated|2fa_enabled|2fa_disabled|password_reset)|api_key\.|token\.created",
    ("atlassian", "authentication"): r"user\.(login|login_failed|logout|session_ended)",
    ("atlassian", "authorize_session"): r"permission\.(granted|revoked)|role\.(assigned|removed)|organization\.(sso_enabled|sso_disabled|scim_enabled)",
    ("atlassian", "entity_management"): r"workspace\.(created|deleted)|project\.(created|deleted)|webhook\.",
    ("atlassian", "group_management"): r"group\.(member_added|member_removed|created|deleted)",
}

#: severity_id → severity: every reference severity CASE names its ids from
#: this OCSF table (e.g. gold_github_audit_logs.py:60, gold_atlassian:63,238)
SEVERITY = {1: "Informational", 2: "Low", 3: "Medium", 4: "High"}

#: observable type → type_id (gold_github_audit_logs.py:89-92 and twins)
OBSERVABLE_TYPE_IDS = {
    "User Name": 4,
    "IP Address": 2,
    "Email Address": 5,
    "Resource Name": 10,
    "Group Name": 21,
}


def activity_names(ocsf_class: str) -> dict[int, str]:
    """activity_id → activity_name for a class; any other id is "Other"
    (e.g. gold_github_audit_logs.py:67,138,205,331)."""
    if ocsf_class == "authentication":
        return {1: "Logon", 2: "Logoff"}
    return {1: "Create", 3: "Update", 4: "Delete", 5: "Add", 6: "Remove"}


def flows() -> list[tuple[str, str]]:
    """The 15 (source, class) append flows
    (gold_ocsf_iam_event_classes_delta_sinks.py:184-305)."""
    return sorted(CLASS_REGEX)


def _OR(*conds):
    """SQL 3-valued OR (Kleene) — NULL OR TRUE = TRUE."""
    out = conds[0]
    for c in conds[1:]:
        out = pc.or_kleene(out, c)
    return out


def _AND(*conds):
    out = conds[0]
    for c in conds[1:]:
        out = pc.and_kleene(out, c)
    return out


class _Ctx:
    """Column accessors over one filtered silver batch."""

    def __init__(self, batch: pa.Table):
        self.batch = batch
        self.n = batch.num_rows

    def a(self, name: str, typ: pa.DataType | None = None) -> pa.Array:
        """Raw typed column (nulls if the silver schema lacks it)."""
        if name in self.batch.schema.names:
            c = self.batch[name]
            c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            return pc.cast(c, typ) if typ is not None and c.type != typ else c
        return expr.nulls(self.n, typ or pa.string())

    def s(self, name: str | tuple[str, ...]) -> pa.Array:
        """String-cast column; a tuple of names is their COALESCE."""
        if isinstance(name, tuple):
            return pc.coalesce(*map(self.s, name))
        return self.a(name, pa.string())

    def lit(self, v, typ=None) -> pa.Array:
        return expr.lit(v, self.n, typ or pa.string())

    def nulls(self, typ) -> pa.Array:
        return expr.nulls(self.n, typ)

    @property
    def action(self) -> pa.Array:
        return self.s("action")

    def like(self, pattern: str) -> pa.Array:
        """``action LIKE pattern`` (SQL % / _ wildcards)."""
        return expr.sql_like(self.action, pattern)


# ---------------------------------------------------------------------------
# shared builders (identical text across the reference's 15 transforms)
# ---------------------------------------------------------------------------


def _metadata(c: _Ctx, source: str) -> pa.StructArray:
    """metadata struct (gold_github_audit_logs.py:38-50 and twins):
    log_version = '<source>@<type>__1.0' is the selective-deletion hook."""
    prod_name, prod_vendor = PRODUCTS[source]
    return expr.named_struct(
        {
            "version": c.lit(OCSF_VERSION),
            "product": expr.named_struct(
                {"name": c.lit(prod_name), "vendor_name": c.lit(prod_vendor)}
            ),
            "profiles": expr.string_array_literal(["cloud", "datetime"], c.n),
            "uid": c.s("event_id"),
            "event_code": c.action,
            "log_format": c.lit("JSON"),
            "log_name": c.lit("audit_logs"),
            "log_provider": c.s("_source"),
            "log_version": expr.concat(c.s("_source"), "@", c.s("_source_type"), "__1.0"),
            "logged_time": c.a("_ingest_time", pa.timestamp("us")),
            "original_time": c.s(ORIGINAL_TIME_COL[source]),
        }
    )


def _head(c: _Ctx, source: str, ocsf_class: str) -> dict[str, pa.Array]:
    """The shared select prefix: passthrough meta + metadata struct +
    category/class constants (every reference transform, e.g.
    gold_github_audit_logs.py:31-54)."""
    return {
        "_event_date": c.a("_event_date", pa.date32()),
        "_event_time": c.a("_event_time", pa.timestamp("us")),
        "_source": c.s("_source"),
        "_source_type": c.s("_source_type"),
        "metadata": _metadata(c, source),
        "category_uid": c.lit(OCSF_CATEGORY_UID, pa.int32()),
        "category_name": c.lit(OCSF_CATEGORY_NAME),
        "class_uid": c.lit(OCSF_CLASS_UIDS[ocsf_class], pa.int32()),
        "class_name": c.lit(CLASS_NAMES[ocsf_class]),
    }


def _names(ids: pa.Array, table: dict[int, str]) -> pa.Array:
    return expr.case_when(
        [(pc.equal(ids, i), name) for i, name in table.items()], "Other", pa.string()
    )


USER_STRUCT_T = pa.struct(
    [
        ("uid", pa.string()),
        ("name", pa.string()),
        ("type", pa.string()),
        ("type_id", pa.int32()),
        ("email_addr", pa.string()),
        ("domain", pa.string()),
        ("uid_alt", pa.string()),
    ]
)


def _user(c: _Ctx, fields: dict[str, pa.Array], mask: pa.Array | None = None) -> pa.StructArray:
    """The 7-field OCSF user struct (gold_github_audit_logs.py:87-88): type
    'User' / type_id 1 unless given, other absent fields NULL; ``mask``
    implements ``CASE WHEN x IS NOT NULL THEN named_struct(...) END``
    (gold_github_audit_logs.py:218)."""
    fields = {"type": c.lit("User"), "type_id": c.lit(1, pa.int32()), **fields}
    return expr.named_struct(
        {f.name: fields[f.name] if f.name in fields else c.nulls(f.type) for f in USER_STRUCT_T},
        mask=mask,
    )


class _Source(NamedTuple):
    #: actor.user field → silver column
    actor: dict[str, str]
    #: context enrichments (name, value column, type, {map key: column} or
    #: None for a NULL map), before the closing 'source' item
    enrich: tuple


_SOURCES = {
    # actor :87, enrichments :93-96 (same in all 5 github transforms)
    "github": _Source(
        actor={"uid": "actor", "name": "actor", "email_addr": "email", "domain": "organization"},
        enrich=(("organization", "organization", "context", None),),
    ),
    # actor :83-93, enrichments :99-102 (same in all 5 slack transforms)
    "slack": _Source(
        actor={"uid": "actor_id", "name": "actor_name", "email_addr": "actor_email",
               "domain": "location_domain"},
        enrich=(("workspace", "location_domain", "context", None),),
    ),
    # actor :75-85 (uid_alt = actor_link); enrichments :91-95 and :188-192,
    # the other three atlassian flows pass their own in the flow spec
    "atlassian": _Source(
        actor={"uid": "actor_id", "name": "actor_name", "email_addr": "actor_email",
               "uid_alt": "actor_link"},
        enrich=(
            ("auth_type", "auth_type", "authentication",
             {"session_id": "session_id", "token_id": "token_id"}),
            ("risk_assessment", "risk_level", "risk", {"score": "risk_score", "level": "risk_level"}),
        ),
    ),
}


def _actor(c: _Ctx, source: str, plain: bool) -> pa.StructArray:
    """actor {user}. slack's type CASE is gold_slack_audit_logs.py:88-89,
    atlassian's gold_atlassian_audit_logs.py:80-81; github and every
    authentication flow use the plain 'User'/1 (gold_github_audit_logs.py:87,
    gold_slack_audit_logs.py:147-157, gold_atlassian_audit_logs.py:150-160)."""
    user = {k: c.s(col) for k, col in _SOURCES[source].actor.items()}
    if not plain and source == "slack":
        at = c.s("actor_type")
        bot, service = pc.equal(at, "bot"), pc.equal(at, "service")
        user["type"] = expr.case_when([(bot, "System"), (service, "Service")], "User", pa.string())
        user["type_id"] = expr.case_when([(bot, 3), (service, 3)], 1, pa.int32())
    elif not plain and source == "atlassian":
        api = pc.equal(c.s("auth_type"), "api-token")
        user["type"] = expr.case_when([(api, "System")], "User", pa.string())
        user["type_id"] = expr.case_when([(api, 3)], 1, pa.int32())
    return expr.named_struct({"user": _user(c, user)})


def _enrichments(c: _Ctx, source: str, items: tuple, source_map: dict | None) -> pa.ListArray:
    """enrichments (gold_github_audit_logs.py:93-96): the context items, then
    the 'source' source_system item; a None map is
    ``CAST(NULL AS MAP<STRING,STRING>)``."""
    rows = [(name, c.s(col), typ, m) for name, col, typ, m in items]
    rows.append(("source", c.lit(source), "source_system", source_map))
    return expr.struct_array_literal(
        [
            expr.named_struct(
                {
                    "name": c.lit(name),
                    "value": value,
                    "type": c.lit(typ),
                    "data": (
                        expr.map_literal({k: c.s(v) for k, v in m.items()}, c.n)
                        if m is not None else expr.null_map(c.n)
                    ),
                }
            )
            for name, value, typ, m in rows
        ]
    )


def _observables(c: _Ctx, rows: tuple) -> pa.ListArray:
    """observables (gold_github_audit_logs.py:89-92)."""
    return expr.struct_array_literal(
        [
            expr.named_struct(
                {
                    "name": c.lit(name),
                    "type": c.lit(typ),
                    "type_id": c.lit(OBSERVABLE_TYPE_IDS[typ], pa.int32()),
                    "value": c.s(col),
                }
            )
            for name, typ, col in rows
        ]
    )


def _unmapped(c: _Ctx, source: str, fields: tuple) -> pa.StructArray:
    """unmapped: the flow's fields, then ``raw_data`` = to_json(data)
    (gold_github_audit_logs.py:97); field 'source' is the literal source
    name (gold_atlassian_audit_logs.py:436)."""
    out = {f: c.lit(source) if f == "source" else c.s(f) for f in fields}
    out["raw_data"] = c.s("data")
    return expr.named_struct(out)


# ---------------------------------------------------------------------------
# the per-flow spec and code
# ---------------------------------------------------------------------------


class _Flow(NamedTuple):
    #: c -> (severity_id, activity_id, {per-flow column: array})
    parts: Callable
    #: "failed" ('%failed%' → 2, else 1) or "const" (1)
    status: str
    #: (name, observable type, value column or COALESCE tuple)
    observables: tuple
    #: unmapped fields before raw_data
    unmapped: tuple = ()
    #: context enrichment items; None = the source's
    enrich: tuple | None = None
    #: map of the 'source' enrichment item; None = a NULL map
    source_map: dict | None = None


_FLOWS: dict[tuple[str, str], _Flow] = {}


def _flow(source: str, ocsf_class: str, status: str, observables, **spec):
    def register(fn):
        _FLOWS[(source, ocsf_class)] = _Flow(fn, status, tuple(observables), **spec)
        return fn

    return register


def _risk(c: _Ctx, score: int, level: str) -> pa.Array:
    """``risk_score >= N OR risk_level = 'level'`` with SQL null semantics
    (risk thresholds, gold_atlassian_audit_logs.py:57-62)."""
    return _OR(
        pc.greater_equal(c.a("risk_score", pa.int32()), score),
        pc.equal(c.s("risk_level"), level),
    )


# -- github (gold_github_audit_logs.py) -------------------------------------

_GH_ACTOR_OBS = ("actor", "User Name", "actor")
_GH_TARGET = ("target_login", "user")


@_flow("github", "account_change", "failed",  # :68-69
       [_GH_ACTOR_OBS, ("target_user", "User Name", _GH_TARGET)])  # :89-92
def _github_account_change(c: _Ctx):
    """gold_github_audit_logs.py:22-99."""
    sev_id = expr.case_when(
        # :55-60
        [
            (_OR(c.like("%delete%"), c.like("%suspend%")), 4),
            (_OR(c.like("%create%"), c.like("%update%")), 2),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        # :61-67
        [
            (c.like("%created"), 1),
            (_OR(c.like("%updated"), c.like("%renamed")), 3),
            (c.like("%deleted"), 4),
        ],
        99, pa.int32(),
    )
    target = c.s(_GH_TARGET)
    # message :71-86
    verb = expr.case_when(
        [
            (c.like("%add_member"), "added to"),
            (c.like("%remove_member"), "removed from"),
            (c.like("%update_member"), "updated in"),
        ],
        None, pa.string(),
    )
    verb = pc.coalesce(verb, c.action)
    entity = expr.case_when(
        [
            (c.like("org.%"), c.lit("organization")),
            (c.like("team.%"), expr.concat("team ", pc.coalesce(c.s("team"), c.lit("unknown")))),
            (c.like("repo.%"), expr.concat("repository ", pc.coalesce(c.s("repository"), c.lit("unknown")))),
        ],
        "entity", pa.string(),
    )
    message = expr.concat(
        "GitHub member ", verb, " ", entity, ": ", pc.coalesce(target, c.s("actor"))
    )
    return sev_id, act_id, {
        "message": message,
        "user": _user(c, {"uid": target, "name": target}),  # :88
    }


@_flow("github", "authentication", "failed",
       [_GH_ACTOR_OBS, ("src_ip", "IP Address", "actor_ip")])  # :156-159
def _github_authentication(c: _Ctx):
    """gold_github_audit_logs.py:102-166."""
    sev_id = expr.case_when([(c.like("%failed%"), 4)], 1, pa.int32())  # :135-136
    act_id = expr.case_when(
        # :137-138
        [
            (_OR(c.like("%login"), c.like("oauth_authorization.create")), 1),
            (_OR(c.like("%logout"), c.like("oauth_authorization.destroy")), 2),
        ],
        99, pa.int32(),
    )
    is_oauth = c.like("%oauth%")
    return sev_id, act_id, {
        "src_endpoint": expr.named_struct(  # :143-146
            {
                "ip": c.s("actor_ip"),
                "location": expr.named_struct(
                    {
                        "city": c.s("actor_city"),
                        "region": c.s("actor_region"),
                        "country": c.s("actor_country"),
                        # CAST(NULL AS ARRAY<DOUBLE>)
                        "coordinates": c.nulls(pa.list_(pa.float64())),
                    }
                ),
            }
        ),
        "auth_protocol": expr.case_when([(is_oauth, "OAuth")], "Password", pa.string()),  # :147-150
        "auth_protocol_id": expr.case_when([(is_oauth, 2)], 1, pa.int32()),  # :151-154
        "dst_endpoint": expr.named_struct(  # :155
            {"hostname": c.lit("github.com"), "name": c.lit("GitHub")}
        ),
    }


@_flow("github", "authorize_session", "const",  # :206-207
       [_GH_ACTOR_OBS, ("repository", "Resource Name", "repository")])  # :219-222
def _github_authorize_session(c: _Ctx):
    """gold_github_audit_logs.py:169-229."""
    sev_id = expr.case_when(
        [(c.like("%remove%"), 3), (c.like("%add%"), 2)], 1, pa.int32()  # :202-203
    )
    act_id = expr.case_when(
        [(c.like("%add%"), 5), (c.like("%remove%"), 6)], 99, pa.int32()  # :204-205
    )
    repo = c.s("repository")
    org = c.s("organization")
    return sev_id, act_id, {
        "resource": expr.named_struct(  # :210-216
            {
                "uid": pc.coalesce(repo, org),
                "name": pc.coalesce(repo, org),
                "type": expr.case_when(
                    [(pc.is_valid(repo), "Repository")], "Organization", pa.string()
                ),
                "owner": expr.named_struct({"name": org}),
                "data": expr.map_literal({"ref": c.s("ref"), "visibility": c.s("visibility")}, c.n),
            }
        ),
        # :217 privileges = permission present ? array(permission) : NULL
        "privileges": expr.single_item_list(c.s("permission"), mask=pc.is_valid(c.s("permission"))),
        # :218 nullable user via validity mask on target_login
        "user": _user(
            c, {"uid": c.s("target_login"), "name": c.s("target_login")},
            mask=pc.is_valid(c.s("target_login")),
        ),
    }


@_flow("github", "user_access", "const",
       [_GH_ACTOR_OBS, ("target_user", "User Name", _GH_TARGET)])  # :276-279
def _github_user_access(c: _Ctx):
    """gold_github_audit_logs.py:232-286."""
    sev_id = expr.case_when(
        [(c.like("%remove%"), 3), (c.like("%add%"), 2)], 1, pa.int32()  # :265-266
    )
    act_id = expr.case_when(
        [(c.like("%add%"), 5), (c.like("%remove%"), 6), (c.like("%update%"), 3)],
        99, pa.int32(),  # :267-268
    )
    target = c.s(_GH_TARGET)
    org = c.s("organization")
    return sev_id, act_id, {
        "user": _user(c, {"uid": target, "name": target}),  # :273
        "resource": expr.named_struct(  # :274
            {
                "uid": org,
                "name": org,
                "type": c.lit("Organization"),
                "owner": expr.named_struct({"name": org}),
                "data": expr.null_map(c.n),
            }
        ),
        # :275 permission present ? array(permission) : array('member')
        "privileges": expr.single_item_list(pc.coalesce(c.s("permission"), c.lit("member"))),
    }


@_flow("github", "group_management", "const",
       [_GH_ACTOR_OBS, ("team", "Group Name", "team")])  # :338-341
def _github_group_management(c: _Ctx):
    """gold_github_audit_logs.py:289-348."""
    sev_id = expr.case_when(
        [(c.like("%destroy%"), 3), (c.like("%create%"), 2)], 1, pa.int32()  # :322-323
    )
    act_id = expr.case_when(
        # :324-331
        [
            (c.like("%create"), 1),
            (c.like("%destroy"), 4),
            (c.like("%add_member"), 5),
            (c.like("%remove_member"), 6),
        ],
        99, pa.int32(),
    )
    team = c.s("team")
    return sev_id, act_id, {
        "group": expr.named_struct({"uid": team, "name": team, "type": c.lit("Team")}),  # :336
        "user": _user(
            c, {"uid": c.s("target_login"), "name": c.s("target_login")},
            mask=pc.is_valid(c.s("target_login")),
        ),  # :337
    }


# -- slack (gold_slack_audit_logs.py) ---------------------------------------

_SL_ACTOR_OBS = ("actor_id", "User Name", "actor_id")
_SL_UNMAPPED = ("entity_type",)  # :103 (same in all 5 slack transforms)


@_flow("slack", "account_change", "const",
       [_SL_ACTOR_OBS, ("target_user", "User Name", "entity_id")],  # :95-98
       unmapped=_SL_UNMAPPED)
def _slack_account_change(c: _Ctx):
    """gold_slack_audit_logs.py:22-105."""
    sev_id = expr.case_when(
        # :55-60
        [
            (c.like("%deactivated%"), 4),
            (_OR(c.like("%created%"), c.like("%reactivated%")), 2),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        # :61-67
        [
            (c.like("%created"), 1),
            (_OR(c.like("%changed"), c.like("%assigned")), 3),
            (c.like("%deactivated"), 4),
        ],
        99, pa.int32(),
    )
    # message :71-82
    what = expr.case_when(
        [
            (c.like("%created"), "created"),
            (c.like("%deactivated"), "deactivated"),
            (c.like("%reactivated"), "reactivated"),
            (c.like("%role_changed"), "role changed"),
            (c.like("%email_changed"), "email changed"),
            (c.like("%permissions_assigned"), "permissions assigned"),
        ],
        None, pa.string(),
    )
    return sev_id, act_id, {
        "message": expr.concat(
            "Slack user account ", pc.coalesce(what, c.action), " for user ", c.s("entity_name")
        ),
        # :94 user = entity when entity_type = 'user'
        "user": _user(
            c, {"uid": c.s("entity_id"), "name": c.s("entity_name")},
            mask=pc.equal(c.s("entity_type"), "user"),
        ),
    }


@_flow("slack", "authentication", "failed",
       [_SL_ACTOR_OBS, ("src_ip", "IP Address", "ip_address"),
        ("actor_email", "Email Address", "actor_email")],  # :166-170
       unmapped=_SL_UNMAPPED)
def _slack_authentication(c: _Ctx):
    """gold_slack_audit_logs.py:107-177."""
    sev_id = expr.case_when([(c.like("%failed%"), 4)], 1, pa.int32())  # :140-141
    act_id = expr.case_when(
        # :142-143
        [
            (_AND(c.like("%login"), pc.invert(pc.fill_null(c.like("%logout%"), False))), 1),
            (c.like("%logout"), 2),
        ],
        99, pa.int32(),
    )
    return sev_id, act_id, {
        "src_endpoint": expr.named_struct(  # :158-162
            {
                "ip": c.s("ip_address"),
                "session": expr.named_struct({"uid": c.s("session_id")}),
                "agent": c.s("user_agent"),
            }
        ),
        "auth_protocol": c.lit("Password"),  # :163
        "auth_protocol_id": c.lit(1, pa.int32()),  # :164
        "dst_endpoint": expr.named_struct(  # :165
            {
                "hostname": expr.concat(c.s("location_domain"), ".slack.com"),
                "name": c.lit("Slack"),
            }
        ),
    }


def _slack_resource(c: _Ctx) -> pa.StructArray:
    """gold_slack_audit_logs.py:230-236 (= :302-308)."""
    return expr.named_struct(
        {
            "uid": c.s(("location_id", "entity_id")),
            "name": c.s(("location_name", "entity_name")),
            "type": c.s(("location_type", "entity_type")),
            "owner": expr.named_struct({"name": c.s("location_domain")}),
            "data": expr.map_literal(
                {
                    "privacy": c.s("entity_privacy"),
                    "is_shared": pc.cast(c.a("entity_is_shared", pa.bool_()), pa.string()),
                },
                c.n,
            ),
        }
    )


@_flow("slack", "authorize_session", "const",
       [_SL_ACTOR_OBS, ("workspace", "Resource Name", "location_domain")],  # :238-241
       unmapped=_SL_UNMAPPED)
def _slack_authorize_session(c: _Ctx):
    """gold_slack_audit_logs.py:179-248."""
    sev_id = expr.case_when(
        [(c.like("%sso%"), 3), (c.like("%changed"), 2)], 1, pa.int32()  # :212-213
    )
    act_id = expr.case_when(
        # :214-215
        [
            (_OR(c.like("%created"), c.like("%enabled")), 1),
            (c.like("%changed"), 3),
            (c.like("%disabled"), 4),
        ],
        99, pa.int32(),
    )
    return sev_id, act_id, {
        "resource": _slack_resource(c),  # :230-236
        # :237 entity_privacy present ? array(entity_privacy) : NULL
        "privileges": expr.single_item_list(
            c.s("entity_privacy"), mask=pc.is_valid(c.s("entity_privacy"))
        ),
    }


@_flow("slack", "user_access", "const",
       [_SL_ACTOR_OBS, ("entity", "Resource Name", "entity_name")],  # :310-313
       unmapped=_SL_UNMAPPED)
def _slack_user_access(c: _Ctx):
    """gold_slack_audit_logs.py:250-320."""
    sev_id = expr.case_when(
        # :283-284
        [
            (_OR(c.like("%removed%"), c.like("%uninstalled%")), 3),
            (_OR(c.like("%invited%"), c.like("%installed%")), 2),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        # :285-286
        [
            (_OR(c.like("%installed"), c.like("%invited")), 5),
            (_OR(c.like("%uninstalled"), c.like("%removed")), 6),
            (c.like("%expanded"), 3),
        ],
        99, pa.int32(),
    )
    return sev_id, act_id, {
        # :301 user = entity when it's a guest action
        "user": _user(
            c, {"uid": c.s("entity_id"), "name": c.s("entity_name")}, mask=c.like("%guest%")
        ),
        "resource": _slack_resource(c),  # :302-308
        "privileges": expr.string_array_literal(["access"], c.n),  # :309
    }


@_flow("slack", "group_management", "const",
       [_SL_ACTOR_OBS, ("entity", "Group Name", "entity_name")],  # :393-396
       unmapped=_SL_UNMAPPED)
def _slack_group_management(c: _Ctx):
    """gold_slack_audit_logs.py:322-403."""
    sev_id = expr.case_when(
        [(c.like("%deleted%"), 3), (c.like("%created%"), 2)], 1, pa.int32()  # :355-360
    )
    act_id = expr.case_when(
        # :361-369
        [
            (c.like("%created"), 1),
            (_OR(c.like("%changed"), c.like("%updated"), c.like("%rename"), c.like("%converted%")), 3),
            (_OR(c.like("%deleted"), c.like("%archive")), 4),
            (_OR(c.like("%added"), c.like("%joined")), 5),
            (c.like("%removed"), 6),
        ],
        99, pa.int32(),
    )
    # :384-389 group only when entity_type IN ('channel','usergroup'),
    # with a nested nullable privileges array
    in_group = pc.is_in(c.s("entity_type"), value_set=pa.array(["channel", "usergroup"]))
    group = expr.named_struct(
        {
            "uid": c.s("entity_id"),
            "name": c.s("entity_name"),
            "type": c.s("entity_type"),
            # nested list child carries the struct mask too: Parquet
            # rejects non-zero-length list values under null struct rows
            "privileges": expr.single_item_list(
                c.s("entity_privacy"),
                mask=_AND(pc.is_valid(c.s("entity_privacy")), in_group),
            ),
        },
        mask=in_group,
    )
    # :392 typed NULL user struct
    return sev_id, act_id, {"group": group, "user": c.nulls(USER_STRUCT_T)}


# -- atlassian (gold_atlassian_audit_logs.py) -------------------------------

_AT_OBS = [("actor_id", "User Name", "actor_id"), ("actor_email", "Email Address", "actor_email")]


@_flow("atlassian", "account_change", "failed", _AT_OBS,  # :71-72, :87-90
       unmapped=("auth_type", "tags", "context", "changes"),  # :96-102
       source_map={"timezone": "timezone", "locale": "message_locale"})  # :91-95
def _atlassian_account_change(c: _Ctx):
    """gold_atlassian_audit_logs.py:24-104 (risk-score thresholds)."""
    sev_id = expr.case_when(
        # :57-63
        [
            (_OR(_risk(c, 70, "high"), c.like("%delete%")), 4),
            (_OR(_risk(c, 40, "medium"), c.like("%disable%")), 3),
            (_OR(pc.greater_equal(c.a("risk_score", pa.int32()), 20),
                 c.like("%create%"), c.like("%enable%")), 2),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        # :64-70
        [
            (_OR(c.like("%created"), c.like("%enabled")), 1),
            (c.like("%updated"), 3),
            (_OR(c.like("%deleted"), c.like("%disabled"), c.like("%revoked")), 4),
        ],
        99, pa.int32(),
    )
    return sev_id, act_id, {
        "message": c.s("message_content"),  # :74
        "user": _user(
            c, {"uid": c.s("actor_id"), "name": c.s("actor_name"), "email_addr": c.s("actor_email")}
        ),  # :86
    }


@_flow("atlassian", "authentication", "failed",
       _AT_OBS + [("src_ip", "IP Address", "location_ip")],  # :183-187
       unmapped=("auth_type",),  # :193-196
       source_map={"timezone": "timezone", "locale": "message_locale"})  # :188-192
def _atlassian_authentication(c: _Ctx):
    """gold_atlassian_audit_logs.py:106-198."""
    sev_id = expr.case_when(
        # :139-144
        [
            (_OR(_risk(c, 70, "high"), c.like("%failed%")), 4),
            (_risk(c, 40, "medium"), 3),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        # :145-146
        [
            (_AND(c.like("%login"), pc.invert(pc.fill_null(c.like("%logout%"), False))), 1),
            (_OR(c.like("%logout"), c.like("%session_ended")), 2),
        ],
        99, pa.int32(),
    )
    auth_type = c.s("auth_type")
    sso = expr.sql_like(auth_type, "%sso%")
    api = pc.equal(auth_type, "api-token")
    geo = c.s("location_geo")
    lat = pc.cast(expr.split_index(geo, ",", 0), pa.float64())
    lon = pc.cast(expr.split_index(geo, ",", 1), pa.float64())
    return sev_id, act_id, {
        "src_endpoint": expr.named_struct(  # :161-171
            {
                "ip": c.s("location_ip"),
                "location": expr.named_struct(
                    {
                        "city": c.s("city"),
                        "region": c.s("region_name"),
                        "country": c.s("country_name"),
                        # :167 geo "lat,lon" split into ARRAY<DOUBLE>
                        "coordinates": expr.pair_list(lat, lon, mask=pc.is_valid(geo)),
                        # :168 desc = concat_ws(', ', city, region, country)
                        "desc": expr.concat_ws(
                            ", ", c.s("city"), c.s("region_name"), c.s("country_name")
                        ),
                    }
                ),
                "agent": c.s("user_agent"),
            }
        ),
        "auth_protocol": expr.case_when(  # :172-176
            [(sso, "SAML"), (api, "API Key")], "Password", pa.string()
        ),
        "auth_protocol_id": expr.case_when([(sso, 4), (api, 99)], 1, pa.int32()),  # :177-181
        "dst_endpoint": expr.named_struct(  # :182
            {"hostname": c.lit("atlassian.com"), "name": c.lit("Atlassian")}
        ),
    }


@_flow("atlassian", "authorize_session", "const", _AT_OBS,  # :260-263
       unmapped=("auth_type", "tags", "changes"),  # :269-274
       enrich=(  # :264-268
           ("auth_type", "auth_type", "authentication", {"session_id": "session_id"}),
           ("risk_assessment", "risk_level", "risk", {"score": "risk_score"}),
       ))
def _atlassian_authorize_session(c: _Ctx):
    """gold_atlassian_audit_logs.py:200-276."""
    sev_id = expr.case_when(
        # :233-238 — note ELSE 2, not 1
        [
            (_OR(_risk(c, 70, "high"), c.like("%revoked%")), 4),
            (_OR(_risk(c, 40, "medium"), c.like("%granted%")), 3),
        ],
        2, pa.int32(),
    )
    act_id = expr.case_when(
        # :239-244 — Add/Remove 5/6, NOT the Create/Update/Delete chain
        [
            (_OR(c.like("%granted%"), c.like("%assigned%"), c.like("%enabled%")), 5),
            (_OR(c.like("%revoked%"), c.like("%removed%"), c.like("%disabled%")), 6),
        ],
        99, pa.int32(),
    )
    # :259 privileges = tags present ? array(tags) : NULL
    return sev_id, act_id, {
        "privileges": expr.single_item_list(c.s("tags"), mask=pc.is_valid(c.s("tags"))),
    }


@_flow("atlassian", "entity_management", "const", _AT_OBS,  # :351-354
       enrich=(), source_map={"timezone": "timezone"})  # :355-357
def _atlassian_entity_management(c: _Ctx):
    """gold_atlassian_audit_logs.py:278-362 — the only source mapping to
    Entity Management (3004)."""
    sev_id = expr.case_when(
        # :311-317
        [
            (_OR(_risk(c, 70, "high"), c.like("%deleted%")), 4),
            (_risk(c, 40, "medium"), 3),
            (c.like("%created%"), 2),
        ],
        1, pa.int32(),
    )
    act_id = expr.case_when(
        [(c.like("%created"), 1), (c.like("%deleted"), 4)], 99, pa.int32()  # :318-319
    )
    kind = expr.case_when(
        # :336-347
        [
            (c.like("%workspace%"), "Workspace"),
            (c.like("%project%"), "Project"),
            (c.like("%webhook%"), "Webhook"),
        ],
        "Entity", pa.string(),
    )
    return sev_id, act_id, {
        "resource": expr.named_struct(  # :334-350
            {
                "uid": c.s("event_id"),
                "name": kind,
                "type": kind,
                "owner": expr.named_struct({"name": c.s("actor_name")}),
                "data": expr.null_map(c.n),
            }
        ),
    }


@_flow("atlassian", "group_management", "const", _AT_OBS,  # :426-429
       unmapped=("event_id", "action", "source"),  # :433-438
       enrich=())  # :430-432 single source enrichment, NULL map
def _atlassian_group_management(c: _Ctx):
    """gold_atlassian_audit_logs.py:365-440."""
    sev_id = expr.case_when(
        [(c.like("%deleted%"), 3), (c.like("%created%"), 2)], 1, pa.int32()  # :398-399
    )
    act_id = expr.case_when(
        # :400-407
        [
            (c.like("%created"), 1),
            (c.like("%deleted"), 4),
            (c.like("%member_added"), 5),
            (c.like("%member_removed"), 6),
        ],
        99, pa.int32(),
    )
    return sev_id, act_id, {
        "group": expr.named_struct(  # :422
            {"uid": c.s("event_id"), "name": c.lit("Group"), "type": c.lit("Group")}
        ),
        "user": c.nulls(USER_STRUCT_T),  # :425 typed NULL
    }


# ---------------------------------------------------------------------------
# the generic projection + per-class union schemas (the mergeSchema end-state)
# ---------------------------------------------------------------------------


def _empty_silver(source: str) -> pa.Table:
    from .variant import silver_schema

    return silver_schema(source).empty_table()


@functools.lru_cache(maxsize=None)
def class_schema(ocsf_class: str) -> pa.Schema:
    """Union schema of a class's per-source projections — probed from each
    transform on an EMPTY typed silver batch (no data, no I/O), unified with
    ``pa.unify_schemas`` (nested struct fields merge by name). This is the
    schema the reference's mergeSchema sink converges to."""
    schemas = []
    for src, cls in flows():
        if cls != ocsf_class:
            continue
        t = GoldTransform(src, cls)
        schemas.append(t.project(_empty_silver(src)).schema)
    return pa.unify_schemas(schemas)


class GoldTransform:
    """Fused M3 filter + M4 per-class nested projection for one
    (source, class) flow, aligned to the class union schema."""

    def __init__(self, source: str, ocsf_class: str):
        import re

        self.source = source
        self.ocsf_class = ocsf_class
        self.regex = CLASS_REGEX[(source, ocsf_class)]
        re.compile(self.regex)  # fail fast
        self.spec = _FLOWS[(source, ocsf_class)]

    def project(self, batch: pa.Table) -> pa.Table:
        """Raw per-source projection (pre-alignment) — used by class_schema.
        Column order: head, severity/activity/status, time, [message],
        actor, the flow's own structs, observables, enrichments, unmapped."""
        c, spec, src = _Ctx(batch), self.spec, self.source
        sev_id, act_id, parts = spec.parts(c)
        if spec.status == "failed":
            status_id = expr.case_when([(c.like("%failed%"), 2)], 1, pa.int32())
        else:
            status_id = c.lit(1, pa.int32())
        cols = _head(c, src, self.ocsf_class)
        cols.update(
            severity_id=sev_id,
            severity=_names(sev_id, SEVERITY),
            activity_id=act_id,
            activity_name=_names(act_id, activity_names(self.ocsf_class)),
            status_id=status_id,
            status=expr.case_when([(pc.equal(status_id, 2), "Failure")], "Success", pa.string()),
            time=c.a("_event_time", pa.timestamp("us")),
        )
        if "message" in parts:
            cols["message"] = parts.pop("message")
        cols["actor"] = _actor(c, src, plain=self.ocsf_class == "authentication")
        cols.update(parts)
        cols["observables"] = _observables(c, spec.observables)
        enrich = _SOURCES[src].enrich if spec.enrich is None else spec.enrich
        cols["enrichments"] = _enrichments(c, src, enrich, spec.source_map)
        cols["unmapped"] = _unmapped(c, src, spec.unmapped)
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        action_all = batch["action"]
        action_all = (
            action_all.combine_chunks()
            if isinstance(action_all, pa.ChunkedArray)
            else action_all
        )
        mask = pc.fill_null(expr.rlike(pc.cast(action_all, pa.string()), self.regex), False)
        return align_to(self.project(batch.filter(mask)), class_schema(self.ocsf_class))
