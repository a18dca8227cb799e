from discsp.audit import SPEC_BY_SOLVER, AuditSpec, Finding, audit, summarize
from discsp.runtime import Record, RunConfig, Transcript
from discsp.solvers import run_solver


def make_record(sender_var, receiver_var, msg_type, payload):
    """A delivery between two variables of the figure 1 instance, where
    agent a<i> owns variable x<i>."""
    return Record(sender_var=sender_var, receiver_var=receiver_var,
                  type=msg_type, payload=payload, size=0, sent_clock=0)


def test_spec_by_solver_follows_the_privacy_grades():
    # Grades 2 and 3 forbid decisions; only grade 3 encrypts feasibility.
    assert SPEC_BY_SOLVER == {
        "dpop": AuditSpec(),
        "pdpop": AuditSpec(),
        "pdpop_plus": AuditSpec(),
        "p32": AuditSpec(forbid_decision=True),
        "p32_plus": AuditSpec(forbid_decision=True),
        "p2": AuditSpec(encrypted_feas=True, forbid_decision=True),
        "p2_plus": AuditSpec(encrypted_feas=True, forbid_decision=True),
    }


def test_dpop_control_has_decision_findings(fig1):
    r = run_solver("dpop", fig1, seed=1)
    findings = audit(r.transcript, fig1, SPEC_BY_SOLVER["dpop"])
    counts = summarize(findings)
    assert counts.get("decision-privacy", 0) > 0
    # DPOP also leaks agent identities through separators on this instance
    assert counts.get("agent-privacy", 0) > 0
    assert counts.get("non-neighbor-delivery", 0) == 0


def test_p_class_solvers_audit_clean(fig1):
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for solver in ("pdpop", "pdpop_plus", "p32", "p32_plus", "p2", "p2_plus"):
        r = run_solver(solver, fig1, seed=2, config=cfg)
        counts = summarize(audit(r.transcript, fig1, SPEC_BY_SOLVER[solver]))
        assert counts.get("agent-privacy", 0) == 0, solver
        assert counts.get("non-neighbor-delivery", 0) == 0, solver
        if solver.startswith(("p32", "p2")):
            assert counts.get("decision-privacy", 0) == 0, solver
        if solver.startswith("p2"):
            assert counts.get("constraint-privacy", 0) == 0, solver


def test_handcrafted_leaks_flagged(fig1):
    # a1 and a5 share no constraint in the reference instance
    leak = Transcript([
        make_record("x1", "x5", "CHAT", {"note": "hello"}),
        make_record("x1", "x2", "GOSSIP", {"about": "x5"}),
        make_record("x1", "x2", "TAB", {
            "table": {"scope": [{"label": "x5", "values": ["R", "B", "G"]}],
                      "entries": [0, 0, 1]}}),
    ])
    findings = audit(leak, fig1, AuditSpec())
    counts = summarize(findings)
    assert counts["non-neighbor-delivery"] == 1
    # "x5" named to a2 (a5 is not a2's neighbor) via string scan and via
    # the attributed table axis
    assert counts["agent-privacy"] >= 2


def test_finding_names_the_owners_and_the_index_of_its_delivery(fig1):
    # A finding's agents are the owners of the record's variables and its
    # tick is the record's index in the transcript.
    transcript = Transcript([make_record("x1", "x2", "CHAT", {}),
                             make_record("x1", "x3", "CHAT", {})])
    assert audit(transcript, fig1, AuditSpec()) == [
        Finding("non-neighbor-delivery", 1, "a1 -> a3")]


def test_plaintext_feas_flagged_when_encryption_required(fig1):
    rec = make_record("x1", "x2", "FEAS", {
        "table": {"scope": [{"label": 12345, "values": [1, 2, 3]}],
                  "entries": [True, False, True]}})
    findings = audit(Transcript([rec]), fig1,
                     AuditSpec(encrypted_feas=True))
    assert summarize(findings).get("constraint-privacy", 0) == 1
    # same record passes when encryption is not promised
    assert not audit(Transcript([rec]), fig1, AuditSpec())


def test_decision_forbidden_flagged(fig1):
    rec = make_record("x2", "x3", "DECISION",
                      {"assignment": [[999, 888]]})
    findings = audit(Transcript([rec]), fig1, AuditSpec(forbid_decision=True))
    assert summarize(findings)["decision-privacy"] == 1
    # coded decisions are tolerated where decisions are allowed
    assert not audit(Transcript([rec]), fig1, AuditSpec())


def test_finding_is_descriptive():
    f = Finding("agent-privacy", 3, "variable name 'x5' visible to a2")
    assert "x5" in f.detail and f.tick == 3


def _payload_strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _payload_strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _payload_strings(v)


def test_p_class_payloads_contain_no_cleartext_tokens(fig1):
    """Stronger than the auditor: privacy-solver payloads never carry any
    raw variable name, agent id, or (string) domain value at all - every
    name and value crossing a channel is a numeric code or cyphertext."""
    forbidden = set(fig1.variables) | set(fig1.agents)
    for x in fig1.variables:
        forbidden |= {v for v in fig1.domains[x] if isinstance(v, str)}
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for solver in ("pdpop", "pdpop_plus", "p32", "p32_plus", "p2", "p2_plus"):
        r = run_solver(solver, fig1, seed=6, config=cfg)
        for rec in r.transcript:
            leaked = set(_payload_strings(rec.payload)) & forbidden
            assert not leaked, (solver, rec.type, leaked)
