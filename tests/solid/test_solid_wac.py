"""Tests for Web Access Control."""

import pytest

from repro.common.errors import ValidationError
from repro.solid.wac import AccessMode, AclDocument, AgentClass, Authorization

ALICE = "https://id/alice#me"
BOB = "https://id/bob#me"


def test_authorization_requires_modes_and_targets():
    with pytest.raises(ValidationError):
        Authorization(modes=set(), agents={ALICE}, access_to={"/r"})
    with pytest.raises(ValidationError):
        Authorization(modes={AccessMode.READ}, agents={ALICE})


def test_agent_coverage():
    direct = Authorization(modes={AccessMode.READ}, agents={ALICE}, access_to={"/r"})
    assert direct.covers_agent(ALICE)
    assert not direct.covers_agent(BOB)
    assert not direct.covers_agent(None)

    public = Authorization(modes={AccessMode.READ}, agent_classes={AgentClass.AGENT}, access_to={"/r"})
    assert public.covers_agent(None)
    assert public.covers_agent(BOB)

    authenticated = Authorization(
        modes={AccessMode.READ}, agent_classes={AgentClass.AUTHENTICATED_AGENT}, access_to={"/r"}
    )
    assert authenticated.covers_agent(BOB)
    assert not authenticated.covers_agent(None)


def test_write_implies_append():
    auth = Authorization(modes={AccessMode.WRITE}, agents={ALICE}, access_to={"/r"})
    assert auth.grants(AccessMode.WRITE)
    assert auth.grants(AccessMode.APPEND)
    assert not auth.grants(AccessMode.READ)


def test_container_defaults_cover_nested_resources():
    auth = Authorization(modes={AccessMode.READ}, agents={ALICE}, default_for={"/data/"})
    assert auth.covers_resource("/data/file.txt", "/data/")
    assert auth.covers_resource("/data/sub/file.txt", "/data/sub/")
    assert not auth.covers_resource("/other/file.txt", "/other/")


def test_acl_document_allows_and_denies():
    acl = AclDocument()
    acl.grant(ALICE, [AccessMode.READ, AccessMode.WRITE], container_path="/")
    acl.grant(BOB, [AccessMode.READ], resource_path="/data/shared.txt")
    assert acl.allows(ALICE, AccessMode.WRITE, "/data/x.txt", "/data/")
    assert acl.allows(BOB, AccessMode.READ, "/data/shared.txt", "/data/")
    assert not acl.allows(BOB, AccessMode.READ, "/data/private.txt", "/data/")
    assert not acl.allows(BOB, AccessMode.WRITE, "/data/shared.txt", "/data/")
    assert not acl.allows(None, AccessMode.READ, "/data/shared.txt", "/data/")


def test_public_grant_allows_anonymous():
    acl = AclDocument()
    acl.grant_public([AccessMode.READ], resource_path="/public/info.txt")
    assert acl.allows(None, AccessMode.READ, "/public/info.txt", "/public/")


def test_revoke_agent_removes_access():
    acl = AclDocument()
    acl.grant(ALICE, [AccessMode.READ], container_path="/")
    acl.grant(BOB, [AccessMode.READ], resource_path="/data/shared.txt")
    changed = acl.revoke_agent(BOB)
    assert changed == 1
    assert not acl.allows(BOB, AccessMode.READ, "/data/shared.txt", "/data/")
    assert acl.allows(ALICE, AccessMode.READ, "/data/anything.txt", "/data/")


def test_acl_rdf_round_trip():
    acl = AclDocument()
    acl.grant(ALICE, [AccessMode.READ, AccessMode.CONTROL], container_path="/")
    acl.grant_public([AccessMode.READ], resource_path="/public/doc.ttl")
    graph = acl.to_graph(base_url="https://alice.pod")
    restored = AclDocument.from_graph(graph, base_url="https://alice.pod")
    assert restored.allows(ALICE, AccessMode.CONTROL, "/data/x", "/data/")
    assert restored.allows(None, AccessMode.READ, "/public/doc.ttl", "/public/")
    assert not restored.allows(BOB, AccessMode.CONTROL, "/data/x", "/data/")


def test_checks_read_only_the_requesters_and_class_wide_authorizations():
    acl = AclDocument()
    acl.grant(ALICE, [AccessMode.READ], resource_path="/data/a.txt")
    acl.grant(BOB, [AccessMode.READ], resource_path="/data/b.txt")
    acl.add(Authorization(modes={AccessMode.READ}, agents={BOB},
                          agent_classes={AgentClass.AUTHENTICATED_AGENT},
                          access_to={"/data/shared.txt"}))
    assert acl.allows(ALICE, AccessMode.READ, "/data/a.txt", "/data/")
    assert not acl.allows(ALICE, AccessMode.READ, "/data/b.txt", "/data/")
    # The mixed authorization reaches every authenticated agent, not only Bob.
    assert acl.allows(ALICE, AccessMode.READ, "/data/shared.txt", "/data/")
    assert not acl.allows(None, AccessMode.READ, "/data/shared.txt", "/data/")
    assert len(acl.authorizations) == 3


def test_revoked_agent_can_be_granted_again():
    acl = AclDocument()
    acl.grant(BOB, [AccessMode.READ], resource_path="/data/b.txt")
    acl.grant_public([AccessMode.READ], resource_path="/public/info.txt")
    assert acl.revoke_agent(BOB) == 1
    assert len(acl.authorizations) == 1
    assert not acl.allows(BOB, AccessMode.READ, "/data/b.txt", "/data/")
    assert acl.allows(BOB, AccessMode.READ, "/public/info.txt", "/public/")
    acl.grant(BOB, [AccessMode.READ], resource_path="/data/b.txt")
    assert acl.allows(BOB, AccessMode.READ, "/data/b.txt", "/data/")
