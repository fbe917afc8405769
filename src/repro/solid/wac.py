"""Web Access Control (WAC).

"The Pod Manager determines whether access can be granted by checking the
access control policies that are stored locally" (Section III-A).  WAC is
Solid's access-control model: ACL documents contain authorizations that grant
agents (or agent classes) modes over a resource, either directly
(``acl:accessTo``) or by default for everything inside a container
(``acl:default``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ValidationError
from repro.rdf.graph import Graph
from repro.rdf.namespace import ACL, RDF
from repro.rdf.term import BlankNode, IRI


class AccessMode(str, enum.Enum):
    """The four WAC access modes."""

    READ = "Read"
    WRITE = "Write"
    APPEND = "Append"
    CONTROL = "Control"


class AgentClass(str, enum.Enum):
    """Agent classes recognised by WAC."""

    AGENT = "Agent"                       # anyone, authenticated or not
    AUTHENTICATED_AGENT = "AuthenticatedAgent"  # anyone with a WebID


@dataclass
class Authorization:
    """One ``acl:Authorization``: who may do what to which resources."""

    modes: Set[AccessMode]
    agents: Set[str] = field(default_factory=set)
    agent_classes: Set[AgentClass] = field(default_factory=set)
    access_to: Set[str] = field(default_factory=set)      # resource paths
    default_for: Set[str] = field(default_factory=set)    # container paths

    def __post_init__(self):
        self.modes = set(self.modes)
        self.agents = set(self.agents)
        self.agent_classes = set(self.agent_classes)
        self.access_to = set(self.access_to)
        self.default_for = set(self.default_for)
        if not self.modes:
            raise ValidationError("an authorization must grant at least one access mode")
        if not self.access_to and not self.default_for:
            raise ValidationError("an authorization must target at least one resource or container")

    def covers_agent(self, webid: Optional[str]) -> bool:
        """Return True when this authorization applies to *webid*.

        ``webid=None`` models an unauthenticated request; it is only covered
        by the public :attr:`AgentClass.AGENT` class.
        """
        if AgentClass.AGENT in self.agent_classes:
            return True
        if webid is None:
            return False
        if AgentClass.AUTHENTICATED_AGENT in self.agent_classes:
            return True
        return webid in self.agents

    def covers_resource(self, resource_path: str, container_path: str) -> bool:
        """Return True when this authorization targets the resource (directly
        or through a container default)."""
        if resource_path in self.access_to:
            return True
        return any(container_path.startswith(container) for container in self.default_for)

    def grants(self, mode: AccessMode) -> bool:
        if mode in self.modes:
            return True
        # Write implies Append, mirroring WAC semantics.
        return mode == AccessMode.APPEND and AccessMode.WRITE in self.modes


class AclDocument:
    """The set of authorizations governing a pod (or part of it).

    Authorizations are indexed by the agents they name, so a check reads
    only the requester's own authorizations and the class-wide ones instead
    of every grant in the pod.  Change them through :meth:`add` and
    :meth:`revoke_agent`, which keep the index current.
    """

    def __init__(self, authorizations: Optional[Iterable[Authorization]] = None):
        self._authorizations: List[Authorization] = []
        self._by_agent: Dict[str, List[Authorization]] = {}
        self._class_wide: List[Authorization] = []
        for authorization in authorizations or []:
            self.add(authorization)

    @property
    def authorizations(self) -> Tuple[Authorization, ...]:
        return tuple(self._authorizations)

    def add(self, authorization: Authorization) -> Authorization:
        self._authorizations.append(authorization)
        if authorization.agent_classes:
            self._class_wide.append(authorization)
        for webid in authorization.agents:
            self._by_agent.setdefault(webid, []).append(authorization)
        return authorization

    def grant(self, webid: str, modes: Iterable[AccessMode], resource_path: Optional[str] = None,
              container_path: Optional[str] = None) -> Authorization:
        """Convenience helper adding an authorization for one agent."""
        return self.add(
            Authorization(
                modes=set(modes),
                agents={webid},
                access_to={resource_path} if resource_path else set(),
                default_for={container_path} if container_path else set(),
            )
        )

    def grant_public(self, modes: Iterable[AccessMode], resource_path: Optional[str] = None,
                     container_path: Optional[str] = None) -> Authorization:
        """Grant modes to everyone (the ``foaf:Agent`` class)."""
        return self.add(
            Authorization(
                modes=set(modes),
                agent_classes={AgentClass.AGENT},
                access_to={resource_path} if resource_path else set(),
                default_for={container_path} if container_path else set(),
            )
        )

    def revoke_agent(self, webid: str) -> int:
        """Remove *webid* from every authorization; returns how many changed."""
        changed = 0
        for authorization in self._authorizations:
            if webid in authorization.agents:
                authorization.agents.discard(webid)
                changed += 1
        # Drop authorizations that no longer cover anyone.
        remaining = [auth for auth in self._authorizations if auth.agents or auth.agent_classes]
        self._authorizations = []
        self._by_agent = {}
        self._class_wide = []
        for authorization in remaining:
            self.add(authorization)
        return changed

    def allows(self, webid: Optional[str], mode: AccessMode, resource_path: str,
               container_path: str) -> bool:
        """Evaluate whether *webid* may perform *mode* on *resource_path*."""
        candidates = self._class_wide
        if webid is not None:
            candidates = chain(candidates, self._by_agent.get(webid, ()))
        for authorization in candidates:
            if not authorization.grants(mode):
                continue
            if not authorization.covers_agent(webid):
                continue
            if authorization.covers_resource(resource_path, container_path):
                return True
        return False

    # -- RDF form -------------------------------------------------------------

    def to_graph(self, base_url: str = "https://pod.example.org") -> Graph:
        """Serialize the ACL document to RDF using the WAC vocabulary."""
        graph = Graph()
        for index, authorization in enumerate(self._authorizations):
            node = BlankNode(f"auth{index}")
            graph.add(node, RDF.type, ACL.Authorization)
            for mode in sorted(authorization.modes, key=lambda m: m.value):
                graph.add(node, ACL.mode, ACL.term(mode.value))
            for agent in sorted(authorization.agents):
                graph.add(node, ACL.agent, IRI(agent))
            for agent_class in sorted(authorization.agent_classes, key=lambda c: c.value):
                graph.add(node, ACL.agentClass, ACL.term(agent_class.value))
            for resource in sorted(authorization.access_to):
                graph.add(node, ACL.accessTo, IRI(f"{base_url}{resource}"))
            for container in sorted(authorization.default_for):
                graph.add(node, ACL.default, IRI(f"{base_url}{container}"))
        return graph

    @classmethod
    def from_graph(cls, graph: Graph, base_url: str = "https://pod.example.org") -> "AclDocument":
        """Parse an ACL document from its RDF form."""
        document = cls()
        for node in graph.subjects(RDF.type, ACL.Authorization):
            modes = {
                AccessMode(ACL.local_name(obj))
                for obj in graph.objects(node, ACL.mode)
                if isinstance(obj, IRI)
            }
            agents = {str(obj) for obj in graph.objects(node, ACL.agent)}
            agent_classes = {
                AgentClass(ACL.local_name(obj))
                for obj in graph.objects(node, ACL.agentClass)
                if isinstance(obj, IRI)
            }
            access_to = {
                str(obj)[len(base_url):] if str(obj).startswith(base_url) else str(obj)
                for obj in graph.objects(node, ACL.accessTo)
            }
            default_for = {
                str(obj)[len(base_url):] if str(obj).startswith(base_url) else str(obj)
                for obj in graph.objects(node, ACL.default)
            }
            document.add(
                Authorization(
                    modes=modes,
                    agents=agents,
                    agent_classes=agent_classes,
                    access_to=access_to,
                    default_for=default_for,
                )
            )
        return document
