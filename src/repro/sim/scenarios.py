"""Canonical scenario data from the paper.

* :data:`ATPLIST_XML` — the §3.1 running example (ATPList.xml with the
  embedded ``getPoints`` and ``getGrandSlamsWonbyYear`` calls), with
  the paper's :data:`QUERY_A` and :data:`QUERY_B`.
* :data:`FIG1_TOPOLOGY` — Fig. 1's invocation tree
  (AP1 → {S2@AP2, S3@AP3}, AP3 → {S4@AP4, S5@AP5}, AP5 → S6@AP6).
* :data:`FIG2_TOPOLOGY` — Fig. 2's tree
  ([AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]]).

The deployments built from this data live behind the :mod:`repro.api`
facade: :meth:`~repro.api.Cluster.atplist`,
:meth:`~repro.api.Cluster.fig1`, :meth:`~repro.api.Cluster.fig2` and
:meth:`~repro.api.Cluster.from_topology`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The paper's running example (§3.1), verbatim in structure: two
#: embedded calls with previous results, one replace-mode, one merge-mode.
ATPLIST_XML = """<?xml version="1.0" encoding="UTF-8"?>
<ATPList date="18042005">
  <player rank="1">
    <name>
      <firstname>Roger</firstname>
      <lastname>Federer</lastname>
    </name>
    <citizenship>Swiss</citizenship>
    <axml:sc mode="replace" serviceNameSpace="getPoints"
             serviceURL="axml://AP2" methodName="getPoints">
      <axml:params>
        <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
      </axml:params>
      <points>475</points>
    </axml:sc>
    <axml:sc mode="merge" serviceNameSpace="getGrandSlamsWonbyYear"
             serviceURL="axml://AP3" methodName="getGrandSlamsWonbyYear">
      <axml:params>
        <axml:param name="name"><axml:value>Roger Federer</axml:value></axml:param>
        <axml:param name="year"><axml:value>2005</axml:value></axml:param>
      </axml:params>
      <grandslamswon year="2003">A, W</grandslamswon>
      <grandslamswon year="2004">A, U</grandslamswon>
    </axml:sc>
  </player>
  <player rank="2">
    <name>
      <firstname>Rafael</firstname>
      <lastname>Nadal</lastname>
    </name>
    <citizenship>Spanish</citizenship>
  </player>
</ATPList>
"""

#: The paper's Query A (§3.1): needs grandslamswon, not points.
QUERY_A = (
    "Select p/citizenship, p/grandslamswon from p in ATPList//player "
    "where p/name/lastname = Federer;"
)

#: The paper's Query B (§3.1): needs points, not grandslamswon.
QUERY_B = (
    "Select p/citizenship, p/points from p in ATPList//player "
    "where p/name/lastname = Federer;"
)


#: Fig. 1 (§3.2): AP1 invokes S2@AP2 and S3@AP3; processing S3, AP3
#: invokes S4@AP4 and S5@AP5; processing S5, AP5 invokes S6@AP6.
FIG1_TOPOLOGY: Dict[str, List[Tuple[str, str]]] = {
    "AP1": [("AP2", "S2"), ("AP3", "S3")],
    "AP3": [("AP4", "S4"), ("AP5", "S5")],
    "AP5": [("AP6", "S6")],
}

#: Fig. 2 (§3.3): [AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]].
FIG2_TOPOLOGY: Dict[str, List[Tuple[str, str]]] = {
    "AP1": [("AP2", "S2")],
    "AP2": [("AP3", "S3"), ("AP4", "S4")],
    "AP3": [("AP6", "S6")],
    "AP4": [("AP5", "S5")],
}
