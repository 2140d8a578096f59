//! `--explain`-style documentation for every diagnostic code.
//!
//! One registered entry per stable code, with the paper section the rule
//! derives from — the analyzer's counterpart of `rustc --explain`. A test
//! pins that every code the analyzer can emit has explain text, so a new
//! lint cannot ship undocumented.

/// One registered diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct CodeDoc {
    /// The stable code (`E001`, `W110`, …).
    pub code: &'static str,
    /// One-line summary (the lint-table row).
    pub summary: &'static str,
    /// The paper section the rule derives from.
    pub section: &'static str,
    /// One explanatory paragraph.
    pub explain: &'static str,
}

/// Every code the analyzer can emit, in code order.
pub const CODES: &[CodeDoc] = &[
    CodeDoc {
        code: "E001",
        summary: "writes to a table land across the WAN from the database",
        section: "§4.2",
        explain: "The authoritative (read-write) instance of an entity whose table the \
                  application writes is placed across the wide area from the database. Every \
                  write it performs then crosses the WAN, and the node effectively holds a \
                  read-only replica pretending to be a primary. The paper's deployments keep \
                  writers next to the rows they mutate and distribute only reads; move the \
                  primary to the database's site and replicate read-only instances outward.",
    },
    CodeDoc {
        code: "E002",
        summary: "push propagation declared without the machinery it needs",
        section: "§4.3–§4.5",
        explain: "The descriptor declares push-mode update propagation (synchronous or \
                  asynchronous), but the deployment lacks a required piece of machinery: \
                  read-only replicas to push to, a placed JMS broker for the asynchronous \
                  queue, or a message-driven receiver at a push target. Updates would be \
                  produced and never applied; the cached state the configuration's whole \
                  point is to keep warm would silently diverge.",
    },
    CodeDoc {
        code: "E003",
        summary: "page exceeds its §4.2 wide-area round-trip budget",
        section: "§4.2",
        explain: "A page's call tree makes more wide-area round trips than the invariant \
                  table allows (one per page for remote-façade deployments, two for Pet \
                  Store's VerifySignIn, zero for the centralized baseline). On a multi-hop \
                  topology each crossing is charged its shortest-path WAN hop count, so a \
                  relayed edge-to-edge call costs every wide-area leg it traverses. Wide-area \
                  latency dominates response time; a page over budget will miss the paper's \
                  latency targets no matter how fast the servers are.",
    },
    CodeDoc {
        code: "E004",
        summary: "component unplaced or placed on a non-hosting node",
        section: "§2.2",
        explain: "Every component must be placed on at least one application hosting node \
                  (the three servers or the database host) before the binder can resolve a \
                  call to it, and every page's root web component must sit on an entry \
                  server. An unplaced component — or one placed on a router or client LAN — \
                  makes the deployment unrunnable, so analysis stops at this error.",
    },
    CodeDoc {
        code: "E005",
        summary: "a page can observe its own write rolled back after failover",
        section: "§4.5",
        explain: "A session-flow path writes a table and a later page of the same session \
                  reads that table from a cached site that is not synchronously maintained, \
                  while the fault policy keeps serving from caches during partitions or \
                  fails requests over to other replicas. If the episode severs the \
                  propagation path before the push is applied, the session first observes \
                  its write and then a cached state from before it — the write appears \
                  rolled back. Either propagate synchronously, disable stale serving, or \
                  pin the session's reads to the write path.",
    },
    CodeDoc {
        code: "W101",
        summary: "BMP-style n+1 finder issued over the WAN",
        section: "§2.3/§4.1",
        explain: "A bean-managed-persistence finder runs over the wide area: after the \
                  finder query, each returned row is loaded with its own remote round trip \
                  — the paper's motivating pathology, which turned a one-query page into \
                  dozens of WAN crossings. Use a façade that returns the rows in bulk, or \
                  co-locate the finder with the database.",
    },
    CodeDoc {
        code: "W102",
        summary: "session façade writes across the WAN",
        section: "§4.2",
        explain: "A session-tier component executes a table write across the wide area. \
                  Writers belong next to the rows they mutate; a WAN-crossing write adds a \
                  wide-area round trip to every transactional page and serializes commits \
                  behind wide-area latency.",
    },
    CodeDoc {
        code: "W103",
        summary: "stub caching disabled while remote calls exist",
        section: "§4.2",
        explain: "The deployment makes remote invocations but stub caching is off, so every \
                  remote call pays an extra JNDI naming exchange before the invocation \
                  itself. The paper's deployments cache home stubs (the EJBHomeFactory \
                  pattern); enabling the descriptor knob removes one round trip per call.",
    },
    CodeDoc {
        code: "W104",
        summary: "cacheable tag never issued, or issued tag not declared",
        section: "§4.4",
        explain: "The query-cache policy and the application disagree about a cacheable \
                  tag: a declared tag is never issued by any page (dead configuration), or \
                  an issued tag is not declared cacheable (its queries always travel to the \
                  central site even where a cache is deployed). Either direction usually \
                  indicates a stale descriptor.",
    },
    CodeDoc {
        code: "W105",
        summary: "read-your-writes staleness hazard under async propagation",
        section: "§4.5",
        explain: "Within a single page, a table is written and then read back from a \
                  locally cached copy that is only asynchronously maintained. When the \
                  response is assembled the cache still holds the pre-write value, so the \
                  page can answer with state from before its own write. The inter-page \
                  generalisation over whole sessions is E005.",
    },
    CodeDoc {
        code: "W106",
        summary: "replicated stateful session not hosted on the central node",
        section: "§4.3",
        explain: "A stateful session bean is replicated but keeps no instance on the \
                  central node while entity propagation is active. Conversational state \
                  then lives only at the edges, unreachable from the write path that \
                  propagation serves.",
    },
    CodeDoc {
        code: "W107",
        summary: "caching machinery deployed but no page is ever memoizable",
        section: "§4.3–§4.4",
        explain: "The deployment provisions entity replicas or edge query caches, yet \
                  every page either writes a table or makes a non-JDBC crossing, so the \
                  binder never certifies a bind replayable and the bound-program cache \
                  cannot engage. The caching machinery costs propagation traffic without \
                  ever serving a memoized request.",
    },
    CodeDoc {
        code: "W108",
        summary: "traced WAN round trips disagree with the static walk",
        section: "§4.2",
        explain: "A traced simulator run averaged a per-page wide-area round-trip count \
                  more than one trip away from the static walker's figure. Both sides \
                  count the same logical crossings, so a disagreement means the deployment \
                  is not executing the calls the analyzer reasoned about — a stale \
                  descriptor, a diverged walker, or a misconfigured run.",
    },
    CodeDoc {
        code: "W109",
        summary: "every read-only page needs the wide area to complete",
        section: "§4.3",
        explain: "No read-only page can be completed by an edge entry without crossing the \
                  wide area, so a WAN partition leaves edge clients with no servable page \
                  at all — the centralized baseline by construction. Entity replicas or \
                  query caches keep catalog reads local and let the edges keep answering \
                  through the partition.",
    },
    CodeDoc {
        code: "W110",
        summary: "unbounded staleness reachable on a read path",
        section: "§4.5",
        explain: "A page serves a read from a cached site that nothing ever refreshes: the \
                  descriptor deploys the cache but declares no propagation for it, so the \
                  staleness lattice assigns the site ⊤ (Unbounded) — the served value's \
                  age grows without bound from deployment warm-up onward. Declare a \
                  propagation mode for the cache, or remove the replica so reads go to the \
                  authoritative copy.",
    },
    CodeDoc {
        code: "W111",
        summary: "failover target statically unreachable during its episode",
        section: "§4.2",
        explain: "The fault policy declares failover to the central server for crashed \
                  edge entries, but during an episode the policy is meant to survive the \
                  target itself is dead or the clients' route to it crosses a severed \
                  link. The failover edge can never be taken when it is needed; requests \
                  re-targeted along it fail exactly as if no failover were configured.",
    },
    CodeDoc {
        code: "W112",
        summary: "binder crossing routes through ≥2 WAN hops",
        section: "§4.2",
        explain: "A call-tree crossing's shortest path traverses two or more wide-area \
                  legs, but the §4.2 round-trip budget and the descriptor were written \
                  assuming one hop per crossing. On a relayed topology the crossing costs \
                  every WAN leg it traverses — the budget check charges hop-weighted round \
                  trips, and this warning points at the crossing whose placement silently \
                  multiplied its cost.",
    },
    CodeDoc {
        code: "W113",
        summary: "SLO latency objective below the static WAN round-trip floor",
        section: "§4.2",
        explain: "A service-level latency objective demands responses faster than the \
                  deployment can physically deliver: the page's hop-weighted wide-area \
                  round trips, each costing at least twice the topology's cheapest WAN \
                  one-way latency, already exceed the objective's threshold. No seed, \
                  cache-hit pattern or load level can bring the page under the target, so \
                  every run would grade the objective as missed. Loosen the threshold, or \
                  redeploy (replicas, query caches) so the page sheds wide-area round \
                  trips.",
    },
];

/// Looks up a code's documentation (case-sensitive, `E…`/`W…`).
pub fn explain(code: &str) -> Option<&'static CodeDoc> {
    CODES.iter().find(|d| d.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_sorted_unique_and_documented() {
        for pair in CODES.windows(2) {
            assert!(pair[0].code < pair[1].code, "registry sorted by code");
        }
        for doc in CODES {
            assert!(doc.explain.len() > 100, "{} explain too short", doc.code);
            assert!(doc.section.starts_with('§'), "{}", doc.code);
            assert!(!doc.summary.is_empty(), "{}", doc.code);
        }
        assert!(explain("W110").is_some());
        assert!(explain("w110").is_none(), "lookup is case-sensitive");
        assert!(explain("E999").is_none());
    }
}
