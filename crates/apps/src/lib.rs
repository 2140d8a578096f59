//! # mutsvc-apps — the paper's two test applications
//!
//! Component models of **Java Pet Store 1.1.2** ([`petstore`]) and **RUBiS**
//! ([`rubis`]) as studied by the paper: their schemas (§3.4 sizing), their
//! component inventories (Table 1 / §2.2), the call trees of every measured
//! page (Tables 6/7 columns) and their service usage patterns (Tables 2–5).
//!
//! The [`App`] enum gives the workload driver a uniform way to generate
//! sessions for either application:
//!
//! ```
//! use mutsvc_apps::{App, SessionKind};
//! use mutsvc_desim::SimRng;
//!
//! let (app, _registry, _db) = App::petstore(true);
//! let mut rng = SimRng::seed_from_u64(1);
//! let mut session = app.new_session(SessionKind::Browser, &mut rng);
//! let (label, request) = app.next_page(&mut session, &mut rng).unwrap();
//! assert_eq!(label, "Main");
//! assert!(request.response_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod petstore;
pub mod rubis;

use mutsvc_desim::rng::SimRng;
use mutsvc_middleware::{ComponentRegistry, PageRequest};
use mutsvc_relstore::Database;

pub use petstore::PetStore;
pub use rubis::Rubis;

/// A fully-drawn page request specification: which page plus the sampled
/// parameters, before the call tree is materialised.
///
/// Splitting [`App::next_page`] into [`App::draw_page`] (consumes RNG,
/// returns a `Copy` spec) and [`App::build_page`] (pure, no RNG) lets the
/// workload driver key a bound-program cache on [`PageSpec::key`] and skip
/// the build entirely on a cache hit.
#[derive(Debug, Clone, Copy)]
pub enum PageSpec {
    /// A Pet Store page with its sampled parameters.
    PetStore(petstore::PsPage, petstore::PsParams),
    /// A RUBiS page with its sampled parameters.
    Rubis(rubis::RubisPage, rubis::RubisParams),
}

/// The identity of a page request's *shape*: two requests with equal keys
/// produce structurally identical call trees (same components, same queries,
/// same mutant parameters), so a bound program for one replays for the other.
///
/// `a`/`b` hold only the parameters the page actually reads — e.g. a Pet
/// Store *Category* page keys on the category row alone, so draws that
/// differ only in the (unused) account or keyword share a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Application discriminant (0 = Pet Store, 1 = RUBiS).
    pub app: u8,
    /// Page discriminant within the application.
    pub page: u8,
    /// First used parameter (0 when unused).
    pub a: u64,
    /// Second used parameter (0 when unused).
    pub b: u64,
}

impl PageSpec {
    /// The page's reporting label (Table 6/7 column name).
    pub fn label(&self) -> &'static str {
        match self {
            PageSpec::PetStore(page, _) => page.name(),
            PageSpec::Rubis(page, _) => page.name(),
        }
    }

    /// The cache key of this request: page discriminant plus the projection
    /// of the parameters this page's call tree actually depends on.
    pub fn key(&self) -> PageKey {
        use petstore::PsPage as P;
        use rubis::RubisPage as R;
        match self {
            PageSpec::PetStore(page, p) => {
                let (a, b) = match page {
                    P::Main | P::SignIn | P::Checkout | P::PlaceOrder | P::Billing | P::SignOut => {
                        (0, 0)
                    }
                    P::Category => (p.category.0, 0),
                    P::Product => (p.product.0, 0),
                    P::Item | P::Cart => (p.item.0, 0),
                    P::Search => (p.keyword as u64, 0),
                    P::VerifySignIn => (p.account.0, 0),
                    P::Commit => (p.account.0, p.item.0),
                };
                PageKey {
                    app: 0,
                    page: *page as u8,
                    a,
                    b,
                }
            }
            PageSpec::Rubis(page, p) => {
                let (a, b) = match page {
                    R::Main
                    | R::Browse
                    | R::AllCategories
                    | R::AllRegions
                    | R::Region
                    | R::PutBidAuth
                    | R::PutCommentAuth => (0, 0),
                    R::Category => (p.category.0, 0),
                    R::CategoryRegion => (p.category.0, p.region.0),
                    R::Item | R::Bids => (p.item.0, 0),
                    R::UserInfo => (p.target_user.0, 0),
                    R::PutBidForm | R::StoreBid => (p.user.0, p.item.0),
                    R::PutCommentForm | R::StoreComment => (p.user.0, p.target_user.0),
                };
                PageKey {
                    app: 1,
                    page: *page as u8,
                    a,
                    b,
                }
            }
        }
    }
}

/// The two service usage pattern families of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionKind {
    /// Read-only browsing (Pet Store *Browser*, RUBiS *Browser*).
    Browser,
    /// Read-write sessions (Pet Store *Buyer*, RUBiS *Bidder*).
    Transactional,
}

/// One of the two applications, with uniform session generation.
#[derive(Debug, Clone)]
pub enum App {
    /// Java Pet Store.
    PetStore(PetStore),
    /// RUBiS.
    Rubis(Rubis),
}

/// Generator state of one client session.
#[derive(Debug, Clone)]
pub enum SessionState {
    /// Pet Store browser.
    PsBrowser(petstore::BrowserSession),
    /// Pet Store buyer.
    PsBuyer(petstore::BuyerSession),
    /// RUBiS browser.
    RubisBrowser(rubis::BrowserSession),
    /// RUBiS bidder.
    RubisBidder(rubis::BidderSession),
}

impl App {
    /// Builds the Pet Store application (see [`PetStore::build`]).
    pub fn petstore(facade: bool) -> (App, ComponentRegistry, Database) {
        let (app, registry, db) = PetStore::build(facade);
        (App::PetStore(app), registry, db)
    }

    /// Builds the RUBiS application.
    pub fn rubis() -> (App, ComponentRegistry, Database) {
        let (app, registry, db) = Rubis::build();
        (App::Rubis(app), registry, db)
    }

    /// The application name.
    pub fn name(&self) -> &'static str {
        match self {
            App::PetStore(_) => "petstore",
            App::Rubis(_) => "rubis",
        }
    }

    /// The label of the transactional pattern ("Buyer" / "Bidder").
    pub fn transactional_label(&self) -> &'static str {
        match self {
            App::PetStore(_) => "Buyer",
            App::Rubis(_) => "Bidder",
        }
    }

    /// Starts a new session of the given kind.
    pub fn new_session(&self, kind: SessionKind, rng: &mut SimRng) -> SessionState {
        match (self, kind) {
            (App::PetStore(_), SessionKind::Browser) => {
                SessionState::PsBrowser(petstore::BrowserSession::new())
            }
            (App::PetStore(app), SessionKind::Transactional) => {
                SessionState::PsBuyer(petstore::BuyerSession::new(&app.shape, rng))
            }
            (App::Rubis(_), SessionKind::Browser) => {
                SessionState::RubisBrowser(rubis::BrowserSession::new())
            }
            (App::Rubis(app), SessionKind::Transactional) => {
                SessionState::RubisBidder(rubis::BidderSession::new(&app.shape, rng))
            }
        }
    }

    /// Draws the next page of a session as a [`PageSpec`], or `None` when
    /// the session is over. This is the only step that consumes RNG; the
    /// call tree is materialised separately by [`Self::build_page`], and a
    /// bound-program cache hit on [`PageSpec::key`] can skip it entirely.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to the other application.
    pub fn draw_page(
        &self,
        state: &mut SessionState,
        rng: &mut SimRng,
    ) -> Option<(&'static str, PageSpec)> {
        let spec = match (self, state) {
            (App::PetStore(app), SessionState::PsBrowser(s)) => s
                .next(&app.shape, rng)
                .map(|(page, params)| PageSpec::PetStore(page, params)),
            (App::PetStore(_), SessionState::PsBuyer(s)) => s
                .next()
                .map(|(page, params)| PageSpec::PetStore(page, params)),
            (App::Rubis(app), SessionState::RubisBrowser(s)) => s
                .next(&app.shape, rng)
                .map(|(page, params)| PageSpec::Rubis(page, params)),
            (App::Rubis(_), SessionState::RubisBidder(s)) => {
                s.next().map(|(page, params)| PageSpec::Rubis(page, params))
            }
            _ => panic!("session state does not belong to this application"),
        };
        spec.map(|s| (s.label(), s))
    }

    /// Materialises the call tree of a drawn page. Pure: no RNG, and two
    /// specs with equal [`PageSpec::key`]s build structurally identical
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if `spec` belongs to the other application.
    pub fn build_page(&self, spec: &PageSpec) -> PageRequest {
        match (self, spec) {
            (App::PetStore(app), PageSpec::PetStore(page, params)) => app.page(*page, params),
            (App::Rubis(app), PageSpec::Rubis(page, params)) => app.page(*page, params),
            _ => panic!("page spec does not belong to this application"),
        }
    }

    /// Draws the next page of a session, or `None` when the session is over.
    /// Convenience wrapper: [`Self::draw_page`] followed by
    /// [`Self::build_page`].
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to the other application.
    pub fn next_page(
        &self,
        state: &mut SessionState,
        rng: &mut SimRng,
    ) -> Option<(&'static str, PageRequest)> {
        self.draw_page(state, rng)
            .map(|(label, spec)| (label, self.build_page(&spec)))
    }

    /// Every measured page, built with fixed representative parameters (the
    /// static analyzer's page inventory).
    pub fn all_pages(&self) -> Vec<PageRequest> {
        match self {
            App::PetStore(app) => app.all_pages(),
            App::Rubis(app) => app.all_pages(),
        }
    }

    /// Every cacheable query instance the workload can issue (for eager
    /// edge-cache population).
    pub fn cacheable_query_instances(&self) -> Vec<(String, mutsvc_relstore::Query)> {
        match self {
            App::PetStore(app) => app.cacheable_query_instances(),
            App::Rubis(app) => app.cacheable_query_instances(),
        }
    }

    /// Static page-flow graphs of the application's usage patterns, for
    /// inter-page dataflow: one [`SessionFlow`] per pattern.
    pub fn session_flows(&self) -> Vec<SessionFlow> {
        match self {
            App::PetStore(_) => vec![
                SessionFlow::mixed(
                    "Browser",
                    petstore::BROWSER_SESSION_LENGTH,
                    petstore::BROWSER_MIX
                        .iter()
                        .map(|(p, w)| (p.name(), *w))
                        .collect(),
                ),
                SessionFlow::chain(
                    "Buyer",
                    petstore::BUYER_SEQUENCE.iter().map(|p| p.name()).collect(),
                ),
            ],
            App::Rubis(_) => vec![
                SessionFlow::mixed(
                    "Browser",
                    rubis::BROWSER_SESSION_LENGTH,
                    rubis::BROWSER_MIX
                        .iter()
                        .map(|(p, w)| (p.name(), *w))
                        .collect(),
                ),
                SessionFlow::chain(
                    "Bidder",
                    rubis::BIDDER_SEQUENCE.iter().map(|p| p.name()).collect(),
                ),
            ],
        }
    }
}

/// One service usage pattern as a static page-flow graph: which pages a
/// session of the pattern can issue, the order constraints between them, and
/// the stationary per-request weight of each page.
///
/// Two shapes cover the paper's patterns: **chains** (transactional
/// sequences — page *i* is always followed by page *i+1*) and **mixed**
/// sessions (browsers — a fixed first page, then independent weighted draws,
/// so any page may follow any other).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionFlow {
    /// Pattern label ("Browser", "Buyer", "Bidder").
    pub pattern: &'static str,
    /// The session kind the pattern belongs to.
    pub kind: SessionKind,
    /// Page labels; for chains, in issue order, with `pages[0]` always the
    /// first request of a session.
    pub pages: Vec<&'static str>,
    /// `true`: pages are issued strictly in `pages` order; `false`: after
    /// `pages[0]`, any page can follow any other.
    pub chain: bool,
    /// Stationary probability that a uniformly sampled request of this
    /// pattern is each page (aligned with `pages`; sums to 1).
    pub weights: Vec<f64>,
}

impl SessionFlow {
    /// A strict page sequence with uniform per-request weights.
    fn chain(pattern: &'static str, pages: Vec<&'static str>) -> SessionFlow {
        let w = 1.0 / pages.len() as f64;
        SessionFlow {
            pattern,
            kind: SessionKind::Transactional,
            weights: vec![w; pages.len()],
            pages,
            chain: true,
        }
    }

    /// A fixed first page (`mix[0]`) followed by `length − 1` independent
    /// draws from the percentage mix.
    fn mixed(pattern: &'static str, length: usize, mix: Vec<(&'static str, f64)>) -> SessionFlow {
        let first = 1.0 / length as f64;
        let rest = (length - 1) as f64 / length as f64;
        let weights = mix
            .iter()
            .enumerate()
            .map(|(i, (_, pct))| rest * pct / 100.0 + if i == 0 { first } else { 0.0 })
            .collect();
        SessionFlow {
            pattern,
            kind: SessionKind::Browser,
            pages: mix.into_iter().map(|(p, _)| p).collect(),
            chain: false,
            weights,
        }
    }

    /// The weight of a page under this pattern (0 when the pattern never
    /// issues the page).
    pub fn weight_of(&self, page: &str) -> f64 {
        self.pages
            .iter()
            .zip(&self.weights)
            .filter(|(p, _)| **p == page)
            .map(|(_, w)| w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_drain_to_none() {
        let lengths = [
            (
                App::petstore(true).0,
                [
                    petstore::BROWSER_SESSION_LENGTH,
                    petstore::BUYER_SEQUENCE.len(),
                ],
            ),
            (
                App::rubis().0,
                [rubis::BROWSER_SESSION_LENGTH, rubis::BIDDER_SEQUENCE.len()],
            ),
        ];
        for (app, [browser, transactional]) in lengths {
            let mut rng = SimRng::seed_from_u64(5);
            for (kind, length) in [
                (SessionKind::Browser, browser),
                (SessionKind::Transactional, transactional),
            ] {
                let mut s = app.new_session(kind, &mut rng);
                let mut n = 0;
                while app.next_page(&mut s, &mut rng).is_some() {
                    n += 1;
                }
                assert_eq!(n, length, "{} {kind:?}", app.name());
                assert!(app.next_page(&mut s, &mut rng).is_none());
            }
        }
    }

    #[test]
    fn session_flows_cover_patterns_and_weights_sum_to_one() {
        for (app, _, _) in [App::petstore(true), App::rubis()] {
            let flows = app.session_flows();
            assert_eq!(flows.len(), 2, "{}", app.name());
            for flow in &flows {
                assert_eq!(flow.pages.len(), flow.weights.len());
                let total: f64 = flow.weights.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{} {} weights sum to {total}",
                    app.name(),
                    flow.pattern
                );
                assert!(flow.weights.iter().all(|&w| w > 0.0));
            }
            let browser = &flows[0];
            assert_eq!(browser.pages[0], "Main", "sessions open at Main");
            assert!(!browser.chain);
            let chain = &flows[1];
            assert_eq!(chain.pattern, app.transactional_label());
            assert!(chain.chain);
            // Every page of the pattern graph is a page the app can build.
            let known: Vec<String> = app.all_pages().iter().map(|p| p.page.clone()).collect();
            for flow in &flows {
                for page in &flow.pages {
                    assert!(known.iter().any(|k| k == page), "{page} unknown");
                }
            }
            // The stationary weight of every paper page is reachable via
            // weight_of, and unknown pages weigh nothing.
            assert!(browser.weight_of("Main") > 0.0);
            assert_eq!(browser.weight_of("NotAPage"), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn cross_app_session_state_panics() {
        let (ps, _, _) = App::petstore(true);
        let (rubis, _, _) = App::rubis();
        let mut rng = SimRng::seed_from_u64(1);
        let mut s = rubis.new_session(SessionKind::Browser, &mut rng);
        let _ = ps.next_page(&mut s, &mut rng);
    }

    #[test]
    fn draw_then_build_matches_next_page() {
        for (app, _, _) in [App::petstore(true), App::rubis()] {
            // Identical seeds: draw_page must consume the same RNG stream as
            // next_page and build_page must add nothing.
            let mut rng_a = SimRng::seed_from_u64(7);
            let mut rng_b = SimRng::seed_from_u64(7);
            let mut sa = app.new_session(SessionKind::Browser, &mut rng_a);
            let mut sb = app.new_session(SessionKind::Browser, &mut rng_b);
            loop {
                let via_next = app.next_page(&mut sa, &mut rng_a);
                let via_split = app.draw_page(&mut sb, &mut rng_b);
                match (via_next, via_split) {
                    (None, None) => break,
                    (Some((la, ra)), Some((lb, spec))) => {
                        assert_eq!(la, lb);
                        let rb = app.build_page(&spec);
                        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
                    }
                    (a, b) => panic!("draw/build diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn page_keys_project_only_used_parameters() {
        let (ps, _, _) = App::petstore(true);
        let App::PetStore(app) = &ps else {
            unreachable!()
        };
        let mut p1 = app.representative_params();
        let mut p2 = p1;
        // Category ignores account and item: same key.
        p2.account = app.shape.accounts[3];
        p2.item = app.shape.items(p1.product)[1];
        let k1 = PageSpec::PetStore(petstore::PsPage::Category, p1).key();
        let k2 = PageSpec::PetStore(petstore::PsPage::Category, p2).key();
        assert_eq!(k1, k2);
        // ... but a different category changes it.
        p2.category = app.shape.categories[1];
        let k3 = PageSpec::PetStore(petstore::PsPage::Category, p2).key();
        assert_ne!(k1, k3);
        // Commit keys on both account and item.
        p1.account = app.shape.accounts[0];
        p2 = p1;
        p2.item = app.shape.items(p1.product)[1];
        let c1 = PageSpec::PetStore(petstore::PsPage::Commit, p1).key();
        let c2 = PageSpec::PetStore(petstore::PsPage::Commit, p2).key();
        assert_ne!(c1, c2);
        // Keys are distinct across apps and pages.
        let (rb, _, _) = App::rubis();
        let App::Rubis(rubis_app) = &rb else {
            unreachable!()
        };
        let rk = PageSpec::Rubis(rubis::RubisPage::Main, rubis_app.representative_params()).key();
        let pk = PageSpec::PetStore(petstore::PsPage::Main, p1).key();
        assert_ne!(rk, pk);
    }

    #[test]
    fn equal_keys_build_identical_trees() {
        // Two draws that differ only in unused parameters must build
        // byte-identical call trees — the soundness condition for keying a
        // bound-program cache on PageKey.
        let (ps, _, _) = App::petstore(true);
        let App::PetStore(app) = &ps else {
            unreachable!()
        };
        let p1 = app.representative_params();
        let mut p2 = p1;
        p2.account = app.shape.accounts[5];
        p2.keyword = 2;
        let s1 = PageSpec::PetStore(petstore::PsPage::Category, p1);
        let s2 = PageSpec::PetStore(petstore::PsPage::Category, p2);
        assert_eq!(s1.key(), s2.key());
        let r1 = ps.build_page(&s1);
        let r2 = ps.build_page(&s2);
        assert_eq!(format!("{:?}", r1), format!("{:?}", r2));
    }

    #[test]
    fn labels() {
        let (ps, _, _) = App::petstore(true);
        let (rubis, _, _) = App::rubis();
        assert_eq!(ps.name(), "petstore");
        assert_eq!(ps.transactional_label(), "Buyer");
        assert_eq!(rubis.transactional_label(), "Bidder");
    }
}
