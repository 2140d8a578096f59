//! RUBiS component inventory (Session Façade configuration, §2.2).
//!
//! The architecture is "almost linear": each servlet invokes one dedicated
//! stateless session bean, which accesses the related entity beans. There is
//! no per-client session state anywhere.

use mutsvc_middleware::{ComponentId, ComponentKind, ComponentRegistry};

use super::schema::RubisTables;

/// Handles to RUBiS's logical components.
#[derive(Debug, Clone, Copy)]
pub struct RubisComponents {
    /// The servlet tier as a unit.
    pub web: ComponentId,
    /// `SB_BrowseCategories`
    pub sb_browse_categories: ComponentId,
    /// `SB_BrowseRegions`
    pub sb_browse_regions: ComponentId,
    /// `SB_SearchItemsByCategory`
    pub sb_items_by_category: ComponentId,
    /// `SB_SearchItemsByRegion`
    pub sb_items_by_region: ComponentId,
    /// `SB_ViewItem`
    pub sb_view_item: ComponentId,
    /// `SB_ViewBidHistory`
    pub sb_view_bid_history: ComponentId,
    /// `SB_ViewUserInfo`
    pub sb_view_user_info: ComponentId,
    /// `SB_PutBid` (authentication + bidding form)
    pub sb_put_bid: ComponentId,
    /// `SB_StoreBid`
    pub sb_store_bid: ComponentId,
    /// `SB_PutComment`
    pub sb_put_comment: ComponentId,
    /// `SB_StoreComment`
    pub sb_store_comment: ComponentId,
    /// `Updater` façade for pushed updates.
    pub updater: ComponentId,
    /// `UpdateSubscriber` message-driven bean.
    pub update_subscriber: ComponentId,
    /// `UserEJB`
    pub user: ComponentId,
    /// `ItemEJB`
    pub item: ComponentId,
    /// `BidEJB`
    pub bid: ComponentId,
    /// `CommentEJB`
    pub comment: ComponentId,
    /// `RegionEJB`
    pub region: ComponentId,
    /// `CategoryEJB`
    pub category: ComponentId,
}

impl RubisComponents {
    /// Registers every RUBiS component.
    pub fn register(registry: &mut ComponentRegistry, tables: &RubisTables) -> Self {
        RubisComponents {
            web: registry.register("web", ComponentKind::Web),
            sb_browse_categories: registry
                .register("SB_BrowseCategories", ComponentKind::StatelessSession),
            sb_browse_regions: registry
                .register("SB_BrowseRegions", ComponentKind::StatelessSession),
            sb_items_by_category: registry
                .register("SB_SearchItemsByCategory", ComponentKind::StatelessSession),
            sb_items_by_region: registry
                .register("SB_SearchItemsByRegion", ComponentKind::StatelessSession),
            sb_view_item: registry.register("SB_ViewItem", ComponentKind::StatelessSession),
            sb_view_bid_history: registry
                .register("SB_ViewBidHistory", ComponentKind::StatelessSession),
            sb_view_user_info: registry
                .register("SB_ViewUserInfo", ComponentKind::StatelessSession),
            sb_put_bid: registry.register("SB_PutBid", ComponentKind::StatelessSession),
            sb_store_bid: registry.register("SB_StoreBid", ComponentKind::StatelessSession),
            sb_put_comment: registry.register("SB_PutComment", ComponentKind::StatelessSession),
            sb_store_comment: registry.register("SB_StoreComment", ComponentKind::StatelessSession),
            updater: registry.register("Updater", ComponentKind::StatelessSession),
            update_subscriber: registry.register("UpdateSubscriber", ComponentKind::MessageDriven),
            user: registry.register_entity("UserEJB", tables.user),
            item: registry.register_entity("ItemEJB", tables.item),
            bid: registry.register_entity("BidEJB", tables.bid),
            comment: registry.register_entity("CommentEJB", tables.comment),
            region: registry.register_entity("RegionEJB", tables.region),
            category: registry.register_entity("CategoryEJB", tables.category),
        }
    }

    /// All components.
    pub fn all(&self) -> [ComponentId; 20] {
        [
            self.web,
            self.sb_browse_categories,
            self.sb_browse_regions,
            self.sb_items_by_category,
            self.sb_items_by_region,
            self.sb_view_item,
            self.sb_view_bid_history,
            self.sb_view_user_info,
            self.sb_put_bid,
            self.sb_store_bid,
            self.sb_put_comment,
            self.sb_store_comment,
            self.updater,
            self.update_subscriber,
            self.user,
            self.item,
            self.bid,
            self.comment,
            self.region,
            self.category,
        ]
    }

    /// Entities replicated read-only on the edges in §4.3
    /// ("Read-only BMP versions of Item and User beans were introduced").
    pub fn cacheable_entities(&self) -> [ComponentId; 2] {
        [self.item, self.user]
    }

    /// Session beans deployed on the edges in §4.3 (the read-path façades).
    pub fn edge_read_facades(&self) -> [ComponentId; 3] {
        [
            self.sb_view_item,
            self.sb_view_bid_history,
            self.sb_view_user_info,
        ]
    }

    /// Additional session beans deployed on the edges in §4.4 (every façade
    /// whose queries are now cached locally — browse and form pages).
    pub fn edge_browse_facades(&self) -> [ComponentId; 7] {
        [
            self.sb_browse_categories,
            self.sb_browse_regions,
            self.sb_items_by_category,
            self.sb_items_by_region,
            self.sb_put_bid,
            self.sb_put_comment,
            self.updater,
        ]
    }

    /// The "almost linear" architecture edges: servlet → dedicated façade →
    /// related entities.
    pub fn architecture_edges(&self) -> Vec<(ComponentId, ComponentId)> {
        vec![
            (self.web, self.sb_browse_categories),
            (self.web, self.sb_browse_regions),
            (self.web, self.sb_items_by_category),
            (self.web, self.sb_items_by_region),
            (self.web, self.sb_view_item),
            (self.web, self.sb_view_bid_history),
            (self.web, self.sb_view_user_info),
            (self.web, self.sb_put_bid),
            (self.web, self.sb_store_bid),
            (self.web, self.sb_put_comment),
            (self.web, self.sb_store_comment),
            (self.sb_browse_categories, self.category),
            (self.sb_browse_regions, self.region),
            (self.sb_items_by_category, self.item),
            (self.sb_items_by_region, self.item),
            (self.sb_view_item, self.item),
            (self.sb_view_bid_history, self.bid),
            (self.sb_view_bid_history, self.item),
            (self.sb_view_user_info, self.user),
            (self.sb_view_user_info, self.comment),
            (self.sb_put_bid, self.user),
            (self.sb_put_bid, self.item),
            (self.sb_store_bid, self.user),
            (self.sb_store_bid, self.item),
            (self.sb_store_bid, self.bid),
            (self.sb_put_comment, self.user),
            (self.sb_store_comment, self.user),
            (self.sb_store_comment, self.comment),
            (self.updater, self.item),
            (self.updater, self.user),
            (self.update_subscriber, self.updater),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::super::schema::build_database;
    use super::*;

    #[test]
    fn registry_is_linear_and_stateless() {
        let (_, tables, _) = build_database();
        let mut reg = ComponentRegistry::new();
        let c = RubisComponents::register(&mut reg, &tables);
        assert_eq!(reg.len(), 20);
        // RUBiS keeps no per-client session state: no stateful session beans.
        for id in reg.ids() {
            assert_ne!(reg.spec(id).kind, ComponentKind::StatefulSession);
        }
        assert_eq!(
            reg.spec(c.sb_view_item).kind,
            ComponentKind::StatelessSession
        );
        assert_eq!(reg.spec(c.item).table, Some(tables.item));
    }

    #[test]
    fn servlets_never_touch_entities_directly() {
        let (_, tables, _) = build_database();
        let mut reg = ComponentRegistry::new();
        let c = RubisComponents::register(&mut reg, &tables);
        for (from, to) in c.architecture_edges() {
            if from == c.web {
                assert_eq!(reg.spec(to).kind, ComponentKind::StatelessSession);
            }
        }
    }
}
