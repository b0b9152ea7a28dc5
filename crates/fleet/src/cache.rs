//! The content-addressed map cache: one ILP solve per unique campaign.
//!
//! The paper's fleet survey (Table II) found tiny pattern diversity per
//! SKU — 14/26/53/6 unique layouts across hundreds of instances — so in a
//! fleet campaign almost every step-3 solve is a repeat of one already
//! done. [`MapCache`] exploits that: a shared, thread-safe store of
//! [`CachedSolve`]s keyed by
//! [`ObservationSignature`](coremap_core::ObservationSignature), plugged
//! into [`CoreMapper`](coremap_core::CoreMapper) through the
//! [`SolveCache`] seam.
//!
//! The implementation is *single-flight*: when several workers race on the
//! same fresh signature, exactly one (the leader) runs the ILP while the
//! others block on a condvar and reuse the published result. That keeps
//! the number of solves per unique signature — and therefore every
//! deterministic `ilp.*` counter total — independent of worker count and
//! scheduling, which the repo's metrics-determinism discipline requires.
//! If a leader's solve fails or panics, the entry is abandoned and one
//! waiter is promoted to try again, so waiters never block forever.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use coremap_core::{CachedSolve, ObservationSignature, SolveCache};

/// One slot of the cache.
#[derive(Debug, Clone)]
enum Entry {
    /// A leader is currently solving this signature.
    InFlight,
    /// The finished solve.
    Ready(CachedSolve),
}

/// A shared single-flight solve cache for fleet campaigns.
///
/// Seed it from a [`FleetDb`](crate::FleetDb)'s persisted solves for warm
/// runs, hand it to
/// [`FleetRunner::map_instances_cached`](crate::FleetRunner::map_instances_cached),
/// then drain the new entries back into the database with
/// [`snapshot`](Self::snapshot).
#[derive(Debug, Default)]
pub struct MapCache {
    state: Mutex<BTreeMap<ObservationSignature, Entry>>,
    ready: Condvar,
}

/// Locks the cache map, recovering the data if a holder panicked: every
/// write under this mutex is a single self-contained slot transition, so a
/// poisoned lock never leaves the map torn.
fn lock_clean<'a>(
    m: &'a Mutex<BTreeMap<ObservationSignature, Entry>>,
) -> MutexGuard<'a, BTreeMap<ObservationSignature, Entry>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MapCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates the cache with an already-finished solve (no
    /// single-flight involved) — used to warm a campaign from a persisted
    /// fleet database.
    pub fn seed(&self, sig: ObservationSignature, solve: CachedSolve) {
        lock_clean(&self.state).insert(sig, Entry::Ready(solve));
    }

    /// Number of finished solves currently stored (in-flight entries are
    /// counted by [`in_flight`](Self::in_flight), not here).
    pub fn len(&self) -> usize {
        lock_clean(&self.state)
            .values()
            .filter(|e| matches!(e, Entry::Ready(_)))
            .count()
    }

    /// A non-blocking read: the finished solve for `sig`, if published.
    /// Unlike [`SolveCache::acquire`] this never elects the caller leader
    /// and never waits — the daemon's `map-by-signature` query path must
    /// answer immediately without taking on solve obligations.
    pub fn peek(&self, sig: &ObservationSignature) -> Option<CachedSolve> {
        match lock_clean(&self.state).get(sig) {
            Some(Entry::Ready(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Number of signatures a leader is currently solving.
    pub fn in_flight(&self) -> usize {
        lock_clean(&self.state)
            .values()
            .filter(|e| matches!(e, Entry::InFlight))
            .count()
    }

    /// Whether the cache is truly idle and empty: no finished solves *and*
    /// no leader mid-solve. A daemon `stats` query must not report an
    /// empty cache while a solve is in flight, so in-flight entries count
    /// as non-empty here even though [`len`](Self::len) excludes them.
    pub fn is_empty(&self) -> bool {
        let guard = lock_clean(&self.state);
        guard.is_empty()
    }

    /// All finished solves, in signature order — the deterministic export
    /// persisted into the fleet database after a campaign. In-flight
    /// entries (only possible while workers are still running) are not
    /// included.
    pub fn snapshot(&self) -> BTreeMap<ObservationSignature, CachedSolve> {
        lock_clean(&self.state)
            .iter()
            .filter_map(|(sig, e)| match e {
                Entry::Ready(s) => Some((*sig, s.clone())),
                Entry::InFlight => None,
            })
            .collect()
    }
}

impl SolveCache for MapCache {
    fn acquire(&self, sig: &ObservationSignature) -> Option<CachedSolve> {
        let mut guard = lock_clean(&self.state);
        loop {
            match guard.get(sig) {
                None => {
                    guard.insert(*sig, Entry::InFlight);
                    return None; // caller elected leader
                }
                Some(Entry::Ready(solve)) => return Some(solve.clone()),
                Some(Entry::InFlight) => {
                    guard = self
                        .ready
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn publish(&self, sig: &ObservationSignature, solve: &CachedSolve) {
        lock_clean(&self.state).insert(*sig, Entry::Ready(solve.clone()));
        self.ready.notify_all();
    }

    fn abandon(&self, sig: &ObservationSignature) {
        let mut guard = lock_clean(&self.state);
        if matches!(guard.get(sig), Some(Entry::InFlight)) {
            guard.remove(sig);
        }
        drop(guard);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{GridDim, TileCoord};

    fn sig(tag: u8) -> ObservationSignature {
        ObservationSignature::from_hex(&format!("{:032x}", u128::from(tag))).unwrap()
    }

    fn solve(rows: usize) -> CachedSolve {
        CachedSolve {
            dim: GridDim::new(rows, 2),
            positions: vec![TileCoord::new(0, 0)],
            objective: 1.0,
            quality: coremap_core::MapQuality::default(),
        }
    }

    #[test]
    fn first_acquire_elects_leader_publish_makes_hit() {
        let cache = MapCache::new();
        assert!(cache.acquire(&sig(1)).is_none());
        cache.publish(&sig(1), &solve(2));
        let hit = cache.acquire(&sig(1)).expect("published entry is a hit");
        assert_eq!(hit.dim, GridDim::new(2, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn abandon_promotes_the_next_caller_to_leader() {
        let cache = MapCache::new();
        assert!(cache.acquire(&sig(1)).is_none());
        cache.abandon(&sig(1));
        assert!(cache.acquire(&sig(1)).is_none(), "leadership re-electable");
    }

    #[test]
    fn waiters_block_until_leader_publishes() {
        let cache = MapCache::new();
        assert!(cache.acquire(&sig(7)).is_none()); // main thread leads
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.acquire(&sig(7)));
            // The waiter must see the published solve, however the
            // publish/wait interleaving lands.
            cache.publish(&sig(7), &solve(3));
            let got = waiter.join().unwrap().expect("waiter gets the solve");
            assert_eq!(got.dim, GridDim::new(3, 2));
        });
    }

    /// Condvar wake audit: `acquire` waits inside a predicate loop, so a
    /// spurious wakeup (modelled by bare `notify_all` calls with no state
    /// change) must re-check the entry and keep waiting — it can never
    /// surface a stale `None` that would elect a second leader while the
    /// first is still solving.
    #[test]
    fn spurious_wakeup_never_returns_a_stale_none() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let cache = MapCache::new();
        assert!(cache.acquire(&sig(9)).is_none()); // main thread leads
        let woke = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let got = cache.acquire(&sig(9));
                woke.store(true, Ordering::SeqCst);
                got
            });
            // Let the waiter park, then fire wakeups that carry no
            // published solve.
            std::thread::sleep(Duration::from_millis(20));
            for _ in 0..8 {
                cache.ready.notify_all();
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(
                !woke.load(Ordering::SeqCst),
                "spurious wakeup returned before the leader published"
            );
            cache.publish(&sig(9), &solve(4));
            let got = waiter.join().unwrap();
            assert_eq!(
                got.expect("waiter must see the published solve").dim,
                GridDim::new(4, 2)
            );
        });
    }

    #[test]
    fn in_flight_entries_are_counted_and_block_is_empty() {
        let cache = MapCache::new();
        assert!(cache.is_empty());
        assert_eq!((cache.len(), cache.in_flight()), (0, 0));

        // A leader mid-solve: no finished solves, but NOT empty — a daemon
        // stats query must see the cache as working.
        assert!(cache.acquire(&sig(1)).is_none());
        assert_eq!((cache.len(), cache.in_flight()), (0, 1));
        assert!(!cache.is_empty());

        cache.publish(&sig(1), &solve(2));
        assert_eq!((cache.len(), cache.in_flight()), (1, 0));
        assert!(!cache.is_empty());

        // Abandoning the only in-flight entry of an otherwise empty cache
        // returns it to truly empty.
        let fresh = MapCache::new();
        assert!(fresh.acquire(&sig(2)).is_none());
        fresh.abandon(&sig(2));
        assert!(fresh.is_empty());
        assert_eq!(fresh.in_flight(), 0);
    }

    #[test]
    fn seed_and_snapshot_round_trip() {
        let cache = MapCache::new();
        cache.seed(sig(2), solve(2));
        cache.seed(sig(1), solve(4));
        assert!(cache.acquire(&sig(9)).is_none()); // in-flight, not exported
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);
        let keys: Vec<_> = snap.keys().copied().collect();
        assert_eq!(keys, vec![sig(1), sig(2)], "signature order");
        assert_eq!(snap[&sig(1)].dim, GridDim::new(4, 2));
    }

    #[test]
    fn corrupt_seeded_solve_is_a_typed_error_not_a_map() {
        use crate::{CloudFleet, CpuModel};
        use coremap_core::{CoreMapper, MapError, PlacementDefect};

        let chip = CloudFleet::with_seed(2022)
            .instance(CpuModel::Platinum8124M, 0)
            .unwrap();
        let mapper = CoreMapper::new();
        let (map, diag) = mapper.map_with_diagnostics(&mut chip.boot()).unwrap();
        let sig = diag.signature.expect("paper-literal runs are signed");
        let dim = map.dim();
        let wrong = GridDim::new(dim.rows + 1, dim.cols);
        let cache = MapCache::new();
        cache.seed(
            sig,
            CachedSolve {
                dim: wrong,
                positions: (0..map.cha_count())
                    .map(|cha| map.coord_of_cha(coremap_mesh::ChaId::new(cha as u16)))
                    .collect(),
                objective: diag.ilp_objective,
                quality: diag.quality,
            },
        );
        let err = mapper.map_cached(&mut chip.boot(), &cache).unwrap_err();
        assert_eq!(
            err,
            MapError::CorruptCachedSolve {
                signature: sig,
                defect: PlacementDefect::WrongGrid {
                    expected: dim,
                    found: wrong,
                },
            }
        );
        assert!(err.to_string().contains(&sig.to_hex()), "{err}");
    }
}
