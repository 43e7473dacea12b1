//! Model test: `RecencyStack` against a plain `Vec` MRU→LRU reference.
//!
//! Every associativity from 1 to 16 is driven with random `touch`,
//! `place_at_depth` and `place_at_height` calls on several sets, with
//! depths and heights past `ways - 1` (which clamp). After each step every
//! observable of the touched set is compared with the reference.

use itpx_policy::RecencyStack;
use itpx_types::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SETS: usize = 3;
const STEPS: usize = 3_000;

/// The reference: one MRU→LRU `Vec` of way ids per set.
struct Model {
    sets: Vec<Vec<usize>>,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        // The stack's initial order: way `d` at depth `d`.
        Self {
            sets: vec![(0..ways).collect(); sets],
        }
    }

    fn place_at_depth(&mut self, set: usize, way: usize, depth: usize) {
        let order = &mut self.sets[set];
        let depth = depth.min(order.len() - 1);
        let cur = order.iter().position(|&w| w == way).expect("way in model");
        order.remove(cur);
        order.insert(depth, way);
    }

    fn place_at_height(&mut self, set: usize, way: usize, height: usize) {
        let ways = self.sets[set].len();
        self.place_at_depth(set, way, ways - 1 - height.min(ways - 1));
    }

    fn recent_mask(&self, set: usize, quota: usize, pred: impl Fn(usize) -> bool) -> u64 {
        self.sets[set]
            .iter()
            .filter(|&&w| pred(w))
            .take(quota)
            .fold(0, |mask, &w| mask | (1 << w))
    }
}

/// A depth or height: mostly in range, sometimes past `ways - 1`, and now
/// and then far past it.
fn position(rng: &mut Rng64, ways: usize) -> usize {
    match rng.index(8) {
        0 => usize::MAX,
        1 => ways + rng.index(4),
        _ => rng.index(ways),
    }
}

fn assert_same(rs: &RecencyStack, model: &Model, set: usize, rng: &mut Rng64, ctx: &str) {
    let order = &model.sets[set];
    let ways = order.len();
    for (depth, &way) in order.iter().enumerate() {
        assert_eq!(rs.depth_of(set, way), depth, "{ctx}: depth_of({way})");
        assert_eq!(
            rs.height_of(set, way),
            ways - 1 - depth,
            "{ctx}: height_of({way})"
        );
    }
    assert_eq!(rs.mru(set), order[0], "{ctx}: mru");
    assert_eq!(rs.lru(set), order[ways - 1], "{ctx}: lru");
    assert_eq!(
        &rs.iter_mru_to_lru(set).collect::<Vec<_>>(),
        order,
        "{ctx}: MRU→LRU"
    );
    let rev: Vec<usize> = order.iter().rev().copied().collect();
    assert_eq!(
        rs.iter_lru_to_mru(set).collect::<Vec<_>>(),
        rev,
        "{ctx}: LRU→MRU"
    );
    for _ in 0..3 {
        let selected = rng.next_u64();
        let pred = |w: usize| (selected >> w) & 1 == 1;
        let quota = rng.index(ways + 3);
        assert_eq!(
            rs.recent_mask(set, quota, pred),
            model.recent_mask(set, quota, pred),
            "{ctx}: recent_mask(quota {quota}, selected {selected:#x})"
        );
    }
}

#[test]
fn recency_stack_matches_the_vec_model_at_every_width() {
    for ways in 1..=16 {
        let mut rng = Rng64::new(0x5eed_0000 + ways as u64);
        let mut rs = RecencyStack::new(SETS, ways);
        let mut model = Model::new(SETS, ways);
        assert_eq!((rs.sets(), rs.ways()), (SETS, ways));
        for set in 0..SETS {
            assert_same(&rs, &model, set, &mut rng, &format!("{ways} ways, initial"));
        }
        for step in 0..STEPS {
            let set = rng.index(SETS);
            let way = rng.index(ways);
            let op = match rng.index(3) {
                0 => {
                    rs.touch(set, way);
                    model.place_at_depth(set, way, 0);
                    format!("touch({set}, {way})")
                }
                1 => {
                    let depth = position(&mut rng, ways);
                    rs.place_at_depth(set, way, depth);
                    model.place_at_depth(set, way, depth);
                    format!("place_at_depth({set}, {way}, {depth})")
                }
                _ => {
                    let height = position(&mut rng, ways);
                    rs.place_at_height(set, way, height);
                    model.place_at_height(set, way, height);
                    format!("place_at_height({set}, {way}, {height})")
                }
            };
            let ctx = format!("{ways} ways, step {step}: {op}");
            assert_same(&rs, &model, set, &mut rng, &ctx);
        }
        for set in 0..SETS {
            assert_same(&rs, &model, set, &mut rng, &format!("{ways} ways, final"));
        }
    }
}

#[test]
fn a_way_outside_the_stack_is_not_present() {
    // `(ways, way)`: the first way past the stack, the way id an unused
    // slot of a narrow stack could be mistaken for, and far past it.
    for (ways, way) in [
        (1, 1),
        (4, 4),
        (12, 12),
        (12, 15),
        (15, 15),
        (16, 16),
        (8, usize::MAX),
    ] {
        let rs = RecencyStack::new(2, ways);
        let probes: [&dyn Fn(); 3] = [
            &|| {
                let _ = rs.depth_of(1, way);
            },
            &|| {
                let _ = rs.height_of(1, way);
            },
            &|| rs.clone().touch(1, way),
        ];
        for probe in probes {
            let err = catch_unwind(AssertUnwindSafe(probe))
                .expect_err(&format!("way {way} of a {ways}-way stack must panic"));
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("way not present"),
                "{ways} ways, way {way}: {msg}"
            );
        }
    }
}
