//! Pins `SetGrid<T>` against a nested-`Vec` reference model.
//!
//! The policy-metadata migration replaced every `Vec<Vec<T>>` with a
//! `SetGrid<T>`; byte-identical simulation results depend on the two
//! layouts being observationally equivalent. These properties drive both
//! through random geometries and read/write/fill sequences and require
//! every row to agree after every step.

use itpx_types::{SetGrid, SetMask};
use proptest::prelude::*;

/// One step of the access-sequence property.
#[derive(Debug, Clone)]
enum Op {
    Write { set: usize, i: usize, v: u32 },
    Fill { v: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The in-tree proptest shim's `prop_oneof!` is unweighted; bias toward
    // writes by listing the write arm several times.
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<u32>()).prop_map(|(set, i, v)| Op::Write {
            set,
            i,
            v
        }),
        (any::<usize>(), any::<usize>(), any::<u32>()).prop_map(|(set, i, v)| Op::Write {
            set,
            i,
            v
        }),
        (any::<usize>(), any::<usize>(), any::<u32>()).prop_map(|(set, i, v)| Op::Write {
            set,
            i,
            v
        }),
        any::<u32>().prop_map(|v| Op::Fill { v }),
    ]
}

proptest! {
    #[test]
    fn grid_matches_nested_vec_model(
        sets in 1usize..32,
        width in 1usize..16,
        init in any::<u32>(),
        ops in prop::collection::vec(op_strategy(), 0..64),
    ) {
        let mut grid = SetGrid::new(sets, width, init);
        let mut model: Vec<Vec<u32>> = vec![vec![init; width]; sets];
        prop_assert_eq!(grid.sets(), sets);
        prop_assert_eq!(grid.width(), width);
        for op in ops.clone() {
            match op {
                Op::Write { set, i, v } => {
                    let (set, i) = (set % sets, i % width);
                    grid.row_mut(set)[i] = v;
                    model[set][i] = v;
                }
                Op::Fill { v } => {
                    grid.fill(v);
                    for row in &mut model {
                        row.fill(v);
                    }
                }
            }
            for (set, row) in model.iter().enumerate() {
                prop_assert_eq!(grid.row(set), row.as_slice());
            }
        }
    }

    #[test]
    fn rows_never_alias(sets in 2usize..32, width in 1usize..16, v in any::<u32>()) {
        let mut grid = SetGrid::new(sets, width, 0u32);
        grid.row_mut(0)[width - 1] = v;
        for set in 1..sets {
            prop_assert!(grid.row(set).iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn mask_is_modulo_for_pow2(shift in 0u32..16, key in any::<u64>()) {
        let sets = 1usize << shift;
        let mask = SetMask::new(sets);
        prop_assert_eq!(mask.set_of(key), (key as usize) % sets);
        prop_assert_eq!(mask.sets(), sets);
    }
}
