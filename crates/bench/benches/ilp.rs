//! Criterion benchmarks of the reconstruction formulations: the
//! class-merged production model on a full and a partial die, and the
//! paper-literal per-tile model on the partial die.

// Test/bench harness: unwraps abort the harness, which is the desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use coremap_core::ilp_model::{reconstruct, reconstruct_full};
use coremap_core::traffic::ObservationSet;
use coremap_mesh::{DieTemplate, Floorplan, FloorplanBuilder, TileCoord};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn full_die_plan() -> Floorplan {
    FloorplanBuilder::new(DieTemplate::SkylakeXcc)
        .build()
        .expect("full die")
}

fn dense_block_plan() -> Floorplan {
    let t = DieTemplate::SkylakeXcc;
    let keep: Vec<TileCoord> = (2..5)
        .flat_map(|r| (0..2).map(move |c| TileCoord::new(r, c)))
        .collect();
    let disable = t
        .core_capable_positions()
        .iter()
        .copied()
        .filter(|p| !keep.contains(p));
    FloorplanBuilder::new(t)
        .disable_all(disable)
        .build()
        .expect("block die")
}

fn reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct");
    group.sample_size(10);
    let plan = full_die_plan();
    let obs = ObservationSet::synthetic(&plan);
    group.bench_function("merged_full_die", |b| {
        b.iter(|| black_box(reconstruct(&obs, plan.dim()).expect("solves")))
    });
    let block = dense_block_plan();
    let block_obs = ObservationSet::synthetic(&block);
    group.bench_function("merged_dense_block", |b| {
        b.iter(|| black_box(reconstruct(&block_obs, block.dim()).expect("solves")))
    });
    group.bench_function("paper_literal_dense_block", |b| {
        b.iter(|| black_box(reconstruct_full(&block_obs, block.dim()).expect("solves")))
    });
    group.finish();
}

criterion_group!(benches, reconstruction);
criterion_main!(benches);
