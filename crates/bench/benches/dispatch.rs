//! Dispatch microbenchmark: the cost of lowering a real benchmark into the
//! block/superinstruction table that `run_blocks` dispatches on, plus the
//! lowering's fusion statistics. Executing that table is timed end to end
//! by `pipeline_stages`'s `classic_execution/*`. Set
//! `AMNESIAC_BENCH_JSON=<path>` to also dump the measurement and the
//! fusion statistics as JSON.

use amnesiac_bench::Bencher;
use amnesiac_cfg::{BlockTable, Fusion};
use amnesiac_telemetry::Json;
use amnesiac_workloads::{build_focal, Scale};

fn main() {
    let mut b = Bencher::new(20);
    let program = build_focal("cg", Scale::Test).program;
    b.bench("dispatch/block_table_build", || BlockTable::build(&program));

    let table = BlockTable::build(&program);
    let stats = table.stats();
    println!(
        "fusion: {} blocks, {} insts, {} pairs fused \
         (cmp_branch {}, load_alu {}, alui_store {}, li_alu {}), \
         avg block len {:.2}",
        stats.blocks,
        stats.insts,
        stats.fused_pairs(),
        stats.fused_of(Fusion::CmpBranch),
        stats.fused_of(Fusion::LoadAlu),
        stats.fused_of(Fusion::AluiStore),
        stats.fused_of(Fusion::LiAlu),
        stats.avg_block_len(),
    );

    if let Ok(path) = std::env::var("AMNESIAC_BENCH_JSON") {
        let mut by_kind = Json::obj();
        for kind in Fusion::ALL {
            by_kind = by_kind.with(kind.label(), stats.fused_of(kind));
        }
        let dump = Json::obj().with("measurements", b.to_json()).with(
            "fusion",
            Json::obj()
                .with("blocks", stats.blocks)
                .with("insts", stats.insts)
                .with("fused_pairs", stats.fused_pairs())
                .with("fused_by_kind", by_kind)
                .with("dispatch_units", stats.dispatch_units())
                .with("avg_block_len", stats.avg_block_len()),
        );
        std::fs::write(&path, dump.pretty()).expect("write bench JSON");
        println!("wrote {path}");
    }
}
