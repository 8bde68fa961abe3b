//! Land-registry scenario: a few thousand convex parcels; planning queries
//! are half-plane selections.
//!
//! * "Which parcels would a coastal flood below the line y = 0.2x − 30
//!   touch?" — an EXIST selection.
//! * "Which parcels lie entirely inland of it?" — an ALL selection.
//!
//! The example compares the index's strategies (restricted when the slope
//! is predefined, T2 otherwise) with a sequential scan, printing their
//! page-access costs side by side.
//!
//! ```text
//! cargo run --release --example land_registry
//! ```

use constraint_db::index::query::Strategy as S;
use constraint_db::prelude::*;

fn main() {
    let n = 3000;
    println!("generating {n} parcels (small objects, paper's Section 5 setup)...");
    let spec = DatasetSpec::paper_1999(n, ObjectSize::Small, 2024);
    let parcels = spec.generate();

    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("parcels", 2).unwrap();
    for p in &parcels {
        db.insert("parcels", p.clone()).unwrap();
    }
    db.build_dual_index("parcels", SlopeSet::uniform_tan(4))
        .unwrap();
    println!(
        "database built: {} live pages ({} heap + index)",
        db.live_pages(),
        db.relation("parcels").unwrap().page_count()
    );

    let flood = HalfPlane::below(0.2, -30.0); // y <= 0.2x - 30
    let inland = flood.complement(); //          y >= 0.2x - 30

    println!("\nflood line: y = 0.2x - 30");
    for (label, sel) in [
        ("EXIST(flooded)  ", Selection::exist(flood.clone())),
        ("ALL(inland)     ", Selection::all(inland.clone())),
    ] {
        println!("\n  {label}");
        let baseline = db.query_with("parcels", sel.clone(), S::Scan).unwrap();
        for strat in [S::T2, S::Auto, S::Scan] {
            let r = db.query_with("parcels", sel.clone(), strat).unwrap();
            assert_eq!(r.ids(), baseline.ids(), "all strategies agree");
            println!(
                "    {:?}: {} matches | {} idx pages, {} heap pages, {} candidates, {} dups, {} false hits",
                strat,
                r.len(),
                r.stats.index_io.accesses(),
                r.stats.heap_io.accesses(),
                r.stats.candidates,
                r.stats.duplicates,
                r.stats.false_hits,
            );
        }
    }

    // A restricted query: align the flood line with a predefined slope and
    // the index answers exactly, with no refinement fetches at all.
    let s = {
        let rel = db.relation("parcels").unwrap();
        rel.index().unwrap().slopes().unwrap().get(2)
    };
    let aligned = HalfPlane::below(s, -30.0);
    let r = db
        .query_with("parcels", Selection::exist(aligned.clone()), S::Restricted)
        .unwrap();
    println!(
        "\n  restricted EXIST along predefined slope {s:.3}: {} matches, {} idx pages, {} heap pages",
        r.len(),
        r.stats.index_io.accesses(),
        r.stats.heap_io.accesses()
    );
}
