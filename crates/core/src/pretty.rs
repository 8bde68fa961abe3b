//! The one shared plan pretty-printer.
//!
//! Every surface that shows a plan — `EXPLAIN` over the typed API, SQL
//! `EXPLAIN [ANALYZE]` in the shell, and the wire protocol's rendered
//! plan — goes through [`render`] over a [`PlanNode`] tree, so local and
//! remote sessions print byte-identical output and there is exactly one
//! place that decides how plans look.

use crate::plan::QueryPlan;
use crate::query::QueryStats;

/// One rendered operator: a label line, indented detail lines, and child
/// operators.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanNode {
    /// The operator headline, e.g. `IndexScan parcels [exist y >= 0.3x - 5]`.
    pub label: String,
    /// Indented annotation lines (method choice, actuals).
    pub detail: Vec<String>,
    /// Child operators, rendered below with tree connectors.
    pub children: Vec<PlanNode>,
}

/// Renders a plan tree with box-drawing connectors:
///
/// ```text
/// NestedLoopJoin
/// ├─ IndexScan r [exist y >= 0.3x - 5]
/// │      method=Dual (auto)  case: …
/// └─ SeqScan s
///        full scan of 120 tuples
/// ```
pub fn render(root: &PlanNode) -> String {
    let mut out = String::new();
    render_into(root, "", "", &mut out);
    out
}

fn render_into(node: &PlanNode, prefix: &str, cont: &str, out: &mut String) {
    out.push_str(prefix);
    out.push_str(&node.label);
    out.push('\n');
    let bar = if node.children.is_empty() {
        "  "
    } else {
        "│ "
    };
    for d in &node.detail {
        out.push_str(cont);
        out.push_str(bar);
        out.push_str("  ");
        out.push_str(d);
        out.push('\n');
    }
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == node.children.len();
        let p = format!("{cont}{}", if last { "└─ " } else { "├─ " });
        let c = format!("{cont}{}", if last { "   " } else { "│  " });
        render_into(child, &p, &c, out);
    }
}

/// The planner-choice annotation lines for an access-method decision
/// (method, case, refinement, rejected methods).
pub fn plan_detail_lines(plan: &QueryPlan) -> Vec<String> {
    plan.explain().lines().map(|l| l.to_string()).collect()
}

/// The observed-cost line appended under `ANALYZE` (and by the typed
/// `EXPLAIN`, which always executes): page accesses, then where the
/// candidates went — duplicates, false hits and rejections by key beside
/// the rows.
pub fn actual_line(stats: &QueryStats, rows: u64) -> String {
    format!(
        "actual:   {} index + {} heap = {} pages, {} candidates ({} duplicates, {} false hits, {} rejected by key), {} rows",
        stats.index_io.accesses(),
        stats.heap_io.accesses(),
        stats.total_accesses(),
        stats.candidates,
        stats.duplicates,
        stats.false_hits,
        stats.rejected_by_key,
        rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_tree_layout() {
        let tree = PlanNode {
            label: "Filter [exist: 2 constraints]".into(),
            detail: vec!["joint satisfiability via LP".into()],
            children: vec![PlanNode {
                label: "NestedLoopJoin".into(),
                detail: vec![],
                children: vec![
                    PlanNode {
                        label: "IndexScan r".into(),
                        detail: vec!["method=Dual (auto)".into(), "case: …".into()],
                        children: vec![],
                    },
                    PlanNode {
                        label: "SeqScan s".into(),
                        detail: vec!["full scan of 120 tuples".into()],
                        children: vec![],
                    },
                ],
            }],
        };
        let expected = "\
Filter [exist: 2 constraints]
│   joint satisfiability via LP
└─ NestedLoopJoin
   ├─ IndexScan r
   │      method=Dual (auto)
   │      case: …
   └─ SeqScan s
          full scan of 120 tuples
";
        assert_eq!(render(&tree), expected);
    }
}
