#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repo root. Works fully offline (the workspace has
# no external dependencies; Cargo.lock is committed).
set -euo pipefail

# Runs one gate step, reporting its wall-clock time even when it fails.
step() {
  local name=$1
  shift
  local start=$SECONDS
  echo "--- ${name}"
  "$@"
  echo "--- ${name}: ok ($((SECONDS - start))s)"
}

# Snapshot of the temp dir before anything runs: the persistence suites
# create database files under $TMPDIR and must remove every one of them.
tmp_snapshot() {
  ls "${TMPDIR:-/tmp}" 2>/dev/null | grep '^cdb_' | sort || true
}
tmp_before=$(tmp_snapshot)

# The audit that keeps "features nobody uses get removed" a gate: every
# `pub fn` / `pub(crate) fn` name under the workspace's `src` trees must be
# mentioned somewhere besides its own definition(s) — in the workspace,
# `perf/src`, `tests/` or `examples/`. Grep only; under a second.
dead_api() {
  local defs uses dead
  defs=$(find crates/*/src src -name '*.rs' -print0 |
    xargs -0 grep -ohE 'pub(\(crate\))? (const )?fn [A-Za-z0-9_]+' |
    awk '{print $NF}' | sort | uniq -c | awk '{print $2, $1}')
  uses=$(find crates src tests examples perf/src -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '{print $2, $1}')
  dead=$(join <(echo "$defs") <(echo "$uses") | awk '$3 <= $2 {print $1}')
  if [ -n "$dead" ]; then
    echo "pub fn names mentioned nowhere but at their definition:" $dead
    return 1
  fi
}
step dead-api dead_api

# The grep audits below share this: over the non-test lines (those above a
# file's first `#[cfg(test)]`) of the source trees given as arguments, every
# rule row on stdin — how many hits are wanted | of what | the one file
# whose lines do not count (`-`: none) | the pattern — must hold. Under a
# second.
grep_audit() {
  local name=$1 lines want what skip re hits
  shift
  lines=$(find "$@" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { print FILENAME ":" $0 }')
  while IFS='|' read -r want what skip re; do
    hits=$(printf '%s\n' "$lines" | grep -v "/$skip:" | grep -E -- "$re" || true)
    if [ "$(printf '%s' "$hits" | grep -c .)" -ne "$want" ]; then
      echo "ci: $name: want $want × $what outside $skip, found:" >&2
      printf '%s\n' "${hits:-  (none)}" >&2
      return 1
    fi
  done
}

# The audit that keeps "a selection is routed once" a gate, over the
# engine crate: the bracket rule and the slope-point lookups each have one
# call site — the two routing tables behind `AccessMethod::route` — every
# slope-point set is routed to its nearest element's cell (no engine path
# searches for a covering simplex, and the grid special case stays gone),
# the `Capability` descriptor routing used to be duplicated in stays gone,
# and `Strategy` variants are matched only where `Strategy::forced`
# converts them. A route is what runs: `AccessMethod` is one enum (no
# trait, no per-kind adapter structs, no `AccessMethods` mirror of a
# relation's slots), no `PlanCase` variant differs from another in wording
# alone, and a scan is planned once — by `IndexScanOp::new`, the one call
# of the planner, with no `describe` planning it again for EXPLAIN. The
# dual index is one method, whose route names the search: over the engine,
# the wire, the CLI and the experiment harness no method or strategy names
# the restricted search or T2 apart from it, no refusal is a slope outside
# `S`, and no case maps back to a method.
one_router() {
  grep_audit one-router crates/core/src <<'RULES'
1|a .bracket( call|slopes.rs|\.bracket\(
0|.containing_simplex( calls|-|\.containing_simplex\(
1|one nearest-element routing call|-|\.nearest\(
1|a slope-point .position( call|slopes.rs|self\.position\(
0|names of the grid special case|-|grid_axes|is_grid|nearest_grid|cell_widths|cell_corners|GridCell
0|mentions of Capability|-|(^|[^A-Za-z0-9_])Capability([^A-Za-z0-9_]|$)
0|matches on Strategy variants|query.rs|Strategy::[A-Za-z0-9]+[^;]*=>|\| *Strategy::
0|definitions of trait AccessMethod|-|trait AccessMethod
0|access-method adapter structs|-|struct (DualAccess|DualDAccess|SeqScanAccess|RPlusAccess|AccessMethods)\b
0|wording-only PlanCase variants|-|MemberRestricted|WrappedAppQueries|WrappedFallback
0|definitions of fn describe|-|fn describe\(
1|a Planner::choose( call|-|Planner::choose\(
RULES
  grep_audit one-router crates/core/src crates/net/src src crates/bench/src <<'RULES'
0|mentions of the restricted or T2 method|-|MethodKind::(Restricted|T2)\b
0|mentions of Strategy::Restricted|-|Strategy::Restricted
0|mentions of SlopeNotInS|-|SlopeNotInS
0|definitions of fn runs|-|fn runs\(
RULES
  # The wire speaks the engine's types: one build request over
  # `IndexSpec`, the engine's `RecoveryReport`, SQL's EXPLAIN, and one
  # front of the dual index. The WAL keeps its two build records, defined
  # in wal.rs and named `WalRecord::` elsewhere.
  grep_audit one-router crates/core/src crates/net/src src <<'RULES'
0|the wire's parallel build, EXPLAIN and fsck types|wal.rs|(^|[^:A-Za-z0-9_])(BuildDual|BuildDualD|BuildRPlus)\b|Request::Build(Dual|RPlus)|Request::Explain|Response::Explain|WireRecoveryReport|execute_hyperplane|fn build_dual_d
RULES
}
step one-router one_router

# The audit that keeps "T2 is written once" a gate, over the tree and the
# engine crates: one dual index over a slope geometry (handicaps are
# assigned and folded from one place each — the strip through the vertical
# is one more region of the end trees of a slope set), one sweep over a
# `Direction` (no function comes back as the down/low/high half of a
# mirrored pair; `sweep_up` is the one front, for `perf/`), and T1's anchor
# stays gone, catalog included. The engine's searches read each swept leaf
# through the borrowed `LeafView`, never a decoded per-leaf entry vector.
# The geometry is a value of the index, not a kind of index: over the
# engine, the wire, the CLI and the experiment harness there is no geometry
# trait, no `DualIndexD` type, no `MemberPoint` case, no `DualD` method or
# index kind, and slope points have one byte layout. T1 is an ablation of
# the experiment harness, not a technique of the engine: over the engine,
# the wire and the CLI no method, strategy, plan case or refusal names it,
# no forest search covers a query with app-queries, and its search module
# stays gone.
one_forest() {
  grep_audit one-forest crates/btree/src crates/core/src/index <<'RULES'
1|an .assign_handicaps( call|-|\.assign_handicaps\(
0|down/low/high halves of a mirrored pair|-|fn ([a-z_]+_(down|low|high)|find_last_leq)\b
RULES
  # One fold of handicaps in the engine, and `BTree::insert` is a fold of
  # none.
  grep_audit one-forest crates/core/src/index <<'RULES'
1|a .fold_handicaps( call|-|\.fold_handicaps\(
RULES
  grep_audit one-forest crates/btree/src <<'RULES'
1|a .fold_handicaps( call (insert)|-|self\.fold_handicaps\(pager, Some\(\(key, value\)\), &\[\]\)
RULES
  grep_audit one-forest crates/core/src <<'RULES'
0|mentions of anchor_x|-|anchor_x
0|leaf entry vectors in the engine's searches|-|\.entries\b
RULES
  grep_audit one-forest crates/core/src crates/net/src src crates/bench/src <<'RULES'
0|definitions of trait SlopeGeometry|-|trait SlopeGeometry
0|mentions of DualIndexD|-|DualIndexD
0|mentions of MemberPoint|-|MemberPoint
0|mentions of DualD|-|(^|[^A-Za-z0-9_])DualD([^A-Za-z0-9_]|$)
0|second slope-point layouts|-|fn (put|get)_body
RULES
  grep_audit one-forest crates/core/src crates/net/src src <<'RULES'
0|mentions of T1's method or strategy|-|(MethodKind|Strategy)::T1([^A-Za-z0-9_]|$)
0|T1's plan cases and refusal|-|AppQueries|SimplexCovering|NoAppQueries
0|definitions of fn covering|-|fn covering\(
RULES
  if [ -e crates/core/src/index/t1.rs ]; then
    echo "ci: one-forest: want no crates/core/src/index/t1.rs, found one" >&2
    return 1
  fi
}
step one-forest one_forest

# The audit that keeps "filter, then refine — once" a gate, over the engine
# crate: every access method, the sequential scan included, hands its
# candidates to the one `index::refine`, which alone opens a query's
# private I/O window, books its index and heap I/O (the operators in
# `physical.rs` window their own region fetches) and lets the key columns
# decide what they can of the candidates (`KeyBracket::settle`, one call;
# `KeyBracket::verdict`, the exact rule, is called only in `keys.rs`); the slot
# table is the heap's only map (no reverse map beside it), and the heap is
# read through `visit_many`/`get_many` alone. A tuple's 2-D surfaces come
# from one vertex enumeration: `kernel2d::Surfaces` is the one evaluator
# (its pairwise determinant the one enumeration in the geometry crate), and
# the index evaluates a tuple once, through it, for its keys, reaches and
# key-column row — never slope by slope. A handicap reach inside a strip is
# bounded in one place: `strip_extremum`, the crossing of the strip ends'
# tangents, written once.
one_refine() {
  grep_audit one-refine crates/core/src <<'RULES'
1|TrackedReader::new( calls|physical.rs|TrackedReader::new\(
1|stats.index_io assignments|-|stats\.index_io =[^=]
1|stats.heap_io assignments|-|stats\.heap_io =[^=]
1|key-bracket chunk-pass .settle( calls|-|\.settle\(
0|key-bracket .verdict( calls outside keys.rs|index/keys.rs|\.verdict\(
0|mentions of by_record|-|by_record
RULES
  grep_audit one-refine crates/core/src/index <<'RULES'
0|keys_at( or swapped_bot_top( calls in the index|-|(keys_at|swapped_bot_top)\(
1|definitions of the strip-extremum bound|-|fn strip_extremum\(
1|tangent crossings (the strip-extremum bound)|-|\(p\.slope - q\.slope\)
RULES
  grep_audit one-refine crates/geometry/src <<'RULES'
1|definitions of the per-tuple 2-D evaluator|-|pub struct Surfaces\b
1|vertex enumerations (the pairwise determinant)|-|let det = p\.ax \* q\.ay - q\.ax \* p\.ay
RULES
  grep_audit one-refine crates/storage/src/heap.rs <<'RULES'
0|heap reads besides visit_many and get_many|-|pub fn (scan|get)\(
RULES
}
step one-refine one_refine

# The audit that keeps "a plan is the paper's rule, not state" a gate,
# over the engine crate: no lock in the planner, no exploration probes, no
# handicap-refresh flag, and — over the engine and the experiment harness —
# no cost model: no feedback table or its EWMA, no cost estimate or its
# sizing context, no default selectivity or over-coverage constants, no
# estimating method, and no estimate line in EXPLAIN.
one_planner_cache() {
  grep_audit one-planner-cache crates/core/src/plan.rs <<'RULES'
0|mentions of Mutex|-|Mutex
RULES
  grep_audit one-planner-cache crates/core/src <<'RULES'
0|probe and refresh-flag names|-|NEAR_TIE_RATIO|PROBE_PERIOD|probe_clock|explored|needs_refresh
RULES
  grep_audit one-planner-cache crates/core/src/catalog.rs <<'RULES'
0|mentions of PlanCatalog|-|PlanCatalog
RULES
  grep_audit one-planner-cache crates/core/src crates/bench/src <<'RULES'
0|mentions of PlanCatalog|-|PlanCatalog
0|mentions of EWMA_ALPHA|-|EWMA_ALPHA
0|mentions of CostEstimate|-|CostEstimate
0|mentions of MethodContext|-|MethodContext
0|mentions of DEFAULT_SELECTIVITY|-|DEFAULT_SELECTIVITY
0|over-coverage constants|-|_OVERSHOOT
0|definitions of fn overcover|-|fn overcover
0|definitions of fn estimate|-|fn estimate\(
RULES
  grep_audit one-planner-cache crates/core/src <<'RULES'
0|estimate lines in EXPLAIN|-|"estimate:
RULES
}
step one-planner-cache one_planner_cache

# The audit that keeps "a constraint is read once" a gate: the engine
# crate and the shell keep no lexer or linear-expression grammar of their
# own — tuple text, SQL `WHERE` and the shell all read a comparison through
# `cdb_geometry::parse` — and the coordinate names are spelled on one code
# line, the one `var_name`/`var_index` and every `Display` share.
one_grammar() {
  grep_audit one-grammar crates/core/src src <<'RULES'
0|definitions of fn lex|-|fn lex\(
0|definitions of struct LinExpr|-|struct LinExpr
0|mentions of AstConstraint|-|AstConstraint
0|mentions of CmpOp|-|CmpOp
RULES
  grep_audit one-grammar crates/geometry/src crates/core/src <<'RULES'
1|code lines spelling the coordinate names|-|^[^:]*:[[:space:]]*([^/[:space:]].*)?("w"|'w')
RULES
}
step one-grammar one_grammar

# The audit that keeps "one node, one id space" a gate: sharding stays out
# of the engine, the catalog, the wire and the CLI — no partitioner, no
# persisted partition spec or its log record, no shard redirect, identity
# or map, no sharded client — and there is no `cdb-shard` launcher.
one_node() {
  grep_audit one-node crates/*/src src <<'RULES'
0|sharding names|-|PartitionSpec|Partitioner|hash_owner|set_partition|SetPartition|WrongShard|ShardIdentity|ShardMap|ShardedClient|map_epoch
RULES
  if [ -e src/bin/cdb-shard.rs ]; then
    echo "ci: one-node: src/bin/cdb-shard.rs is back" >&2
    return 1
  fi
}
step one-node one_node

# The audit that keeps "one role per node" a gate: replication stays out of
# the engine, the storage layer, the wire and the CLI — no replica role or
# fetcher, no subscription stream or its frames, no follower redirect, no
# WAL-retention mode, no cluster client — and its two modules stay gone.
one_role() {
  grep_audit one-role crates/*/src src <<'RULES'
0|replication names|-|ClusterClient|ClusterConfig|bind_replica|apply_replicated|open_retaining|set_wal_retention|retain_wal|Subscribe|Subscription|WalBatch|ReplicationInfo|FollowerInfo|NotPrimary|RoleState|fetcher_loop|open_or_create
RULES
  local f
  for f in crates/net/src/cluster.rs crates/net/src/replica.rs; do
    if [ -e "$f" ]; then
      echo "ci: one-role: $f is back" >&2
      return 1
    fi
  done
}
step one-role one_role

# The audit that keeps "packed once" a gate: the R⁺-tree baseline is
# bulk-packed and never maintained — no dynamic insert, clipping split or
# region subtraction in the tree crate, no tombstone list, and no
# handicap re-tightening entry point or its log record (a write drops the
# R⁺-tree, and a rebuild is the one way to re-tighten handicaps).
packed_rplus() {
  grep_audit packed-rplus crates/*/src src <<'RULES'
0|R⁺ maintenance and re-tightening names|-|fn insert_rec|split_entries|subtract_all|tighten_index|TightenIndex|fn tighten\(|\.dead\b
RULES
  grep_audit packed-rplus crates/rplustree/src <<'RULES'
0|public inserts into the R⁺-tree|-|pub fn insert
RULES
}
step packed-rplus packed_rplus

# The audit that keeps "one checksum kernel" a gate: every page seal, WAL
# record, catalog blob and wire frame goes through `codec::crc32_update` —
# no private CRC table, and no second byte-at-a-time loop beside the
# kernel's own tail.
one_crc() {
  grep_audit one-crc crates/*/src src <<'RULES'
0|private CRC tables|-|const TABLE: \[u32; 256\]
1|crc32_update definition|-|fn crc32_update\(
1|byte-at-a-time CRC step|-|\(crc >> 8\) \^
RULES
}
step one-crc one_crc

# Report only: non-test lines per crate, counted as the lines above a
# file's first `#[cfg(test)]` — the figure CHANGES.md quotes before/after
# a simplicity PR.
non_test_lines() {
  local dir
  for dir in crates/*/src src; do
    find "$dir" -name '*.rs' -print0 | xargs -0 awk -v dir="$dir" '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { printf "%-22s %6d\n", dir, n }'
  done
}
step non-test-lines non_test_lines

step build cargo build --release

# The paper's figures as a gate: the `--quick` stdout of every figure
# binary equals its golden under `crates/bench/golden/`, byte for byte
# (each binary also checks its answers against the oracle). A change that
# moves a figure on purpose commits the new golden, with its before/after
# in CHANGES.md. ≈ 3 s.
paper_figures() {
  local b status=0
  cargo build --release -q -p cdb-bench --bins
  for b in fig8 fig9 fig10 ablation_t1_t2 selectivity_sweep auto_choice dimension_sweep; do
    if ! ./target/release/"$b" --quick | diff -u "crates/bench/golden/$b.txt" -; then
      echo "ci: paper-figures: $b differs from crates/bench/golden/$b.txt" >&2
      status=1
    fi
  done
  return "$status"
}
step paper-figures paper_figures

# The refinement fast path, by name and first (it fails fastest): the 2-D
# TOP/BOT kernel against the simplex and the V-representation, the encoded
# view against `decode`, the heap's page-ordered visitor, the slack-matched
# B+-tree delete, the sweep's borrowed leaf view against a decoding
# reference walk, refinement on borrowed record bytes against a
# `fetch_batch`-only source (same ids, same QueryStats, same errors), the
# per-tuple evaluator against the one-slope kernel it replaced (bit for bit,
# both frames, with its attaining vertices; in `refine_kernel`), the key
# bracket's chords and tangents on the hard cases, and the key columns'
# chunk pass against `KeyBracket::verdict`, id by id.
refine_kernel() {
  cargo test -q -p cdb-geometry --lib -- kernel2d
  cargo test -q -p cdb-geometry --test refine_kernel
  cargo test -q -p cdb-storage --lib -- visit_many foreign_pages
  cargo test -q -p cdb-btree --lib -- delete_finds_keys leaf_views_show
  cargo test -q -p cdb-core --lib -- refine_paths delete_that_misses chunk_codes_agree_with_verdict \
    hard_cases_get_no_wrong_decision two_slopes_decide_both_sides
  cargo test -q --test hyperplane_queries concurrent_line_queries
}
step refine-kernel refine_kernel

# Handicaps, by name: each tree buckets by its own surface's reach — the
# ALL cases whose extremum lies inside a strip recover every answer; T2 ≡
# the oracle at the slopes where a tuple's tangents cross and its surfaces
# turn, k = 2…5, after build, churn, reopen and WAL replay, with every
# live tuple covered by the slots a sweep folds (ROADMAP I(b), which
# reports a slot one `f32` step too tight); an index assigned under the
# shared rule stays exact until a rebuild tightens it; the one-descent
# insert ≡ its per-fold reference; and a delete that takes a leaf's far
# edge hands its handicaps on.
handicaps() {
  cargo test -q -p cdb-btree --lib -- delete_of_a_far_edge
  cargo test -q -p cdb-core --lib -- missed_tuples_are_recoverable own_surface_reaches \
    handicap_oracle_reports shared_rule_handicaps one_descent_update
}
step handicaps handicaps

step test cargo test -q --workspace
# The durability suites run as part of the workspace tests, but a broken
# lifecycle should fail loudly under its own name, not inside a wall of
# workspace output.
step persistence cargo test -q --test persistence
step reopen cargo test -q --test reopen
step fault-injection cargo test -q --test fault_injection
step snapshot-isolation cargo test -q --test snapshot_isolation
step sql-equivalence cargo test -q --test sql_equivalence
step backend-conformance cargo test -q --test backend_conformance

# Incremental maintenance under load: 100 inserts then 100 deletes into
# dual indexes at k = 2 and 5 (one descent per tree carrying each entry and
# its handicap folds), then T2 must still answer as the brute-force oracle.
step update-storm cargo run -q --release -p cdb-bench --bin update_cost -- --quick

# Every byte layout — wire frames, WAL records, the catalog blob — through
# the one conformance harness (`cdb_storage::conformance`), the persisted
# ones against the golden bytes of the format, and the forged-count
# regression.
codec_conformance() {
  cargo test -q -p cdb-storage --lib -- conform forged
  cargo test -q -p cdb-core --lib -- conform golden forged
  cargo test -q -p cdb-net --lib -- conform
}
step codec-conformance codec_conformance

# End-to-end health check: build a small database with the shell, then
# verify every page checksum through `cdb fsck` (read-only and repair
# modes must both report a clean file).
fsck_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_fsck_$$.db"
  rm -f "$f"
  printf 'open %s\ncreate parcels 2\ninsert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\nindex parcels 4\nsave\nquit\n' "$f" \
    | ./target/release/cdb >/dev/null
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  ./target/release/cdb fsck "$f" --rebuild-indexes | grep -q 'fsck: ok'
  rm -f "$f"
}
step fsck fsck_smoke

# Wire-protocol smoke: serve a file on an ephemeral port, drive a client
# workload over TCP, ask for a graceful shutdown, then verify the served
# file's checksums offline.
server_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_server_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_server_$$.log"
  rm -f "$f" "$f.wal" "$log"
  ./target/release/cdb-server "$f" --checkpoint-every 8 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  {
    printf 'create parcels 2\n'
    printf 'insert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\n'
    printf 'insert parcels y >= x && y <= x + 1 && x >= 10\n'
    printf 'index parcels 4\n'
    printf 'exist parcels y >= 0.3x - 5\n'
    printf 'explain analyze select * from parcels where y >= 0.3x - 5 exist\n'
    printf 'stats\n'
    printf 'save\n'
    printf 'shutdown\n'
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  # Graceful shutdown must be a clean exit, not a timeout or a crash.
  local code=0
  wait "$pid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "ci: cdb-server exited with code $code" >&2
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  rm -f "$f" "$f.wal" "$log"
}
step server server_smoke

# Constraint-SQL smoke: serve a fresh file, run DDL + inserts + SQL
# selects (single-relation, join, projection) and EXPLAIN/EXPLAIN ANALYZE
# through the scripted client shell, assert row counts and plan shapes,
# then shut down gracefully and fsck the file.
sql_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_sql_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_sql_$$.log"
  local out="${TMPDIR:-/tmp}/cdb_ci_sql_$$.out"
  rm -f "$f" "$f.wal" "$log" "$out"
  ./target/release/cdb-server "$f" >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log" "$out"
    return 1
  fi
  {
    printf 'create parcels 2\n'
    printf 'insert parcels y >= 0 && y <= 2 && x >= 0 && x + y <= 4\n'
    printf 'insert parcels y >= x && y <= x + 1 && x >= 10\n'
    printf 'insert parcels y >= -1 && y <= 1 && x >= -3 && x <= -1\n'
    printf 'index parcels 4\n'
    printf 'create lots 2\n'
    printf 'insert lots y >= 0 && y <= 1 && x >= 0 && x <= 1\n'
    printf 'sql SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST\n'
    printf 'sql SELECT * FROM parcels WHERE y <= 2 ALL\n'
    printf 'sql SELECT x FROM parcels JOIN lots WHERE y <= 0.5 EXIST LIMIT 10\n'
    printf 'explain SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST\n'
    printf 'explain analyze SELECT * FROM parcels WHERE y >= 0.3x - 5 AND x >= 0 EXIST\n'
    printf 'save\n'
    printf 'shutdown\n'
  } | TERM= ./target/release/cdb-client "$addr" >"$out"
  local code=0
  wait "$pid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "ci: cdb-server exited with code $code" >&2
    rm -f "$f" "$f.wal" "$log" "$out"
    return 1
  fi
  # Row counts: EXIST hits all 3 parcels; ALL(y<=2) keeps the two bounded
  # ones; the join pairs each parcel touching y<=0.5 with the single lot.
  grep -q '3 row(s): id(parcels)' "$out"
  grep -q '2 row(s): id(parcels)' "$out"
  grep -q 'row(s): id(parcels) | id(lots) | region(x)' "$out"
  # EXPLAIN shows the chosen access method; ANALYZE adds observed timings.
  grep -q 'IndexScan parcels' "$out"
  grep -q 'Filter' "$out"
  grep -q 'time: ' "$out"
  ./target/release/cdb fsck "$f" | grep -q 'fsck: ok'
  rm -f "$f" "$f.wal" "$log" "$out"
}
step sql sql_smoke

# Durability smoke: SIGKILL cdb-server under write load before anything
# checkpointed, then reopen. Every acknowledged insert must come back —
# the WAL, not the checkpoint cadence, is what backs the acks.
wal_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_wal_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_wal_$$.log"
  rm -f "$f" "$f.wal" "$log"
  # A checkpoint interval far beyond the workload: only the log is durable.
  ./target/release/cdb-server "$f" --checkpoint-every 100000 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  # 12 acked inserts: the client shell is synchronous, so when it exits,
  # every insert was acknowledged — and acknowledged means fsynced.
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 12); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  # Read-only fsck surfaces the un-replayed log; writable fsck replays it.
  # (Full-read grep, not -q: quitting on first match would SIGPIPE cdb.)
  ./target/release/cdb fsck "$f" | grep 'logged mutations not replayed' >/dev/null
  ./target/release/cdb fsck "$f" --rebuild-indexes \
    | grep 'wal: replayed 13 record(s)' >/dev/null
  # After replay the file is clean and holds all 12 acked inserts.
  ./target/release/cdb fsck "$f" | grep 'fsck: ok' >/dev/null
  printf 'open %s\nstats\nquit\n' "$f" \
    | ./target/release/cdb | grep 'parcels: 2-D, 12 tuples' >/dev/null
  rm -f "$f" "$f.wal" "$log"
}
step wal wal_smoke

# Mixed-workload durability smoke: reader clients stream snapshot queries
# while a writer streams inserts, and the server is SIGKILLed mid-write.
# Reopening must be healthy — WAL replay restores every insert that was
# acknowledged before the kill — and the reader fleet must neither see
# nor cause a torn state. Like every smoke, this opens its own fresh
# listener on its own ephemeral port.
mixed_smoke() {
  local f="${TMPDIR:-/tmp}/cdb_ci_mixed_$$.db"
  local log="${TMPDIR:-/tmp}/cdb_ci_mixed_$$.log"
  rm -f "$f" "$f.wal" "$log"
  ./target/release/cdb-server "$f" --checkpoint-every 100000 >"$log" &
  local pid=$!
  local addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ci: cdb-server never announced its address" >&2
    kill -9 "$pid" 2>/dev/null || true
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  # Base state, fully acknowledged: the client shell is synchronous, so
  # these 12 inserts are fsynced by the time it exits.
  {
    printf 'create parcels 2\n'
    for i in $(seq 1 12); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done
    printf 'index parcels 4\n'
  } | TERM= ./target/release/cdb-client "$addr" >/dev/null
  # Reader fleet: two clients stream queries against published snapshots
  # while the server dies under them. Bounded scripts, not `while :`: the
  # client shell reports per-command transport errors without exiting, so
  # an unbounded feed would leave orphan loops spinning after the kill.
  local readers=()
  for _ in 1 2; do
    (
      for _ in $(seq 1 2000); do
        printf 'exist parcels y >= 0.3x - 5\n'
      done | TERM= ./target/release/cdb-client "$addr" >/dev/null 2>&1 || true
    ) &
    readers+=($!)
  done
  # Writer stream, killed mid-flight: only its acked prefix is promised.
  (
    for i in $(seq 1 1000); do
      printf 'insert parcels y >= 0 && y <= 2 && x >= %s && x <= %s\n' "$i" "$((i + 3))"
    done | TERM= ./target/release/cdb-client "$addr" >/dev/null 2>&1 || true
  ) &
  local writer=$!
  sleep 0.5
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  # The workload clients drain their remaining script against the dead
  # address (fast transport errors) and exit on their own.
  wait "$writer" "${readers[@]}" 2>/dev/null || true
  # Writable fsck replays the log; the file must come back clean with at
  # least the 12 inserts acknowledged before the writer stream began.
  ./target/release/cdb fsck "$f" --rebuild-indexes | grep 'wal: replayed' >/dev/null
  ./target/release/cdb fsck "$f" | grep 'fsck: ok' >/dev/null
  local count
  count=$(printf 'open %s\nstats\nquit\n' "$f" | ./target/release/cdb \
    | sed -n 's/.*parcels: 2-D, \([0-9]*\) tuples.*/\1/p')
  if [ -z "$count" ] || [ "$count" -lt 12 ]; then
    echo "ci: mixed smoke lost acked inserts (recovered ${count:-none})" >&2
    rm -f "$f" "$f.wal" "$log"
    return 1
  fi
  rm -f "$f" "$f.wal" "$log"
}
step mixed mixed_smoke

# `perf/` is its own workspace, so nothing above builds it: compile the
# benchmark harness against the current API, run its unit tests, then one
# quick pass over all four workloads (exits non-zero on any failed
# operation).
perf_harness() {
  cargo test -q --manifest-path perf/Cargo.toml
  cargo run --release --quiet --manifest-path perf/Cargo.toml -- --all --quick >/dev/null
}
step perf-harness perf_harness

# The counts a change to the read or write path must not move: each
# workload at full scale and the pinned seed for three seconds (long enough
# for `durable_churn` to pass the 4 096 mutations after which it samples
# its space), no failed operation, and `pages_per_query` and
# `space_bytes_per_tuple` equal to their pins in
# `crates/bench/golden/perf_counts` to the last digit. Timings are not
# looked at: this is not a benchmark run.
perf_counts() {
  local pins=crates/bench/golden/perf_counts seed w m line got want
  seed=$(awk '$1 == "seed" { print $2 }' "$pins")
  if [ -z "$seed" ]; then
    echo "ci: perf-counts: $pins names no seed" >&2
    return 1
  fi
  for w in embedded_t2 embedded_restricted durable_churn served_mixed; do
    line=$(cargo run --release --quiet --manifest-path perf/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds 3 --trace 0 | tail -n 1)
    case "$line" in
      *'"failed":0,'*) ;;
      *) echo "ci: perf-counts: $w reports failed operations: $line" >&2; return 1 ;;
    esac
    for m in pages_per_query space_bytes_per_tuple; do
      got=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,]*\),.*/\1/p")
      want=$(awk -v w="$w" -v m="$m" '$1 == w && $2 == m { print $3 }' "$pins")
      if [ -z "$got" ] || [ "$got" != "$want" ]; then
        echo "ci: perf-counts: $w/$m is ${got:-missing}, $pins says ${want:-nothing}" >&2
        return 1
      fi
    done
  done
}
step perf-counts perf_counts

step clippy cargo clippy --workspace --all-targets -- -D warnings
step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
step fmt cargo fmt --all --check

tmp_after=$(tmp_snapshot)
leaked=$(comm -13 <(echo "$tmp_before") <(echo "$tmp_after"))
if [ -n "$leaked" ]; then
  echo "ci: temp-file leak — tests left these behind in ${TMPDIR:-/tmp}:" >&2
  echo "$leaked" >&2
  exit 1
fi

echo "ci: all green ($((SECONDS))s total)"
