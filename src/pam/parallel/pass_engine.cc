#include "pam/parallel/pass_engine.h"

#include <optional>

#include "pam/core/apriori_gen.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/obs/trace.h"
#include "pam/util/timer.h"

namespace pam {
namespace parallel_internal {
namespace {

// apriori_gen plus the optional DHP filter at k == 2. All ranks call this
// with identical inputs and obtain identical candidate sets.
ItemsetCollection GenerateCandidates(const ItemsetCollection& prev, int k,
                                     const std::vector<Count>& dhp_buckets,
                                     Count minsup) {
  ItemsetCollection candidates = AprioriGen(prev);
  if (k == 2 && !dhp_buckets.empty()) {
    candidates = FilterByBuckets(candidates, dhp_buckets, minsup);
  }
  return candidates;
}

// True when pass k may use the pass-2 triangle kernel instead of a hash
// tree: k == 2, the flag is on, and the R*(R-1)/2 counter array fits the
// candidate-memory cap. Deterministic from replicated inputs, so every
// rank takes the same branch.
bool TriangleEligible(int k, const AprioriConfig& config,
                      std::size_t f1_size) {
  return k == 2 && config.use_pass2_triangle &&
         TrianglePairCounter::Fits(f1_size,
                                   config.max_candidates_in_memory);
}

}  // namespace

RankOutput RunPasses(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config,
                     TransactionDatabase::Slice slice,
                     const CountPass& count_pass, int pass1_grid_cols) {
  RankOutput out;
  const Count minsup = config.apriori.ResolveMinsup(db.size());
  std::vector<Count> dhp_buckets;  // PDM-style DHP filter state (optional)
  CountingPool pool(config.apriori.threads_per_rank);
  // Adds the pass's fault activity and wall time, then emits and keeps it.
  auto record = [&](PassMetrics& m, const WallTimer& timer,
                    const CommFaultStats& faults_at_start) {
    const CommFaultStats now = comm.MyFaultStats();
    m.comm_faults_injected += now.injected - faults_at_start.injected;
    m.comm_retries += now.retries - faults_at_start.retries;
    m.comm_faults_detected += now.detected - faults_at_start.detected;
    m.wall_seconds = timer.Seconds();
    obs::EmitPassMetrics(m);
    out.passes.push_back(m);
  };

  {
    obs::ScopedSpan pass_span(obs::SpanKind::kPass, /*pass_k=*/1, -1, nullptr);
    WallTimer timer;
    PassMetrics m;
    m.grid_cols = pass1_grid_cols;
    const CommFaultStats faults_at_start = comm.MyFaultStats();
    ItemsetCollection f1 = ParallelPass1(db, slice, comm, minsup, &m,
                                         &config, &dhp_buckets);
    record(m, timer, faults_at_start);
    out.frequent.levels.push_back(std::move(f1));
  }

  for (int k = 2; config.apriori.max_k == 0 || k <= config.apriori.max_k;
       ++k) {
    const ItemsetCollection& prev = out.frequent.levels.back();
    if (prev.size() < 2) break;
    config.apriori.cancel.Checkpoint(comm.rank());
    obs::ScopedSpan pass_span(obs::SpanKind::kPass, k, -1, nullptr);
    WallTimer timer;
    PassMetrics m;
    m.k = k;
    m.local_db_wire_bytes = db.WireBytes(slice);
    const CommFaultStats faults_at_start = comm.MyFaultStats();

    ItemsetCollection candidates =
        GenerateCandidates(prev, k, dhp_buckets, minsup);
    if (candidates.empty()) {
      pass_span.Cancel();  // no PassMetrics row, so no pass span either
      break;
    }
    m.num_candidates_global = candidates.size();
    m.threads_per_rank = pool.num_threads();
    PassContext pass{k, prev, candidates, minsup, pool, m};
    ItemsetCollection frequent = count_pass(pass);
    m.num_frequent_global = frequent.size();
    record(m, timer, faults_at_start);
    if (frequent.empty()) break;
    out.frequent.levels.push_back(std::move(frequent));
  }

  while (!out.frequent.levels.empty() && out.frequent.levels.back().empty()) {
    out.frequent.levels.pop_back();
  }
  return out;
}

bool TryTrianglePass2(PassContext& pass, const TransactionDatabase& db,
                      TransactionDatabase::Slice slice, Comm& comm,
                      const AprioriConfig& apriori, std::span<Count> counts) {
  if (!TriangleEligible(pass.k, apriori, pass.prev.size())) return false;
  PassMetrics& m = pass.metrics;
  TrianglePairCounter tri(pass.prev);
  {
    obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, /*index=*/0,
                               "triangle");
    TriangleTeam team(&pass.pool, &tri, &m.subset, &apriori.cancel);
    team.CountSlice(db, slice);
    team.Finish();
    AccumulateShardWork(m.shard_subset_work, team.shard_work());
  }
  tri.Extract(pass.candidates, counts);
  comm.AllReduceSum(std::span<std::uint64_t>(counts));
  m.reduction_words += counts.size();
  return true;
}

OwnedCounts CountDeliveredPages(PassContext& pass, const AprioriConfig& apriori,
                                const std::vector<std::uint32_t>& owned,
                                const OwnedCounting& how,
                                const MovePages& move_pages) {
  PassMetrics& m = pass.metrics;
  OwnedCounts out;
  out.counts.assign(pass.candidates.size(), 0);
  // Pass-2 triangle: every delivered transaction reaches this rank, so
  // counting all F1 pairs locally yields the owned share's counts without
  // a hash tree (or root bitmap).
  const bool triangle = TriangleEligible(pass.k, apriori, pass.prev.size());
  std::optional<TrianglePairCounter> tri;
  std::optional<TriangleTeam> tri_team;
  std::optional<HashTree> tree;
  std::optional<TeamCounter> tree_team;
  std::vector<std::uint64_t> leaf_visits;
  if (triangle) {
    tri.emplace(pass.prev);
    tri_team.emplace(&pass.pool, &*tri, &m.subset, &apriori.cancel);
  } else {
    obs::ScopedSpan build_span(obs::SpanKind::kTreeBuild);
    tree.emplace(pass.candidates, owned, how.tree);
    m.tree_build_inserts = tree->build_inserts();
    build_span.End();
    // Kernel-side work attribution (empty spans = off, zero overhead).
    if (how.attribute_items > 0) {
      out.item_work.assign(how.attribute_items, 0);
      leaf_visits.assign(tree->num_leaves(), 0);
    }
    tree_team.emplace(&pass.pool, &*tree, std::span<Count>(out.counts),
                      &m.subset, how.root_filter, &apriori.cancel,
                      std::span<std::uint64_t>(out.item_work),
                      std::span<std::uint64_t>(leaf_visits));
  }
  std::int64_t page_index = 0;
  move_pages([&](PageView page) {
    obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, page_index++);
    m.transactions_processed +=
        triangle ? tri_team->CountPage(page) : tree_team->CountPage(page);
  });
  if (triangle) {
    tri_team->Finish();
    AccumulateShardWork(m.shard_subset_work, tri_team->shard_work());
    tri->Extract(pass.candidates, std::span<Count>(out.counts));
  } else {
    tree_team->Finish();
    AccumulateShardWork(m.shard_subset_work, tree_team->shard_work());
  }
  return out;
}

CandidatePartition PartitionFirstItems(PassContext& pass,
                                       Item num_items, int parts,
                                       const ParallelConfig& config,
                                       const LoadModel* model) {
  const ItemsetCollection& candidates = pass.candidates;
  // Empty until the first measured hash-tree pass calibrates the model:
  // before that the partition is the static candidate-count one.
  const std::vector<std::uint64_t> item_costs =
      model != nullptr ? model->ItemCosts(candidates)
                       : std::vector<std::uint64_t>();
  CandidatePartition partition = PartitionByPrefix(
      candidates, num_items, parts, config.prefix_strategy,
      config.split_heavy_prefixes,
      item_costs.empty() ? nullptr : &item_costs);
  pass.metrics.partition_digest = PartitionDigest(partition);
  if (!item_costs.empty()) {
    // Repartition delta vs the static candidate-count packing the pass
    // would have used without feedback.
    pass.metrics.rebalanced_candidates = PartitionMoves(
        PartitionByPrefix(candidates, num_items, parts, config.prefix_strategy,
                          config.split_heavy_prefixes),
        partition);
  }
  return partition;
}

void ObserveTreePass(PassContext& pass, Comm& comm,
                     const std::vector<std::uint64_t>& item_work, int rows,
                     LoadModel* model) {
  const ItemsetCollection& candidates = pass.candidates;
  PassMetrics& m = pass.metrics;
  const auto p = static_cast<std::size_t>(comm.size());
  const std::size_t cols = p / static_cast<std::size_t>(rows);
  LoadModel::PassFeedback feedback;
  feedback.first_items = LoadModel::DistinctFirstItems(candidates);
  feedback.item_candidates.assign(feedback.first_items.size(), 0);
  for (std::size_t i = 0, run = 0; i < candidates.size(); ++i) {
    while (feedback.first_items[run] != candidates.Get(i)[0]) ++run;
    ++feedback.item_candidates[run];
  }

  // [rank work x P | transactions | traversal steps | leaf checks |
  //  work per distinct first item]
  std::vector<std::uint64_t> buf(p + 3 + feedback.first_items.size(), 0);
  buf[static_cast<std::size_t>(comm.rank())] =
      m.subset.traversal_steps + m.subset.leaf_candidates_checked;
  buf[p] = m.transactions_processed;
  buf[p + 1] = m.subset.traversal_steps;
  buf[p + 2] = m.subset.leaf_candidates_checked;
  for (std::size_t i = 0; i < feedback.first_items.size(); ++i) {
    buf[p + 3 + i] = item_work[static_cast<std::size_t>(
        feedback.first_items[i])];
  }
  comm.AllReduceSum(std::span<std::uint64_t>(buf));
  m.balance_sync_words = buf.size();
  m.reduction_words += buf.size();

  feedback.part_work.assign(static_cast<std::size_t>(rows), 0);
  for (std::size_t r = 0; r < p; ++r) feedback.part_work[r / cols] += buf[r];
  feedback.item_work.assign(buf.begin() + static_cast<std::ptrdiff_t>(p) + 3,
                            buf.end());
  feedback.transactions = buf[p];
  feedback.traversal_steps = buf[p + 1];
  feedback.leaf_checks = buf[p + 2];
  feedback.num_candidates = candidates.size();
  feedback.grid_rows = rows;
  feedback.tree_pass = true;
  model->Observe(feedback);
}

}  // namespace parallel_internal
}  // namespace pam
