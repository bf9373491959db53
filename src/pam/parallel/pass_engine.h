#ifndef PAM_PARALLEL_PASS_ENGINE_H_
#define PAM_PARALLEL_PASS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "pam/core/count_team.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/load_model.h"

namespace pam {
namespace parallel_internal {

/// One pass k >= 2 as RunPasses hands it to a formulation's counting step.
struct PassContext {
  int k;
  const ItemsetCollection& prev;  // F_{k-1}, identical on every rank
  ItemsetCollection& candidates;  // C_k, non-empty, identical on every rank
  Count minsup;
  CountingPool& pool;  // this rank's intra-rank counting team
  PassMetrics& metrics;
};

/// A formulation's counting step (paper Sections III-A to III-E): count
/// the pass's candidates over the data this formulation moves to this
/// rank, make the counts global, fill the formulation's own PassMetrics
/// fields, and return the globally frequent k-itemsets — sorted and
/// identical on every rank. It may consume `candidates`.
using CountPass = std::function<ItemsetCollection(PassContext& pass)>;

/// The level-wise loop of Figure 1 that every formulation shares. It owns
/// the minsup, the DHP bucket state and the counting pool; runs pass 1
/// (ParallelPass1 over `slice`); and for k = 2, 3, ... up to max_k checks
/// the cancel token, opens the pass span, generates C_k (stopping, with no
/// span and no metrics row, when it is empty), calls `count_pass`, and
/// records the pass: k, candidates, frequent sets, local wire bytes, team
/// size, fault activity and wall time, emitted and pushed into the output.
/// The loop stops at the first empty F_k. Pass 1 reports a
/// 1 x `pass1_grid_cols` grid.
RankOutput RunPasses(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config,
                     TransactionDatabase::Slice slice,
                     const CountPass& count_pass, int pass1_grid_cols = 1);

/// Pass-2 counting step shared by CD and HPA, which count the full
/// candidate set over their local `slice`: when TriangleEligible, counts
/// all pairs of frequent items into a flat triangular array over F_1 ranks
/// through the pass's counting team, bypassing the hash tree (see
/// TrianglePairCounter), scatters them into `counts`, and sums them over
/// `comm` in one full-width reduction. Returns false when ineligible; the
/// caller then counts with its own hash-tree path.
bool TryTrianglePass2(PassContext& pass, const TransactionDatabase& db,
                      TransactionDatabase::Slice slice, Comm& comm,
                      const AprioriConfig& apriori, std::span<Count> counts);

/// How a candidate-distributed pass builds its counter (DD, IDD, HD).
struct OwnedCounting {
  HashTreeConfig tree;                  // shape of this rank's hash tree
  const Bitmap* root_filter = nullptr;  // IDD/HD first-item bitmap
  /// > 0 turns on per-first-item work attribution over item ids below
  /// this bound (the adaptive balancer's measurement; tree passes only).
  std::size_t attribute_items = 0;
};

struct OwnedCounts {
  std::vector<Count> counts;  // by candidate id; complete for owned ids
  std::vector<std::uint64_t> item_work;  // by item id; empty if not measured
};

/// The page sink a data-movement pattern feeds, and the pattern itself:
/// it must hand every page this rank is to count to the sink it is given.
using PageSink = std::function<void(PageView)>;
using MovePages = std::function<void(const PageSink&)>;

/// Counting step shared by DD, IDD and HD: counts the `owned` candidates
/// over every page `move_pages` delivers, with the pass-2 triangle when
/// TriangleEligible and with a hash tree over `owned` otherwise, through
/// the pass's counting team (one subset-count span per page). Records tree
/// inserts, subset stats, transactions and shard work into the pass
/// metrics.
OwnedCounts CountDeliveredPages(PassContext& pass, const AprioriConfig& apriori,
                                const std::vector<std::uint32_t>& owned,
                                const OwnedCounting& how,
                                const MovePages& move_pages);

/// IDD/HD partition of C_k among `parts` by first item: PartitionByPrefix
/// with the configured strategy, weighted by `model`'s measured item costs
/// once it is calibrated (null = static candidate-count weights). Records
/// the partition digest and, under measured weights, how many candidates
/// moved against the static packing.
CandidatePartition PartitionFirstItems(PassContext& pass,
                                       Item num_items, int parts,
                                       const ParallelConfig& config,
                                       const LoadModel* model);

/// Adaptive feedback after a hash-tree pass (DESIGN.md §14): compacts
/// `item_work` to the pass's distinct first items and reduces it, with
/// every rank's measured subset work and the global transaction /
/// traversal / leaf-check totals, in one AllReduceSum of (P + 3 + |first
/// items|) words over `comm` (charged to balance_sync_words and
/// reduction_words). Folds the totals into `model`, summing rank work per
/// row of the rows x (P / rows) grid. Only deterministic work counters
/// travel — never wall time — so every rank folds identical feedback and
/// recomputes identical decisions, even under recoverable faults.
void ObserveTreePass(PassContext& pass, Comm& comm,
                     const std::vector<std::uint64_t>& item_work, int rows,
                     LoadModel* model);

}  // namespace parallel_internal
}  // namespace pam

#endif  // PAM_PARALLEL_PASS_ENGINE_H_
