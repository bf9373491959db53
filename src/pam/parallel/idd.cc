#include "pam/parallel/pass_engine.h"

namespace pam {

// Intelligent Data Distribution (paper Section III-C, Figure 7): candidates
// are partitioned by first item via bin packing, each rank filters the root
// level of the subset function with a bitmap of its owned first-items
// (Figure 8), and the database circulates through the ring pipeline of
// Figure 6 instead of DD's contention-prone all-to-all.
//
// With config.adaptive_balance the partitioner's weights come from a
// LoadModel instead of raw candidate counts: the counting kernel
// attributes its measured subset work to the root item each descent
// started from, and one AllReduceSum per pass gives every rank the exact
// global cost of every first item's candidates (DESIGN.md §14). The ring
// still delivers every transaction to every rank, so the mining output is
// byte-identical either way.
RankOutput RunIddRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config) {
  using parallel_internal::ExchangeFrequent;
  using parallel_internal::FrequentSubset;
  using parallel_internal::PassContext;

  const int p = comm.size();
  const auto rank = static_cast<std::size_t>(comm.rank());
  // Single-source mode: rank 0 owns the entire database and feeds the
  // ring; everyone else starts with an empty slice (the ring's round
  // padding keeps the pipeline in lockstep).
  const TransactionDatabase::Slice slice =
      config.single_source
          ? (rank == 0 ? TransactionDatabase::Slice{0, db.size()}
                       : TransactionDatabase::Slice{db.size(), db.size()})
          : db.RankSlice(comm.rank(), p);
  // Measured-weight repartitioning requires the bin-packing strategy; the
  // contiguous ablation stays static even with the flag on.
  const bool adaptive = config.adaptive_balance &&
                        config.prefix_strategy == PrefixStrategy::kBinPacked;
  LoadModel model(db.NumItems());

  auto count_pass = [&](PassContext& pass) {
    PassMetrics& m = pass.metrics;
    m.grid_rows = p;
    // Every rank regenerated C_k; it keeps only its bin-packed share, as
    // the paper's implementation computes the first-item histogram,
    // bin-packs, and regenerates the local partition.
    const CandidatePartition partition = parallel_internal::PartitionFirstItems(
        pass, db.NumItems(), p, config, adaptive ? &model : nullptr);
    const std::vector<std::uint32_t>& my_ids = partition.ids_per_part[rank];
    m.num_candidates_local = my_ids.size();

    // Identity root dispatch keeps the per-first-item attribution exact
    // (no co-bucket cross-charging) and skips false root descents into
    // unowned subtrees; counts are shape-independent, so output stays
    // byte-identical to the static hashed-root tree.
    parallel_internal::OwnedCounting how{config.apriori.tree};
    how.tree.identity_root = adaptive;
    if (config.idd_use_bitmap) {
      how.root_filter = &partition.first_item_filter[rank];
    }
    how.attribute_items = adaptive ? db.NumItems() : 0;
    parallel_internal::OwnedCounts counted =
        parallel_internal::CountDeliveredPages(
            pass, config.apriori, my_ids, how, [&](const auto& sink) {
              m.data_bytes_sent += parallel_internal::RingShiftAll(
                  comm, Paginate(db, slice, config.page_bytes), sink,
                  &m.data_messages_sent);
            });

    // Feed the measured per-first-item subset work back into the model;
    // every rank folds identical totals, so the next pass's partition is
    // recomputed identically with no decision broadcast. Triangle passes
    // have no per-item attribution and are skipped.
    if (!counted.item_work.empty()) {
      parallel_internal::ObserveTreePass(pass, comm, counted.item_work, p,
                                         &model);
    }
    pass.candidates.counts() = std::move(counted.counts);
    return ExchangeFrequent(
        comm, FrequentSubset(pass.candidates, my_ids, pass.minsup),
        &m.broadcast_words);
  };
  return parallel_internal::RunPasses(db, comm, config, slice, count_pass);
}

}  // namespace pam
